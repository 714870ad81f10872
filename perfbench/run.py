#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The benchmark package (perfbench/) is
built in release mode against the simulator crates by path, into
$CARGO_TARGET_DIR (default: .bench_build). Cargo's output goes to stderr,
so the last line of standard output is the benchmark's JSON result. A
failed build exits non-zero and prints no result.
"""
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]


def content_hash():
    """A hash of the source files' paths and contents."""
    digest = hashlib.sha256()
    for name in SOURCES:
        path = ROOT / name
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def revision():
    """The git revision, marked dirty (with a content hash) when the
    sources differ from it; outside git, the content hash alone."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--", *SOURCES],
                                cwd=ROOT, capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            if status.stdout.strip():
                return f"{head.stdout.strip()}-dirty-{content_hash()}"
            return head.stdout.strip()
    return content_hash()


def main():
    missing = [s for s in SOURCES if not (ROOT / s).exists()]
    if missing:
        print(f"error: not a checkout of the simulator: missing {', '.join(missing)}",
              file=sys.stderr)
        return 3
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = pathlib.Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_REV"] = revision()
    run = subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]],
                         cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
