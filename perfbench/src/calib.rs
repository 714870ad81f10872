//! Host-speed calibration for the CPU-bound grid timings.
//!
//! The benchmark host's CPUs are shared: what runs on the other hardware
//! threads of the same cores moves the speed of identical code by up to 2×
//! within seconds, and by ±20 % between minutes. A fixed piece of
//! benchmark-owned work — independent of every simulator crate, so no
//! change to the program can move it — is timed between consecutive units,
//! and each unit's host time is scaled by how fast that work ran around it.
//! The README gives the spreads with and without it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the reference host (a quiet 2.1 GHz Xeon
/// virtual CPU), in ms. Calibrated times read as host time on that host.
pub const REFERENCE_MS: f64 = 1.3;
/// Kernel runs per sample; the fastest counts, so a single interrupt does
/// not read as a slow host.
const RUNS_PER_SAMPLE: usize = 3;
/// Slots in the kernel's table (256 KiB), and hold-model steps per run.
const TABLE: usize = 1 << 16;
const STEPS: usize = 20_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Times the calibration kernel — a hold model over a binary heap (the
/// shape of the simulator's event calendar) that scatters updates over a
/// table larger than the first-level cache — and calibrates the work timed
/// between consecutive samples.
pub struct Calibrator {
    table: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Every sample taken, in ms; the last one is the "before" of the next
    /// piece of work.
    samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with its buffers allocated once and its first sample
    /// taken: create it right before the first piece of timed work.
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            table: vec![0; TABLE],
            heap: BinaryHeap::with_capacity(1_024),
            samples: Vec::new(),
        };
        let first = c.sample();
        c.samples.push(first);
        c
    }

    /// One kernel run; the result depends only on the fixed input.
    fn kernel(&mut self) -> u64 {
        self.table.fill(0);
        self.heap.clear();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for id in 0..1_024 {
            x = xorshift(x);
            self.heap.push(Reverse((x % 2_048, id)));
        }
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Reverse((now, id)) = self.heap.pop().expect("the hold model keeps the heap full");
            x = xorshift(x);
            let slot = x as usize & (TABLE - 1);
            self.table[slot] = self.table[slot].wrapping_add(id as u32);
            if self.table[slot] & 3 == 1 {
                acc = acc.wrapping_add(u64::from(self.table[(slot * 7) & (TABLE - 1)]));
            }
            self.heap.push(Reverse((now + 1 + x % 2_048, id)));
        }
        acc
    }

    /// The host's current speed: the fastest of a few kernel runs, in ms.
    fn sample(&mut self) -> f64 {
        (0..RUNS_PER_SAMPLE)
            .map(|_| {
                let started = Instant::now();
                black_box(self.kernel());
                started.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Call right after a piece of work that took `wall` (any unit) and
    /// started right after the previous sample: takes the next sample and
    /// returns the work's time on the reference host, in the same unit.
    pub fn calibrate(&mut self, wall: f64) -> f64 {
        let before = *self.samples.last().expect("new() takes the first sample");
        let after = self.sample();
        self.samples.push(after);
        scale(wall, before, after)
    }

    /// Every kernel sample taken so far, in ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// `wall` as time on the reference host, from the kernel samples (ms)
/// taken just before and just after it.
fn scale(wall: f64, before_ms: f64, after_ms: f64) -> f64 {
    wall * REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_samples_are_positive() {
        let mut c = Calibrator::new();
        let first = c.kernel();
        assert_eq!(c.kernel(), first);
        assert_eq!(Calibrator::new().kernel(), first);
        assert!(c.calibrate(1.0) > 0.0);
        assert_eq!(c.samples().len(), 2);
    }

    #[test]
    fn a_host_at_half_speed_calibrates_to_the_same_time() {
        let quiet = scale(1.0, REFERENCE_MS, REFERENCE_MS);
        assert_eq!(quiet, 1.0);
        let busy = scale(2.0, 2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS);
        assert!((busy - quiet).abs() < 1e-12);
    }
}
