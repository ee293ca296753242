//! How fast the host is running, measured beside the workload.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! moves by a quarter between states it keeps for seconds or for
//! minutes; every time-like figure of a run moves with it. A fixed
//! kernel that belongs to the benchmark and not to the system under
//! test is timed between the slices of a run, and the run's throughput
//! and latency are reported at the speed the kernel ran at relative to
//! [`NOMINAL_S`]. A change to the system cannot move the kernel, so it
//! shows in the scaled figures exactly as in the raw ones, which are
//! printed beside them.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Threads that run the kernel at once: the cores the workloads use.
const THREADS: usize = 2;
/// Each thread sums its own buffer of this size — larger than a core's
/// private cache, so that the kernel, like the scans and the forward
/// passes it stands in for, also feels the shared cache and memory.
const BUFFER_BYTES: usize = 4 << 20;
const PASSES: usize = 60;
/// What one sample takes on the reference container in its fast state.
/// It only sets the scale: there, scaled and raw figures agree.
const NOMINAL_S: f64 = 0.010;

pub struct HostSpeed {
    buffers: Vec<Vec<u64>>,
    samples: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            buffers: (0..THREADS as u64)
                .map(|t| (0..(BUFFER_BYTES / 8) as u64).map(|i| i * 31 + t).collect())
                .collect(),
            samples: Vec::new(),
        }
    }

    /// Times the kernel once: the slowest of the threads.
    pub fn sample(&mut self) {
        let slowest = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .buffers
                .iter()
                .map(|buffer| {
                    scope.spawn(move || {
                        let t = Instant::now();
                        let mut sum = 0u64;
                        for _ in 0..PASSES {
                            sum = black_box(buffer)
                                .iter()
                                .fold(sum, |s, &x| s.wrapping_add(x));
                        }
                        black_box(sum);
                        t.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .fold(0.0, f64::max)
        });
        self.samples.push(slowest);
    }

    /// Median sample, seconds; [`NOMINAL_S`] before the first sample.
    pub fn reference_s(&self) -> f64 {
        if self.samples.is_empty() {
            NOMINAL_S
        } else {
            median(&self.samples)
        }
    }

    /// How much slower than nominal the host ran: multiply a rate by
    /// it, divide a duration by it.
    pub fn slowdown(&self) -> f64 {
        self.reference_s() / NOMINAL_S
    }
}
