//! Wall-clock timing loop for the perf harness and the micro-benches: one
//! warm-up call, then a timed batch, reported as the mean per iteration.
//! No statistics or baselines; the spread of a result is judged by
//! repeating the run.

use std::time::Instant;

/// Mean wall time per iteration over one timed batch.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Mean wall nanoseconds per iteration.
    pub per_iter_ns: f64,
    /// Timed iterations.
    pub iters: u64,
}

impl Measurement {
    /// Throughput in MB/s (decimal megabytes) given bytes processed per
    /// iteration.
    pub fn mb_per_sec(&self, bytes_per_iter: u64) -> f64 {
        if self.per_iter_ns <= 0.0 {
            return 0.0;
        }
        bytes_per_iter as f64 / 1e6 / (self.per_iter_ns / 1e9)
    }
}

/// Call `f` once to warm up, then `iters` times (at least once) under the
/// clock.
pub fn measure_ns<F: FnMut()>(iters: u64, mut f: F) -> Measurement {
    let iters = iters.max(1);
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    Measurement {
        per_iter_ns: start.elapsed().as_nanos() as f64 / iters as f64,
        iters,
    }
}
