//! The calibration loop: a fixed piece of the benchmark's own work, timed
//! between requests, that says how fast the shared host ran while the
//! requests ran.
//!
//! The benchmark runs on a few cores of a shared host. Its speed moves in
//! steps of up to a third that last minutes, with the load the host's
//! other tenants put on it, and every timing of a run moves with it. The
//! loop is eight independent full-grid DTW recurrences over fixed
//! 128-sample series, run lane by lane like the program's wavefront DP, so
//! it leans on the same execution units a co-tenant contends for. It is
//! written here so that no change to the program can change it. Timed
//! about every [`CALIBRATE_EVERY`] in each caller, its mean over a run
//! divided by [`REFERENCE`] is the run's slowdown, and the end-to-end
//! timings are reported scaled to the reference speed. Measured on the
//! 2-vCPU host the benchmark was tuned on, as the coefficient of variation
//! of 25-second means over six minutes: serve_sakoe's engine work moved
//! by 9.1% and its ratio to the loop by 2.8%; knn_sdtw's queries by 8.2%
//! and their ratio by 3.0%. A single scalar recurrence tracked the host
//! less well: the same ratios to it moved by 6.1% and 4.5%.

use std::time::{Duration, Instant};

/// How often a caller stops to run the calibration loop.
pub const CALIBRATE_EVERY: Duration = Duration::from_millis(500);

/// The loop's time on the reference host, a 2-vCPU Xeon (Sapphire
/// Rapids) VM at a quiet moment; a run on it at that moment reports its
/// timings unscaled.
pub const REFERENCE: Duration = Duration::from_micros(7_000);

/// Recurrence sweeps per run of the loop.
const REPS: usize = 50;

/// Samples per series.
const LEN: usize = 128;

/// Independent recurrences, one per lane.
const LANES: usize = 8;

/// The loop's fixed inputs and its row buffers.
#[derive(Debug, Clone)]
pub struct Calibrator {
    /// Lane `l` of sample `i` is sample `i` of series `l`.
    a: Vec<[f64; LANES]>,
    b: Vec<f64>,
    prev: Vec<[f64; LANES]>,
    row: Vec<[f64; LANES]>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator {
            a: (0..LEN)
                .map(|i| std::array::from_fn(|l| (((i * 37 + l * 11) % 101) as f64).sin()))
                .collect(),
            b: (0..LEN).map(|i| ((i * 53 % 97) as f64).cos()).collect(),
            prev: Vec::with_capacity(LEN + 1),
            row: Vec::with_capacity(LEN + 1),
        }
    }
}

impl Calibrator {
    /// Runs the fixed work once and returns how long it took.
    pub fn run(&mut self) -> Duration {
        let t0 = Instant::now();
        let mut total = 0.0;
        for _ in 0..REPS {
            total += self.dtw().iter().sum::<f64>();
        }
        std::hint::black_box(total);
        t0.elapsed()
    }

    /// Full-grid DTW distances of the eight series in `a` to `b`,
    /// |x - y| costs.
    fn dtw(&mut self) -> [f64; LANES] {
        let m = self.b.len();
        self.prev.clear();
        self.prev.resize(m + 1, [f64::INFINITY; LANES]);
        self.prev[0] = [0.0; LANES];
        for x in std::hint::black_box(&self.a) {
            self.row.clear();
            self.row.push([f64::INFINITY; LANES]);
            for j in 0..m {
                let (up, diag, left) = (self.prev[j + 1], self.prev[j], self.row[j]);
                let y = self.b[j];
                self.row.push(std::array::from_fn(|l| {
                    (x[l] - y).abs() + diag[l].min(up[l]).min(left[l])
                }));
            }
            std::mem::swap(&mut self.row, &mut self.prev);
        }
        self.prev[m]
    }
}

/// How much slower than the reference the host ran: the mean loop time
/// over [`REFERENCE`]. No loop times count as unscaled.
pub fn slowdown(times: &[Duration]) -> f64 {
    if times.is_empty() {
        return 1.0;
    }
    let mean = times.iter().map(Duration::as_secs_f64).sum::<f64>() / times.len() as f64;
    mean / REFERENCE.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_computes_a_fixed_distance() {
        let mut p = Calibrator::default();
        let (d1, d2) = (p.dtw(), p.dtw());
        assert_eq!(d1.map(f64::to_bits), d2.map(f64::to_bits));
        assert!(d1.iter().all(|d| d.is_finite() && *d > 0.0));
        assert!(d1.windows(2).any(|w| w[0] != w[1]), "the lanes differ");
        assert!(p.run() > Duration::ZERO);
    }

    #[test]
    fn slowdown_is_the_mean_loop_time_over_the_reference() {
        assert_eq!(slowdown(&[]), 1.0);
        let s = slowdown(&[REFERENCE, REFERENCE * 2]);
        assert!((s - 1.5).abs() < 1e-12, "{s}");
    }
}
