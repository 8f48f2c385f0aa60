//! Summary statistics for series and corpora.
//!
//! Used by dataset characterisation (Table 1 / Table 2 style reporting) and
//! by the experiment binaries when printing averages over runs.

use crate::series::TimeSeries;
use serde::{Deserialize, Serialize};

/// Per-series summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// Number of samples.
    pub len: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Mean absolute first difference (a cheap "busy-ness" indicator —
    /// feature-rich series like the 50Words family score high).
    pub roughness: f64,
}

impl SeriesSummary {
    /// Computes the summary of a series.
    pub fn of(ts: &TimeSeries) -> Self {
        let v = ts.values();
        let roughness = if v.len() < 2 {
            0.0
        } else {
            v.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (v.len() - 1) as f64
        };
        Self {
            len: ts.len(),
            mean: ts.mean(),
            std_dev: ts.std_dev(),
            min: ts.min(),
            max: ts.max(),
            roughness,
        }
    }
}

/// Mean of a slice of f64; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice; 0 for fewer than two values.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter()
        .map(|x| {
            let d = x - m;
            d * d
        })
        .sum::<f64>()
        / xs.len() as f64)
        .sqrt()
}

/// Median of a slice (averaging the middle pair for even lengths); 0 for an
/// empty slice. Does not mutate the input.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The running moments of one sliding window: offset-centred sums
/// `Σ (v − offset)` and `Σ (v − offset)²` over the window's samples,
/// the offset tracking the window mean so the squared terms never
/// catastrophically cancel.
///
/// This is the arithmetic core of [`WindowedStats`], public so a pass
/// over a contiguous slice (the batch rolling LB_Kim of `sdtw-stream`)
/// drives the very same updates — and so reports bit-identical moments
/// — without a ring buffer. A window fills through
/// [`SlidingMoments::grow`] (the first sample seeds the offset), then
/// moves through [`SlidingMoments::slide`], which asks for an exact
/// [`SlidingMoments::recentre`] once every window length of slides.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlidingMoments {
    /// Samples in the window.
    len: usize,
    /// Centring offset: sums accumulate `v - offset`, re-centred to the
    /// window mean at every refresh.
    offset: f64,
    /// Running `Σ (v - offset)` over the window.
    sum: f64,
    /// Running `Σ (v - offset)²` over the window.
    sum_sq: f64,
    /// Slides since the last exact recomputation of the sums.
    slides: usize,
}

impl SlidingMoments {
    /// Adds a sample to a window that is still filling. The first
    /// sample seeds the centring offset near the data's scale.
    #[inline]
    pub fn grow(&mut self, v: f64) {
        if self.len == 0 {
            self.offset = v;
        }
        self.len += 1;
        let c = v - self.offset;
        self.sum += c;
        self.sum_sq += c * c;
    }

    /// Slides a window by one sample: `new` enters, `old` (its oldest
    /// sample) leaves. Returns `true` once every window length of
    /// slides: the sums have drifted long enough, and the caller must
    /// now [`SlidingMoments::recentre`] them over the window as it
    /// stands after this slide.
    #[inline]
    #[must_use = "a due refresh must be performed with `recentre`"]
    pub fn slide(&mut self, new: f64, old: f64) -> bool {
        let c_new = new - self.offset;
        let c_old = old - self.offset;
        self.sum += c_new - c_old;
        self.sum_sq += c_new * c_new - c_old * c_old;
        self.slides += 1;
        self.slides >= self.len
    }

    /// Recomputes both sums exactly from `window` — the window's `len`
    /// samples, oldest first — and re-centres the offset on its mean
    /// (the drift flush, O(len)).
    pub fn recentre<I: Iterator<Item = f64> + Clone>(&mut self, window: I) {
        self.slides = 0;
        if self.len == 0 {
            self.sum = 0.0;
            self.sum_sq = 0.0;
            return;
        }
        let mut raw_sum = 0.0;
        for v in window.clone() {
            raw_sum += v;
        }
        self.offset = raw_sum / self.len as f64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for v in window {
            let c = v - self.offset;
            sum += c;
            sum_sq += c * c;
        }
        self.sum = sum;
        self.sum_sq = sum_sq;
    }

    /// Samples in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mean of the window; 0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.offset + self.sum / self.len as f64
        }
    }

    /// Population variance of the window (clamped at 0 against
    /// rounding); 0 for fewer than two samples.
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.len < 2 {
            return 0.0;
        }
        let n = self.len as f64;
        let var = self.sum_sq / n - (self.sum / n) * (self.sum / n);
        var.max(0.0)
    }

    /// Population standard deviation of the window.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Whether the moments are numerically trustworthy right now.
    ///
    /// The sliding variance is `Σc²/n − (Σc/n)²` over offset-centred
    /// samples; when the window sits far from the centring offset —
    /// e.g. just after a level shift in the stream, before the next
    /// scheduled re-centring — the two terms nearly cancel and the
    /// difference can be dominated by accumulated rounding. This
    /// reports `true` when the spread is at least 1% of the centred
    /// second moment, which bounds the relative error of
    /// [`SlidingMoments::std_dev`] by roughly `100·m·ε` (~1e-9 for
    /// windows up to ~10⁴ samples); consumers that prune on the moments
    /// (the rolling LB_Kim) abstain when it reports `false` and fall
    /// back to exact recomputation. Windows whose true deviation is
    /// genuinely tiny relative to their offset distance also report
    /// `false` — for those, batch-exact statistics are the only safe
    /// source.
    #[inline]
    pub fn well_conditioned(&self) -> bool {
        if self.len < 2 {
            return true;
        }
        let ms = self.sum_sq / self.len as f64;
        ms <= 0.0 || self.variance() >= 1e-2 * ms
    }
}

/// Incremental sliding-window moments: mean and (population) variance of
/// the last `capacity` pushed samples, maintained in O(1) amortised time
/// per push.
///
/// The accumulator keeps a ring buffer of the window contents plus its
/// [`SlidingMoments`]: the running sum and sum of squares of
/// *offset-centred* samples; each push adds the incoming sample and
/// subtracts the evicted one. Floating-point drift from the sliding
/// subtraction is bounded by recomputing both sums exactly from the
/// buffer — and re-centring the offset — once every `capacity` evictions
/// (an O(capacity) pass, so O(1) amortised). Over any stream length the
/// reported moments stay within ~1e-12 absolute-plus-relative error of
/// the batch [`mean`]/[`std_dev`] of the same window.
///
/// Streaming subsequence search uses one of these per monitored stream to
/// feed the O(1) LB_Kim screen; consumers that need *bit-exact* window
/// statistics (e.g. to reproduce [`crate::transform::z_normalize`])
/// should recompute them from [`WindowedStats::copy_window_into`] at the
/// point of use and treat these as a screening approximation.
#[derive(Debug, Clone)]
pub struct WindowedStats {
    /// Ring buffer of the current window, `buf[(head + k) % capacity]`
    /// being the k-th oldest retained sample.
    buf: Vec<f64>,
    capacity: usize,
    head: usize,
    /// The window's moments; their `len` is the number of retained
    /// samples.
    moments: SlidingMoments,
    /// Total samples ever pushed (stream position).
    pushed: u64,
}

impl WindowedStats {
    /// Creates an accumulator over a window of `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0` (programmer error).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            buf: vec![0.0; capacity],
            capacity,
            head: 0,
            moments: SlidingMoments::default(),
            pushed: 0,
        }
    }

    /// Pushes a sample, evicting (and returning) the oldest one once the
    /// window is full.
    pub fn push(&mut self, v: f64) -> Option<f64> {
        self.pushed += 1;
        let len = self.moments.len();
        if len < self.capacity {
            self.buf[(self.head + len) % self.capacity] = v;
            self.moments.grow(v);
            return None;
        }
        let old = self.buf[self.head];
        self.buf[self.head] = v;
        self.head = (self.head + 1) % self.capacity;
        if self.moments.slide(v, old) {
            // a full ring holds the window oldest first from `head`
            let (newer, older) = self.buf.split_at(self.head);
            self.moments.recentre(older.iter().chain(newer).copied());
        }
        Some(old)
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently in the window (`<= capacity`).
    pub fn len(&self) -> usize {
        self.moments.len()
    }

    /// Whether the window holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.moments.is_empty()
    }

    /// Whether the window is at capacity.
    pub fn is_full(&self) -> bool {
        self.moments.len() == self.capacity
    }

    /// Total samples ever pushed (the stream position; the current window
    /// covers offsets `[pushed - len, pushed)`).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Oldest retained sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty window.
    pub fn front(&self) -> f64 {
        assert!(!self.is_empty(), "window is empty");
        self.buf[self.head]
    }

    /// Newest retained sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty window.
    pub fn back(&self) -> f64 {
        assert!(!self.is_empty(), "window is empty");
        self.buf[(self.head + self.len() - 1) % self.capacity]
    }

    /// The window's running moments.
    pub fn moments(&self) -> &SlidingMoments {
        &self.moments
    }

    /// Mean of the window; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Population variance of the window (clamped at 0 against rounding);
    /// 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        self.moments.variance()
    }

    /// Population standard deviation of the window.
    pub fn std_dev(&self) -> f64 {
        self.moments.std_dev()
    }

    /// Whether the O(1) moments are numerically trustworthy right now
    /// (see [`SlidingMoments::well_conditioned`]).
    pub fn moments_well_conditioned(&self) -> bool {
        self.moments.well_conditioned()
    }

    /// Copies the window contents, oldest first, into `out` (cleared
    /// first). The copy is in stream order, suitable for exact batch
    /// recomputation or running the DP on the window.
    pub fn copy_window_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.len());
        for k in 0..self.len() {
            out.push(self.buf[(self.head + k) % self.capacity]);
        }
    }

    /// Empties the window (capacity is retained).
    pub fn clear(&mut self) {
        self.head = 0;
        self.moments = SlidingMoments::default();
        self.pushed = 0;
    }
}

/// Corpus-level summary: label histogram and length range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSummary {
    /// Number of series.
    pub count: usize,
    /// Number of distinct labels present (0 when unlabeled).
    pub classes: usize,
    /// Minimum series length.
    pub min_len: usize,
    /// Maximum series length.
    pub max_len: usize,
    /// Mean series length.
    pub mean_len: f64,
    /// Mean roughness across series.
    pub mean_roughness: f64,
}

impl CorpusSummary {
    /// Computes the summary of a corpus (slice of series).
    pub fn of(corpus: &[TimeSeries]) -> Self {
        use std::collections::BTreeSet;
        let mut labels = BTreeSet::new();
        let mut min_len = usize::MAX;
        let mut max_len = 0usize;
        let mut sum_len = 0usize;
        let mut sum_rough = 0.0;
        for ts in corpus {
            if let Some(l) = ts.label() {
                labels.insert(l);
            }
            min_len = min_len.min(ts.len());
            max_len = max_len.max(ts.len());
            sum_len += ts.len();
            sum_rough += SeriesSummary::of(ts).roughness;
        }
        let count = corpus.len();
        Self {
            count,
            classes: labels.len(),
            min_len: if count == 0 { 0 } else { min_len },
            max_len,
            mean_len: if count == 0 {
                0.0
            } else {
                sum_len as f64 / count as f64
            },
            mean_roughness: if count == 0 {
                0.0
            } else {
                sum_rough / count as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::new(v.to_vec()).unwrap()
    }

    #[test]
    fn series_summary_basics() {
        let s = SeriesSummary::of(&ts(&[0.0, 2.0, 0.0]));
        assert_eq!(s.len, 3);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 2.0);
        assert!((s.roughness - 2.0).abs() < 1e-12);
    }

    #[test]
    fn roughness_of_single_sample_is_zero() {
        assert_eq!(SeriesSummary::of(&ts(&[5.0])).roughness, 0.0);
    }

    #[test]
    fn slice_stats() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(std_dev(&[4.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // input untouched
        let xs = [9.0, 1.0];
        let _ = median(&xs);
        assert_eq!(xs, [9.0, 1.0]);
    }

    #[test]
    fn windowed_stats_filling_phase_matches_batch() {
        let mut w = WindowedStats::new(4);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        let xs = [2.0, -1.0, 3.5];
        for (i, &v) in xs.iter().enumerate() {
            assert_eq!(w.push(v), None, "no eviction while filling");
            assert_eq!(w.len(), i + 1);
            assert!((w.mean() - mean(&xs[..=i])).abs() < 1e-12);
            assert!((w.std_dev() - std_dev(&xs[..=i])).abs() < 1e-12);
        }
        assert!(!w.is_full());
        assert_eq!(w.front(), 2.0);
        assert_eq!(w.back(), 3.5);
    }

    #[test]
    fn windowed_stats_slides_and_evicts_in_order() {
        let mut w = WindowedStats::new(3);
        for v in [1.0, 2.0, 3.0] {
            w.push(v);
        }
        assert!(w.is_full());
        assert_eq!(w.push(4.0), Some(1.0));
        assert_eq!(w.push(5.0), Some(2.0));
        assert_eq!(w.front(), 3.0);
        assert_eq!(w.back(), 5.0);
        // window is now [3, 4, 5]
        assert!((w.mean() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - std_dev(&[3.0, 4.0, 5.0])).abs() < 1e-12);
        assert_eq!(w.pushed(), 5);
        let mut out = Vec::new();
        w.copy_window_into(&mut out);
        assert_eq!(out, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn windowed_stats_tracks_batch_over_long_streams() {
        // deterministic stream long enough to cross many refresh cycles
        let mut seed = 0xabcdu64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1000.0 + ((seed >> 33) as f64 / (1u64 << 31) as f64)
        };
        let stream: Vec<f64> = (0..5000).map(|_| rng()).collect();
        let m = 37;
        let mut w = WindowedStats::new(m);
        let mut copied = Vec::new();
        for (t, &v) in stream.iter().enumerate() {
            w.push(v);
            if t + 1 >= m {
                let window = &stream[t + 1 - m..=t];
                assert!(
                    (w.mean() - mean(window)).abs() <= 1e-9 * (1.0 + mean(window).abs()),
                    "mean drifted at {t}"
                );
                assert!(
                    (w.std_dev() - std_dev(window)).abs() <= 1e-9,
                    "std drifted at {t}: {} vs {}",
                    w.std_dev(),
                    std_dev(window)
                );
                if t % 997 == 0 {
                    w.copy_window_into(&mut copied);
                    assert_eq!(copied, window);
                }
            }
        }
    }

    #[test]
    fn windowed_stats_report_ill_conditioning_after_a_level_shift() {
        // samples near 0 (so the refreshes centre the offset there),
        // then — mid refresh cycle — a jump to 1e8 with a tiny ripple:
        // while the window sits fully inside the new level with a stale
        // offset, the centred sums cancel catastrophically and the
        // accumulator must flag it instead of reporting a confidently
        // wrong sigma. Whenever it claims to be well-conditioned, the
        // sigma must actually be accurate.
        let m = 16;
        let shift_at = 72; // 8 pushes past the refresh at 64
        let mut w = WindowedStats::new(m);
        let mut window = Vec::new();
        let mut saw_ill = false;
        for t in 0..200 {
            let v = if t < shift_at {
                (t as f64 / 3.0).sin()
            } else {
                1e8 + 1e-3 * (t as f64 / 2.0).sin()
            };
            w.push(v);
            if t < shift_at {
                assert!(w.moments_well_conditioned(), "well-centred at {t}");
                continue;
            }
            w.copy_window_into(&mut window);
            let exact_sd = std_dev(&window);
            if w.moments_well_conditioned() {
                assert!(
                    (w.std_dev() - exact_sd).abs() <= 1e-6 * (1.0 + exact_sd),
                    "t={t}: claimed well-conditioned but sigma is off: {} vs {exact_sd}",
                    w.std_dev()
                );
            } else if window.iter().all(|&x| x > 1e7) {
                // fully inside the new level with a stale offset
                saw_ill = true;
            }
        }
        assert!(
            saw_ill,
            "the stale-offset regime was never flagged — the guard is dead"
        );
        // long after the shift the scheduled refreshes have re-centred
        assert!(w.moments_well_conditioned(), "refresh restores trust");
    }

    #[test]
    fn windowed_stats_variance_clamps_and_clear_resets() {
        let mut w = WindowedStats::new(2);
        w.push(7.0);
        assert_eq!(w.variance(), 0.0, "single sample has zero variance");
        w.push(7.0);
        assert_eq!(w.std_dev(), 0.0, "constant window has zero deviation");
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.pushed(), 0);
        assert_eq!(w.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn windowed_stats_zero_capacity_panics() {
        let _ = WindowedStats::new(0);
    }

    #[test]
    fn corpus_summary_counts_classes_and_lengths() {
        let corpus = vec![
            ts(&[1.0, 2.0]).labeled(0),
            ts(&[1.0, 2.0, 3.0]).labeled(1),
            ts(&[1.0]).labeled(0),
        ];
        let s = CorpusSummary::of(&corpus);
        assert_eq!(s.count, 3);
        assert_eq!(s.classes, 2);
        assert_eq!(s.min_len, 1);
        assert_eq!(s.max_len, 3);
        assert!((s.mean_len - 2.0).abs() < 1e-12);
    }

    #[test]
    fn corpus_summary_empty() {
        let s = CorpusSummary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.classes, 0);
        assert_eq!(s.min_len, 0);
        assert_eq!(s.max_len, 0);
    }
}
