//! Dominant pair identification (paper §3.2.1) and the top-level matching
//! entry points.
//!
//! The search screens every pair of the two feature sets: the
//! `|S_X| × |S_Y|` descriptor term of the paper's cost analysis (§3.4).
//! One side, the *fixed* side (series 1), is prepared once
//! ([`PreparedFeatures`]): its features are sorted by σ, and its
//! descriptors and their group norms transposed. Under the `τ_s` screen
//! a candidate's admissible rows form one contiguous run of the σ order,
//! so only that run is screened, eight rows at a time, first on a
//! lower bound from eight group norms. Pairs the bound proves too far to
//! matter are dropped; the rest are gathered eight at a time, across
//! candidates, for the full descriptor distance. See DESIGN.md §17 for
//! why the result is bit-identical to comparing pair by pair.

use crate::config::MatchConfig;
use crate::interval::IntervalPartition;
use crate::prune::prune_inconsistent;
use crate::scores::{combined_scores, descriptor_similarity, mu_align, mu_sim};
use sdtw_salient::SalientFeature;
use serde::{Deserialize, Serialize};

/// Rows of the fixed side screened per pass, and pairs scored per
/// gathered pass.
const LANES: usize = 8;

/// Coordinate groups of the norm screen: four contiguous quarters of a
/// descriptor, each split into its even bins (positive slopes) and its
/// odd bins (negative slopes).
const GROUPS: usize = 8;

/// Absolute slack of the norm screen on squared values, for subnormal
/// rounding (DESIGN.md §17, "Group-norm screen").
const SCREEN_FLOOR: f64 = 1e-300;

/// A matched pair of salient features (indices into the two feature
/// slices) plus its scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedPair {
    /// Index of the feature in the first series' feature slice.
    pub idx1: usize,
    /// Index of the feature in the second series' feature slice.
    pub idx2: usize,
    /// Euclidean distance between the descriptors.
    pub desc_distance: f64,
    /// Combined score `µ_comb` (filled by the scoring pass).
    pub combined_score: f64,
    /// Scope `[start, end]` of the first feature (samples of series 1).
    pub scope1: (usize, usize),
    /// Scope `[start, end]` of the second feature (samples of series 2).
    pub scope2: (usize, usize),
}

/// Full output of feature matching.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchResult {
    /// Pairs surviving the dominance test, before inconsistency pruning —
    /// the state of the paper's Figure 7(a).
    pub raw_pairs: Vec<MatchedPair>,
    /// Pairs surviving inconsistency pruning — Figure 7(c).
    pub consistent_pairs: Vec<MatchedPair>,
    /// The interval partition induced by the committed scope boundaries —
    /// Figure 9.
    pub partition: IntervalPartition,
    /// Number of feature pairs that passed the `τ_a` and `τ_s` screens
    /// (the `|S_X| × |S_Y|` work term of the paper's complexity analysis,
    /// §3.4). Every such pair is compared; a pair whose group-norm bound
    /// proves it too far to matter is counted without its full descriptor
    /// distance being summed.
    pub descriptor_comparisons: usize,
}

/// What the screens, the scores and the partition read of one feature:
/// everything but its descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Anchor {
    sigma: f64,
    amplitude: f64,
    scope: (usize, usize),
    scope_len: f64,
    center: f64,
}

impl Anchor {
    fn of(f: &SalientFeature) -> Self {
        Self {
            sigma: f.keypoint.sigma,
            amplitude: f.amplitude,
            scope: (f.scope_start, f.scope_end),
            scope_len: f.scope_len,
            center: f.center(),
        }
    }
}

/// The `τ_a` screen's rejection test for amplitudes `a` (fixed side) and
/// `b`; a NaN difference passes.
fn amplitude_fails(a: f64, b: f64, tau_a: f64) -> bool {
    (a - b).abs() >= tau_a
}

/// The `τ_s` screen's rejection test for scales `a` (fixed side) and `b`.
fn scale_fails(a: f64, b: f64, tau_s: f64) -> bool {
    let ratio = if a > b { a / b } else { b / a };
    ratio >= tau_s
}

/// One side of feature matching prepared once, to be matched against any
/// number of candidate feature sets ([`match_prepared`]).
///
/// Rows are the features sorted by σ (stable). The descriptors are stored
/// transposed: value `k` of every row in turn, then value `k + 1`, so the
/// `k`-th values of any eight consecutive rows sit side by side. The
/// norms of each row's eight coordinate groups are stored the same way,
/// so one pass over a candidate's group norms bounds eight rows. Fewer
/// than eight rows are padded with zero rows, which never pass a screen.
/// The prepared form is the only copy of the descriptors it needs; the
/// features themselves can be dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedFeatures {
    /// Descriptor length shared by every feature (0 without features).
    bins: usize,
    /// Rows per descriptor value in `lanes` and per group in `norms`: the
    /// row count, at least eight.
    stride: usize,
    /// Feature (caller's order) → its row.
    rank: Vec<usize>,
    /// The rows, σ ascending.
    rows: Vec<Anchor>,
    /// The transposed descriptors: value `k` of row `r` at
    /// `k * stride + r`.
    lanes: Vec<f64>,
    /// The transposed group norms ([`group_norms`]): group `g` of row `r`
    /// at `g * stride + r`.
    norms: Vec<f64>,
    /// Per row, the sum of its squared group norms.
    norm_sq: Vec<f64>,
    /// The rows of each distinct σ, as (σ, first row), σ ascending; empty
    /// unless every σ is finite and positive, which makes a candidate's
    /// `τ_s`-admissible rows one contiguous run.
    scales: Vec<(f64, usize)>,
}

impl PreparedFeatures {
    /// Prepares `features` as the fixed side of matching.
    ///
    /// # Panics
    ///
    /// When the descriptors differ in length; the message names both
    /// lengths.
    pub fn new(features: &[SalientFeature]) -> Self {
        let bins = features.first().map_or(0, |f| f.descriptor.len());
        for (i, f) in features.iter().enumerate() {
            assert!(
                f.descriptor.len() == bins,
                "descriptor lengths differ: feature 0 has {bins} values, feature {i} has {}",
                f.descriptor.len()
            );
        }
        let mut order: Vec<usize> = (0..features.len()).collect();
        order.sort_by(|&a, &b| {
            features[a]
                .keypoint
                .sigma
                .total_cmp(&features[b].keypoint.sigma)
        });
        let stride = order.len().max(LANES);
        let mut rank = vec![0; order.len()];
        let mut rows = Vec::with_capacity(order.len());
        let mut lanes = vec![0.0; bins * stride];
        let mut norms = vec![0.0; GROUPS * stride];
        let mut norm_sq = Vec::with_capacity(order.len());
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
            rows.push(Anchor::of(&features[i]));
            let descriptor = &features[i].descriptor;
            for (column, &x) in lanes.chunks_exact_mut(stride).zip(descriptor) {
                column[r] = x;
            }
            let (groups, sq) = group_norms(descriptor);
            for (column, a) in norms.chunks_exact_mut(stride).zip(groups) {
                column[r] = a;
            }
            norm_sq.push(sq);
        }
        let mut scales: Vec<(f64, usize)> = Vec::new();
        if rows.iter().all(|r| r.sigma.is_finite() && r.sigma > 0.0) {
            for (r, row) in rows.iter().enumerate() {
                if scales.last().is_none_or(|&(sigma, _)| sigma != row.sigma) {
                    scales.push((row.sigma, r));
                }
            }
        }
        Self {
            bins,
            stride,
            rank,
            rows,
            lanes,
            norms,
            norm_sq,
            scales,
        }
    }

    /// Number of prepared features.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no features.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature `i` (caller's order) as the screens and scores read it.
    fn anchor(&self, i: usize) -> Anchor {
        self.rows[self.rank[i]]
    }

    /// The rows `[lo, hi)` outside which every row fails the `τ_s` screen
    /// against scale `b`, and whether every row inside passes it. With
    /// positive finite scales on both sides the ratio test is monotone in
    /// the row's σ: the scales too small to pass come first, those too
    /// large last, and the screen's own predicate, tested once per
    /// distinct σ, finds both ends. Otherwise the run is every row,
    /// screened one by one.
    fn scale_run(&self, b: f64, tau_s: Option<f64>) -> (usize, usize, bool) {
        let n = self.rows.len();
        match tau_s {
            None => (0, n, true),
            Some(t) if !self.scales.is_empty() && b.is_finite() && b > 0.0 => {
                let first_row = |g: usize| self.scales.get(g).map_or(n, |s| s.1);
                let lo = self
                    .scales
                    .iter()
                    .position(|&(a, _)| a > b || !scale_fails(a, b, t))
                    .unwrap_or(self.scales.len());
                let hi = self.scales[lo..]
                    .iter()
                    .position(|&(a, _)| a > b && scale_fails(a, b, t))
                    .map_or(self.scales.len(), |k| lo + k);
                (first_row(lo), first_row(hi), true)
            }
            Some(_) => (0, n, false),
        }
    }

    /// The descriptors in the caller's order, one after another.
    fn descriptors(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len() * self.bins];
        for (i, &r) in self.rank.iter().enumerate() {
            for (x, column) in out[i * self.bins..][..self.bins]
                .iter_mut()
                .zip(self.lanes.chunks_exact(self.stride))
            {
                *x = column[r];
            }
        }
        out
    }
}

impl Default for PreparedFeatures {
    /// No features.
    fn default() -> Self {
        Self::new(&[])
    }
}

/// The norms of `x`'s [`GROUPS`] coordinate groups, and the sum of their
/// squares. Of `n` bins, quarter `q` holds bins `q·n/4 .. (q + 1)·n/4`;
/// group `2q` takes its even bins and group `2q + 1` its odd ones. Any
/// partition of the bins gives a valid bound; this one follows the
/// descriptor's (positive, negative) slope pair per cell.
fn group_norms(x: &[f64]) -> ([f64; GROUPS], f64) {
    let n = x.len();
    let from: [usize; 4] = std::array::from_fn(|q| q * n / 4);
    // each quarter's sums over the bins at even and at odd offsets from
    // its start, the four quarters in step over the pairs they all have
    let pairs = n / 8;
    let heads: [&[f64]; 4] = from.map(|f| &x[f..f + 2 * pairs]);
    let (mut lead, mut other) = ([0.0f64; 4], [0.0f64; 4]);
    for i in 0..pairs {
        for q in 0..4 {
            let (a, b) = (heads[q][2 * i], heads[q][2 * i + 1]);
            lead[q] += a * a;
            other[q] += b * b;
        }
    }
    let mut sums = [0.0f64; GROUPS];
    for q in 0..4 {
        let tail = &x[from[q] + 2 * pairs..(q + 1) * n / 4];
        for (k, &v) in tail.iter().enumerate() {
            let s = if k % 2 == 0 {
                &mut lead[q]
            } else {
                &mut other[q]
            };
            *s += v * v;
        }
        // bin `from + k` is even when `k` has the parity of `from`
        let g = 2 * q + from[q] % 2;
        sums[g] = lead[q];
        sums[g ^ 1] = other[q];
    }
    let norms = sums.map(f64::sqrt);
    (norms, norms.iter().map(|a| a * a).sum())
}

/// The norm screen's margin for descriptors of `bins` values: a lane is
/// dropped when its squared bound exceeds
/// `lim² · (1 + margin) + margin · (‖x‖² + ‖y‖²) + SCREEN_FLOOR`, which
/// covers the rounding of the bound and of the distance (DESIGN.md §17,
/// "Group-norm screen").
fn screen_margin(bins: usize) -> f64 {
    (4.0 * bins as f64 * f64::EPSILON).max(1e-9)
}

/// The fixed-side part of a row's screen threshold: limit `lim`, the row's
/// squared group norms summing to `norm_sq`.
fn row_threshold(lim: f64, norm_sq: f64, margin: f64) -> f64 {
    lim * lim * (1.0 + margin) + margin * norm_sq + SCREEN_FLOOR
}

/// Rows `start..start + LANES` of a transposed group-norm matrix against
/// a candidate's group norms `y`: lane `l` is `Σ_g (‖x_g‖ − ‖y_g‖)²`,
/// which never exceeds the squared descriptor distance save for rounding.
#[inline]
fn lane_bounds(norms: &[f64], stride: usize, start: usize, y: &[f64; GROUPS]) -> [f64; LANES] {
    let mut acc = [0.0f64; LANES];
    for (column, &b) in norms.chunks_exact(stride).zip(y) {
        let window: &[f64; LANES] = column[start..start + LANES]
            .try_into()
            .expect("LANES lanes");
        for (a, &x) in acc.iter_mut().zip(window) {
            let d = x - b;
            *a += d * d;
        }
    }
    acc
}

/// Rows `rows` of a transposed descriptor matrix against descriptors `ys`,
/// lane by lane: lane `l` sums `(x_k − y_k)²` over `k` ascending from
/// `Iterator::sum`'s seed `-0.0`, then takes the root — the operations,
/// in the order, of `sdtw_tseries::metric::euclidean`. The lanes are
/// independent chains.
fn gathered_distances(
    lanes: &[f64],
    stride: usize,
    rows: &[usize; LANES],
    ys: &[&[f64]; LANES],
) -> [f64; LANES] {
    let bins = lanes.len() / stride;
    let ys = ys.map(|y| &y[..bins]);
    assert!(rows.iter().all(|&r| r < stride), "rows inside the stride");
    let mut acc = [-0.0f64; LANES];
    for k in 0..bins {
        let column = &lanes[k * stride..][..stride];
        for l in 0..LANES {
            let d = column[rows[l]] - ys[l][k];
            acc[l] += d * d;
        }
    }
    acc.map(f64::sqrt)
}

/// The candidate side of the dominant-pair search, read in index order.
trait Candidates {
    fn len(&self) -> usize;
    fn anchor(&self, j: usize) -> Anchor;
    fn descriptor(&self, j: usize) -> &[f64];
}

impl Candidates for [SalientFeature] {
    fn len(&self) -> usize {
        <[SalientFeature]>::len(self)
    }

    fn anchor(&self, j: usize) -> Anchor {
        Anchor::of(&self[j])
    }

    fn descriptor(&self, j: usize) -> &[f64] {
        &self[j].descriptor
    }
}

/// A prepared side read back as candidates.
struct Unprepared<'a> {
    prepared: &'a PreparedFeatures,
    descriptors: Vec<f64>,
}

impl Candidates for Unprepared<'_> {
    fn len(&self) -> usize {
        self.prepared.len()
    }

    fn anchor(&self, j: usize) -> Anchor {
        self.prepared.anchor(j)
    }

    fn descriptor(&self, j: usize) -> &[f64] {
        let bins = self.prepared.bins;
        &self.descriptors[j * bins..][..bins]
    }
}

/// Best and second-best candidate of one fixed-side feature.
#[derive(Clone, Copy)]
struct RowBest {
    best: Option<(usize, f64)>,
    second_best: f64,
}

impl RowBest {
    const NONE: Self = Self {
        best: None,
        second_best: f64::INFINITY,
    };

    /// Offers candidate `j` at distance `d`; candidates arrive in
    /// ascending `j`, so the lowest index wins a tie.
    fn offer(&mut self, j: usize, d: f64) {
        match self.best {
            None => self.best = Some((j, d)),
            Some((_, bd)) if d < bd => {
                self.second_best = bd;
                self.best = Some((j, d));
            }
            _ => self.second_best = self.second_best.min(d),
        }
    }
}

/// Screened pairs waiting for their descriptor distance, in push order:
/// the row, the candidate and its descriptor of each.
#[derive(Default)]
struct Gathered<'a> {
    rows: [usize; LANES],
    candidates: [usize; LANES],
    descriptors: [&'a [f64]; LANES],
    len: usize,
}

impl<'a> Gathered<'a> {
    /// Queues row `r` against candidate `j`; true when the batch is full.
    fn push(&mut self, r: usize, j: usize, y: &'a [f64]) -> bool {
        self.rows[self.len] = r;
        self.candidates[self.len] = j;
        self.descriptors[self.len] = y;
        self.len += 1;
        self.len == LANES
    }

    /// Scores the waiting pairs and offers them to their rows in push
    /// order, then refreshes each offered row's screen threshold from its
    /// limit `min(cap, second best)`.
    fn flush(
        &mut self,
        fixed: &PreparedFeatures,
        best: &mut [RowBest],
        thresholds: &mut [f64],
        cap: f64,
        margin: f64,
    ) {
        if self.len == 0 {
            return;
        }
        // idle lanes repeat lane 0; their sums are discarded
        for l in self.len..LANES {
            self.rows[l] = self.rows[0];
            self.descriptors[l] = self.descriptors[0];
        }
        let d = gathered_distances(&fixed.lanes, fixed.stride, &self.rows, &self.descriptors);
        for ((&r, &j), &d) in self
            .rows
            .iter()
            .zip(&self.candidates)
            .zip(&d)
            .take(self.len)
        {
            best[r].offer(j, d);
            let lim = cap.min(best[r].second_best);
            thresholds[r] = row_threshold(lim, fixed.norm_sq[r], margin);
        }
        self.len = 0;
    }
}

/// Dominant-pair search: for each fixed-side feature, the nearest
/// (descriptor-Euclidean) screened candidate is returned iff it
/// `τ_d`-dominates every other screened candidate. Pairs come out in
/// fixed-side order; the count is the number of screened comparisons.
///
/// A screened pair whose group-norm bound proves its distance above its
/// row's limit is dropped without its distance. The limit is the lower
/// of the cap `max(max_desc_distance, max_desc_distance · τ_d)`, beyond
/// which a candidate can neither be emitted nor block the pair emitted,
/// and the row's second best so far, beyond which a candidate changes
/// nothing. The others are queued and scored eight at a time across
/// candidates.
fn dominant_pairs<C: Candidates + ?Sized>(
    fixed: &PreparedFeatures,
    candidates: &C,
    cfg: &MatchConfig,
) -> (Vec<MatchedPair>, usize) {
    // indexed by row
    let mut best = vec![RowBest::NONE; fixed.len()];
    let mut comparisons = 0usize;
    if !fixed.is_empty() {
        let margin = screen_margin(fixed.bins);
        // each candidate's group norms, and its part of the threshold
        let screens: Vec<([f64; GROUPS], f64)> = (0..candidates.len())
            .map(|j| {
                let y = candidates.descriptor(j);
                assert!(
                    y.len() == fixed.bins,
                    "descriptor lengths differ: series 1 has {} values, feature {j} of series 2 has {}",
                    fixed.bins,
                    y.len()
                );
                let (norms, norm_sq) = group_norms(y);
                (norms, margin * norm_sq)
            })
            .collect();
        // A NaN distance becomes a row's best only as its first
        // candidate, so dropping a far candidate ahead of it would change
        // the row. Only a non-finite value makes a NaN distance, and it
        // makes its norms non-finite: then the cap is off, and lanes are
        // dropped above the second best alone.
        let finite = fixed.norm_sq.iter().all(|s| s.is_finite())
            && screens.iter().all(|(_, slack)| slack.is_finite());
        let cap = match cfg.max_desc_distance {
            Some(max) if finite => max.max(max * cfg.tau_d),
            _ => f64::INFINITY,
        };
        // indexed by row, padded to the stride
        let mut thresholds = vec![f64::INFINITY; fixed.stride];
        for (t, &norm_sq) in thresholds.iter_mut().zip(&fixed.norm_sq) {
            *t = row_threshold(cap, norm_sq, margin);
        }
        let mut pending = Gathered::default();
        for (j, (y_norms, y_slack)) in screens.iter().enumerate() {
            let c = candidates.anchor(j);
            let (lo, hi, scale_checked) = fixed.scale_run(c.sigma, cfg.tau_s);
            // with the `τ_s` run exact and `τ_a` off, every row of the run
            // passes
            let every_row = scale_checked && cfg.tau_a.is_none();
            let passes = |r: usize| {
                every_row || {
                    let row = &fixed.rows[r];
                    let amplitude_ok = cfg
                        .tau_a
                        .is_none_or(|tau_a| !amplitude_fails(row.amplitude, c.amplitude, tau_a));
                    let scale_ok = scale_checked
                        || cfg
                            .tau_s
                            .is_none_or(|t| !scale_fails(row.sigma, c.sigma, t));
                    amplitude_ok && scale_ok
                }
            };
            // windows of up to LANES rows, each starting at the next
            // passing row; queued pairs reach their rows in push order,
            // so every row's updates stay in ascending `j`
            let mut next = lo;
            while let Some(first) = (next..hi).find(|&r| passes(r)) {
                let end = (first + LANES).min(hi);
                let mask = if every_row {
                    (1u32 << (end - first)) - 1
                } else {
                    (first..end)
                        .filter(|&r| passes(r))
                        .fold(0u32, |mask, r| mask | 1 << (r - first))
                };
                comparisons += mask.count_ones() as usize;
                // a window near the last row slides back to stay inside
                // the stride
                let start = first.min(fixed.stride - LANES);
                // a threshold not yet lowered by queued pairs is only
                // looser
                let bounds = lane_bounds(&fixed.norms, fixed.stride, start, y_norms);
                let limits: &[f64; LANES] = thresholds[start..start + LANES]
                    .try_into()
                    .expect("LANES lanes");
                let mut far = 0u32;
                for l in 0..LANES {
                    far |= u32::from(bounds[l] > limits[l] + y_slack) << l;
                }
                let mut keep = mask & !(far >> (first - start));
                while keep != 0 {
                    let r = first + keep.trailing_zeros() as usize;
                    keep &= keep - 1;
                    if pending.push(r, j, candidates.descriptor(j)) {
                        pending.flush(fixed, &mut best, &mut thresholds, cap, margin);
                    }
                }
                next = end;
            }
        }
        pending.flush(fixed, &mut best, &mut thresholds, cap, margin);
    }
    let mut out = Vec::new();
    for (i, &r) in fixed.rank.iter().enumerate() {
        if let Some((j, d)) = best[r].best {
            // absolute "small distance" ceiling, then the dominance test:
            // best * tau_d must not exceed every other candidate's
            // distance (vacuously true with no second)
            let small_enough = cfg.max_desc_distance.is_none_or(|max| d <= max);
            if small_enough && d * cfg.tau_d <= best[r].second_best {
                out.push(MatchedPair {
                    idx1: i,
                    idx2: j,
                    desc_distance: d,
                    combined_score: 0.0,
                    scope1: fixed.rows[r].scope,
                    scope2: candidates.anchor(j).scope,
                });
            }
        }
    }
    (out, comparisons)
}

/// Scores raw pairs in place (fills `combined_score`).
fn score_pairs<C: Candidates + ?Sized>(
    pairs: &mut [MatchedPair],
    fixed: &PreparedFeatures,
    candidates: &C,
) {
    if pairs.is_empty() {
        return;
    }
    // µ_desc,min over the matched pairs
    let mu_desc_min = pairs
        .iter()
        .map(|p| descriptor_similarity(p.desc_distance))
        .fold(f64::INFINITY, f64::min);
    let raw: Vec<(f64, f64)> = pairs
        .iter()
        .map(|p| {
            let a1 = fixed.anchor(p.idx1);
            let a2 = candidates.anchor(p.idx2);
            (
                mu_align(a1.scope_len, a1.center, a2.scope_len, a2.center),
                mu_sim(p.desc_distance, a1.amplitude, a2.amplitude, mu_desc_min),
            )
        })
        .collect();
    for (pair, score) in pairs.iter_mut().zip(combined_scores(&raw)) {
        pair.combined_score = score;
    }
}

/// Dominant pairs → scoring → inconsistency pruning → interval partition.
fn run_matching<C: Candidates + ?Sized>(
    fixed: &PreparedFeatures,
    candidates: &C,
    n: usize,
    m: usize,
    cfg: &MatchConfig,
) -> MatchResult {
    let (mut raw_pairs, descriptor_comparisons) = dominant_pairs(fixed, candidates, cfg);
    score_pairs(&mut raw_pairs, fixed, candidates);
    let consistent_pairs = prune_inconsistent(&raw_pairs);
    let partition = IntervalPartition::from_pairs(&consistent_pairs, n, m);
    MatchResult {
        raw_pairs,
        consistent_pairs,
        partition,
        descriptor_comparisons,
    }
}

/// The complete matching pipeline of paper §3.2: dominant pairs → scoring →
/// inconsistency pruning → interval partition. `n` and `m` are the lengths
/// of the two series (needed to close the partition at the series ends).
///
/// Prepares `feats1` and runs [`match_prepared`]; prepare once instead
/// when one side is matched against many.
///
/// # Panics
///
/// When the descriptors differ in length (within `feats1`, or between
/// `feats1` and `feats2`); the message names both lengths.
pub fn match_features(
    feats1: &[SalientFeature],
    feats2: &[SalientFeature],
    n: usize,
    m: usize,
    cfg: &MatchConfig,
) -> MatchResult {
    match_prepared(&PreparedFeatures::new(feats1), feats2, n, m, cfg)
}

/// [`match_features`] with series 1's features prepared.
///
/// # Panics
///
/// When a descriptor of `feats2` differs in length from the prepared
/// ones; the message names both lengths.
pub fn match_prepared(
    feats1: &PreparedFeatures,
    feats2: &[SalientFeature],
    n: usize,
    m: usize,
    cfg: &MatchConfig,
) -> MatchResult {
    run_matching(feats1, feats2, n, m, cfg)
}

/// [`match_features`] with series 2's features prepared: the backward
/// direction of a symmetric band against a side prepared as series 1.
/// Prepares `feats1`.
///
/// # Panics
///
/// When the descriptors differ in length; the message names both
/// lengths.
pub fn match_onto_prepared(
    feats1: &[SalientFeature],
    feats2: &PreparedFeatures,
    n: usize,
    m: usize,
    cfg: &MatchConfig,
) -> MatchResult {
    let candidates = Unprepared {
        prepared: feats2,
        descriptors: feats2.descriptors(),
    };
    run_matching(&PreparedFeatures::new(feats1), &candidates, n, m, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw_salient::{Keypoint, Polarity};

    fn feat(position: usize, sigma: f64, amplitude: f64, descriptor: Vec<f64>) -> SalientFeature {
        let scope = (3.0 * sigma) as usize;
        SalientFeature {
            keypoint: Keypoint {
                position,
                octave_position: position,
                octave: 0,
                level: 1,
                sigma,
                response: 0.5,
                polarity: Polarity::Peak,
            },
            scope_start: position.saturating_sub(scope),
            scope_end: position + scope,
            scope_len: 6.0 * sigma + 1.0,
            amplitude,
            descriptor,
        }
    }

    #[test]
    fn matches_identical_features() {
        let f1 = vec![feat(10, 2.0, 1.0, vec![1.0, 0.0, 0.0])];
        let f2 = vec![feat(12, 2.0, 1.0, vec![1.0, 0.0, 0.0])];
        let r = match_features(&f1, &f2, 100, 100, &MatchConfig::default());
        assert_eq!(r.raw_pairs.len(), 1);
        assert_eq!(r.raw_pairs[0].idx1, 0);
        assert_eq!(r.raw_pairs[0].idx2, 0);
        assert_eq!(r.raw_pairs[0].desc_distance, 0.0);
        assert_eq!(r.descriptor_comparisons, 1);
    }

    #[test]
    fn dominance_test_rejects_ambiguous_matches() {
        let f1 = vec![feat(10, 2.0, 1.0, vec![1.0, 0.0])];
        // two nearly identical candidates: neither dominates
        let f2 = vec![
            feat(10, 2.0, 1.0, vec![0.95, 0.0]),
            feat(60, 2.0, 1.0, vec![0.94, 0.0]),
        ];
        let cfg = MatchConfig {
            tau_d: 1.5,
            ..Default::default()
        };
        let r = match_features(&f1, &f2, 100, 100, &cfg);
        assert!(r.raw_pairs.is_empty(), "ambiguous match must be dropped");
        // a clearly distinct second candidate lets the best one through
        let f2b = vec![
            feat(10, 2.0, 1.0, vec![1.0, 0.0]),
            feat(60, 2.0, 1.0, vec![0.0, 5.0]),
        ];
        let r = match_features(&f1, &f2b, 100, 100, &cfg);
        assert_eq!(r.raw_pairs.len(), 1);
        assert_eq!(r.raw_pairs[0].idx2, 0);
    }

    #[test]
    fn amplitude_screen_applies_when_enabled() {
        let f1 = vec![feat(10, 2.0, 1.0, vec![1.0])];
        let f2 = vec![feat(10, 2.0, 5.0, vec![1.0])];
        let off = MatchConfig {
            tau_a: None,
            ..Default::default()
        };
        assert_eq!(match_features(&f1, &f2, 50, 50, &off).raw_pairs.len(), 1);
        let on = MatchConfig {
            tau_a: Some(1.0),
            ..Default::default()
        };
        assert!(match_features(&f1, &f2, 50, 50, &on).raw_pairs.is_empty());
    }

    #[test]
    fn scale_screen_applies_when_enabled() {
        let f1 = vec![feat(10, 1.0, 1.0, vec![1.0])];
        let f2 = vec![feat(10, 8.0, 1.0, vec![1.0])];
        let on = MatchConfig {
            tau_s: Some(4.0),
            ..Default::default()
        };
        assert!(match_features(&f1, &f2, 80, 80, &on).raw_pairs.is_empty());
        let off = MatchConfig {
            tau_s: None,
            ..Default::default()
        };
        assert_eq!(match_features(&f1, &f2, 80, 80, &off).raw_pairs.len(), 1);
    }

    #[test]
    fn scores_are_filled_and_bounded() {
        let f1 = vec![
            feat(10, 2.0, 1.0, vec![1.0, 0.0]),
            feat(50, 3.0, 0.5, vec![0.0, 1.0]),
        ];
        let f2 = vec![
            feat(11, 2.0, 1.0, vec![1.0, 0.0]),
            feat(55, 3.0, 0.5, vec![0.0, 1.0]),
        ];
        let r = match_features(&f1, &f2, 100, 100, &MatchConfig::default());
        assert_eq!(r.raw_pairs.len(), 2);
        for p in &r.raw_pairs {
            assert!((0.0..=1.0).contains(&p.combined_score));
        }
        // the perfectly aligned identical pair scores at least as high
        let p0 = r.raw_pairs.iter().find(|p| p.idx1 == 0).unwrap();
        assert!(p0.combined_score > 0.5);
    }

    #[test]
    fn empty_feature_sets_produce_empty_result() {
        let r = match_features(&[], &[], 10, 10, &MatchConfig::default());
        assert!(r.raw_pairs.is_empty());
        assert!(r.consistent_pairs.is_empty());
        assert_eq!(r.descriptor_comparisons, 0);
        assert_eq!(r.partition.interval_count(), 1); // whole-series interval
    }

    #[test]
    fn comparison_counter_counts_screened_pairs_only() {
        let f1 = vec![feat(10, 1.0, 1.0, vec![1.0]), feat(20, 1.0, 9.0, vec![1.0])];
        let f2 = vec![feat(10, 1.0, 1.0, vec![1.0]), feat(20, 1.0, 9.0, vec![1.0])];
        let cfg = MatchConfig {
            tau_a: Some(0.5),
            ..Default::default()
        };
        let r = match_features(&f1, &f2, 50, 50, &cfg);
        // only amplitude-compatible combinations are compared: (0,0), (1,1)
        assert_eq!(r.descriptor_comparisons, 2);
    }

    #[test]
    fn prepared_sides_match_like_the_wrapper() {
        // ten rows: one full window of eight plus a tail that slides back
        let f1: Vec<SalientFeature> = (0..10)
            .map(|k| {
                let sigma = [1.0, 1.5, 2.0, 3.0][k % 4];
                feat(10 + 8 * k, sigma, 0.1 * k as f64, vec![k as f64, 1.0, -0.5])
            })
            .collect();
        let f2: Vec<SalientFeature> = (0..6)
            .map(|k| {
                feat(
                    12 + 13 * k,
                    [1.0, 3.0][k % 2],
                    0.2,
                    vec![k as f64 * 1.5, 1.0, -0.4],
                )
            })
            .collect();
        let cfg = MatchConfig {
            max_desc_distance: None,
            ..Default::default()
        };
        let want = match_features(&f1, &f2, 100, 100, &cfg);
        assert!(want.descriptor_comparisons > 0);
        assert!(!want.raw_pairs.is_empty());
        let p1 = PreparedFeatures::new(&f1);
        assert_eq!(p1.len(), 10);
        assert_eq!(match_prepared(&p1, &f2, 100, 100, &cfg), want);
        let p2 = PreparedFeatures::new(&f2);
        assert_eq!(match_onto_prepared(&f1, &p2, 100, 100, &cfg), want);
        let empty = PreparedFeatures::default();
        assert!(empty.is_empty());
        let none = match_prepared(&empty, &f2, 100, 100, &cfg);
        assert_eq!(none.descriptor_comparisons, 0);
        assert_eq!(match_onto_prepared(&f1, &empty, 100, 100, &cfg), none);
    }

    #[test]
    #[should_panic(expected = "descriptor lengths differ: feature 0 has 2 values, feature 1 has 3")]
    fn descriptor_lengths_must_agree_within_a_side() {
        let f1 = vec![
            feat(10, 2.0, 1.0, vec![1.0, 0.0]),
            feat(30, 2.0, 1.0, vec![1.0, 0.0, 0.0]),
        ];
        match_features(&f1, &[], 50, 50, &MatchConfig::default());
    }

    #[test]
    #[should_panic(
        expected = "descriptor lengths differ: series 1 has 2 values, feature 1 of series 2 has 1"
    )]
    fn descriptor_lengths_must_agree_across_sides() {
        let f1 = vec![feat(10, 2.0, 1.0, vec![1.0, 0.0])];
        let f2 = vec![
            feat(10, 2.0, 1.0, vec![1.0, 0.0]),
            feat(20, 2.0, 1.0, vec![1.0]),
        ];
        match_features(&f1, &f2, 50, 50, &MatchConfig::default());
    }

    #[test]
    fn crossing_matches_are_pruned() {
        // two features in each series, matched crosswise: distinct
        // descriptors force idx1=0 -> idx2=1 (far in time) and vice versa.
        let f1 = vec![
            feat(10, 2.0, 1.0, vec![1.0, 0.0]),
            feat(80, 2.0, 1.0, vec![0.0, 1.0]),
        ];
        let f2 = vec![
            feat(10, 2.0, 1.0, vec![0.0, 1.0]),
            feat(80, 2.0, 1.0, vec![1.0, 0.0]),
        ];
        let r = match_features(&f1, &f2, 100, 100, &MatchConfig::default());
        assert_eq!(r.raw_pairs.len(), 2, "both cross matches found");
        // inconsistency pruning must drop one of the crossing pairs
        assert_eq!(r.consistent_pairs.len(), 1);
    }
}
