//! Brute-force subsequence oracle: the ground truth `sdtw-stream`'s
//! pruned matcher is asserted bit-identical against.
//!
//! Deliberately written with none of the matcher's machinery — every
//! window is materialised as a [`TimeSeries`], z-normalised through the
//! public [`z_normalize`] transform, and scored by a plain builder run
//! with no band reuse, no lower bounds and no early abandoning. Slow by
//! design; it exists to define semantics, not to be fast.

use sdtw::SDtw;
use sdtw_tseries::transform::z_normalize;
use sdtw_tseries::{TimeSeries, TsError};

/// One window of the profile: `(offset, distance)`.
pub type ProfilePoint = (usize, f64);

/// The full distance profile of `query` against every window of
/// `series`: entry `w` is the engine distance between the (optionally
/// z-normalised) query and the (optionally z-normalised) window starting
/// at `w`. Empty when the series is shorter than the query.
///
/// # Errors
///
/// Propagates engine errors (feature extraction under adaptive
/// policies).
pub fn subsequence_profile(
    engine: &SDtw,
    query: &TimeSeries,
    series: &TimeSeries,
    z_norm: bool,
) -> Result<Vec<ProfilePoint>, TsError> {
    let q = if z_norm {
        z_normalize(query)
    } else {
        query.clone()
    };
    let m = q.len();
    let xv = series.values();
    if xv.len() < m {
        return Ok(Vec::new());
    }
    let mut profile = Vec::with_capacity(xv.len() - m + 1);
    for w in 0..=(xv.len() - m) {
        let window = TimeSeries::new(xv[w..w + m].to_vec())?;
        let window = if z_norm { z_normalize(&window) } else { window };
        let out = engine.query(&q, &window).path(false).run()?;
        profile.push((w, out.distance));
    }
    Ok(profile)
}

/// The complete brute-force answer in one call: score every window
/// ([`subsequence_profile`]) and greedily select the `k` best
/// non-overlapping matches at or under `tau` ([`select_matches`]). This
/// is the ground truth the pruned matcher, the sharded parallel scan,
/// and the streaming monitors are all asserted bit-identical against.
///
/// # Errors
///
/// Propagates engine errors (feature extraction under adaptive
/// policies).
pub fn brute_force_matches(
    engine: &SDtw,
    query: &TimeSeries,
    series: &TimeSeries,
    z_norm: bool,
    k: usize,
    exclusion: usize,
    tau: f64,
) -> Result<Vec<ProfilePoint>, TsError> {
    let profile = subsequence_profile(engine, query, series, z_norm)?;
    Ok(select_matches(&profile, k, exclusion, tau))
}

/// Greedy non-overlapping top-k selection over a distance profile:
/// repeatedly pick the minimal `(distance, offset)` entry at or under
/// `tau`, then drop every entry within `exclusion` offsets of the pick.
/// This is the matrix-profile convention and the definition of the
/// matcher's result order (ties break toward the lower offset).
pub fn select_matches(
    profile: &[ProfilePoint],
    k: usize,
    exclusion: usize,
    tau: f64,
) -> Vec<ProfilePoint> {
    let mut picked: Vec<ProfilePoint> = Vec::new();
    while picked.len() < k {
        let mut best: Option<ProfilePoint> = None;
        for &(w, d) in profile {
            if d > tau || picked.iter().any(|&(p, _)| w.abs_diff(p) < exclusion) {
                continue;
            }
            best = match best {
                None => Some((w, d)),
                Some((bw, bd)) if d < bd || (d == bd && w < bw) => Some((w, d)),
                keep => keep,
            };
        }
        match best {
            None => break,
            Some(pick) => picked.push(pick),
        }
    }
    picked
}

/// One hit of the corpus-wide (two-level) oracle: `(entry, offset,
/// distance)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusMatch {
    /// Which corpus entry the window lives in.
    pub entry: usize,
    /// Window start offset inside that entry.
    pub offset: usize,
    /// Exact engine distance of the window.
    pub distance: f64,
}

/// The corpus-wide brute-force oracle the serve daemon's two-level
/// cascade is asserted bit-identical against: **every** entry is swept
/// by the every-window oracle ([`subsequence_profile`] — no bounds, no
/// abandoning), then the k best hits are selected globally by greedy
/// ascending `(distance, entry, offset)` with the non-overlap exclusion
/// applied within each entry (hits in different entries never conflict).
/// `tau` is inclusive, exactly as in [`select_matches`].
///
/// Restricted to one entry, the global greedy order coincides with the
/// per-entry `(distance, offset)` order and conflicts only involve that
/// entry's own picks — so the oracle's per-entry picks are a prefix of
/// the solo-entry greedy selection, which is the exchange argument
/// behind the serve cascade's per-entry sweep + global merge (DESIGN
/// §13).
///
/// # Errors
///
/// Propagates engine errors (feature extraction under adaptive
/// policies).
pub fn corpus_brute_force(
    engine: &SDtw,
    query: &TimeSeries,
    corpus: &[TimeSeries],
    z_norm: bool,
    k: usize,
    exclusion: usize,
    tau: f64,
) -> Result<Vec<CorpusMatch>, TsError> {
    let mut profiles: Vec<Vec<ProfilePoint>> = Vec::with_capacity(corpus.len());
    for series in corpus {
        profiles.push(subsequence_profile(engine, query, series, z_norm)?);
    }
    let mut picked: Vec<CorpusMatch> = Vec::new();
    while picked.len() < k {
        let mut best: Option<CorpusMatch> = None;
        for (e, profile) in profiles.iter().enumerate() {
            for &(w, d) in profile {
                if d > tau
                    || picked
                        .iter()
                        .any(|p| p.entry == e && w.abs_diff(p.offset) < exclusion)
                {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some(b) => d < b.distance || (d == b.distance && (e, w) < (b.entry, b.offset)),
                };
                if better {
                    best = Some(CorpusMatch {
                        entry: e,
                        offset: w,
                        distance: d,
                    });
                }
            }
        }
        match best {
            None => break,
            Some(pick) => picked.push(pick),
        }
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw::{ConstraintPolicy, SDtwConfig};

    fn engine() -> SDtw {
        SDtw::new(SDtwConfig {
            policy: ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.2 },
            ..SDtwConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn profile_covers_every_window_and_finds_the_plant() {
        let query = TimeSeries::new((0..20).map(|i| (i as f64 / 3.0).sin()).collect()).unwrap();
        let mut hay = vec![0.25; 90];
        for (i, q) in query.values().iter().enumerate() {
            hay[30 + i] = *q;
        }
        // slight slope so no window is constant
        for (i, v) in hay.iter_mut().enumerate() {
            *v += 1e-3 * i as f64;
        }
        let hay = TimeSeries::new(hay).unwrap();
        let profile = subsequence_profile(&engine(), &query, &hay, true).unwrap();
        assert_eq!(profile.len(), 90 - 20 + 1);
        let best = profile
            .iter()
            .cloned()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!((best.0 as i64 - 30).abs() <= 2, "best at {}", best.0);
    }

    #[test]
    fn short_series_yield_an_empty_profile() {
        let query = TimeSeries::new(vec![0.0; 30]).unwrap();
        let hay = TimeSeries::new(vec![1.0; 10]).unwrap();
        assert!(subsequence_profile(&engine(), &query, &hay, true)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn corpus_oracle_merges_entries_and_respects_per_entry_exclusion() {
        let query = TimeSeries::new((0..16).map(|i| (i as f64 / 2.5).sin()).collect()).unwrap();
        let mk = |plant_at: usize, len: usize, slope: f64| {
            let mut v = vec![0.1; len];
            for (i, q) in query.values().iter().enumerate() {
                v[plant_at + i] = *q;
            }
            for (i, x) in v.iter_mut().enumerate() {
                *x += slope * i as f64;
            }
            TimeSeries::new(v).unwrap()
        };
        let corpus = vec![mk(10, 60, 1e-3), mk(25, 70, 2e-3), mk(5, 50, 3e-3)];
        let hits =
            corpus_brute_force(&engine(), &query, &corpus, true, 4, 8, f64::INFINITY).unwrap();
        assert_eq!(hits.len(), 4);
        // global ascending (distance, entry, offset) order
        for pair in hits.windows(2) {
            assert!(
                pair[0].distance < pair[1].distance
                    || (pair[0].distance == pair[1].distance
                        && (pair[0].entry, pair[0].offset) < (pair[1].entry, pair[1].offset))
            );
        }
        // the three planted sites are the three best hits, one per entry
        let mut firsts: Vec<(usize, usize)> =
            hits[..3].iter().map(|h| (h.entry, h.offset)).collect();
        firsts.sort_unstable();
        assert!((firsts[0].1 as i64 - 10).abs() <= 2, "{firsts:?}");
        assert!((firsts[1].1 as i64 - 25).abs() <= 2, "{firsts:?}");
        assert!((firsts[2].1 as i64 - 5).abs() <= 2, "{firsts:?}");
        // exclusion is per entry: the fourth hit may share an entry with
        // an earlier pick but never within the exclusion distance
        for (i, a) in hits.iter().enumerate() {
            for b in &hits[i + 1..] {
                if a.entry == b.entry {
                    assert!(a.offset.abs_diff(b.offset) >= 8);
                }
            }
        }
        // agreement with the single-entry oracle when the corpus is one
        // entry
        let solo =
            corpus_brute_force(&engine(), &query, &corpus[..1], true, 2, 8, f64::INFINITY).unwrap();
        let direct =
            brute_force_matches(&engine(), &query, &corpus[0], true, 2, 8, f64::INFINITY).unwrap();
        assert_eq!(solo.len(), direct.len());
        for (s, (w, d)) in solo.iter().zip(&direct) {
            assert_eq!(s.entry, 0);
            assert_eq!(s.offset, *w);
            assert_eq!(s.distance.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn greedy_selection_excludes_and_breaks_ties_by_offset() {
        let profile = vec![(0, 5.0), (3, 1.0), (4, 1.0), (10, 2.0), (20, 3.0)];
        // exclusion 5: 3 beats 4 by offset, excludes 0 and 4; 10 is clear
        let picks = select_matches(&profile, 3, 5, f64::INFINITY);
        assert_eq!(picks, vec![(3, 1.0), (10, 2.0), (20, 3.0)]);
        // tau cuts the tail (inclusive)
        let picks = select_matches(&profile, 3, 5, 2.0);
        assert_eq!(picks, vec![(3, 1.0), (10, 2.0)]);
        // k limits before tau does
        let picks = select_matches(&profile, 1, 5, f64::INFINITY);
        assert_eq!(picks, vec![(3, 1.0)]);
    }
}
