//! Feature store: one-time extraction, many reuses.
//!
//! Paper §3.4: "extraction of salient features is a one-time process. Once
//! these features are extracted, they can be stored and indexed along with
//! the time series and can be re-used repeatedly during various retrieval
//! and classification tasks." The store caches extracted features keyed by
//! series identifier; retrieval/classification loops then pay only the
//! matching + DP cost per pair.

use parking_lot::RwLock;
use sdtw_salient::{SalientConfig, SalientExtractor, SalientFeature};
use sdtw_tseries::{TimeSeries, TsError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Thread-safe cache of salient features keyed by [`TimeSeries::id`].
///
/// Series without an id are extracted on every call (no key to cache
/// under); attach ids with [`TimeSeries::identified`] when building a
/// corpus. Ids must be unique across every series one store sees: a
/// series whose id another series already cached is served that
/// series' features. Readers that number each file from 0 (such as
/// `sdtw_tseries::io::read_ucr`) need their ids offset when two files
/// share a store.
#[derive(Debug)]
pub struct FeatureStore {
    extractor: SalientExtractor,
    cache: RwLock<HashMap<u64, Arc<Vec<SalientFeature>>>>,
}

impl FeatureStore {
    /// Creates a store extracting with the given configuration.
    ///
    /// # Errors
    ///
    /// Configuration validation errors.
    pub fn new(config: SalientConfig) -> Result<Self, TsError> {
        Ok(Self {
            extractor: SalientExtractor::new(config)?,
            cache: RwLock::new(HashMap::new()),
        })
    }

    /// The extraction configuration.
    pub fn config(&self) -> &SalientConfig {
        self.extractor.config()
    }

    /// Features of a series, from cache when possible.
    ///
    /// # Errors
    ///
    /// Extraction errors (invalid config is caught at construction, so in
    /// practice never fires).
    pub fn features_for(&self, ts: &TimeSeries) -> Result<Arc<Vec<SalientFeature>>, TsError> {
        self.features_for_timed(ts).map(|(features, _)| features)
    }

    /// [`FeatureStore::features_for`] plus the extraction cost when the
    /// call actually extracted: `Some(duration)` on a cache miss (or for
    /// an id-less series, which can never be cached), `None` on a hit.
    /// Per-phase accounting uses this to attribute the one-time
    /// extraction cost to exactly one call instead of reporting it as
    /// zero-but-present on every cached call.
    ///
    /// # Errors
    ///
    /// Extraction errors.
    pub fn features_for_timed(
        &self,
        ts: &TimeSeries,
    ) -> Result<(Arc<Vec<SalientFeature>>, Option<Duration>), TsError> {
        if let Some(id) = ts.id() {
            if let Some(cached) = self.cache.read().get(&id) {
                return Ok((Arc::clone(cached), None));
            }
            let t0 = Instant::now();
            let features = Arc::new(self.extractor.extract(ts));
            let elapsed = t0.elapsed();
            self.cache.write().insert(id, Arc::clone(&features));
            Ok((features, Some(elapsed)))
        } else {
            let t0 = Instant::now();
            let features = Arc::new(self.extractor.extract(ts));
            Ok((features, Some(t0.elapsed())))
        }
    }

    /// Pre-extracts features for a whole corpus (e.g. before a retrieval
    /// experiment, so per-pair timings exclude extraction).
    ///
    /// # Errors
    ///
    /// The first extraction error.
    pub fn warm(&self, corpus: &[TimeSeries]) -> Result<(), TsError> {
        for ts in corpus {
            self.features_for(ts)?;
        }
        Ok(())
    }

    /// Number of cached feature sets.
    pub fn cached_count(&self) -> usize {
        self.cache.read().len()
    }

    /// Drops all cached entries (e.g. when switching descriptor lengths in
    /// the Figure 18 sweep).
    pub fn clear(&self) {
        self.cache.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(id: u64) -> TimeSeries {
        TimeSeries::new(
            (0..128)
                .map(|i| {
                    let d = (i as f64 - 64.0) / 8.0;
                    (-d * d / 2.0).exp()
                })
                .collect(),
        )
        .unwrap()
        .identified(id)
    }

    #[test]
    fn caches_by_id() {
        let store = FeatureStore::new(SalientConfig::default()).unwrap();
        let ts = series(7);
        let a = store.features_for(&ts).unwrap();
        let b = store.features_for(&ts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(store.cached_count(), 1);
    }

    #[test]
    fn series_without_id_are_not_cached() {
        let store = FeatureStore::new(SalientConfig::default()).unwrap();
        let ts = TimeSeries::new((0..64).map(|i| (i as f64 / 5.0).sin()).collect()).unwrap();
        let a = store.features_for(&ts).unwrap();
        let b = store.features_for(&ts).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(store.cached_count(), 0);
        // same features nonetheless
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn warm_fills_the_cache() {
        let store = FeatureStore::new(SalientConfig::default()).unwrap();
        let corpus: Vec<TimeSeries> = (0..5).map(series).collect();
        store.warm(&corpus).unwrap();
        assert_eq!(store.cached_count(), 5);
        store.clear();
        assert_eq!(store.cached_count(), 0);
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = SalientConfig {
            epsilon: 7.0,
            ..Default::default()
        };
        assert!(FeatureStore::new(cfg).is_err());
    }

    #[test]
    fn distinct_ids_cached_separately() {
        let store = FeatureStore::new(SalientConfig::default()).unwrap();
        let a = store.features_for(&series(1)).unwrap();
        let b = store.features_for(&series(2)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(store.cached_count(), 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let store = Arc::new(FeatureStore::new(SalientConfig::default()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..8 {
                    let ts = series((t * 8 + i) % 6);
                    let f = store.features_for(&ts).unwrap();
                    assert!(!f.is_empty());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(store.cached_count() <= 6);
    }
}
