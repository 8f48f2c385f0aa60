//! Offline stand-in for the `rayon` API subset this workspace uses:
//! `(range | vec).into_par_iter().map(..).collect()`, `map_init` for
//! per-thread scratch state, and [`current_num_threads`].
//!
//! Execution model: the source is materialised, then a scoped worker per
//! available core self-schedules items off a shared atomic counter —
//! dynamic (work-stealing-style) load balancing without `unsafe`. Items
//! are handed out one at a time, so a slow item never blocks the others;
//! results are reassembled in input order, which makes every parallel run
//! **bit-identical** to the serial one (the distance-matrix tests assert
//! exactly that).

#![forbid(unsafe_code)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads a parallel call will use: the
/// `RAYON_NUM_THREADS` environment variable when set to a positive
/// integer (the knob real rayon honours, used by CI to exercise the
/// parallel paths both degenerate and fanned out), otherwise the
/// machine's available parallelism.
///
/// Resolved once per process, on first use, as real rayon sizes its
/// global pool once: setting the variable after the first parallel call
/// has no effect. Finding the available parallelism reads cgroup files
/// on Linux, which every parallel `collect` would otherwise repeat.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The workspace's `use rayon::prelude::*` surface.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParallelIterator};
}

/// Marker trait so adapters share `collect` machinery.
pub trait ParallelIterator {}

/// Conversion into a (materialised) parallel iterator.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Converts `self` into a [`ParIter`].
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// A materialised parallel iterator.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParIter<T> {}

impl<T: Send> ParIter<T> {
    /// Parallel map.
    pub fn map<R, F>(self, f: F) -> ParMap<T, R, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Parallel map with per-worker scratch state: `init` runs once per
    /// worker thread, and the scratch is reused across all items that
    /// worker processes (rayon's `map_init`).
    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> ParMapInit<T, S, R, INIT, F>
    where
        R: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
        }
    }
}

/// Pending parallel map.
pub struct ParMap<T: Send, R: Send, F: Fn(T) -> R + Sync> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParallelIterator for ParMap<T, R, F> {}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, R, F> {
    /// Executes the map and collects results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let ParMap { items, f } = self;
        execute(items, || (), move |_: &mut (), item| f(item))
            .into_iter()
            .collect()
    }
}

/// Pending parallel map with per-worker scratch.
pub struct ParMapInit<T, S, R, INIT, F>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    items: Vec<T>,
    init: INIT,
    f: F,
}

impl<T, S, R, INIT, F> ParallelIterator for ParMapInit<T, S, R, INIT, F>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
}

impl<T, S, R, INIT, F> ParMapInit<T, S, R, INIT, F>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    /// Executes the map and collects results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let ParMapInit { items, init, f } = self;
        execute(items, init, f).into_iter().collect()
    }
}

/// Core executor: hands items to workers through an atomic cursor and
/// reassembles results in input order.
fn execute<T, S, R, INIT, F>(items: Vec<T>, init: INIT, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let len = items.len();
    let workers = current_num_threads().min(len);
    if workers <= 1 {
        // serial fast path (also the 1-core fallback)
        let mut scratch = init();
        return items
            .into_iter()
            .map(|item| f(&mut scratch, item))
            .collect();
    }

    // One-shot item slots: each worker takes ownership of item i exactly
    // once. Mutex-per-slot keeps the executor safe-Rust; the per-item cost
    // is an uncontended lock, negligible at the row/pair granularity this
    // workspace parallelises at.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);

    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(len);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut scratch = init();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .take()
                        .expect("slot taken once");
                    local.push((i, f(&mut scratch, item)));
                }
                local
            }));
        }
        for handle in handles {
            tagged.extend(handle.join().expect("worker panicked"));
        }
    });

    tagged.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(tagged.len(), len);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn vec_source_and_non_copy_items() {
        let items: Vec<String> = (0..64).map(|i| format!("s{i}")).collect();
        let out: Vec<usize> = items.clone().into_par_iter().map(|s| s.len()).collect();
        assert_eq!(out, items.iter().map(|s| s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_reuses_scratch_per_worker() {
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let out: Vec<usize> = (0..256usize)
            .into_par_iter()
            .map_init(
                || {
                    INITS.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    scratch.push(i);
                    scratch.len()
                },
            )
            .collect();
        assert_eq!(out.len(), 256);
        // scratch instances are bounded by the worker count, not the item
        // count — the whole point of map_init
        let inits = INITS.load(Ordering::Relaxed);
        assert!(
            inits <= super::current_num_threads(),
            "{inits} inits for {} workers",
            super::current_num_threads()
        );
    }

    #[test]
    fn parallel_equals_serial_bitwise() {
        let f = |i: usize| (i as f64 * 0.1).sin() + (i as f64).sqrt();
        let serial: Vec<f64> = (0..500).map(f).collect();
        let parallel: Vec<f64> = (0..500usize).into_par_iter().map(f).collect();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let out: Vec<usize> = (0..0usize).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
        let out: Vec<usize> = (5..6usize).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(out, vec![15]);
    }
}
