//! Top-k accumulator: a bounded max-heap over `(distance, index)` pairs.
//!
//! The heap keeps the `k` lexicographically smallest `(distance, index)`
//! pairs seen so far — the same total order the brute-force oracle
//! (`QueryMatrix::top_k`, ascending distance with stable index tie-break)
//! sorts by, so a cascade feeding it is tie-exact, not just
//! distance-exact.

use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// One retrieved neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Position of the entry in the indexed corpus.
    pub index: usize,
    /// Its (possibly normalised) constrained DTW distance to the query.
    pub distance: f64,
}

/// Heap entry ordered lexicographically by `(distance, index)`; the heap
/// is a max-heap, so the root is the current worst member of the top-k.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem {
    distance: f64,
    index: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // distances are finite by TimeSeries invariant, so total_cmp
        // agrees with the oracle's partial_cmp ordering
        self.distance
            .total_cmp(&other.distance)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded best-k accumulator.
#[derive(Debug, Clone)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<HeapItem>,
}

impl TopK {
    /// Creates an accumulator for the `k` best of `candidates` offers
    /// (`k ≥ 1`). The heap never holds more than `min(k, candidates)`
    /// items, so that is all it reserves: a `k` past the candidate count
    /// costs nothing up front.
    pub fn new(k: usize, candidates: usize) -> Self {
        assert!(k >= 1, "top-k needs k >= 1");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(candidates)),
        }
    }

    /// Current pruning threshold: any candidate whose distance (or lower
    /// bound) strictly exceeds this cannot enter the top-k. Infinite
    /// until the heap is full — ties at the threshold must still be
    /// examined, the index tie-break decides them.
    pub fn threshold(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().expect("heap is full").distance
        }
    }

    /// Offers a scored candidate; keeps the k lexicographically smallest
    /// `(distance, index)` pairs.
    pub fn offer(&mut self, index: usize, distance: f64) {
        let item = HeapItem { distance, index };
        if self.heap.len() < self.k {
            self.heap.push(item);
        } else if item < *self.heap.peek().expect("heap is full") {
            self.heap.pop();
            self.heap.push(item);
        }
    }

    /// Consumes the accumulator, returning neighbours ascending by
    /// `(distance, index)`.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut items: Vec<HeapItem> = self.heap.into_vec();
        items.sort();
        items
            .into_iter()
            .map(|h| Neighbor {
                index: h.index,
                distance: h.distance,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_k_smallest_in_order() {
        let mut t = TopK::new(3, 6);
        for (i, d) in [5.0, 1.0, 4.0, 0.5, 3.0, 2.0].iter().enumerate() {
            t.offer(i, *d);
        }
        let out = t.into_sorted();
        let pairs: Vec<(usize, f64)> = out.iter().map(|n| (n.index, n.distance)).collect();
        assert_eq!(pairs, vec![(3, 0.5), (1, 1.0), (5, 2.0)]);
    }

    #[test]
    fn threshold_is_infinite_until_full_then_tracks_the_worst() {
        let mut t = TopK::new(2, 3);
        assert_eq!(t.threshold(), f64::INFINITY);
        t.offer(0, 3.0);
        assert_eq!(t.threshold(), f64::INFINITY);
        t.offer(1, 1.0);
        assert_eq!(t.threshold(), 3.0);
        t.offer(2, 2.0);
        assert_eq!(t.threshold(), 2.0);
    }

    #[test]
    fn ties_break_toward_the_lower_index() {
        let mut t = TopK::new(2, 3);
        // equal distances: indices 7 and 2 offered out of order, then 5
        t.offer(7, 1.0);
        t.offer(2, 1.0);
        t.offer(5, 1.0);
        let out = t.into_sorted();
        let idx: Vec<usize> = out.iter().map(|n| n.index).collect();
        assert_eq!(idx, vec![2, 5], "lowest indices win distance ties");
    }

    #[test]
    fn fewer_offers_than_k_returns_them_all() {
        let mut t = TopK::new(10, 2);
        t.offer(1, 2.0);
        t.offer(0, 2.0);
        let out = t.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].index, 0);
    }

    #[test]
    fn a_k_past_the_candidates_reserves_only_the_candidates() {
        let mut t = TopK::new(usize::MAX, 3);
        assert!(t.heap.capacity() < 16);
        for (i, d) in [2.0, 1.0, 3.0].into_iter().enumerate() {
            t.offer(i, d);
        }
        assert_eq!(t.threshold(), f64::INFINITY, "never full");
        let idx: Vec<usize> = t.into_sorted().iter().map(|n| n.index).collect();
        assert_eq!(idx, vec![1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = TopK::new(0, 1);
    }
}
