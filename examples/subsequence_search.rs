//! Subsequence search: find where a short pattern occurs inside a long
//! series — batch, then live from a sample-by-sample stream.
//!
//! Run with `cargo run --release --example subsequence_search`.

use sdtw_suite::prelude::*;

fn main() {
    // The pattern to look for: a two-bump shape, 64 samples.
    let query = TimeSeries::new(
        (0..64)
            .map(|i| {
                let a = (i as f64 - 20.0) / 5.0;
                let b = (i as f64 - 45.0) / 8.0;
                (-a * a / 2.0).exp() + 0.7 * (-b * b / 2.0).exp()
            })
            .collect(),
    )
    .expect("finite samples");

    // A long, drifting recording with the pattern planted three times at
    // different gains and offsets — per-window z-normalisation makes the
    // matcher invariant to both.
    let mut hay = vec![0.0; 2400];
    for (start, gain, level) in [(300usize, 1.0, 0.0), (1100, 2.5, 4.0), (1900, 0.6, -2.0)] {
        for i in 0..64 {
            hay[start + i] += gain * query.at(i) + level;
        }
    }
    for (i, v) in hay.iter_mut().enumerate() {
        *v += 0.3 * (i as f64 / 180.0).sin() + 0.02 * (i as f64 / 3.0).cos();
    }
    let hay = TimeSeries::new(hay).expect("finite samples");

    // Batch search: prepare the query once, slide the cascade over every
    // window, keep the 3 best non-overlapping matches. The second value
    // is the trace, present only when the search asks for one.
    let matcher =
        SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).expect("valid configuration");
    let (result, _) = matcher.search(&hay).k(3).run().expect("search succeeds");
    println!("batch search over {} windows:", result.stats.windows);
    for m in &result.matches {
        println!("  offset {:>5}  distance {:.4}", m.offset, m.distance);
    }
    let c = &result.stats.cascade;
    println!(
        "cascade: {} visits -> kim {} / keogh {} / abandoned {} / dp {}  ({:.1}% pruned)",
        c.candidates,
        c.pruned_kim,
        c.pruned_keogh,
        c.abandoned,
        c.dp_completed,
        result.stats.prune_rate() * 100.0,
    );

    // The same search over three window shards, traced: the matches are
    // the same bit for bit, and the trace carries the counters.
    let (sharded, trace) = matcher
        .search(&hay)
        .k(3)
        .shards(3)
        .trace("example")
        .run()
        .expect("search succeeds");
    let trace = trace.expect("the search asked for a trace");
    assert_eq!(sharded.matches, result.matches);
    println!(
        "3 shards, traced: {} spans, {} DP cells filled",
        trace.spans.len(),
        trace.counters.cascade.cells_filled
    );

    // Streaming: samples arrive one at a time into a query-sized ring
    // buffer. A monitor bank tracks the best occurrence of each of its
    // queries online; here the pattern and its mirror image share one
    // buffer and one set of rolling window statistics.
    let mirror =
        TimeSeries::new(query.values().iter().rev().copied().collect()).expect("finite samples");
    let mirror =
        SubseqMatcher::new(&mirror, StreamConfig::exact_banded(0.2)).expect("valid configuration");
    let mut bank =
        MonitorBank::new([matcher, mirror], 1, f64::INFINITY).expect("valid monitor parameters");
    let mut improvements = 0usize;
    for &v in hay.values() {
        improvements += bank.push(v).expect("push succeeds").len();
    }
    for (q, name) in ["pattern", "mirror"].iter().enumerate() {
        let best = bank.matches(q)[0];
        println!(
            "stream monitor, {name}: best match at offset {} (distance {:.4})",
            best.offset, best.distance
        );
    }
    println!("{improvements} candidate updates across both queries");
    // the pattern's stream answer is the batch answer
    assert_eq!(bank.matches(0)[0], result.matches[0]);
}
