//! Integration tests for the `wft-obs` instruments themselves.
//!
//! The observability layer is only trustworthy if its arithmetic is exact
//! where it claims exactness and bounded where it claims bounds, so:
//!
//! * a proptest checks [`HistogramSnapshot::quantile`] against a
//!   sorted-vector oracle — exact below the linear/log boundary, and an
//!   overestimate by at most one bucket width (≤ 25 %) above it;
//! * counters are monotonic under concurrent increments and their
//!   snapshot/delta arithmetic is exact (the bench binaries' per-window
//!   metrics depend on this), while windows carry gauges as levels;
//! * a multi-threaded recorder run shows the sharded cells lose nothing:
//!   concurrent `inc`/`record` sums come out exactly, not approximately;
//! * the [`TraceRing`] keeps exactly the most recent `capacity` events
//!   across wrap-around, with contiguous sequence numbers and an exact
//!   dropped-event count.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use wait_free_range_trees::obs::hist::LINEAR_MAX;
use wait_free_range_trees::obs::trace::{TraceKind, TraceRing};
use wait_free_range_trees::obs::{Counter, Gauge, MetricsSnapshot, Registry};
use wait_free_range_trees::prelude::LatencyHistogram;

/// The oracle the histogram approximates: the rank-`ceil(p * n)` element of
/// the sorted recordings (matching `HistogramSnapshot::quantile`'s rank
/// definition).
fn oracle_quantile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    /// `quantile(p)` is sandwiched by the oracle: never below it (the
    /// bucket's upper bound is returned), and above it by at most the
    /// width of the bucket holding it — `le <= oracle + oracle/4`, exact
    /// equality below `LINEAR_MAX`.
    #[test]
    fn quantile_tracks_sorted_oracle(
        values in proptest::collection::vec(0u64..20_000_000, 1..400),
        permilles in proptest::collection::vec(0u32..=1000, 1..8),
    ) {
        let hist = LatencyHistogram::new();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum_ns, values.iter().sum::<u64>());

        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &permille in &permilles {
            let p = permille as f64 / 1000.0;
            let oracle = oracle_quantile(&sorted, p);
            let got = snap.quantile(p);
            prop_assert!(got >= oracle, "p={} got={} oracle={}", p, got, oracle);
            if oracle < LINEAR_MAX {
                prop_assert_eq!(got, oracle, "unit buckets are exact");
            } else {
                prop_assert!(
                    got <= oracle + oracle / 4,
                    "p={} got={} oracle={} (bucket width must stay under 25%)",
                    p, got, oracle
                );
            }
        }
    }

    /// Merging two histograms is the same as recording everything into one,
    /// and a delta against a prefix snapshot recovers exactly the suffix.
    #[test]
    fn histogram_merge_and_delta_are_bucket_exact(
        first in proptest::collection::vec(0u64..1_000_000, 0..200),
        second in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let a = LatencyHistogram::new();
        for &v in &first {
            a.record(v);
        }
        let prefix = a.snapshot();
        for &v in &second {
            a.record(v);
        }
        let full = a.snapshot();

        let b = LatencyHistogram::new();
        for &v in &second {
            b.record(v);
        }
        prop_assert_eq!(&prefix.merged_with(&b.snapshot()), &full);
        prop_assert_eq!(&full.delta_since(&prefix), &b.snapshot());
    }
}

#[test]
fn counter_is_monotonic_and_deltas_are_exact() {
    let c = Counter::new();
    let mut last = 0;
    for i in 0..1_000u64 {
        if i % 3 == 0 {
            c.add(i);
        } else {
            c.inc();
        }
        let now = c.value();
        assert!(now >= last, "counter went backwards: {last} -> {now}");
        last = now;
    }

    let mut before = MetricsSnapshot::new();
    before.push_counter("x", 5);
    before.push_gauge("depth", 7);
    let mut after = MetricsSnapshot::new();
    after.push_counter("x", 9);
    after.push_counter("y", 3);
    after.push_gauge("depth", 4);
    let delta = after.delta_since(&before);
    assert_eq!(delta.counter("x"), Some(4));
    assert_eq!(delta.counter("y"), Some(3), "new metrics count from zero");
    assert_eq!(
        delta.gauge("depth"),
        Some(4),
        "gauges report the later level"
    );

    // Counter deltas saturate rather than wrap if a process restart ever
    // hands delta_since a fresher "earlier".
    assert_eq!(before.delta_since(&after).counter("x"), Some(0));
}

/// Gauges are levels: a metrics window over a sharded store reports its
/// shard count, not the (zero) change in it.
#[test]
fn windows_report_gauge_levels() {
    use wait_free_range_trees::obs::MetricsSource;
    use wait_free_range_trees::prelude::PointMap;
    use wait_free_range_trees::ShardedStore;

    let store: ShardedStore<i64> = ShardedStore::from_entries((0..100).map(|k| (k, ())), 4);
    let mut before = MetricsSnapshot::new();
    store.collect_metrics(&mut before);
    PointMap::insert(&store, 1_000, ());
    let mut after = MetricsSnapshot::new();
    store.collect_metrics(&mut after);
    let window = after.delta_since(&before);
    assert_eq!(window.gauge("store_shards"), Some(4));
    assert_eq!(window.gauge("store_len"), Some(101));
}

#[test]
fn concurrent_recorders_lose_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;

    let counter = Arc::new(Counter::new());
    let gauge = Arc::new(Gauge::new());
    let hist = Arc::new(LatencyHistogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let counter = Arc::clone(&counter);
            let gauge = Arc::clone(&gauge);
            let hist = Arc::clone(&hist);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    if i % 2 == 0 {
                        gauge.inc();
                    } else {
                        gauge.dec();
                    }
                    // Distinct values per thread so bucket spread is real.
                    hist.record(t as u64 * 1_000 + (i % 97));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.value(), total, "no increment may be lost");
    assert_eq!(gauge.value(), 0, "balanced inc/dec must cancel exactly");
    let snap = hist.snapshot();
    assert_eq!(snap.count, total);
    let expected_sum: u64 = (0..THREADS as u64)
        .map(|t| (0..PER_THREAD).map(|i| t * 1_000 + (i % 97)).sum::<u64>())
        .sum();
    assert_eq!(snap.sum_ns, expected_sum);

    // The same exactness holds through registry handles (get-or-create
    // returns the same cell for the same name).
    let registry = Registry::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = registry.counter("shared");
            thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    registry.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(registry.snapshot().counter("shared"), Some(total));
}

#[test]
fn trace_ring_wraps_to_most_recent_events() {
    let ring = TraceRing::new(8);
    assert_eq!(ring.capacity(), 8);
    assert!(ring.drain().is_empty(), "fresh ring has no events");

    let kinds = [
        TraceKind::SnapshotRetry,
        TraceKind::ScanResume,
        TraceKind::RangeFallback,
        TraceKind::LenFallback,
        TraceKind::HelpRebuild,
        TraceKind::WalStall,
        TraceKind::CheckpointBegin,
        TraceKind::CheckpointEnd,
        TraceKind::IoRetry,
        TraceKind::DegradedEnter,
        TraceKind::DegradedResume,
    ];
    const EMITTED: u64 = 21;
    for i in 0..EMITTED {
        ring.emit(kinds[i as usize % kinds.len()], i as u16);
    }

    assert_eq!(ring.total(), EMITTED);
    assert_eq!(ring.dropped(), EMITTED - 8);
    let events = ring.drain();
    assert_eq!(events.len(), 8, "exactly the last `capacity` survive");
    for (offset, event) in events.iter().enumerate() {
        let seq = EMITTED - 8 + offset as u64;
        assert_eq!(event.seq, seq, "sequence numbers are contiguous");
        assert_eq!(event.arg, seq as u16, "payload survives the packing");
        assert_eq!(event.kind, kinds[seq as usize % kinds.len()]);
    }
    assert!(
        events.windows(2).all(|w| w[0].micros <= w[1].micros),
        "timestamps are non-decreasing for a single emitter"
    );

    let timeline = ring.render_timeline();
    assert!(timeline.starts_with("... 13 earlier events overwritten ..."));
    assert_eq!(
        timeline.lines().count(),
        9,
        "notice plus one line per event"
    );
}

#[test]
fn trace_ring_survives_concurrent_emitters() {
    let ring = Arc::new(TraceRing::new(64));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                for i in 0..10_000u16 {
                    ring.emit(TraceKind::SnapshotRetry, i);
                    if i % 1_024 == 0 {
                        thread::sleep(Duration::from_micros(t));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(ring.total(), 40_000, "every claim lands, even when racing");
    let events = ring.drain();
    assert_eq!(events.len(), 64);
    assert!(
        events.windows(2).all(|w| w[1].seq == w[0].seq + 1),
        "a quiescent drain sees a contiguous suffix"
    );
}
