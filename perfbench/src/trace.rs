//! Analysis of the traced window's spans: nesting checks, per-layer self
//! time, busy time per operation class, and the span dump.

use std::fmt::Write as _;
use std::path::Path;

use crate::harness::{Span, KINDS, ROOT};

/// Largest share of a load thread's traced wall time that its request
/// spans may leave uncovered. The request spans of one thread follow each
/// other with only the loop's phase check between them, so the per-layer
/// self times (which partition the request spans) must add up to nearly
/// all of the traced wall time the thread measured with its own clock
/// readings; a larger gap means requests ran outside a span or spans
/// were lost.
pub const COVERAGE_TOLERANCE: f64 = 0.02;

/// Layers in report order, with the span-name prefix each one owns.
pub const LAYERS: [(&str, &str); 4] = [
    ("bench", "bench."),
    ("wft-core", "core."),
    ("wft-trie", "trie."),
    ("wft-durable", "durable."),
];

fn layer_of(name: &str) -> usize {
    LAYERS
        .iter()
        .position(|(_, prefix)| name.starts_with(prefix))
        .expect("every span name carries a layer prefix")
}

pub struct TraceSummary {
    pub spans: usize,
    /// Self time per layer, seconds, in [`LAYERS`] order.
    pub self_s: [f64; LAYERS.len()],
    /// Summed duration of the request (root) spans, seconds.
    pub total_s: f64,
    /// The load threads' traced wall time, seconds.
    pub wall_s: f64,
    /// Busy time per operation class, seconds, per thread.
    pub busy_s: Vec<[f64; KINDS]>,
    /// Nesting violations and failures of the self-time closure check,
    /// empty when the trace is consistent.
    pub problems: Vec<String>,
}

/// Checks and summarises the spans of every load thread (one list per
/// thread, each in the order the spans were opened) against the traced
/// wall time each thread measured (`wall_ns`, same order).
pub fn summarise(threads: &[Vec<Span>], wall_ns: &[u64]) -> TraceSummary {
    let mut self_ns = [0u64; LAYERS.len()];
    let mut total_ns = 0u64;
    let mut busy_s = Vec::new();
    let mut problems = Vec::new();
    let mut spans = 0;
    for (t, list) in threads.iter().enumerate() {
        spans += list.len();
        let mut thread_self_ns = 0u64;
        let mut child_ns = vec![0u64; list.len()];
        let mut last_child_end = vec![0u64; list.len()];
        let mut busy = [0f64; KINDS];
        for (i, span) in list.iter().enumerate() {
            if span.end < span.start {
                problems.push(format!(
                    "thread {t} span {i} ({}) ends before it starts",
                    span.name
                ));
            }
            let dur = span.end.saturating_sub(span.start);
            if let Some(kind) = span.kind {
                busy[kind as usize] += dur as f64 * 1e-9;
            }
            if span.parent == ROOT {
                continue;
            }
            let p = span.parent as usize;
            let parent = &list[p];
            if p >= i || span.start < parent.start || span.end > parent.end {
                problems.push(format!(
                    "thread {t} span {i} ({}) is not inside its parent {p} ({})",
                    span.name, parent.name
                ));
            }
            if span.start < last_child_end[p] {
                problems.push(format!(
                    "thread {t} span {i} ({}) overlaps a sibling",
                    span.name
                ));
            }
            if span.request != parent.request {
                problems.push(format!("thread {t} span {i} changes request id"));
            }
            last_child_end[p] = span.end;
            child_ns[p] += dur;
        }
        for (i, span) in list.iter().enumerate() {
            let dur = span.end.saturating_sub(span.start);
            let own = dur.saturating_sub(child_ns[i]);
            self_ns[layer_of(span.name)] += own;
            thread_self_ns += own;
            if span.parent == ROOT {
                total_ns += dur;
            }
        }
        let wall = wall_ns[t];
        let low = (1.0 - COVERAGE_TOLERANCE) * wall as f64;
        if (thread_self_ns as f64) < low || thread_self_ns > wall {
            problems.push(format!(
                "thread {t}: per-layer self times sum to {thread_self_ns} ns \
                 but the thread was traced for {wall} ns"
            ));
        }
        busy_s.push(busy);
    }
    TraceSummary {
        spans,
        self_s: self_ns.map(|ns| ns as f64 * 1e-9),
        total_s: total_ns as f64 * 1e-9,
        wall_s: wall_ns.iter().sum::<u64>() as f64 * 1e-9,
        busy_s,
        problems,
    }
}

/// Spans per thread written to the dump; the analysis above covers every
/// span, the dump keeps a whole-request prefix of each thread so that a
/// run's file stays around ten megabytes.
pub const DUMP_SPANS: usize = 100_000;

/// Writes each thread's first [`DUMP_SPANS`] spans (cut at a request
/// boundary) as tab-separated lines:
/// `thread index parent request name start_ns end_ns`.
pub fn write_spans(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = String::from("thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (t, list) in threads.iter().enumerate() {
        let cut = (DUMP_SPANS..list.len())
            .find(|&i| list[i].parent == ROOT)
            .unwrap_or(list.len());
        for (i, s) in list[..cut].iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            let _ = writeln!(
                out,
                "{t}\t{i}\t{parent}\t{:x}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Kind;

    fn span(name: &'static str, kind: Option<Kind>, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            kind,
            parent,
            request: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_times_partition_the_request_time() {
        let list = vec![
            span("bench.request", None, ROOT, 0, 100),
            span("core.scan", Some(Kind::Scan), 0, 10, 90),
            span("core.next_chunk", None, 1, 20, 40),
            span("core.next_chunk", None, 1, 40, 70),
        ];
        let s = summarise(&[list], &[101]);
        assert!(s.problems.is_empty(), "{:?}", s.problems);
        assert_eq!(s.self_s[0], 20e-9);
        assert!((s.self_s[1] - 80e-9).abs() < 1e-15);
        assert!((s.busy_s[0][Kind::Scan as usize] - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn escaping_and_overlapping_children_are_reported() {
        let list = vec![
            span("bench.request", None, ROOT, 0, 100),
            span("core.scan", Some(Kind::Scan), 0, 10, 120),
            span("core.next_chunk", None, 1, 20, 60),
            span("core.next_chunk", None, 1, 50, 70),
        ];
        let s = summarise(&[list], &[100]);
        let has = |text: &str| s.problems.iter().any(|p| p.contains(text));
        assert!(has("not inside its parent"), "{:?}", s.problems);
        assert!(has("overlaps a sibling"), "{:?}", s.problems);
    }

    #[test]
    fn time_outside_the_request_spans_is_reported() {
        let list = vec![
            span("bench.request", None, ROOT, 0, 100),
            span("core.contains", Some(Kind::Contains), 0, 10, 90),
            span("bench.request", None, ROOT, 200, 300),
        ];
        let gap = summarise(std::slice::from_ref(&list), &[300]);
        assert!(
            gap.problems.iter().any(|p| p.contains("traced for 300 ns")),
            "{:?}",
            gap.problems
        );
        let short = summarise(&[list], &[150]);
        assert!(
            !short.problems.is_empty(),
            "spans longer than the wall time"
        );
    }
}
