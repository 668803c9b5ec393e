//! Collecting a run's metrics, printing them, and recording them with the
//! host metadata under `.perfbench/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use wft_obs::MetricsSnapshot;

use crate::harness::{percentile, Kind, Mode, Recorder, Slice, Span, Window, KINDS, SLICES};
use crate::trace::{self, TraceSummary, LAYERS};

/// Where results, span dumps and scratch data go, relative to the
/// directory the benchmark runs in.
pub const OUT_DIR: &str = ".perfbench";

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile.
    pub samples: Option<usize>,
}

/// Everything one invocation reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Facts about the run that are not metrics (flush policy, sizes).
    pub notes: Vec<(String, String)>,
    /// The program's own counters over the reported window.
    pub counters: Option<MetricsSnapshot>,
    /// Trace self-check failures; any makes the run incorrect.
    pub trace_problems: Vec<String>,
    /// The traced window's spans, one list per load thread, dumped at exit.
    pub spans: Vec<Vec<Span>>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
            counters: None,
            trace_problems: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric values are finite");
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Counts one end-of-run check as an attempted operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Adds the `attempted`/`failed` accounting of the load threads.
    pub fn absorb(&mut self, recorders: &[Recorder]) {
        for r in recorders {
            self.attempted += r.attempted;
            self.failed += r.failed;
            self.errors.extend(r.errors.iter().cloned());
        }
    }

    /// The end-to-end metrics, the same three on every workload:
    /// `setup_s`, the median of the run's set-ups; `ops_per_s`, completed
    /// public calls per second of all load threads; and `write_p50_us`,
    /// the median latency of the workload's write call `write`.
    pub fn end_to_end(
        &mut self,
        setup: Vec<f64>,
        recorders: &[Recorder],
        windows: &[Window],
        write: Kind,
    ) {
        self.push("setup_s", median(setup), "s");
        self.rate("ops_per_s", recorders, windows, |_| true);
        self.latency("write_p50_us", recorders, write, 0.5);
    }

    /// `name`: the exact nearest-rank `p` percentile of the per-call
    /// latencies of `kind` over all load threads and the whole untraced
    /// window.
    fn latency(&mut self, name: &str, recorders: &[Recorder], kind: Kind, p: f64) {
        let mut all: Vec<u64> = recorders
            .iter()
            .flat_map(|r| &r.slices)
            .flat_map(|s| s.latencies[kind as usize].iter().copied())
            .collect();
        assert!(!all.is_empty(), "no {} calls were timed", kind.label());
        all.sort_unstable();
        self.metrics.push(Metric {
            name: name.to_string(),
            value: percentile(&all, p) as f64 / 1e3,
            unit: "us",
            samples: Some(all.len()),
        });
    }

    /// `name` in calls per second: the completed calls of the kinds `pick`
    /// selects over the whole untraced window.
    fn rate(
        &mut self,
        name: &str,
        recorders: &[Recorder],
        windows: &[Window],
        pick: impl Fn(Kind) -> bool,
    ) {
        let calls: u64 = recorders
            .iter()
            .flat_map(|r| &r.slices)
            .flat_map(|s| Kind::ALL.map(|k| (k, s.calls[k as usize])))
            .filter(|&(k, _)| pick(k))
            .map(|(_, n)| n)
            .sum();
        let secs: f64 = window(windows, Mode::Measure).slice_secs.iter().sum();
        self.push(name, calls as f64 / secs, "1/s");
    }

    /// The per-layer metrics, the same set on every workload: benchmark-side
    /// rates, tail latency, span times and tracing overhead, then each
    /// layer's counters over the traced window. A layer the workload does
    /// not drive reports 0 for its counters; `durability` carries what only
    /// the durable workload measures (the default elsewhere).
    pub fn per_layer(
        &mut self,
        windows: &[Window],
        recorders: &mut [Recorder],
        write: Kind,
        durability: &Durability,
    ) {
        self.rate("writes_per_s", recorders, windows, Kind::is_write);
        self.rate("reads_per_s", recorders, windows, |k| !k.is_write());
        self.latency("write_p99_us", recorders, write, 0.99);
        let summary = self.traced(windows, recorders);
        let busy: [f64; KINDS] = std::array::from_fn(|k| summary.busy_s.iter().map(|b| b[k]).sum());
        let busy_total: f64 = busy.iter().sum();
        for kind in Kind::ALL {
            self.push(
                format!("busy_frac.{}", kind.label()),
                busy[kind as usize] / busy_total,
                "frac",
            );
        }
        let (drains, snapshots) = recorders
            .iter()
            .fold((0, 0), |(d, s), r| (d + r.drains, s + r.snapshot_drains));
        self.push("scan_snapshot_frac", ratio(snapshots, drains), "frac");

        let traced = window(windows, Mode::Traced);
        let delta = &traced.delta;
        let c = |name: &str| counter(delta, name);
        let calls = |kinds: &[Kind]| -> u64 {
            kinds
                .iter()
                .map(|&k| traced_calls(recorders, Some(k)))
                .sum()
        };
        let contains = calls(&[Kind::Contains]);

        // The tree's counters: its own on tree-mix, the shards' summed
        // under `store_tree_` where the durable store's sharded store
        // drives the trees.
        let core = if delta.counter("tree_inserts").is_some() {
            "tree"
        } else {
            "store_tree"
        };
        for (layer, prefix) in [("wft-core", core), ("wft-trie", "trie")] {
            let t = |name: &str| c(&format!("{prefix}_{name}"));
            let updates = t("inserts") + t("replaces") + t("removes") + t("failed_updates");
            let range_reads = t("fast_range_hits") + t("range_fallbacks");
            self.push(
                format!("{layer}.helped_per_update"),
                ratio(t("helped_executions"), updates),
                "ratio",
            );
            if layer == "wft-core" {
                self.push(
                    format!("{layer}.rebuilt_items_per_update"),
                    ratio(t("rebuilt_items"), updates),
                    "ratio",
                );
            }
            self.push(
                format!("{layer}.range_fallbacks_per_range_read"),
                ratio(t("range_fallbacks"), range_reads),
                "ratio",
            );
            self.push(
                format!("{layer}.fast_range_retries_per_range_read"),
                ratio(t("fast_range_retries"), range_reads),
                "ratio",
            );
            self.push(
                format!("{layer}.fast_point_reads_per_contains"),
                ratio(t("fast_point_reads"), contains),
                "ratio",
            );
            self.push(
                format!("{layer}.failed_update_frac"),
                ratio(t("failed_updates"), updates),
                "frac",
            );
        }

        let batches = calls(&[Kind::Commit]);
        self.push(
            "wft-store.gate_waits_per_batch",
            ratio(c("store_commit_gate_waits"), batches),
            "ratio",
        );
        self.push(
            "wft-store.batch_commits_per_batch",
            ratio(c("store_batch_commits"), batches),
            "ratio",
        );
        self.push(
            "wft-store.snapshot_retries_per_acquire",
            ratio(c("store_snapshot_retries"), c("store_snapshot_acquires")),
            "ratio",
        );

        let hist = |name: &str| delta.histogram(name).cloned().unwrap_or_default();
        let (log_commit, checkpoint) = (
            hist("durable_commit_latency_ns"),
            hist("durable_checkpoint_duration_ns"),
        );
        self.push(
            "wft-durable.commits_per_fsync",
            ratio(c("durable_wal_appends"), c("durable_wal_fsyncs")),
            "ratio",
        );
        self.push(
            "wft-durable.wal_bytes_per_user_byte",
            ratio(c("durable_wal_bytes"), durability.user_bytes),
            "ratio",
        );
        // Means rather than sums: a commit that straddles the start of a
        // traced slice lands in the histogram but has no span.
        let log_share = if batches == 0 {
            0.0
        } else {
            log_commit.mean_ns() * 1e-9 / (busy[Kind::Commit as usize] / batches as f64)
        };
        self.push("wft-durable.log_commit_share", log_share, "frac");
        self.push(
            "wft-durable.checkpoints",
            c("durable_checkpoints") as f64,
            "count",
        );
        let traced_ns = (traced.slice_secs.iter().sum::<f64>() * 1e9) as u64;
        self.push(
            "wft-durable.checkpoint_busy_frac",
            ratio(checkpoint.sum_ns, traced_ns),
            "frac",
        );
        self.push(
            "wft-durable.replayed_records",
            durability.replayed_records as f64,
            "count",
        );
        self.push(
            "wft-durable.recovered_entries_per_s",
            durability.recovered_entries_per_s,
            "1/s",
        );
        self.push(
            "wft-durable.io_retries",
            c("durable_io_retries") as f64,
            "count",
        );
        self.counters = Some(delta.clone());
    }

    /// Takes the traced window's spans from the load threads, checks them
    /// (nesting, and per-layer self times against each thread's traced
    /// wall time), and reports the self time of the benchmark's own code and of the
    /// layer's calls and the tracing overhead: completed calls per second
    /// of each traced slice against the untraced slice just before it,
    /// median over the slice pairs.
    fn traced(&mut self, windows: &[Window], recorders: &mut [Recorder]) -> TraceSummary {
        self.spans = recorders
            .iter_mut()
            .map(|r| std::mem::take(&mut r.spans))
            .collect();
        let wall: Vec<u64> = recorders.iter().map(|r| r.traced_wall_ns).collect();
        let summary = trace::summarise(&self.spans, &wall);
        self.push("self_s.bench", summary.self_s[0], "s");
        self.push("self_s.calls", summary.self_s[1..].iter().sum(), "s");
        for (i, (layer, _)) in LAYERS.iter().enumerate().skip(1) {
            if summary.self_s[i] > 0.0 {
                self.note(&format!("self_s.{layer}"), summary.self_s[i]);
            }
        }
        let (untraced, traced) = (
            window(windows, Mode::Measure),
            window(windows, Mode::Traced),
        );
        let overhead = (0..SLICES)
            .map(|s| {
                let sum = |calls: fn(&Slice) -> &[u64; KINDS]| -> f64 {
                    recorders
                        .iter()
                        .map(|r| calls(&r.slices[s]).iter().sum::<u64>())
                        .sum::<u64>() as f64
                };
                let plain = sum(|x| &x.calls) / untraced.slice_secs[s];
                let spanned = sum(|x| &x.traced_calls) / traced.slice_secs[s];
                100.0 * (plain - spanned) / plain
            })
            .collect();
        self.push("trace.overhead_pct", median(overhead), "%");
        self.note("trace.spans", summary.spans);
        self.note("trace.request_span_s", summary.total_s);
        self.note("trace.traced_wall_s", summary.wall_s);
        self.note("trace.coverage_tolerance", trace::COVERAGE_TOLERANCE);
        self.trace_problems.extend(summary.problems.iter().cloned());
        summary
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.trace_problems.is_empty()
    }

    /// Prints the human-readable table, writes the result file, and prints
    /// the one-line JSON result last.
    pub fn emit(&self, workload: &str, seed: u64, trace_run: bool, host: &[(String, String)]) {
        let host_json = object(host.iter().chain(&self.notes));
        println!("perfbench {workload} seed={seed} trace={}", trace_run as u8);
        println!("host {host_json}");
        for m in &self.metrics {
            let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("  {:<40} {:>16.4} {}{samples}", m.name, m.value, m.unit);
        }
        for e in self.errors.iter().chain(&self.trace_problems).take(16) {
            println!("  FAILED: {e}");
        }
        println!(
            "  correct={} attempted={} failed={}",
            self.correct(),
            self.attempted,
            self.failed
        );

        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );

        if !self.spans.is_empty() {
            let path = Path::new(OUT_DIR)
                .join("results")
                .join(format!("{workload}.spans.tsv"));
            if let Err(err) = trace::write_spans(&path, &self.spans) {
                eprintln!("perfbench: could not write {}: {err}", path.display());
            }
        }
        let path = result_path(workload, seed, trace_run);
        let mut file = format!("{{\n  \"host\": {host_json},\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i + 1 == self.metrics.len() { "" } else { "," };
            let samples = m.samples.map_or("null".to_string(), |n| n.to_string());
            let _ = writeln!(
                file,
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {samples}}}{sep}",
                m.name, m.value, m.unit
            );
        }
        let counters = self
            .counters
            .as_ref()
            .map_or("null".to_string(), |c| c.to_json());
        let _ = write!(
            file,
            "  ],\n  \"counters\": {counters},\n  \"result\": {line}\n}}\n"
        );
        if let Err(err) = write_file(&path, &file) {
            eprintln!("perfbench: could not write {}: {err}", path.display());
        }
        println!("{line}");
    }
}

/// Calls of `kind` (every kind for `None`) the load threads completed in
/// the traced window.
pub fn traced_calls(recorders: &[Recorder], kind: Option<Kind>) -> u64 {
    let slices = recorders.iter().flat_map(|r| &r.slices);
    slices
        .map(|s| match kind {
            Some(k) => s.traced_calls[k as usize],
            None => s.traced_calls.iter().sum(),
        })
        .sum()
}

/// What only the durable workload measures for its per-layer metrics.
#[derive(Default)]
pub struct Durability {
    /// Key and value bytes the writers submitted in the traced window.
    pub user_bytes: u64,
    /// WAL records the reopen after the window replayed.
    pub replayed_records: u64,
    /// Entries the reopen restored (from the checkpoint and the log) per
    /// second of recovery.
    pub recovered_entries_per_s: f64,
}

/// The window of `mode` (each run has exactly one of each kind it uses).
pub fn window(windows: &[Window], mode: Mode) -> &Window {
    windows
        .iter()
        .find(|w| w.mode == mode)
        .expect("the run has this window")
}

/// `num / den`, or 0 when nothing was counted in the denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A counter's window delta; absent counters read as 0.
pub fn counter(delta: &MetricsSnapshot, name: &str) -> u64 {
    delta.counter(name).unwrap_or(0)
}

/// The median of a few values (the upper one of an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn result_path(workload: &str, seed: u64, trace_run: bool) -> PathBuf {
    Path::new(OUT_DIR).join("results").join(format!(
        "{workload}-seed{seed}-trace{}.json",
        trace_run as u8
    ))
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn object<'a>(pairs: impl Iterator<Item = &'a (String, String)>) -> String {
    let fields: Vec<String> = pairs
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}
