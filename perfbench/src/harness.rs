//! The shared closed loop: phase control, per-call timing, span recording,
//! failure accounting, the correctness oracle and exact percentiles.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use wft_api::ScanConsistency;
use wft_obs::{MetricsSnapshot, MetricsSource};

/// What the load threads do with each call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Calls run and are checked, but nothing is recorded.
    Warmup = 0,
    /// Each call's latency is recorded (the end-to-end window).
    Measure = 1,
    /// Each call is recorded as a span (the per-layer window).
    Traced = 2,
    /// The load threads leave their loops.
    Stop = 3,
}

/// Equal slices each window is cut into. A traced run alternates untraced
/// and traced slices, so that both sample the same stretch of the run;
/// end-to-end metrics are taken over the whole untraced window.
pub const SLICES: usize = 15;

/// The phase (and slice of it) every load thread reads before each call.
pub struct Clock {
    phase: AtomicU8,
    slice: AtomicU8,
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            phase: AtomicU8::new(Mode::Warmup as u8),
            slice: AtomicU8::new(0),
            epoch: Instant::now(),
        }
    }

    fn slice(&self) -> usize {
        // ORDERING: Relaxed, see `mode`.
        self.slice.load(Ordering::Relaxed) as usize
    }

    fn set_slice(&self, slice: usize) {
        // ORDERING: Relaxed, see `mode`.
        self.slice.store(slice as u8, Ordering::Relaxed);
    }

    pub fn mode(&self) -> Mode {
        // ORDERING: Relaxed — the phase publishes no data; a load thread
        // that sees a flip one call late only shifts that call's window.
        match self.phase.load(Ordering::Relaxed) {
            0 => Mode::Warmup,
            1 => Mode::Measure,
            2 => Mode::Traced,
            _ => Mode::Stop,
        }
    }

    fn set(&self, mode: Mode) {
        // ORDERING: Relaxed, see `mode`.
        self.phase.store(mode as u8, Ordering::Relaxed);
    }
}

/// One timed window: the length of each of its slices and the program's
/// counters over them.
pub struct Window {
    pub mode: Mode,
    pub slice_secs: Vec<f64>,
    pub delta: MetricsSnapshot,
}

fn snapshot(source: &dyn MetricsSource) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::new();
    source.collect_metrics(&mut out);
    out
}

/// Runs on the main thread while the load threads loop: [`WARMUP`], then
/// [`SLICES`] slices of `Measure` (untraced run), or `Measure` and `Traced`
/// slices taking turns, half the time each (traced run), then `Stop`.
/// Taking turns makes both modes sample the same stretch of the run: the
/// trees slow down as updates age their freshly built layout, so a first
/// half against a second half would count that drift as tracing overhead.
/// Each window's counters are the summed deltas of
/// [`MetricsSource::collect_metrics`] over its slices.
pub fn drive(clock: &Clock, source: &dyn MetricsSource, seconds: u64, trace: bool) -> Vec<Window> {
    std::thread::sleep(WARMUP);
    let modes: &[Mode] = if trace {
        &[Mode::Measure, Mode::Traced]
    } else {
        &[Mode::Measure]
    };
    let slice_length = Duration::from_secs(seconds) / (SLICES * modes.len()) as u32;
    let mut windows: Vec<Window> = modes
        .iter()
        .map(|&mode| Window {
            mode,
            slice_secs: Vec::with_capacity(SLICES),
            delta: MetricsSnapshot::new(),
        })
        .collect();
    let mut before = snapshot(source);
    for slice in 0..SLICES {
        for window in windows.iter_mut() {
            clock.set_slice(slice);
            clock.set(window.mode);
            let start = Instant::now();
            std::thread::sleep(slice_length);
            let after = snapshot(source);
            window.slice_secs.push(start.elapsed().as_secs_f64());
            accumulate(&mut window.delta, after.delta_since(&before));
            before = after;
        }
    }
    clock.set(Mode::Stop);
    windows
}

/// Adds the counters and histograms of `delta` into `sum`; gauges are
/// levels and keep the latest reading.
fn accumulate(sum: &mut MetricsSnapshot, delta: MetricsSnapshot) {
    for c in delta.counters {
        match sum.counters.iter_mut().find(|s| s.name == c.name) {
            Some(s) => s.value += c.value,
            None => sum.counters.push(c),
        }
    }
    for h in delta.histograms {
        match sum.histograms.iter_mut().find(|s| s.name == h.name) {
            Some(s) => s.histogram = s.histogram.merged_with(&h.histogram),
            None => sum.histograms.push(h),
        }
    }
    sum.gauges = delta.gauges;
}

/// The untimed run-in before the first window: long enough for caches and
/// allocator pools to settle. It is kept short on purpose: the trees'
/// throughput keeps falling for tens of seconds after a bulk build (their
/// key-ordered layout ages as updates replace nodes), and a 12 s warm-up
/// that moved the window past the steepest part of that fall gave no
/// steadier figures on the reference host.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Operation classes; each has its own latency series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Contains = 0,
    Update = 1,
    Count = 2,
    Scan = 3,
    Commit = 4,
}

pub const KINDS: usize = 5;

impl Kind {
    pub const ALL: [Kind; KINDS] = [
        Kind::Contains,
        Kind::Update,
        Kind::Count,
        Kind::Scan,
        Kind::Commit,
    ];

    pub fn label(self) -> &'static str {
        ["contains", "update", "count", "scan", "commit"][self as usize]
    }

    /// Whether calls of this class change the structure.
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Update | Kind::Commit)
    }
}

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's clock epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation class of a public-call span; `None` for request roots
    /// and cursor chunks.
    pub kind: Option<Kind>,
    pub parent: u32,
    pub request: u64,
    pub start: u64,
    pub end: u64,
}

/// A started timing: a span in the traced window, a clock reading in the
/// others, nothing for chunk spans outside the traced window.
pub enum Tok {
    Span(u32),
    Clock(Instant),
    Off,
}

/// What one load thread recorded in one slice of the run.
#[derive(Default)]
pub struct Slice {
    /// Per-call latencies in nanoseconds of the untraced window, per kind.
    pub latencies: [Vec<u64>; KINDS],
    /// Completed calls per kind in the untraced window.
    pub calls: [u64; KINDS],
    /// Completed calls per kind in the traced window.
    pub traced_calls: [u64; KINDS],
}

/// Per-thread record of one load thread: latencies and call counts per
/// slice, spans, and correctness accounting.
pub struct Recorder {
    epoch: Instant,
    thread: u64,
    mode: Mode,
    slice: usize,
    root: u32,
    next_request: u64,
    /// Start of the traced stretch the thread is in, if any.
    stretch_start: Option<u64>,
    /// Wall time the thread spent in traced stretches, nanoseconds, read
    /// from the clock at the first traced `begin` of each stretch and at
    /// the first `begin` after it: independent of the spans, so that time
    /// the spans miss shows against it.
    pub traced_wall_ns: u64,
    /// The run, slice by slice.
    pub slices: Vec<Slice>,
    pub spans: Vec<Span>,
    /// Scan drains that ended in the traced window, and how many of them
    /// ended as one consistent snapshot.
    pub drains: u64,
    pub snapshot_drains: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few mismatches, for the report.
    pub errors: Vec<String>,
}

impl Recorder {
    pub fn new(clock: &Clock, thread: u64) -> Self {
        Recorder {
            epoch: clock.epoch,
            thread,
            mode: Mode::Warmup,
            slice: 0,
            root: ROOT,
            next_request: 0,
            stretch_start: None,
            traced_wall_ns: 0,
            slices: (0..SLICES).map(|_| Slice::default()).collect(),
            spans: Vec::new(),
            drains: 0,
            snapshot_drains: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, kind: Option<Kind>, parent: u32) -> u32 {
        let index = self.spans.len() as u32;
        let request = (self.thread << 48) | self.next_request;
        let start = self.now();
        self.spans.push(Span {
            name,
            kind,
            parent,
            request,
            start,
            end: start,
        });
        index
    }

    fn close(&mut self, index: u32) {
        let end = self.now();
        self.spans[index as usize].end = end;
    }

    /// Starts one closed-loop request; `false` once the run is over. In the
    /// traced window the request gets a root span (`bench.request`) that
    /// covers input generation, the call and the oracle check.
    pub fn begin(&mut self, clock: &Clock) -> bool {
        self.mode = clock.mode();
        self.slice = clock.slice();
        match (self.mode, self.stretch_start) {
            (Mode::Traced, None) => self.stretch_start = Some(self.now()),
            (Mode::Traced, Some(_)) => {}
            (_, Some(start)) => {
                self.traced_wall_ns += self.now() - start;
                self.stretch_start = None;
            }
            (_, None) => {}
        }
        if self.mode == Mode::Stop {
            return false;
        }
        if self.mode == Mode::Traced {
            self.next_request += 1;
            self.root = self.open("bench.request", None, ROOT);
        }
        true
    }

    /// Ends the request opened by [`begin`](Self::begin).
    pub fn end(&mut self) {
        if self.root != ROOT {
            self.close(self.root);
            self.root = ROOT;
        }
    }

    /// Starts timing one public call of the layer under test.
    pub fn op(&mut self, name: &'static str, kind: Kind) -> Tok {
        match self.mode {
            Mode::Traced => Tok::Span(self.open(name, Some(kind), self.root)),
            _ => Tok::Clock(Instant::now()),
        }
    }

    /// Ends a call started by [`op`](Self::op): closes its span or records
    /// its latency, and counts it in the current window.
    pub fn done(&mut self, tok: Tok, kind: Kind) {
        self.attempted += 1;
        match (tok, self.mode) {
            (Tok::Span(i), _) => {
                self.close(i);
                self.slices[self.slice].traced_calls[kind as usize] += 1;
            }
            (Tok::Clock(t0), Mode::Measure) => {
                let slice = &mut self.slices[self.slice];
                slice.latencies[kind as usize].push(t0.elapsed().as_nanos() as u64);
                slice.calls[kind as usize] += 1;
            }
            _ => {}
        }
    }

    /// Starts a child span of `parent` (a cursor chunk inside its drain);
    /// nothing outside the traced window.
    pub fn sub(&mut self, name: &'static str, parent: &Tok) -> Tok {
        match parent {
            Tok::Span(i) => Tok::Span(self.open(name, None, *i)),
            _ => Tok::Off,
        }
    }

    pub fn done_sub(&mut self, tok: Tok) {
        if let Tok::Span(i) = tok {
            self.close(i);
        }
    }

    /// The window the current request runs in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Counts a finished scan drain of the traced window and whether it
    /// ended as one consistent snapshot.
    pub fn drained(&mut self, consistency: ScanConsistency) {
        if self.mode == Mode::Traced {
            self.drains += 1;
            self.snapshot_drains += (consistency == ScanConsistency::Snapshot) as u64;
        }
    }

    /// Counts a failed call when `ok` is false.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }
}

/// Exact percentile of `sorted` (nearest rank: the smallest sample with at
/// least `p` of the samples at or below it).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A bitmap oracle over the keys one load thread owns (and only it
/// writes): bit `j` is set while the thread's `j`-th key is present.
#[derive(Clone)]
pub struct Bits {
    words: Vec<u64>,
    ones: u64,
}

impl Bits {
    pub fn new(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
            ones: 0,
        }
    }

    pub fn get(&self, j: usize) -> bool {
        self.words[j / 64] >> (j % 64) & 1 == 1
    }

    pub fn put(&mut self, j: usize, present: bool) {
        if self.get(j) != present {
            self.words[j / 64] ^= 1 << (j % 64);
            if present {
                self.ones += 1;
            } else {
                self.ones -= 1;
            }
        }
    }

    pub fn ones(&self) -> u64 {
        self.ones
    }

    /// Set bits in `lo..=hi`.
    pub fn count(&self, lo: usize, hi: usize) -> u64 {
        if lo > hi {
            return 0;
        }
        let (wl, wh) = (lo / 64, hi / 64);
        let low_mask = !0u64 << (lo % 64);
        let high_mask = !0u64 >> (63 - hi % 64);
        if wl == wh {
            return (self.words[wl] & low_mask & high_mask).count_ones() as u64;
        }
        let middle: u64 = self.words[wl + 1..wh]
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum();
        (self.words[wl] & low_mask).count_ones() as u64
            + middle
            + (self.words[wh] & high_mask).count_ones() as u64
    }
}

/// SplitMix64: the benchmark's only source of generated inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_counts_match_a_naive_count() {
        let mut bits = Bits::new(300);
        let mut rng = Rng::new(7, 0);
        for j in 0..300 {
            bits.put(j, rng.below(2) == 1);
        }
        for (lo, hi) in [(0, 299), (3, 3), (5, 64), (63, 64), (64, 127), (10, 250)] {
            let naive = (lo..=hi).filter(|&j| bits.get(j)).count() as u64;
            assert_eq!(bits.count(lo, hi), naive, "{lo}..={hi}");
        }
        assert_eq!(bits.count(0, 299), bits.ones());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
