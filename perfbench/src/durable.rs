//! `durable-commit`: group commit, fsync, apply and checkpoint, with no
//! read path in the loop.
//!
//! A `DurableStore<i64, i64>` with fsync on and 4 shards, prefilled with
//! ~32k keys of `[1, 65536]` through `apply_durable`. Two writers submit
//! 8-op batches over the keys they own; the store's auto-checkpointer runs
//! at 1 MiB of live WAL. After the window the store shuts down and is
//! reopened, and recovery must give back exactly the acknowledged state.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wft_api::StoreOp;
use wft_durable::{CheckpointPolicy, DurableConfig, DurableError, DurableStore};
use wft_store::OpOutcome;

use crate::harness::{drive, Clock, Kind, Mode, Recorder, Rng};
use crate::mix::{key_of, owner_and_index};
use crate::report::{Durability, Report, OUT_DIR};
use crate::LOAD_THREADS;

const KEYS: i64 = 65_536;
const HALF: usize = KEYS as usize / 2;
const SHARDS: usize = 4;
const BATCH: usize = 8;
const PREFILL_BATCH: usize = 512;
const CHECKPOINT_WAL_BYTES: u64 = 1 << 20;
const CHECKPOINT_POLL: Duration = Duration::from_millis(10);
const SETUPS: usize = 7;

type Store = DurableStore<i64, i64>;

fn config() -> DurableConfig {
    DurableConfig {
        shards: SHARDS,
        fsync: true,
        auto_checkpoint: Some(CheckpointPolicy {
            max_wal_bytes: Some(CHECKPOINT_WAL_BYTES),
            max_wal_segments: None,
        }),
        ..DurableConfig::default()
    }
}

/// Opens a fresh store in `dir` and prefills it through the log.
fn set_up(dir: &Path, prefill: &[(i64, i64)]) -> Result<Store, DurableError> {
    let store = Store::open_with_config(dir, config())?;
    for chunk in prefill.chunks(PREFILL_BATCH) {
        let batch = chunk
            .iter()
            .map(|&(key, value)| StoreOp::Insert { key, value })
            .collect();
        store.apply_durable(batch)?;
    }
    Ok(store)
}

/// Removes the benchmark's store directory when the run ends, however it
/// ends. (`wft_durable::ScratchDir` would put it under the system temp
/// directory; the benchmark keeps everything inside its checkout.)
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(seed: u64, seconds: u64, trace_run: bool) -> Result<Report, DurableError> {
    let mut rng = Rng::new(seed, 0);
    let mut owned: Vec<Vec<Option<i64>>> = vec![vec![None; HALF]; LOAD_THREADS];
    let mut prefill = Vec::new();
    for key in 1..=KEYS {
        if rng.below(2) == 1 {
            let value = rng.next_u64() as i64;
            prefill.push((key, value));
            let (t, j) = owner_and_index(key);
            owned[t][j] = Some(value);
        }
    }

    let scratch = ScratchDir(Path::new(OUT_DIR).join(format!("durable-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);
    let mut setup = Vec::new();
    let mut built = None;
    for i in 0..SETUPS {
        if let Some(previous) = built.take() {
            Store::shutdown(&previous);
        }
        let dir = scratch.0.join(format!("setup-{i}"));
        let start = Instant::now();
        built = Some(set_up(&dir, &prefill)?);
        setup.push(start.elapsed().as_secs_f64());
    }
    let store = Arc::new(built.expect("at least one set-up"));
    let dir = store.dir().to_path_buf();
    let checkpointer = Store::spawn_auto_checkpointer(&store, CHECKPOINT_POLL);

    let clock = Clock::new();
    let (windows, mut recorders, owned): (_, Vec<Recorder>, Vec<Owned>) = std::thread::scope(|s| {
        let handles: Vec<_> = owned
            .into_iter()
            .enumerate()
            .map(|(t, values)| {
                let (store, clock) = (&store, &clock);
                let own = Owned {
                    values,
                    traced_bytes: 0,
                };
                s.spawn(move || writer(store, t, own, seed, clock))
            })
            .collect();
        let windows = drive(&clock, store.as_ref(), seconds, trace_run);
        let (recorders, owned) = handles
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .unzip();
        (windows, recorders, owned)
    });
    drop(checkpointer);

    let mut report = Report::new();
    report.absorb(&recorders);
    let expected: Vec<(i64, i64)> = {
        let mut all: Vec<(i64, i64)> = owned
            .iter()
            .enumerate()
            .flat_map(|(t, own)| {
                own.values
                    .iter()
                    .enumerate()
                    .filter_map(move |(j, v)| v.map(|v| (key_of(t, j), v)))
            })
            .collect();
        all.sort_unstable();
        all
    };
    let live = store.store().entries_quiescent();
    report.check(live == expected, || {
        format!(
            "live state has {} keys, the oracle {}",
            live.len(),
            expected.len()
        )
    });
    store.shutdown();
    drop(store);

    let start = Instant::now();
    let reopened = Store::open_with_config(&dir, config())?;
    let recovery_s = start.elapsed().as_secs_f64();
    let recovered = reopened.store().entries_quiescent();
    report.check(recovered == expected, || {
        format!(
            "recovery gave {} keys, {} were acknowledged",
            recovered.len(),
            expected.len()
        )
    });
    let recovery = reopened.recovery().clone();
    reopened.shutdown();
    drop(reopened);
    drop(scratch);
    report.note(
        "keys",
        format!("[1, {KEYS}] prefilled 1/2, {SHARDS} shards"),
    );
    report.note("flush_policy", "fsync on every group commit");
    report.note(
        "auto_checkpoint",
        format!("at {CHECKPOINT_WAL_BYTES} bytes of live WAL"),
    );

    if trace_run {
        let durability = Durability {
            user_bytes: owned.iter().map(|own| own.traced_bytes).sum(),
            replayed_records: recovery.replayed_records,
            recovered_entries_per_s: (recovery.checkpoint_entries + recovery.replayed_ops) as f64
                / recovery_s,
        };
        report.per_layer(&windows, &mut recorders, Kind::Commit, &durability);
    } else {
        report.end_to_end(setup, &recorders, &windows, Kind::Commit);
    }
    Ok(report)
}

/// One writer's oracle: the value of each key it owns, and the key and
/// value bytes it submitted in the traced window.
struct Owned {
    values: Vec<Option<i64>>,
    traced_bytes: u64,
}

fn writer(store: &Store, t: usize, mut own: Owned, seed: u64, clock: &Clock) -> (Recorder, Owned) {
    let mut rec = Recorder::new(clock, t as u64);
    let mut rng = Rng::new(seed, 1 + t as u64);
    let mut picked: Vec<usize> = Vec::with_capacity(BATCH);
    while rec.begin(clock) {
        picked.clear();
        while picked.len() < BATCH {
            let j = rng.below(HALF as u64) as usize;
            if !picked.contains(&j) {
                picked.push(j);
            }
        }
        // Present keys are removed or overwritten, absent ones inserted.
        let batch: Vec<StoreOp<i64, i64>> = picked
            .iter()
            .map(|&j| {
                let key = key_of(t, j);
                match own.values[j] {
                    None => StoreOp::Insert {
                        key,
                        value: rng.next_u64() as i64,
                    },
                    Some(_) if rng.below(2) == 0 => StoreOp::Remove { key },
                    Some(_) => StoreOp::InsertOrReplace {
                        key,
                        value: rng.next_u64() as i64,
                    },
                }
            })
            .collect();
        if rec.mode() == Mode::Traced {
            let bytes = |op: &StoreOp<i64, i64>| match op {
                StoreOp::Remove { .. } => 8,
                _ => 16,
            };
            own.traced_bytes += batch.iter().map(bytes).sum::<u64>();
        }
        let expected: Vec<OpOutcome<i64>> = picked
            .iter()
            .zip(&batch)
            .map(|(&j, op)| match op {
                StoreOp::Insert { .. } => OpOutcome::Inserted(true),
                StoreOp::Remove { .. } => OpOutcome::Removed(true),
                _ => OpOutcome::Replaced(own.values[j]),
            })
            .collect();
        let after: Vec<Option<i64>> = batch
            .iter()
            .map(|op| match op {
                StoreOp::Insert { value, .. } | StoreOp::InsertOrReplace { value, .. } => {
                    Some(*value)
                }
                _ => None,
            })
            .collect();
        let tok = rec.op("durable.apply_durable", Kind::Commit);
        let result = store.apply_durable(batch);
        rec.done(tok, Kind::Commit);
        let ok = result.as_ref().is_ok_and(|got| *got == expected);
        rec.expect(ok, || {
            format!("apply_durable returned {result:?}, expected {expected:?}")
        });
        // An acknowledged batch is applied whole; an `Err` applied nothing.
        if result.is_ok() {
            for (&j, value) in picked.iter().zip(after) {
                own.values[j] = value;
            }
        }
        rec.end();
    }
    (rec, own)
}
