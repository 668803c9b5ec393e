//! A uniform interface over every tree implementation in the workspace.
//!
//! The benchmark harness measures seven structures under identical
//! workloads:
//!
//! * the paper's wait-free tree (lock-free root queue),
//! * the same tree with the wait-free root queue of Lemma 1,
//! * the persistent path-copying baseline (the paper's competitor),
//! * the coarse-grained lock baseline,
//! * the lock-free external BST whose range queries are linear in the range
//!   width (the "linear-time solutions" class of prior work),
//! * the wait-free binary trie (the same helping scheme with bit-routing),
//! * the range-partitioned sharded store.
//!
//! All of them are driven through [`ConcurrentSet`], instantiated for the
//! paper's benchmark domain: 64-bit integer keys, unit values, subtree-size
//! augmentation. [`ConcurrentSet`] itself is implemented **once**, as a
//! blanket impl over the `wft-api` trait family — the harness has no
//! per-implementation code at all, so a new backend only has to implement
//! [`PointMap`] + [`RangeRead`] to appear in every experiment, table and
//! lincheck suite.

use std::sync::Arc;

use wft_api::{PointMap, RangeRead, RangeScan, RangeSpec, ScanConsistency, SnapshotRead};
use wft_core::{ReadPath, RootQueueKind, TreeConfig, WaitFreeTree};
use wft_durable::{DurableStore, FaultyStorage, ScratchDir};
use wft_lockbased::LockedRangeTree;
use wft_lockfree::LockFreeBst;
use wft_persistent::PersistentRangeTree;
use wft_store::{ShardedStore, StoreConfig};
use wft_trie::WaitFreeTrie;

/// The common operation surface used by every experiment: the `wft-api`
/// trait family monomorphised to the paper's benchmark domain (`i64` keys,
/// unit values) and object-safe, so heterogeneous implementations share one
/// harness through `Arc<dyn ConcurrentSet>`.
pub trait ConcurrentSet: Send + Sync + 'static {
    /// Inserts `key`; returns `true` if it was absent.
    fn insert(&self, key: i64) -> bool;
    /// Upserts `key` (the atomic replace); returns `true` if it was already
    /// present.
    fn replace(&self, key: i64) -> bool;
    /// Removes `key`; returns `true` if it was present.
    fn remove(&self, key: i64) -> bool;
    /// Returns `true` if `key` is present.
    fn contains(&self, key: i64) -> bool;
    /// Number of keys in `[min, max]` via the aggregate range query.
    fn count(&self, min: i64, max: i64) -> u64;
    /// Number of keys in `[min, max]` computed the pre-existing way:
    /// `collect(min, max).len()` — linear in the range size.
    fn count_via_collect(&self, min: i64, max: i64) -> u64;
    /// Counts of `[a_min, a_max]` and `[b_min, b_max]` answered from **one
    /// snapshot** (`wft_api::SnapshotRead`): the pair is mutually
    /// consistent — both counts describe the same instant.
    fn snapshot_count_pair(&self, a_min: i64, a_max: i64, b_min: i64, b_max: i64) -> (u64, u64);
    /// Drains one streaming cursor over `[min, max]` in `chunk`-sized
    /// chunks (`wft_api::RangeScan`), returning the number of entries
    /// yielded and whether the drain stayed a single snapshot
    /// (`ScanConsistency::Snapshot`).
    fn chunked_scan_count(&self, min: i64, max: i64, chunk: usize) -> (u64, bool);
    /// Drains streaming cursors over `[min, max]` in `chunk`-sized chunks
    /// until one completes as a single snapshot
    /// (`wft_api::RangeScan::scan_snapshot`), returning its keys — the
    /// paginated equivalent of one `collect_range`, which is exactly what
    /// the linearizability checker verifies it against.
    fn chunked_scan_snapshot(&self, min: i64, max: i64, chunk: usize) -> Vec<i64>;
    /// Toggles `key`'s membership through one `StoreOp::Patch`
    /// read-modify-write (present → removed, absent → inserted); returns
    /// whether the key is present afterwards. Atomic only where
    /// [`TreeImpl::patch_is_atomic`] says so.
    fn patch_toggle(&self, key: i64) -> bool;
    /// Insert-if-absent through `StoreOp::CompareAndSet { expect: None }`;
    /// returns whether the conditional write applied. Atomic only where
    /// [`TreeImpl::patch_is_atomic`] says so.
    fn cas_insert(&self, key: i64) -> bool;
    /// One two-op batch — `remove(a)` + `insert(b)` — through
    /// [`wft_api::BatchApply`]; returns (`a` removed, `b` inserted).
    /// Requires `a != b` (the validator rejects duplicate mutation keys).
    /// All-or-nothing against concurrent readers only where
    /// [`TreeImpl::batch_is_atomic`] says so.
    fn batch_move(&self, a: i64, b: i64) -> (bool, bool);
    /// Number of keys currently stored.
    fn len(&self) -> u64;
    /// `true` when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// One [`wft_obs::MetricsSnapshot`] of the implementation's counters
    /// and gauges (every backend implements [`wft_obs::MetricsSource`]).
    /// The harness samples this around measurement windows and the watchdog
    /// dumps it when workers fail to stop.
    fn metrics_snapshot(&self) -> wft_obs::MetricsSnapshot;
}

impl<T> ConcurrentSet for T
where
    T: PointMap<i64, ()>
        + RangeRead<i64, ()>
        + SnapshotRead<i64, ()>
        + RangeScan<i64, ()>
        + wft_api::BatchApply<i64, ()>
        + wft_obs::MetricsSource
        + 'static,
{
    fn insert(&self, key: i64) -> bool {
        PointMap::insert(self, key, ()).is_applied()
    }
    fn replace(&self, key: i64) -> bool {
        PointMap::replace(self, key, ()).displaced_existing()
    }
    fn remove(&self, key: i64) -> bool {
        PointMap::remove(self, &key).is_applied()
    }
    fn contains(&self, key: i64) -> bool {
        PointMap::contains(self, &key)
    }
    fn count(&self, min: i64, max: i64) -> u64 {
        RangeRead::count(self, RangeSpec::inclusive(min, max))
    }
    fn count_via_collect(&self, min: i64, max: i64) -> u64 {
        RangeRead::collect_range(self, RangeSpec::inclusive(min, max)).len() as u64
    }
    fn snapshot_count_pair(&self, a_min: i64, a_max: i64, b_min: i64, b_max: i64) -> (u64, u64) {
        let counts = SnapshotRead::snapshot_counts(
            self,
            &[
                RangeSpec::inclusive(a_min, a_max),
                RangeSpec::inclusive(b_min, b_max),
            ],
        );
        (counts[0], counts[1])
    }
    fn chunked_scan_count(&self, min: i64, max: i64, chunk: usize) -> (u64, bool) {
        let (entries, consistency) =
            RangeScan::scan_collect(self, RangeSpec::inclusive(min, max), chunk);
        (
            entries.len() as u64,
            consistency == ScanConsistency::Snapshot,
        )
    }
    fn chunked_scan_snapshot(&self, min: i64, max: i64, chunk: usize) -> Vec<i64> {
        RangeScan::scan_snapshot(self, RangeSpec::inclusive(min, max), chunk)
            .into_iter()
            .map(|(k, ())| k)
            .collect()
    }
    fn patch_toggle(&self, key: i64) -> bool {
        fn toggle(current: Option<()>) -> Option<()> {
            match current {
                Some(()) => None,
                None => Some(()),
            }
        }
        PointMap::patch(self, key, toggle).is_some()
    }
    fn cas_insert(&self, key: i64) -> bool {
        PointMap::compare_and_set(self, key, None, ())
    }
    fn batch_move(&self, a: i64, b: i64) -> (bool, bool) {
        let outcomes = wft_api::BatchApply::apply_batch(
            self,
            vec![
                wft_api::StoreOp::Remove { key: a },
                wft_api::StoreOp::Insert { key: b, value: () },
            ],
        )
        .expect("a two-distinct-key batch validates");
        match (&outcomes[0], &outcomes[1]) {
            (wft_api::OpOutcome::Removed(removed), wft_api::OpOutcome::Inserted(inserted)) => {
                (*removed, *inserted)
            }
            other => unreachable!("Remove/Insert yield Removed/Inserted, got {other:?}"),
        }
    }
    fn len(&self) -> u64 {
        PointMap::len(self)
    }
    fn metrics_snapshot(&self) -> wft_obs::MetricsSnapshot {
        let mut out = wft_obs::MetricsSnapshot::new();
        wft_obs::MetricsSource::collect_metrics(self, &mut out);
        out
    }
}

/// Selects one of the tree implementations under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TreeImpl {
    /// The paper's wait-free tree with the lock-free root queue.
    WaitFree,
    /// The wait-free tree with the wait-free root queue (Lemma 1).
    WaitFreeWfRoot,
    /// The persistent path-copying baseline (the paper's competitor).
    Persistent,
    /// The global-lock baseline.
    Locked,
    /// The lock-free external BST whose only range query is `collect`
    /// (linear-time counts — the prior-work class of §I-A).
    LockFreeLinear,
    /// The wait-free binary trie: the same helping scheme with bit-routing
    /// (the paper's §IV future-work item).
    Trie,
    /// The range-partitioned sharded store (`wft-store`): one wait-free
    /// tree per keyspace slice, one shard per harness thread.
    Sharded,
    /// The wait-free tree with reads forced through the descriptor path
    /// (`ReadPath::Descriptor`). Not part of [`TreeImpl::ALL`]: used by the
    /// linearizability suites (reads are checked under both forced read
    /// paths) and by the read-fast-path benchmark as the "before" side.
    WaitFreeDescReads,
    /// The wait-free trie with reads forced through the descriptor path;
    /// same role as [`TreeImpl::WaitFreeDescReads`].
    TrieDescReads,
    /// The sharded store with every shard's reads forced through the
    /// descriptor path. Not part of [`TreeImpl::ALL`]: used by the
    /// linearizability suites so cross-shard snapshot reads are checked
    /// under both per-shard read paths.
    ShardedDescReads,
    /// The crash-safe store (`wft-durable`): the sharded store behind a
    /// group-commit write-ahead log in a self-cleaning scratch directory.
    /// Not part of [`TreeImpl::ALL`] — every write pays an `fsync`, so it
    /// is benchmarked by the dedicated durability bench rather than
    /// alongside the in-memory structures.
    Durable,
    /// The crash-safe store over fault-injected storage: a
    /// [`wft_durable::FaultyStorage`] drizzles transient I/O errors over
    /// the WAL so harness runs exercise the retry/backoff path. Not part
    /// of [`TreeImpl::ALL`] — used by the chaos bench and soak suites.
    DurableFaulty,
}

impl TreeImpl {
    /// All implementations, in the order tables are printed.
    pub const ALL: [TreeImpl; 7] = [
        TreeImpl::WaitFree,
        TreeImpl::WaitFreeWfRoot,
        TreeImpl::Persistent,
        TreeImpl::Locked,
        TreeImpl::LockFreeLinear,
        TreeImpl::Trie,
        TreeImpl::Sharded,
    ];

    /// The implementations the paper itself evaluates (Figures 7–9).
    pub const PAPER: [TreeImpl; 2] = [TreeImpl::WaitFree, TreeImpl::Persistent];

    /// Short, stable display name used in tables and CSV.
    pub fn name(&self) -> &'static str {
        match self {
            TreeImpl::WaitFree => "wait-free-tree",
            TreeImpl::WaitFreeWfRoot => "wait-free-tree(wf-root)",
            TreeImpl::Persistent => "persistent-tree",
            TreeImpl::Locked => "locked-tree",
            TreeImpl::LockFreeLinear => "lock-free-bst(linear)",
            TreeImpl::Trie => "wait-free-trie",
            TreeImpl::Sharded => "sharded-store",
            TreeImpl::WaitFreeDescReads => "wait-free-tree(desc-reads)",
            TreeImpl::TrieDescReads => "wait-free-trie(desc-reads)",
            TreeImpl::ShardedDescReads => "sharded-store(desc-reads)",
            TreeImpl::Durable => "durable-store",
            TreeImpl::DurableFaulty => "durable-store(faulty)",
        }
    }

    /// `true` when the implementation's `replace` is a single linearizable
    /// operation. The lock-free linear baseline composes
    /// `remove` + `insert` (its class has no native upsert), so histories
    /// mixing `replace` with concurrent reads are not checked against it.
    pub fn replace_is_atomic(&self) -> bool {
        !matches!(self, TreeImpl::LockFreeLinear)
    }

    /// `true` when `apply_batch` commits all-or-nothing with respect to
    /// concurrent readers. The sharded store family publishes batches at
    /// the front behind a commit gate; the durable stores sequence every
    /// batch through the journal onto that same store. Single trees apply
    /// batch ops serially — a concurrent range read can land between two
    /// of them — so multi-key batch histories are only checked against the
    /// store family.
    pub fn batch_is_atomic(&self) -> bool {
        matches!(
            self,
            TreeImpl::Sharded
                | TreeImpl::ShardedDescReads
                | TreeImpl::Durable
                | TreeImpl::DurableFaulty
        )
    }

    /// `true` when `patch` / `compare_and_set` are single linearizable
    /// read-modify-writes. The store family routes both through its
    /// transactional single-op batch path (resolved under the commit gate
    /// or on the journal's sequencer thread); everything else inherits the
    /// `wft-api` get-then-write defaults, which lose updates under
    /// contention by design.
    pub fn patch_is_atomic(&self) -> bool {
        self.batch_is_atomic()
    }

    /// Instantiates the implementation pre-filled with `entries`.
    ///
    /// Every arm returns the structure as a `dyn ConcurrentSet` through the
    /// blanket impl over `PointMap` + `RangeRead` — there is no
    /// per-implementation adapter code to keep in sync.
    pub fn build(&self, entries: &[i64], max_threads: usize) -> Arc<dyn ConcurrentSet> {
        let pairs = entries.iter().map(|&k| (k, ()));
        match self {
            TreeImpl::WaitFree => Arc::new(WaitFreeTree::<i64>::from_entries_with_config(
                pairs,
                TreeConfig::default(),
            )),
            TreeImpl::WaitFreeWfRoot => {
                let config = TreeConfig {
                    root_queue: RootQueueKind::WaitFree {
                        slots: max_threads.max(1) * 2,
                    },
                    ..TreeConfig::default()
                };
                Arc::new(WaitFreeTree::<i64>::from_entries_with_config(pairs, config))
            }
            TreeImpl::Persistent => Arc::new(PersistentRangeTree::<i64>::from_entries(pairs)),
            TreeImpl::Locked => Arc::new(LockedRangeTree::<i64>::from_entries(pairs)),
            TreeImpl::LockFreeLinear => Arc::new(LockFreeBst::<i64>::from_entries(pairs)),
            TreeImpl::Trie => Arc::new(WaitFreeTrie::<i64>::from_entries(pairs)),
            TreeImpl::Sharded => {
                Arc::new(ShardedStore::<i64>::from_entries(pairs, max_threads.max(1)))
            }
            TreeImpl::WaitFreeDescReads => {
                let config = TreeConfig {
                    read_path: ReadPath::Descriptor,
                    ..TreeConfig::default()
                };
                Arc::new(WaitFreeTree::<i64>::from_entries_with_config(pairs, config))
            }
            TreeImpl::TrieDescReads => {
                let config = TreeConfig {
                    read_path: ReadPath::Descriptor,
                    ..TreeConfig::default()
                };
                Arc::new(WaitFreeTrie::<i64>::from_entries_with_config(pairs, config))
            }
            TreeImpl::ShardedDescReads => {
                let config = StoreConfig {
                    tree: TreeConfig {
                        read_path: ReadPath::Descriptor,
                        ..TreeConfig::default()
                    },
                    ..StoreConfig::default()
                };
                Arc::new(ShardedStore::<i64>::from_entries_with_config(
                    pairs,
                    max_threads.max(1),
                    config,
                ))
            }
            TreeImpl::Durable => {
                let scratch = ScratchDir::new("workload");
                let config = wft_durable::DurableConfig {
                    shards: max_threads.max(1),
                    ..wft_durable::DurableConfig::default()
                };
                let store = DurableStore::<i64>::open_with_config(scratch.path(), config)
                    .expect("opening durable store in scratch dir");
                store
                    .apply_durable(
                        entries
                            .iter()
                            .map(|&k| wft_api::StoreOp::Insert { key: k, value: () })
                            .collect(),
                    )
                    .expect("prefilling durable store");
                Arc::new(DurableSet {
                    store,
                    _scratch: scratch,
                })
            }
            TreeImpl::DurableFaulty => {
                let scratch = ScratchDir::new("workload-faulty");
                let config = wft_durable::DurableConfig {
                    shards: max_threads.max(1),
                    ..wft_durable::DurableConfig::default()
                };
                let faulty = FaultyStorage::over_fs();
                let store = DurableStore::<i64>::open_with_storage(
                    scratch.path(),
                    config,
                    Arc::new(faulty.clone()),
                )
                .expect("opening fault-injected durable store in scratch dir");
                store
                    .apply_durable(
                        entries
                            .iter()
                            .map(|&k| wft_api::StoreOp::Insert { key: k, value: () })
                            .collect(),
                    )
                    .expect("prefilling durable store");
                // Drizzle starts only after the prefill, so setup never
                // trips; from here every 64th storage op fails once
                // transiently and the journal's retry path absorbs it.
                faulty.every(64, std::io::ErrorKind::Interrupted);
                Arc::new(DurableSet {
                    store,
                    _scratch: scratch,
                })
            }
        }
    }
}

/// Keeps the scratch directory alive exactly as long as the durable store
/// built over it, so the WAL cleans itself up when the harness drops the
/// set. Delegates [`ConcurrentSet`] to the store's own blanket impl.
struct DurableSet {
    store: DurableStore<i64>,
    _scratch: ScratchDir,
}

impl ConcurrentSet for DurableSet {
    fn insert(&self, key: i64) -> bool {
        ConcurrentSet::insert(&self.store, key)
    }
    fn replace(&self, key: i64) -> bool {
        ConcurrentSet::replace(&self.store, key)
    }
    fn remove(&self, key: i64) -> bool {
        ConcurrentSet::remove(&self.store, key)
    }
    fn contains(&self, key: i64) -> bool {
        ConcurrentSet::contains(&self.store, key)
    }
    fn count(&self, min: i64, max: i64) -> u64 {
        ConcurrentSet::count(&self.store, min, max)
    }
    fn count_via_collect(&self, min: i64, max: i64) -> u64 {
        ConcurrentSet::count_via_collect(&self.store, min, max)
    }
    fn snapshot_count_pair(&self, a_min: i64, a_max: i64, b_min: i64, b_max: i64) -> (u64, u64) {
        ConcurrentSet::snapshot_count_pair(&self.store, a_min, a_max, b_min, b_max)
    }
    fn chunked_scan_count(&self, min: i64, max: i64, chunk: usize) -> (u64, bool) {
        ConcurrentSet::chunked_scan_count(&self.store, min, max, chunk)
    }
    fn chunked_scan_snapshot(&self, min: i64, max: i64, chunk: usize) -> Vec<i64> {
        ConcurrentSet::chunked_scan_snapshot(&self.store, min, max, chunk)
    }
    fn patch_toggle(&self, key: i64) -> bool {
        ConcurrentSet::patch_toggle(&self.store, key)
    }
    fn cas_insert(&self, key: i64) -> bool {
        ConcurrentSet::cas_insert(&self.store, key)
    }
    fn batch_move(&self, a: i64, b: i64) -> (bool, bool) {
        ConcurrentSet::batch_move(&self.store, a, b)
    }
    fn len(&self) -> u64 {
        ConcurrentSet::len(&self.store)
    }
    fn metrics_snapshot(&self) -> wft_obs::MetricsSnapshot {
        ConcurrentSet::metrics_snapshot(&self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(set: &dyn ConcurrentSet) {
        assert!(set.insert(1_000_001));
        assert!(!set.insert(1_000_001));
        assert!(set.contains(1_000_001));
        assert!(set.replace(1_000_001), "replace of a present key overwrote");
        assert!(set.remove(1_000_001));
        assert!(!set.remove(1_000_001));
        assert!(!set.replace(1_000_002), "replace of an absent key inserted");
        assert!(set.remove(1_000_002));
        assert_eq!(set.count(0, 9), 10);
        assert_eq!(set.count_via_collect(0, 9), 10);
        assert_eq!(set.count(9, 0), 0, "inverted range counts zero");
        assert_eq!(set.count_via_collect(9, 0), 0);
        // Streaming scans: a chunked drain covers the same range, and the
        // retrying driver produces the full sorted listing.
        let (scanned, _snapshot) = set.chunked_scan_count(0, 99, 7);
        assert_eq!(scanned, 100);
        assert_eq!(
            set.chunked_scan_snapshot(10, 19, 3),
            (10..=19).collect::<Vec<_>>()
        );
        assert!(set.chunked_scan_snapshot(9, 0, 4).is_empty());
        // The transactional surface: cas-insert, toggle, atomic move.
        assert!(set.cas_insert(1_000_003), "absent key cas-inserts");
        assert!(!set.cas_insert(1_000_003), "present key misses expect=None");
        assert!(!set.patch_toggle(1_000_003), "toggle removes a present key");
        assert!(
            set.patch_toggle(1_000_003),
            "toggle re-inserts an absent key"
        );
        assert_eq!(set.batch_move(1_000_003, 1_000_004), (true, true));
        assert_eq!(set.batch_move(1_000_003, 1_000_004), (false, false));
        assert!(set.remove(1_000_004));
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn all_implementations_expose_identical_behaviour() {
        let prefill: Vec<i64> = (0..100).collect();
        for imp in TreeImpl::ALL {
            let set = imp.build(&prefill, 4);
            exercise(set.as_ref());
        }
    }

    #[test]
    fn durable_store_speaks_the_harness_interface() {
        let prefill: Vec<i64> = (0..100).collect();
        let set = TreeImpl::Durable.build(&prefill, 2);
        exercise(set.as_ref());
        let metrics = set.metrics_snapshot();
        assert!(
            metrics.counter("durable_wal_appends").unwrap_or(0) > 0,
            "durable writes go through the log"
        );
    }

    #[test]
    fn faulty_durable_store_absorbs_the_drizzle() {
        let prefill: Vec<i64> = (0..100).collect();
        let set = TreeImpl::DurableFaulty.build(&prefill, 2);
        exercise(set.as_ref());
        // Enough writes to guarantee several periodic faults fire.
        for k in 2_000..2_400 {
            assert!(set.insert(k));
        }
        let metrics = set.metrics_snapshot();
        assert!(
            metrics.counter("durable_io_retries").unwrap_or(0) > 0,
            "the drizzle was really injected and retried"
        );
        assert_eq!(
            metrics.gauge("durable_degraded"),
            Some(0),
            "transient faults never degrade the store"
        );
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = TreeImpl::ALL.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TreeImpl::ALL.len());
    }
}
