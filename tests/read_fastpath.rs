//! The read fast paths against their oracles.
//!
//! PR 3 gave the descriptor trees a two-tier read path: `get`/`contains`
//! answered in `O(1)` from the presence index, and `count`/`range_agg`/
//! `collect_range` answered by an optimistic validated traversal with
//! descriptor fallback. These tests pin the fast paths to three oracles:
//!
//! * a `BTreeMap` replaying the same operation sequence (sequential
//!   proptest, random op interleavings);
//! * the descriptor read path itself (`ReadPath::Descriptor`), fed the same
//!   operations;
//! * under real concurrency, per-thread private key ranges in which every
//!   fast read must be exact, plus whole-tree conservation once quiescent
//!   (the linearizability checker covers the adversarial histories in
//!   `tests/linearizability.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wait_free_range_trees::prelude::*;

fn desc_config() -> TreeConfig {
    TreeConfig {
        read_path: ReadPath::Descriptor,
        ..TreeConfig::default()
    }
}

/// One step of the sequential oracle workload.
#[derive(Debug, Clone)]
enum Step {
    Insert(i64, i64),
    Replace(i64, i64),
    Remove(i64),
    Get(i64),
    Contains(i64),
    Count(i64, i64),
    Collect(i64, i64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let key = -40i64..40;
    prop_oneof![
        (key.clone(), any::<i64>()).prop_map(|(k, v)| Step::Insert(k, v)),
        (key.clone(), any::<i64>()).prop_map(|(k, v)| Step::Replace(k, v)),
        key.clone().prop_map(Step::Remove),
        key.clone().prop_map(Step::Get),
        key.clone().prop_map(Step::Contains),
        (key.clone(), key.clone()).prop_map(|(a, b)| Step::Count(a, b)),
        (key.clone(), key).prop_map(|(a, b)| Step::Collect(a, b)),
    ]
}

proptest! {
    /// Fast-path reads agree with both the descriptor path and `BTreeMap`
    /// over random operation sequences.
    #[test]
    fn fast_reads_agree_with_descriptor_path_and_btreemap(
        steps in proptest::collection::vec(step_strategy(), 1..120)
    ) {
        let fast: WaitFreeTree<i64, i64> = WaitFreeTree::new();
        let desc: WaitFreeTree<i64, i64> = WaitFreeTree::with_config(desc_config());
        let mut oracle = std::collections::BTreeMap::new();
        for step in &steps {
            match *step {
                Step::Insert(k, v) => {
                    let expect = !oracle.contains_key(&k);
                    if expect {
                        oracle.insert(k, v);
                    }
                    prop_assert_eq!(fast.insert(k, v), expect);
                    prop_assert_eq!(desc.insert(k, v), expect);
                }
                Step::Replace(k, v) => {
                    let expect = oracle.insert(k, v);
                    prop_assert_eq!(fast.insert_or_replace(k, v), expect);
                    prop_assert_eq!(desc.insert_or_replace(k, v), expect);
                }
                Step::Remove(k) => {
                    let expect = oracle.remove(&k);
                    prop_assert_eq!(fast.remove_entry(&k), expect);
                    prop_assert_eq!(desc.remove_entry(&k), expect);
                }
                Step::Get(k) => {
                    let expect = oracle.get(&k).copied();
                    prop_assert_eq!(fast.get(&k), expect);
                    prop_assert_eq!(desc.get(&k), expect);
                }
                Step::Contains(k) => {
                    let expect = oracle.contains_key(&k);
                    prop_assert_eq!(fast.contains(&k), expect);
                    prop_assert_eq!(desc.contains(&k), expect);
                }
                Step::Count(a, b) => {
                    let expect = if a > b {
                        0
                    } else {
                        oracle.range(a..=b).count() as u64
                    };
                    prop_assert_eq!(fast.count(a, b), expect, "count [{}, {}]", a, b);
                    prop_assert_eq!(desc.count(a, b), expect);
                }
                Step::Collect(a, b) => {
                    let expect: Vec<(i64, i64)> = if a > b {
                        Vec::new()
                    } else {
                        oracle.range(a..=b).map(|(k, v)| (*k, *v)).collect()
                    };
                    prop_assert_eq!(fast.collect_range(a, b), expect.clone());
                    prop_assert_eq!(desc.collect_range(a, b), expect);
                }
            }
        }
        fast.check_invariants();
        desc.check_invariants();
    }
}

/// Under concurrency, a thread that is the only writer of its key range
/// must observe exact fast-path reads over that range, for both read paths;
/// once quiescent, both paths agree globally.
#[test]
fn private_range_reads_are_exact_under_both_paths() {
    const THREADS: i64 = 4;
    const RANGE: i64 = 300;
    const STEPS: usize = 800;
    for read_path in [ReadPath::Fast, ReadPath::Descriptor] {
        let tree: Arc<WaitFreeTree<i64, i64>> = Arc::new(WaitFreeTree::with_config(TreeConfig {
            read_path,
            ..TreeConfig::default()
        }));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let lo = t * RANGE;
                    let hi = lo + RANGE - 1;
                    let mut rng = StdRng::seed_from_u64(0xFA57 + t as u64);
                    let mut mine = std::collections::BTreeMap::new();
                    for _ in 0..STEPS {
                        let k = lo + rng.gen_range(0..RANGE);
                        match rng.gen_range(0..6) {
                            0 | 1 => {
                                let v = rng.gen::<i64>();
                                assert_eq!(tree.insert(k, v), !mine.contains_key(&k));
                                mine.entry(k).or_insert(v);
                            }
                            2 => {
                                assert_eq!(tree.remove_entry(&k), mine.remove(&k));
                            }
                            3 => {
                                assert_eq!(tree.get(&k), mine.get(&k).copied());
                                assert_eq!(tree.contains(&k), mine.contains_key(&k));
                            }
                            _ => {
                                let a = lo + rng.gen_range(0..RANGE);
                                let b = (a + rng.gen_range(0..RANGE / 4)).min(hi);
                                assert_eq!(
                                    tree.count(a, b),
                                    mine.range(a..=b).count() as u64,
                                    "private count [{a}, {b}]"
                                );
                            }
                        }
                    }
                    mine.len() as u64
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(tree.len(), total);
        assert_eq!(tree.count(i64::MIN, i64::MAX), total);
        assert_eq!(tree.collect_range(i64::MIN, i64::MAX).len() as u64, total);
        tree.check_invariants();
    }
}

/// Fast range reads stay monotone in an insert-only workload (the same
/// consistency bound the descriptor path is held to), and the fast-path
/// counters actually record hits under write contention.
#[test]
fn fast_range_reads_are_monotone_during_inserts() {
    const PER_THREAD: i64 = 1_200;
    const WRITERS: i64 = 3;
    let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::new());
    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    tree.insert(t * PER_THREAD + i, ());
                }
            })
        })
        .collect();
    let reader = {
        let tree = Arc::clone(&tree);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last = 0u64;
            while !done.load(Ordering::Relaxed) {
                let n = tree.count(i64::MIN, i64::MAX);
                assert!(
                    n >= last,
                    "fast count went backwards ({last} -> {n}) in an insert-only workload"
                );
                last = n;
            }
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    let stats = tree.stats();
    assert!(
        stats.fast_range_hits + stats.range_fallbacks > 0,
        "the reader must have exercised the fast path dispatch"
    );
    assert_eq!(
        tree.count(i64::MIN, i64::MAX),
        (WRITERS * PER_THREAD) as u64
    );
    tree.check_invariants();
}

/// The trie mirror: fast and descriptor paths agree against a `BTreeMap`
/// replay, single-threaded.
#[test]
fn trie_fast_reads_agree_with_descriptor_path() {
    let fast: WaitFreeTrie<u64, u64> = WaitFreeTrie::new();
    let desc: WaitFreeTrie<u64, u64> = WaitFreeTrie::with_config(TreeConfig {
        read_path: ReadPath::Descriptor,
        ..TreeConfig::default()
    });
    let mut oracle = std::collections::BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0x7121E);
    for _ in 0..2_000 {
        let k = rng.gen_range(0..128u64);
        match rng.gen_range(0..6) {
            0 | 1 => {
                let v = rng.gen::<u64>();
                let expect = !oracle.contains_key(&k);
                if expect {
                    oracle.insert(k, v);
                }
                assert_eq!(fast.insert(k, v), expect);
                assert_eq!(desc.insert(k, v), expect);
            }
            2 => {
                let expect = oracle.remove(&k);
                assert_eq!(fast.remove_entry(&k), expect);
                assert_eq!(desc.remove_entry(&k), expect);
            }
            3 => {
                assert_eq!(fast.get(&k), oracle.get(&k).copied());
                assert_eq!(fast.contains(&k), oracle.contains_key(&k));
            }
            _ => {
                let a = rng.gen_range(0..128u64);
                let b = a + rng.gen_range(0..32u64);
                let expect = oracle.range(a..=b).count() as u64;
                assert_eq!(fast.count(a, b), expect);
                assert_eq!(desc.count(a, b), expect);
            }
        }
    }
    fast.check_invariants();
    desc.check_invariants();
}
