//! The trie instantiation of `wft-core`'s tree: the [`Bits`] routing policy
//! and the [`WaitFreeTrie`] alias.

use wft_core::node::{IdAllocator, NodeId};
use wft_core::{Augmentation, Routing, Size, SlotAt, Step, Timestamp, Value, WaitFreeTree};

use crate::key::TrieKey;
use crate::node::{build_divergence_chain, build_subtrie, Coverage, Overlap, TrieNode};

/// Bit routing: a node branches on one bit of the key's order-preserving
/// 64-bit index ([`TrieKey`]), so its subtree covers a fixed key interval.
///
/// * the route record is the node's [`Coverage`];
/// * range walks classify each child's coverage against the query (skip,
///   absorb or descend) and so record no per-node modes in the descriptor;
/// * an insertion that lands on an occupied leaf installs a *divergence
///   chain* down to the first differing bit;
/// * nothing is ever rebuilt: the depth is bounded by the key width, so
///   every bound is worst-case rather than amortized.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bits;

impl<K: TrieKey> Routing<K> for Bits {
    type Route = Coverage;
    type Mode = ();
    type Modes = ();
    const METRICS_PREFIX: &'static str = "trie";

    fn goes_right(route: &Coverage, key: &K) -> bool {
        route.goes_right(key.to_index())
    }

    fn root_mode(_: K, _: K) {}

    fn split(route: &Coverage, _: (), min: &K, max: &K) -> [Step<()>; 2] {
        let (min, max) = (min.to_index(), max.to_index());
        [false, true].map(|right| match route.child(right).classify(min, max) {
            Overlap::Disjoint => Step::Skip,
            Overlap::Contained => Step::Absorb,
            Overlap::Partial => Step::Descend(()),
        })
    }

    fn record_mode(_: &(), _: NodeId, _: ()) {}

    fn mode_at(_: &(), _: NodeId) {}

    fn rebuild_size(_: &Coverage) -> Option<u64> {
        None
    }

    fn build<V: Value, A: Augmentation<K, V>>(
        at: SlotAt<'_, Coverage>,
        entries: &[(K, V)],
        watermark: Timestamp,
        ids: &IdAllocator,
    ) -> (TrieNode<K, V, A>, A::Agg) {
        build_subtrie(entries, slot_coverage(at), watermark, ids)
    }

    fn split_leaf<V: Value, A: Augmentation<K, V>>(
        at: SlotAt<'_, Coverage>,
        old: (K, V),
        new: (K, V),
        ts: Timestamp,
        ids: &IdAllocator,
    ) -> TrieNode<K, V, A> {
        build_divergence_chain(old, new, slot_coverage(at), ts, ids)
    }

    fn check_route<V: Value>(
        at: SlotAt<'_, Coverage>,
        route: &Coverage,
        left: &[(K, V)],
        right: &[(K, V)],
    ) {
        assert_eq!(
            *route,
            slot_coverage(at),
            "inner node coverage disagrees with its position"
        );
        for (side, entries) in [(false, left), (true, right)] {
            let coverage = route.child(side);
            for (key, _) in entries {
                assert!(
                    coverage.contains(key.to_index()),
                    "leaf key {key:?} outside its coverage {coverage:?}"
                );
            }
        }
    }
}

/// The coverage of the child slot `at`.
fn slot_coverage(at: SlotAt<'_, Coverage>) -> Coverage {
    at.map_or(Coverage::ROOT, |(parent, right)| parent.child(right))
}

/// A linearizable concurrent ordered map over fixed-width integer keys with
/// wait-free operations and aggregate range queries in `O(W + |P|)` time
/// (where `W` is the key width in bits): `wft-core`'s [`WaitFreeTree`] with
/// [`Bits`] routing.
///
/// Everything but the routing — descriptors, helping, the fast read paths,
/// the timestamp front, the `wft-api` impls, [`wft_core::TreeConfig`] and
/// [`wft_core::TreeStats`] — is the tree's; metrics carry the `trie_`
/// prefix.
///
/// # Example
///
/// ```
/// use wft_trie::WaitFreeTrie;
///
/// let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
/// trie.insert(10, ());
/// trie.insert(500, ());
/// trie.insert(2_000, ());
/// assert!(trie.contains(&500));
/// assert_eq!(trie.count(0, 1_000), 2);
/// trie.remove(&10);
/// assert_eq!(trie.count(0, 1_000), 1);
/// ```
pub type WaitFreeTrie<K, V = (), A = Size> = WaitFreeTree<K, V, A, Bits>;

#[cfg(test)]
mod tests {
    //! The trie's own behaviour, plus the test bodies it shares with the
    //! BST: each generic body runs once per routing policy.

    use super::*;
    use wft_api::{OpOutcome, StoreOp};
    use wft_core::{
        BatchApply, Bst, PointMap, RangeRead, RangeSpec, ReadPath, TreeConfig, UpdateOutcome,
    };

    #[test]
    fn empty_trie_properties() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        assert!(trie.is_empty());
        assert_eq!(trie.len(), 0);
        assert!(!trie.contains(&1));
        assert_eq!(trie.count(0, u64::MAX), 0);
        assert!(trie.collect_range(0, u64::MAX).is_empty());
        assert!(!trie.remove(&1));
        trie.check_invariants();
    }

    #[test]
    fn single_thread_roundtrip() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        assert!(trie.insert(5, ()));
        assert!(!trie.insert(5, ()));
        assert!(trie.insert(1, ()));
        assert!(trie.insert(1_000_000, ()));
        assert_eq!(trie.len(), 3);
        assert!(trie.contains(&5));
        assert!(trie.contains(&1));
        assert!(trie.contains(&1_000_000));
        assert!(!trie.contains(&2));
        assert!(trie.remove(&5));
        assert!(!trie.remove(&5));
        assert_eq!(trie.len(), 2);
        trie.check_invariants();
    }

    #[test]
    fn signed_keys_work_end_to_end() {
        let trie: WaitFreeTrie<i64> = WaitFreeTrie::new();
        for k in [-100i64, -1, 0, 1, 100, i64::MIN, i64::MAX] {
            assert!(trie.insert(k, ()));
        }
        assert_eq!(trie.count(i64::MIN, i64::MAX), 7);
        assert_eq!(trie.count(-100, 100), 5);
        assert_eq!(trie.count(-1, 0), 2);
        assert_eq!(
            trie.collect_range(-100, 1)
                .into_iter()
                .map(|(k, _)| k)
                .collect::<Vec<_>>(),
            vec![-100, -1, 0, 1]
        );
        trie.check_invariants();
    }

    #[test]
    fn count_and_collect_agree() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        for k in (0..300u64).step_by(3) {
            trie.insert(k, ());
        }
        for (min, max) in [(0, 299), (10, 50), (0, 5), (150, 400), (60, 60), (7, 3)] {
            assert_eq!(
                trie.count(min, max),
                trie.collect_range(min, max).len() as u64,
                "range [{min}, {max}]"
            );
        }
        trie.check_invariants();
    }

    #[test]
    fn values_are_returned() {
        let trie: WaitFreeTrie<u64, String> = WaitFreeTrie::new();
        assert!(trie.insert(1, "one".into()));
        assert!(!trie.insert(1, "uno".into()));
        assert_eq!(trie.get(&1), Some("one".to_string()));
        assert_eq!(trie.remove_entry(&1), Some("one".to_string()));
        assert_eq!(trie.remove_entry(&1), None);
    }

    #[test]
    fn range_sum_augmentation() {
        use wft_core::Sum;
        let trie: WaitFreeTrie<u64, u64, Sum> = WaitFreeTrie::new();
        for k in 1..=10u64 {
            trie.insert(k, k * 10);
        }
        assert_eq!(trie.range_agg(1, 10), 550);
        assert_eq!(trie.range_agg(3, 5), 120);
        trie.remove(&4);
        assert_eq!(trie.range_agg(3, 5), 80);
        trie.check_invariants();
    }

    #[test]
    fn adjacent_keys_build_long_chains_correctly() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        // Keys differing only in the lowest bits force the deepest chains.
        for k in 0..64u64 {
            assert!(trie.insert(k, ()));
        }
        assert_eq!(trie.count(0, 63), 64);
        for k in 0..64u64 {
            assert!(trie.contains(&k), "key {k}");
        }
        for k in (0..64u64).step_by(2) {
            assert!(trie.remove(&k));
        }
        assert_eq!(trie.count(0, 63), 32);
        trie.check_invariants();
    }

    fn read_paths_agree<R: Routing<i64>>() {
        let fast_cfg = TreeConfig::default();
        let desc_cfg = TreeConfig {
            read_path: ReadPath::Descriptor,
            ..TreeConfig::default()
        };
        assert_eq!(fast_cfg.read_path, ReadPath::Fast, "fast is the default");
        let entries: Vec<(i64, i64)> = (0..300).step_by(3).map(|k| (k, k * 10)).collect();
        let fast: WaitFreeTree<i64, i64, Size, R> =
            WaitFreeTree::from_entries_with_config(entries.clone(), fast_cfg);
        let desc: WaitFreeTree<i64, i64, Size, R> =
            WaitFreeTree::from_entries_with_config(entries, desc_cfg);
        for tree in [&fast, &desc] {
            tree.insert(1, 11);
            tree.remove(&3);
            tree.insert_or_replace(6, -60);
        }
        for k in [-1, 0, 1, 2, 3, 6, 9, 298, 299, 500] {
            assert_eq!(fast.get(&k), desc.get(&k), "get({k})");
            assert_eq!(fast.contains(&k), desc.contains(&k), "contains({k})");
        }
        for (min, max) in [(0, 299), (10, 50), (-5, 4), (200, 600), (7, 7), (9, 3)] {
            assert_eq!(
                fast.count(min, max),
                desc.count(min, max),
                "count [{min},{max}]"
            );
            assert_eq!(
                fast.collect_range(min, max),
                desc.collect_range(min, max),
                "collect [{min},{max}]"
            );
        }
        let stats = fast.stats();
        assert!(stats.fast_point_reads > 0);
        assert!(stats.fast_range_hits > 0, "quiescent range reads validate");
        assert_eq!(desc.stats().fast_point_reads, 0);
        fast.check_invariants();
        desc.check_invariants();
    }

    #[test]
    fn both_read_paths_answer_identically() {
        read_paths_agree::<Bits>();
    }

    #[test]
    fn both_read_paths_answer_identically_single_thread() {
        read_paths_agree::<Bst>();
    }

    fn front_tracks_updates<R: Routing<i64>>() {
        let tree: WaitFreeTree<i64, (), Size, R> = WaitFreeTree::new();
        assert_eq!(tree.stable_ts(), Timestamp::ZERO);
        let front = tree.settle_front();
        assert!(tree.front_unchanged(front));

        tree.insert(1, ());
        assert!(!tree.front_unchanged(front), "an update advances the front");
        // Failed updates linearize too (they occupy a timestamp).
        let front = tree.settle_front();
        tree.insert(1, ());
        assert!(!tree.front_unchanged(front));
        // Read-only operations never advance the front.
        let front = tree.settle_front();
        tree.contains(&1);
        tree.count(0, 10);
        tree.collect_range(0, 10);
        assert!(tree.front_unchanged(front), "reads never advance the front");
        assert_eq!(tree.stable_ts(), tree.advertised_ts());
        assert_eq!(tree.range_agg_at_front(0, 10, front), Some(1));
        tree.remove(&1);
        assert_eq!(tree.range_agg_at_front(0, 10, front), None, "front expired");
        assert_eq!(
            tree.collect_range_at_front(0, 10, tree.settle_front()),
            Some(vec![])
        );
    }

    #[test]
    fn timestamp_front_tracks_updates() {
        front_tracks_updates::<Bits>();
    }

    #[test]
    fn timestamp_front_tracks_updates_in_the_bst() {
        front_tracks_updates::<Bst>();
    }

    fn upserts_are_single_updates<R: Routing<i64>>() {
        let tree: WaitFreeTree<i64, String, Size, R> = WaitFreeTree::new();
        assert_eq!(tree.insert_or_replace(1, "one".into()), None);
        assert_eq!(tree.len(), 1);
        assert_eq!(
            tree.insert_or_replace(1, "uno".into()),
            Some("one".to_string())
        );
        assert_eq!(tree.len(), 1, "an overwrite must not change the length");
        assert_eq!(tree.get(&1), Some("uno".to_string()));
        // Replacing keeps the size augmentation consistent.
        assert_eq!(tree.range_agg(0, 10), 1);
        assert_eq!(tree.remove_entry(&1), Some("uno".to_string()));
        assert_eq!(tree.insert_or_replace(1, "ein".into()), None);
        assert_eq!(tree.stats().replaces, 3);
        tree.check_invariants();
    }

    #[test]
    fn insert_or_replace_upserts_atomically() {
        upserts_are_single_updates::<Bits>();
    }

    #[test]
    fn insert_or_replace_single_thread() {
        upserts_are_single_updates::<Bst>();
    }

    fn bulk_build_works<R: Routing<i64>>() {
        let tree: WaitFreeTree<i64, i64, Size, R> =
            WaitFreeTree::from_entries((0..1000).map(|k| (k, k * 2)));
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.get(&500), Some(1000));
        assert!(!tree.insert(500, 0), "prefilled keys are present");
        assert!(tree.remove(&500));
        assert_eq!(tree.len(), 999);
        assert_eq!(tree.count(0, 999), 999);
        tree.check_invariants();
    }

    #[test]
    fn from_entries_builds_working_trie() {
        bulk_build_works::<Bits>();
    }

    #[test]
    fn from_entries_builds_working_tree() {
        bulk_build_works::<Bst>();
    }

    fn stats_count_updates<R: Routing<i64>>() {
        let tree: WaitFreeTree<i64, (), Size, R> = WaitFreeTree::new();
        tree.insert(1, ());
        tree.insert(1, ());
        tree.insert(2, ());
        tree.remove(&1);
        tree.remove(&3);
        let stats = tree.stats();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.removes, 1);
        assert_eq!(stats.failed_updates, 2);
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn stats_track_updates_and_len() {
        stats_count_updates::<Bits>();
    }

    #[test]
    fn stats_track_updates() {
        stats_count_updates::<Bst>();
    }

    #[test]
    fn trait_surface_matches_inherent_semantics() {
        let trie: WaitFreeTrie<u64, u64> = WaitFreeTrie::new();
        assert!(PointMap::insert(&trie, 1, 10).is_applied());
        assert_eq!(
            PointMap::replace(&trie, 1, 11),
            UpdateOutcome::Applied { prior: Some(10) }
        );
        assert_eq!(RangeRead::count(&trie, RangeSpec::all()), 1);
        assert_eq!(RangeRead::count(&trie, RangeSpec::inclusive(9, 3)), 0);
        let outcomes = trie
            .apply_batch(vec![StoreOp::InsertOrReplace { key: 1, value: 12 }])
            .unwrap();
        assert_eq!(outcomes, vec![OpOutcome::Replaced(Some(11))]);
    }

    #[test]
    fn metrics_carry_the_trie_prefix() {
        use wft_obs::MetricsSource;
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::from_entries([(1, ()), (2, ())]);
        let mut snapshot = wft_obs::MetricsSnapshot::default();
        trie.collect_metrics(&mut snapshot);
        assert_eq!(snapshot.gauge("trie_len"), Some(2));
        assert_eq!(snapshot.counter("trie_inserts"), Some(0));
        assert_eq!(snapshot.counter("tree_inserts"), None);
    }
}
