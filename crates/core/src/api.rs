//! [`wft_api`] trait implementations for [`WaitFreeTree`].
//!
//! The wait-free tree is the reference implementation of the trait family:
//! every update maps to exactly one descriptor (including
//! [`PointMap::replace`] → [`crate::OpKind::Replace`]), range reads resolve
//! their [`RangeSpec`] once and answer with the native closed-interval
//! query, and batches run through the shared serial phase-two helper (a
//! single tree has one root queue — there is nothing to fan out over).
//! Every routing policy shares these impls.

use wft_api::{
    apply_batch_point, BatchApply, BatchError, ChunkRead, FrontScanCursor, OpOutcome, PointMap,
    RangeKey, RangeRead, RangeScan, RangeSpec, StoreOp, TimestampFront, UpdateOutcome,
};
use wft_seq::{Augmentation, Key, Value};

use crate::routing::Routing;
use crate::tree::WaitFreeTree;

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> PointMap<K, V>
    for WaitFreeTree<K, V, A, R>
{
    fn insert(&self, key: K, value: V) -> UpdateOutcome<V> {
        let (op, _ts) = self.run_operation(crate::OpKind::Insert { key, value });
        let decision = op.resolved_decision();
        if decision.success {
            UpdateOutcome::Applied { prior: None }
        } else {
            UpdateOutcome::Unchanged {
                current: decision.prior_value.clone(),
            }
        }
    }

    fn replace(&self, key: K, value: V) -> UpdateOutcome<V> {
        UpdateOutcome::Applied {
            prior: self.insert_or_replace(key, value),
        }
    }

    fn remove(&self, key: &K) -> UpdateOutcome<V> {
        let (op, _ts) = self.run_operation(crate::OpKind::Remove { key: *key });
        let decision = op.resolved_decision();
        if decision.success {
            UpdateOutcome::Applied {
                prior: decision.prior_value.clone(),
            }
        } else {
            UpdateOutcome::Unchanged { current: None }
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        WaitFreeTree::get(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        // Presence-only: `O(1)` on the fast read path and never clones the
        // value, unlike the trait's `get(key).is_some()` default.
        WaitFreeTree::contains(self, key)
    }

    fn len(&self) -> u64 {
        WaitFreeTree::len(self)
    }
}

impl<K: RangeKey, V: Value, A: Augmentation<K, V>, R: Routing<K>> RangeRead<K, V>
    for WaitFreeTree<K, V, A, R>
{
    type Agg = A::Agg;

    fn range_agg(&self, range: RangeSpec<K>) -> A::Agg {
        wft_api::agg_over(range, A::identity, |min, max| {
            WaitFreeTree::range_agg(self, min, max)
        })
    }

    fn count(&self, range: RangeSpec<K>) -> u64 {
        wft_api::count_over(
            range,
            |min, max| WaitFreeTree::range_agg(self, min, max),
            A::count_of,
            |min, max| WaitFreeTree::collect_range(self, min, max).len() as u64,
        )
    }

    fn collect_range(&self, range: RangeSpec<K>) -> Vec<(K, V)> {
        wft_api::collect_over(range, |min, max| {
            WaitFreeTree::collect_range(self, min, max)
        })
    }
}

/// The tree's chunk primitive is the limit-bounded optimistic collect:
/// `O(log N + limit)` per chunk on the fast path (early exit after `limit`
/// leaves, counted in [`crate::TreeStats::fast_range_early_exits`]), with
/// the descriptor fallback preserved.
impl<K: RangeKey, V: Value, A: Augmentation<K, V>, R: Routing<K>> ChunkRead<K, V>
    for WaitFreeTree<K, V, A, R>
{
    fn collect_chunk(&self, min: K, max: K, limit: usize) -> Vec<(K, V)> {
        WaitFreeTree::collect_range_limited(self, min, max, limit)
    }
}

/// Streaming scans: the tree's cursor is the shared front-sandwiched
/// [`FrontScanCursor`] over the chunk primitive above — the scan logic
/// lives once in `wft-api`, this impl only hands the cursor out.
impl<K: RangeKey, V: Value, A: Augmentation<K, V>, R: Routing<K>> RangeScan<K, V>
    for WaitFreeTree<K, V, A, R>
{
    type Cursor<'a>
        = FrontScanCursor<'a, Self, K, V>
    where
        Self: 'a;

    fn scan(&self, range: RangeSpec<K>) -> FrontScanCursor<'_, Self, K, V> {
        FrontScanCursor::new(self, range)
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> BatchApply<K, V>
    for WaitFreeTree<K, V, A, R>
{
    fn apply_batch(&self, batch: Vec<StoreOp<K, V>>) -> Result<Vec<OpOutcome<V>>, BatchError<K>> {
        apply_batch_point(self, batch)
    }
}

/// Opts into the blanket `SnapshotRead`: plain reads here are
/// validation-free linearizable queries, so the blanket's sandwich is the
/// single validation layer.
impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> wft_api::FrontSnapshot
    for WaitFreeTree<K, V, A, R>
{
}

/// The tree's snapshot front is its root-queue timestamp front: the
/// watermarks maintained at update resolution (see
/// [`WaitFreeTree::stable_ts`]). With this impl in place the blanket
/// [`wft_api::SnapshotRead`] applies: the tree supports consistent
/// multi-range reads against one acquired front.
impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> TimestampFront
    for WaitFreeTree<K, V, A, R>
{
    fn settle_front(&self) -> u64 {
        WaitFreeTree::settle_front(self).get()
    }

    fn front_advertised(&self) -> u64 {
        self.advertised_ts().get()
    }

    fn front_resolved(&self) -> u64 {
        self.stable_ts().get()
    }
}

/// Mirrors the tree's operational counters ([`WaitFreeTree::stats`]) plus
/// its size into the `wft-obs` metrics vocabulary under the routing
/// policy's prefix (`tree_` for the BST, `trie_` for bit routing). The
/// `TreeCounters` atomics stay the single source of truth — this impl
/// reads the same cells the legacy `stats()` API reads, so the two views
/// can never drift.
impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> wft_obs::MetricsSource
    for WaitFreeTree<K, V, A, R>
{
    fn collect_metrics(&self, out: &mut wft_obs::MetricsSnapshot) {
        self.stats().collect_into(R::METRICS_PREFIX, out);
        out.push_gauge(format!("{}_len", R::METRICS_PREFIX), self.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wft_seq::Size;

    #[test]
    fn point_map_outcomes_are_typed() {
        let tree: WaitFreeTree<i64, i64> = WaitFreeTree::new();
        assert_eq!(
            PointMap::insert(&tree, 1, 10),
            UpdateOutcome::Applied { prior: None }
        );
        assert_eq!(
            PointMap::insert(&tree, 1, 11),
            UpdateOutcome::Unchanged { current: Some(10) }
        );
        assert_eq!(
            PointMap::replace(&tree, 1, 12),
            UpdateOutcome::Applied { prior: Some(10) }
        );
        assert_eq!(
            PointMap::remove(&tree, &1),
            UpdateOutcome::Applied { prior: Some(12) }
        );
        assert_eq!(
            PointMap::remove(&tree, &1),
            UpdateOutcome::Unchanged { current: None }
        );
    }

    #[test]
    fn range_read_resolves_specs() {
        let tree: WaitFreeTree<i64, (), Size> =
            WaitFreeTree::from_entries((0..10).map(|k| (k, ())));
        assert_eq!(RangeRead::count(&tree, RangeSpec::from_bounds(2..5)), 3);
        assert_eq!(RangeRead::count(&tree, RangeSpec::all()), 10);
        assert_eq!(RangeRead::count(&tree, RangeSpec::inclusive(5, 2)), 0);
        assert_eq!(RangeRead::range_agg(&tree, RangeSpec::at_least(7)), 3);
        assert!(RangeRead::collect_range(&tree, RangeSpec::from_bounds(4..4)).is_empty());
    }

    #[test]
    fn single_tree_accepts_batches() {
        let tree: WaitFreeTree<i64, i64> = WaitFreeTree::new();
        let outcomes = tree
            .apply_batch(vec![
                StoreOp::Insert { key: 1, value: 10 },
                StoreOp::InsertOrReplace { key: 2, value: 20 },
                StoreOp::Remove { key: 3 },
            ])
            .unwrap();
        assert_eq!(
            outcomes,
            vec![
                OpOutcome::Inserted(true),
                OpOutcome::Replaced(None),
                OpOutcome::Removed(false),
            ]
        );
        let err = tree
            .apply_batch(vec![
                StoreOp::Remove { key: 1 },
                StoreOp::RemoveEntry { key: 1 },
            ])
            .unwrap_err();
        assert_eq!(err, BatchError::DuplicateKey { key: 1 });
        assert!(
            PointMap::contains(&tree, &1),
            "failed batch mutates nothing"
        );
    }
}
