//! Routing policies: the part of a tree that depends on its shape.
//!
//! The helping engine ([`crate::exec`]), the optimistic reads
//! ([`crate::read`]), the descriptors and the public API are shared by every
//! tree shape. A [`Routing`] policy, chosen statically as the last type
//! parameter of [`crate::WaitFreeTree`], supplies only what differs:
//!
//! * the routing record stored in every inner node and the child a key
//!   routes into;
//! * the per-node range split of an aggregate or collect walk (skip a
//!   child, absorb its stored aggregate, or descend into it) and whether
//!   the walk's mode must be recorded in the descriptor for helpers;
//! * the subtree builders (bulk load and leaf split);
//! * whether subtrees are ever rebuilt (§II-E);
//! * the routing half of the quiescent invariant check;
//! * the metrics prefix.
//!
//! [`Bst`] is the paper's external binary search tree; the `wft-trie`
//! crate adds a bit-routing policy over the same engine.

use std::fmt::Debug;

use wft_queue::{FirstWriteMap, Timestamp};
use wft_seq::{Augmentation, Key, Value};

use crate::descriptor::RangeMode;
use crate::node::{build_subtree, IdAllocator, InnerNode, LeafNode, Node, NodeId};

/// The position of a child slot: the routing record of the inner node that
/// owns the slot and whether it is that node's right slot. `None` is the
/// real-root slot, the only child of the fictive root.
pub type SlotAt<'a, Route> = Option<(&'a Route, bool)>;

/// What a range walk does with one child of the node it is at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<M> {
    /// No key of the child's subtree is in the range.
    Skip,
    /// Every key of the child's subtree is in the range: aggregates take
    /// the child's stored aggregate instead of descending.
    Absorb,
    /// Some keys may be in the range: continue in the child with this mode.
    Descend(M),
}

/// A statically dispatched routing policy (see the module docs).
pub trait Routing<K: Key>: Sized + Send + Sync + 'static {
    /// The routing record every inner node stores.
    type Route: Copy + Debug + Send + Sync + 'static;
    /// What a range walk carries from a node into a child, besides the
    /// query bounds.
    type Mode: Copy + Debug;
    /// Per-descriptor record of the modes a range aggregate entered inner
    /// nodes with, for helpers that execute it there.
    type Modes: Default + Send + Sync;
    /// Name prefix of the tree's metrics (`tree` gives `tree_inserts`, ...).
    const METRICS_PREFIX: &'static str;

    /// `true` if `key` routes into the right child of a node with `route`.
    fn goes_right(route: &Self::Route, key: &K) -> bool;

    /// The mode a walk over `[min, max]` starts with at the real root.
    fn root_mode(min: K, max: K) -> Self::Mode;

    /// What a walk over `[min, max]` that reached a node with `route` in
    /// `mode` does with the node's left and right child. A collect walk
    /// descends wherever an aggregate walk would absorb.
    fn split(route: &Self::Route, mode: Self::Mode, min: &K, max: &K) -> [Step<Self::Mode>; 2];

    /// Records the mode a range aggregate enters node `id` with, before the
    /// descriptor enters that node's queue.
    fn record_mode(modes: &Self::Modes, id: NodeId, mode: Self::Mode);

    /// The mode a range aggregate executes with at node `id`.
    fn mode_at(modes: &Self::Modes, id: NodeId) -> Self::Mode;

    /// The subtree size at creation (`Init_Sz`, §II-E) of a node with
    /// `route`, which bounds its modifications before it is rebuilt;
    /// `None` for a policy that never rebuilds.
    fn rebuild_size(route: &Self::Route) -> Option<u64>;

    /// Builds a subtree for slot `at` holding `entries` (sorted by key,
    /// de-duplicated); every node carries the watermark `watermark`. Used
    /// by bulk loading and by rebuilds.
    fn build<V: Value, A: Augmentation<K, V>>(
        at: SlotAt<'_, Self::Route>,
        entries: &[(K, V)],
        watermark: Timestamp,
        ids: &IdAllocator,
    ) -> (Node<K, V, A, Self>, A::Agg);

    /// Builds the subtree that replaces leaf `old` in slot `at` when the
    /// operation with timestamp `ts` inserts `new` (a different key) there.
    /// Every created node carries `ts` as its watermark, so stalled helpers
    /// of the same operation can neither re-apply its state delta nor
    /// re-enqueue it.
    fn split_leaf<V: Value, A: Augmentation<K, V>>(
        at: SlotAt<'_, Self::Route>,
        old: (K, V),
        new: (K, V),
        ts: Timestamp,
        ids: &IdAllocator,
    ) -> Node<K, V, A, Self>;

    /// Quiescent check: panics unless a node with `route` in slot `at`
    /// routes the keys of its left (`left`) and right (`right`) subtree
    /// consistently.
    fn check_route<V: Value>(
        at: SlotAt<'_, Self::Route>,
        route: &Self::Route,
        left: &[(K, V)],
        right: &[(K, V)],
    );
}

/// The paper's external binary search tree: inner nodes store
/// `Right_Subtree_Min`, range aggregates follow the three border modes of
/// the appendix, and subtrees are rebuilt once their modification count
/// exceeds a constant factor of their size at creation (§II-E).
#[derive(Debug, Clone, Copy, Default)]
pub struct Bst;

/// The routing record of a [`Bst`] inner node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BstRoute<K> {
    /// `Right_Subtree_Min`: keys `< rsm` route left, keys `>= rsm` right.
    pub rsm: K,
    /// Subtree size at creation (`Init_Sz`, §II-E).
    pub init_sz: u64,
}

impl<K: Key> Routing<K> for Bst {
    type Route = BstRoute<K>;
    type Mode = RangeMode<K>;
    type Modes = FirstWriteMap<NodeId, RangeMode<K>>;
    const METRICS_PREFIX: &'static str = "tree";

    fn goes_right(route: &BstRoute<K>, key: &K) -> bool {
        key >= &route.rsm
    }

    fn root_mode(min: K, max: K) -> RangeMode<K> {
        RangeMode::Both { min, max }
    }

    fn split(route: &BstRoute<K>, mode: RangeMode<K>, _: &K, _: &K) -> [Step<RangeMode<K>>; 2] {
        use RangeMode::{Both, LeftBorder, RightBorder};
        use Step::{Absorb, Descend, Skip};
        let rsm = route.rsm;
        match mode {
            Both { min, .. } | LeftBorder { min } if min >= rsm => [Skip, Descend(mode)],
            Both { max, .. } | RightBorder { max } if max < rsm => [Descend(mode), Skip],
            // The fork node: the left side keeps only the lower border, the
            // right side only the upper one.
            Both { min, max } => [Descend(LeftBorder { min }), Descend(RightBorder { max })],
            LeftBorder { .. } => [Descend(mode), Absorb],
            RightBorder { .. } => [Absorb, Descend(mode)],
        }
    }

    fn record_mode(modes: &Self::Modes, id: NodeId, mode: RangeMode<K>) {
        modes.try_insert(id, mode);
    }

    fn mode_at(modes: &Self::Modes, id: NodeId) -> RangeMode<K> {
        modes
            .get(&id)
            .expect("range mode recorded before the descriptor entered this queue")
    }

    fn rebuild_size(route: &BstRoute<K>) -> Option<u64> {
        Some(route.init_sz)
    }

    fn build<V: Value, A: Augmentation<K, V>>(
        _: SlotAt<'_, BstRoute<K>>,
        entries: &[(K, V)],
        watermark: Timestamp,
        ids: &IdAllocator,
    ) -> (Node<K, V, A, Bst>, A::Agg) {
        build_subtree(entries, watermark, ids)
    }

    fn split_leaf<V: Value, A: Augmentation<K, V>>(
        _: SlotAt<'_, BstRoute<K>>,
        old: (K, V),
        new: (K, V),
        ts: Timestamp,
        ids: &IdAllocator,
    ) -> Node<K, V, A, Bst> {
        // A fresh routing node over the two keys; its state already
        // includes the new key.
        let (lo, hi) = if new.0 < old.0 {
            (new, old)
        } else {
            (old, new)
        };
        let agg = A::combine(&A::of_entry(&lo.0, &lo.1), &A::of_entry(&hi.0, &hi.1));
        let route = BstRoute {
            rsm: hi.0,
            init_sz: 2,
        };
        let leaf = |(key, value)| Node::Leaf(LeafNode::new(key, value, ts));
        Node::Inner(InnerNode::new(
            ids.fresh(),
            route,
            leaf(lo),
            leaf(hi),
            agg,
            ts,
        ))
    }

    fn check_route<V: Value>(
        _: SlotAt<'_, BstRoute<K>>,
        route: &BstRoute<K>,
        left: &[(K, V)],
        right: &[(K, V)],
    ) {
        assert!(
            left.iter().all(|(key, _)| key < &route.rsm),
            "leaf key above its routing interval"
        );
        assert!(
            right.iter().all(|(key, _)| key >= &route.rsm),
            "leaf key below its routing interval"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Step::{Absorb, Descend, Skip};

    const ROUTE: BstRoute<i64> = BstRoute {
        rsm: 10,
        init_sz: 2,
    };

    fn split(mode: RangeMode<i64>) -> [Step<RangeMode<i64>>; 2] {
        Bst::split(&ROUTE, mode, &0, &0)
    }

    #[test]
    fn bst_split_follows_the_three_border_modes() {
        use RangeMode::{Both, LeftBorder, RightBorder};
        let both = |min, max| Both { min, max };
        assert_eq!(split(both(10, 20)), [Skip, Descend(both(10, 20))]);
        assert_eq!(split(both(0, 9)), [Descend(both(0, 9)), Skip]);
        assert_eq!(
            split(both(5, 15)),
            [
                Descend(LeftBorder { min: 5 }),
                Descend(RightBorder { max: 15 })
            ]
        );
        let left = LeftBorder { min: 5 };
        assert_eq!(split(left), [Descend(left), Absorb]);
        assert_eq!(
            split(LeftBorder { min: 10 }),
            [Skip, Descend(LeftBorder { min: 10 })]
        );
        let right = RightBorder { max: 10 };
        assert_eq!(split(right), [Absorb, Descend(right)]);
        assert_eq!(
            split(RightBorder { max: 9 }),
            [Descend(RightBorder { max: 9 }), Skip]
        );
    }

    #[test]
    fn bst_routes_by_right_subtree_min() {
        assert!(!Bst::goes_right(&ROUTE, &9));
        assert!(Bst::goes_right(&ROUTE, &10));
        Bst::check_route(None, &ROUTE, &[(9, ())], &[(10, ()), (11, ())]);
    }

    #[test]
    #[should_panic(expected = "below its routing interval")]
    fn bst_route_check_rejects_misrouted_keys() {
        Bst::check_route(None, &ROUTE, &[(1, ())], &[(9, ())]);
    }
}
