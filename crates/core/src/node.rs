//! Concurrent tree nodes.
//!
//! The concurrent tree uses the same *external* (leaf-oriented) layout as the
//! sequential tree in `wft-seq`, enriched with the per-node machinery of the
//! paper (§II):
//!
//! * every inner node owns an operations queue ([`wft_queue::TsQueue`]) whose
//!   dummy timestamp doubles as the node's creation watermark,
//! * the mutable part of an inner node — augmentation value, modification
//!   counter and last-modification timestamp — lives in an **immutable,
//!   heap-allocated [`NodeState`]** swapped atomically by CAS (§II-C), so a
//!   state can be read with one pointer load and modified exactly once per
//!   operation,
//! * child pointers are epoch-managed atomics; all structural changes are
//!   CASes on a *parent's* child slot (insert splits a leaf, remove replaces
//!   a leaf with [`Node::Empty`], rebuilds swap whole subtrees), which keeps
//!   the paper's rule that executing an operation in `v` only modifies `v`'s
//!   children,
//! * the routing record is whatever the tree's [`Routing`] policy stores
//!   (`Right_Subtree_Min` and `Init_Sz` for the [`Bst`]).

use crossbeam_epoch::{Atomic, Guard, Shared};
use std::sync::atomic::{AtomicU64, Ordering};

use wft_queue::{Timestamp, TsQueue};
use wft_seq::{Augmentation, Key, Value};

use crate::descriptor::OpRef;
use crate::routing::{Bst, BstRoute, Routing};

/// Unique identifier of an inner node, used as the key of the per-operation
/// `Processed` and mode maps. The fictive root uses id `0`; real nodes get
/// ids `>= 1` from the tree's counter.
pub type NodeId = u64;

/// Reserved [`NodeId`] of the fictive root (§II-B).
pub const FICTIVE_ROOT_ID: NodeId = 0;

/// Allocates unique node identifiers (a fetch-and-add counter, as suggested
/// in §II-B).
#[derive(Debug)]
pub struct IdAllocator {
    next: AtomicU64,
}

impl Default for IdAllocator {
    fn default() -> Self {
        IdAllocator {
            next: AtomicU64::new(FICTIVE_ROOT_ID + 1),
        }
    }
}

impl IdAllocator {
    /// A fresh identifier, never handed out before.
    pub fn fresh(&self) -> NodeId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// The immutable state record of an inner node (§II-C).
///
/// A state is never mutated in place: modifications allocate a new record and
/// CAS the node's state pointer, guarded by `ts_mod` so each operation's
/// effect is applied exactly once no matter how many helpers race.
#[derive(Debug)]
pub struct NodeState<Agg> {
    /// Augmentation value of the node's subtree *as of the last update that
    /// was executed in this node's parent* — i.e. including updates that are
    /// still propagating further down (§II-C: eager top-down maintenance).
    pub agg: Agg,
    /// Number of successful updates applied to this subtree since the node
    /// was created (`Mod_Cnt`, §II-E).
    pub mod_cnt: u64,
    /// Timestamp of the last operation that modified this state (`Ts_Mod`).
    pub ts_mod: Timestamp,
}

/// A leaf holding one data item. Leaves are immutable.
///
/// `created_ts` is the timestamp of the operation (or the watermark of the
/// rebuild) that physically installed the leaf. Structural CASes are guarded
/// by it: a stalled helper whose operation is *older* than the node it finds
/// in a child slot must not touch that slot — its own structural change has
/// already been applied by a faster helper, and the slot has since been
/// reused by later-linearized operations (see `execute_at_leaf` /
/// `execute_at_empty`). Because leaves are immutable, a `Replace` descriptor
/// that overwrites an existing key installs a *fresh* leaf carrying the new
/// value and its own timestamp, so the same guard covers upserts: any leaf
/// for the key with a smaller `created_ts` either predates the replace or is
/// a rebuild's verbatim copy of its effect.
#[derive(Debug)]
pub struct LeafNode<K, V> {
    /// The stored key.
    pub key: K,
    /// The associated value.
    pub value: V,
    /// Timestamp of the operation that created this leaf.
    pub created_ts: Timestamp,
}

impl<K, V> LeafNode<K, V> {
    /// A leaf installed by the operation (or build) with timestamp `ts`.
    pub fn new(key: K, value: V, created_ts: Timestamp) -> Self {
        LeafNode {
            key,
            value,
            created_ts,
        }
    }
}

/// A removed leaf position (or the empty tree), carrying the timestamp of the
/// operation that created it for the same structural-CAS guard as
/// [`LeafNode::created_ts`].
#[derive(Debug)]
pub struct EmptyNode {
    /// Timestamp of the operation that created this placeholder.
    pub created_ts: Timestamp,
}

/// An inner (routing) node.
pub struct InnerNode<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K> = Bst> {
    /// Unique node identifier (never reused).
    pub id: NodeId,
    /// The routing record; immutable.
    pub route: R::Route,
    /// Left child slot.
    pub left: Atomic<Node<K, V, A, R>>,
    /// Right child slot.
    pub right: Atomic<Node<K, V, A, R>>,
    /// Swappable immutable state record.
    pub state: Atomic<NodeState<A::Agg>>,
    /// Per-node operations queue (§II-A). The dummy timestamp equals the
    /// node's creation watermark: descriptors older than the node can never
    /// enter.
    pub queue: TsQueue<OpRef<K, V, A, R>>,
}

/// A node of the concurrent tree.
pub enum Node<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K> = Bst> {
    /// A removed leaf position (or the empty tree); cleaned up by rebuilds.
    Empty(EmptyNode),
    /// A data item.
    Leaf(LeafNode<K, V>),
    /// A routing node with queue and state.
    Inner(InnerNode<K, V, A, R>),
}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Node<K, V, A, R> {
    /// An empty placeholder created by the operation with timestamp `ts`.
    pub fn empty(ts: Timestamp) -> Self {
        Node::Empty(EmptyNode { created_ts: ts })
    }

    /// `true` for [`Node::Inner`].
    pub fn is_inner(&self) -> bool {
        matches!(self, Node::Inner(_))
    }

    /// The inner node, if this is one.
    pub fn as_inner(&self) -> Option<&InnerNode<K, V, A, R>> {
        match self {
            Node::Inner(inner) => Some(inner),
            _ => None,
        }
    }

    /// Current augmentation value of this child as seen from its parent:
    /// identity for `Empty`, the entry contribution for a leaf, and the
    /// *current state's* aggregate for an inner node.
    pub fn current_agg(&self, guard: &Guard) -> A::Agg {
        match self {
            Node::Empty(_) => A::identity(),
            Node::Leaf(leaf) => A::of_entry(&leaf.key, &leaf.value),
            Node::Inner(inner) => {
                // ORDERING: Acquire pairs with the AcqRel state CAS in
                // `apply_state_delta`, so the record's fields are visible.
                let state = inner.state.load(Ordering::Acquire, guard);
                // Inner nodes always carry a state record.
                // SAFETY: inner nodes always carry a non-null state record (installed at
                // construction, only ever swapped for a successor) and records are retired
                // via `defer_destroy`, so the deref is valid under `guard`.
                unsafe { state.deref() }.agg.clone()
            }
        }
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> InnerNode<K, V, A, R> {
    /// A fresh inner node over `left` and `right` whose subtree aggregate is
    /// `agg`. Its state's `Ts_Mod` and its queue's watermark are `ts`, so no
    /// descriptor with a timestamp `<= ts` can modify or enter it.
    pub fn new(
        id: NodeId,
        route: R::Route,
        left: Node<K, V, A, R>,
        right: Node<K, V, A, R>,
        agg: A::Agg,
        ts: Timestamp,
    ) -> Self {
        InnerNode {
            id,
            route,
            left: Atomic::new(left),
            right: Atomic::new(right),
            state: Atomic::new(NodeState {
                agg,
                mod_cnt: 0,
                ts_mod: ts,
            }),
            queue: TsQueue::new(ts),
        }
    }

    /// The right child slot if `right`, else the left one.
    pub(crate) fn child(&self, right: bool) -> &Atomic<Node<K, V, A, R>> {
        if right {
            &self.right
        } else {
            &self.left
        }
    }

    /// Loads the current state record.
    pub fn load_state<'g>(&self, guard: &'g Guard) -> &'g NodeState<A::Agg> {
        // ORDERING: Acquire pairs with the AcqRel state CAS in
        // `apply_state_delta`.
        let state = self.state.load(Ordering::Acquire, guard);
        // SAFETY: the state record is non-null by construction and
        // epoch-protected under `guard`; see `current_agg`.
        unsafe { state.deref() }
    }

    /// Loads the current state record as a `Shared` pointer (needed as the
    /// expected value of a CAS).
    pub fn load_state_shared<'g>(&self, guard: &'g Guard) -> Shared<'g, NodeState<A::Agg>> {
        // ORDERING: Acquire pairs with the AcqRel state CAS in
        // `apply_state_delta`.
        self.state.load(Ordering::Acquire, guard)
    }
}

/// A `Send + Sync` wrapper around a raw pointer to a tree node, used as the
/// item type of the per-operation traverse queue.
///
/// Safety: the pointer is only dereferenced by the operation's initiator
/// while it holds the epoch guard it pinned *before* the operation entered
/// the root queue. Any node reachable through the traverse queue was loaded
/// from a live child slot after that point, so its reclamation (if it gets
/// unlinked by a rebuild) is deferred past the initiator's guard.
pub struct NodePtr<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K> = Bst>(
    *const Node<K, V, A, R>,
);

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Clone for NodePtr<K, V, A, R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Copy for NodePtr<K, V, A, R> {}

// SAFETY: see the type-level comment — the raw pointer is only
// dereferenced by the initiator under its pre-enqueue epoch guard, so
// sending the wrapper across threads is sound.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Send for NodePtr<K, V, A, R> {}
// SAFETY: same argument as `Send`; shared copies only ever read the
// pointer value, the deref contract is enforced by `NodePtr::deref`.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Sync for NodePtr<K, V, A, R> {}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> NodePtr<K, V, A, R> {
    /// Wraps a shared pointer obtained under an epoch guard.
    pub fn from_shared(shared: Shared<'_, Node<K, V, A, R>>) -> Self {
        NodePtr(shared.as_raw())
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The caller must be the operation's initiator and must still hold the
    /// guard pinned before the operation was enqueued (see the type-level
    /// safety comment).
    // SAFETY: the pointee stays alive because the initiator's guard predates
    // every possible unlink of this node (see above); callers uphold the
    // initiator+guard requirement.
    pub unsafe fn deref<'g>(&self, _guard: &'g Guard) -> &'g Node<K, V, A, R> {
        &*self.0
    }
}

/// Recursively builds a perfectly balanced concurrent subtree from sorted,
/// de-duplicated `entries` (the §II-E rebuild).
///
/// Every created inner node gets a fresh id, `mod_cnt = 0`,
/// `ts_mod = watermark` and a queue watermark of `watermark`, where the
/// caller passes `watermark = rebuild_op_timestamp - 1` so the rebuilding
/// operation itself and all later operations can still modify the new
/// subtree while all earlier (already-accounted-for) operations cannot.
pub(crate) fn build_subtree<K: Key, V: Value, A: Augmentation<K, V>>(
    entries: &[(K, V)],
    watermark: Timestamp,
    ids: &IdAllocator,
) -> (Node<K, V, A>, A::Agg) {
    match entries {
        [] => (Node::empty(watermark), A::identity()),
        [(key, value)] => (
            Node::Leaf(LeafNode::new(*key, value.clone(), watermark)),
            A::of_entry(key, value),
        ),
        _ => {
            let mid = entries.len() / 2;
            let (left, left_agg) = build_subtree::<K, V, A>(&entries[..mid], watermark, ids);
            let (right, right_agg) = build_subtree::<K, V, A>(&entries[mid..], watermark, ids);
            let agg = A::combine(&left_agg, &right_agg);
            let route = BstRoute {
                rsm: entries[mid].0,
                init_sz: entries.len() as u64,
            };
            let inner = InnerNode::new(ids.fresh(), route, left, right, agg.clone(), watermark);
            (Node::Inner(inner), agg)
        }
    }
}

/// Collects every `(key, value)` stored in the subtree rooted at `node`, in
/// key order, following the *current* child pointers. Used by the rebuild
/// procedure after it has drained every queue in the subtree, and by
/// quiescent diagnostics.
pub fn collect_subtree<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>>(
    node: Shared<'_, Node<K, V, A, R>>,
    out: &mut Vec<(K, V)>,
    guard: &Guard,
) {
    if node.is_null() {
        return;
    }
    // SAFETY: the caller passes a child pointer loaded under `guard` from a
    // drained, still-reachable subtree; nodes are retired only via
    // `retire_subtree`/`defer_destroy`.
    match unsafe { node.deref() } {
        Node::Empty(_) => {}
        Node::Leaf(leaf) => out.push((leaf.key, leaf.value.clone())),
        Node::Inner(inner) => {
            // ORDERING: Acquire pairs with the AcqRel child-slot CASes, so both
            // subtrees are fully initialised when walked.
            collect_subtree(inner.left.load(Ordering::Acquire, guard), out, guard);
            // ORDERING: as above.
            collect_subtree(inner.right.load(Ordering::Acquire, guard), out, guard);
        }
    }
}

/// Retires every node of an *unlinked* subtree through the epoch collector.
///
/// Must only be called on a subtree that has just been atomically replaced
/// (rebuild) — i.e. no new references to it can be created, and existing
/// references are protected by their owners' guards.
pub(crate) fn retire_subtree<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>>(
    node: Shared<'_, Node<K, V, A, R>>,
    guard: &Guard,
) {
    if node.is_null() {
        return;
    }
    // SAFETY: the subtree was just unlinked by its replacer (single CAS
    // winner), so no new references can form; existing readers hold epoch
    // guards, which `defer_destroy` waits out.
    if let Node::Inner(inner) = unsafe { node.deref() } {
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes so the walk
        // sees the subtree's final shape.
        retire_subtree(inner.left.load(Ordering::Acquire, guard), guard);
        // ORDERING: as above.
        retire_subtree(inner.right.load(Ordering::Acquire, guard), guard);
        // ORDERING: Acquire pairs with the AcqRel state CAS in `apply_state_delta`.
        let state = inner.state.load(Ordering::Acquire, guard);
        if !state.is_null() {
            // SAFETY: the state record belongs to the unlinked subtree and is retired
            // exactly once (this walk is the only retirement path for it).
            unsafe { guard.defer_destroy(state) };
        }
    }
    // SAFETY: `node` is unlinked (see above); each node of the subtree is
    // retired exactly once by this single post-order walk.
    unsafe { guard.defer_destroy(node) };
}

/// Frees a subtree immediately.
///
/// # Safety
///
/// The caller must have exclusive access to the subtree (tree `Drop`, or a
/// speculative subtree that was never published).
// SAFETY: the contract above makes the caller the subtree's only owner, so
// freeing each node exactly once without epoch protection is sound.
pub unsafe fn free_subtree_now<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>>(
    node: Shared<'_, Node<K, V, A, R>>,
) {
    if node.is_null() {
        return;
    }
    // SAFETY: the caller guarantees exclusive access (tree `Drop` or a
    // never-published speculative subtree), so freeing in place without epoch
    // protection is sound and each node is freed exactly once.
    unsafe {
        let unprotected = crossbeam_epoch::unprotected();
        if let Node::Inner(inner) = node.deref() {
            free_subtree_now(inner.left.load(Ordering::Relaxed, unprotected));
            free_subtree_now(inner.right.load(Ordering::Relaxed, unprotected));
            let state = inner.state.load(Ordering::Relaxed, unprotected);
            if !state.is_null() {
                drop(state.into_owned());
            }
            // The queue frees its own nodes when the InnerNode is dropped.
        }
        drop(node.into_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch::{self as epoch, Owned};
    use wft_seq::Size;

    type N = Node<i64, (), Size>;

    #[test]
    fn id_allocator_is_monotone_and_skips_fictive_root() {
        let ids = IdAllocator::default();
        let a = ids.fresh();
        let b = ids.fresh();
        assert!(a > FICTIVE_ROOT_ID);
        assert!(b > a);
    }

    #[test]
    fn build_subtree_computes_aggregates_and_watermarks() {
        let ids = IdAllocator::default();
        let entries: Vec<(i64, ())> = (0..100).map(|k| (k, ())).collect();
        let (node, agg) = build_subtree::<i64, (), Size>(&entries, Timestamp(41), &ids);
        assert_eq!(agg, 100);
        let guard = epoch::pin();
        match &node {
            Node::Inner(inner) => {
                assert_eq!(inner.route.init_sz, 100);
                assert_eq!(inner.load_state(&guard).agg, 100);
                assert_eq!(inner.load_state(&guard).ts_mod, Timestamp(41));
                assert_eq!(inner.load_state(&guard).mod_cnt, 0);
                assert!(inner.queue.is_empty(&guard));
                // The watermark rejects older descriptors; we can't push a
                // real descriptor here without a full tree, but the queue's
                // last timestamp reflects the watermark.
                assert_eq!(inner.queue.last_timestamp(&guard), Timestamp(41));
            }
            _ => panic!("100 entries must build an inner root"),
        }
        // Free the speculative subtree.
        // SAFETY: the subtree was never published; this test owns it exclusively.
        unsafe { free_subtree_now(Owned::new(node).into_shared(epoch::unprotected())) };
    }

    #[test]
    fn build_and_collect_roundtrip() {
        let ids = IdAllocator::default();
        for n in [0usize, 1, 2, 3, 7, 64, 101] {
            let entries: Vec<(i64, ())> = (0..n as i64).map(|k| (k * 2, ())).collect();
            let (node, agg) = build_subtree::<i64, (), Size>(&entries, Timestamp::ZERO, &ids);
            assert_eq!(agg, n as u64);
            // SAFETY: the subtree was never published; this test owns it exclusively.
            let shared = Owned::new(node).into_shared(unsafe { epoch::unprotected() });
            let guard = epoch::pin();
            let mut out = Vec::new();
            collect_subtree(shared, &mut out, &guard);
            assert_eq!(out, entries);
            // SAFETY: as above — still exclusively owned by this test.
            unsafe { free_subtree_now(shared) };
        }
    }

    #[test]
    fn current_agg_per_node_kind() {
        let guard = epoch::pin();
        let empty: N = Node::empty(Timestamp::ZERO);
        assert_eq!(empty.current_agg(&guard), 0);
        let leaf: N = Node::Leaf(LeafNode {
            key: 3,
            value: (),
            created_ts: Timestamp::ZERO,
        });
        assert_eq!(leaf.current_agg(&guard), 1);
        assert!(!leaf.is_inner());
        assert!(leaf.as_inner().is_none());
    }
}
