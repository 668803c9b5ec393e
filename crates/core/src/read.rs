//! Descriptor-free read fast paths.
//!
//! Every operation of the paper's scheme — including pure reads — allocates
//! a descriptor, enqueues it at the root (a global serialization point) and
//! is helped hand-over-hand down the tree. That machinery is what makes
//! *updates* wait-free and exactly-once, but reads do not need it:
//!
//! * **Point reads** (`get`/`contains`) are answered directly from the
//!   presence index. The index is the tree's resolution authority: every
//!   update's effect is fixed there, exactly once, in strict root-queue
//!   timestamp order, *at* the update's linearization point
//!   ([`wft_queue::PresenceIndex::resolve`]). A snapshot load of a key's
//!   state record therefore linearizes at the load instant — `O(1)`, no
//!   descriptor, no allocation. This lives in
//!   [`wft_queue::PresenceIndex::read_value`] /
//!   [`wft_queue::PresenceIndex::contains_key`]; the tree merely counts the
//!   hits.
//! * **Range reads** (`range_agg`/`count`/`collect_range`) attempt the
//!   **optimistic validated traversal** implemented here, in the style of
//!   lock-free range queries via validated double-collects (Brown & Avni,
//!   arXiv:1712.05101), and fall back to the descriptor slow path when
//!   validation fails.
//!
//! # The optimistic traversal and its validation rule
//!
//! The traversal walks the same pruned paths as the descriptor-based range
//! query — the routing policy's range split ([`crate::Routing::split`]): the
//! three-mode scheme of the paper's appendix for the BST, fixed coverage
//! intervals for a trie. It descends through *partially* covered inner
//! nodes, absorbs the stored aggregate of *fully* covered children, and
//! reads bordering leaves directly. While
//! doing so it records a **read log**:
//!
//! * every inner node it descended through, with the state-record pointer
//!   observed at the visit (the traversal aborts early if the node's
//!   descriptor queue is non-empty at the visit);
//! * every fully-covered inner child whose aggregate it absorbed, with the
//!   state-record pointer the aggregate was read from;
//! * every leaf/empty child slot it read an entry from, with the observed
//!   child pointer.
//!
//! After the walk, the log is **validated**: every recorded state pointer
//! and child pointer must be unchanged, and every descended node's queue
//! must (still) be empty. In addition — both before the walk and at
//! validation — the **root-queue head** must not be a *resolved* successful
//! update: an update is linearized the moment it is resolved through the
//! presence index (fast point reads see it from that instant), but its
//! first state/structural CAS below the fictive root may still be pending,
//! and during that whole window the update sits at the root-queue head
//! (it is only resolved as the head and only popped after its root-level
//! continuation completed). If validation succeeds, the collected result
//! is returned; otherwise the whole attempt is discarded and the caller
//! falls back to the descriptor path.
//!
//! # Linearization argument
//!
//! Claim: a validated result equals the tree's state at the moment
//! validation started. An update `U` with timestamp `t` traverses root →
//! leaf through queue entries, and on each step its effects appear in a
//! fixed order: CAS of the child's state record (the eager aggregate delta
//! of §II-C), *then* insertion into the child's queue, *then* — once `U` is
//! executed in that child — the effects one level further down, *then*
//! removal from the child's queue. Three consequences:
//!
//! 1. `U` cannot be removed from a node's queue before it has been inserted
//!    into the next node's queue (or performed its structural leaf CAS), so
//!    while `U`'s effect on any *logged* location is still pending, `U` is
//!    detectable: it sits at the root-queue head with a resolved decision
//!    (head check), or in a descended node's queue (queue check), or its
//!    state-record CAS on a descended/absorbed node has already replaced a
//!    logged pointer (pointer check), or its leaf CAS has replaced a logged
//!    child pointer (pointer check).
//! 2. An absorbed child's stored aggregate already includes every update
//!    that passed the child's parent (eager top-down maintenance), so
//!    updates still propagating strictly *inside* an absorbed subtree are
//!    correctly counted, not torn.
//! 3. Reads of nodes that a concurrent §II-E rebuild (if the policy
//!    rebuilds at all) has replaced are still
//!    consistent: a replaced subtree is drained before it is unlinked and is
//!    frozen afterwards (the epoch guard keeps it alive), so a traversal
//!    that slipped into it reads a valid — merely slightly older —
//!    snapshot, and the validation of the logged ancestors decides whether
//!    that snapshot may still be returned.
//!
//! Hence if validation passes, no update changed any logged location between
//! its first read and its validation read; the contributions all correspond
//! to one prefix of the root-queue order, and the read linearizes at the
//! start of validation. Updates whose effects had not reached any logged
//! location by then are ordered after the read. That ordering is legal
//! because no operation can have *observed* such an update before this read
//! completed: the update itself has not returned, and any fast point read
//! (or failed insert) that saw its presence-index resolution implies the
//! update was resolved — in which case it still sat at the root-queue head,
//! which the validation's head check rejects.
//!
//! # Fallback conditions
//!
//! The attempt is abandoned (and [`crate::TreeStats::range_fallbacks`]
//! incremented) when a resolved successful update sits at the root-queue
//! head, when a descended node's queue is non-empty at the visit, or when
//! any logged pointer/queue/head check fails at validation. A query makes
//! at most [`crate::TreeConfig::fast_read_attempts`] attempts: the fallback
//! is the pre-existing wait-free descriptor path, so the combined operation
//! keeps its progress and complexity guarantees (fast-path/slow-path
//! discipline).

use crossbeam_epoch::{Atomic, Guard, Shared};
use std::sync::atomic::Ordering::Acquire;

use wft_seq::{Augmentation, Key, Value};

use crate::node::{InnerNode, Node, NodeState};
use crate::routing::{Routing, Step};
use crate::tree::WaitFreeTree;

/// A logged `(inner node, observed state pointer)` pair.
type StateObservation<'g, K, V, A, R> = (
    &'g InnerNode<K, V, A, R>,
    Shared<'g, NodeState<<A as Augmentation<K, V>>::Agg>>,
);

/// A logged `(child slot, observed child pointer)` pair.
type SlotObservation<'g, K, V, A, R> = (&'g Atomic<Node<K, V, A, R>>, Shared<'g, Node<K, V, A, R>>);

/// The read log of one optimistic traversal (see the module docs).
struct ReadLog<'g, K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> {
    /// Inner nodes the traversal descended through: the node plus the state
    /// pointer observed at the visit. Queues are re-checked at validation.
    descended: Vec<StateObservation<'g, K, V, A, R>>,
    /// Fully-covered inner children whose stored aggregate was absorbed.
    absorbed: Vec<StateObservation<'g, K, V, A, R>>,
    /// Leaf/empty child slots whose content was read, with the observed
    /// pointer.
    slots: Vec<SlotObservation<'g, K, V, A, R>>,
}

impl<'g, K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> ReadLog<'g, K, V, A, R> {
    fn new() -> Self {
        ReadLog {
            descended: Vec::new(),
            absorbed: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Re-reads every logged location; `true` iff nothing changed since the
    /// traversal observed it (and every descended queue is empty).
    fn validate(&self, guard: &'g Guard) -> bool {
        self.descended.iter().all(|(node, state)| {
            node.load_state_shared(guard) == *state && node.queue.is_empty(guard)
        }) && self
            .absorbed
            .iter()
            .all(|(node, state)| node.load_state_shared(guard) == *state)
            && self
                .slots
                .iter()
                // ORDERING: Acquire pairs with the AcqRel child-slot CASes; an unchanged
                // slot pointer proves no structural change was published in the window.
                .all(|(slot, child)| slot.load(Acquire, guard) == *child)
    }

    /// Logs `inner` as descended through, unless its queue holds a pending
    /// descriptor: an update (or a helped read) is mid-flight right there,
    /// so the walk bails out (`None`) instead of reading data that is about
    /// to change.
    fn descend(&mut self, inner: &'g InnerNode<K, V, A, R>, guard: &'g Guard) -> Option<()> {
        if !inner.queue.is_empty(guard) {
            return None;
        }
        self.descended.push((inner, inner.load_state_shared(guard)));
        Some(())
    }
}

/// The bounds of one optimistic range read.
#[derive(Clone, Copy)]
struct Bounds<'a, K> {
    min: &'a K,
    max: &'a K,
}

impl<K: Key> Bounds<'_, K> {
    fn admits(&self, key: &K) -> bool {
        self.min <= key && key <= self.max
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> WaitFreeTree<K, V, A, R> {
    /// `true` while an update that has already been **resolved** through the
    /// presence index (i.e. linearized, visible to fast point reads) may not
    /// yet have applied its first state/structural CAS below the fictive
    /// root. Such an update always sits at the *head* of the root queue for
    /// the whole window: it is only executed — and resolved — as the head,
    /// and it is only popped after a helper completed its root-level
    /// continuation. An optimistic range read overlapping this window must
    /// fall back, or it could miss an update that a completed fast `get`
    /// already observed (a real-time ordering violation). Failed updates
    /// (`success == false`) never change observable state and are ignored.
    fn resolved_update_pending(&self, guard: &Guard) -> bool {
        match self.root_queue.peek(guard) {
            None => false,
            Some((_ts, op)) => op.kind.is_update() && op.decision.get().is_some_and(|d| d.success),
        }
    }

    /// Optimistic descriptor-free `range_agg` over the closed interval
    /// `[min, max]`. Returns `None` when validation fails and the caller
    /// must take the descriptor slow path.
    pub(crate) fn try_fast_range_agg(&self, min: K, max: K, guard: &Guard) -> Option<A::Agg> {
        if self.resolved_update_pending(guard) {
            return None;
        }
        let mut log = ReadLog::new();
        let mut acc = A::identity();
        let bounds = Bounds {
            min: &min,
            max: &max,
        };
        let mode = R::root_mode(min, max);
        self.walk_agg_slot(&self.root_child, mode, bounds, &mut acc, &mut log, guard)?;
        if log.validate(guard) && !self.resolved_update_pending(guard) {
            Some(acc)
        } else {
            None
        }
    }

    /// Optimistic descriptor-free collect of the (up to) `limit` smallest
    /// entries of `[min, max]` — the chunk primitive behind
    /// [`WaitFreeTree::collect_range_limited`](crate::WaitFreeTree::collect_range_limited).
    ///
    /// The in-order walk stops as soon as `limit` entries are gathered:
    /// every *skipped* slot covers only keys larger than the last yielded
    /// one, so the result is a prefix of the full listing, and validation
    /// of the *visited* log suffices — an update to any key `<= last` must
    /// change a logged location (all slots covering such keys were
    /// visited), while updates beyond the last key cannot affect a prefix
    /// claim. The second return component is `true` when the limit actually
    /// cut the walk short (the `O(log N + limit)` early exit, counted in
    /// [`crate::TreeStats::fast_range_early_exits`]). `None` on validation
    /// failure, as for the unbounded walk.
    pub(crate) fn try_fast_collect_limited(
        &self,
        min: K,
        max: K,
        limit: usize,
        guard: &Guard,
    ) -> Option<(Vec<(K, V)>, bool)> {
        if self.resolved_update_pending(guard) {
            return None;
        }
        let mut log = ReadLog::new();
        let mut walk = CollectWalk {
            bounds: Bounds {
                min: &min,
                max: &max,
            },
            limit,
            out: Vec::new(),
            early_exit: false,
        };
        self.walk_collect_slot(&self.root_child, &mut walk, &mut log, guard)?;
        if log.validate(guard) && !self.resolved_update_pending(guard) {
            Some((walk.out, walk.early_exit))
        } else {
            None
        }
    }

    /// Aggregate walk continuation into a child slot: descend inner nodes
    /// along the policy's range split, absorbing fully covered children;
    /// fold leaves; log what was read.
    fn walk_agg_slot<'g>(
        &self,
        slot: &'g Atomic<Node<K, V, A, R>>,
        mode: R::Mode,
        bounds: Bounds<'_, K>,
        acc: &mut A::Agg,
        log: &mut ReadLog<'g, K, V, A, R>,
        guard: &'g Guard,
    ) -> Option<()> {
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes, so the loaded
        // node is fully initialised.
        let child = slot.load(Acquire, guard);
        // SAFETY: `child` is epoch-protected under `guard` (retired only via
        // `defer_destroy` after being unlinked).
        match unsafe { child.deref() } {
            Node::Inner(inner) => {
                log.descend(inner, guard)?;
                let steps = R::split(&inner.route, mode, bounds.min, bounds.max);
                for (right, step) in [false, true].into_iter().zip(steps) {
                    match step {
                        Step::Skip => {}
                        Step::Absorb => self.absorb_child(inner.child(right), acc, log, guard),
                        Step::Descend(mode) => {
                            self.walk_agg_slot(inner.child(right), mode, bounds, acc, log, guard)?
                        }
                    }
                }
            }
            Node::Leaf(leaf) => {
                log.slots.push((slot, child));
                if bounds.admits(&leaf.key) {
                    *acc = A::combine(acc, &A::of_entry(&leaf.key, &leaf.value));
                }
            }
            Node::Empty(_) => log.slots.push((slot, child)),
        }
        Some(())
    }

    /// Absorbs a fully covered child: its current aggregate joins the
    /// accumulator without descending (what makes the query logarithmic).
    fn absorb_child<'g>(
        &self,
        slot: &'g Atomic<Node<K, V, A, R>>,
        acc: &mut A::Agg,
        log: &mut ReadLog<'g, K, V, A, R>,
        guard: &'g Guard,
    ) {
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes.
        let child = slot.load(Acquire, guard);
        // SAFETY: `child` is epoch-protected under `guard`.
        match unsafe { child.deref() } {
            Node::Inner(inner) => {
                let state = inner.load_state_shared(guard);
                // The stored aggregate is maintained eagerly top-down
                // (§II-C): updates still propagating inside this subtree are
                // already counted, so no queue check is needed here.
                // SAFETY: the state record is non-null by construction and
                // epoch-protected under `guard` (see `load_state`).
                *acc = A::combine(acc, &unsafe { state.deref() }.agg);
                log.absorbed.push((inner, state));
            }
            Node::Leaf(leaf) => {
                log.slots.push((slot, child));
                *acc = A::combine(acc, &A::of_entry(&leaf.key, &leaf.value));
            }
            Node::Empty(_) => {
                log.slots.push((slot, child));
            }
        }
    }

    /// Collect walk continuation into a child slot (no absorption: every
    /// overlapping subtree is descended, in key order, like the
    /// descriptor-based `collect`). Once `limit` entries are gathered the
    /// walk stops descending: skipped slots are *not* logged, which is sound
    /// because the in-order walk guarantees they only cover keys beyond the
    /// last collected one (see `try_fast_collect_limited`).
    fn walk_collect_slot<'g>(
        &self,
        slot: &'g Atomic<Node<K, V, A, R>>,
        walk: &mut CollectWalk<'_, K, V>,
        log: &mut ReadLog<'g, K, V, A, R>,
        guard: &'g Guard,
    ) -> Option<()> {
        if walk.out.len() >= walk.limit {
            walk.early_exit = true;
            return Some(());
        }
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes.
        let child = slot.load(Acquire, guard);
        // SAFETY: `child` is epoch-protected under `guard`.
        match unsafe { child.deref() } {
            Node::Inner(inner) => {
                log.descend(inner, guard)?;
                let (min, max) = (walk.bounds.min, walk.bounds.max);
                let steps = R::split(&inner.route, R::root_mode(*min, *max), min, max);
                for (right, step) in [false, true].into_iter().zip(steps) {
                    if !matches!(step, Step::Skip) {
                        self.walk_collect_slot(inner.child(right), walk, log, guard)?;
                    }
                }
            }
            Node::Leaf(leaf) => {
                log.slots.push((slot, child));
                if walk.bounds.admits(&leaf.key) {
                    walk.out.push((leaf.key, leaf.value.clone()));
                }
            }
            Node::Empty(_) => log.slots.push((slot, child)),
        }
        Some(())
    }
}

/// The state of one limit-bounded collect walk.
struct CollectWalk<'a, K, V> {
    bounds: Bounds<'a, K>,
    limit: usize,
    out: Vec<(K, V)>,
    /// Set when the limit cut the walk short.
    early_exit: bool,
}
