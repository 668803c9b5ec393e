//! The hand-over-hand helping execution engine (§II-B, §II-C, §II-E).
//!
//! Every public tree operation goes through `WaitFreeTree::run_operation`:
//!
//! 1. the descriptor is enqueued at the (fictive) root and receives its
//!    timestamp — this is the linearization point;
//! 2. the initiator *helps* execute every descriptor ahead of it in the root
//!    queue, then its own, exactly as `execute_until_timestamp` (Listing 1)
//!    prescribes;
//! 3. it then walks the descriptor's `Traverse` queue (Listing 2), helping at
//!    every node on the operation's path until the queue drains;
//! 4. finally the result is assembled from the `Processed` map / the resolved
//!    decision.
//!
//! The single function `WaitFreeTree::execute_op_at` implements "executing
//! an operation in a node" (Listing 3) for both the fictive root and regular
//! inner nodes; it is idempotent and may be invoked by any number of helpers
//! concurrently:
//!
//! * update effects are fixed exactly once through the presence index
//!   (fictive root only),
//! * child state changes are guarded by `Ts_Mod`,
//! * descriptor insertion/removal uses the exactly-once `push_if` / `pop_if`,
//! * per-node partial results go through the first-write-wins `Processed`
//!   map,
//! * structural changes (leaf split / leaf removal / subtree replacement) are
//!   plain pointer CASes whose expected value makes them exactly-once.

use crossbeam_epoch::{Atomic, Guard, Owned, Shared};
use std::sync::atomic::Ordering::{AcqRel, Acquire};

use wft_queue::{Timestamp, UpdateKind};
use wft_seq::{Augmentation, Key, Value};

use crate::config::TreeCounters;
use crate::descriptor::{Descriptor, OpKind, OpRef, Partial};
use crate::node::{
    collect_subtree, free_subtree_now, retire_subtree, EmptyNode, InnerNode, LeafNode, Node,
    NodePtr, NodeState, FICTIVE_ROOT_ID,
};
use crate::routing::{Routing, SlotAt, Step};
use crate::tree::WaitFreeTree;

/// The node an operation is currently being executed *in*: either the
/// fictive root (which owns the root queue and the real-root child slot) or a
/// regular inner node.
pub(crate) enum ParentRef<'g, K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> {
    /// The fictive root (§II-B): no state of its own, one child — the real
    /// root.
    Fictive,
    /// A regular inner node.
    Inner(&'g InnerNode<K, V, A, R>),
}

// Manual Clone/Copy: the derived impls would demand `K: Copy, V: Copy`
// bounds, but the enum only holds a shared reference.
impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Clone for ParentRef<'_, K, V, A, R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Copy for ParentRef<'_, K, V, A, R> {}

/// A child slot an operation continues into: where it hangs (for the
/// policy's leaf-split builder) and the slot itself.
struct Child<'g, K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> {
    at: SlotAt<'g, R::Route>,
    slot: &'g Atomic<Node<K, V, A, R>>,
}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> WaitFreeTree<K, V, A, R> {
    /// Runs one operation end to end and returns its descriptor (with every
    /// partial result recorded) plus its timestamp.
    pub(crate) fn run_operation(&self, kind: OpKind<K, V>) -> (OpRef<K, V, A, R>, Timestamp) {
        // The guard is pinned before the descriptor becomes visible and held
        // until the operation completes; every node pointer the operation
        // touches (including entries of its traverse queue) stays valid under
        // this single guard (see `NodePtr`).
        let guard = crossbeam_epoch::pin();
        let op = Descriptor::new_ref(kind);
        let ts = self.root_queue.enqueue(op.clone(), &guard);

        // Phase 1: the fictive root. Helping everything older than us also
        // resolves our own decision / pushes us towards the real root.
        self.help_until(ParentRef::Fictive, ts, &guard);

        // Phase 2: walk the traverse queue (Listing 2). Only the initiator
        // pops; helpers merely append.
        loop {
            match op.traverse.peek() {
                None => break,
                Some(node_ptr) => {
                    // SAFETY: initiator + guard pinned since before enqueue; every pointer in
                    // the traverse queue was epoch-protected when pushed.
                    let node = unsafe { node_ptr.deref(&guard) };
                    if let Node::Inner(inner) = node {
                        self.help_until(ParentRef::Inner(inner), ts, &guard);
                    }
                    op.traverse.pop();
                }
            }
        }
        (op, ts)
    }

    /// `execute_until_timestamp` (Listing 1): execute every descriptor at the
    /// head of `parent`'s queue whose timestamp does not exceed `ts`.
    pub(crate) fn help_until(
        &self,
        parent: ParentRef<'_, K, V, A, R>,
        ts: Timestamp,
        guard: &Guard,
    ) {
        loop {
            let head = match parent {
                ParentRef::Fictive => self.root_queue.peek(guard),
                ParentRef::Inner(inner) => inner.queue.peek(guard),
            };
            match head {
                None => return,
                Some((head_ts, head_op)) => {
                    if head_ts > ts {
                        return;
                    }
                    if head_ts != ts {
                        TreeCounters::bump(&self.counters.helped_executions);
                    }
                    self.execute_op_at(&head_op, head_ts, parent, guard);
                }
            }
        }
    }

    /// `execute_in_node` (Listing 3): executes `op` (with timestamp `ts`) in
    /// `parent`. Idempotent; safe to call from any number of helpers.
    pub(crate) fn execute_op_at(
        &self,
        op: &OpRef<K, V, A, R>,
        ts: Timestamp,
        parent: ParentRef<'_, K, V, A, R>,
        guard: &Guard,
    ) {
        // --- Step 0: resolve update effects at the linearization point. ----
        if op.kind.is_update() && matches!(parent, ParentRef::Fictive) {
            self.resolve_update(op, ts, guard);
        }
        // Below the fictive root the decision is always already resolved
        // (the descriptor only enters child queues afterwards).

        // --- Step 1: work out where the operation continues and what this
        //     node contributes to the result. -------------------------------
        let mut partial: Partial<K, V, A::Agg> = match &op.kind {
            OpKind::Insert { .. } | OpKind::Replace { .. } | OpKind::Remove { .. } => Partial::Unit,
            OpKind::Lookup { .. } => Partial::Lookup(None),
            OpKind::RangeAgg { .. } => Partial::Agg(A::identity()),
            OpKind::Collect { .. } => Partial::Entries(Vec::new()),
        };

        let parent_id = match parent {
            ParentRef::Fictive => {
                let descend = match &op.kind {
                    // A replace always succeeds, so this also always descends.
                    OpKind::Insert { .. } | OpKind::Replace { .. } | OpKind::Remove { .. } => {
                        op.resolved_decision().success
                    }
                    _ => true,
                };
                if descend {
                    let mode = match &op.kind {
                        OpKind::RangeAgg { min, max } | OpKind::Collect { min, max } => {
                            Some(R::root_mode(*min, *max))
                        }
                        _ => None,
                    };
                    let root = Child {
                        at: None,
                        slot: &self.root_child,
                    };
                    self.continue_into_child(op, ts, root, mode, &mut partial, guard);
                }
                FICTIVE_ROOT_ID
            }
            ParentRef::Inner(inner) => {
                let child = |right| Child {
                    at: Some((&inner.route, right)),
                    slot: inner.child(right),
                };
                match &op.kind {
                    OpKind::Insert { key, .. }
                    | OpKind::Replace { key, .. }
                    | OpKind::Remove { key }
                    | OpKind::Lookup { key } => {
                        let right = R::goes_right(&inner.route, key);
                        self.continue_into_child(op, ts, child(right), None, &mut partial, guard);
                    }
                    OpKind::RangeAgg { min, max } => {
                        // The appendix's border modes (or whatever the policy
                        // derives instead): fully covered children contribute
                        // their stored aggregate instead of being descended.
                        let mode = R::mode_at(&op.modes, inner.id);
                        let steps = R::split(&inner.route, mode, min, max);
                        for (right, step) in [false, true].into_iter().zip(steps) {
                            match step {
                                Step::Skip => {}
                                Step::Absorb => {
                                    // ORDERING: Acquire pairs with the AcqRel child-slot CASes, so
                                    // the loaded subtree (and its state record) is initialised.
                                    let sibling = inner.child(right).load(Acquire, guard);
                                    // SAFETY: `sibling` was loaded from an epoch-protected slot
                                    // under `guard`; nodes are retired only via `defer_destroy`.
                                    let contribution =
                                        unsafe { sibling.deref() }.current_agg(guard);
                                    merge_agg::<K, V, A>(&mut partial, &contribution);
                                }
                                Step::Descend(mode) => self.continue_into_child(
                                    op,
                                    ts,
                                    child(right),
                                    Some(mode),
                                    &mut partial,
                                    guard,
                                ),
                            }
                        }
                    }
                    OpKind::Collect { min, max } => {
                        // A collect descends into every overlapping child.
                        // It records its mode like an aggregate although no
                        // helper reads it: on the BST the record makes a
                        // wide collect slower, and without it tree-mix's
                        // writers help twice as often (see ROADMAP).
                        let mode = R::root_mode(*min, *max);
                        let steps = R::split(&inner.route, mode, min, max);
                        for (right, step) in [false, true].into_iter().zip(steps) {
                            if !matches!(step, Step::Skip) {
                                self.continue_into_child(
                                    op,
                                    ts,
                                    child(right),
                                    Some(mode),
                                    &mut partial,
                                    guard,
                                );
                            }
                        }
                    }
                }
                inner.id
            }
        };

        // --- Step 2: record this node's partial result (unconditionally, to
        //     claim the node id against stalled helpers — §II-B). -----------
        op.processed.try_insert(parent_id, partial);

        // --- Step 3: remove the descriptor from this node's queue. ---------
        match parent {
            ParentRef::Fictive => {
                self.root_queue.pop_if(ts, guard);
            }
            ParentRef::Inner(inner) => {
                inner.queue.pop_if(ts, guard);
            }
        }
    }

    /// Resolves the effect of an update descriptor through the presence
    /// index, exactly once, and maintains the tree's size, counters and the
    /// timestamp front.
    fn resolve_update(&self, op: &OpRef<K, V, A, R>, ts: Timestamp, guard: &Guard) {
        let (key, update) = match &op.kind {
            OpKind::Insert { key, value } => (key, UpdateKind::Insert(value.clone())),
            OpKind::Replace { key, value } => (key, UpdateKind::Replace(value.clone())),
            OpKind::Remove { key } => (key, UpdateKind::Remove),
            _ => unreachable!("resolve_update called for a read-only operation"),
        };
        // Advertise the timestamp *before* the resolution can make the
        // update visible: a snapshot-front validation that still reads the
        // old advertised watermark afterwards has proof that no part of this
        // update was observable inside its window (monotone max, so a
        // stalled helper re-advertising an old timestamp is a no-op).
        self.advertised_ts
            // ORDERING: must be totally ordered against the SeqCst `advertised_ts` /
            // `resolved_ts` reads of the snapshot-front validation in `read.rs`;
            // Release alone would let a validator miss this update while also missing
            // its effects.
            // wft-lint: allow(seqcst) -- the snapshot-front proof needs the advertise, the update's effects and the validator's reads in one total order.
            .fetch_max(ts.get(), std::sync::atomic::Ordering::SeqCst);
        let (decision, first_application) =
            self.presence.resolve(key, ts, &update, &op.decision, guard);
        if first_application {
            // Exactly one process per descriptor reaches this branch, so the
            // size counter stays exact.
            if decision.success {
                match &op.kind {
                    OpKind::Insert { .. } => {
                        self.len.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        TreeCounters::bump(&self.counters.inserts);
                    }
                    OpKind::Replace { .. } => {
                        // A replace only grows the tree when the key was
                        // absent; overwrites leave the length unchanged.
                        if decision.prior_value.is_none() {
                            self.len.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        TreeCounters::bump(&self.counters.replaces);
                    }
                    OpKind::Remove { .. } => {
                        self.len.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                        TreeCounters::bump(&self.counters.removes);
                    }
                    _ => unreachable!(),
                }
            } else {
                TreeCounters::bump(&self.counters.failed_updates);
            }
        }
        // Resolution complete (whether by us or a faster helper — the
        // presence index call above only returns once the decision is
        // fixed): advance the resolved watermark. Every helper performs this
        // bump before it can pop the descriptor from the root queue, so
        // "popped" implies "resolved watermark advanced".
        self.resolved_ts
            // ORDERING: SeqCst for the same total-order reason as the advertise above —
            // the validator's `resolved_ts` read must be ordered against every helper's
            // bump, or "popped implies resolved" breaks.
            // wft-lint: allow(seqcst) -- pairs with the SeqCst resolved_ts reads in the snapshot-front validation; a weaker order could reorder the bump after the pop.
            .fetch_max(ts.get(), std::sync::atomic::Ordering::SeqCst);
    }

    /// Continues the execution of `op` into `child` (paper Listing 3, steps
    /// 2.1–2.2 plus the §II-E rebuild hook):
    ///
    /// * inner child — possibly rebuild it, register it in the traverse
    ///   queue, record the range aggregate's mode (`mode`), apply the
    ///   update's state delta (guarded by `Ts_Mod`) and `push_if` the
    ///   descriptor into its queue;
    /// * leaf / empty child — the operation bottoms out here: apply the
    ///   structural change (insert/remove) or fold the leaf's contribution
    ///   into the node's partial result (lookups and range queries).
    fn continue_into_child(
        &self,
        op: &OpRef<K, V, A, R>,
        ts: Timestamp,
        child: Child<'_, K, V, A, R>,
        mode: Option<R::Mode>,
        partial: &mut Partial<K, V, A::Agg>,
        guard: &Guard,
    ) {
        let slot = child.slot;
        // The rebuild threshold is evaluated at most once per continuation:
        // after a rebuild the slot is re-read and execution simply continues
        // in the fresh subtree (§II-E). Re-checking would loop forever for
        // rebuild factors below 1, where a freshly built single-entry subtree
        // immediately satisfies `mod_cnt + 1 > K · init_sz` again.
        let mut rebuild_checked = false;
        loop {
            // ORDERING: Acquire pairs with the AcqRel child-slot CASes (split, remove,
            // rebuild), so the observed node is fully initialised.
            let current = slot.load(Acquire, guard);
            // SAFETY: `current` was loaded from an epoch-protected slot under `guard`
            // and is only retired via `defer_destroy` after being unlinked.
            match unsafe { current.deref() } {
                Node::Inner(c) => {
                    if op.kind.is_update() && !rebuild_checked {
                        rebuild_checked = true;
                        if let Some(init_sz) = R::rebuild_size(&c.route) {
                            if self.rebuild_due(op, ts, c, init_sz, guard) {
                                self.rebuild_subtree(child.at, slot, current, ts, guard);
                                // Re-read the slot: it now holds the rebuilt
                                // subtree (built by us or by another helper).
                                continue;
                            }
                        }
                    }
                    // Make the child reachable for the initiator *before* the
                    // descriptor can be executed (and popped) there.
                    op.traverse.push(NodePtr::from_shared(current));
                    if let Some(mode) = mode {
                        R::record_mode(&op.modes, c.id, mode);
                    }
                    if op.kind.is_update() {
                        self.apply_state_delta(op, ts, c, guard);
                    }
                    c.queue.push_if(ts, op.clone(), guard);
                    return;
                }
                Node::Leaf(leaf) => {
                    self.execute_at_leaf(op, ts, &child, current, leaf, partial, guard);
                    return;
                }
                Node::Empty(empty) => {
                    self.execute_at_empty(op, ts, slot, current, empty, partial, guard);
                    return;
                }
            }
        }
    }

    /// `Mod_Cnt > K · Init_Sz` check (§II-E) for the inner child `c` that the
    /// successful update `op` is about to modify.
    fn rebuild_due(
        &self,
        op: &OpRef<K, V, A, R>,
        ts: Timestamp,
        c: &InnerNode<K, V, A, R>,
        init_sz: u64,
        guard: &Guard,
    ) -> bool {
        debug_assert!(op.resolved_decision().success);
        let state = c.load_state(guard);
        // `mod_cnt == 0 && ts_mod == ts - 1` is exactly the creation state of
        // a subtree rebuilt *by this operation* (the §II-E watermark): a
        // helper that arrives after the rebuild must not rebuild it again.
        // Without this guard, with rebuild factors below 1 a second helper
        // re-rebuilds the (tiny, instantly over-threshold) fresh subtree and
        // retires it while other helpers of the same operation are still
        // applying their state delta to it — the state-record double-free
        // behind the historical `heavy_rebuilds` SIGSEGV flake.
        let rebuilt_by_this_op = state.mod_cnt == 0 && state.ts_mod == ts.prev_saturating();
        state.ts_mod < ts
            && !rebuilt_by_this_op
            && ((state.mod_cnt + 1) as f64) > self.config.rebuild_factor * (init_sz.max(1) as f64)
    }

    /// Applies the augmentation delta of a successful update to an inner
    /// child's state, exactly once (the `Ts_Mod` CAS guard of §II-C).
    fn apply_state_delta(
        &self,
        op: &OpRef<K, V, A, R>,
        ts: Timestamp,
        child: &InnerNode<K, V, A, R>,
        guard: &Guard,
    ) {
        let decision = op.resolved_decision();
        if !decision.success {
            return;
        }
        let state_shared = child.load_state_shared(guard);
        // SAFETY: the state record was loaded from an epoch-protected slot under
        // `guard`; it is retired via `defer_destroy` only after the CAS below
        // replaces it.
        let state = unsafe { state_shared.deref() };
        if state.ts_mod >= ts {
            // Already applied by another helper.
            return;
        }
        let new_agg = match &op.kind {
            OpKind::Insert { key, value } => A::insert_delta(&state.agg, key, value),
            OpKind::Replace { key, value } => {
                // Net effect of an overwrite on a commutative-group
                // augmentation: add the new entry, subtract the displaced
                // one (a replace of an absent key is a plain insertion).
                let added = A::insert_delta(&state.agg, key, value);
                match decision.prior_value.as_ref() {
                    Some(prior) => A::remove_delta(&added, key, prior),
                    None => added,
                }
            }
            OpKind::Remove { key } => {
                let prior = decision
                    .prior_value
                    .as_ref()
                    .expect("a successful remove always knows the removed value");
                A::remove_delta(&state.agg, key, prior)
            }
            _ => unreachable!("state deltas only exist for updates"),
        };
        let new_state = Owned::new(NodeState {
            agg: new_agg,
            mod_cnt: state.mod_cnt + 1,
            ts_mod: ts,
        });
        // Whatever the outcome, the state is now updated exactly once: either
        // by us (success) or by the helper that beat us (failure).
        // ORDERING: success AcqRel — Release publishes the new state record's
        // fields to the Acquire `load_state` calls, Acquire orders the swap after
        // the `ts_mod` check above; failure Acquire reads the record a faster
        // helper installed.
        if child
            .state
            .compare_exchange(state_shared, new_state, AcqRel, Acquire, guard)
            .is_ok()
        {
            // SAFETY: our CAS unlinked `state_shared`; only one helper's CAS succeeds
            // for a given predecessor, so the record is retired exactly once, and
            // concurrent readers hold epoch guards.
            unsafe { guard.defer_destroy(state_shared) };
        }
    }

    /// Bottom-of-path handling when the continuation child is a leaf.
    #[allow(clippy::too_many_arguments)]
    fn execute_at_leaf(
        &self,
        op: &OpRef<K, V, A, R>,
        ts: Timestamp,
        child: &Child<'_, K, V, A, R>,
        current: Shared<'_, Node<K, V, A, R>>,
        leaf: &LeafNode<K, V>,
        partial: &mut Partial<K, V, A::Agg>,
        guard: &Guard,
    ) {
        match &op.kind {
            OpKind::Insert { key, value } | OpKind::Replace { key, value } => {
                if leaf.created_ts >= ts {
                    // The leaf was created by a *later* operation (or a
                    // rebuild that already accounted for us) — our change has
                    // already been applied by a faster helper and the slot
                    // has since been reused; touching it now would corrupt
                    // later operations' work.
                    return;
                }
                let new = if &leaf.key == key {
                    if matches!(op.kind, OpKind::Insert { .. }) {
                        // The leaf already carries the key: the insert's
                        // structural change was applied through a (re)built
                        // subtree. Nothing to do.
                        return;
                    }
                    // Replace bottoming out on its own key: swap in a leaf
                    // carrying the new value. The expected-pointer CAS makes
                    // this exactly-once among helpers; a stalled helper that
                    // arrives after a rebuild re-installs the same value
                    // (idempotent), since any leaf for this key with
                    // `created_ts < ts` predates our operation's effect or
                    // carries it verbatim.
                    Node::Leaf(LeafNode::new(*key, value.clone(), ts))
                } else {
                    // Split the leaf through the policy's builder; the new
                    // subtree's state already includes the new key.
                    let old = (leaf.key, leaf.value.clone());
                    R::split_leaf(child.at, old, (*key, value.clone()), ts, &self.ids)
                };
                swap_slot(child.slot, current, new, guard);
            }
            OpKind::Remove { key } => {
                if leaf.created_ts >= ts || &leaf.key != key {
                    // Either the leaf was already replaced through a rebuild
                    // that accounted for this removal, or it belongs to a
                    // later operation that reused the slot after our removal
                    // was applied; nothing to do (and the second case must
                    // not be touched).
                    return;
                }
                swap_slot(child.slot, current, Node::empty(ts), guard);
            }
            OpKind::Lookup { key } => {
                let found = if &leaf.key == key {
                    Some(leaf.value.clone())
                } else {
                    None
                };
                *partial = Partial::Lookup(Some(found));
            }
            OpKind::RangeAgg { min, max } => {
                if min <= &leaf.key && &leaf.key <= max {
                    let contribution = A::of_entry(&leaf.key, &leaf.value);
                    merge_agg::<K, V, A>(partial, &contribution);
                }
            }
            OpKind::Collect { min, max } => {
                if min <= &leaf.key && &leaf.key <= max {
                    if let Partial::Entries(entries) = partial {
                        entries.push((leaf.key, leaf.value.clone()));
                    }
                }
            }
        }
    }

    /// Bottom-of-path handling when the continuation child is an `Empty`
    /// placeholder.
    #[allow(clippy::too_many_arguments)]
    fn execute_at_empty(
        &self,
        op: &OpRef<K, V, A, R>,
        ts: Timestamp,
        slot: &Atomic<Node<K, V, A, R>>,
        current: Shared<'_, Node<K, V, A, R>>,
        empty: &EmptyNode,
        partial: &mut Partial<K, V, A::Agg>,
        guard: &Guard,
    ) {
        match &op.kind {
            OpKind::Insert { key, value } | OpKind::Replace { key, value } => {
                if empty.created_ts >= ts {
                    // The placeholder was created by a later removal: our
                    // insertion has already been applied (and possibly undone
                    // again) by later-linearized operations.
                    return;
                }
                let leaf = Node::Leaf(LeafNode::new(*key, value.clone(), ts));
                swap_slot(slot, current, leaf, guard);
            }
            OpKind::Remove { .. } => {
                // A successful remove never bottoms out at Empty (the key was
                // present at the linearization point and nothing else can
                // remove it before us); a stalled helper may get here after
                // the fact, in which case there is nothing to do.
            }
            OpKind::Lookup { .. } => {
                *partial = Partial::Lookup(Some(None));
            }
            OpKind::RangeAgg { .. } | OpKind::Collect { .. } => {
                // An empty position contributes nothing.
            }
        }
    }

    /// Rebuilds the subtree stored in `slot` (currently `old_child`) into a
    /// perfectly balanced one, as part of executing the operation with
    /// timestamp `op_ts` in the slot's owner (§II-E):
    ///
    /// 1. finish every operation still pending inside the subtree,
    /// 2. collect its entries,
    /// 3. build a balanced replacement whose queues/states carry the
    ///    watermark `op_ts - 1`,
    /// 4. CAS the slot; on failure another helper already installed an
    ///    equivalent replacement.
    pub(crate) fn rebuild_subtree(
        &self,
        at: SlotAt<'_, R::Route>,
        slot: &Atomic<Node<K, V, A, R>>,
        old_child: Shared<'_, Node<K, V, A, R>>,
        op_ts: Timestamp,
        guard: &Guard,
    ) {
        // 1. Finish pending work. Only operations older than `op_ts` can be
        // inside (later ones cannot pass us in the parent's queue).
        self.drain_subtree(old_child, guard);

        // 2. Collect the (now physically settled) entries.
        let mut entries = Vec::new();
        collect_subtree(old_child, &mut entries, guard);

        // 3. Build the balanced replacement.
        let watermark = op_ts.prev_saturating();
        let (new_node, _agg) = R::build::<V, A>(at, &entries, watermark, &self.ids);

        // 4. Swap it in.
        // ORDERING: success AcqRel — Release publishes the fully built balanced
        // subtree to the Acquire child loads, Acquire orders the swap after the
        // drain/collect above (the replacement must reflect every settled entry);
        // failure Acquire reads the subtree another helper installed.
        match slot.compare_exchange(old_child, Owned::new(new_node), AcqRel, Acquire, guard) {
            Ok(_) => {
                retire_subtree(old_child, guard);
                TreeCounters::bump(&self.counters.rebuilds);
                TreeCounters::add(&self.counters.rebuilt_items, entries.len() as u64);
                // Rebuilds are the update path's heavyweight anomaly; a
                // timestamped timeline of them (arg: items copied, low 16
                // bits) is what distinguishes a helping cascade from a
                // retry storm in a post-mortem.
                wft_obs::trace::emit(
                    wft_obs::TraceKind::HelpRebuild,
                    u16::try_from(entries.len()).unwrap_or(u16::MAX - 1),
                );
            }
            Err(e) => {
                // Another helper replaced the subtree first; ours was never
                // published and can be freed immediately.
                // SAFETY: the CAS failed, so our replacement subtree was never published;
                // this thread owns it exclusively and may free it in place.
                unsafe { free_subtree_now(e.new.into_shared(crossbeam_epoch::unprotected())) };
            }
        }
    }

    /// Executes every descriptor still queued anywhere in the subtree rooted
    /// at `node` (pre-order: a node's queue is drained before its children
    /// are visited, so descriptors pushed downwards by the drain are picked
    /// up later in the same pass).
    fn drain_subtree(&self, node: Shared<'_, Node<K, V, A, R>>, guard: &Guard) {
        if node.is_null() {
            return;
        }
        // SAFETY: `node` is a child pointer loaded under `guard` (or the slot value
        // passed in by `rebuild_subtree`, same guard); retirement goes through
        // `retire_subtree`, so the deref is valid.
        if let Node::Inner(inner) = unsafe { node.deref() } {
            loop {
                match inner.queue.peek(guard) {
                    None => break,
                    Some((head_ts, head_op)) => {
                        TreeCounters::bump(&self.counters.helped_executions);
                        self.execute_op_at(&head_op, head_ts, ParentRef::Inner(inner), guard);
                    }
                }
            }
            // ORDERING: Acquire pairs with the AcqRel child-slot CASes, so the drain
            // visits fully initialised children.
            self.drain_subtree(inner.left.load(Acquire, guard), guard);
            // ORDERING: as above, for the right child.
            self.drain_subtree(inner.right.load(Acquire, guard), guard);
        }
    }
}

/// Replaces the leaf or placeholder `current` in `slot` by `new`, exactly
/// once among racing helpers: the CAS winner retires `current`, a loser
/// frees its never-published `new` (a faster helper applied the change).
fn swap_slot<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>>(
    slot: &Atomic<Node<K, V, A, R>>,
    current: Shared<'_, Node<K, V, A, R>>,
    new: Node<K, V, A, R>,
    guard: &Guard,
) {
    // ORDERING: success AcqRel — Release publishes the new node (a leaf, a
    // placeholder or a fully built split subtree) to the Acquire child loads,
    // Acquire orders the swap after the caller's `created_ts` checks; failure
    // Acquire mirrors the success ordering.
    match slot.compare_exchange(current, Owned::new(new), AcqRel, Acquire, guard) {
        // SAFETY: our CAS unlinked `current` (single winner per expected pointer);
        // readers hold epoch guards until `defer_destroy` fires.
        Ok(_) => unsafe { guard.defer_destroy(current) },
        // SAFETY: the CAS failed, so `e.new` was never published; this thread owns
        // it exclusively and may free it in place.
        Err(e) => unsafe { free_subtree_now(e.new.into_shared(crossbeam_epoch::unprotected())) },
    }
}

/// Folds an aggregate contribution into a `Partial::Agg` accumulator.
fn merge_agg<K: Key, V: Value, A: Augmentation<K, V>>(
    partial: &mut Partial<K, V, A::Agg>,
    contribution: &A::Agg,
) {
    if let Partial::Agg(acc) = partial {
        *acc = A::combine(acc, contribution);
    }
}
