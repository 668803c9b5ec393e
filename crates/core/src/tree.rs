//! The public concurrent tree type.

use crossbeam_epoch::{Atomic, Guard};
use std::sync::atomic::{AtomicU64, Ordering};

use wft_queue::{PresenceIndex, Timestamp};
use wft_seq::{Augmentation, Key, Size, Value};

use crate::config::{ReadPath, RootQueueKind, TreeConfig, TreeCounters, TreeStats};
use crate::descriptor::{OpKind, OpRef};
use crate::node::{collect_subtree, free_subtree_now, IdAllocator, Node};
use crate::rootq::RootQueue;
use crate::routing::{Bst, Routing, SlotAt};

/// A linearizable concurrent ordered set/map with wait-free operations and
/// `O(log N)`-time aggregate range queries.
///
/// This is the data structure of *"Wait-free Trees with
/// Asymptotically-Efficient Range Queries"*: an external binary search tree
/// in which every operation is funnelled through per-node descriptor queues
/// and executed cooperatively ("hand-over-hand helping"), so that
///
/// * scalar operations ([`insert`](WaitFreeTree::insert),
///   [`remove`](WaitFreeTree::remove), [`contains`](WaitFreeTree::contains),
///   [`get`](WaitFreeTree::get)) take amortized `O(log N + |P|)` time,
/// * aggregate range queries ([`count`](WaitFreeTree::count),
///   [`range_agg`](WaitFreeTree::range_agg)) take amortized
///   `O(log N + |P|)` time instead of time linear in the range size,
/// * the linear-time [`collect_range`](WaitFreeTree::collect_range) of prior
///   work is also available,
/// * all operations are linearizable (ordered by their root-queue timestamp)
///   and free of locks; with the wait-free root queue
///   ([`RootQueueKind::WaitFree`]) every operation completes in a bounded
///   number of steps.
///
/// The tree is generic over the key, the value, the [`Augmentation`]
/// maintained in inner nodes and the [`Routing`] policy that gives the tree
/// its shape; the defaults (`V = ()`, `A = Size`, `R = Bst`) give the plain
/// integer-set BST evaluated in the paper. The helping engine is the same
/// for every policy: `wft-trie` instantiates it with bit routing.
///
/// # Example
///
/// ```
/// use wft_core::WaitFreeTree;
///
/// let tree: WaitFreeTree<i64> = WaitFreeTree::new();
/// tree.insert(3, ());
/// tree.insert(7, ());
/// tree.insert(40, ());
/// assert!(tree.contains(&7));
/// assert_eq!(tree.count(0, 10), 2);
/// tree.remove(&7);
/// assert_eq!(tree.count(0, 10), 1);
/// ```
pub struct WaitFreeTree<K: Key, V: Value = (), A: Augmentation<K, V> = Size, R: Routing<K> = Bst> {
    pub(crate) root_queue: RootQueue<OpRef<K, V, A, R>>,
    pub(crate) root_child: Atomic<Node<K, V, A, R>>,
    pub(crate) presence: PresenceIndex<K, V>,
    pub(crate) ids: IdAllocator,
    pub(crate) config: TreeConfig,
    pub(crate) counters: TreeCounters,
    pub(crate) len: AtomicU64,
    /// Highest update timestamp whose linearization has *begun*: bumped
    /// (monotone max) before the update is resolved through the presence
    /// index, i.e. before its effect can be observed by any read. See
    /// [`WaitFreeTree::stable_ts`].
    pub(crate) advertised_ts: AtomicU64,
    /// Highest update timestamp whose linearization has *completed* (the
    /// presence-index resolution returned). Always `<= advertised_ts`;
    /// equality means no update is mid-linearization.
    pub(crate) resolved_ts: AtomicU64,
}

// SAFETY: the tree owns its nodes, queues and presence index; all shared
// mutation goes through atomics/epoch pointers, and the `Key`/`Value`
// bounds require `Send + Sync + 'static` for the payload.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Send
    for WaitFreeTree<K, V, A, R>
{
}
// SAFETY: same argument as `Send` — shared access only follows
// atomically-published, epoch-protected pointers.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Sync
    for WaitFreeTree<K, V, A, R>
{
}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Default for WaitFreeTree<K, V, A, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> WaitFreeTree<K, V, A, R> {
    /// Creates an empty tree with the default configuration (lock-free root
    /// queue, rebuild factor 1).
    pub fn new() -> Self {
        Self::with_config(TreeConfig::default())
    }

    /// Creates an empty tree with an explicit [`TreeConfig`].
    pub fn with_config(config: TreeConfig) -> Self {
        config.validate();
        let root_queue = match config.root_queue {
            RootQueueKind::LockFree => RootQueue::lock_free(),
            RootQueueKind::WaitFree { slots } => RootQueue::wait_free(slots),
        };
        WaitFreeTree {
            root_queue,
            root_child: Atomic::new(Node::empty(Timestamp::ZERO)),
            presence: PresenceIndex::with_buckets(config.presence_buckets),
            ids: IdAllocator::default(),
            config,
            counters: TreeCounters::default(),
            len: AtomicU64::new(0),
            advertised_ts: AtomicU64::new(0),
            resolved_ts: AtomicU64::new(0),
        }
    }

    /// Builds a tree containing `entries` (duplicates keep the first value)
    /// with the default configuration; the BST comes out perfectly
    /// balanced.
    pub fn from_entries<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        Self::from_entries_with_config(entries, TreeConfig::default())
    }

    /// Builds a pre-populated tree with an explicit configuration. This is
    /// how the benchmark harness creates the pre-filled trees of the paper's
    /// experiments without paying one queue round-trip per initial key.
    pub fn from_entries_with_config<I: IntoIterator<Item = (K, V)>>(
        entries: I,
        config: TreeConfig,
    ) -> Self {
        let tree = Self::with_config(config);
        let mut sorted: Vec<(K, V)> = entries.into_iter().collect();
        sorted.sort_by_key(|a| a.0);
        sorted.dedup_by(|a, b| a.0 == b.0);
        let guard = crossbeam_epoch::pin();
        for (key, value) in &sorted {
            tree.presence.prefill(*key, value.clone(), &guard);
        }
        let (root, _agg) = R::build::<V, A>(None, &sorted, Timestamp::ZERO, &tree.ids);
        // The tree is still private to this thread: a plain store is fine and
        // the initial Empty placeholder can be freed immediately.
        // ORDERING: AcqRel out of caution only — the tree is still private to this
        // thread (see above), so the swap cannot race; Release publishes the
        // prefilled subtree to whichever thread the tree is moved to.
        let old = tree
            .root_child
            .swap(crossbeam_epoch::Owned::new(root), Ordering::AcqRel, &guard);
        // SAFETY: the tree is still private to this thread, so nothing else can
        // reach the placeholder that was just swapped out.
        unsafe { free_subtree_now(old) };
        tree.len.store(sorted.len() as u64, Ordering::Relaxed);
        tree
    }

    /// Inserts `key → value`. Returns `true` if the key was absent (the
    /// paper's `insert` semantics: an existing key leaves the tree, and its
    /// value, unmodified).
    pub fn insert(&self, key: K, value: V) -> bool {
        let (op, _ts) = self.run_operation(OpKind::Insert { key, value });
        op.resolved_decision().success
    }

    /// Inserts `key → value`, overwriting any existing value; returns the
    /// value it replaced, if any (the atomic upsert).
    ///
    /// This executes as a **single** [`OpKind::Replace`] descriptor: one
    /// root-queue enqueue, one linearization point, helped like any other
    /// update, with the augmentation delta (new entry in, displaced entry
    /// out) applied eagerly top-down. There is no window in which a
    /// concurrent reader can observe the key absent, unlike a
    /// `remove` + `insert` composition.
    pub fn insert_or_replace(&self, key: K, value: V) -> Option<V> {
        let (op, _ts) = self.run_operation(OpKind::Replace { key, value });
        op.resolved_decision().prior_value.clone()
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&self, key: &K) -> bool {
        let (op, _ts) = self.run_operation(OpKind::Remove { key: *key });
        op.resolved_decision().success
    }

    /// Removes `key` and returns the value it was mapped to, if any.
    pub fn remove_entry(&self, key: &K) -> Option<V> {
        let (op, _ts) = self.run_operation(OpKind::Remove { key: *key });
        let decision = op.resolved_decision();
        if decision.success {
            decision.prior_value.clone()
        } else {
            None
        }
    }

    /// Returns `true` if `key` is in the tree.
    ///
    /// Presence-only: with [`ReadPath::Fast`] (the default) this is one
    /// presence-index bucket load — `O(1)`, no descriptor, no root-queue
    /// enqueue, and the value is **never cloned**. Under
    /// [`ReadPath::Descriptor`] the lookup runs as a full descriptor but the
    /// result is still assembled without cloning the value.
    pub fn contains(&self, key: &K) -> bool {
        if self.config.read_path == ReadPath::Fast {
            TreeCounters::bump(&self.counters.fast_point_reads);
            let guard = crossbeam_epoch::pin();
            return self.presence.contains_key(key, &guard);
        }
        let (op, _ts) = self.run_operation(OpKind::Lookup { key: *key });
        op.assemble_lookup_present()
    }

    /// Returns the value associated with `key`, if any.
    ///
    /// With [`ReadPath::Fast`] (the default) the value comes straight from
    /// the presence index — the tree's resolution authority, where every
    /// update's effect is fixed at its linearization point — in `O(1)` with
    /// a single clone of the returned value (see `crate::read`).
    pub fn get(&self, key: &K) -> Option<V> {
        if self.config.read_path == ReadPath::Fast {
            TreeCounters::bump(&self.counters.fast_point_reads);
            let guard = crossbeam_epoch::pin();
            return self.presence.read_value(key, &guard);
        }
        let (op, _ts) = self.run_operation(OpKind::Lookup { key: *key });
        op.assemble_lookup()
    }

    /// Aggregate of every entry with key in `[min, max]` under the tree's
    /// augmentation — the paper's asymptotically efficient aggregate range
    /// query (`count`, `range_sum`, ... depending on `A`).
    ///
    /// With [`ReadPath::Fast`] (the default) the query first attempts an
    /// optimistic descriptor-free traversal that validates its read set and
    /// falls back to the descriptor path on contention (see `crate::read`
    /// for the linearization argument and the fallback conditions).
    pub fn range_agg(&self, min: K, max: K) -> A::Agg {
        if min > max {
            return A::identity();
        }
        if self.config.read_path == ReadPath::Fast {
            if let Some(agg) =
                self.optimistic(None, |guard| self.try_fast_range_agg(min, max, guard))
            {
                return agg;
            }
            self.note_range_fallback();
        }
        let (op, _ts) = self.run_operation(OpKind::RangeAgg { min, max });
        op.assemble_agg()
    }

    /// Every `(key, value)` with key in `[min, max]`, in key order. Linear in
    /// the number of reported entries (the `collect` query of prior work).
    ///
    /// Attempts the same optimistic descriptor-free traversal as
    /// [`range_agg`](WaitFreeTree::range_agg) under [`ReadPath::Fast`].
    pub fn collect_range(&self, min: K, max: K) -> Vec<(K, V)> {
        self.collect_range_limited(min, max, usize::MAX)
    }

    /// The (up to) `limit` smallest entries with key in `[min, max]`, in key
    /// order — the chunk primitive of the streaming scan API
    /// (`wft_api::RangeScan`).
    ///
    /// Under [`ReadPath::Fast`] (the default) the optimistic traversal
    /// **early-exits** once `limit` entries are gathered, so a chunk costs
    /// `O(log N + limit)` instead of `O(answer)`: skipped subtrees only
    /// cover keys beyond the last collected one, so the result is provably
    /// a prefix of the full listing (see `crate::read`). Early exits are
    /// counted in [`TreeStats::fast_range_early_exits`]. The descriptor
    /// fallback collects the full range and truncates — correct, linear,
    /// and only taken when every optimistic attempt failed validation.
    pub fn collect_range_limited(&self, min: K, max: K, limit: usize) -> Vec<(K, V)> {
        if min > max || limit == 0 {
            return Vec::new();
        }
        if self.config.read_path == ReadPath::Fast {
            if let Some(entries) = self.optimistic(None, |guard| {
                self.try_fast_collect_limited_counted(min, max, limit, guard)
            }) {
                return entries;
            }
            self.note_range_fallback();
        }
        let (op, _ts) = self.run_operation(OpKind::Collect { min, max });
        let mut entries = op.assemble_entries();
        entries.truncate(limit);
        entries
    }

    /// Number of keys currently stored (exact once all in-flight updates have
    /// returned; maintained at update linearization points).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when the tree stores no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tree's configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// A snapshot of the operational counters (helping events, rebuilds, …).
    pub fn stats(&self) -> TreeStats {
        self.counters.snapshot()
    }

    /// Runs up to [`TreeConfig::fast_read_attempts`] optimistic attempts of
    /// a range read, counting the hit and the retries; `None` when every
    /// attempt failed validation. A plain read counts a retry only when
    /// another attempt follows (a failed validation usually means one
    /// in-flight update, so a bounded retry beats paying the descriptor
    /// slow path). A read anchored at `front` counts every failed attempt
    /// and gives up as soon as the front expired.
    fn optimistic<T>(
        &self,
        front: Option<Timestamp>,
        mut attempt: impl FnMut(&Guard) -> Option<T>,
    ) -> Option<T> {
        let guard = crossbeam_epoch::pin();
        let attempts = self.config.fast_read_attempts;
        for n in 1..=attempts {
            if let Some(out) = attempt(&guard) {
                TreeCounters::bump(&self.counters.fast_range_hits);
                return Some(out);
            }
            match front {
                Some(front) => {
                    TreeCounters::bump(&self.counters.fast_range_retries);
                    if !self.front_unchanged(front) {
                        return None;
                    }
                }
                None if n < attempts => TreeCounters::bump(&self.counters.fast_range_retries),
                None => {}
            }
        }
        None
    }

    /// [`Self::try_fast_collect_limited`], counting a walk that the limit cut
    /// short in [`TreeStats::fast_range_early_exits`].
    fn try_fast_collect_limited_counted(
        &self,
        min: K,
        max: K,
        limit: usize,
        guard: &Guard,
    ) -> Option<Vec<(K, V)>> {
        let (entries, early_exit) = self.try_fast_collect_limited(min, max, limit, guard)?;
        if early_exit {
            TreeCounters::bump(&self.counters.fast_range_early_exits);
        }
        Some(entries)
    }

    /// Counts a descriptor-path fallback and drops a timeline event into
    /// the global trace ring: fallbacks are the tree's per-read anomaly
    /// signal, and a burst of them is exactly what a post-mortem needs to
    /// see with timestamps (cf. `wft_obs::trace`).
    fn note_range_fallback(&self) {
        TreeCounters::bump(&self.counters.range_fallbacks);
        wft_obs::trace::emit(wft_obs::TraceKind::RangeFallback, wft_obs::NO_SHARD);
    }

    // -- the timestamp front ------------------------------------------------

    /// The **stable watermark**: the latest root-queue timestamp whose update
    /// effects are fully resolved through the presence index. Every update
    /// with a timestamp `<= stable_ts()` has linearized; an update with a
    /// larger timestamp may be mid-linearization (see
    /// [`settle_front`](WaitFreeTree::settle_front) for a quiescent value).
    ///
    /// Updates resolve strictly in root-queue order (only the queue head is
    /// resolved), so this single number is a complete description of the
    /// linearized prefix. Read descriptors never advance it.
    pub fn stable_ts(&self) -> Timestamp {
        // ORDERING: pairs with the SeqCst `resolved_ts` fetch_max in
        // `resolve_update`; the watermark read must be totally ordered against
        // every helper's bump.
        // wft-lint: allow(seqcst) -- the stable watermark is only meaningful in the single total order the SeqCst resolve bumps establish.
        Timestamp(self.resolved_ts.load(Ordering::SeqCst))
    }

    /// The **advertised watermark**: the latest update timestamp whose
    /// linearization has *begun*. It is advanced before the update's effect
    /// can be observed by any read, which is what makes "advertised watermark
    /// unchanged across a window" mean "no update became visible inside the
    /// window" — the validation rule of the snapshot front.
    pub fn advertised_ts(&self) -> Timestamp {
        // ORDERING: pairs with the SeqCst `advertised_ts` fetch_max in
        // `resolve_update` (advertise-before-resolve).
        // wft-lint: allow(seqcst) -- the snapshot-front proof needs the advertise bump, the update's effects and this read in one total order.
        Timestamp(self.advertised_ts.load(Ordering::SeqCst))
    }

    /// Acquires a **settled front**: a watermark observed at an instant with
    /// no update mid-linearization (`advertised == resolved`). If an update
    /// is in flight, the caller *helps* execute the root-queue head — the
    /// same helping any descriptor operation performs — so the loop is
    /// lock-free: each iteration either returns or completes a concurrent
    /// update's root-level work.
    ///
    /// A front returned here is the anchor of a snapshot read: as long as
    /// [`advertised_ts`](WaitFreeTree::advertised_ts) still equals it, the
    /// tree's abstract state is unchanged since the acquisition instant.
    pub fn settle_front(&self) -> Timestamp {
        let guard = crossbeam_epoch::pin();
        loop {
            // ORDERING: pairs with the SeqCst advertise bump in `resolve_update`.
            // wft-lint: allow(seqcst) -- the advertised/resolved double-read below is only meaningful in the gauge's single total order.
            let advertised = self.advertised_ts.load(Ordering::SeqCst);
            // ORDERING: pairs with the SeqCst resolve bump in `resolve_update`.
            // wft-lint: allow(seqcst) -- comparing the two watermarks cross-thread requires the single total order of their SeqCst bumps.
            if self.resolved_ts.load(Ordering::SeqCst) >= advertised {
                // Quiescent instant — but only if nothing new was advertised
                // while we looked at `resolved`.
                // ORDERING: re-validates `advertised` in the same total order.
                // wft-lint: allow(seqcst) -- an advertise between the two reads must be impossible to miss, which only the SeqCst total order guarantees.
                if self.advertised_ts.load(Ordering::SeqCst) == advertised {
                    return Timestamp(advertised);
                }
            } else if let Some((head_ts, head_op)) = self.root_queue.peek(&guard) {
                // An update is mid-linearization; it sits at the root-queue
                // head for the whole window (it is only resolved as the head
                // and only popped afterwards). Help it to completion.
                TreeCounters::bump(&self.counters.helped_executions);
                self.execute_op_at(&head_op, head_ts, crate::exec::ParentRef::Fictive, &guard);
            }
            // `resolved < advertised` with an empty queue: the resolving
            // helper is between its two watermark bumps — re-read.
            std::hint::spin_loop();
        }
    }

    /// `true` while no update has begun linearizing past `front` — the
    /// validation half of the snapshot sandwich.
    pub fn front_unchanged(&self, front: Timestamp) -> bool {
        // ORDERING: pairs with the SeqCst advertise bump in `resolve_update` — an
        // unchanged advertised watermark proves no update began linearizing.
        // wft-lint: allow(seqcst) -- the validation must observe every advertise bump that could have made an update visible inside the window; needs the total order.
        self.advertised_ts.load(Ordering::SeqCst) == front.get()
    }

    /// `true` while the tree is still exactly at the settled `front`: fully
    /// resolved up to it and nothing advertised past it.
    fn at_front(&self, front: Timestamp) -> bool {
        // ORDERING: pairs with the SeqCst resolve bump in `resolve_update`.
        // wft-lint: allow(seqcst) -- front anchoring compares both SeqCst watermarks; a weaker read could see a stale resolved value and accept an expired front.
        self.resolved_ts.load(Ordering::SeqCst) == front.get() && self.front_unchanged(front)
    }

    /// [`range_agg`](WaitFreeTree::range_agg) **at** a settled front: returns
    /// the aggregate of the tree state at exactly `front`, or `None` when the
    /// tree has advanced past it (the caller re-settles and retries). Named
    /// `*_at_front` — not `*_at` — so it cannot shadow the
    /// `SnapshotToken`-typed `wft_api::SnapshotRead::range_agg_at`.
    ///
    /// Under [`ReadPath::Fast`] the read is **optimistic-only**: bounded
    /// descriptor-free attempts, bailing out with `None` the moment the
    /// advertised front moves, and *never* falling back to the descriptor
    /// path. A failed fast validation at a still-unchanged front means an
    /// update is mid-linearization — the front is about to expire, so a
    /// descriptor read would do `O(answer)` work (helped, and therefore
    /// re-done, by every concurrent updater it blocks) only to have its
    /// final front check discard the result. Reporting expiry keeps
    /// front-anchored reads from ever stalling the update pipeline; the
    /// caller's contract is unchanged (`None` ⇒ re-settle and retry).
    /// The front checks before and after the read prove its linearization
    /// instant fell inside a window in which the state was constant and
    /// equal to the state at `front`.
    pub fn range_agg_at_front(&self, min: K, max: K, front: Timestamp) -> Option<A::Agg> {
        if !self.at_front(front) {
            return None;
        }
        let agg = if min > max {
            A::identity()
        } else if self.config.read_path == ReadPath::Fast {
            self.optimistic(Some(front), |guard| {
                self.try_fast_range_agg(min, max, guard)
            })?
        } else {
            self.range_agg(min, max)
        };
        self.front_unchanged(front).then_some(agg)
    }

    /// [`collect_range`](WaitFreeTree::collect_range) at a settled front; see
    /// [`range_agg_at_front`](WaitFreeTree::range_agg_at_front) — including
    /// the optimistic-only read discipline under [`ReadPath::Fast`].
    pub fn collect_range_at_front(&self, min: K, max: K, front: Timestamp) -> Option<Vec<(K, V)>> {
        self.collect_range_limited_at_front(min, max, usize::MAX, front)
    }

    /// [`collect_range_limited`](WaitFreeTree::collect_range_limited) at a
    /// settled front: the `limit` smallest entries of `[min, max]` in the
    /// tree state at exactly `front`, or `None` once the tree advanced past
    /// it. This is the per-shard chunk read of the sharded store's
    /// streaming scan cursor, with the same optimistic-only discipline as
    /// [`range_agg_at_front`](WaitFreeTree::range_agg_at_front).
    pub fn collect_range_limited_at_front(
        &self,
        min: K,
        max: K,
        limit: usize,
        front: Timestamp,
    ) -> Option<Vec<(K, V)>> {
        if !self.at_front(front) {
            return None;
        }
        let entries = if min > max || limit == 0 {
            Vec::new()
        } else if self.config.read_path == ReadPath::Fast {
            self.optimistic(Some(front), |guard| {
                self.try_fast_collect_limited_counted(min, max, limit, guard)
            })?
        } else {
            self.collect_range_limited(min, max, limit)
        };
        self.front_unchanged(front).then_some(entries)
    }

    /// All entries in key order.
    ///
    /// **Quiescent only**: the caller must guarantee no concurrent
    /// operations; intended for tests, examples and experiment validation.
    pub fn entries_quiescent(&self) -> Vec<(K, V)> {
        let guard = crossbeam_epoch::pin();
        let mut out = Vec::new();
        collect_subtree(
            // ORDERING: Acquire pairs with the AcqRel child-slot CASes; quiescent use.
            self.root_child.load(Ordering::Acquire, &guard),
            &mut out,
            &guard,
        );
        out
    }

    /// Validates the structural invariants of the tree: the routing
    /// policy's route check at every inner node, augmentation freshness of
    /// every inner node, emptiness of every descriptor queue, agreement
    /// between the stored length, the presence index and the physical
    /// leaves.
    ///
    /// **Quiescent only**; panics on violation. Intended for tests.
    pub fn check_invariants(&self) {
        let guard = crossbeam_epoch::pin();
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes; quiescent use.
        let root = self.root_child.load(Ordering::Acquire, &guard);
        let entries = check_node::<K, V, A, R>(root, None, &guard);
        assert_eq!(
            entries.len() as u64,
            self.len(),
            "cached length diverged from the physical leaf count"
        );
        for (key, _) in &entries {
            assert!(
                self.presence.is_present(key, &guard),
                "leaf key {key:?} missing from the presence index"
            );
        }
    }
}

impl<K: Key, V: Value, R: Routing<K>> WaitFreeTree<K, V, Size, R> {
    /// Number of keys in `[min, max]` — the paper's headline `count` query,
    /// running in `O(log N + |P|)` amortized time.
    pub fn count(&self, min: K, max: K) -> u64 {
        self.range_agg(min, max)
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Drop for WaitFreeTree<K, V, A, R> {
    fn drop(&mut self) {
        // Exclusive access: free the whole tree. Queues, the presence index
        // and the root queue free themselves through their own Drop impls.
        // SAFETY: `drop` takes `&mut self`, so no other thread can reach the tree;
        // the unprotected guard and immediate free are sound.
        unsafe {
            let root = self
                .root_child
                .load(Ordering::Relaxed, crossbeam_epoch::unprotected());
            free_subtree_now(root);
        }
    }
}

/// Recursive invariant checker (quiescent): checks the subtree in slot `at`
/// and returns its entries in key order.
fn check_node<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>>(
    node: crossbeam_epoch::Shared<'_, Node<K, V, A, R>>,
    at: SlotAt<'_, R::Route>,
    guard: &Guard,
) -> Vec<(K, V)> {
    if node.is_null() {
        return Vec::new();
    }
    // SAFETY: quiescent walk — `node` came from the root slot (or a child
    // slot) under `guard` and nothing is being retired concurrently.
    match unsafe { node.deref() } {
        Node::Empty(_) => Vec::new(),
        Node::Leaf(leaf) => vec![(leaf.key, leaf.value.clone())],
        Node::Inner(inner) => {
            assert!(
                inner.queue.is_empty(guard),
                "descriptor queue not empty in a quiescent tree"
            );
            let mut entries = check_node::<K, V, A, R>(
                // ORDERING: Acquire pairs with the AcqRel child-slot CASes; quiescent use.
                inner.left.load(Ordering::Acquire, guard),
                Some((&inner.route, false)),
                guard,
            );
            let right = check_node::<K, V, A, R>(
                // ORDERING: as above, for the right child.
                inner.right.load(Ordering::Acquire, guard),
                Some((&inner.route, true)),
                guard,
            );
            R::check_route(at, &inner.route, &entries, &right);
            entries.extend(right);
            // The stored aggregate must equal the aggregate recomputed from
            // the leaves below.
            let expect = entries
                .iter()
                .fold(A::identity(), |acc, (k, v)| A::insert_delta(&acc, k, v));
            assert_eq!(
                &inner.load_state(guard).agg,
                &expect,
                "stored augmentation value is stale"
            );
            entries
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_properties() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert!(!tree.contains(&1));
        assert_eq!(tree.count(i64::MIN, i64::MAX), 0);
        assert!(tree.collect_range(i64::MIN, i64::MAX).is_empty());
        assert!(!tree.remove(&1));
        tree.check_invariants();
    }

    #[test]
    fn single_thread_insert_remove_contains() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::new();
        assert!(tree.insert(5, ()));
        assert!(!tree.insert(5, ()));
        assert!(tree.insert(1, ()));
        assert!(tree.insert(9, ()));
        assert_eq!(tree.len(), 3);
        assert!(tree.contains(&5));
        assert!(tree.contains(&1));
        assert!(tree.contains(&9));
        assert!(!tree.contains(&2));
        assert!(tree.remove(&5));
        assert!(!tree.remove(&5));
        assert!(!tree.contains(&5));
        assert_eq!(tree.len(), 2);
        tree.check_invariants();
    }

    #[test]
    fn count_and_collect_agree_single_thread() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::new();
        for k in (0..200).step_by(3) {
            tree.insert(k, ());
        }
        for (min, max) in [(0, 199), (10, 50), (-100, 5), (150, 400), (60, 60), (7, 3)] {
            assert_eq!(
                tree.count(min, max),
                tree.collect_range(min, max).len() as u64,
                "range [{min}, {max}]"
            );
        }
        tree.check_invariants();
    }

    #[test]
    fn get_and_remove_entry_return_values() {
        let tree: WaitFreeTree<i64, String> = WaitFreeTree::new();
        assert!(tree.insert(1, "one".into()));
        assert!(!tree.insert(1, "uno".into()));
        assert_eq!(tree.get(&1), Some("one".to_string()));
        assert_eq!(tree.remove_entry(&1), Some("one".to_string()));
        assert_eq!(tree.remove_entry(&1), None);
        assert_eq!(tree.get(&1), None);
    }

    #[test]
    fn rebuilds_keep_the_tree_usable() {
        let cfg = TreeConfig {
            rebuild_factor: 0.5,
            ..TreeConfig::default()
        };
        let tree: WaitFreeTree<i64> = WaitFreeTree::with_config(cfg);
        for k in 0..2000 {
            tree.insert(k, ());
        }
        assert!(
            tree.stats().rebuilds > 0,
            "sorted insertions must trigger rebuilds"
        );
        for k in 0..2000 {
            assert!(tree.contains(&k), "key {k} lost after rebuilds");
        }
        assert_eq!(tree.count(0, 1999), 2000);
        tree.check_invariants();
    }

    #[test]
    fn wait_free_root_queue_variant_works() {
        let cfg = TreeConfig {
            root_queue: RootQueueKind::WaitFree { slots: 8 },
            ..TreeConfig::default()
        };
        let tree: WaitFreeTree<i64> = WaitFreeTree::with_config(cfg);
        for k in 0..500 {
            assert!(tree.insert(k, ()));
        }
        assert_eq!(tree.count(0, 499), 500);
        assert_eq!(tree.len(), 500);
        tree.check_invariants();
    }

    #[test]
    fn replace_maintains_augmentations() {
        use wft_seq::{Pair, Sum};
        let tree: WaitFreeTree<i64, i64, Pair<Size, Sum>> =
            WaitFreeTree::from_entries((0..100).map(|k| (k, k)));
        // Overwrite every even key's value with 1000 + k.
        for k in (0..100).step_by(2) {
            assert_eq!(tree.insert_or_replace(k, 1000 + k), Some(k));
        }
        let (count, sum) = tree.range_agg(0, 99);
        assert_eq!(count, 100);
        let expect: i128 = (0..100i64)
            .map(|k| if k % 2 == 0 { 1000 + k } else { k } as i128)
            .sum();
        assert_eq!(sum, expect);
        tree.check_invariants();
    }

    #[test]
    fn replace_survives_rebuilds() {
        let cfg = TreeConfig {
            rebuild_factor: 0.5,
            ..TreeConfig::default()
        };
        let tree: WaitFreeTree<i64, i64> = WaitFreeTree::with_config(cfg);
        for k in 0..1000 {
            tree.insert_or_replace(k, k);
        }
        for k in 0..1000 {
            assert_eq!(tree.insert_or_replace(k, -k), Some(k));
        }
        assert!(tree.stats().rebuilds > 0, "sorted upserts must rebuild");
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.get(&999), Some(-999));
        tree.check_invariants();
    }

    #[test]
    fn fast_read_counters_track_hits() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..100).map(|k| (k, ())));
        assert!(tree.contains(&5));
        assert!(tree.get(&6).is_some());
        assert_eq!(tree.count(0, 99), 100);
        assert_eq!(tree.collect_range(10, 12).len(), 3);
        let stats = tree.stats();
        assert_eq!(stats.fast_point_reads, 2);
        assert_eq!(
            stats.fast_range_hits, 2,
            "quiescent range reads must validate"
        );
        assert_eq!(stats.range_fallbacks, 0);

        let desc: WaitFreeTree<i64> = WaitFreeTree::with_config(TreeConfig {
            read_path: ReadPath::Descriptor,
            ..TreeConfig::default()
        });
        desc.insert(1, ());
        assert!(desc.contains(&1));
        assert_eq!(desc.get(&2), None);
        assert_eq!(desc.count(0, 10), 1);
        let stats = desc.stats();
        assert_eq!(stats.fast_point_reads, 0, "descriptor path counts nothing");
        assert_eq!(stats.fast_range_hits, 0);
    }

    #[test]
    fn front_bounded_reads_succeed_then_expire() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..50).map(|k| (k, ())));
        let front = tree.settle_front();
        assert_eq!(tree.range_agg_at_front(0, 49, front), Some(50));
        assert_eq!(
            tree.collect_range_at_front(10, 12, front).map(|v| v.len()),
            Some(3)
        );
        tree.remove(&25);
        assert_eq!(tree.range_agg_at_front(0, 49, front), None, "front expired");
        assert_eq!(tree.collect_range_at_front(0, 49, front), None);
        let fresh = tree.settle_front();
        assert_eq!(tree.range_agg_at_front(0, 49, fresh), Some(49));
    }

    #[test]
    fn bounded_retry_config_is_validated() {
        let cfg = TreeConfig {
            fast_read_attempts: 1,
            ..TreeConfig::default()
        };
        let tree: WaitFreeTree<i64> = WaitFreeTree::with_config(cfg);
        tree.insert(1, ());
        assert_eq!(tree.count(0, 5), 1);
        assert_eq!(tree.stats().fast_range_retries, 0, "one attempt, no retry");
    }

    #[test]
    #[should_panic(expected = "at least one optimistic attempt")]
    fn zero_fast_read_attempts_rejected() {
        let cfg = TreeConfig {
            fast_read_attempts: 0,
            ..TreeConfig::default()
        };
        let _: WaitFreeTree<i64> = WaitFreeTree::with_config(cfg);
    }

    #[test]
    fn concurrent_replaces_of_one_key_form_a_total_order() {
        use std::sync::Arc;
        let tree: Arc<WaitFreeTree<i64, i64>> = Arc::new(WaitFreeTree::new());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        tree.insert_or_replace(7, t * 1000 + i);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(tree.len(), 1);
        // Exactly one writer's final value survives, and it is a value some
        // thread actually wrote last in its loop.
        let survivor = tree.get(&7).expect("key must be present");
        assert!((0..4).any(|t| survivor == t * 1000 + 249));
        tree.check_invariants();
    }
}
