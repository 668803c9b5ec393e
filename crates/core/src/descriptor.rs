//! Operation descriptors (§II-B).
//!
//! A descriptor is the shared record through which an operation is executed
//! cooperatively: it is enqueued at the root, propagated into per-node queues
//! and *helped* by any process that finds it ahead of its own operation. The
//! descriptor carries everything helpers need —
//!
//! * the operation itself ([`OpKind`]),
//! * the write-once [`Decision`] resolved at the linearization point for
//!   updates,
//! * the `Processed` first-write-wins map of per-node partial results,
//! * the routing policy's per-node mode record (the [`RangeMode`] map
//!   telling helpers which border of a range query applies at a node, for
//!   the [`Bst`]),
//! * the `Traverse` queue of nodes the initiator still has to visit.
//!
//! Descriptors are reference-counted (`Arc`); queues hold clones of the
//! handle, so a descriptor lives until the last queue node referencing it is
//! reclaimed.

use std::sync::Arc;
use std::sync::OnceLock;

use wft_queue::{Decision, FirstWriteMap, TraverseQueue};
use wft_seq::{Augmentation, Key, Value};

use crate::node::{NodeId, NodePtr};
use crate::routing::{Bst, Routing};

/// Shared handle to a descriptor.
pub type OpRef<K, V, A, R = Bst> = Arc<Descriptor<K, V, A, R>>;

/// The operation a descriptor performs.
#[derive(Debug, Clone)]
pub enum OpKind<K, V> {
    /// `insert(key, value)`: add the key if absent.
    Insert {
        /// Key to insert.
        key: K,
        /// Value to associate.
        value: V,
    },
    /// `replace(key, value)`: add the key or overwrite its value — the
    /// atomic upsert. Unlike `Insert` it always takes effect; its decision
    /// records the overwritten value. One descriptor, one root-queue
    /// timestamp: the operation linearizes exactly like every other update
    /// instead of composing `remove` + `insert`.
    Replace {
        /// Key to insert or overwrite.
        key: K,
        /// Value to associate.
        value: V,
    },
    /// `remove(key)`: delete the key if present.
    Remove {
        /// Key to remove.
        key: K,
    },
    /// `contains(key)` / `get(key)`: look the key up.
    Lookup {
        /// Key to look up.
        key: K,
    },
    /// Aggregate range query over `[min, max]` (`count`, `range_sum`, ...):
    /// logarithmic time thanks to the augmentation.
    RangeAgg {
        /// Lower bound (inclusive).
        min: K,
        /// Upper bound (inclusive).
        max: K,
    },
    /// `collect(min, max)`: list all entries in `[min, max]` (linear in the
    /// output size, like prior work).
    Collect {
        /// Lower bound (inclusive).
        min: K,
        /// Upper bound (inclusive).
        max: K,
    },
}

impl<K: Key, V: Value> OpKind<K, V> {
    /// `true` for operations that may modify the tree.
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            OpKind::Insert { .. } | OpKind::Replace { .. } | OpKind::Remove { .. }
        )
    }

    /// The single routing key of a scalar operation (`insert`, `replace`,
    /// `remove`, `contains`); range queries return `None`.
    pub fn scalar_key(&self) -> Option<K> {
        match self {
            OpKind::Insert { key, .. }
            | OpKind::Replace { key, .. }
            | OpKind::Remove { key }
            | OpKind::Lookup { key } => Some(*key),
            _ => None,
        }
    }
}

/// Which part of a range query applies at a particular node.
///
/// This encodes the three procedures of the paper's appendix: descending with
/// both borders (`count_both_borders`), with only the lower border
/// (`count_left_border`) or with only the upper border
/// (`count_right_border`). The mode of a child is fully determined by the
/// parent's mode and the parent's routing key, so all helpers compute the
/// same value; it is recorded first-write-wins before the descriptor is
/// pushed into the child's queue so helpers executing the descriptor there
/// can find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeMode<K> {
    /// Keys in `[min, max]` count.
    Both {
        /// Lower bound.
        min: K,
        /// Upper bound.
        max: K,
    },
    /// Keys `>= min` count (right border already satisfied).
    LeftBorder {
        /// Lower bound.
        min: K,
    },
    /// Keys `<= max` count (left border already satisfied).
    RightBorder {
        /// Upper bound.
        max: K,
    },
}

impl<K: Key> RangeMode<K> {
    /// Does `key` fall inside the range described by this mode?
    pub fn admits(&self, key: &K) -> bool {
        match self {
            RangeMode::Both { min, max } => min <= key && key <= max,
            RangeMode::LeftBorder { min } => key >= min,
            RangeMode::RightBorder { max } => key <= max,
        }
    }
}

/// The per-node partial result recorded in the `Processed` map.
///
/// A partial is recorded **unconditionally** for every node an operation is
/// executed in, even when the contribution is empty: claiming the node id in
/// the first-write-wins map is what protects the final result from values
/// computed by stalled helpers at the wrong linearization point (§II-B).
#[derive(Debug, Clone)]
pub enum Partial<K, V, Agg> {
    /// Contribution of a node to an aggregate range query.
    Agg(Agg),
    /// Result of a lookup resolved at this node (`None` if this node was not
    /// the bottom of the search path).
    Lookup(Option<Option<V>>),
    /// Entries contributed by this node's leaf children to a `collect`.
    Entries(Vec<(K, V)>),
    /// Updates record no data; the entry only claims the node id.
    Unit,
}

/// The shared operation descriptor.
pub struct Descriptor<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K> = Bst> {
    /// The operation to perform.
    pub kind: OpKind<K, V>,
    /// Effect of an update, resolved exactly once at the linearization point
    /// (fictive-root execution) through the presence index.
    pub decision: OnceLock<Decision<V>>,
    /// `Op.Processed`: per-node partial results, first write wins.
    pub processed: FirstWriteMap<NodeId, Partial<K, V, A::Agg>>,
    /// Range-aggregate mode per node, recorded by the routing policy before
    /// the descriptor enters the node's queue (nothing for a policy that
    /// derives modes from the node itself).
    pub modes: R::Modes,
    /// `Op.Traverse`: nodes the initiator still has to visit.
    pub traverse: TraverseQueue<NodePtr<K, V, A, R>>,
}

impl<K: Key, V: Value, A: Augmentation<K, V>, R: Routing<K>> Descriptor<K, V, A, R> {
    /// Creates a fresh descriptor for `kind`.
    pub fn new(kind: OpKind<K, V>) -> Self {
        // Scalar operations and aggregate range queries record `O(height +
        // |P|)` partials, where a single-bucket map is both smallest and
        // fastest; a `collect` records one partial per visited node, so its
        // map is bucketed to keep insertion constant-time over wide ranges.
        let processed = match &kind {
            OpKind::Collect { .. } => FirstWriteMap::with_buckets(256),
            _ => FirstWriteMap::new(),
        };
        Descriptor {
            kind,
            decision: OnceLock::new(),
            processed,
            modes: R::Modes::default(),
            traverse: TraverseQueue::new(),
        }
    }

    /// Creates a reference-counted descriptor.
    pub fn new_ref(kind: OpKind<K, V>) -> OpRef<K, V, A, R> {
        Arc::new(Self::new(kind))
    }

    /// The resolved decision of an update descriptor.
    ///
    /// # Panics
    ///
    /// Panics if called before the descriptor was executed at the fictive
    /// root (the decision is always resolved there first).
    pub fn resolved_decision(&self) -> &Decision<V> {
        self.decision
            .get()
            .expect("update descriptor executed below the root before being resolved")
    }

    /// Assembles the final aggregate of a range query by combining every
    /// recorded per-node partial. Must only be called after the traverse
    /// queue has drained (the map can no longer change then).
    pub fn assemble_agg(&self) -> A::Agg {
        self.processed.fold(A::identity(), |acc, _, partial| {
            if let Partial::Agg(agg) = partial {
                A::combine(&acc, agg)
            } else {
                acc
            }
        })
    }

    /// Assembles the result of a lookup: the value found at the bottom of
    /// the search path, if any.
    pub fn assemble_lookup(&self) -> Option<V> {
        self.processed.fold(None, |acc, _, partial| {
            if acc.is_some() {
                return acc;
            }
            match partial {
                Partial::Lookup(Some(found)) => found.clone(),
                _ => acc,
            }
        })
    }

    /// Assembles a lookup into a bare presence bit without ever cloning the
    /// value (`contains` on the descriptor read path).
    pub fn assemble_lookup_present(&self) -> bool {
        self.processed.fold(false, |acc, _, partial| {
            acc || matches!(partial, Partial::Lookup(Some(Some(_))))
        })
    }

    /// Assembles a `collect` result: concatenates every node's entries and
    /// sorts them by key.
    pub fn assemble_entries(&self) -> Vec<(K, V)> {
        let mut out = self.processed.fold(Vec::new(), |mut acc, _, partial| {
            if let Partial::Entries(entries) = partial {
                acc.extend(entries.iter().cloned());
            }
            acc
        });
        out.sort_by_key(|a| a.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wft_seq::Size;

    type D = Descriptor<i64, (), Size>;

    #[test]
    fn op_kind_classification() {
        let ins: OpKind<i64, ()> = OpKind::Insert { key: 1, value: () };
        let rep: OpKind<i64, ()> = OpKind::Replace { key: 1, value: () };
        let rem: OpKind<i64, ()> = OpKind::Remove { key: 1 };
        let look: OpKind<i64, ()> = OpKind::Lookup { key: 1 };
        let agg: OpKind<i64, ()> = OpKind::RangeAgg { min: 1, max: 2 };
        assert!(ins.is_update());
        assert!(rep.is_update());
        assert!(rem.is_update());
        assert!(!look.is_update());
        assert!(!agg.is_update());
        assert_eq!(ins.scalar_key(), Some(1));
        assert_eq!(rep.scalar_key(), Some(1));
        assert_eq!(agg.scalar_key(), None);
    }

    #[test]
    fn range_mode_admits_keys_correctly() {
        let both = RangeMode::Both { min: 10, max: 20 };
        assert!(both.admits(&10) && both.admits(&20) && both.admits(&15));
        assert!(!both.admits(&9) && !both.admits(&21));
        let left = RangeMode::LeftBorder { min: 10 };
        assert!(left.admits(&10) && left.admits(&1000));
        assert!(!left.admits(&9));
        let right = RangeMode::RightBorder { max: 20 };
        assert!(right.admits(&20) && right.admits(&-5));
        assert!(!right.admits(&21));
    }

    #[test]
    fn assemble_agg_combines_partials() {
        let d = D::new(OpKind::RangeAgg { min: 0, max: 100 });
        d.processed.try_insert(1, Partial::Agg(3));
        d.processed.try_insert(2, Partial::Agg(4));
        d.processed.try_insert(3, Partial::Unit);
        assert_eq!(d.assemble_agg(), 7);
    }

    #[test]
    fn assemble_lookup_takes_the_resolved_entry() {
        let d: Descriptor<i64, i64, Size> = Descriptor::new(OpKind::Lookup { key: 5 });
        d.processed.try_insert(1, Partial::Lookup(None));
        d.processed.try_insert(2, Partial::Lookup(Some(Some(50))));
        d.processed.try_insert(3, Partial::Lookup(None));
        assert_eq!(d.assemble_lookup(), Some(50));

        let miss: Descriptor<i64, i64, Size> = Descriptor::new(OpKind::Lookup { key: 5 });
        miss.processed.try_insert(1, Partial::Lookup(None));
        miss.processed.try_insert(2, Partial::Lookup(Some(None)));
        assert_eq!(miss.assemble_lookup(), None);
    }

    #[test]
    fn assemble_entries_sorts_by_key() {
        let d: Descriptor<i64, i64, Size> = Descriptor::new(OpKind::Collect { min: 0, max: 100 });
        d.processed
            .try_insert(1, Partial::Entries(vec![(5, 50), (1, 10)]));
        d.processed.try_insert(2, Partial::Entries(vec![(3, 30)]));
        d.processed.try_insert(3, Partial::Unit);
        assert_eq!(d.assemble_entries(), vec![(1, 10), (3, 30), (5, 50)]);
    }

    #[test]
    #[should_panic(expected = "resolved")]
    fn resolved_decision_panics_when_unresolved() {
        let d = D::new(OpKind::Insert { key: 1, value: () });
        let _ = d.resolved_decision();
    }
}
