//! Trie routing records and subtree builders.
//!
//! A trie node routes on one bit of the key's 64-bit index instead of on a
//! stored `Right_Subtree_Min`, so its subtree always covers a fixed, known
//! key-index interval (its [`Coverage`]) and no rebalancing is ever required
//! (the depth is bounded by the key width). The nodes themselves — queue,
//! immutable state record, child slots — are `wft-core`'s.

use wft_core::node::{IdAllocator, InnerNode, LeafNode, Node};
use wft_core::{Augmentation, Timestamp, Value};

use crate::key::TrieKey;
use crate::tree::Bits;

/// The fixed key-index interval covered by a (prospective) node: the routing
/// record of a trie node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Number of index bits consumed on the path to the node.
    pub depth: u32,
    /// The common index prefix of every key below the node (high `depth`
    /// bits; the remaining bits are zero).
    pub prefix: u64,
}

impl Coverage {
    /// Coverage of the whole key space (the real-root slot).
    pub const ROOT: Coverage = Coverage {
        depth: 0,
        prefix: 0,
    };

    /// The inclusive index interval `[lo, hi]` this coverage spans.
    pub fn interval(&self) -> (u64, u64) {
        // Depth 64 (a fully resolved leaf position) covers exactly one index.
        let span = u64::MAX.checked_shr(self.depth).unwrap_or(0);
        (self.prefix, self.prefix | span)
    }

    /// The branching bit used by a node at this coverage (its children split
    /// on this bit of the key index).
    pub fn branch_bit(&self) -> u32 {
        debug_assert!(self.depth < 64, "leaves cannot branch further");
        63 - self.depth
    }

    /// Coverage of the left (`bit = 0`) child.
    pub fn left(&self) -> Coverage {
        self.child(false)
    }

    /// Coverage of the right (`bit = 1`) child.
    pub fn right(&self) -> Coverage {
        self.child(true)
    }

    /// Coverage of the right child if `right`, else of the left one.
    pub fn child(&self, right: bool) -> Coverage {
        Coverage {
            depth: self.depth + 1,
            prefix: self.prefix | (u64::from(right) << self.branch_bit()),
        }
    }

    /// `true` if `index` routes into the right (`bit = 1`) child.
    pub fn goes_right(&self, index: u64) -> bool {
        (index >> self.branch_bit()) & 1 == 1
    }

    /// The child coverage an index routes into.
    pub fn child_for(&self, index: u64) -> Coverage {
        self.child(self.goes_right(index))
    }

    /// `true` if `index` lies below this coverage.
    pub fn contains(&self, index: u64) -> bool {
        let (lo, hi) = self.interval();
        lo <= index && index <= hi
    }

    /// Relationship of this coverage to the query interval `[min, max]`
    /// (inclusive, in index space).
    pub fn classify(&self, min: u64, max: u64) -> Overlap {
        let (lo, hi) = self.interval();
        if hi < min || lo > max {
            Overlap::Disjoint
        } else if min <= lo && hi <= max {
            Overlap::Contained
        } else {
            Overlap::Partial
        }
    }
}

/// How a subtree's key interval relates to a query range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// No key of the subtree can be in the range.
    Disjoint,
    /// Every key of the subtree is in the range.
    Contained,
    /// Some keys may be in the range, some outside.
    Partial,
}

/// A trie node.
pub(crate) type TrieNode<K, V, A> = Node<K, V, A, Bits>;

/// Recursively builds the trie subtree for `coverage` from entries sorted by
/// key index (bulk construction); every node carries the watermark
/// `watermark`.
pub(crate) fn build_subtrie<K: TrieKey, V: Value, A: Augmentation<K, V>>(
    entries: &[(K, V)],
    coverage: Coverage,
    watermark: Timestamp,
    ids: &IdAllocator,
) -> (TrieNode<K, V, A>, A::Agg) {
    match entries {
        [] => (Node::empty(watermark), A::identity()),
        [(key, value)] => (
            Node::Leaf(LeafNode::new(*key, value.clone(), watermark)),
            A::of_entry(key, value),
        ),
        _ => {
            let split = entries.partition_point(|(k, _)| !coverage.goes_right(k.to_index()));
            let (left, left_agg) =
                build_subtrie::<K, V, A>(&entries[..split], coverage.left(), watermark, ids);
            let (right, right_agg) =
                build_subtrie::<K, V, A>(&entries[split..], coverage.right(), watermark, ids);
            let agg = A::combine(&left_agg, &right_agg);
            let inner = InnerNode::new(ids.fresh(), coverage, left, right, agg.clone(), watermark);
            (Node::Inner(inner), agg)
        }
    }
}

/// Builds the divergence chain installed by an insertion that hits an
/// occupied leaf: single-child inner nodes from `coverage` down to the first
/// bit where the two key indices differ, ending in an inner node with the two
/// leaves as children. Every created node carries the inserting operation's
/// timestamp `ts` as its state `ts_mod` and queue watermark, so stalled
/// helpers of the same (or an older) operation can neither re-apply the state
/// delta nor re-enqueue the descriptor.
pub(crate) fn build_divergence_chain<K: TrieKey, V: Value, A: Augmentation<K, V>>(
    existing: (K, V),
    new: (K, V),
    coverage: Coverage,
    ts: Timestamp,
    ids: &IdAllocator,
) -> TrieNode<K, V, A> {
    let a = existing.0.to_index();
    let b = new.0.to_index();
    debug_assert_ne!(a, b, "divergence chain needs two distinct keys");
    debug_assert!(coverage.contains(a) && coverage.contains(b));
    let agg = A::combine(
        &A::of_entry(&existing.0, &existing.1),
        &A::of_entry(&new.0, &new.1),
    );
    let diverge_depth = (a ^ b).leading_zeros();
    debug_assert!(diverge_depth >= coverage.depth);
    // The coverage at `depth` of the common prefix of both indices.
    let at_depth = |depth: u32| Coverage {
        depth,
        prefix: if depth == 0 {
            0
        } else {
            a & !(u64::MAX >> depth)
        },
    };

    // Bottom node: both leaves hang off it.
    let bottom = at_depth(diverge_depth);
    let (left, right) = if bottom.goes_right(a) {
        (new, existing)
    } else {
        (existing, new)
    };
    let leaf = |(key, value)| Node::Leaf(LeafNode::new(key, value, ts));
    let mut node = Node::Inner(InnerNode::new(
        ids.fresh(),
        bottom,
        leaf(left),
        leaf(right),
        agg.clone(),
        ts,
    ));

    // Wrap single-child nodes upwards until we reach the slot's coverage.
    for depth in (coverage.depth..diverge_depth).rev() {
        let wrap = at_depth(depth);
        let (left, right) = if wrap.goes_right(a) {
            (Node::empty(ts), node)
        } else {
            (node, Node::empty(ts))
        };
        node = Node::Inner(InnerNode::new(
            ids.fresh(),
            wrap,
            left,
            right,
            agg.clone(),
            ts,
        ));
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch::{self as epoch, Guard, Owned, Shared};
    use std::sync::atomic::Ordering;
    use wft_core::node::{collect_subtree, free_subtree_now};
    use wft_core::Size;

    type N = TrieNode<u64, (), Size>;

    #[test]
    fn coverage_intervals_and_children() {
        let root = Coverage::ROOT;
        assert_eq!(root.interval(), (0, u64::MAX));
        assert_eq!(root.branch_bit(), 63);
        let left = root.left();
        let right = root.right();
        assert_eq!(left.interval(), (0, u64::MAX >> 1));
        assert_eq!(right.interval(), (1 << 63, u64::MAX));
        assert!(left.contains(42));
        assert!(!left.contains(1 << 63));
        assert_eq!(root.child_for(42), left);
        assert_eq!(root.child_for(u64::MAX), right);
    }

    #[test]
    fn coverage_classification() {
        let c = Coverage {
            depth: 60,
            prefix: 0b1010 << 60,
        };
        let (lo, hi) = c.interval();
        assert_eq!(hi - lo, 15);
        assert_eq!(c.classify(lo, hi), Overlap::Contained);
        assert_eq!(c.classify(0, lo - 1), Overlap::Disjoint);
        assert_eq!(c.classify(hi + 1, u64::MAX), Overlap::Disjoint);
        assert_eq!(c.classify(lo + 1, hi), Overlap::Partial);
        assert_eq!(c.classify(0, u64::MAX), Overlap::Contained);
    }

    #[test]
    fn build_subtrie_roundtrip() {
        let ids = IdAllocator::default();
        let entries: Vec<(u64, ())> = (0..200u64).map(|k| (k * 3, ())).collect();
        let (node, agg) =
            build_subtrie::<u64, (), Size>(&entries, Coverage::ROOT, Timestamp::ZERO, &ids);
        assert_eq!(agg, 200);
        // SAFETY: the subtrie was never published; this test owns it exclusively.
        let shared = Owned::new(node).into_shared(unsafe { epoch::unprotected() });
        let guard = epoch::pin();
        let mut out = Vec::new();
        collect_subtree(shared, &mut out, &guard);
        assert_eq!(out, entries);
        // SAFETY: still exclusively owned by this test.
        unsafe { free_subtree_now(shared) };
    }

    #[test]
    fn divergence_chain_holds_both_keys() {
        let ids = IdAllocator::default();
        let guard = epoch::pin();
        // Keys that agree on many leading bits force a long chain.
        let chain: N = build_divergence_chain(
            (1024u64, ()),
            (1025u64, ()),
            Coverage::ROOT,
            Timestamp(5),
            &ids,
        );
        // SAFETY: the chain was never published; this test owns it exclusively.
        let shared = Owned::new(chain).into_shared(unsafe { epoch::unprotected() });
        let mut out = Vec::new();
        collect_subtree(shared, &mut out, &guard);
        assert_eq!(out, vec![(1024, ()), (1025, ())]);
        // Every inner node on the chain covers both keys and carries the
        // operation's timestamp.
        fn walk(node: Shared<'_, N>, guard: &Guard) {
            // SAFETY: every pointer on the chain is non-null and test-owned.
            if let Node::Inner(inner) = unsafe { node.deref() } {
                assert!(inner.route.contains(1024) && inner.route.contains(1025));
                assert_eq!(inner.load_state(guard).ts_mod, Timestamp(5));
                assert_eq!(inner.load_state(guard).agg, 2);
                walk(inner.left.load(Ordering::Acquire, guard), guard);
                walk(inner.right.load(Ordering::Acquire, guard), guard);
            }
        }
        walk(shared, &guard);
        // SAFETY: still exclusively owned by this test.
        unsafe { free_subtree_now(shared) };
    }

    #[test]
    fn divergence_chain_length_matches_common_prefix() {
        let ids = IdAllocator::default();
        let guard = epoch::pin();
        // Indices diverging at the very first bit produce a single node.
        let chain: N = build_divergence_chain(
            (0u64, ()),
            (u64::MAX, ()),
            Coverage::ROOT,
            Timestamp(1),
            &ids,
        );
        // SAFETY: the chain was never published; this test owns it exclusively.
        let shared = Owned::new(chain).into_shared(unsafe { epoch::unprotected() });
        fn depth_of(node: Shared<'_, N>, guard: &Guard) -> usize {
            // SAFETY: every pointer on the chain is non-null and test-owned.
            match unsafe { node.deref() } {
                Node::Inner(inner) => {
                    1 + depth_of(inner.left.load(Ordering::Acquire, guard), guard)
                        .max(depth_of(inner.right.load(Ordering::Acquire, guard), guard))
                }
                _ => 0,
            }
        }
        assert_eq!(depth_of(shared, &guard), 1);
        // SAFETY: still exclusively owned by this test.
        unsafe { free_subtree_now(shared) };
    }
}
