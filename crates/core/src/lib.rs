//! # Wait-free trees with asymptotically-efficient range queries
//!
//! A from-scratch Rust implementation of the concurrent tree described in
//! *"Wait-free Trees with Asymptotically-Efficient Range Queries"*
//! (Kokorin, Alistarh, Aksenov — IPPS 2024, arXiv:2310.05293).
//!
//! The central type is [`WaitFreeTree`]: a linearizable concurrent ordered
//! set/map whose **aggregate range queries** (`count`, `range_sum`, or any
//! user-supplied group augmentation) run in time proportional to the tree
//! height rather than to the number of keys in the range, while scalar
//! operations (`insert`, `remove`, `contains`) stay logarithmic and the whole
//! structure is non-blocking.
//!
//! ## How it works (paper §II)
//!
//! * Every inner node owns a FIFO queue of operation descriptors; operations
//!   are applied to a subtree strictly in the order their descriptors entered
//!   that queue, and the root queue doubles as the timestamp allocator that
//!   defines the linearization order.
//! * A process traverses the tree top-down; before it may execute its own
//!   operation in a node it first **helps** execute every descriptor ahead of
//!   it — a wait-free analogue of hand-over-hand locking ("hand-over-hand
//!   helping").
//! * Inner-node metadata (subtree aggregates, modification counters) lives in
//!   immutable state records swapped by CAS and guarded by the timestamp of
//!   the last modifying operation, so each operation's effect is applied
//!   exactly once no matter how many helpers race.
//! * Balance is maintained by rebuilding any subtree whose modification count
//!   exceeds a constant factor of its size at creation (§II-E), giving
//!   amortized `O(log N + |P|)` operations (Theorems 3–4).
//!
//! ## Crate layout
//!
//! | module | contents |
//! |--------|----------|
//! | [`tree`] | the public [`WaitFreeTree`] API |
//! | [`exec`] | the hand-over-hand helping engine (Listings 1–3, rebuilds) |
//! | [`read`] | descriptor-free read fast paths (presence-index point reads, optimistic validated range traversal) |
//! | [`routing`] | the routing policy trait and the paper's BST policy ([`Bst`]) |
//! | [`node`] | node layout, immutable states, subtree build/retire |
//! | [`descriptor`] | operation descriptors, range modes, partial results |
//! | [`config`] | construction parameters and operational statistics |
//!
//! There is one engine. Everything that depends on the tree's shape — the
//! routing record of a node, the child a key routes into, the per-node
//! range split, the subtree builders, rebuilding, the route check and the
//! metrics prefix — is a statically dispatched [`Routing`] policy, the last
//! type parameter of [`WaitFreeTree`]. The `wft-trie` crate is such a
//! policy: a binary trie over fixed-width keys running on this engine.
//!
//! The concurrent primitives (timestamped queues, traverse queue,
//! first-write-wins map, presence index, wait-free root queue) live in the
//! companion crate [`wft_queue`]; the augmentation algebra and the sequential
//! oracle live in [`wft_seq`].
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use wft_core::WaitFreeTree;
//!
//! let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::new());
//! let writers: Vec<_> = (0..4)
//!     .map(|t| {
//!         let tree = Arc::clone(&tree);
//!         std::thread::spawn(move || {
//!             for k in 0..100 {
//!                 tree.insert(t * 100 + k, ());
//!             }
//!         })
//!     })
//!     .collect();
//! for w in writers {
//!     w.join().unwrap();
//! }
//! assert_eq!(tree.len(), 400);
//! assert_eq!(tree.count(0, 399), 400);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod config;
pub mod descriptor;
pub mod exec;
pub mod node;
pub mod read;
mod rootq;
pub mod routing;
pub mod tree;

pub use config::{ReadPath, RootQueueKind, TreeConfig, TreeStats};
pub use descriptor::{OpKind, RangeMode};
pub use routing::{Bst, BstRoute, Routing, SlotAt, Step};
pub use tree::WaitFreeTree;

// Re-export the timestamp type: the tree's front API (`stable_ts`,
// `settle_front`, the `*_at` reads) speaks it, and downstream layers (the
// sharded store's global front) should not need a direct `wft-queue` edge.
pub use wft_queue::Timestamp;

// Re-export the shared trait family: the tree is its reference
// implementation (see the `api` module).
pub use wft_api::{
    BatchApply, PointMap, RangeRead, RangeSpec, SnapshotRead, SnapshotToken, TimestampFront,
    UpdateOutcome,
};

// Re-export the augmentation vocabulary so downstream users only need one
// import for the common case.
pub use wft_seq::{Augmentation, Key, Pair, Size, Sum, Value};
