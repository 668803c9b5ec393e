//! # Wait-free binary trie with aggregate range queries
//!
//! A second instantiation of the hand-over-hand-helping scheme of
//! *"Wait-free Trees with Asymptotically-Efficient Range Queries"*
//! (Kokorin, Alistarh, Aksenov — IPPS 2024). The paper's conclusion names
//! tries and quad trees as the natural next targets for the technique; this
//! crate carries the scheme over to a **binary trie over fixed-width integer
//! keys** and shows that the concurrent machinery — per-node descriptor
//! queues with monotone timestamps, helping, exactly-once CAS-guarded state
//! updates, first-write-wins result assembly — is genuinely generic.
//!
//! It is not a second engine. The descriptor queues, helping, exactly-once
//! state updates, fast read paths, timestamp front and `wft-api` impls are
//! all `wft-core`'s [`WaitFreeTree`]; this crate only supplies the routing
//! policy [`Bits`] that the engine is instantiated with
//! ([`WaitFreeTrie`]` = WaitFreeTree<K, V, A, Bits>`), plus the routing
//! record ([`Coverage`]) and the two subtree builders it needs:
//!
//! | aspect | BST (`wft_core::Bst`) | trie ([`Bits`]) |
//! |--------|------------------|-------------------|
//! | routing | stored `Right_Subtree_Min` keys | bits of an order-preserving 64-bit key index |
//! | balance | subtree rebuilding (§II-E), amortized bounds | none needed — depth ≤ key width, worst-case bounds |
//! | range queries | three border modes recorded per node | fixed per-node coverage intervals, nothing recorded |
//! | leaf split | one routing node over two leaves | a divergence chain down to the first differing bit |
//! | key types | any `Ord + Copy + Hash` | fixed-width integers ([`TrieKey`]) |
//!
//! Configuration ([`TreeConfig`]), statistics ([`TreeStats`]) and the whole
//! public interface are the tree's; metrics carry the `trie_` prefix.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use wft_trie::WaitFreeTrie;
//!
//! let trie: Arc<WaitFreeTrie<u64>> = Arc::new(WaitFreeTrie::new());
//! let writers: Vec<_> = (0..4u64)
//!     .map(|t| {
//!         let trie = Arc::clone(&trie);
//!         std::thread::spawn(move || {
//!             for k in 0..100u64 {
//!                 trie.insert(t * 100 + k, ());
//!             }
//!         })
//!     })
//!     .collect();
//! for w in writers {
//!     w.join().unwrap();
//! }
//! assert_eq!(trie.len(), 400);
//! assert_eq!(trie.count(0, 399), 400);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod key;
pub mod node;
pub mod tree;

pub use key::TrieKey;
pub use node::Coverage;
pub use tree::{Bits, WaitFreeTrie};

// The engine's vocabulary, for convenience.
pub use wft_core::{
    Augmentation, OpKind, Pair, ReadPath, Size, Sum, TreeConfig, TreeStats, Value, WaitFreeTree,
};
