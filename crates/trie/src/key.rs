//! Fixed-width keys for the binary trie.
//!
//! The trie routes on the bits of a 64-bit *index* derived from the key
//! through an order-preserving injection, so that the subtree below a node is
//! always a contiguous key interval and aggregate range queries can take
//! whole-subtree aggregates exactly like the BST does. Narrow integer types
//! are mapped into the **high** bits of the index so that distinct keys
//! diverge near the root (a `u8` key space needs at most 8 routing levels,
//! not 64).

use wft_core::Key;

/// A key usable by the binary trie: totally ordered, with an order-preserving
/// embedding into `u64`.
///
/// Implementations must guarantee `a < b ⇔ a.to_index() < b.to_index()`; the
/// provided integer implementations do (unsigned types shift into the high
/// bits, signed types additionally flip the sign bit).
pub trait TrieKey: Key {
    /// The order-preserving 64-bit index of this key.
    fn to_index(&self) -> u64;
}

macro_rules! impl_trie_key_unsigned {
    ($($t:ty => $bits:expr),*) => {
        $(impl TrieKey for $t {
            fn to_index(&self) -> u64 {
                (*self as u64) << (64 - $bits)
            }
        })*
    };
}

macro_rules! impl_trie_key_signed {
    ($($t:ty => ($unsigned:ty, $bits:expr)),*) => {
        $(impl TrieKey for $t {
            fn to_index(&self) -> u64 {
                // Flip the sign bit so negative keys sort below positive
                // ones, then shift into the high bits.
                let flipped = (*self as $unsigned) ^ (1 << ($bits - 1));
                (flipped as u64) << (64 - $bits)
            }
        })*
    };
}

impl_trie_key_unsigned!(u8 => 8, u16 => 16, u32 => 32, u64 => 64);
impl_trie_key_signed!(i8 => (u8, 8), i16 => (u16, 16), i32 => (u32, 32), i64 => (u64, 64));

impl TrieKey for usize {
    fn to_index(&self) -> u64 {
        *self as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_order_preserving<K: TrieKey>(keys: &[K]) {
        for a in keys {
            for b in keys {
                assert_eq!(
                    a < b,
                    a.to_index() < b.to_index(),
                    "order not preserved for {a:?} vs {b:?}"
                );
                assert_eq!(a == b, a.to_index() == b.to_index());
            }
        }
    }

    #[test]
    fn unsigned_keys_preserve_order() {
        check_order_preserving::<u64>(&[0, 1, 2, 7, u64::MAX / 2, u64::MAX - 1, u64::MAX]);
        check_order_preserving::<u32>(&[0, 1, 1000, u32::MAX]);
        check_order_preserving::<u8>(&[0, 1, 127, 128, 255]);
    }

    #[test]
    fn signed_keys_preserve_order() {
        check_order_preserving::<i64>(&[i64::MIN, -5, -1, 0, 1, 5, i64::MAX]);
        check_order_preserving::<i32>(&[i32::MIN, -1, 0, 1, i32::MAX]);
        check_order_preserving::<i8>(&[i8::MIN, -1, 0, 1, i8::MAX]);
    }

    #[test]
    fn narrow_keys_occupy_the_high_bits() {
        // Distinct u8 keys must diverge within the first 8 bits of the index
        // so the trie never builds 56-level chains of single-child nodes.
        let a = 3u8.to_index();
        let b = 4u8.to_index();
        assert!((a ^ b).leading_zeros() < 8);
    }
}
