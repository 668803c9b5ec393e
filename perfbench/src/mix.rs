//! `tree-mix` and `trie-mix`: the paper's operation mix on one wait-free
//! tree (or trie) over keys `[1, 2·10⁶]`, prefilled with probability ½.
//!
//! Each of the two load threads runs 50 % `contains`, 20 % `insert`,
//! 20 % `remove`, 9 % `count` over 20k keys and 1 % scan drains over 2k
//! keys in chunks of 64. Thread `t` writes only the keys `k` with
//! `(k - 1) % 2 == t` and checks every point call against its own bitmap;
//! range reads are checked on the thread's own keys, which no other thread
//! changes while the read runs.

use std::time::Instant;

use wft_api::{PointMap, RangeRead, RangeScan, RangeSpec, ScanCursor};
use wft_obs::MetricsSource;

use crate::harness::{drive, Bits, Clock, Kind, Recorder, Rng};
use crate::report::{Durability, Report};
use crate::LOAD_THREADS;

const KEYS: i64 = 2_000_000;
const HALF: usize = KEYS as usize / 2;
const COUNT_WIDTH: i64 = 20_000;
const SCAN_WIDTH: i64 = 2_000;
const CHUNK: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Span names of one backend's public calls.
pub struct Names {
    contains: &'static str,
    insert: &'static str,
    remove: &'static str,
    count: &'static str,
    scan: &'static str,
    next_chunk: &'static str,
}

/// A backend the mix can drive through the `wft-api` traits.
pub trait Target:
    PointMap<i64, ()> + RangeRead<i64, ()> + RangeScan<i64, ()> + MetricsSource + Sync + Sized
{
    const NAMES: Names;
    /// The public bulk constructor.
    fn build(entries: &[(i64, ())]) -> Self;
}

impl Target for wft_core::WaitFreeTree<i64> {
    const NAMES: Names = Names {
        contains: "core.contains",
        insert: "core.insert",
        remove: "core.remove",
        count: "core.count",
        scan: "core.scan",
        next_chunk: "core.next_chunk",
    };
    fn build(entries: &[(i64, ())]) -> Self {
        wft_core::WaitFreeTree::from_entries(entries.iter().copied())
    }
}

impl Target for wft_trie::WaitFreeTrie<i64> {
    const NAMES: Names = Names {
        contains: "trie.contains",
        insert: "trie.insert",
        remove: "trie.remove",
        count: "trie.count",
        scan: "trie.scan",
        next_chunk: "trie.next_chunk",
    };
    fn build(entries: &[(i64, ())]) -> Self {
        wft_trie::WaitFreeTrie::from_entries(entries.iter().copied())
    }
}

/// Thread `t`'s `j`-th key (threads own the residue classes of `k - 1`
/// modulo 2), and back.
pub fn key_of(t: usize, j: usize) -> i64 {
    1 + t as i64 + 2 * j as i64
}

pub fn owner_and_index(key: i64) -> (usize, usize) {
    let t = ((key - 1) % 2) as usize;
    (t, ((key - 1 - t as i64) / 2) as usize)
}

/// Indices of thread `t`'s keys inside `[lo, hi]` (`lo >= 1`).
fn own_span(t: usize, lo: i64, hi: i64) -> (usize, usize) {
    let first = (lo - t as i64) / 2;
    let last = (hi - 1 - t as i64) / 2;
    (first as usize, last as usize)
}

pub fn run<T: Target>(seed: u64, seconds: u64, trace_run: bool) -> Report {
    let mut rng = Rng::new(seed, 0);
    let mut owned = vec![Bits::new(HALF); LOAD_THREADS];
    let mut entries = Vec::with_capacity(HALF + HALF / 8);
    for key in 1..=KEYS {
        if rng.below(2) == 1 {
            entries.push((key, ()));
            let (t, j) = owner_and_index(key);
            owned[t].put(j, true);
        }
    }

    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(T::build(&entries));
        setup.push(start.elapsed().as_secs_f64());
    }
    drop(entries);
    let tree = built.expect("at least one set-up");

    let clock = Clock::new();
    let (windows, mut recorders, owned): (_, Vec<Recorder>, Vec<Bits>) = std::thread::scope(|s| {
        let handles: Vec<_> = owned
            .into_iter()
            .enumerate()
            .map(|(t, bits)| {
                let (tree, clock) = (&tree, &clock);
                s.spawn(move || worker(tree, t, bits, seed, clock))
            })
            .collect();
        let windows = drive(&clock, &tree, seconds, trace_run);
        let (recorders, owned) = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .unzip();
        (windows, recorders, owned)
    });

    let mut report = Report::new();
    report.absorb(&recorders);
    let total: u64 = owned.iter().map(Bits::ones).sum();
    let len = tree.len();
    report.check(len == total, || format!("len() = {len}, oracle {total}"));
    let count = tree.count(RangeSpec::all());
    report.check(count == total, || {
        format!("full count = {count}, oracle {total}")
    });
    let listing = tree.collect_range(RangeSpec::all());
    let exact = listing.len() as u64 == total
        && listing.iter().all(|&(k, _)| {
            let (t, j) = owner_and_index(k);
            owned[t].get(j)
        });
    report.check(exact, || {
        format!(
            "full listing of {} keys differs from the oracle",
            listing.len()
        )
    });
    // Freeing a million nodes one by one takes seconds after a window of
    // updates; the process ends right after the report, so leave it to the
    // exit.
    std::mem::forget(tree);
    report.note("keys", format!("[1, {KEYS}] prefilled 1/2"));
    report.note("flush_policy", "none (in-memory)");

    if trace_run {
        report.per_layer(
            &windows,
            &mut recorders,
            Kind::Update,
            &Durability::default(),
        );
    } else {
        report.end_to_end(setup, &recorders, &windows, Kind::Update);
    }
    report
}

fn worker<T: Target>(
    tree: &T,
    t: usize,
    mut own: Bits,
    seed: u64,
    clock: &Clock,
) -> (Recorder, Bits) {
    let names = &T::NAMES;
    let mut rec = Recorder::new(clock, t as u64);
    let mut rng = Rng::new(seed, 1 + t as u64);
    while rec.begin(clock) {
        let roll = rng.below(100);
        if roll < 90 {
            let j = rng.below(HALF as u64) as usize;
            let key = key_of(t, j);
            let present = own.get(j);
            if roll < 50 {
                let tok = rec.op(names.contains, Kind::Contains);
                let found = tree.contains(&key);
                rec.done(tok, Kind::Contains);
                rec.expect(found == present, || format!("contains({key}) = {found}"));
            } else if roll < 70 {
                let tok = rec.op(names.insert, Kind::Update);
                let applied = tree.insert(key, ()).is_applied();
                rec.done(tok, Kind::Update);
                rec.expect(applied != present, || {
                    format!("insert({key}) applied = {applied}")
                });
                own.put(j, true);
            } else {
                let tok = rec.op(names.remove, Kind::Update);
                let applied = tree.remove(&key).is_applied();
                rec.done(tok, Kind::Update);
                rec.expect(applied == present, || {
                    format!("remove({key}) applied = {applied}")
                });
                own.put(j, false);
            }
        } else if roll < 99 {
            let lo = 1 + rng.below((KEYS - COUNT_WIDTH + 1) as u64) as i64;
            let hi = lo + COUNT_WIDTH - 1;
            let tok = rec.op(names.count, Kind::Count);
            let count = tree.count(RangeSpec::inclusive(lo, hi));
            rec.done(tok, Kind::Count);
            // The other thread's keys in the window may be present or not.
            let (first, last) = own_span(t, lo, hi);
            let mine = own.count(first, last);
            let theirs = COUNT_WIDTH as u64 - (last - first + 1) as u64;
            rec.expect(count >= mine && count <= mine + theirs, || {
                format!("count({lo}, {hi}) = {count}, own keys {mine}")
            });
        } else {
            let lo = 1 + rng.below((KEYS - SCAN_WIDTH + 1) as u64) as i64;
            let hi = lo + SCAN_WIDTH - 1;
            let tok = rec.op(names.scan, Kind::Scan);
            let mut cursor = tree.scan(RangeSpec::inclusive(lo, hi));
            let mut listing = Vec::new();
            loop {
                let sub = rec.sub(names.next_chunk, &tok);
                let chunk = cursor.next_chunk(CHUNK);
                rec.done_sub(sub);
                if chunk.is_empty() {
                    break;
                }
                listing.extend(chunk);
            }
            let consistency = cursor.consistency();
            drop(cursor);
            rec.done(tok, Kind::Scan);
            rec.drained(consistency);
            let (first, last) = own_span(t, lo, hi);
            let ok = scan_matches(&listing, lo, hi, |k| {
                let (owner, j) = owner_and_index(k);
                (owner == t).then(|| own.get(j))
            }) == Some(own.count(first, last));
            rec.expect(ok, || {
                format!("scan({lo}, {hi}) disagrees with the own-key oracle")
            });
        }
        rec.end();
    }
    (rec, own)
}

/// Checks a drained listing of `[lo, hi]`: strictly ascending, inside the
/// range, and every key the caller owns (`own(k)` is `Some`) present in
/// its oracle. Returns how many owned keys the listing holds.
pub fn scan_matches<V>(
    listing: &[(i64, V)],
    lo: i64,
    hi: i64,
    own: impl Fn(i64) -> Option<bool>,
) -> Option<u64> {
    let ascending = listing.windows(2).all(|w| w[0].0 < w[1].0);
    let inside = listing.iter().all(|(k, _)| (lo..=hi).contains(k));
    let mut owned = 0;
    for (k, _) in listing {
        match own(*k) {
            Some(true) => owned += 1,
            Some(false) => return None,
            None => {}
        }
    }
    (ascending && inside).then_some(owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ownership_round_trips() {
        for t in 0..2 {
            for j in [0, 1, 17, HALF - 1] {
                assert_eq!(owner_and_index(key_of(t, j)), (t, j));
            }
        }
        assert_eq!(key_of(1, HALF - 1), KEYS);
    }

    #[test]
    fn own_span_covers_exactly_the_owned_keys() {
        for t in 0..2 {
            for (lo, hi) in [(1, 20), (2, 21), (5, 5), (6, 9), (1, KEYS)] {
                let (first, last) = own_span(t, lo, hi);
                let expect: Vec<i64> = (lo..=hi).filter(|k| owner_and_index(*k).0 == t).collect();
                let got: Vec<i64> = (first..=last).map(|j| key_of(t, j)).collect();
                assert_eq!(got, expect, "t={t} [{lo}, {hi}]");
            }
        }
    }
}
