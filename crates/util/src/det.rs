//! Deterministic collections — the workspace's replacement for
//! `std::collections::{HashMap, HashSet}` on every path that can reach a
//! routing decision, a soft-state refresh order, or a replay fingerprint.
//!
//! `std`'s hash collections are seeded *per process* (HashDoS
//! protection), so iterating one yields a different order in every run.
//! Any such iteration that feeds a neighbor list, a candidate set, a
//! refresh schedule, or the fault-replay fingerprint silently breaks the
//! cross-process determinism that `scripts/ci.sh` asserts and that every
//! recorded experiment depends on. [`DetMap`] and [`DetSet`] are
//! `std`'s B-trees, so iteration order is the key order — fully determined
//! by the *contents*, independent of insertion history and of the
//! process that observes it.
//!
//! They are aliases, not wrappers: the B-tree API covers the std
//! hash-collection surface this workspace uses (`insert` / `get` /
//! `remove` / `iter` / `len` / `contains_key` / `entry` / …), so migrating
//! a call site is a type change, not a rewrite, and the names exist to say
//! *why* a B-tree sits there. The `disallowed-types` list of the root
//! `clippy.toml` enforces the migration statically: no code, tests
//! included, may name the std hash collections at all.
//!
//! ```
//! use tao_util::det::DetMap;
//!
//! let mut a = DetMap::new();
//! let mut b = DetMap::new();
//! for k in [3u32, 1, 2] {
//!     a.insert(k, ());
//! }
//! for k in [2u32, 3, 1] {
//!     b.insert(k, ());
//! }
//! // Same contents => same iteration order, whatever the history.
//! assert!(a.iter().eq(b.iter()));
//! assert_eq!(a.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
//! ```

pub use std::collections::btree_map::Entry;

/// A map with deterministic, insertion-independent iteration order
/// (ascending key order): `std`'s B-tree map under the name clippy's
/// `disallowed-types` reason points to. Requires `K: Ord` instead of
/// `K: Hash + Eq`.
pub type DetMap<K, V> = std::collections::BTreeMap<K, V>;

/// A set with deterministic, insertion-independent iteration order
/// (ascending order): `std`'s B-tree set. Requires `T: Ord` instead of
/// `T: Hash + Eq`.
pub type DetSet<T> = std::collections::BTreeSet<T>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::for_all;
    use crate::rand::Rng;
    use crate::{check, check_eq};

    #[test]
    fn map_iteration_order_is_insertion_independent() {
        for_all("detmap_order_independent", 256, |rng| {
            let n = rng.gen_range(0..32usize);
            let mut pairs: Vec<(u64, u64)> = (0..n)
                .map(|_| (rng.gen_range(0..64u64), rng.gen()))
                .collect();
            // De-duplicate keys, keeping the *last* write like repeated
            // `insert` does.
            let mut forward = DetMap::new();
            for &(k, v) in &pairs {
                forward.insert(k, v);
            }
            // A permuted insertion history with identical final contents:
            // replay last-writer-wins, then insert in reversed first-seen
            // order.
            let mut last: DetMap<u64, u64> = DetMap::new();
            for &(k, v) in &pairs {
                last.insert(k, v);
            }
            pairs.reverse();
            let mut backward = DetMap::new();
            for (k, _) in pairs {
                let v = *last.get(&k).expect("key came from pairs");
                backward.insert(k, v);
            }
            check!(
                forward.iter().eq(backward.iter()),
                "iteration order depended on insertion history"
            );
            let keys: Vec<u64> = forward.keys().copied().collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            check_eq!(keys, sorted, "keys must come out in ascending order");
        });
    }

    #[test]
    fn set_iteration_order_is_insertion_independent() {
        for_all("detset_order_independent", 256, |rng| {
            let n = rng.gen_range(0..48usize);
            let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64u64)).collect();
            let forward: DetSet<u64> = values.iter().copied().collect();
            let backward: DetSet<u64> = values.iter().rev().copied().collect();
            check!(
                forward.iter().eq(backward.iter()),
                "set order depended on insertion history"
            );
            let got: Vec<u64> = forward.iter().copied().collect();
            let mut sorted = got.clone();
            sorted.sort_unstable();
            check_eq!(got, sorted);
        });
    }

    #[test]
    fn map_round_trips_through_byte_codec() {
        for_all("detmap_codec_round_trip", 256, |rng| {
            let n = rng.gen_range(0..24usize);
            let mut map: DetMap<u64, u64> = DetMap::new();
            for _ in 0..n {
                map.insert(rng.gen_range(0..1000u64), rng.gen());
            }
            // Encode: big-endian (key, value) pairs in iteration order.
            // Because that order is content-determined, the encoding is
            // canonical: equal maps encode identically.
            let encode = |m: &DetMap<u64, u64>| -> Vec<u8> {
                m.iter()
                    .flat_map(|(k, v)| [k.to_be_bytes(), v.to_be_bytes()])
                    .flatten()
                    .collect()
            };
            let buf = encode(&map);
            let word = |c: &[u8]| u64::from_be_bytes(c.try_into().expect("8-byte chunk"));
            let decoded: DetMap<u64, u64> = buf
                .chunks(16)
                .map(|c| (word(&c[..8]), word(&c[8..])))
                .collect();
            check_eq!(buf.len(), 16 * map.len(), "one fixed-width pair per entry");
            check_eq!(map, decoded);

            // Canonical encoding: re-encoding the decoded map is
            // byte-identical.
            check_eq!(buf, encode(&decoded));
        });
    }

    #[test]
    fn entry_api_inserts_and_updates() {
        let mut m: DetMap<&str, u32> = DetMap::new();
        *m.entry("a").or_insert(0) += 1;
        *m.entry("a").or_insert(0) += 1;
        *m.entry("b").or_insert(10) += 1;
        assert_eq!(m.get(&"a"), Some(&2));
        assert_eq!(m.get(&"b"), Some(&11));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn map_basic_operations() {
        let mut m = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(2, "two"), None);
        assert_eq!(m.insert(2, "TWO"), Some("two"));
        assert!(m.contains_key(&2));
        assert_eq!(m[&2], "TWO");
        assert_eq!(m.remove(&2), Some("TWO"));
        assert_eq!(m.remove(&2), None);
        assert!(!m.contains_key(&2));
    }

    #[test]
    fn set_basic_operations() {
        let mut s = DetSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(&3));
        assert!(s.remove(&3));
        assert!(!s.remove(&3));
        assert!(s.is_empty());
    }
}
