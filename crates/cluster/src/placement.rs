//! Deterministic rack placement via rendezvous hashing.
//!
//! Archive groups (a file's parent directory — siblings co-locate, as
//! the paper's bucket packing keeps related files in one disc array,
//! §4.3) are mapped onto racks with highest-random-weight ("rendezvous")
//! hashing: every `(group, rack)` pair gets a pseudo-random score and
//! the group lives on the top-scoring racks. Adding or removing a rack
//! moves only the groups whose top-k set changed — no global reshuffle —
//! and the mapping needs no central table to agree on.

use serde::{Deserialize, Serialize};

/// Identity of a member rack within a cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RackId(pub u32);

impl core::fmt::Display for RackId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// SplitMix64 finalizer — mixes the key hash with the rack id so scores
/// for one group are independent across racks.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The rendezvous score of `(key, rack)`.
pub fn score(key: &str, rack: RackId) -> u64 {
    // FNV-1a over the group key is the stable half of the pair hash.
    mix(ros_sim::fnv1a(key.as_bytes()) ^ mix(u64::from(rack.0).wrapping_add(0x5EED)))
}

/// Ranks `candidates` for `key` in descending rendezvous-score order
/// (ties broken by id, though 64-bit ties are essentially impossible).
pub fn rank(key: &str, candidates: &[RackId]) -> Vec<RackId> {
    let mut scored: Vec<(u64, RackId)> = candidates.iter().map(|&r| (score(key, r), r)).collect();
    scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, r)| r).collect()
}

/// Selects up to `replication` target racks for a group of `size` bytes:
/// candidates in rendezvous order, skipping racks whose remaining
/// capacity cannot hold the group. `candidates` pairs each rack with its
/// free bytes. Returns fewer than `replication` racks only when capacity
/// or membership runs out.
pub fn select_targets(
    key: &str,
    candidates: &[(RackId, u64)],
    size: u64,
    replication: usize,
) -> Vec<RackId> {
    let ids: Vec<RackId> = candidates.iter().map(|&(r, _)| r).collect();
    let free: std::collections::BTreeMap<RackId, u64> = candidates.iter().copied().collect();
    rank(key, &ids)
        .into_iter()
        .filter(|r| free.get(r).is_some_and(|&f| f >= size))
        .take(replication)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn racks(n: u32) -> Vec<RackId> {
        (0..n).map(RackId).collect()
    }

    #[test]
    fn ranking_is_deterministic_and_complete() {
        let c = racks(8);
        let a = rank("/tenants/t001/d002", &c);
        let b = rank("/tenants/t001/d002", &c);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, c, "rank must be a permutation");
    }

    #[test]
    fn groups_spread_across_racks() {
        let c = racks(4);
        let mut counts = [0usize; 4];
        for g in 0..400 {
            let key = format!("/tenants/t{:03}/d{:03}", g % 20, g / 20);
            counts[rank(&key, &c)[0].0 as usize] += 1;
        }
        // 400 groups over 4 racks: each rack should be primary for a
        // reasonable share (perfect balance = 100).
        for (i, &n) in counts.iter().enumerate() {
            assert!((60..160).contains(&n), "rack {i} owns {n} of 400 groups");
        }
    }

    #[test]
    fn removing_a_rack_only_moves_its_own_groups() {
        let all = racks(5);
        let fewer: Vec<RackId> = all.iter().copied().filter(|r| r.0 != 2).collect();
        for g in 0..200 {
            let key = format!("/g/{g}");
            let before = rank(&key, &all)[0];
            let after = rank(&key, &fewer)[0];
            if before.0 != 2 {
                assert_eq!(before, after, "group {g} moved although its rack survived");
            }
        }
    }

    #[test]
    fn capacity_filter_skips_full_racks() {
        let candidates = vec![
            (RackId(0), 10_000u64),
            (RackId(1), 50u64),
            (RackId(2), 10_000u64),
        ];
        let t = select_targets("/g/full", &candidates, 1000, 2);
        assert_eq!(t.len(), 2);
        assert!(!t.contains(&RackId(1)), "full rack must be skipped");
    }

    #[test]
    fn select_returns_short_when_capacity_runs_out() {
        let candidates = vec![(RackId(0), 10_000u64), (RackId(1), 50u64)];
        let t = select_targets("/g/x", &candidates, 1000, 2);
        assert_eq!(t, vec![RackId(0)]);
        assert!(select_targets("/g/x", &candidates, 1_000_000, 2).is_empty());
    }
}
