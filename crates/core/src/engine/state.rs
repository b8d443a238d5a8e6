//! Explicit campaign state and its exchange protocol.
//!
//! [`CampaignState`] is the mutable heart of one directed campaign: the
//! next generation's worklist (frontier), the hashed path-dedup set, and
//! the accumulated `IOF` sample table. A single-shard campaign owns one
//! instance on the merge thread; a sharded campaign keeps the canonical
//! instance on the coordinator and a replica of the *exchangeable* part
//! (dedup set + sample table) on every shard, kept in lockstep by
//! [`StateDelta`] broadcasts at generation boundaries.
//!
//! The exchange protocol is a lattice join: deltas are order-insensitive
//! unions keyed by [`StableHasher`](hotg_logic::StableHasher) digests
//! (dedup keys) and canonical `BTreeMap` encodings (sample pairs), so
//! applying the same deltas in any order, any grouping, any number of
//! times converges to the same state — the property
//! `state_merge_semantics` tests pin down. Sample-output clashes resolve
//! to the smaller output deterministically; they are unreachable in a
//! real campaign (unknown natives are deterministic functions, and chaos
//! only *drops* samples), the rule exists so the join laws hold
//! unconditionally.
//!
//! [`Partitioner`] assigns branch-flip targets to shards by their stable
//! path-key hash. It depends on nothing but
//! [`path_key`](super::outcome::path_key) (fixed-key FNV-1a over the
//! expected branch path) and a fixed 64-bit mixer, so the assignment is
//! identical across thread counts, platforms, and toolchains.

use super::outcome::{path_key, Job, Target, TargetOutcome};
use crate::events::CampaignEvent;
use hotg_concolic::EntryKind;
use hotg_solver::{Samples, SamplesDelta};
use std::collections::BTreeSet;

/// Mutable state of one directed campaign: the frontier of branch-flip
/// targets, the path-dedup set, and the accumulated `IOF` sample table.
/// Owned by the merge thread (single-shard) or the coordinator
/// (sharded); shards hold replicas of the `seen`/`samples` half.
#[derive(Default)]
pub(crate) struct CampaignState {
    /// Next generation's worklist, in canonical (run/expansion) order.
    pub(crate) pending: Vec<Target>,
    /// Stable path-key digests of every expected path already scheduled.
    pub(crate) seen: BTreeSet<u64>,
    /// The accumulated `IOF` sample table.
    pub(crate) samples: Samples,
}

impl CampaignState {
    /// Filters the pending generation through the dedup set
    /// sequentially, in target order — the set is only consulted here,
    /// never from workers, so scheduling cannot affect which targets
    /// survive. Keys are hashed in place off each target's shared parent
    /// run ([`Target::key`]); only survivors materialize their expected
    /// path, and none builds its `ALT` formula yet. Returns the
    /// surviving jobs plus the dedup keys newly inserted by this
    /// generation (the `seen` half of the next [`StateDelta`] broadcast).
    pub(crate) fn filter_generation(&mut self) -> (Vec<Job>, BTreeSet<u64>) {
        let mut jobs: Vec<Job> = Vec::new();
        let mut fresh = BTreeSet::new();
        for target in std::mem::take(&mut self.pending) {
            let Some(key) = target.key() else {
                continue;
            };
            if !self.seen.insert(key) {
                continue;
            }
            fresh.insert(key);
            let entry = &target.parent.pc.entries[target.j];
            // `ALT` exists exactly for branch entries; it is built only
            // when the job is processed (`Job::alt`).
            if entry.kind != EntryKind::Branch {
                continue;
            }
            let (id, _) = entry.branch.expect("keyed entries are branches");
            let expected = target
                .parent
                .pc
                .expected_path(target.j)
                .expect("keyed entries are branches");
            debug_assert_eq!(path_key(&expected), key, "in-place key drifted");
            jobs.push(Job {
                target,
                expected,
                key,
                id,
            });
        }
        (jobs, fresh)
    }

    /// Folds one merged target outcome into the state: each run's
    /// samples join the table (first writer wins, in run order — the
    /// same order the events are emitted in) and its children extend the
    /// frontier. The event half of the merge is
    /// [`outcome_block`](super::merge::outcome_block); keeping the two
    /// apart lets the coordinator re-emit shard-produced blocks
    /// verbatim.
    pub(crate) fn fold_outcome(&mut self, out: TargetOutcome) {
        for run in out.runs {
            self.samples.merge(&run.samples);
            self.pending.extend(run.children);
        }
    }

    /// Applies a broadcast delta to this replica (lattice join).
    pub(crate) fn absorb(&mut self, delta: &StateDelta) {
        self.samples.apply_delta(&delta.samples);
        self.seen.extend(delta.seen.iter().copied());
    }
}

/// The state a sharded campaign exchanges at a generation boundary:
/// sample pairs recorded since the last broadcast plus dedup keys newly
/// claimed by the coordinator's canonical filter. Applying deltas is a
/// join — commutative, associative, idempotent — so replicas converge
/// regardless of delivery order or duplication.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct StateDelta {
    pub(crate) samples: SamplesDelta,
    pub(crate) seen: BTreeSet<u64>,
}

impl StateDelta {
    /// Joins another delta into this one.
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &StateDelta) {
        self.samples.merge(&other.samples);
        self.seen.extend(other.seen.iter().copied());
    }

    /// Total exchanged items (sample pairs + dedup keys): the protocol's
    /// per-broadcast payload size, reported by campaign-bench.
    pub(crate) fn exchange_size(&self) -> (u64, u64) {
        (self.samples.len() as u64, self.seen.len() as u64)
    }
}

/// Assigns branch-flip targets to shards by stable path-key hash. The
/// key is already a fixed-key FNV-1a digest of the expected branch path;
/// a fixed 64-bit finalizer (splitmix64) spreads it before the modulo so
/// shard balance does not ride on FNV's low bits.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Partitioner {
    shards: usize,
}

impl Partitioner {
    /// A partitioner over `shards` shards (at least 1).
    pub(crate) fn new(shards: usize) -> Partitioner {
        Partitioner {
            shards: shards.max(1),
        }
    }

    /// The shard that owns a stable path key. Pure: depends only on the
    /// key and the shard count, never on threads, platform, or any
    /// ambient state.
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        (mix64(key) % self.shards as u64) as usize
    }

    /// The shard that owns a job (by its expected path's stable key).
    pub(crate) fn shard_of_job(&self, job: &Job) -> usize {
        self.shard_of(job.key)
    }
}

/// splitmix64's finalizer: a fixed bijective mixer, stable everywhere.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-shard/per-campaign exchange accounting surfaced through the
/// announcement-only [`CampaignEvent::ShardStats`].
#[derive(Debug, Default)]
pub(crate) struct ExchangeStats {
    /// Sample pairs carried by all broadcast deltas.
    pub(crate) samples: u64,
    /// Dedup keys carried by all broadcast deltas.
    pub(crate) keys: u64,
    /// Targets processed per shard.
    pub(crate) per_shard_targets: Vec<u64>,
}

impl ExchangeStats {
    pub(crate) fn event(&self, shards: usize) -> CampaignEvent {
        CampaignEvent::ShardStats {
            shards,
            per_shard_targets: self.per_shard_targets.clone(),
            exchange_samples: self.samples,
            exchange_keys: self.keys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::FuncSym;

    /// Tiny deterministic generator (LCG) for randomized deltas — no
    /// external RNG dependency, reproducible across platforms.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    fn random_delta(rng: &mut Lcg) -> StateDelta {
        let mut d = StateDelta::default();
        for _ in 0..(rng.next() % 8) {
            let f = FuncSym((rng.next() % 3) as u32);
            let args = vec![(rng.next() % 5) as i64];
            // Small output range on purpose: forces argument clashes so
            // the min-wins rule is actually exercised.
            let out = (rng.next() % 4) as i64;
            d.samples.record(f, args, out);
        }
        for _ in 0..(rng.next() % 6) {
            d.seen.insert(rng.next() % 64);
        }
        d
    }

    fn absorbed(deltas: &[&StateDelta]) -> (u64, BTreeSet<u64>) {
        let mut st = CampaignState::default();
        for d in deltas {
            st.absorb(d);
        }
        (st.samples.fingerprint(), st.seen)
    }

    /// The satellite merge-semantics property: absorbing deltas is
    /// commutative, associative (grouping via delta-level merge), and
    /// idempotent, on randomized (clash-bearing) deltas.
    #[test]
    fn state_merge_semantics() {
        let mut rng = Lcg(0x5eed);
        for _ in 0..200 {
            let (a, b, c) = (
                random_delta(&mut rng),
                random_delta(&mut rng),
                random_delta(&mut rng),
            );
            // Commutative.
            assert_eq!(absorbed(&[&a, &b]), absorbed(&[&b, &a]));
            // Associative: (a ⊔ b) then c equals a then (b ⊔ c).
            let mut ab = a.clone();
            ab.merge(&b);
            let mut bc = b.clone();
            bc.merge(&c);
            assert_eq!(absorbed(&[&ab, &c]), absorbed(&[&a, &bc]));
            // Idempotent.
            assert_eq!(absorbed(&[&a, &a, &b, &b, &a]), absorbed(&[&a, &b]));
        }
    }

    /// Merged tables never drop a sample: every pair present in any
    /// absorbed delta is present (for its arguments) in the join.
    #[test]
    fn merge_never_drops_samples() {
        let mut rng = Lcg(0xfeed);
        for _ in 0..100 {
            let deltas: Vec<StateDelta> = (0..4).map(|_| random_delta(&mut rng)).collect();
            let mut st = CampaignState::default();
            for d in &deltas {
                st.absorb(d);
            }
            for d in &deltas {
                let mut probe = Samples::new();
                probe.apply_delta(&d.samples);
                for f in (0..3).map(FuncSym) {
                    for (args, _) in probe.entries_for(f) {
                        assert!(
                            st.samples.lookup(f, args).is_some(),
                            "joined table dropped an absorbed argument tuple"
                        );
                    }
                }
            }
        }
    }

    /// diff/apply round-trip: a replica that applies the diff catches up
    /// exactly, and re-applying is a no-op.
    #[test]
    fn diff_apply_round_trip() {
        let mut canon = Samples::new();
        let mut replica = Samples::new();
        let mut rng = Lcg(7);
        for step in 0..20 {
            for _ in 0..(rng.next() % 5) {
                canon.record(
                    FuncSym((rng.next() % 4) as u32),
                    vec![(rng.next() % 9) as i64, step],
                    rng.next() as i64,
                );
            }
            let delta = canon.diff(&replica);
            replica.apply_delta(&delta);
            assert_eq!(replica, canon, "replica in lockstep after delta {step}");
            replica.apply_delta(&delta);
            assert_eq!(replica, canon, "re-delivery is a no-op");
            assert!(canon.diff(&replica).is_empty());
        }
    }

    /// Partitioner: pure function of the key (repeated calls and fresh
    /// instances agree), every key lands in exactly one shard, and known
    /// fixed points pin the mixer against platform/toolchain drift.
    #[test]
    fn partitioner_is_deterministic_and_total() {
        for shards in [1usize, 2, 3, 4, 8] {
            let p = Partitioner::new(shards);
            let q = Partitioner::new(shards);
            for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
                let s = p.shard_of(key);
                assert!(s < shards);
                assert_eq!(s, q.shard_of(key), "fresh instance agrees");
                assert_eq!(s, p.shard_of(key), "repeated call agrees");
            }
        }
        // The mixer is pure integer arithmetic (no hashing ambient
        // state), so cross-platform stability holds by construction;
        // spot-check it is not degenerate.
        assert_eq!(super::mix64(0), 0);
        assert_ne!(super::mix64(1), super::mix64(2));
        assert_ne!(super::mix64(1), 1);
    }

    /// Synthetic balance: over a large keyset, every shard's share stays
    /// within 2× of perfect balance (the satellite bound).
    #[test]
    fn partitioner_balances_synthetic_keys() {
        let keys: Vec<u64> = {
            // Keys shaped like real path keys: FNV-1a digests of short
            // branch paths.
            let mut out = Vec::new();
            for len in 1..=8usize {
                for bits in 0..(1u64 << len) {
                    let path: Vec<(hotg_lang::BranchId, bool)> = (0..len)
                        .map(|i| (hotg_lang::BranchId(i as u32), bits >> i & 1 == 1))
                        .collect();
                    out.push(path_key(&path));
                }
            }
            out
        };
        for shards in [2usize, 4, 8] {
            let p = Partitioner::new(shards);
            let mut counts = vec![0usize; shards];
            for &k in &keys {
                counts[p.shard_of(k)] += 1;
            }
            let perfect = keys.len() as f64 / shards as f64;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) <= 2.0 * perfect,
                    "shard {i}/{shards} holds {c} of {} keys (perfect {perfect:.1})",
                    keys.len()
                );
            }
        }
    }
}
