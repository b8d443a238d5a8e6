//! The engine's work items and worker results: what a generation
//! schedules ([`Target`] → [`Job`]) and what a worker hands back to the
//! merge thread ([`WorkerRun`], [`TargetOutcome`]).
//!
//! Every branch of an executed run becomes its own flip target, so one
//! run of path length `n` yields up to `n` targets. They all point at one
//! shared [`ParentRun`] — the run's path constraint, inputs and samples,
//! moved in once — so a run's targets cost `O(n)` rather than `O(n²)`.
//! The dedup key is hashed straight off the shared path constraint
//! ([`Target::key`]); the expected path is materialized only for targets
//! that survive dedup, and the `ALT` formula only when a target is
//! actually processed ([`Job::alt`]).

use crate::chaos::FaultCounters;
use crate::report::{DegradationRecord, RunRecord};
use hotg_concolic::PathConstraint;
use hotg_lang::BranchId;
use hotg_logic::StableHasher;
use hotg_logic::{Formula, Model};
use hotg_solver::Samples;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What every flip target of one executed run shares: built once per
/// run (the path constraint is moved in, never cloned) and reference
/// counted by the run's targets.
#[derive(Debug)]
pub(crate) struct ParentRun {
    pub(crate) inputs: Vec<i64>,
    pub(crate) pc: PathConstraint,
    /// Samples observed by the parent run (used when cross-run sampling
    /// is disabled).
    pub(crate) samples: Samples,
}

/// A branch-flip target produced by one executed run.
#[derive(Clone, Debug)]
pub(crate) struct Target {
    pub(crate) parent: Arc<ParentRun>,
    /// Index of the branch entry to negate.
    pub(crate) j: usize,
}

impl Target {
    /// The dedup key of this target's expected path, hashed in place:
    /// exactly [`path_key`]`(&pc.expected_path(j))` — the same
    /// `StableHasher` byte stream (length prefix, the branch prefix
    /// before `j`, then the flipped direction) — without materializing
    /// the path. `None` when entry `j` is not a branch entry.
    pub(crate) fn key(&self) -> Option<u64> {
        let entries = &self.parent.pc.entries;
        let (id, taken) = entries.get(self.j)?.branch?;
        let prefix = &entries[..self.j];
        let mut h = StableHasher::new();
        h.write_usize(prefix.iter().filter(|e| e.branch.is_some()).count() + 1);
        for branch in prefix.iter().filter_map(|e| e.branch) {
            branch.hash(&mut h);
        }
        (id, !taken).hash(&mut h);
        Some(h.finish())
    }
}

/// A filtered, ready-to-process target of one generation: the dedup and
/// feasibility pre-checks ran on the merge thread, so workers start
/// straight at the solver query.
pub(crate) struct Job {
    pub(crate) target: Target,
    pub(crate) expected: Vec<(BranchId, bool)>,
    /// The stable dedup key of `expected` (chaos rolls, shard
    /// partitioning).
    pub(crate) key: u64,
    pub(crate) id: BranchId,
}

impl Job {
    /// The alternate path constraint `ALT` this job queries. Built on
    /// demand by the worker that processes the job, so targets a
    /// campaign never reaches (run budget, deadline) never build one.
    pub(crate) fn alt(&self) -> Formula {
        self.target
            .parent
            .pc
            .alt(self.target.j)
            .expect("jobs are admitted for branch entries only")
    }
}

/// One executed run produced while processing a target, together with
/// everything the merge step folds back into the campaign state.
pub(crate) struct WorkerRun {
    pub(crate) record: RunRecord,
    /// Samples observed by this run (merged into the global table).
    pub(crate) samples: Samples,
    /// Branch-flip targets of this run (next generation's worklist).
    pub(crate) children: Vec<Target>,
    /// Targets dropped by the static oracle while expanding this run.
    pub(crate) pruned_static: usize,
    /// The run's outcome was replaced by an injected interpreter fault
    /// (chaos testing).
    pub(crate) injected_fault: bool,
}

/// Everything one target's processing produced. Workers fill these in
/// isolation; the engine translates them into [`CampaignEvent`]s in
/// deterministic target order.
///
/// [`CampaignEvent`]: crate::CampaignEvent
#[derive(Default)]
pub(crate) struct TargetOutcome {
    pub(crate) solver_calls: usize,
    pub(crate) rejected_targets: usize,
    /// Solver/validity queries that failed with an error.
    pub(crate) solver_errors: usize,
    /// Escalated-budget retries of `Unknown` verdicts.
    pub(crate) budget_escalations: usize,
    /// The worker processing this target panicked; the panic was caught
    /// and the target abandoned (its partial outcome is discarded so the
    /// merged report never depends on how far the worker got).
    pub(crate) faulted: bool,
    /// Degradation-ladder rungs taken for this target.
    pub(crate) degradations: Vec<DegradationRecord>,
    /// Faults injected while processing this target.
    pub(crate) faults: FaultCounters,
    /// Executed runs (probes and generated tests), in execution order.
    pub(crate) runs: Vec<WorkerRun>,
}

/// Verdict of one alternate-path satisfiability query, with injected
/// chaos outcomes folded into the same shape as real ones.
pub(crate) enum Checked {
    Sat(Model),
    Unsat,
    Unknown,
    Errored,
}

/// Deterministic dedup key of an expected branch path. Storing the
/// 64-bit hash instead of the path itself keeps the `seen` set compact:
/// paths grow linearly with program depth, and every executed run
/// contributes one per negatable branch.
///
/// Fixed-key FNV-1a ([`StableHasher`]): the key is exchanged between
/// shards and drives the [`Partitioner`](super::state::Partitioner), so
/// it must be identical across processes, platforms, and toolchains —
/// `DefaultHasher` guarantees none of that.
pub(crate) fn path_key(path: &[(BranchId, bool)]) -> u64 {
    let mut h = StableHasher::new();
    path.hash(&mut h);
    h.finish()
}

/// Multiplies a node budget by the escalation factor, saturating.
pub(crate) fn scale_budget(budget: u64, factor: f64) -> u64 {
    let scaled = budget as f64 * factor;
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Origin;
    use crate::{Driver, DriverConfig};
    use hotg_concolic::{EntryKind, ExecProfile, PathEntry, SymbolicMode};
    use hotg_lang::corpus;
    use hotg_prop::{collection, proptest, ProptestConfig};

    /// One drawn entry: `(kind, site, direction)`. Kind 0 is a
    /// concretization, 1 a branch whose constraint folded to `true`, 2 a
    /// branch with a real constraint.
    fn pc_of(draws: &[(u8, u32, bool)]) -> PathConstraint {
        let mut pc = PathConstraint::new();
        for &(kind, site, taken) in draws {
            pc.entries.push(match kind {
                0 => PathEntry {
                    constraint: Formula::False,
                    kind: EntryKind::Concretization,
                    branch: None,
                },
                _ => PathEntry {
                    constraint: if kind == 1 {
                        Formula::True
                    } else {
                        Formula::False
                    },
                    kind: EntryKind::Branch,
                    branch: Some((BranchId(site), taken)),
                },
            });
        }
        pc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place key hashes exactly the byte stream `path_key`
        /// hashes over the materialized expected path, at every entry
        /// index: branch entries (with empty, concretization-only and
        /// mixed prefixes) get the same key, every other index none.
        #[test]
        fn in_place_key_matches_path_key(
            draws in collection::vec((0u8..3, 0u32..6, hotg_prop::bool::ANY), 0..24),
        ) {
            let parent = Arc::new(ParentRun {
                inputs: Vec::new(),
                pc: pc_of(&draws),
                samples: Samples::new(),
            });
            for j in 0..=draws.len() {
                let target = Target { parent: Arc::clone(&parent), j };
                let want = parent.pc.expected_path(j).map(|p| path_key(&p));
                hotg_prop::prop_assert_eq!(target.key(), want);
            }
        }
    }

    /// Every flip target of one executed run points at the same shared
    /// parent, and nothing else holds a reference to it.
    #[test]
    fn children_of_one_run_share_one_parent() {
        let (program, natives) = corpus::fanout();
        let driver = Driver::new(&program, &natives, DriverConfig::with_initial(vec![0; 8]));
        let engine = driver.engine();
        let run = engine.execute_run(
            vec![0; 8],
            Origin::Initial,
            None,
            ExecProfile::new(SymbolicMode::Uninterpreted),
        );
        let children = run.children;
        assert!(children.len() > 1, "fanout expands several targets");
        let parent = &children[0].parent;
        for child in &children {
            assert!(Arc::ptr_eq(parent, &child.parent));
        }
        assert_eq!(Arc::strong_count(parent), children.len());
        assert_eq!(parent.inputs, vec![0; 8]);
        let mut js: Vec<usize> = children.iter().map(|c| c.j).collect();
        js.dedup();
        assert_eq!(js.len(), children.len(), "one target per branch entry");
    }
}
