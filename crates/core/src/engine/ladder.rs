//! The degradation ladder (Theorem 4's fallback, operationalized) as a
//! strategy-to-strategy demotion: when a strategy's own attempt at a
//! target concedes, the engine walks the strategy's
//! [`demoted`](crate::strategy::Strategy::demoted) chain — each rung is
//! simply a weaker strategy whose symbolic mode re-derives the flip
//! query — instead of re-dispatching on technique inline.

use super::outcome::{Job, TargetOutcome};
use super::Engine;
use crate::report::{DegradationReason, DegradationRecord, Origin};
use crate::strategy::Strategy;
use hotg_concolic::ExecProfile;
use hotg_lang::InputVector;
use hotg_logic::Value;
use hotg_solver::{SmtResult, SmtSolver};
use std::collections::BTreeMap;

impl Engine<'_> {
    /// The strategy's own attempt at a target conceded (`Unknown` or an
    /// errored query): try the degradation ladder, and reject the target
    /// if no rung recovers it.
    pub(crate) fn concede_target(
        &self,
        job: &Job,
        strategy: &dyn Strategy,
        smt: &SmtSolver,
        reason: DegradationReason,
        out: &mut TargetOutcome,
    ) {
        if !self.degrade_target(job, strategy, smt, reason, out) {
            out.rejected_targets += 1;
        }
    }

    /// Re-attempts a conceded target under the strategy's demotion
    /// chain — sound concretization first (still divergence-free), then
    /// DART's unsound concretization as a last resort. Returns `true` if
    /// some rung generated a test; every attempted rung is recorded.
    ///
    /// The parent inputs are re-executed under the demoted strategy's
    /// mode to obtain a comparable path constraint. Concrete execution
    /// is identical across modes, so the demoted run's *branch* entries
    /// line up 1:1 with the original run's — entry positions differ
    /// (sound concretization interleaves pinning entries), hence the
    /// mapping through branch order below.
    fn degrade_target(
        &self,
        job: &Job,
        strategy: &dyn Strategy,
        smt: &SmtSolver,
        reason: DegradationReason,
        out: &mut TargetOutcome,
    ) -> bool {
        if !self.config.degradation_ladder {
            return false;
        }
        // Position of the flipped branch in the parent's branch order.
        let Some(branch_pos) = job
            .target
            .pc
            .branch_indices()
            .iter()
            .position(|&j| j == job.target.j)
        else {
            return false;
        };
        let campaign_profile = strategy.profile();
        let mut next = strategy.demoted();
        while let Some(rung_strategy) = next {
            next = rung_strategy.demoted();
            let Some(level) = rung_strategy.degradation_level() else {
                continue;
            };
            let mut rung = DegradationRecord {
                target: job.id,
                reason,
                level,
                recovered: false,
            };
            // The rung re-derives the flip query under the demoted
            // strategy's mode; call summarization follows the campaign
            // strategy so the re-executed parent is comparable.
            let parent = self.execute_concolic(
                &InputVector::new(job.target.parent_inputs.clone()),
                ExecProfile {
                    mode: rung_strategy.profile().mode,
                    summarize_calls: campaign_profile.summarize_calls,
                },
            );
            let demoted_alt = parent
                .pc
                .branch_indices()
                .get(branch_pos)
                .and_then(|&dj| parent.pc.alt(dj));
            let Some(alt) = demoted_alt else {
                out.degradations.push(rung);
                continue;
            };
            out.solver_calls += 1;
            let model = match smt.check(&alt) {
                Ok(SmtResult::Sat(m)) => Some(m),
                Ok(_) => None,
                Err(_) => {
                    out.solver_errors += 1;
                    None
                }
            };
            let Some(model) = model else {
                out.degradations.push(rung);
                continue;
            };
            let mut values = BTreeMap::new();
            for v in alt.vars() {
                if let Some(Value::Int(x)) = model.var(v) {
                    values.insert(v, x);
                }
            }
            let inputs = self.merge_inputs(&job.target.parent_inputs, &values);
            // The recovered test still runs under the *campaign*
            // strategy's profile: its path constraint feeds the next
            // generation of the original search.
            let run = self.execute_run(
                inputs,
                Origin::Degraded {
                    target: job.id,
                    level,
                },
                Some(&job.expected),
                campaign_profile,
            );
            out.runs.push(run);
            rung.recovered = true;
            out.degradations.push(rung);
            return true;
        }
        false
    }
}
