//! The higher-order strategies (§4–§5, §8): flip queries are *validity*
//! checks `∃X : A ⇒ ALT(pc)` against the sampled `IOF` table, a proof's
//! strategy is interpreted into concrete inputs, and missing
//! application values trigger intermediate probe executions (multi-step
//! test generation, §5.3 Example 7).

use super::{Strategy, TargetCx};
use crate::chaos::chaos_key;
use crate::config::Technique;
use crate::engine::outcome::{Checked, Job, TargetOutcome};
use crate::report::{DegradationReason, Origin};
use hotg_concolic::{ExecProfile, SymbolicMode};
use hotg_logic::Formula;
use hotg_solver::{Interpretation, Samples, Strategy as ValidityStrategy, ValidityOutcome};

/// Higher-order test generation (§4): uninterpreted functions,
/// sampling, validity-proof strategies, multi-step probes.
pub(crate) struct HigherOrder;

/// Higher-order **compositional** test generation (§8): defined
/// functions are abstracted by uninterpreted applications whose
/// behaviour is constrained by instantiated *summaries*, combined with
/// the sampled unknown natives in one antecedent.
pub(crate) struct HigherOrderCompositional;

impl Strategy for HigherOrder {
    fn technique(&self) -> Technique {
        Technique::HigherOrder
    }

    fn profile(&self) -> ExecProfile {
        ExecProfile::new(SymbolicMode::Uninterpreted)
    }

    fn demoted(&self) -> Option<&'static dyn Strategy> {
        Some(&super::DartSound)
    }

    fn process_target(&self, cx: &TargetCx<'_, '_>, job: &Job, out: &mut TargetOutcome) {
        higher_order_target(self, cx, job, out);
    }
}

impl Strategy for HigherOrderCompositional {
    fn technique(&self) -> Technique {
        Technique::HigherOrderCompositional
    }

    fn profile(&self) -> ExecProfile {
        ExecProfile::summarized(SymbolicMode::Uninterpreted)
    }

    fn demoted(&self) -> Option<&'static dyn Strategy> {
        Some(&super::DartSound)
    }

    fn process_target(&self, cx: &TargetCx<'_, '_>, job: &Job, out: &mut TargetOutcome) {
        higher_order_target(self, cx, job, out);
    }
}

/// Processes one target with higher-order test generation, including
/// multi-step probing. Probe runs extend a thread-local copy of the
/// generation snapshot; the merge step folds them into the global
/// table afterwards.
fn higher_order_target(
    strategy: &dyn Strategy,
    cx: &TargetCx<'_, '_>,
    job: &Job,
    out: &mut TargetOutcome,
) {
    let eng = cx.engine;
    let extra = cx
        .summaries
        .map(|t| t.antecedent_for(&job.alt))
        .unwrap_or(Formula::True);
    let mut local = cx.snapshot.clone();
    let mut probes_left = eng.config.max_probes_per_target;
    let mut query_seq = 0usize;
    loop {
        let samples = if eng.config.cross_run_samples {
            local.clone()
        } else {
            job.target.parent_samples.clone()
        };
        out.solver_calls += 1;
        query_seq += 1;
        let checked = match eng.chaos_solver(out, chaos_key(&(cx.tkey, query_seq))) {
            Some(Checked::Errored) => Err(()),
            Some(_) => Ok(ValidityOutcome::Unknown),
            None => cx
                .validity
                .check_with(eng.ctx.input_vars(), &samples, &extra, &job.alt)
                .map_err(|_| ()),
        };
        let outcome = match checked {
            Ok(o) => o,
            Err(()) => {
                out.solver_errors += 1;
                eng.concede_target(job, strategy, cx.smt, DegradationReason::SolverError, out);
                return;
            }
        };
        match outcome {
            ValidityOutcome::Valid(vstrategy) => {
                run_strategy(
                    strategy,
                    cx,
                    &vstrategy,
                    job,
                    &mut local,
                    &mut probes_left,
                    out,
                );
                return;
            }
            ValidityOutcome::NeedMoreSamples { probe, missing: _ } => {
                if probes_left == 0 {
                    out.rejected_targets += 1;
                    return;
                }
                probes_left -= 1;
                let inputs = eng.merge_inputs(&job.target.parent_inputs, &probe);
                let mut run = eng.execute_run(
                    inputs,
                    Origin::Probe { target: job.id },
                    None,
                    probe_profile(strategy),
                );
                // Chaos: a failed probe executes but its observations
                // are lost — the campaign must cope with a sample
                // table that never grows.
                let probe_seq = eng.config.max_probes_per_target - probes_left;
                if eng.chaos_probe(out, chaos_key(&(cx.tkey, probe_seq))) {
                    run.samples = Samples::new();
                } else {
                    local.merge(&run.samples);
                }
                out.runs.push(run);
                // Retry validity with the enriched sample table.
            }
            ValidityOutcome::Invalid { .. } => {
                out.rejected_targets += 1;
                return;
            }
            ValidityOutcome::Unknown => {
                // One escalated-budget retry; decisive verdicts are
                // honoured, anything else falls to the ladder.
                match eng.escalated_validity(cx.validity, &samples, &extra, &job.alt, out) {
                    Some(ValidityOutcome::Valid(vstrategy)) => {
                        run_strategy(
                            strategy,
                            cx,
                            &vstrategy,
                            job,
                            &mut local,
                            &mut probes_left,
                            out,
                        );
                    }
                    Some(ValidityOutcome::Invalid { .. }) => out.rejected_targets += 1,
                    _ => eng.concede_target(
                        job,
                        strategy,
                        cx.smt,
                        DegradationReason::SolverUnknown,
                        out,
                    ),
                }
                return;
            }
        }
    }
}

/// Probe and strategy runs always evaluate with uninterpreted
/// functions (they feed the `IOF` table); summarization follows the
/// campaign strategy.
fn probe_profile(strategy: &dyn Strategy) -> ExecProfile {
    ExecProfile {
        mode: SymbolicMode::Uninterpreted,
        summarize_calls: strategy.profile().summarize_calls,
    }
}

/// Interprets a validity strategy, probing for missing samples.
fn run_strategy(
    strategy: &dyn Strategy,
    cx: &TargetCx<'_, '_>,
    vstrategy: &ValidityStrategy,
    job: &Job,
    local: &mut Samples,
    probes_left: &mut usize,
    out: &mut TargetOutcome,
) {
    let eng = cx.engine;
    loop {
        let samples = if eng.config.cross_run_samples {
            local.clone()
        } else {
            job.target.parent_samples.clone()
        };
        match vstrategy.interpret(&samples) {
            Interpretation::Concrete(values) => {
                let inputs = eng.merge_inputs(&job.target.parent_inputs, &values);
                let rendered = vstrategy.display(eng.ctx.sig()).to_string();
                let run = eng.execute_run(
                    inputs,
                    Origin::Strategy {
                        target: job.id,
                        strategy: rendered,
                    },
                    Some(&job.expected),
                    probe_profile(strategy),
                );
                local.merge(&run.samples);
                out.runs.push(run);
                return;
            }
            Interpretation::NeedSamples(missing) => {
                if *probes_left == 0 {
                    out.rejected_targets += 1;
                    return;
                }
                *probes_left -= 1;
                // Intermediate test: parent inputs with the concrete
                // part of the strategy applied (paper: probe
                // (x = 567, y = 10) to learn h(10)).
                let partial = vstrategy.interpret_partial(&samples);
                let inputs = eng.merge_inputs(&job.target.parent_inputs, &partial);
                let mut run = eng.execute_run(
                    inputs,
                    Origin::Probe { target: job.id },
                    None,
                    probe_profile(strategy),
                );
                // Chaos: a failed probe loses its observations (the
                // `probes_left` countdown is shared with the validity
                // loop, so sequence numbers stay unique per target).
                let probe_seq = eng.config.max_probes_per_target - *probes_left;
                if eng.chaos_probe(out, chaos_key(&(cx.tkey, probe_seq))) {
                    run.samples = Samples::new();
                } else {
                    local.merge(&run.samples);
                }
                // If the probe did not record any of the missing
                // samples, the program never evaluates those
                // applications on this prefix: give up.
                let learned = missing
                    .iter()
                    .any(|(f, args)| run.samples.lookup(*f, args).is_some());
                out.runs.push(run);
                if !learned && !eng.config.cross_run_samples {
                    out.rejected_targets += 1;
                    return;
                }
                let now_known = missing
                    .iter()
                    .all(|(f, args)| local.lookup(*f, args).is_some());
                if !now_known && *probes_left == 0 {
                    out.rejected_targets += 1;
                    return;
                }
            }
        }
    }
}
