//! Generation scheduling for the directed search: dedup filtering of
//! each generation's targets (merge thread), the worker pool that
//! processes surviving targets in parallel against a sample-table
//! snapshot, and the in-order merge that turns worker outcomes into
//! events. See the [engine module docs](crate::engine) for the
//! determinism argument.

use super::outcome::{Job, TargetOutcome};
use super::state::CampaignState;
use super::{merge, resume, Emitter, Engine};
use crate::events::CampaignEvent;
use crate::report::Origin;
use crate::strategy::Strategy;
use crate::summaries::{SummaryConfig, SummaryTable};
use hotg_solver::{SmtSolver, ValidityChecker};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

impl Engine<'_> {
    /// The generational directed search shared by every whitebox
    /// strategy: seed runs, then breadth-first generations of
    /// branch-flip targets, each processed by
    /// [`Strategy::process_target`] and merged in target order.
    pub(crate) fn directed(&self, strategy: &dyn Strategy, em: &mut Emitter<'_>) {
        let profile = strategy.profile();
        let summaries = if profile.summarize_calls && !self.program.functions.is_empty() {
            Some(SummaryTable::compute(
                self.program,
                self.natives,
                &SummaryConfig::default(),
            ))
        } else {
            None
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut st = CampaignState::default();
        // Both solvers intern through the driver-owned campaign arena, so
        // normalization/fingerprint work is shared between them (and with
        // escalated/deadline-reconfigured clones).
        let smt =
            SmtSolver::with_config(self.config.validity.smt).with_arena(Arc::clone(self.arena));
        let smt = match &self.config.query_log {
            Some(log) => smt.with_recorder(Arc::clone(log)),
            None => smt,
        };
        let validity =
            ValidityChecker::with_config(self.config.validity).with_arena(Arc::clone(self.arena));
        let campaign_end = self.campaign_end();

        self.seed_phase(strategy, &mut rng, &mut st, |e| em.emit(e));

        let threads = self.config.threads.max(1);
        'search: while !st.pending.is_empty() && em.report.runs.len() < self.config.max_runs {
            if em.fail_fast_tripped() {
                break;
            }
            if campaign_end.expired() {
                em.emit(CampaignEvent::CampaignTimedOut);
                break;
            }
            let (jobs, _fresh_keys) = st.filter_generation();
            if jobs.is_empty() {
                break;
            }
            em.emit(CampaignEvent::GenerationStarted {
                index: em.report.generation_widths.len(),
                width: jobs.len(),
            });
            for (ordinal, job) in jobs.iter().enumerate() {
                em.emit(CampaignEvent::TargetScheduled {
                    target: job.id,
                    ordinal,
                });
            }
            // Snapshot of the sample table all of this generation's
            // targets are checked against (per-target probe runs extend a
            // thread-local copy).
            let snapshot = st.samples.clone();
            let mut stop = false;
            // Stage A (resume replay): while the recorded prefix still
            // covers whole targets, reconstruct each outcome from the
            // trace instead of redoing its solver work. Every
            // reconstructed run is re-executed and verified against the
            // recorded record; any inconsistency stops the stage and the
            // remaining targets are processed live (stage B), which
            // abandons the replay at the first diverging event.
            let mut start = 0;
            while start < jobs.len() && em.replay_active() && !stop {
                if em.report.runs.len() >= self.config.max_runs {
                    stop = true;
                    break;
                }
                if campaign_end.expired() {
                    em.emit(CampaignEvent::CampaignTimedOut);
                    stop = true;
                    break;
                }
                if em.fail_fast_tripped() {
                    stop = true;
                    break;
                }
                let Some(out) =
                    resume::reconstruct_outcome(self, strategy, &jobs[start], em.replay_rest())
                else {
                    break;
                };
                self.merge_outcome(&jobs[start], out, em, &mut st);
                start += 1;
            }
            let live = &jobs[start..];
            if stop {
                // fall through to the stop below
            } else if threads == 1 || live.len() <= 1 {
                for job in live {
                    if em.report.runs.len() >= self.config.max_runs {
                        stop = true;
                        break;
                    }
                    if campaign_end.expired() {
                        em.emit(CampaignEvent::CampaignTimedOut);
                        stop = true;
                        break;
                    }
                    if em.fail_fast_tripped() {
                        stop = true;
                        break;
                    }
                    let out = self.process_target(
                        strategy,
                        job,
                        &snapshot,
                        summaries.as_ref(),
                        &smt,
                        &validity,
                        campaign_end,
                    );
                    self.merge_outcome(job, out, em, &mut st);
                }
            } else {
                let outcomes = run_pool(threads, live, |job| {
                    self.process_target(
                        strategy,
                        job,
                        &snapshot,
                        summaries.as_ref(),
                        &smt,
                        &validity,
                        campaign_end,
                    )
                });
                for (job, out) in live.iter().zip(outcomes) {
                    if em.report.runs.len() >= self.config.max_runs {
                        stop = true;
                        break;
                    }
                    if campaign_end.expired() {
                        em.emit(CampaignEvent::CampaignTimedOut);
                        stop = true;
                        break;
                    }
                    if em.fail_fast_tripped() {
                        stop = true;
                        break;
                    }
                    self.merge_outcome(job, out, em, &mut st);
                }
            }
            if stop {
                break 'search;
            }
        }
        let smt_stats = smt.cache_stats();
        let stats = smt_stats.merged(validity.cache_stats());
        em.emit(CampaignEvent::CacheStats {
            hits: stats.hits,
            misses: stats.misses,
        });
        em.emit(CampaignEvent::SolverSessionStats {
            queries: smt_stats.hits + smt_stats.misses,
            intern_hits: self.arena.stats().intern_hits,
        });
        // Pre-solver cascade totals: the SMT solver's and validity
        // checker's cascades are distinct (the checker wraps its own
        // solver), so merge their counters like the cache stats above.
        let backend = match (smt.backend_stats(), validity.backend_stats()) {
            (Some(a), Some(b)) => Some(a.merged(b)),
            (a, b) => a.or(b),
        };
        if let Some(b) = backend {
            em.emit(CampaignEvent::BackendStats {
                backend: b.backend.to_string(),
                queries: b.queries,
                unsat_short_circuits: b.unsat_short_circuits,
                valid_short_circuits: b.valid_short_circuits,
                sat_short_circuits: b.sat_short_circuits,
            });
        }
    }

    /// The campaign preamble every directed campaign shares, emitted
    /// through `emit` so the single-shard path (canonical emitter) and
    /// the shard coordinator (canonical emitter *plus* every shard
    /// trace — the preamble is part of each shard's checkpoint) replay
    /// the identical sequence:
    ///
    /// * UF-placement oracle: native call sites whose arguments are
    ///   statically constant always evaluate the same application, so
    ///   their input/output pair is put into the `IOF` table before the
    ///   first run — a validity proof may then use the pair without a
    ///   probe execution (Figure 3's sampled table, filled eagerly);
    /// * the initial run and the seed-corpus runs, which populate the
    ///   first generation's frontier.
    pub(crate) fn seed_phase(
        &self,
        strategy: &dyn Strategy,
        rng: &mut StdRng,
        st: &mut CampaignState,
        mut emit: impl FnMut(CampaignEvent),
    ) {
        let profile = strategy.profile();
        if self.config.static_pruning {
            for site in self.analysis.native_sites() {
                let hotg_analysis::SiteClass::ConstArgs(args) = &site.class else {
                    continue;
                };
                let Some(fsym) = self.ctx.native_sym(&site.name) else {
                    continue;
                };
                if let Ok(out) = self.natives.call(&site.name, args) {
                    st.samples.record(fsym, args.clone(), out);
                    emit(CampaignEvent::SitePresampled);
                }
            }
        }
        let initial = self.initial_inputs(rng);
        let run = self.execute_run(initial, Origin::Initial, None, profile);
        for event in merge::run_unit(&run) {
            emit(event);
        }
        st.samples.merge(&run.samples);
        st.pending.extend(run.children);
        for seed_inputs in &self.config.seed_corpus {
            let run = self.execute_run(seed_inputs.clone(), Origin::Seed, None, profile);
            for event in merge::run_unit(&run) {
                emit(event);
            }
            st.samples.merge(&run.samples);
            st.pending.extend(run.children);
        }
    }

    /// Translates one target's outcome into its event block
    /// ([`merge::outcome_block`], shared with the resume gate and the
    /// shard coordinator) and folds the outcome's state effects, in
    /// target order (merge thread only). The block's final event,
    /// [`CampaignEvent::TargetClosed`], is the delimiter the resume
    /// replay splits a salvaged prefix on.
    pub(crate) fn merge_outcome(
        &self,
        job: &Job,
        out: TargetOutcome,
        em: &mut Emitter<'_>,
        st: &mut CampaignState,
    ) {
        for event in merge::outcome_block(job, &out) {
            em.emit(event);
        }
        st.fold_outcome(out);
    }
}

/// Processes every job on a scoped worker pool and returns the outcomes
/// in job order. Workers pull jobs off an atomic cursor; each outcome
/// goes into its job's slot, so the result order is independent of
/// worker scheduling.
pub(crate) fn run_pool<F>(threads: usize, jobs: &[Job], process: F) -> Vec<TargetOutcome>
where
    F: Fn(&Job) -> TargetOutcome + Sync,
{
    let slots: Vec<OnceLock<TargetOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else {
                    break;
                };
                let out = process(job);
                slots[i]
                    .set(out)
                    .unwrap_or_else(|_| unreachable!("each slot has exactly one owner"));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker populated slot"))
        .collect()
}
