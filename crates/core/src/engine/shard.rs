//! The sharded campaign coordinator.
//!
//! A sharded campaign (`DriverConfig::shards` > 1) splits each
//! generation's branch-flip targets across N shard schedulers by stable
//! path-key hash ([`Partitioner`]) and merges their results back into
//! the canonical event stream — **bit-identical** to the stream a
//! single-shard run emits (modulo the announcement-only
//! [`CampaignEvent::ShardStats`] tail).
//!
//! # Roles
//!
//! The **coordinator** (this module, merge thread) does every piece of
//! canonically-ordered sequential work itself: the seed phase, dedup
//! filtering, generation/target scheduling events, stop checks, and the
//! in-order fold of target outcomes into [`CampaignState`]. **Shards**
//! only ever do the embarrassingly parallel part — processing a target
//! as a pure function of `(target, sample-table snapshot)` — exactly
//! the work the single-shard worker pool distributes across threads.
//!
//! # State exchange
//!
//! Each shard holds a [`CampaignState`] *replica* (dedup set + sample
//! table; the frontier stays with the coordinator). At every generation
//! boundary the coordinator broadcasts one [`StateDelta`] — the sample
//! pairs recorded since the last broadcast plus the dedup keys the
//! canonical filter just claimed — and every replica joins it in.
//! Because each replica's content is then exactly the canonical state,
//! the snapshot a shard hands its targets equals the snapshot the
//! single-shard path would have taken, and per-target outcomes are
//! identical. Deltas are lattice joins (order-insensitive, idempotent;
//! see [`super::state`]), which is what makes the exchange protocol
//! safe to extend to out-of-order transports.
//!
//! # Shard traces
//!
//! Each shard writes its own durable trace (header digest
//! [`shard_digest`], path [`shard_trace_path`]): the campaign preamble
//! (broadcast verbatim to every shard), then per generation a local
//! `GenerationStarted` + the shard's `TargetScheduled` events carrying
//! their *canonical* ordinals, then the shard's target blocks. The
//! trace is the shard's checkpoint: resume replays it through the
//! standard stage-A reconstruction, and the offline
//! [`merge`](super::merge) folds N completed shard traces back into the
//! canonical stream using the recorded ordinals.
//!
//! # Determinism argument
//!
//! Solver verdicts cannot differ across shard counts: the SMT node
//! budget is a per-`check` pool, caches are pure functions of their
//! keys, and chaos rolls are keyed by target path / inputs — none of it
//! depends on which solver instance runs the query. Stop checks
//! (max-runs, deadline, fail-fast) run on the coordinator against the
//! canonical report at the same per-target merge boundaries as the
//! single-shard path, after shards processed their whole assignment —
//! mirroring how the single-shard worker pool also processes every live
//! target before its outcomes are stop-checked in order.

use super::outcome::{Job, TargetOutcome};
use super::state::{CampaignState, ExchangeStats, Partitioner, StateDelta};
use super::{merge, resume, Durable, Emitter, Engine, Replay, ResumeData};
use crate::events::{CampaignEvent, NullSink};
use crate::report::Report;
use crate::strategy::Strategy;
use crate::summaries::{SummaryConfig, SummaryTable};
use crate::trace::{
    program_digest, shard_digest, shard_trace_path, TraceConfig, TraceErrorPolicy, TraceHeader,
    TraceWriter,
};
use hotg_solver::{Deadline, Samples, SmtSolver, ValidityChecker};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One shard's long-lived campaign context: its solver pair (sharing
/// the campaign arena), its state replica, and its trace emitter.
struct ShardCx<'s> {
    smt: SmtSolver,
    validity: ValidityChecker,
    replica: CampaignState,
    em: Emitter<'s>,
}

/// A shard's view of the durable-trace configuration: the path gains
/// the shard suffix, and the kill-switch chaos only arms on the shard
/// the plan names (the canonical writer keeps it when no shard is
/// named — see `run_resumable`).
fn shard_trace_config(tc: &TraceConfig, index: usize, shards: usize) -> TraceConfig {
    TraceConfig {
        path: shard_trace_path(&tc.path, index, shards),
        chaos_kill_at_event: if tc.chaos_kill_shard == Some(index) {
            tc.chaos_kill_at_event
        } else {
            None
        },
        chaos_kill_shard: None,
        ..tc.clone()
    }
}

impl Engine<'_> {
    /// Builds shard `index`'s context: fresh solvers on the campaign
    /// arena, an empty replica, and an emitter wired to the shard's own
    /// durable trace (resuming its salvaged prefix when one was
    /// recovered).
    fn shard_cx<'s>(
        &self,
        strategy: &dyn Strategy,
        index: usize,
        shards: usize,
        sink: &'s mut NullSink,
        resume: Option<ResumeData>,
        policy: TraceErrorPolicy,
    ) -> ShardCx<'s> {
        let smt =
            SmtSolver::with_config(self.config.validity.smt).with_arena(Arc::clone(self.arena));
        let smt = match &self.config.query_log {
            Some(log) => smt.with_recorder(Arc::clone(log)),
            None => smt,
        };
        let validity =
            ValidityChecker::with_config(self.config.validity).with_arena(Arc::clone(self.arena));
        let mut startup_errors = 0;
        let (durable, replay) = match (resume, &self.config.trace) {
            (Some(rd), Some(tc)) => (
                Durable::Pending {
                    config: shard_trace_config(tc, index, shards),
                    ends: rd.ends,
                    header_end: rd.header_end,
                },
                Some(Replay {
                    events: rd.events,
                    pos: 0,
                }),
            ),
            (None, Some(tc)) => {
                let config = shard_trace_config(tc, index, shards);
                let header = TraceHeader {
                    program: self.program.name.clone(),
                    program_digest: program_digest(self.program),
                    config_digest: shard_digest(self.config.resume_digest(), index, shards),
                    technique: strategy.technique(),
                    seed: self.config.seed,
                    fsync: tc.fsync,
                };
                match TraceWriter::create(
                    &config.path,
                    &header,
                    config.fsync,
                    self.config.fault_plan.clone(),
                    config.chaos_kill_at_event,
                ) {
                    Ok(w) => (Durable::Writing(w), None),
                    Err(e) => {
                        eprintln!(
                            "hotg: cannot create shard trace {}: {e}",
                            config.path.display()
                        );
                        startup_errors = 1;
                        (Durable::Off, None)
                    }
                }
            }
            (_, None) => (Durable::Off, None),
        };
        ShardCx {
            smt,
            validity,
            replica: CampaignState::default(),
            em: Emitter {
                report: Report::empty(),
                trace: None,
                external: sink,
                external_dead: false,
                durable,
                replay,
                plan: self.config.fault_plan.clone(),
                policy,
                sink_errors: startup_errors,
                fail_fast: startup_errors > 0 && policy == TraceErrorPolicy::FailFast,
                absorbed_short_writes: 0,
                absorbed_fsync_fails: 0,
                absorbed_trace_busy: std::time::Duration::ZERO,
                replayed: 0,
            },
        }
    }

    /// The sharded directed search: canonical scheduling and merging on
    /// the coordinator, per-target processing on N shard schedulers.
    /// `shard_resume[i]` carries shard `i`'s salvaged trace prefix on
    /// resume (`None` — including a short vector — re-runs that shard
    /// live).
    pub(crate) fn directed_sharded(
        &self,
        strategy: &dyn Strategy,
        em: &mut Emitter<'_>,
        mut shard_resume: Vec<Option<ResumeData>>,
    ) {
        let shards = self.config.shards;
        shard_resume.resize_with(shards, || None);
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
        let summaries = summaries.as_ref();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut st = CampaignState::default();
        let campaign_end = self.campaign_end();
        let partitioner = Partitioner::new(shards);
        let mut stats = ExchangeStats {
            per_shard_targets: vec![0; shards],
            ..ExchangeStats::default()
        };
        // Lockstep copy of what every replica has been sent so far; the
        // next broadcast is the canonical table diffed against it.
        let mut broadcast = Samples::new();
        let policy = self
            .config
            .trace
            .as_ref()
            .map(|t| t.on_error)
            .unwrap_or_default();
        let mut sinks: Vec<NullSink> = (0..shards).map(|_| NullSink).collect();
        let mut cxs: Vec<ShardCx<'_>> = sinks
            .iter_mut()
            .zip(shard_resume)
            .enumerate()
            .map(|(i, (sink, resume))| self.shard_cx(strategy, i, shards, sink, resume, policy))
            .collect();

        // Campaign preamble, broadcast verbatim into every shard trace
        // (each is a self-contained checkpoint) as well as the canonical
        // stream. The canonical emitter already carries CampaignStarted
        // and the fallback announcement (run_resumable emits them before
        // dispatch), so only the shards need those two here.
        let started = CampaignEvent::CampaignStarted {
            technique: strategy.technique(),
            program: self.program.name.clone(),
            branch_sites: self.program.branch_count,
        };
        for cx in &mut cxs {
            cx.em.emit(started.clone());
            if let Some(reason) = self.compile_error {
                cx.em.emit(CampaignEvent::BytecodeFallback {
                    reason: reason.to_string(),
                });
            }
        }
        self.seed_phase(strategy, &mut rng, &mut st, |e| {
            for cx in cxs.iter_mut() {
                cx.em.emit(e.clone());
            }
            em.emit(e);
        });

        'search: while !st.pending.is_empty() && em.report.runs.len() < self.config.max_runs {
            if em.fail_fast_tripped() {
                break;
            }
            if campaign_end.expired() {
                em.emit(CampaignEvent::CampaignTimedOut);
                break;
            }
            let (jobs, fresh_keys) = st.filter_generation();
            if jobs.is_empty() {
                break;
            }
            let index = em.report.generation_widths.len();
            let width = jobs.len();
            em.emit(CampaignEvent::GenerationStarted { index, width });
            for (ordinal, job) in jobs.iter().enumerate() {
                em.emit(CampaignEvent::TargetScheduled {
                    target: job.id,
                    ordinal,
                });
            }
            // Broadcast: bring every replica up to the canonical state.
            let delta = StateDelta {
                samples: st.samples.diff(&broadcast),
                seen: fresh_keys,
            };
            let (ds, dk) = delta.exchange_size();
            stats.samples += ds;
            stats.keys += dk;
            broadcast.apply_delta(&delta.samples);
            // Partition the generation by stable path-key hash, keeping
            // each job's canonical ordinal for the merge.
            let mut assignment: Vec<Vec<(usize, &Job)>> = (0..shards).map(|_| Vec::new()).collect();
            for (ordinal, job) in jobs.iter().enumerate() {
                let s = partitioner.shard_of_job(job);
                stats.per_shard_targets[s] += 1;
                assignment[s].push((ordinal, job));
            }
            // Shard-local generation headers (every shard records every
            // generation, even an empty one — the offline merger keeps
            // the streams generation-synced) and replica catch-up; the
            // snapshot a shard's targets see is its replica's table,
            // equal to the canonical table by the exchange invariant.
            let mut tails: Vec<Vec<CampaignEvent>> = Vec::with_capacity(shards);
            let mut snapshots: Vec<Samples> = Vec::with_capacity(shards);
            for (cx, local) in cxs.iter_mut().zip(&assignment) {
                cx.replica.absorb(&delta);
                cx.em.emit(CampaignEvent::GenerationStarted {
                    index,
                    width: local.len(),
                });
                for &(ordinal, job) in local {
                    cx.em.emit(CampaignEvent::TargetScheduled {
                        target: job.id,
                        ordinal,
                    });
                }
                tails.push(cx.em.replay_rest().to_vec());
                snapshots.push(cx.replica.samples.clone());
            }
            // Parallel processing pass: one scoped thread per shard runs
            // only the pure per-target work (plus stage-A reconstruction
            // against the shard's salvaged tail on resume). Emitters
            // never cross threads.
            let results: Vec<Vec<(usize, TargetOutcome)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = cxs
                    .iter()
                    .zip(&assignment)
                    .zip(tails.iter().zip(&snapshots))
                    .map(|((cx, local), (tail, snapshot))| {
                        let (smt, validity) = (&cx.smt, &cx.validity);
                        scope.spawn(move || {
                            shard_generation(
                                self,
                                strategy,
                                summaries,
                                smt,
                                validity,
                                snapshot,
                                local,
                                tail,
                                campaign_end,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread panicked"))
                    .collect()
            });
            // Record each shard's blocks into its own trace, then
            // interleave everything back into canonical target order.
            let mut per_shard_blocks: Vec<Vec<merge::ShardBlock>> = Vec::with_capacity(shards);
            for (cx, outs) in cxs.iter_mut().zip(results) {
                let mut blocks = Vec::with_capacity(outs.len());
                for (ordinal, out) in outs {
                    let events = merge::outcome_block(&jobs[ordinal], &out);
                    for e in &events {
                        cx.em.emit(e.clone());
                    }
                    blocks.push(merge::ShardBlock {
                        ordinal,
                        events,
                        outcome: out,
                    });
                }
                per_shard_blocks.push(blocks);
            }
            let blocks = merge::interleave(per_shard_blocks, width)
                .expect("partitioner assigns every target exactly once");
            // Canonical re-emission with the single-shard stop checks,
            // applied before each target's block exactly as the
            // single-shard merge loop does.
            let mut stop = false;
            for block in blocks {
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
                for e in block.events {
                    em.emit(e);
                }
                st.fold_outcome(block.outcome);
            }
            // A shard's trace I/O fail-fast stops the canonical campaign
            // at the same merge-boundary granularity as its own.
            if cxs.iter().any(|cx| cx.em.fail_fast_tripped()) {
                em.fail_fast = true;
            }
            if stop {
                break 'search;
            }
        }

        // Canonical campaign tail: the shard solver totals sum to the
        // campaign totals (the coordinator issues no solver queries of
        // its own), followed by the exchange accounting.
        let (mut hits, mut misses, mut queries) = (0u64, 0u64, 0u64);
        let mut backend: Option<hotg_solver::BackendStats> = None;
        for cx in &cxs {
            let smt_stats = cx.smt.cache_stats();
            let cs = smt_stats.merged(cx.validity.cache_stats());
            hits += cs.hits;
            misses += cs.misses;
            queries += smt_stats.hits + smt_stats.misses;
            let b = match (cx.smt.backend_stats(), cx.validity.backend_stats()) {
                (Some(x), Some(y)) => Some(x.merged(y)),
                (x, y) => x.or(y),
            };
            backend = match (backend, b) {
                (Some(x), Some(y)) => Some(x.merged(y)),
                (x, y) => x.or(y),
            };
        }
        em.emit(CampaignEvent::CacheStats { hits, misses });
        em.emit(CampaignEvent::SolverSessionStats {
            queries,
            intern_hits: self.arena.stats().intern_hits,
        });
        if let Some(b) = backend {
            em.emit(CampaignEvent::BackendStats {
                backend: b.backend.to_string(),
                queries: b.queries,
                unsat_short_circuits: b.unsat_short_circuits,
                valid_short_circuits: b.valid_short_circuits,
                sat_short_circuits: b.sat_short_circuits,
            });
        }
        em.emit(stats.event(shards));
        // Shard stream tails + trace close; each shard's I/O accounting
        // folds into the canonical emitter.
        for cx in cxs {
            let cs = cx.smt.cache_stats().merged(cx.validity.cache_stats());
            let mut shard_em = cx.em;
            shard_em.emit(CampaignEvent::CacheStats {
                hits: cs.hits,
                misses: cs.misses,
            });
            shard_em.emit(CampaignEvent::CampaignFinished);
            em.absorb_shard(shard_em);
        }
    }
}

/// One shard's generation pass, run on its own thread: stage-A
/// reconstruction from the shard's salvaged trace tail while it lasts,
/// live processing after. Returns the per-target outcomes with their
/// canonical ordinals.
#[allow(clippy::too_many_arguments)]
fn shard_generation(
    engine: &Engine<'_>,
    strategy: &dyn Strategy,
    summaries: Option<&SummaryTable>,
    smt: &SmtSolver,
    validity: &ValidityChecker,
    snapshot: &Samples,
    local: &[(usize, &Job)],
    tail: &[CampaignEvent],
    campaign_end: Deadline,
) -> Vec<(usize, TargetOutcome)> {
    let mut outs = Vec::with_capacity(local.len());
    let mut pos = 0usize;
    let mut replaying = !tail.is_empty();
    for &(ordinal, job) in local {
        let reconstructed = if replaying && pos < tail.len() {
            resume::reconstruct_outcome(engine, strategy, job, &tail[pos..])
        } else {
            None
        };
        let out = match reconstructed {
            Some(out) => {
                // Advance past the reconstructed (and verified) block;
                // the coordinator's later re-emission consumes the same
                // frames from the shard's replay cursor.
                let close = tail[pos..]
                    .iter()
                    .position(|e| matches!(e, CampaignEvent::TargetClosed { .. }))
                    .expect("a reconstructed block contains its close");
                pos += close + 1;
                out
            }
            None => {
                replaying = false;
                engine.process_target(
                    strategy,
                    job,
                    snapshot,
                    summaries,
                    smt,
                    validity,
                    campaign_end,
                )
            }
        };
        outs.push((ordinal, out));
    }
    outs
}
