//! Measurement from outside the layers: event sinks that timestamp the
//! public `EventSink` stream, out-of-campaign replays through each layer's
//! public entry points, and the correctness oracle.

use hotg_concolic::{execute_compiled_profiled, ConcolicContext, ExecProfile};
use hotg_core::{CampaignEvent, EventSink, Report, Technique};
use hotg_lang::{CompiledProgram, InputVector, NativeRegistry, Outcome, Program};
use hotg_logic::Formula;
use hotg_solver::{SmtConfig, SmtResult, SmtSolver};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Untraced sink: timestamps only the first run whose outcome is an
/// error, so the end-to-end `time_to_error_ms` costs one branch per event.
pub struct FirstError {
    pub at: Option<Instant>,
}

impl EventSink for FirstError {
    fn emit(&mut self, event: &CampaignEvent) -> std::io::Result<()> {
        if self.at.is_none() {
            if let CampaignEvent::RunExecuted { record } = event {
                if record.outcome.is_error() {
                    self.at = Some(Instant::now());
                }
            }
        }
        Ok(())
    }
}

/// What the traced run keeps of one event: the boundaries that open and
/// close spans, and the counts that go with them.
#[derive(Clone, Copy, Debug)]
pub enum Mark {
    Generation,
    Scheduled,
    Solved,
    Rejected(usize),
    Probe,
    Run,
    Degraded,
    Closed,
    Cache { hits: u64, misses: u64 },
    Backend { queries: u64, short_circuits: u64 },
    Exec { instructions: u64 },
    Other,
}

/// Traced sink: every event as a `(nanoseconds since campaign start,
/// mark)` pair, kept in memory and folded into spans after the campaign.
pub struct Spans {
    start: Instant,
    pub marks: Vec<(u64, Mark)>,
}

impl Spans {
    pub fn new(start: Instant) -> Spans {
        Spans {
            start,
            marks: Vec::with_capacity(4096),
        }
    }
}

impl EventSink for Spans {
    fn emit(&mut self, event: &CampaignEvent) -> std::io::Result<()> {
        let t = self.start.elapsed().as_nanos() as u64;
        let mark = match event {
            CampaignEvent::GenerationStarted { .. } => Mark::Generation,
            CampaignEvent::TargetScheduled { .. } => Mark::Scheduled,
            CampaignEvent::TargetSolved { .. } => Mark::Solved,
            CampaignEvent::TargetsRejected { count } => Mark::Rejected(*count),
            CampaignEvent::ProbeRun { .. } => Mark::Probe,
            CampaignEvent::RunExecuted { .. } => Mark::Run,
            CampaignEvent::TargetDegraded { .. } => Mark::Degraded,
            CampaignEvent::TargetClosed { .. } => Mark::Closed,
            CampaignEvent::CacheStats { hits, misses } => Mark::Cache {
                hits: *hits,
                misses: *misses,
            },
            CampaignEvent::BackendStats {
                queries,
                unsat_short_circuits,
                valid_short_circuits,
                sat_short_circuits,
                ..
            } => Mark::Backend {
                queries: *queries,
                short_circuits: unsat_short_circuits + valid_short_circuits + sat_short_circuits,
            },
            CampaignEvent::ExecStats { instructions, .. } => Mark::Exec {
                instructions: *instructions,
            },
            _ => Mark::Other,
        };
        self.marks.push((t, mark));
        Ok(())
    }
}

/// Declares [`Layers`] once, with its field list reused by `add`.
macro_rules! layers {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Counts and span times of traced campaigns; times in seconds.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Layers {
            $($(#[$doc])* pub $field: f64,)*
        }

        impl Layers {
            pub fn add(&mut self, o: &Layers) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

layers! {
    /// Campaign wall time.
    wall,
    generations,
    scheduled,
    solved,
    rejected,
    probes,
    runs,
    degraded,
    events,
    cache_hits,
    cache_lookups,
    backend_queries,
    short_circuits,
    instructions,
    /// Summed `core.target` spans.
    target_span,
    /// Replayed execution time of the runs inside target spans.
    target_exec,
    /// Replayed execution time of the runs outside any target span (seed
    /// phase, random baseline).
    outside_exec,
    vm_s,
    vm_runs,
    concolic_s,
    concolic_runs,
    smt_queries,
    smt_s,
    sat,
    unsat,
    unknown,
}

/// Replays one traced campaign through the layers it used and folds its
/// spans: every recorded run through the concrete VM and (for whitebox
/// techniques) the concolic VM in the campaign's mode, and the tapped
/// solver queries through a fresh, cache-cold `SmtSolver`.
#[allow(clippy::too_many_arguments)]
pub fn attribute(
    technique: Technique,
    report: &Report,
    marks: &[(u64, Mark)],
    queries: &[Formula],
    smt: SmtConfig,
    ctx: &ConcolicContext,
    cp: &CompiledProgram,
    fuel: u64,
) -> Layers {
    let mut l = Layers::default();
    let inputs: Vec<InputVector> = report
        .runs
        .iter()
        .map(|r| InputVector::new(r.inputs.clone()))
        .collect();

    let time_each = |f: &dyn Fn(&InputVector)| -> Vec<f64> {
        inputs
            .iter()
            .map(|iv| {
                let t = Instant::now();
                f(iv);
                t.elapsed().as_secs_f64()
            })
            .collect()
    };
    let vm = time_each(&|iv| {
        black_box(hotg_lang::run_compiled(cp, iv, fuel));
    });
    l.vm_s = vm.iter().sum();
    l.vm_runs = inputs.len() as f64;
    // Per-run execution time as the campaign paid it: concolic for the
    // whitebox techniques, concrete for the random baseline.
    let exec = match technique.symbolic_mode() {
        Some(mode) => {
            let profile = ExecProfile::new(mode);
            let times = time_each(&|iv| {
                black_box(execute_compiled_profiled(ctx, cp, iv, fuel, profile));
            });
            l.concolic_s = times.iter().sum();
            l.concolic_runs = inputs.len() as f64;
            times
        }
        None => vm,
    };

    let solver = SmtSolver::with_config(smt);
    let t = Instant::now();
    for q in queries {
        match solver.check(q) {
            Ok(SmtResult::Sat(_)) => l.sat += 1.0,
            Ok(SmtResult::Unsat) => l.unsat += 1.0,
            Ok(SmtResult::Unknown) | Err(_) => l.unknown += 1.0,
        }
    }
    l.smt_s = t.elapsed().as_secs_f64();
    l.smt_queries = queries.len() as f64;
    l.add(&fold_spans(marks, &exec));
    l
}

/// Folds a traced campaign's marks into counts and spans, given each run's
/// replayed execution time (seconds) in run order. A target's span runs
/// from the previous block boundary (the generation's last
/// `TargetScheduled`, or the previous `TargetClosed`) to its own
/// `TargetClosed`; with one thread the engine processes and merges each
/// target inside that interval. Runs before the first target (seed phase,
/// random baseline) count as outside any span.
fn fold_spans(marks: &[(u64, Mark)], exec: &[f64]) -> Layers {
    let mut l = Layers::default();
    let mut block_start: Option<u64> = None;
    let mut block_exec = 0.0;
    let mut run = 0usize;
    for &(t, mark) in marks {
        l.events += 1.0;
        match mark {
            Mark::Generation => l.generations += 1.0,
            Mark::Scheduled => {
                l.scheduled += 1.0;
                block_start = Some(t);
                block_exec = 0.0;
            }
            Mark::Solved => l.solved += 1.0,
            Mark::Rejected(n) => l.rejected += n as f64,
            Mark::Probe => l.probes += 1.0,
            Mark::Degraded => l.degraded += 1.0,
            Mark::Run => {
                let e = exec.get(run).copied().unwrap_or(0.0);
                run += 1;
                if block_start.is_some() {
                    block_exec += e;
                } else {
                    l.outside_exec += e;
                }
            }
            Mark::Closed => {
                if let Some(s) = block_start {
                    l.target_span += (t - s) as f64 * 1e-9;
                    l.target_exec += block_exec;
                }
                block_start = Some(t);
                block_exec = 0.0;
            }
            Mark::Cache { hits, misses } => {
                l.cache_hits += hits as f64;
                l.cache_lookups += (hits + misses) as f64;
            }
            Mark::Backend {
                queries,
                short_circuits,
            } => {
                l.backend_queries += queries as f64;
                l.short_circuits += short_circuits as f64;
            }
            Mark::Exec { instructions } => l.instructions += instructions as f64,
            Mark::Other => {}
        }
    }
    l.runs = run as f64;
    l
}

/// Replays every recorded run on the reference tree-walker
/// `hotg_lang::run` — never the VM the campaign used — and returns the
/// first run whose outcome or branch path differs from the record.
pub fn oracle(
    program: &Program,
    natives: &NativeRegistry,
    report: &Report,
    fuel: u64,
) -> Result<(), String> {
    for (i, r) in report.runs.iter().enumerate() {
        let (outcome, trace) =
            hotg_lang::run(program, natives, &InputVector::new(r.inputs.clone()), fuel);
        if outcome != r.outcome || trace.branches != r.path {
            return Err(format!(
                "run {i} inputs {:?}: recorded {:?} over {} branches, reference {:?} over {}",
                r.inputs,
                r.outcome,
                r.path.len(),
                outcome,
                trace.branches.len()
            ));
        }
    }
    Ok(())
}

/// A digest of everything a campaign reports except wall time and the
/// cache split, so repeated and traced campaigns can be checked against
/// the first one.
pub fn digest(r: &Report) -> u64 {
    let mut h = DefaultHasher::new();
    r.program.hash(&mut h);
    r.technique.name().hash(&mut h);
    for run in &r.runs {
        run.inputs.hash(&mut h);
        run.path.hash(&mut h);
        run.diverged.hash(&mut h);
        match &run.outcome {
            Outcome::Returned => 0i64.hash(&mut h),
            Outcome::Error(c) => (1i64, *c).hash(&mut h),
            Outcome::RuntimeFault(f) => (2i64, f.to_string()).hash(&mut h),
            Outcome::OutOfFuel => 3i64.hash(&mut h),
        }
    }
    r.coverage.hash(&mut h);
    r.errors.hash(&mut h);
    (
        r.divergences,
        r.probes,
        r.solver_calls,
        r.rejected_targets,
        r.targets_pruned_static,
        &r.generation_widths,
    )
        .hash(&mut h);
    h.finish()
}

/// Peak resident set of this process in MiB, from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_split_target_and_outside_time() {
        let marks = [
            (0, Mark::Run),
            (5, Mark::Generation),
            (10, Mark::Scheduled),
            (12, Mark::Scheduled),
            (20, Mark::Solved),
            (21, Mark::Run),
            (30, Mark::Closed),
            (33, Mark::Rejected(1)),
            (40, Mark::Closed),
        ];
        let l = fold_spans(&marks, &[1.0, 2.0]);
        assert!((l.target_span - 28e-9).abs() < 1e-15);
        assert_eq!((l.target_exec, l.outside_exec), (2.0, 1.0));
        assert_eq!(
            (l.scheduled, l.solved, l.rejected, l.runs),
            (2.0, 1.0, 1.0, 2.0)
        );
        assert_eq!((l.generations, l.events), (1.0, 9.0));
    }
}
