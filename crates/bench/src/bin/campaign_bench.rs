//! Machine-readable campaign benchmark: runs the full corpus × technique
//! matrix, re-checks every paper claim, measures the parallel-search
//! speedup, and writes everything as JSON (`BENCH_campaign.json` at the
//! repo root by default).
//!
//! ```text
//! campaign-bench [--reduced] [--chaos] [--technique NAME] [--out PATH] [--threads N] [--shards N]
//! ```
//!
//! * `--reduced` shrinks the corpus and run budget for CI smoke runs.
//! * `--chaos` additionally runs every selected program under a
//!   fault-injection plan and records the fault accounting.
//! * `--technique NAME` restricts the matrix to one technique.
//! * `--out PATH` overrides the output path.
//! * `--threads N` overrides the worker-pool size of the parallel
//!   measurement (default: 4).
//! * `--shards N` overrides the shard count of the sharded-campaign
//!   parity measurement (default: 2).
//!
//! Every campaign is consumed through its [`CampaignEvent`] stream: the
//! benchmark folds the stream back into a report and cross-checks the
//! fold against the driver's own [`Report`], exiting non-zero on any
//! drift — so the CI smoke run doubles as an end-to-end check that the
//! event stream carries the campaign's complete accounting.
//!
//! The JSON schema is documented in `EXPERIMENTS.md` (section
//! "Campaign benchmark").
//!
//! [`CampaignEvent`]: hotg_core::CampaignEvent

use hotg_bench::paper_examples;
use hotg_concolic::{
    execute_compiled_profiled, execute_opts, ConcolicContext, ExecProfile, SymbolicMode,
};
use hotg_core::{
    fold_report, CampaignEvent, Driver, DriverConfig, EventLog, FaultPlan, FsyncPolicy, Report,
    Technique, TraceConfig,
};
use hotg_lang::{compile, corpus, InputVector};
use hotg_logic::{Formula, LogicArena};
use hotg_solver::SmtSolver;
use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Programs exercised in `--reduced` mode: the paper's headline examples
/// plus one EUF program, enough to exercise every driver path cheaply.
const REDUCED_PROGRAMS: [&str; 4] = ["obscure", "foo", "bar", "euf_eq"];

/// Programs whose campaign query streams feed the solver-throughput
/// replay: `fanout` produces wide generations of sibling flip queries,
/// `budget_cliff` stresses the per-node solver budgets.
const SOLVER_BENCH_PROGRAMS: [&str; 2] = ["fanout", "budget_cliff"];

/// Replay volume floor: the recorded stream is replayed in whole-stream
/// rounds until at least this many queries ran, so both legs time enough
/// work to be stable on CI hosts — and so the reuse leg's cross-round
/// cache reuse (a generation re-posing equivalent queries) is exercised.
const SOLVER_BENCH_MIN_QUERIES: usize = 150;

/// Pre-solver acceptance floor: across the whole corpus' DART-sound
/// query streams, at least this fraction of the distinct
/// (cache-missing) queries must be answered by the abstract backend
/// without any DPLL(T) work.
const BACKEND_SHORT_CIRCUIT_FLOOR: f64 = 0.2;

/// Replay volume floor per engine leg: each leg re-runs its replay
/// vectors in whole-corpus rounds until at least this many runs were
/// timed, so the measurement is warm and stable on CI hosts.
const EXEC_BENCH_MIN_RUNS: usize = 4096;

/// Throughput the compiled VMs must clear over the tree-walking
/// reference interpreters, as the combined (all bench programs,
/// concrete + concolic legs) wall-time ratio. Gated on the combined
/// ratio rather than per row — per-program ratios vary with how much
/// of a run is shared symbolic-side work — with per-row speedups
/// reported alongside.
const EXEC_SPEEDUP_FLOOR: f64 = 2.0;

struct Args {
    reduced: bool,
    chaos: bool,
    technique: Option<Technique>,
    out: String,
    threads: usize,
    shards: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        reduced: false,
        chaos: false,
        technique: None,
        out: "BENCH_campaign.json".to_string(),
        threads: 4,
        shards: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reduced" => args.reduced = true,
            "--chaos" => args.chaos = true,
            "--technique" => {
                let name = it
                    .next()
                    .unwrap_or_else(|| usage("--technique needs a name"));
                args.technique = Some(Technique::from_str(&name).unwrap_or_else(|e| usage(&e)));
            }
            "--out" => {
                args.out = it.next().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"));
            }
            "--shards" => {
                args.shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| usage("--shards needs a positive number"));
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("campaign-bench: {msg}");
    eprintln!(
        "usage: campaign-bench [--reduced] [--chaos] [--technique NAME] [--out PATH] \
         [--threads N] [--shards N]"
    );
    std::process::exit(2);
}

fn config(width: usize, max_runs: usize, threads: usize) -> DriverConfig {
    DriverConfig {
        max_runs,
        threads,
        ..DriverConfig::with_initial(vec![0; width])
    }
}

/// Runs one campaign while capturing its event stream, folds the stream
/// back into a report, and diffs the fold against the driver's report.
/// Returns the report, the event count, and any fold mismatches.
fn run_via_events(driver: &Driver<'_>, technique: Technique) -> (Report, usize, Vec<String>) {
    let mut log = EventLog::new();
    let report = driver.run_with_sink(technique, &mut log);
    let folded = fold_report(log.events());
    let mismatches = fold_mismatches(&report, &folded);
    (report, log.events().len(), mismatches)
}

/// Field-by-field diff between a driver report and the event-stream
/// fold. Everything except wall clock must agree.
fn fold_mismatches(report: &Report, folded: &Report) -> Vec<String> {
    let mut out = parity_mismatches(report, folded);
    let (want, got) = (cache_split(report), cache_split(folded));
    if got != want {
        out.push(format!("cache: report {want} vs event fold {got}"));
    }
    out
}

/// [`fold_mismatches`] minus the cache hit/miss split: the diff between
/// two campaigns that must agree on every result but may schedule their
/// queries differently (a sharded run against its single-shard
/// baseline). Which worker or shard poses a query first decides whether
/// it misses, so the split is not part of campaign parity.
fn parity_mismatches(report: &Report, folded: &Report) -> Vec<String> {
    let mut out = Vec::new();
    let mut diff = |field: &str, got: String, want: String| {
        if got != want {
            out.push(format!("{field}: report {want} vs event fold {got}"));
        }
    };
    diff(
        "technique",
        folded.technique.to_string(),
        report.technique.to_string(),
    );
    diff("program", folded.program.clone(), report.program.clone());
    diff(
        "runs",
        format!("{:?}", folded.runs),
        format!("{:?}", report.runs),
    );
    diff(
        "errors",
        format!("{:?}", folded.errors),
        format!("{:?}", report.errors),
    );
    diff(
        "coverage",
        format!("{:?}", folded.coverage),
        format!("{:?}", report.coverage),
    );
    diff(
        "counters",
        format!(
            "{:?}",
            (
                folded.divergences,
                folded.probes,
                folded.solver_calls,
                folded.rejected_targets,
                folded.solver_errors,
                folded.budget_escalations,
                folded.targets_degraded,
                folded.targets_faulted,
                folded.targets_pruned_static,
                folded.presampled_sites,
                folded.branch_sites,
                folded.fuel_exhausted_runs,
            )
        ),
        format!(
            "{:?}",
            (
                report.divergences,
                report.probes,
                report.solver_calls,
                report.rejected_targets,
                report.solver_errors,
                report.budget_escalations,
                report.targets_degraded,
                report.targets_faulted,
                report.targets_pruned_static,
                report.presampled_sites,
                report.branch_sites,
                report.fuel_exhausted_runs,
            )
        ),
    );
    diff(
        "generation_widths",
        format!("{:?}", folded.generation_widths),
        format!("{:?}", report.generation_widths),
    );
    diff(
        "fault_kinds",
        format!("{:?}", folded.fault_kinds),
        format!("{:?}", report.fault_kinds),
    );
    diff(
        "degradations",
        format!("{:?}", folded.degradations),
        format!("{:?}", report.degradations),
    );
    diff(
        "faults_injected",
        format!("{:?}", folded.faults_injected),
        format!("{:?}", report.faults_injected),
    );
    diff(
        "campaign_timed_out",
        folded.campaign_timed_out.to_string(),
        report.campaign_timed_out.to_string(),
    );
    out
}

/// A report's cache split as `hits/misses`.
fn cache_split(r: &Report) -> String {
    format!("{}/{}", r.cache_hits, r.cache_misses)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn row_json(program: &str, r: &Report, wall_ms: f64, events: usize) -> String {
    let errors: Vec<String> = r.errors.keys().map(|c| c.to_string()).collect();
    let first_error = r
        .errors
        .values()
        .min()
        .map_or("null".to_string(), |i| i.to_string());
    format!(
        "{{\"program\": {}, \"technique\": {}, \"wall_ms\": {:.3}, \
         \"runs\": {}, \"probes\": {}, \"solver_calls\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4}, \
         \"covered_directions\": {}, \"branch_directions\": {}, \
         \"max_generation_width\": {}, \"events\": {}, \
         \"first_error_run\": {}, \"errors\": [{}]}}",
        json_str(program),
        json_str(r.technique.name()),
        wall_ms,
        r.total_runs(),
        r.probes,
        r.solver_calls,
        r.cache_hits,
        r.cache_misses,
        r.cache_hit_rate(),
        r.covered_directions(),
        2 * r.branch_sites,
        r.max_generation_width(),
        events,
        first_error,
        errors.join(", "),
    )
}

fn chaos_row_json(program: &str, seed: u64, r: &Report, wall_ms: f64) -> String {
    let inj = r.faults_injected;
    format!(
        "{{\"program\": {}, \"technique\": {}, \"seed\": {}, \"wall_ms\": {:.3}, \
         \"runs\": {}, \"injected\": {{\"solver_unknowns\": {}, \"solver_errs\": {}, \
         \"interp_faults\": {}, \"probe_failures\": {}, \"worker_panics\": {}}}, \
         \"solver_errors\": {}, \"targets_degraded\": {}, \"targets_faulted\": {}, \
         \"divergences\": {}}}",
        json_str(program),
        json_str(r.technique.name()),
        seed,
        wall_ms,
        r.total_runs(),
        inj.solver_unknowns,
        inj.solver_errs,
        inj.interp_faults,
        inj.probe_failures,
        inj.worker_panics,
        r.solver_errors,
        r.targets_degraded,
        r.targets_faulted,
        r.divergences,
    )
}

/// One program's solver-throughput replay measurement.
struct SolverBenchRow {
    program: &'static str,
    /// Queries recorded from the capture campaign.
    recorded: usize,
    /// Whole-stream replay rounds.
    rounds: usize,
    /// Total replayed queries per leg (`recorded * rounds`).
    queries: usize,
    baseline_qps: f64,
    reuse_qps: f64,
    /// One round of the recorded stream through one fresh arena-backed
    /// solver: no reuse across rounds, so this is the cache-cold rate a
    /// campaign sees.
    cold_qps: f64,
    speedup: f64,
    intern_hits: u64,
    cache_hits: u64,
    pass: bool,
}

/// Captures the solver-query stream of one DART-sound campaign on the
/// named corpus program (fixed 40-run budget, single-threaded), via the
/// driver's [`DriverConfig::query_log`] tap.
fn capture_query_stream(name: &str) -> Vec<Formula> {
    let (_, ctor) = corpus::all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("corpus program `{name}` missing"));
    let (program, natives) = ctor();
    let width = program.input_width();
    let log = Arc::new(Mutex::new(Vec::new()));
    let cfg = DriverConfig {
        query_log: Some(Arc::clone(&log)),
        ..config(width, 40, 1)
    };
    let driver = Driver::new(&program, &natives, cfg);
    let _ = driver.run(Technique::DartSound);
    let stream = log.lock().expect("query log").clone();
    stream
}

/// Replays a captured query stream through both gated legs: a fresh
/// solver per query (per-query encode-and-search cost with no reuse of
/// any kind) versus one arena-backed solver queried through
/// [`SmtSolver::check`], carrying the query cache and the memoized
/// normalization arena across the stream. A third, ungated leg times a
/// single round through one fresh arena-backed solver (`cold_qps`).
fn solver_replay(program: &'static str, stream: &[Formula]) -> SolverBenchRow {
    let recorded = stream.len();
    let cold = SmtSolver::new().with_arena(Arc::new(LogicArena::new()));
    let start = Instant::now();
    for q in stream {
        let _ = cold.check(q);
    }
    let cold_s = start.elapsed().as_secs_f64();
    let cold_qps = if cold_s > 0.0 {
        recorded as f64 / cold_s
    } else {
        0.0
    };
    let rounds = if recorded == 0 {
        0
    } else {
        SOLVER_BENCH_MIN_QUERIES.div_ceil(recorded)
    };
    let queries = recorded * rounds;
    let start = Instant::now();
    for _ in 0..rounds {
        for q in stream {
            let _ = SmtSolver::new().check(q);
        }
    }
    let baseline_s = start.elapsed().as_secs_f64();
    let solver = SmtSolver::new().with_arena(Arc::new(LogicArena::new()));
    let start = Instant::now();
    for _ in 0..rounds {
        for q in stream {
            let _ = solver.check(q);
        }
    }
    let reuse_s = start.elapsed().as_secs_f64();
    let baseline_qps = if baseline_s > 0.0 {
        queries as f64 / baseline_s
    } else {
        0.0
    };
    let reuse_qps = if reuse_s > 0.0 {
        queries as f64 / reuse_s
    } else {
        0.0
    };
    let speedup = if baseline_qps > 0.0 {
        reuse_qps / baseline_qps
    } else {
        0.0
    };
    SolverBenchRow {
        program,
        recorded,
        rounds,
        queries,
        baseline_qps,
        reuse_qps,
        cold_qps,
        speedup,
        intern_hits: solver.arena().stats().intern_hits,
        cache_hits: solver.cache_stats().hits,
        pass: queries > 0 && speedup >= 3.0,
    }
}

fn solver_row_json(r: &SolverBenchRow) -> String {
    format!(
        "{{\"program\": {}, \"recorded_queries\": {}, \"rounds\": {}, \
         \"queries\": {}, \"baseline_qps\": {:.1}, \"reuse_qps\": {:.1}, \
         \"cold_qps\": {:.1}, \"speedup\": {:.3}, \"intern_hits\": {}, \
         \"cache_hits\": {}, \"pass\": {}}}",
        json_str(r.program),
        r.recorded,
        r.rounds,
        r.queries,
        r.baseline_qps,
        r.reuse_qps,
        r.cold_qps,
        r.speedup,
        r.intern_hits,
        r.cache_hits,
        r.pass,
    )
}

/// One query class' pre-solver cascade measurement.
struct BackendBenchRow {
    program: &'static str,
    /// Backend name (`"abstract"`).
    backend: &'static str,
    /// Distinct (cache-missing) queries the backend was consulted on.
    queries: u64,
    unsat_short_circuits: u64,
    valid_short_circuits: u64,
    sat_short_circuits: u64,
    /// Fraction of backend queries answered without DPLL(T).
    short_circuit_rate: f64,
}

/// Replays a captured query stream through a fresh cascade-enabled
/// solver and reads the backend counters: how many of the campaign's
/// distinct queries the abstract layer decides before any DPLL(T) work —
/// refutations (`unsat_short_circuits`) plus forced-model answers
/// (`sat_short_circuits`). The model-returning `check` path never asks
/// for validity, so `valid_short_circuits` stays 0 here; it is reported
/// for completeness since validity-checker replays would populate it.
fn backend_replay(program: &'static str, stream: &[Formula]) -> BackendBenchRow {
    let solver = SmtSolver::new();
    for q in stream {
        let _ = solver.check(q);
    }
    let stats = solver
        .backend_stats()
        .expect("pre-solving is on in the default configuration");
    let short_circuit_rate = if stats.queries > 0 {
        stats.short_circuits() as f64 / stats.queries as f64
    } else {
        0.0
    };
    BackendBenchRow {
        program,
        backend: stats.backend,
        queries: stats.queries,
        unsat_short_circuits: stats.unsat_short_circuits,
        valid_short_circuits: stats.valid_short_circuits,
        sat_short_circuits: stats.sat_short_circuits,
        short_circuit_rate,
    }
}

fn backend_row_json(r: &BackendBenchRow) -> String {
    format!(
        "{{\"program\": {}, \"backend\": {}, \"queries\": {}, \
         \"unsat_short_circuits\": {}, \"valid_short_circuits\": {}, \
         \"sat_short_circuits\": {}, \"short_circuit_rate\": {:.4}}}",
        json_str(r.program),
        json_str(r.backend),
        r.queries,
        r.unsat_short_circuits,
        r.valid_short_circuits,
        r.sat_short_circuits,
        r.short_circuit_rate,
    )
}

/// One program's execution-throughput replay measurement: the same
/// replay corpus run by the tree-walking interpreters and by the
/// bytecode VMs, concrete and concolic legs timed separately.
struct ExecBenchRow {
    program: &'static str,
    /// Replay input vectors per round.
    vectors: usize,
    /// Whole-corpus replay rounds.
    rounds: usize,
    /// Timed runs per leg (`vectors * rounds`); each engine runs two
    /// legs (concrete + concolic), so it executes `2 * runs` in total.
    runs: usize,
    concrete_speedup: f64,
    concolic_speedup: f64,
    /// Combined runs/second, tree-walker legs.
    tree_rps: f64,
    /// Combined runs/second, VM legs.
    vm_rps: f64,
    /// Combined wall-time ratio (`vm_rps / tree_rps`).
    speedup: f64,
    /// Bytecode instructions retired across both VM legs.
    instructions: u64,
    /// Combined tree-walker wall time (for the section-level gate).
    tree_s: f64,
    /// Combined VM wall time (for the section-level gate).
    vm_s: f64,
}

/// Deterministic replay vectors in the corpus' interesting band
/// (±1000): the bench must measure the same work on every host, so no
/// entropy source — a splitmix64 stream keyed only by position.
fn exec_inputs(width: usize, n: usize) -> Vec<InputVector> {
    let mut state = 0u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| InputVector::new((0..width).map(|_| (next() % 2001) as i64 - 1000).collect()))
        .collect()
}

/// Times the tree-walking interpreters against the bytecode VMs on one
/// corpus program: compile once, then replay the same deterministic
/// input vectors through all four legs — concrete tree vs concrete VM,
/// and concolic tree vs concolic shadow VM (Uninterpreted mode, the
/// higher-order technique's profile). Both engine families are
/// bit-identical by construction (the parity and differential suites
/// pin that), so the replay measures pure dispatch throughput.
fn exec_replay(
    name: &'static str,
    program: &hotg_lang::Program,
    natives: &hotg_lang::NativeRegistry,
) -> ExecBenchRow {
    let cp = compile(program, natives).expect("bench programs compile");
    let ctx = ConcolicContext::new(program);
    let vectors = exec_inputs(program.input_width(), 16);
    let fuel = 50_000;
    let mode = SymbolicMode::Uninterpreted;
    let profile = ExecProfile::new(mode);
    let rounds = EXEC_BENCH_MIN_RUNS.div_ceil(vectors.len());
    let runs = vectors.len() * rounds;

    // Each leg is timed three times and scored by its fastest pass:
    // replays are deterministic, so the minimum is the least-disturbed
    // estimate of the leg's true cost on a shared CI host (slower
    // passes only ever add scheduler noise). The first pass doubles as
    // warmup for the scratch pools and the allocator.
    let time_leg = |f: &mut dyn FnMut()| -> f64 {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let tree_concrete_s = time_leg(&mut || {
        for _ in 0..rounds {
            for iv in &vectors {
                let _ = hotg_lang::run(program, natives, iv, fuel);
            }
        }
    });
    let vm_concrete_s = time_leg(&mut || {
        for _ in 0..rounds {
            for iv in &vectors {
                let _ = hotg_lang::run_compiled_counted(&cp, iv, fuel);
            }
        }
    });
    let tree_concolic_s = time_leg(&mut || {
        for _ in 0..rounds {
            for iv in &vectors {
                let _ = execute_opts(&ctx, program, natives, iv, mode, fuel, false);
            }
        }
    });
    let vm_concolic_s = time_leg(&mut || {
        for _ in 0..rounds {
            for iv in &vectors {
                let _ = execute_compiled_profiled(&ctx, &cp, iv, fuel, profile);
            }
        }
    });
    // Retired-instruction accounting, outside the timed passes (the
    // replay is deterministic, so one pass per vector set suffices).
    let instructions: u64 = vectors
        .iter()
        .map(|iv| {
            let (_, _, n) = hotg_lang::run_compiled_counted(&cp, iv, fuel);
            n + execute_compiled_profiled(&ctx, &cp, iv, fuel, profile).instructions
        })
        .sum::<u64>()
        * rounds as u64;

    let ratio = |tree: f64, vm: f64| if vm > 0.0 { tree / vm } else { 0.0 };
    let tree_s = tree_concrete_s + tree_concolic_s;
    let vm_s = vm_concrete_s + vm_concolic_s;
    let rps = |s: f64| if s > 0.0 { 2.0 * runs as f64 / s } else { 0.0 };
    let speedup = ratio(tree_s, vm_s);
    ExecBenchRow {
        program: name,
        vectors: vectors.len(),
        rounds,
        runs,
        concrete_speedup: ratio(tree_concrete_s, vm_concrete_s),
        concolic_speedup: ratio(tree_concolic_s, vm_concolic_s),
        tree_rps: rps(tree_s),
        vm_rps: rps(vm_s),
        speedup,
        instructions,
        tree_s,
        vm_s,
    }
}

fn exec_row_json(r: &ExecBenchRow) -> String {
    format!(
        "{{\"program\": {}, \"vectors\": {}, \"rounds\": {}, \"runs\": {}, \
         \"concrete_speedup\": {:.3}, \"concolic_speedup\": {:.3}, \
         \"tree_rps\": {:.1}, \"vm_rps\": {:.1}, \"speedup\": {:.3}, \
         \"instructions\": {}}}",
        json_str(r.program),
        r.vectors,
        r.rounds,
        r.runs,
        r.concrete_speedup,
        r.concolic_speedup,
        r.tree_rps,
        r.vm_rps,
        r.speedup,
        r.instructions,
    )
}

/// Trace-overhead ceiling for the default (`every-generation`) fsync
/// row of the resume section: the durable writer's own time (encoding,
/// writing and syncing frames, [`Report::trace_write`]) may be at most
/// this share of the traced campaign's wall time.
const RESUME_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// One fsync policy's trace-overhead measurement.
struct ResumeBenchRow {
    fsync: FsyncPolicy,
    /// Median campaign wall time over [`RESUME_ROUNDS`] rounds.
    wall_ms: f64,
    /// Max − min of the same samples.
    spread_ms: f64,
    /// Median wall-time difference against the untraced baseline, in
    /// percent of the baseline. Reported, not gated: differencing two
    /// noisy walls cannot resolve the ceiling on a shared host.
    overhead_pct: f64,
    /// Median time inside the durable writer per campaign.
    writer_ms: f64,
    /// Median over rounds of the writer's share of the campaign's wall
    /// time, in percent: the gated number.
    writer_pct: f64,
    trace_bytes: u64,
    frames: usize,
}

/// Crash-recovery measurement: the `every-generation` trace truncated
/// at ~60% of its frames, resumed, and checked for report parity.
struct ResumeRecovery {
    crash_frame: usize,
    frames: usize,
    recovery_ms: f64,
    events_replayed: usize,
    parity: bool,
}

/// Deterministic rendering of the result-pinned report fields — the
/// bench-side equivalent of the parity suite's canonical form (elapsed,
/// the cache hit/miss split, and the trace-I/O telemetry excluded).
fn report_fingerprint(r: &Report) -> String {
    format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.technique,
        r.program,
        r.runs,
        r.errors,
        r.coverage,
        r.generation_widths,
        r.degradations,
        r.faults_injected,
        (
            r.divergences,
            r.probes,
            r.solver_calls,
            r.rejected_targets,
            r.targets_pruned_static,
            r.presampled_sites,
            r.branch_sites,
        ),
        (
            r.solver_errors,
            r.targets_degraded,
            r.targets_faulted,
            r.budget_escalations,
            r.fuel_exhausted_runs,
            r.campaign_timed_out,
        ),
    )
}

/// Frame count of a durable trace file (header frame excluded), walking
/// the length prefixes.
fn trace_frames(path: &std::path::Path) -> usize {
    let data = std::fs::read(path).unwrap_or_default();
    let mut off = 8usize;
    let mut frames = 0usize;
    while off + 8 <= data.len() {
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        if off + 8 + len > data.len() {
            break;
        }
        off += 8 + len;
        frames += 1;
    }
    frames.saturating_sub(1)
}

/// Byte offset just past event frame `k` (frame 0 is the header).
fn trace_cut_at(path: &std::path::Path, k: usize) -> u64 {
    let data = std::fs::read(path).expect("read trace");
    let mut off = 8usize;
    let mut frame = 0usize;
    while off + 8 <= data.len() {
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        if frame == k {
            return off as u64;
        }
        frame += 1;
    }
    data.len() as u64
}

/// Timing rounds of the resume section. Each round times the untraced
/// baseline and every fsync leg once, so slow phases of a shared host
/// spread over every leg instead of landing on whichever leg ran during
/// them. On a host whose speed swings by a quarter from one campaign to
/// the next, seven rounds still cannot resolve a 5% difference every
/// time; the per-leg `spread_ms` shows when that is the case.
const RESUME_ROUNDS: usize = 7;

/// Median and spread (max − min) of one leg's timing samples.
fn median_spread(samples: &[f64]) -> (f64, f64) {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let median = if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    };
    (median, xs[n - 1] - xs[0])
}

/// Measures the durable-trace cost and crash recovery on one
/// solver-heavy campaign (`crc_guard` × HigherOrder, fixed 40-run
/// budget): campaign wall time without a trace versus with a trace
/// under each fsync policy — [`RESUME_ROUNDS`] interleaved rounds, the
/// leg order rotated every round — plus, per traced campaign, the time
/// spent inside the durable writer ([`Report::trace_write`]), whose
/// median share of the campaign's wall time is what the gate checks.
/// Then a crash at ~60% of the recorded frames is resumed back to a
/// full report, timed and checked for bit-identical parity. Returns the
/// baseline's median and spread, the per-policy rows, the recovery
/// drill, and whether the gate passed.
fn resume_bench() -> ((f64, f64), Vec<ResumeBenchRow>, ResumeRecovery, bool) {
    let (program, natives) = corpus::crc_guard();
    let width = program.input_width();
    let technique = Technique::HigherOrder;
    let dir = std::env::temp_dir().join(format!("hotg-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir bench tempdir");
    let policies = [
        FsyncPolicy::EveryEvent,
        FsyncPolicy::EveryGeneration,
        FsyncPolicy::Close,
    ];
    let trace_path = |fsync: FsyncPolicy| dir.join(format!("resume-{}.trace", fsync.name()));
    // Leg 0 is the untraced baseline; leg `i + 1` traces under
    // `policies[i]`.
    let legs = policies.len() + 1;
    let run_leg = |leg: usize| -> (Report, f64) {
        let trace = leg.checked_sub(1).map(|i| TraceConfig {
            fsync: policies[i],
            ..TraceConfig::new(trace_path(policies[i]))
        });
        let cfg = DriverConfig {
            trace,
            ..config(width, 40, 1)
        };
        let start = Instant::now();
        let r = Driver::new(&program, &natives, cfg).run(technique);
        (r, start.elapsed().as_secs_f64() * 1e3)
    };
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(RESUME_ROUNDS); legs];
    // Per leg and round: (writer ms, writer share of that campaign's wall).
    let mut writer: Vec<Vec<(f64, f64)>> = vec![Vec::with_capacity(RESUME_ROUNDS); legs];
    let mut fingerprints: Vec<String> = vec![String::new(); legs];
    for round in 0..RESUME_ROUNDS {
        for k in 0..legs {
            let leg = (round + k) % legs;
            let (r, ms) = run_leg(leg);
            let writer_ms = r.trace_write.as_secs_f64() * 1e3;
            samples[leg].push(ms);
            writer[leg].push((writer_ms, writer_ms / ms * 100.0));
            fingerprints[leg] = report_fingerprint(&r);
        }
    }
    let (baseline_ms, baseline_spread_ms) = median_spread(&samples[0]);
    let want = &fingerprints[0];

    let mut rows = Vec::new();
    for (i, &fsync) in policies.iter().enumerate() {
        assert_eq!(
            want,
            &fingerprints[i + 1],
            "durable trace perturbed the campaign under fsync={}",
            fsync.name()
        );
        let path = trace_path(fsync);
        let (wall_ms, spread_ms) = median_spread(&samples[i + 1]);
        let leg_writer = &writer[i + 1];
        let (writer_ms, _) = median_spread(&leg_writer.iter().map(|w| w.0).collect::<Vec<_>>());
        let (writer_pct, _) = median_spread(&leg_writer.iter().map(|w| w.1).collect::<Vec<_>>());
        let trace_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let overhead_pct = if baseline_ms > 0.0 {
            ((wall_ms - baseline_ms) / baseline_ms * 100.0).max(0.0)
        } else {
            0.0
        };
        rows.push(ResumeBenchRow {
            fsync,
            wall_ms,
            spread_ms,
            overhead_pct,
            writer_ms,
            writer_pct,
            trace_bytes,
            frames: trace_frames(&path),
        });
        eprintln!(
            "resume fsync={:<16} writer {writer_ms:.2}ms = {writer_pct:.2}% of \
             {wall_ms:.1}ms ±{spread_ms:.1} (wall +{overhead_pct:.1}% vs \
             {baseline_ms:.1}ms ±{baseline_spread_ms:.1} untraced; medians of \
             {RESUME_ROUNDS}), {trace_bytes} trace bytes",
            fsync.name()
        );
    }

    // Crash at ~60% of the every-generation trace and resume.
    let gen_trace = trace_path(FsyncPolicy::EveryGeneration);
    let frames = trace_frames(&gen_trace);
    let crash_frame = frames * 6 / 10;
    let full = std::fs::read(&gen_trace).expect("read trace");
    let crash_path = dir.join("resume-crash.trace");
    std::fs::write(
        &crash_path,
        &full[..trace_cut_at(&gen_trace, crash_frame) as usize],
    )
    .expect("write crashed trace");
    let cfg = DriverConfig {
        trace: Some(TraceConfig::new(&crash_path)),
        ..config(width, 40, 1)
    };
    let driver = Driver::new(&program, &natives, cfg);
    let start = Instant::now();
    let resumed = driver
        .resume_with_sink(technique, &mut hotg_core::NullSink)
        .expect("resume from crashed trace");
    let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    let parity = report_fingerprint(&resumed.report) == *want;
    let recovery = ResumeRecovery {
        crash_frame,
        frames,
        recovery_ms,
        events_replayed: resumed.recovery.events_replayed,
        parity,
    };
    eprintln!(
        "resume recovery: crash at frame {crash_frame}/{frames}, resumed in \
         {recovery_ms:.1}ms ({} events replayed), parity {parity}",
        recovery.events_replayed,
    );
    let every_gen_ok = rows
        .iter()
        .find(|r| r.fsync == FsyncPolicy::EveryGeneration)
        .is_some_and(|r| r.writer_pct <= RESUME_OVERHEAD_CEILING_PCT);
    let pass = parity && every_gen_ok;
    for row in &rows {
        let _ = std::fs::remove_file(trace_path(row.fsync));
    }
    let _ = std::fs::remove_file(&crash_path);
    ((baseline_ms, baseline_spread_ms), rows, recovery, pass)
}

fn resume_row_json(r: &ResumeBenchRow) -> String {
    format!(
        "{{\"fsync\": {}, \"wall_ms\": {:.3}, \"spread_ms\": {:.3}, \
         \"overhead_pct\": {:.2}, \"writer_ms\": {:.3}, \"writer_pct\": {:.2}, \
         \"trace_bytes\": {}, \"frames\": {}}}",
        json_str(r.fsync.name()),
        r.wall_ms,
        r.spread_ms,
        r.overhead_pct,
        r.writer_ms,
        r.writer_pct,
        r.trace_bytes,
        r.frames,
    )
}

/// Silence the default panic-hook chatter for the chaos legs: injected
/// worker panics are expected and caught by the driver, so their
/// payloads (tagged `chaos:`) should not spam stderr.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos:"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("chaos:"));
        if !injected {
            default(info);
        }
    }));
}

/// One sharded-campaign parity row: a program × technique campaign run
/// as `shards` partitioned schedulers, its exchange accounting, and
/// whether its report matched the single-shard run on every field but
/// the schedule-dependent cache split (reported for both runs).
struct ShardBenchRow {
    program: &'static str,
    technique: Technique,
    shards: usize,
    per_shard_targets: Vec<u64>,
    exchange_samples: u64,
    exchange_keys: u64,
    parity: bool,
    cache_baseline: String,
    cache_sharded: String,
    wall_ms: f64,
}

fn shard_row_json(r: &ShardBenchRow) -> String {
    format!(
        "{{\"program\": {}, \"technique\": {}, \"shards\": {}, \
         \"per_shard_targets\": {:?}, \"exchange_samples\": {}, \
         \"exchange_keys\": {}, \"parity\": {}, \"cache_baseline\": {}, \
         \"cache_sharded\": {}, \"wall_ms\": {:.3}}}",
        json_str(r.program),
        json_str(r.technique.name()),
        r.shards,
        r.per_shard_targets,
        r.exchange_samples,
        r.exchange_keys,
        r.parity,
        json_str(&r.cache_baseline),
        json_str(&r.cache_sharded),
        r.wall_ms,
    )
}

fn main() {
    let args = parse_args();
    let max_runs = if args.reduced { 40 } else { 200 };
    let programs: Vec<_> = corpus::all()
        .into_iter()
        .filter(|(name, _)| !args.reduced || REDUCED_PROGRAMS.contains(name))
        .collect();

    let techniques: Vec<Technique> = Technique::ALL
        .into_iter()
        .filter(|t| args.technique.is_none_or(|want| want == *t))
        .collect();

    // Matrix: every program × every selected technique, single-threaded
    // so the per-row wall times are comparable across techniques. Each
    // campaign runs through its event stream; any fold drift against
    // the driver's report is collected and fails the process.
    let mut rows = Vec::new();
    let mut fold_drift = Vec::new();
    for (name, ctor) in &programs {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in techniques.iter().copied() {
            let driver = Driver::new(&program, &natives, config(width, max_runs, 1));
            let start = Instant::now();
            let (report, events, mismatches) = run_via_events(&driver, technique);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            eprintln!(
                "{name:<14} {:<18} {:>7.1}ms  {}",
                technique.name(),
                wall_ms,
                report
            );
            fold_drift.extend(
                mismatches
                    .into_iter()
                    .map(|m| format!("{name}/{}: {m}", technique.name())),
            );
            rows.push(row_json(name, &report, wall_ms, events));
        }
    }

    // Chaos legs: the same program selection under a deterministic
    // fault-injection plan. Every campaign must terminate and keep its
    // books straight; the row records the injected-fault accounting.
    let mut chaos_rows = Vec::new();
    if args.chaos {
        quiet_injected_panics();
        for (name, ctor) in &programs {
            let (program, natives) = ctor();
            let width = program.input_width();
            for seed in [1u64, 2] {
                let cfg = DriverConfig {
                    fault_plan: Some(FaultPlan::uniform(seed, 0.2)),
                    target_deadline: Some(Duration::from_secs(10)),
                    ..config(width, max_runs, 1)
                };
                let driver = Driver::new(&program, &natives, cfg);
                let start = Instant::now();
                let (report, _, mismatches) = run_via_events(&driver, Technique::HigherOrder);
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                eprintln!(
                    "chaos {name:<14} seed {seed} {:>7.1}ms  {} injected, \
                     {} faulted, {} degraded",
                    wall_ms,
                    report.faults_injected.total(),
                    report.targets_faulted,
                    report.targets_degraded,
                );
                fold_drift.extend(
                    mismatches
                        .into_iter()
                        .map(|m| format!("chaos {name}/seed{seed}: {m}")),
                );
                chaos_rows.push(chaos_row_json(name, seed, &report, wall_ms));
            }
        }
    }

    // Paper claims (independent of --reduced: they are the gate CI fails
    // on, and cheap at their fixed 40-run budget).
    let claims: Vec<String> = paper_examples()
        .iter()
        .map(|c| {
            format!(
                "{{\"id\": {}, \"program\": {}, \"technique\": {}, \
                 \"claim\": {}, \"measured\": {}, \"pass\": {}}}",
                json_str(c.id),
                json_str(c.program),
                json_str(c.technique.name()),
                json_str(c.claim),
                json_str(&c.measured),
                c.pass
            )
        })
        .collect();
    let failed_claims = paper_examples().iter().filter(|c| !c.pass).count();

    // Parallel speedup: the HigherOrder technique over the whole corpus
    // selection, threads=1 vs threads=N. Campaigns are deterministic per
    // thread count, so the two legs do identical search work. The host's
    // core count is recorded alongside: on a single-core host the pool
    // cannot beat the sequential leg no matter how wide the generations
    // are, so `speedup` is only meaningful when `host_threads > 1`.
    let threads = args.threads.max(2);
    let par_technique = args.technique.unwrap_or(Technique::HigherOrder);
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut sequential_ms = 0.0;
    let mut parallel_ms = 0.0;
    let mut widest = 0usize;
    for (name, ctor) in &programs {
        let (program, natives) = ctor();
        let width = program.input_width();
        for (th, acc) in [(1, &mut sequential_ms), (threads, &mut parallel_ms)] {
            let driver = Driver::new(&program, &natives, config(width, max_runs, th));
            let start = Instant::now();
            let report = driver.run(par_technique);
            *acc += start.elapsed().as_secs_f64() * 1e3;
            widest = widest.max(report.max_generation_width());
            let _ = name;
        }
    }
    let speedup = if parallel_ms > 0.0 {
        sequential_ms / parallel_ms
    } else {
        0.0
    };
    eprintln!(
        "parallel {}: {sequential_ms:.1}ms @1 thread, \
         {parallel_ms:.1}ms @{threads} threads, speedup {speedup:.2}x \
         (host has {host_threads} core(s), widest generation {widest})",
        par_technique.name()
    );

    // Sharded campaigns: every selected directed technique re-run with
    // the campaign partitioned across N shard schedulers, diffed
    // field-by-field against the single-shard report. The rows carry
    // the partitioner's per-shard target counts and the state-exchange
    // volume, so a balance or chattiness regression is visible in the
    // artifact. (The random baseline has no branch-flip targets to
    // partition, so it is exercised in the main matrix only.)
    let shard_count = args.shards.max(2);
    let mut shard_rows: Vec<ShardBenchRow> = Vec::new();
    for (name, ctor) in &programs {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in techniques
            .iter()
            .copied()
            .filter(|t| *t != Technique::Random)
        {
            let baseline =
                Driver::new(&program, &natives, config(width, max_runs, 1)).run(technique);
            let mut cfg = config(width, max_runs, 1);
            cfg.shards = shard_count;
            let driver = Driver::new(&program, &natives, cfg);
            let mut log = EventLog::new();
            let start = Instant::now();
            let report = driver.run_with_sink(technique, &mut log);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let parity = parity_mismatches(&baseline, &report).is_empty();
            let (cache_baseline, cache_sharded) = (cache_split(&baseline), cache_split(&report));
            let (per_shard_targets, exchange_samples, exchange_keys) = log
                .events()
                .iter()
                .find_map(|e| match e {
                    CampaignEvent::ShardStats {
                        per_shard_targets,
                        exchange_samples,
                        exchange_keys,
                        ..
                    } => Some((per_shard_targets.clone(), *exchange_samples, *exchange_keys)),
                    _ => None,
                })
                .unwrap_or_default();
            eprintln!(
                "shards {name:<13} {:<18} {wall_ms:>7.1}ms  targets {:?}, \
                 exchanged {exchange_samples} samples / {exchange_keys} keys, \
                 cache {cache_sharded} (single-shard {cache_baseline}){}",
                technique.name(),
                per_shard_targets,
                if parity { "" } else { "  PARITY FAILED" },
            );
            shard_rows.push(ShardBenchRow {
                program: name,
                technique,
                shards: shard_count,
                per_shard_targets,
                exchange_samples,
                exchange_keys,
                parity,
                cache_baseline,
                cache_sharded,
                wall_ms,
            });
        }
    }
    let shards_pass = !shard_rows.is_empty() && shard_rows.iter().all(|r| r.parity);
    let shards_json: Vec<String> = shard_rows.iter().map(shard_row_json).collect();

    // Captured DART-sound query streams, one per corpus program
    // (independent of --reduced, like the paper claims). The
    // solver-throughput replay uses its two stress programs; the backend
    // section below measures every query class that poses queries.
    let streams: Vec<(&'static str, Vec<Formula>)> = corpus::all()
        .into_iter()
        .map(|(name, _)| (name, capture_query_stream(name)))
        .collect();
    let solver_rows: Vec<SolverBenchRow> = streams
        .iter()
        .filter(|(name, _)| SOLVER_BENCH_PROGRAMS.contains(name))
        .map(|(name, stream)| {
            let row = solver_replay(name, stream);
            eprintln!(
                "solver {:<14} {} queries ({} recorded × {} rounds): \
                 {:.0} q/s baseline, {:.0} q/s reuse, speedup {:.2}x \
                 ({} intern hits, {} cache hits); {:.0} q/s cold (1 round){}",
                row.program,
                row.queries,
                row.recorded,
                row.rounds,
                row.baseline_qps,
                row.reuse_qps,
                row.speedup,
                row.intern_hits,
                row.cache_hits,
                row.cold_qps,
                if row.pass { "" } else { "  FAILED (< 3x)" },
            );
            row
        })
        .collect();
    let solver_pass = solver_rows.iter().all(|r| r.pass);
    let solver_json: Vec<String> = solver_rows.iter().map(solver_row_json).collect();

    // Pre-solver cascade: every query class with a nonempty captured
    // stream, measured for how many distinct queries the abstract
    // backend decides without any DPLL(T) work. Gated on the combined
    // rate across classes.
    let backend_rows: Vec<BackendBenchRow> = streams
        .iter()
        .filter(|(_, stream)| !stream.is_empty())
        .map(|(name, stream)| {
            let row = backend_replay(name, stream);
            eprintln!(
                "backend {:<13} {}/{} queries short-circuited by `{}` \
                 ({:.1}% — {} unsat, {} forced-model)",
                row.program,
                row.unsat_short_circuits + row.valid_short_circuits + row.sat_short_circuits,
                row.queries,
                row.backend,
                row.short_circuit_rate * 100.0,
                row.unsat_short_circuits,
                row.sat_short_circuits,
            );
            row
        })
        .collect();
    let backend_queries: u64 = backend_rows.iter().map(|r| r.queries).sum();
    let backend_answered: u64 = backend_rows
        .iter()
        .map(|r| r.unsat_short_circuits + r.valid_short_circuits + r.sat_short_circuits)
        .sum();
    let backend_rate = if backend_queries > 0 {
        backend_answered as f64 / backend_queries as f64
    } else {
        0.0
    };
    let backend_pass = backend_queries > 0 && backend_rate >= BACKEND_SHORT_CIRCUIT_FLOOR;
    let backend_json: Vec<String> = backend_rows.iter().map(backend_row_json).collect();

    // Execution throughput: the bytecode VMs against the tree-walking
    // reference interpreters on loop- and call-heavy programs — the
    // corpus' widest (`fanout`) and loopiest (`crc_guard`) members plus
    // the §7 lexer application's scanning parser, whose chunk-extraction
    // loop is the paper's motivating long-running shape. Independent of
    // --reduced, like the solver replay: it is a CI gate and cheap at
    // its fixed replay budget.
    let exec_programs: [(
        &'static str,
        (hotg_lang::Program, hotg_lang::NativeRegistry),
    ); 3] = [
        ("fanout", corpus::fanout()),
        ("crc_guard", corpus::crc_guard()),
        ("lex_scanning", hotg_lexapp::programs::scanning_parser()),
    ];
    let exec_rows: Vec<ExecBenchRow> = exec_programs
        .iter()
        .map(|(name, (program, natives))| {
            let row = exec_replay(name, program, natives);
            eprintln!(
                "exec {:<16} {} runs/leg ({} vectors × {} rounds): \
                 {:.0} r/s tree, {:.0} r/s vm, speedup {:.2}x \
                 (concrete {:.2}x, concolic {:.2}x, {} instructions)",
                row.program,
                row.runs,
                row.vectors,
                row.rounds,
                row.tree_rps,
                row.vm_rps,
                row.speedup,
                row.concrete_speedup,
                row.concolic_speedup,
                row.instructions,
            );
            row
        })
        .collect();
    let exec_tree_s: f64 = exec_rows.iter().map(|r| r.tree_s).sum();
    let exec_vm_s: f64 = exec_rows.iter().map(|r| r.vm_s).sum();
    let exec_speedup = if exec_vm_s > 0.0 {
        exec_tree_s / exec_vm_s
    } else {
        0.0
    };
    let exec_pass = !exec_rows.is_empty() && exec_speedup >= EXEC_SPEEDUP_FLOOR;
    eprintln!(
        "exec combined: {exec_tree_s:.3}s tree, {exec_vm_s:.3}s vm, \
         speedup {exec_speedup:.2}x{}",
        if exec_pass { "" } else { "  FAILED (< 2x)" },
    );
    let exec_json: Vec<String> = exec_rows.iter().map(exec_row_json).collect();

    // Durable-trace overhead and crash recovery (crc_guard ×
    // HigherOrder, fixed 40-run budget, independent of --reduced: a CI
    // gate like the solver and exec replays).
    let (
        (resume_baseline_ms, resume_baseline_spread_ms),
        resume_rows,
        resume_recovery,
        resume_pass,
    ) = resume_bench();
    let resume_json: Vec<String> = resume_rows.iter().map(resume_row_json).collect();

    let json = format!(
        "{{\n  \"schema\": \"hotg-campaign-bench/9\",\n  \"reduced\": {},\n  \
         \"max_runs\": {},\n  \"fold_drift\": {},\n  \
         \"rows\": [\n    {}\n  ],\n  \"claims\": [\n    {}\n  ],\n  \
         \"failed_claims\": {},\n  \"chaos\": [\n    {}\n  ],\n  \
         \"solver\": {{\"technique\": {}, \
         \"baseline\": \"fresh-solver-per-query\", \"pass\": {}, \
         \"rows\": [\n    {}\n  ]}},\n  \
         \"backends\": {{\"technique\": {}, \"cascade\": \"abstract -> dpll(t)\", \
         \"combined_short_circuit_rate\": {:.4}, \"floor\": {:.2}, \"pass\": {}, \
         \"rows\": [\n    {}\n  ]}},\n  \
         \"exec\": {{\"mode\": {}, \"baseline\": \"tree-walking-interpreters\", \
         \"combined_speedup\": {:.3}, \"floor\": {:.2}, \"pass\": {}, \
         \"rows\": [\n    {}\n  ]}},\n  \
         \"resume\": {{\"program\": {}, \"technique\": {}, \
         \"rounds\": {}, \"baseline_ms\": {:.3}, \"baseline_spread_ms\": {:.3}, \
         \"overhead_ceiling_pct\": {:.1}, \"pass\": {}, \
         \"rows\": [\n    {}\n  ], \
         \"recovery\": {{\"crash_frame\": {}, \"frames\": {}, \
         \"recovery_ms\": {:.3}, \"events_replayed\": {}, \"parity\": {}}}}},\n  \
         \"shards\": {{\"shards\": {}, \"baseline\": \"single-shard-campaign\", \
         \"pass\": {}, \"rows\": [\n    {}\n  ]}},\n  \
         \"parallel\": {{\"technique\": {}, \
         \"threads\": {}, \"host_threads\": {}, \"max_generation_width\": {}, \
         \"sequential_ms\": {:.3}, \"parallel_ms\": {:.3}, \
         \"speedup\": {:.3}}}\n}}\n",
        args.reduced,
        max_runs,
        fold_drift.len(),
        rows.join(",\n    "),
        claims.join(",\n    "),
        failed_claims,
        chaos_rows.join(",\n    "),
        json_str(Technique::DartSound.name()),
        solver_pass,
        solver_json.join(",\n    "),
        json_str(Technique::DartSound.name()),
        backend_rate,
        BACKEND_SHORT_CIRCUIT_FLOOR,
        backend_pass,
        backend_json.join(",\n    "),
        json_str("Uninterpreted"),
        exec_speedup,
        EXEC_SPEEDUP_FLOOR,
        exec_pass,
        exec_json.join(",\n    "),
        json_str("crc_guard"),
        json_str(Technique::HigherOrder.name()),
        RESUME_ROUNDS,
        resume_baseline_ms,
        resume_baseline_spread_ms,
        RESUME_OVERHEAD_CEILING_PCT,
        resume_pass,
        resume_json.join(",\n    "),
        resume_recovery.crash_frame,
        resume_recovery.frames,
        resume_recovery.recovery_ms,
        resume_recovery.events_replayed,
        resume_recovery.parity,
        shard_count,
        shards_pass,
        shards_json.join(",\n    "),
        json_str(par_technique.name()),
        threads,
        host_threads,
        widest,
        sequential_ms,
        parallel_ms,
        speedup,
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    println!(
        "wrote {} ({} rows, {} claims)",
        args.out,
        rows.len(),
        claims.len()
    );

    let mut failed = false;
    if failed_claims > 0 {
        eprintln!("campaign-bench: {failed_claims} paper-claim row(s) FAILED");
        failed = true;
    }
    if !solver_pass {
        eprintln!(
            "campaign-bench: solver-throughput replay below the 3x \
             solver-reuse floor"
        );
        failed = true;
    }
    if !backend_pass {
        eprintln!(
            "campaign-bench: abstract backend short-circuited {:.1}% of \
             the bench query streams (floor {:.0}%)",
            backend_rate * 100.0,
            BACKEND_SHORT_CIRCUIT_FLOOR * 100.0
        );
        failed = true;
    }
    if !exec_pass {
        eprintln!(
            "campaign-bench: execution-throughput replay at {exec_speedup:.2}x, \
             below the {EXEC_SPEEDUP_FLOOR}x bytecode-VM floor"
        );
        failed = true;
    }
    if !resume_pass {
        eprintln!(
            "campaign-bench: crash-safe resume gate FAILED (parity {}, \
             every-generation trace writer must take <= {RESUME_OVERHEAD_CEILING_PCT}% \
             of the campaign's wall time)",
            resume_recovery.parity
        );
        failed = true;
    }
    if !shards_pass {
        eprintln!(
            "campaign-bench: sharded-campaign parity FAILED (a {shard_count}-shard \
             report drifted from its single-shard baseline)"
        );
        failed = true;
    }
    if !fold_drift.is_empty() {
        eprintln!(
            "campaign-bench: event-stream fold drifted from the driver report in {} place(s):",
            fold_drift.len()
        );
        for m in &fold_drift {
            eprintln!("  {m}");
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
