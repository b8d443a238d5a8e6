//! `hotg-perfbench`: the repository benchmark.
//!
//! ```text
//! hotg-perfbench --workload <ho_lexers|dart_wide|exec_long> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload's campaigns back to back through the public
//! `hotg_core::Driver` API (closed loop: one process, one client, each
//! campaign waits for the previous one), checks every generated test
//! against the reference tree-walker, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) as the last line
//! of standard output, one JSON object. Exits 1 on any correctness
//! failure and 2 on bad arguments. See `README.md` in this directory.

mod gen;
mod probe;
mod workload;

use hotg_concolic::ConcolicContext;
use hotg_core::{Driver, Report, Technique};
use hotg_lang::{check, parse, Program};
use probe::{FirstError, Layers, Spans};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{Spec, Workload, PASS_SECONDS};

/// Repetitions of the traced run's front-end layer timings (medians).
const FRONT_END_REPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hotg-perfbench: {e}");
            eprintln!(
                "usage: hotg-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for (name, value, unit) in &out.metrics {
                println!("{name:>36} = {value} {unit}");
            }
            println!("{}", out.json());
            if out.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                for e in &out.errors {
                    eprintln!("hotg-perfbench: correctness: {e}");
                }
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("hotg-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

struct Output {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    errors: Vec<String>,
}

impl Output {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One campaign as measured with tracing off.
struct Sample {
    wall: f64,
    time_to_error: Option<f64>,
    directions: usize,
    errors: usize,
    digest: u64,
}

/// The workload's programs after one set-up.
struct Built {
    specs: Vec<Spec>,
    programs: Vec<Program>,
}

/// Generates the seeded programs, then parses, checks and builds a
/// `Driver` (static analysis, bytecode compilation, symbolic context) for
/// every program of the workload: the work a user pays before the first
/// campaign.
fn set_up(w: Workload, seed: u64, fixed: &[Spec]) -> Result<Built, String> {
    let generated = w.generated(seed);
    let mut programs = Vec::new();
    for spec in fixed.iter().chain(&generated) {
        let program = parse(&spec.text).map_err(|e| format!("parse: {e}"))?;
        check(&program).map_err(|e| format!("check {}: {e}", program.name))?;
        black_box(Driver::new(&program, &spec.natives, spec.config.clone()));
        programs.push(program);
    }
    let specs = fixed.iter().cloned().chain(generated).collect();
    Ok(Built { specs, programs })
}

fn run(args: &Args) -> Result<Output, String> {
    let fixed = args.workload.fixed();
    let built = set_up(args.workload, args.seed, &fixed)?;
    let mut out = Output {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        errors: Vec::new(),
    };
    if args.trace {
        traced(args, &built, &mut out)?;
    } else {
        untraced(args, &fixed, &built, &mut out)?;
    }
    if let Some((name, value, _)) = out.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name} is {value}"));
    }
    Ok(out)
}

/// Runs one campaign with tracing off and times it.
fn campaign(driver: &Driver<'_>, technique: Technique) -> (Report, Sample) {
    let mut sink = FirstError { at: None };
    let start = Instant::now();
    let report = driver.run_with_sink(technique, &mut sink);
    let wall = start.elapsed().as_secs_f64();
    let sample = Sample {
        wall,
        time_to_error: sink.at.map(|t| (t - start).as_secs_f64()),
        directions: report.coverage.len(),
        errors: report.errors.len(),
        digest: probe::digest(&report),
    };
    (report, sample)
}

/// The checks every first run of a campaign gets: the campaign finished
/// cleanly, every recorded run replays identically on the reference
/// tree-walker, and the campaign reached the error code it must reach.
/// Returns whether the campaign failed.
fn check_campaign(
    spec: &Spec,
    program: &Program,
    technique: Technique,
    report: &Report,
    errors: &mut Vec<String>,
) -> bool {
    let name = format!("{} × {}", program.name, technique.name());
    let mut failed = false;
    if report.campaign_timed_out || report.targets_faulted > 0 || report.solver_errors > 0 {
        // Reported through `failed`; not a wrong answer.
        eprintln!(
            "hotg-perfbench: {name} failed: timed_out={} targets_faulted={} solver_errors={}",
            report.campaign_timed_out, report.targets_faulted, report.solver_errors
        );
        failed = true;
    }
    if let Err(e) = probe::oracle(program, &spec.natives, report, spec.config.fuel) {
        errors.push(format!("{name}: {e}"));
        failed = true;
    }
    if let Some(code) = spec.must_reach {
        if !report.found_error(code) {
            errors.push(format!("{name}: error({code}) not reached"));
            failed = true;
        }
    }
    failed
}

/// Every campaign of the workload, in pass order.
fn campaigns(built: &Built) -> impl Iterator<Item = (&Spec, &Program, Technique)> {
    built
        .specs
        .iter()
        .zip(&built.programs)
        .flat_map(|(s, p)| s.techniques.iter().map(move |&t| (s, p, t)))
}

fn untraced(args: &Args, fixed: &[Spec], built: &Built, out: &mut Output) -> Result<(), String> {
    // The tail percentile comes from the nominal pass count, so every run
    // estimates the same percentile however many passes the host fits.
    let nominal = ((args.seconds / PASS_SECONDS) as usize).max(1);
    let mut samples: Vec<Sample> = Vec::new();
    let mut pass_walls = Vec::new();
    let mut first: Vec<u64> = Vec::new();
    // One set-up ahead of every campaign: `setup_s` is their median, so it
    // samples the host over the whole run rather than over its first few
    // milliseconds.
    let mut setups = Vec::new();
    let start = Instant::now();
    for pass in 0.. {
        let pass_start = Instant::now();
        let mut pass_wall = 0.0;
        for (i, (spec, program, technique)) in campaigns(built).enumerate() {
            let t = Instant::now();
            black_box(set_up(args.workload, args.seed, fixed)?);
            setups.push(t.elapsed().as_secs_f64());
            let driver = Driver::new(program, &spec.natives, spec.config.clone());
            let (report, sample) = campaign(&driver, technique);
            out.attempted += 1;
            let failed = if pass == 0 {
                first.push(sample.digest);
                check_campaign(spec, program, technique, &report, &mut out.errors)
            } else if first[i] != sample.digest {
                out.errors.push(format!(
                    "{} × {}: pass {pass} differs from pass 0",
                    program.name,
                    technique.name()
                ));
                true
            } else {
                false
            };
            out.failed += failed as usize;
            pass_wall += sample.wall;
            samples.push(sample);
        }
        pass_walls.push(pass_wall);
        // Whole passes for `--seconds`: another pass runs when it would
        // end, at the last pass's pace, less than half a pass late. The
        // host's speed sets how many passes fit, never how long a run
        // lasts, and a run averages the host over the same span of time.
        let last = pass_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last / 2.0 >= args.seconds {
            break;
        }
    }

    let passes = pass_walls.len();
    let per_pass = samples.len() / passes;
    let walls: Vec<f64> = samples.iter().map(|s| s.wall * 1e3).collect();
    let tail_pct = tail_percentile(nominal * per_pass);
    eprintln!(
        "hotg-perfbench: {}: {} campaigns ({passes} passes of {per_pass}), tail = p{tail_pct}, \
         failed_share = {}",
        args.workload.name(),
        samples.len(),
        out.failed as f64 / out.attempted as f64
    );
    let tte: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.time_to_error.map(|t| t * 1e3))
        .collect();
    if tte.is_empty() {
        return Err("no campaign found an error; time_to_error_ms is undefined".into());
    }
    let directions: usize = samples.iter().map(|s| s.directions).sum();
    let total_wall: f64 = samples.iter().map(|s| s.wall).sum();
    let first_pass = &samples[..per_pass];
    out.metrics = vec![
        ("campaign_ms.p50", quantile(&walls, 0.5), "ms"),
        (
            "campaign_ms.tail",
            quantile(&walls, tail_pct as f64 / 100.0),
            "ms",
        ),
        ("wall_s", quantile(&pass_walls, 0.5), "s"),
        ("directions_per_s", directions as f64 / total_wall, "1/s"),
        ("time_to_error_ms.p50", quantile(&tte, 0.5), "ms"),
        (
            "directions_covered",
            first_pass.iter().map(|s| s.directions).sum::<usize>() as f64,
            "count",
        ),
        (
            "errors_found",
            first_pass.iter().map(|s| s.errors).sum::<usize>() as f64,
            "count",
        ),
        ("setup_s", quantile(&setups, 0.5), "s"),
        ("peak_rss_mb", probe::peak_rss_mb()?, "MiB"),
    ];
    Ok(())
}

/// The traced run: one pass in which every campaign runs untraced, then
/// traced (timestamping sink plus solver-query tap), then through the
/// out-of-campaign replays that attribute its time to layers.
fn traced(args: &Args, built: &Built, out: &mut Output) -> Result<(), String> {
    let front = front_end(built)?;
    let mut total = Layers::default();
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    // (directions, errors) summed over the untraced and the traced legs.
    let (mut untraced_found, mut traced_found) = ((0, 0), (0, 0));
    for (spec, program, technique) in campaigns(built) {
        let driver = Driver::new(program, &spec.natives, spec.config.clone());
        let (report, sample) = campaign(&driver, technique);
        out.attempted += 1;
        let mut failed = check_campaign(spec, program, technique, &report, &mut out.errors);
        untraced_wall += sample.wall;
        untraced_found.0 += sample.directions;
        untraced_found.1 += sample.errors;
        drop(report);

        let log = Arc::new(Mutex::new(Vec::new()));
        let config = hotg_core::DriverConfig {
            query_log: Some(Arc::clone(&log)),
            ..spec.config.clone()
        };
        let driver = Driver::new(program, &spec.natives, config);
        let start = Instant::now();
        let mut spans = Spans::new(start);
        let report = driver.run_with_sink(technique, &mut spans);
        let wall = start.elapsed().as_secs_f64();
        out.attempted += 1;
        traced_wall += wall;
        traced_found.0 += report.coverage.len();
        traced_found.1 += report.errors.len();
        if probe::digest(&report) != sample.digest {
            out.errors.push(format!(
                "{} × {}: traced campaign differs from untraced",
                program.name,
                technique.name()
            ));
            failed = true;
        }
        out.failed += 2 * failed as usize;

        let queries = log.lock().map_err(|_| "query log poisoned")?;
        let cp = driver
            .compiled()
            .ok_or_else(|| format!("{} did not compile to bytecode", program.name))?;
        let ctx = ConcolicContext::new(program);
        let mut l = probe::attribute(
            technique,
            &report,
            &spans.marks,
            &queries,
            spec.config.validity.smt,
            &ctx,
            cp,
            spec.config.fuel,
        );
        l.wall = wall;
        total.add(&l);
    }

    let ms = 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let exec_total = total.target_exec + total.outside_exec;
    eprintln!(
        "hotg-perfbench: {}: traced wall {traced_wall:.3} s, untraced wall {untraced_wall:.3} s; \
         (directions_covered, errors_found) traced {traced_found:?}, untraced {untraced_found:?}",
        args.workload.name()
    );
    out.metrics = vec![
        ("lang.parse_ms", front.parse * ms, "ms"),
        ("lang.check_ms", front.check * ms, "ms"),
        ("lang.compile_ms", front.compile * ms, "ms"),
        ("analysis.analyze_ms", front.analyze * ms, "ms"),
        (
            "lang.vm.us_per_run",
            ratio(total.vm_s, total.vm_runs) * 1e6,
            "us",
        ),
        ("lang.vm.instructions", total.instructions, "count"),
        (
            "concolic.us_per_run",
            ratio(total.concolic_s, total.concolic_runs) * 1e6,
            "us",
        ),
        ("solver.smt.queries", total.smt_queries, "count"),
        ("solver.smt.replay_ms", total.smt_s * ms, "ms"),
        ("solver.smt.sat", total.sat, "count"),
        ("solver.smt.unsat", total.unsat, "count"),
        ("solver.smt.unknown", total.unknown, "count"),
        (
            "solver.cache.hit_rate",
            ratio(total.cache_hits, total.cache_lookups),
            "ratio",
        ),
        (
            "solver.cascade.short_circuit_rate",
            ratio(total.short_circuits, total.backend_queries),
            "ratio",
        ),
        (
            "core.target.self_ms",
            (total.target_span - total.target_exec) * ms,
            "ms",
        ),
        (
            "core.campaign.self_ms",
            (total.wall - total.target_span - total.outside_exec) * ms,
            "ms",
        ),
        (
            "core.unattributed_ms",
            (total.wall - exec_total - total.smt_s) * ms,
            "ms",
        ),
        ("trace.overhead_s", traced_wall - untraced_wall, "s"),
        ("core.generations", total.generations, "count"),
        ("core.targets_scheduled", total.scheduled, "count"),
        ("core.targets_solved", total.solved, "count"),
        ("core.targets_rejected", total.rejected, "count"),
        ("core.probes", total.probes, "count"),
        ("core.runs", total.runs, "count"),
        ("core.degraded", total.degraded, "count"),
        (
            "core.events_per_run",
            ratio(total.events, total.runs),
            "ratio",
        ),
        (
            "core.solve_yield",
            ratio(total.solved, total.scheduled),
            "ratio",
        ),
    ];
    Ok(())
}

/// Front-end layer times, seconds summed over the workload's programs.
struct FrontEnd {
    parse: f64,
    check: f64,
    compile: f64,
    analyze: f64,
}

/// Times the layers `Driver::new` and the set-up go through, each call on
/// its own, as the median over `FRONT_END_REPS` repetitions.
fn front_end(built: &Built) -> Result<FrontEnd, String> {
    let mut reps: [Vec<f64>; 4] = Default::default();
    for _ in 0..FRONT_END_REPS {
        let mut sums = [0.0; 4];
        for (spec, program) in built.specs.iter().zip(&built.programs) {
            let t = Instant::now();
            black_box(parse(&spec.text).map_err(|e| e.to_string())?);
            sums[0] += t.elapsed().as_secs_f64();
            let t = Instant::now();
            check(program).map_err(|e| e.to_string())?;
            sums[1] += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(hotg_lang::compile(program, &spec.natives).map_err(|e| e.to_string())?);
            sums[2] += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(hotg_analysis::analyze(program));
            sums[3] += t.elapsed().as_secs_f64();
        }
        for (r, s) in reps.iter_mut().zip(sums) {
            r.push(s);
        }
    }
    Ok(FrontEnd {
        parse: quantile(&reps[0], 0.5),
        check: quantile(&reps[1], 0.5),
        compile: quantile(&reps[2], 0.5),
        analyze: quantile(&reps[3], 0.5),
    })
}

/// The highest whole percentile with at least ten of `n` samples beyond
/// it; 50 when there are fewer than twenty samples.
fn tail_percentile(n: usize) -> usize {
    (50..=99)
        .rev()
        .find(|p| n - (p * n).div_ceil(100) >= 10)
        .unwrap_or(50)
}

/// Harrell–Davis estimate of the `q`-quantile: the mean of all order
/// statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass of their rank
/// interval. Campaign times of a workload cluster by program with gaps
/// between clusters, so a single order statistic jumps from cluster to
/// cluster when host noise reorders neighbours; the weighted mean moves
/// smoothly (measured spread over seeds: 0.33 → 0.20 for the median and
/// 0.17 → 0.06 for the tail of `ho_lexers`). The Beta mass is integrated
/// by Simpson's rule and normalised by its sum.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return v.first().copied().unwrap_or(0.0);
    }
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let log_density = |t: f64| (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln();
    let peak = log_density(((a - 1.0) / (a + b - 2.0)).clamp(1e-9, 1.0 - 1e-9));
    const STEPS: usize = 32;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            let (lo, h) = (i as f64 / n as f64, 1.0 / (n * STEPS) as f64);
            (0..=STEPS)
                .map(|k| {
                    let simpson = if k == 0 || k == STEPS {
                        1.0
                    } else {
                        (2 + 2 * (k % 2)) as f64
                    };
                    let d = (log_density(lo + k as f64 * h) - peak).exp();
                    simpson * if d.is_finite() { d } else { 0.0 }
                })
                .sum::<f64>()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    v.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_a_symmetric_sample_is_its_centre() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((quantile(&xs, 0.5) - 51.0).abs() < 1e-6);
        assert!((quantile(&[3.0, 1.0], 0.5) - 2.0).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        let q90 = quantile(&xs, 0.9);
        assert!((89.0..=93.0).contains(&q90), "{q90}");
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(68), 85);
        assert_eq!(tail_percentile(28), 64);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(12), 50);
    }
}
