//! Determinism of the parallel generational search: for every corpus
//! program and every technique, a campaign run with a worker pool must
//! produce a report identical to the single-threaded run — same executed
//! runs (inputs, outcomes, origins, paths), same errors, coverage,
//! divergences, probes, and solver calls.
//!
//! The cache hit/miss counters and wall-clock time are deliberately
//! excluded: racing workers may each miss a key one of them is about to
//! fill, so the hit/miss *split* is scheduling-dependent even though the
//! cached values (and hence every campaign result) are not.

use hotg_core::{Driver, DriverConfig, Report, Technique};
use hotg_lang::corpus;
use hotg_prop::prelude::*;

fn config(width: usize, threads: usize, seed: u64) -> DriverConfig {
    DriverConfig {
        max_runs: 40,
        threads,
        seed,
        ..DriverConfig::with_initial(vec![0; width])
    }
}

/// Asserts everything except the cache counters and elapsed time matches.
fn assert_reports_identical(seq: &Report, par: &Report, label: &str) {
    assert_eq!(seq.runs, par.runs, "{label}: run sequences differ");
    assert_eq!(seq.errors, par.errors, "{label}: error sets differ");
    assert_eq!(seq.coverage, par.coverage, "{label}: coverage differs");
    assert_eq!(
        seq.divergences, par.divergences,
        "{label}: divergence counts differ"
    );
    assert_eq!(seq.probes, par.probes, "{label}: probe counts differ");
    assert_eq!(
        seq.solver_calls, par.solver_calls,
        "{label}: solver call counts differ"
    );
    assert_eq!(
        seq.rejected_targets, par.rejected_targets,
        "{label}: rejected target counts differ"
    );
    assert_eq!(
        seq.targets_pruned_static, par.targets_pruned_static,
        "{label}: static pruning counts differ"
    );
    assert_eq!(
        seq.presampled_sites, par.presampled_sites,
        "{label}: pre-sampled site counts differ"
    );
    assert_eq!(
        seq.generation_widths, par.generation_widths,
        "{label}: generation widths differ"
    );
    assert_eq!(
        seq.solver_errors, par.solver_errors,
        "{label}: solver error counts differ"
    );
    assert_eq!(
        seq.targets_degraded, par.targets_degraded,
        "{label}: degraded target counts differ"
    );
    assert_eq!(
        seq.targets_faulted, par.targets_faulted,
        "{label}: faulted target counts differ"
    );
    assert_eq!(
        seq.budget_escalations, par.budget_escalations,
        "{label}: budget escalation counts differ"
    );
    assert_eq!(
        seq.fuel_exhausted_runs, par.fuel_exhausted_runs,
        "{label}: fuel-exhausted run counts differ"
    );
    assert_eq!(
        seq.fault_kinds, par.fault_kinds,
        "{label}: fault kind histograms differ"
    );
    assert_eq!(
        seq.degradations, par.degradations,
        "{label}: degradation records differ"
    );
    assert_eq!(
        seq.faults_injected, par.faults_injected,
        "{label}: injected fault counters differ"
    );
    assert_eq!(
        seq.campaign_timed_out, par.campaign_timed_out,
        "{label}: campaign timeout flags differ"
    );
}

#[test]
fn four_threads_match_one_thread_over_corpus() {
    for technique in Technique::ALL {
        for (name, ctor) in corpus::all() {
            let (program, natives) = ctor();
            let width = program.input_width();
            let seq = Driver::new(&program, &natives, config(width, 1, 0x5eed)).run(technique);
            let par = Driver::new(&program, &natives, config(width, 4, 0x5eed)).run(technique);
            assert_reports_identical(&seq, &par, &format!("{technique} on {name}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Determinism must hold for arbitrary campaign seeds (which pick the
    /// random initial inputs) and odd worker-pool sizes, not just the
    /// fixed configuration above. One representative UF-heavy program and
    /// one arithmetic program keep the property affordable.
    #[test]
    fn threads_invariant_under_random_seeds(
        seed in 0u64..1_000_000,
        threads in 2usize..8,
    ) {
        for ctor in [corpus::obscure as fn() -> _, corpus::foo] {
            let (program, natives) = ctor();
            let base = DriverConfig {
                max_runs: 30,
                seed,
                initial_inputs: None,
                ..DriverConfig::default()
            };
            let seq = Driver::new(&program, &natives, DriverConfig { threads: 1, ..base.clone() })
                .run(Technique::HigherOrder);
            let par = Driver::new(&program, &natives, DriverConfig { threads, ..base.clone() })
                .run(Technique::HigherOrder);
            assert_reports_identical(
                &seq,
                &par,
                &format!("seed {seed}, {threads} threads, {}", program.name),
            );
        }
    }
}

/// The `DriverConfig::query_log` tap captures the campaign's SMT query
/// stream without affecting results, and the stream itself is
/// deterministic: two identical campaigns record identical formulas in
/// identical order. The announced `SolverSessionStats.queries` counts
/// exactly the recorded stream, single-shard and sharded.
#[test]
fn query_log_is_deterministic_and_inert() {
    use hotg_core::{CampaignEvent, EventLog};
    use hotg_logic::Formula;
    use std::sync::{Arc, Mutex};
    let (program, natives) = corpus::fanout();
    let width = program.input_width();
    let capture = |log: &Arc<Mutex<Vec<Formula>>>, shards: usize| {
        let cfg = DriverConfig {
            query_log: Some(Arc::clone(log)),
            shards,
            ..config(width, 1, 0x5eed)
        };
        let mut events = EventLog::new();
        let report =
            Driver::new(&program, &natives, cfg).run_with_sink(Technique::DartSound, &mut events);
        let announced = events
            .events()
            .iter()
            .find_map(|e| match e {
                CampaignEvent::SolverSessionStats { queries, .. } => Some(*queries),
                _ => None,
            })
            .expect("a directed campaign announces its solver totals");
        (report, announced)
    };
    let (log_a, log_b, log_s) = (
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    );
    let (report_a, queries_a) = capture(&log_a, 1);
    let (report_b, _) = capture(&log_b, 1);
    let (report_s, queries_s) = capture(&log_s, 2);
    let plain = Driver::new(&program, &natives, config(width, 1, 0x5eed)).run(Technique::DartSound);
    assert_reports_identical(&report_a, &plain, "tapped vs untapped campaign");
    assert_reports_identical(&report_s, &plain, "tapped sharded campaign");
    let (a, b, sharded) = (
        log_a.lock().unwrap(),
        log_b.lock().unwrap(),
        log_s.lock().unwrap(),
    );
    assert!(!a.is_empty(), "a directed campaign poses SMT queries");
    assert_eq!(*a, *b, "identical campaigns record identical streams");
    assert_reports_identical(&report_a, &report_b, "tapped campaigns");
    assert_eq!(
        queries_a,
        a.len() as u64,
        "announced queries = recorded stream"
    );
    assert_eq!(
        queries_s,
        sharded.len() as u64,
        "sharded: announced queries = recorded stream"
    );
}

/// Interner/arena state is per-campaign — owned by the driver, never a
/// process-wide global. Two drivers must have disjoint id spaces: one
/// campaign's interning is invisible to the other driver, and interning
/// the same formula into both arenas yields distinct allocations.
#[test]
fn drivers_own_disjoint_arenas() {
    let (program, natives) = corpus::obscure();
    let a = Driver::new(&program, &natives, config(2, 1, 7));
    let b = Driver::new(&program, &natives, config(2, 1, 7));
    a.run(Technique::HigherOrder);
    assert_eq!(
        b.arena().stats().interned,
        0,
        "a's campaign must not touch b's arena"
    );
    b.run(Technique::HigherOrder);
    let sa = a.arena().stats();
    let sb = b.arena().stats();
    assert!(sa.interned > 0, "a directed campaign interns its queries");
    assert_eq!(
        sa.interned, sb.interned,
        "identical campaigns intern identical node sets"
    );
    use hotg_logic::{Atom, Formula, InternedFormula, Rel, Term};
    let f = Formula::atom(Atom::new(Term::int(1), Rel::Gt, Term::int(0)));
    let ia = a.arena().intern(&f);
    let ib = b.arena().intern(&f);
    assert!(
        !InternedFormula::ptr_eq(&ia, &ib),
        "same formula, different drivers: distinct allocations"
    );
}
