//! Solver model golden: the exact answers — verdicts *and* models — the
//! SMT solver gives to the query streams real campaigns pose.
//!
//! Every corpus program runs under every technique (40 runs) with the
//! `DriverConfig::query_log` tap attached. Each
//! captured stream is then replayed through a fresh solver built from the
//! campaign's own solver configuration, and every `SmtResult` (model
//! included, rendered with `Debug`) is folded into one FNV digest per
//! stream, recorded in `tests/golden/solver_models.txt`.
//!
//! The campaign goldens (`parity`) only see models through the inputs
//! they generate; this suite pins the solver layer itself, so a theory
//! refactor that claims identical answers (same pivots, same
//! branch-and-bound order, same vertices) is held to every model byte.
//!
//! Regenerate with `HOTG_BLESS=1 cargo test -p hotg-core --test solver_models`.

mod common;

use common::fnv64;
use hotg_core::{Driver, DriverConfig, Technique};
use hotg_lang::corpus;
use hotg_logic::Formula;
use hotg_solver::SmtSolver;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("solver_models.txt")
}

/// One line per corpus program × technique: stream length and the digest
/// of every answer in stream order. The tap sees model-finding `check`
/// queries only: the validity checker's solver is not tapped, so the
/// higher-order techniques record the DART-style queries they pose (often
/// none) and their validity work is pinned by the `parity` goldens.
fn compute_digests() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            let log: Arc<Mutex<Vec<Formula>>> = Arc::new(Mutex::new(Vec::new()));
            let config = DriverConfig {
                max_runs: 40,
                // One worker: the tap records in schedule order.
                threads: 1,
                query_log: Some(Arc::clone(&log)),
                ..DriverConfig::with_initial(vec![0; width])
            };
            let smt_config = config.validity.smt;
            Driver::new(&program, &natives, config).run(technique);
            let stream = log.lock().expect("query log").clone();
            let solver = SmtSolver::with_config(smt_config);
            let mut rendered = String::new();
            for formula in &stream {
                let _ = writeln!(rendered, "{:?}", solver.check(formula));
            }
            lines.push(format!(
                "{name}/{technique} queries={} {:016x}",
                stream.len(),
                fnv64(&rendered)
            ));
        }
    }
    lines
}

#[test]
fn solver_answers_match_golden_digests() {
    let lines = compute_digests();
    let path = golden_path();
    if std::env::var_os("HOTG_BLESS").is_some() {
        std::fs::write(&path, lines.join("\n") + "\n").expect("write golden file");
        eprintln!("blessed {} digests into {}", lines.len(), path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let mismatches: Vec<String> = golden
        .iter()
        .zip(lines.iter())
        .filter(|(g, f)| *g != f)
        .map(|(g, f)| format!("golden `{g}` != fresh `{f}`"))
        .collect();
    assert_eq!(golden.len(), lines.len(), "stream matrix size changed");
    assert!(
        mismatches.is_empty(),
        "solver answers drifted from the goldens:\n{}",
        mismatches.join("\n")
    );
}
