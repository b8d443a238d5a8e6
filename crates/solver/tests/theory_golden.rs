//! Theory golden: exact answers of the linear-arithmetic layers on seeded
//! random instances, pinned by digests in `tests/golden/theory.txt`.
//!
//! Three streams, each drawn from a fixed-seed generator:
//!
//! - `simplex`: random `add_row` / `assert_bound` / `check` sequences.
//!   Every bound rejection, every `check` result (the full assignment or
//!   the explanation) and the pivot counter after each `check` are
//!   rendered, so the pivot sequence itself is pinned, not only verdicts.
//! - `lia`: random integer constraint systems through `solve_int`, under
//!   the default configuration and under a tight box with a small node
//!   budget (which reaches `Unknown` and core-free `Unsat`). Models and
//!   cores are rendered.
//! - `smt`: random linear formulas with disjunctions through a fresh
//!   `SmtSolver::check` with small node budgets, models included.
//!
//! The cross-validation suites (`smt_brute`, `backend_prop`) check that
//! answers are *correct*; this one checks that they are *the same*, which
//! is the contract of any performance change to the theory layer.
//!
//! Regenerate with `HOTG_BLESS=1 cargo test -p hotg-solver --test theory_golden`.

use hotg_logic::{Atom, Formula, LinKey, Rat, Rel, Signature, Sort, Term, Var};
use hotg_prop::TestRng;
use hotg_solver::lia::{solve_int, ConKind, IntConstraint, LiaConfig};
use hotg_solver::simplex::{BoundKind, Simplex, SimplexResult};
use hotg_solver::{SmtConfig, SmtSolver};
use std::fmt::Write as _;

fn fnv64(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn simplex_stream() -> String {
    let mut rng = TestRng::seed_from_u64(0x51_3b1e);
    let mut out = String::new();
    for case in 0..400 {
        let mut s = Simplex::new();
        for _ in 0..(3 + rng.below(4)) {
            s.new_var();
        }
        // Rows may mention earlier slacks, which `add_row` substitutes.
        for _ in 0..(2 + rng.below(4)) {
            let len = 2 + rng.below(3) as usize;
            let terms: Vec<(usize, Rat)> = (0..len)
                .map(|_| {
                    let v = rng.below(s.var_count() as u64) as usize;
                    (v, Rat::new(rng.in_span(-5, 5), rng.in_span(1, 3)))
                })
                .collect();
            let slack = s.add_row(&terms);
            let _ = writeln!(out, "{case} row {slack}");
        }
        for tag in 0..(6 + rng.below(12) as u32) {
            if rng.below(4) == 0 {
                let r = s.check();
                let _ = writeln!(out, "{case} check {r:?} pivots={}", s.pivots());
                if matches!(r, SimplexResult::Unsat(_)) {
                    break;
                }
                continue;
            }
            let v = rng.below(s.var_count() as u64) as usize;
            let kind = if rng.below(2) == 0 {
                BoundKind::Lower
            } else {
                BoundKind::Upper
            };
            let c = Rat::new(rng.in_span(-12, 12), rng.in_span(1, 2));
            let t = (rng.below(5) != 0).then_some(tag);
            if let Err(e) = s.assert_bound(v, kind, c, t) {
                let _ = writeln!(out, "{case} reject {e:?}");
                break;
            }
        }
        let _ = writeln!(out, "{case} final {:?} pivots={}", s.check(), s.pivots());
    }
    out
}

fn random_constraint(rng: &mut TestRng, keys: &[LinKey]) -> IntConstraint {
    let mut coeffs: Vec<(LinKey, i128)> = Vec::new();
    for k in keys {
        if rng.below(3) != 0 {
            let c = rng.in_span(-6, 6);
            if c != 0 {
                coeffs.push((k.clone(), c));
            }
        }
    }
    IntConstraint {
        coeffs,
        constant: rng.in_span(-40, 40),
        kind: if rng.below(4) == 0 {
            ConKind::Eq
        } else {
            ConKind::Le
        },
    }
}

fn lia_stream() -> String {
    let mut rng = TestRng::seed_from_u64(0x11a);
    let mut sig = Signature::new();
    let keys: Vec<LinKey> = (0..5)
        .map(|i| LinKey::Var(sig.declare_var(format!("k{i}"), Sort::Int)))
        .collect();
    let tight = LiaConfig {
        var_min: -20,
        var_max: 20,
        node_budget: 12,
        ..LiaConfig::default()
    };
    let roomy = LiaConfig {
        node_budget: 400,
        ..LiaConfig::default()
    };
    let mut out = String::new();
    for case in 0..300 {
        let width = 2 + rng.below(4) as usize;
        let count = 1 + rng.below(6) as usize;
        let cons: Vec<IntConstraint> = (0..count)
            .map(|_| random_constraint(&mut rng, &keys[..width]))
            .collect();
        let _ = writeln!(out, "{case} roomy {:?}", solve_int(&cons, &roomy));
        let _ = writeln!(out, "{case} tight {:?}", solve_int(&cons, &tight));
    }
    out
}

fn random_term(rng: &mut TestRng) -> Term {
    let mut t = Term::int(rng.in_span(-9, 9) as i64);
    for v in 0..3 {
        let c = rng.in_span(-4, 4) as i64;
        if c != 0 {
            t = t + Term::var(Var(v)) * Term::int(c);
        }
    }
    t
}

fn random_atom(rng: &mut TestRng) -> Formula {
    let rel = [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][rng.below(6) as usize];
    Formula::atom(Atom::new(random_term(rng), rel, random_term(rng)))
}

fn smt_stream() -> String {
    let mut rng = TestRng::seed_from_u64(0x5e7);
    // Small node budgets: some of these formulas send branch-and-bound
    // down an unbounded descent, which must end in `Unknown` quickly.
    let config = SmtConfig {
        lia: LiaConfig {
            node_budget: 300,
            ..LiaConfig::default()
        },
        total_node_budget: 600,
        ..SmtConfig::new()
    };
    let mut out = String::new();
    for case in 0..200 {
        let mut f = random_atom(&mut rng);
        for _ in 0..(1 + rng.below(4)) {
            let g = random_atom(&mut rng);
            f = if rng.below(3) == 0 { f.or(g) } else { f.and(g) };
        }
        let _ = writeln!(out, "{case} {:?}", SmtSolver::with_config(config).check(&f));
    }
    out
}

#[test]
fn theory_answers_match_golden_digests() {
    let streams = [
        ("simplex", simplex_stream()),
        ("lia", lia_stream()),
        ("smt", smt_stream()),
    ];
    let lines: Vec<String> = streams
        .iter()
        .map(|(name, s)| format!("{name} lines={} {:016x}", s.lines().count(), fnv64(s)))
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("theory.txt");
    if std::env::var_os("HOTG_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, lines.join("\n") + "\n").expect("write golden file");
        eprintln!("blessed {} digests into {}", lines.len(), path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden, lines, "theory answers drifted from the goldens");
}
