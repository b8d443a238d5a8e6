//! Linear integer arithmetic: branch-and-bound on top of the rational
//! [`crate::simplex::Simplex`] core, with a GCD pre-test for
//! integer-infeasible equalities and provenance-based unsat cores.
//!
//! Every solver variable is integer-sorted (program inputs and
//! uninterpreted-application results are integers), so the LIA layer is
//! the only theory backend. To guarantee termination of branch-and-bound,
//! all variables carry artificial global bounds (configurable, default
//! ±2³²) — test inputs outside that window are never needed for the
//! workloads in this workspace; a search that exceeds its node budget
//! reports [`LiaResult::Unknown`] rather than guessing.
//!
//! On infeasibility the solver returns a *core*: indices of a subset of
//! the input constraints that is itself infeasible. A core is produced
//! whenever the simplex explanation involves only tagged constraint
//! bounds (no artificial global bounds, no branch splits); otherwise
//! `core` is `None` and callers fall back to weaker conflict clauses.

use crate::deadline::Deadline;
use crate::simplex::{BoundKind, Simplex, SimplexResult};
use hotg_logic::{LinKey, Rat};
use std::collections::BTreeMap;

/// Relation kind of a normalized integer constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConKind {
    /// `expr = 0`.
    Eq,
    /// `expr ≤ 0`.
    Le,
}

/// A normalized integer linear constraint `Σ coeffᵢ·keyᵢ + constant ⋈ 0`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntConstraint {
    /// Sorted, deduplicated `(key, coefficient)` pairs with nonzero coeffs.
    pub coeffs: Vec<(LinKey, i128)>,
    /// Constant offset.
    pub constant: i128,
    /// Relation against zero.
    pub kind: ConKind,
}

impl IntConstraint {
    /// Evaluates the constraint under an assignment; `None` if a key is
    /// missing.
    pub fn eval(&self, assign: &BTreeMap<LinKey, i64>) -> Option<bool> {
        let mut total = self.constant;
        for (k, c) in &self.coeffs {
            let v = *assign.get(k)? as i128;
            total = total.checked_add(c.checked_mul(v)?)?;
        }
        Some(match self.kind {
            ConKind::Eq => total == 0,
            ConKind::Le => total <= 0,
        })
    }
}

/// Outcome of an integer feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiaResult {
    /// Feasible, with an integer value per key.
    Sat(BTreeMap<LinKey, i64>),
    /// Infeasible. `core` lists the indices of an infeasible subset of
    /// the input constraints when one could be derived soundly.
    Unsat {
        /// Sound infeasible subset, if available.
        core: Option<Vec<usize>>,
    },
    /// Budget exhausted before a definitive answer.
    Unknown,
}

impl LiaResult {
    /// `true` for any `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, LiaResult::Unsat { .. })
    }
}

/// Configuration for the LIA solver.
#[derive(Clone, Copy, Debug)]
pub struct LiaConfig {
    /// Artificial lower bound applied to every variable.
    pub var_min: i64,
    /// Artificial upper bound applied to every variable.
    pub var_max: i64,
    /// Maximum number of branch-and-bound nodes explored.
    pub node_budget: u64,
    /// Prefer small-magnitude solutions: on success, retry inside
    /// progressively larger boxes (±2⁴, ±2⁸, ±2¹⁶) and return the first
    /// feasible small model. Generated test inputs stay human-sized.
    pub prefer_small: bool,
    /// Cooperative wall-clock cutoff, polled between branch-and-bound
    /// nodes. Once expired, the search concedes [`LiaResult::Unknown`]
    /// exactly as if the node budget had run dry.
    pub deadline: Deadline,
}

impl Default for LiaConfig {
    fn default() -> LiaConfig {
        LiaConfig {
            var_min: -(1 << 32),
            var_max: 1 << 32,
            node_budget: 20_000,
            prefer_small: true,
            deadline: Deadline::NONE,
        }
    }
}

fn gcd128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn core_from_explanation(expl: &[Option<u32>]) -> Option<Vec<usize>> {
    expl.iter()
        .map(|t| t.map(|x| x as usize))
        .collect::<Option<Vec<usize>>>()
        .map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
}

/// Decides integer feasibility of a conjunction of constraints.
///
/// # Examples
///
/// ```
/// use hotg_logic::{LinKey, Signature, Sort};
/// use hotg_solver::lia::{solve_int, ConKind, IntConstraint, LiaConfig, LiaResult};
///
/// let mut sig = Signature::new();
/// let x = LinKey::Var(sig.declare_var("x", Sort::Int));
/// // 2x = 1 has no integer solution.
/// let c = IntConstraint {
///     coeffs: vec![(x, 2)],
///     constant: -1,
///     kind: ConKind::Eq,
/// };
/// assert!(solve_int(&[c], &LiaConfig::default()).is_unsat());
/// ```
pub fn solve_int(constraints: &[IntConstraint], config: &LiaConfig) -> LiaResult {
    let mut budget = config.node_budget;
    solve_int_budgeted(constraints, config, &mut budget)
}

/// Like [`solve_int`], but drawing branch-and-bound nodes from an external
/// pool instead of a per-call allowance. Callers that issue many theory
/// checks in a refinement loop (the SMT solver) use one shared pool so a
/// single hard query cannot multiply its cost by the number of rounds.
pub fn solve_int_budgeted(
    constraints: &[IntConstraint],
    config: &LiaConfig,
    budget: &mut u64,
) -> LiaResult {
    // GCD pre-test: Σ aᵢxᵢ = -c is integer-infeasible when gcd(aᵢ) ∤ c.
    for (i, con) in constraints.iter().enumerate() {
        if con.kind == ConKind::Eq && !con.coeffs.is_empty() {
            let g = con.coeffs.iter().fold(0i128, |acc, (_, c)| gcd128(acc, *c));
            if g > 1 && con.constant % g != 0 {
                return LiaResult::Unsat {
                    core: Some(vec![i]),
                };
            }
        }
        if con.coeffs.is_empty() {
            let ok = match con.kind {
                ConKind::Eq => con.constant == 0,
                ConKind::Le => con.constant <= 0,
            };
            if !ok {
                return LiaResult::Unsat {
                    core: Some(vec![i]),
                };
            }
        }
    }

    // Key universe: every key of every constraint, sorted and unique
    // (sorted by reference, so only the unique keys are cloned).
    let mut refs: Vec<&LinKey> = constraints
        .iter()
        .flat_map(|con| con.coeffs.iter().map(|(k, _)| k))
        .collect();
    refs.sort();
    refs.dedup();
    let keys: Vec<LinKey> = refs.into_iter().cloned().collect();

    let full = branch(constraints, &keys, config, budget);
    if config.prefer_small {
        if let LiaResult::Sat(ref fallback) = full {
            // The problem is feasible; look for a small-magnitude model
            // inside progressively larger boxes (a solution of a boxed
            // problem solves the full problem too). Keep the full-range
            // model if every box misses.
            for p in [4u32, 8, 16] {
                let bound = 1i64 << p;
                if -bound < config.var_min || bound > config.var_max {
                    continue;
                }
                if fallback.values().all(|v| v.abs() <= bound) {
                    break; // already small enough
                }
                let boxed = LiaConfig {
                    var_min: -bound,
                    var_max: bound,
                    prefer_small: false,
                    ..*config
                };
                if let LiaResult::Sat(m) = branch(constraints, &keys, &boxed, budget) {
                    return LiaResult::Sat(m);
                }
            }
        }
    }
    full
}

/// A branch-and-bound node: the integer box `(lower, upper)` per key, the
/// artificial global bounds tightened by every split on the path to it.
type NodeBox = Vec<(i128, i128)>;

/// Branch-and-bound over the rational relaxation, depth-first with an
/// explicit worklist: recursion depth is bounded by the node budget
/// (20k by default), which overflows the thread stack on hard
/// instances, so the search must not use the call stack.
///
/// The tableau (variables, artificial bounds, rows and constraint bounds)
/// is built once; every node starts from an exact copy of it and asserts
/// only its box. A node is its box rather than the list of splits on its
/// path, so the worklist stays linear in the search depth.
fn branch(
    constraints: &[IntConstraint],
    keys: &[LinKey],
    config: &LiaConfig,
    budget: &mut u64,
) -> LiaResult {
    let base = base_tableau(constraints, keys, config);
    let root: NodeBox = vec![(config.var_min.into(), config.var_max.into()); keys.len()];
    let mut work: Vec<NodeBox> = vec![root];
    let mut scratch = Simplex::new();
    while let Some(node) = work.pop() {
        if !take_node(config, budget) {
            return LiaResult::Unknown;
        }
        // A base that is infeasible (or broken) decides the first node.
        let base = match &base {
            Ok(base) => base,
            Err(result) => return result.clone(),
        };
        scratch.clone_from(base);
        match branch_node(&mut scratch, keys, config, &node) {
            NodeOutcome::Done(result) => return result,
            NodeOutcome::Infeasible => {}
            NodeOutcome::Split { index, floor } => {
                // Left branch (key ≤ floor) explored first: push right, then
                // left, so the stack pops left first.
                let mut left = node.clone();
                left[index].1 = floor;
                let mut right = node;
                right[index].0 = floor + 1;
                work.push(right);
                work.push(left);
            }
        }
    }
    // Every leaf was an integrality conflict: infeasible, but no sound
    // core can be named at this level (the conflicts involved branch
    // bounds).
    LiaResult::Unsat { core: None }
}

/// Draws one node from the budget, polling the wall-clock cutoff: a node
/// costs a full simplex solve, so the `Instant::now()` read (skipped
/// entirely when no deadline is set) is noise. `false` once the search
/// must concede `Unknown`.
fn take_node(config: &LiaConfig, budget: &mut u64) -> bool {
    if *budget == 0 {
        return false;
    }
    if config.deadline.expired() {
        *budget = 0;
        return false;
    }
    *budget -= 1;
    true
}

/// The tableau every node of one search starts from: key `i` is simplex
/// variable `i` inside the artificial global bounds, and every constraint
/// is a slack row with its tagged bounds. `Err` carries the whole
/// search's result when the tableau is infeasible before any split.
fn base_tableau(
    constraints: &[IntConstraint],
    keys: &[LinKey],
    config: &LiaConfig,
) -> Result<Simplex, LiaResult> {
    let mut s = Simplex::new();
    for _ in keys {
        let v = s.new_var();
        if s.assert_bound(v, BoundKind::Lower, Rat::from(config.var_min), None)
            .is_err()
            || s.assert_bound(v, BoundKind::Upper, Rat::from(config.var_max), None)
                .is_err()
        {
            return Err(LiaResult::Unsat { core: None });
        }
    }
    for (ci, con) in constraints.iter().enumerate() {
        if con.coeffs.is_empty() {
            continue; // validated in solve_int
        }
        let tag = Some(ci as u32);
        let mut terms: Vec<(usize, Rat)> = Vec::with_capacity(con.coeffs.len());
        for (k, c) in &con.coeffs {
            // `keys` is the universe collected from these same constraints,
            // so a miss is an internal invariant break — degrade to Unknown
            // (routed into the engine's degradation ladder) rather than
            // panicking a campaign worker.
            let Ok(i) = keys.binary_search(k) else {
                debug_assert!(false, "constraint key missing from universe");
                return Err(LiaResult::Unknown);
            };
            terms.push((i, Rat::from(*c)));
        }
        let slack = s.add_row(&terms);
        let target = Rat::from(-con.constant);
        let result = match con.kind {
            ConKind::Eq => s
                .assert_bound(slack, BoundKind::Lower, target, tag)
                .and_then(|()| s.assert_bound(slack, BoundKind::Upper, target, tag)),
            ConKind::Le => s.assert_bound(slack, BoundKind::Upper, target, tag),
        };
        if let Err(expl) = result {
            return Err(LiaResult::Unsat {
                core: core_from_explanation(&expl),
            });
        }
    }
    Ok(s)
}

/// Outcome of evaluating a single branch-and-bound node.
enum NodeOutcome {
    /// The whole search is decided: Sat, Unknown, or Unsat with a core
    /// independent of the branch bounds (hence sound globally).
    Done(LiaResult),
    /// This node is infeasible only together with its branch bounds;
    /// sibling nodes must still be explored.
    Infeasible,
    /// Relaxation is feasible but `keys[index]` took a fractional value
    /// with the given floor: split into two child nodes.
    Split { index: usize, floor: i128 },
}

/// Solves one node: `s` holds an exact copy of the search's base tableau,
/// into which the node's box is asserted.
///
/// Asserting the box per key gives exactly the tableau that asserting
/// each split on the path in order would: every split strictly tightens
/// its key's interval, and a nonbasic variable clamped into nested
/// intervals ends at the same value whichever way it gets there.
fn branch_node(
    s: &mut Simplex,
    keys: &[LinKey],
    config: &LiaConfig,
    node: &NodeBox,
) -> NodeOutcome {
    for (i, &(lo, hi)) in node.iter().enumerate() {
        let result = if lo > i128::from(config.var_min) {
            s.assert_bound(i, BoundKind::Lower, Rat::from(lo), None)
        } else {
            Ok(())
        };
        let result = result.and_then(|()| {
            if hi < i128::from(config.var_max) {
                s.assert_bound(i, BoundKind::Upper, Rat::from(hi), None)
            } else {
                Ok(())
            }
        });
        if let Err(expl) = result {
            return unsat_node(&expl);
        }
    }

    match s.check() {
        SimplexResult::Unsat(expl) => unsat_node(&expl),
        SimplexResult::Sat(values) => {
            // Find a fractional key.
            let fractional = values[..keys.len()].iter().position(|v| !v.is_integer());
            match fractional {
                None => {
                    let mut out = BTreeMap::new();
                    for (k, v) in keys.iter().zip(&values) {
                        // Integral but outside i64 (exact rationals are
                        // i128-backed): the model is unrepresentable in the
                        // engine's i64 input domain, so report Unknown
                        // instead of panicking mid-campaign.
                        let Some(as_int) = v.to_i64() else {
                            return NodeOutcome::Done(LiaResult::Unknown);
                        };
                        out.insert(k.clone(), as_int);
                    }
                    NodeOutcome::Done(LiaResult::Sat(out))
                }
                Some(i) => NodeOutcome::Split {
                    index: i,
                    floor: values[i].floor(),
                },
            }
        }
    }
}

/// Maps a simplex infeasibility explanation to a node outcome: a core
/// naming only original constraints is sound independently of the branch
/// bounds (the whole problem is infeasible); otherwise only this node is
/// dead and its siblings must still be explored.
fn unsat_node(expl: &[Option<u32>]) -> NodeOutcome {
    match core_from_explanation(expl) {
        Some(core) => NodeOutcome::Done(LiaResult::Unsat { core: Some(core) }),
        None => NodeOutcome::Infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::{Signature, Sort, Var};

    fn keys3() -> (LinKey, LinKey, LinKey) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let z = sig.declare_var("z", Sort::Int);
        (LinKey::Var(x), LinKey::Var(y), LinKey::Var(z))
    }

    fn eq(coeffs: Vec<(LinKey, i128)>, constant: i128) -> IntConstraint {
        IntConstraint {
            coeffs,
            constant,
            kind: ConKind::Eq,
        }
    }

    fn le(coeffs: Vec<(LinKey, i128)>, constant: i128) -> IntConstraint {
        IntConstraint {
            coeffs,
            constant,
            kind: ConKind::Le,
        }
    }

    fn cfg() -> LiaConfig {
        LiaConfig::default()
    }

    #[test]
    fn empty_is_sat() {
        assert!(matches!(solve_int(&[], &cfg()), LiaResult::Sat(_)));
    }

    #[test]
    fn trivially_false_constant_with_core() {
        // 0·x + 1 = 0
        assert_eq!(
            solve_int(&[eq(vec![], 1)], &cfg()),
            LiaResult::Unsat {
                core: Some(vec![0])
            }
        );
        assert!(solve_int(&[le(vec![], 1)], &cfg()).is_unsat());
        assert!(matches!(
            solve_int(&[le(vec![], 0)], &cfg()),
            LiaResult::Sat(_)
        ));
    }

    #[test]
    fn single_equality() {
        let (x, _, _) = keys3();
        // x - 42 = 0
        let r = solve_int(&[eq(vec![(x.clone(), 1)], -42)], &cfg());
        match r {
            LiaResult::Sat(m) => assert_eq!(m[&x], 42),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn gcd_infeasible_core() {
        let (x, y, _) = keys3();
        // 3x - 3y = 1
        let r = solve_int(&[eq(vec![(x, 3), (y, -3)], -1)], &cfg());
        assert_eq!(
            r,
            LiaResult::Unsat {
                core: Some(vec![0])
            }
        );
    }

    #[test]
    fn conflict_core_is_small() {
        let (x, y, z) = keys3();
        // x = 1, x = 2 conflict; z constraint is irrelevant.
        let cons = [
            eq(vec![(z.clone(), 1)], -7),
            eq(vec![(x.clone(), 1)], -1),
            eq(vec![(x.clone(), 1)], -2),
            le(vec![(y.clone(), 1)], 0),
        ];
        match solve_int(&cons, &cfg()) {
            LiaResult::Unsat { core: Some(core) } => {
                assert!(core.contains(&1) && core.contains(&2), "{core:?}");
                assert!(!core.contains(&0), "irrelevant z in core: {core:?}");
            }
            other => panic!("expected UNSAT with core, got {other:?}"),
        }
    }

    #[test]
    fn branch_and_bound_needed() {
        let (x, y, _) = keys3();
        // 2x + 2y = 6 ∧ x ≤ y - 1  →  x + y = 3, x < y: x=1, y=2.
        let cons = [
            eq(vec![(x.clone(), 2), (y.clone(), 2)], -6),
            le(vec![(x.clone(), 1), (y.clone(), -1)], 1),
        ];
        match solve_int(&cons, &cfg()) {
            LiaResult::Sat(m) => {
                assert_eq!(m[&x] + m[&y], 3);
                assert!(m[&x] < m[&y]);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn integer_infeasible_interval() {
        let (x, _, _) = keys3();
        // 1 ≤ 2x ≤ 1  →  2x = 1: rationally feasible, integrally not.
        let cons = [
            le(vec![(x.clone(), -2)], 1), // -2x + 1 ≤ 0  ⇒ 2x ≥ 1
            le(vec![(x.clone(), 2)], -1), // 2x - 1 ≤ 0  ⇒ 2x ≤ 1
        ];
        assert!(solve_int(&cons, &cfg()).is_unsat());
    }

    #[test]
    fn three_var_system() {
        let (x, y, z) = keys3();
        // x + y + z = 10, x - y = 4, z ≤ 2.
        let cons = [
            eq(vec![(x.clone(), 1), (y.clone(), 1), (z.clone(), 1)], -10),
            eq(vec![(x.clone(), 1), (y.clone(), -1)], -4),
            le(vec![(z.clone(), 1)], -2),
        ];
        match solve_int(&cons, &cfg()) {
            LiaResult::Sat(m) => {
                assert_eq!(m[&x] + m[&y] + m[&z], 10);
                assert_eq!(m[&x] - m[&y], 4);
                assert!(m[&z] <= 2);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn respects_global_bounds() {
        let (x, _, _) = keys3();
        let config = LiaConfig {
            var_min: -5,
            var_max: 5,
            node_budget: 100,
            prefer_small: false,
            ..LiaConfig::default()
        };
        // x ≥ 6 within ±5 bounds: UNSAT but the artificial bound is part
        // of the conflict, so no sound core is claimed.
        let r = solve_int(&[le(vec![(x, -1)], 6)], &config);
        assert_eq!(r, LiaResult::Unsat { core: None });
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let (x, y, _) = keys3();
        let config = LiaConfig {
            var_min: -(1 << 20),
            var_max: 1 << 20,
            node_budget: 1,
            prefer_small: false,
            ..LiaConfig::default()
        };
        let cons = [
            eq(vec![(x.clone(), 2), (y.clone(), 2)], -6),
            le(vec![(x, 1), (y, -1)], 1),
        ];
        let r = solve_int(&cons, &config);
        assert!(matches!(r, LiaResult::Unknown | LiaResult::Sat(_)));
    }

    #[test]
    fn expired_deadline_reports_unknown() {
        let (x, y, _) = keys3();
        let config = LiaConfig {
            deadline: Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            prefer_small: false,
            ..LiaConfig::default()
        };
        // Needs branch-and-bound, so the deadline poll is reached.
        let cons = [
            eq(vec![(x.clone(), 2), (y.clone(), 2)], -6),
            le(vec![(x, 1), (y, -1)], 1),
        ];
        assert_eq!(solve_int(&cons, &config), LiaResult::Unknown);
    }

    #[test]
    fn eval_roundtrip() {
        let (x, y, _) = keys3();
        let con = eq(vec![(x.clone(), 1), (y.clone(), -1)], -4);
        let mut m = BTreeMap::new();
        m.insert(x.clone(), 7i64);
        m.insert(y.clone(), 3i64);
        assert_eq!(con.eval(&m), Some(true));
        m.insert(y, 4);
        assert_eq!(con.eval(&m), Some(false));
        let empty: BTreeMap<LinKey, i64> = BTreeMap::new();
        assert_eq!(con.eval(&empty), None);
        let _ = Var(0);
    }

    #[test]
    fn prefer_small_models() {
        let (x, y, _) = keys3();
        // x ≥ 3 ∧ x + y = 100: plenty of room; the model should stay
        // within the smallest feasible box (±16 here, not ±2³²).
        let cons = [
            le(vec![(x.clone(), -1)], 3),
            eq(vec![(x.clone(), 1), (y.clone(), 1)], -100),
        ];
        match solve_int(&cons, &cfg()) {
            LiaResult::Sat(m) => {
                assert!(m[&x] >= 3);
                assert_eq!(m[&x] + m[&y], 100);
                // 100 forces |y| up to ~100, within the ±2⁸ box.
                assert!(m[&x].abs() <= 256, "{m:?}");
                assert!(m[&y].abs() <= 256, "{m:?}");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn prefer_small_does_not_flip_verdicts() {
        let (x, _, _) = keys3();
        // Feasible only outside every preference box.
        let r = solve_int(&[le(vec![(x.clone(), -1)], 1_000_000)], &cfg());
        match r {
            LiaResult::Sat(m) => assert!(m[&x] >= 1_000_000),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn negative_solutions_found() {
        let (x, _, _) = keys3();
        // x ≤ -10.
        match solve_int(&[le(vec![(x.clone(), 1)], 10)], &cfg()) {
            LiaResult::Sat(m) => assert!(m[&x] <= -10),
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}
