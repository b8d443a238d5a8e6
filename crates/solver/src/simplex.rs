//! A general simplex solver for conjunctions of non-strict linear bounds,
//! following the DPLL(T) simplex architecture of Dutertre and de Moura.
//!
//! All constraints reaching this module are integer-normalized upstream
//! (strict inequalities over integers are tightened to non-strict ones),
//! so plain rationals suffice — no delta-rationals are needed.
//!
//! Bounds carry optional provenance *tags*; on infeasibility the solver
//! returns the tags of the bounds participating in the conflict (the
//! standard row explanation), which the SMT layer turns into strong
//! blocking clauses.

use hotg_logic::Rat;

/// A bound assertion on one simplex variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundKind {
    /// `x ≥ c`.
    Lower,
    /// `x ≤ c`.
    Upper,
}

/// Explanation of an infeasibility: provenance tags of the participating
/// bounds. `None` appears when an untagged bound (e.g. an artificial
/// global bound or a branch-and-bound split) participated — such
/// explanations are not usable as theory cores.
pub type Explanation = Vec<Option<u32>>;

/// Outcome of a simplex feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexResult {
    /// Feasible, with a value per variable.
    Sat(Vec<Rat>),
    /// Infeasible, with the conflicting bounds' provenance tags.
    Unsat(Explanation),
}

#[derive(Clone, Debug)]
struct VarState {
    lower: Option<(Rat, Option<u32>)>,
    upper: Option<(Rat, Option<u32>)>,
    value: Rat,
    /// Index into `rows` when basic.
    row: Option<usize>,
}

#[derive(Debug)]
struct Row {
    /// The basic variable this row defines.
    basic: usize,
    /// `basic = Σ coeff · nonbasic` (only nonbasic vars appear), sorted by
    /// variable index with no duplicates and no zero coefficients.
    terms: Vec<(usize, Rat)>,
}

impl Clone for Row {
    fn clone(&self) -> Row {
        Row {
            basic: self.basic,
            terms: self.terms.clone(),
        }
    }

    fn clone_from(&mut self, source: &Row) {
        self.basic = source.basic;
        self.terms.clone_from(&source.terms);
    }
}

impl Row {
    /// The coefficient of `var` in this row, if it appears.
    fn coeff(&self, var: usize) -> Option<Rat> {
        self.terms
            .binary_search_by_key(&var, |&(w, _)| w)
            .ok()
            .map(|i| self.terms[i].1)
    }
}

/// The row invariant: sorted by variable index, no duplicates, no zeros.
fn canonical(terms: &[(usize, Rat)]) -> bool {
    terms.windows(2).all(|p| p[0].0 < p[1].0) && terms.iter().all(|(_, c)| !c.is_zero())
}

/// `row + c · sub` for two canonical rows, dropping cancelled terms: a
/// linear merge by variable index.
fn add_scaled(row: &[(usize, Rat)], c: Rat, sub: &[(usize, Rat)]) -> Vec<(usize, Rat)> {
    let mut out = Vec::with_capacity(row.len() + sub.len());
    let (mut i, mut j) = (0, 0);
    while i < row.len() || j < sub.len() {
        let next = match (row.get(i), sub.get(j)) {
            (Some(&(w, a)), Some(&(v, b))) if w == v => {
                i += 1;
                j += 1;
                (w, a + c * b)
            }
            (Some(&(w, a)), Some(&(v, _))) if w < v => {
                i += 1;
                (w, a)
            }
            (Some(&(w, a)), None) => {
                i += 1;
                (w, a)
            }
            (_, Some(&(v, b))) => {
                j += 1;
                (v, c * b)
            }
            (None, None) => unreachable!("loop condition"),
        };
        if !next.1.is_zero() {
            out.push(next);
        }
    }
    out
}

/// A simplex tableau over rationals.
///
/// Usage: allocate variables with [`Simplex::new_var`], define linear rows
/// with [`Simplex::add_row`] (introducing slack variables upstream), assert
/// bounds with [`Simplex::assert_bound`], then call [`Simplex::check`].
///
/// # Examples
///
/// ```
/// use hotg_logic::Rat;
/// use hotg_solver::simplex::{BoundKind, Simplex, SimplexResult};
///
/// let mut s = Simplex::new();
/// let x = s.new_var();
/// let y = s.new_var();
/// // slack = x + y
/// let slack = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
/// s.assert_bound(slack, BoundKind::Upper, Rat::from(2), Some(0)).unwrap();
/// s.assert_bound(x, BoundKind::Lower, Rat::from(1), Some(1)).unwrap();
/// s.assert_bound(y, BoundKind::Lower, Rat::from(1), Some(2)).unwrap();
/// assert!(matches!(s.check(), SimplexResult::Sat(_)));
/// ```
#[derive(Debug, Default)]
pub struct Simplex {
    vars: Vec<VarState>,
    rows: Vec<Row>,
    /// Number of pivots performed (for budget accounting).
    pivots: u64,
}

/// `clone_from` reuses the row allocations, so resetting a scratch
/// tableau to a base costs copies, not allocations.
impl Clone for Simplex {
    fn clone(&self) -> Simplex {
        Simplex {
            vars: self.vars.clone(),
            rows: self.rows.clone(),
            pivots: self.pivots,
        }
    }

    fn clone_from(&mut self, source: &Simplex) {
        self.vars.clone_from(&source.vars);
        self.rows.clone_from(&source.rows);
        self.pivots = source.pivots;
    }
}

impl Simplex {
    /// Creates an empty tableau.
    pub fn new() -> Simplex {
        Simplex::default()
    }

    /// Allocates a fresh variable (initially unbounded, value 0).
    pub fn new_var(&mut self) -> usize {
        self.vars.push(VarState {
            lower: None,
            upper: None,
            value: Rat::ZERO,
            row: None,
        });
        self.vars.len() - 1
    }

    /// Number of variables (including slacks).
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Pivot count so far (budget accounting for branch-and-bound).
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Introduces a slack variable `s = Σ coeff·var` and returns it.
    ///
    /// The referenced variables may themselves be basic; their rows are
    /// substituted so the new row only mentions nonbasic variables.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable is out of range.
    pub fn add_row(&mut self, terms: &[(usize, Rat)]) -> usize {
        let s = self.new_var();
        // Expand any basic variables through their rows, then sum the
        // summands of each variable (the stable sort keeps their order).
        let mut expanded: Vec<(usize, Rat)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v < self.vars.len(), "row references unknown variable");
            match self.vars[v].row {
                Some(r) => expanded.extend(self.rows[r].terms.iter().map(|&(w, cw)| (w, c * cw))),
                None => expanded.push((v, c)),
            }
        }
        expanded.sort_by_key(|&(w, _)| w);
        let mut row_terms: Vec<(usize, Rat)> = Vec::with_capacity(expanded.len());
        for (w, c) in expanded {
            match row_terms.last_mut() {
                Some((last, sum)) if *last == w => *sum += c,
                _ => row_terms.push((w, c)),
            }
        }
        row_terms.retain(|(_, c)| !c.is_zero());
        debug_assert!(canonical(&row_terms));
        // Value of the slack under current assignment.
        let value = row_terms.iter().map(|&(v, c)| self.vars[v].value * c).sum();
        self.vars[s].value = value;
        self.vars[s].row = Some(self.rows.len());
        self.rows.push(Row {
            basic: s,
            terms: row_terms,
        });
        s
    }

    /// Asserts `var ≥ c` or `var ≤ c` with a provenance tag.
    ///
    /// # Errors
    ///
    /// Returns the conflicting pair's explanation if the bound immediately
    /// contradicts the opposite bound.
    pub fn assert_bound(
        &mut self,
        var: usize,
        kind: BoundKind,
        c: Rat,
        tag: Option<u32>,
    ) -> Result<(), Explanation> {
        match kind {
            BoundKind::Lower => {
                if let Some((u, utag)) = self.vars[var].upper {
                    if c > u {
                        return Err(vec![tag, utag]);
                    }
                }
                let tighter = match self.vars[var].lower {
                    Some((l, _)) => c > l,
                    None => true,
                };
                if tighter {
                    self.vars[var].lower = Some((c, tag));
                    if self.vars[var].row.is_none() && self.vars[var].value < c {
                        self.update_nonbasic(var, c);
                    }
                }
            }
            BoundKind::Upper => {
                if let Some((l, ltag)) = self.vars[var].lower {
                    if c < l {
                        return Err(vec![tag, ltag]);
                    }
                }
                let tighter = match self.vars[var].upper {
                    Some((u, _)) => c < u,
                    None => true,
                };
                if tighter {
                    self.vars[var].upper = Some((c, tag));
                    if self.vars[var].row.is_none() && self.vars[var].value > c {
                        self.update_nonbasic(var, c);
                    }
                }
            }
        }
        Ok(())
    }

    /// Sets a nonbasic variable's value, updating dependent basic values.
    fn update_nonbasic(&mut self, var: usize, v: Rat) {
        let delta = v - self.vars[var].value;
        if delta.is_zero() {
            return;
        }
        for row in &self.rows {
            if let Some(c) = row.coeff(var) {
                let b = row.basic;
                self.vars[b].value += c * delta;
            }
        }
        self.vars[var].value = v;
    }

    fn violates_lower(&self, v: usize) -> bool {
        matches!(self.vars[v].lower, Some((l, _)) if self.vars[v].value < l)
    }

    fn violates_upper(&self, v: usize) -> bool {
        matches!(self.vars[v].upper, Some((u, _)) if self.vars[v].value > u)
    }

    fn can_increase(&self, v: usize) -> bool {
        match self.vars[v].upper {
            Some((u, _)) => self.vars[v].value < u,
            None => true,
        }
    }

    fn can_decrease(&self, v: usize) -> bool {
        match self.vars[v].lower {
            Some((l, _)) => self.vars[v].value > l,
            None => true,
        }
    }

    /// Pivots basic variable of row `r` with nonbasic `nj`, then sets the
    /// old basic variable's value to `target`.
    fn pivot_and_update(&mut self, r: usize, nj: usize, target: Rat) {
        self.pivots += 1;
        let bi = self.rows[r].basic;
        let a_ij = self.rows[r]
            .coeff(nj)
            // Invariant: `nj` was selected as the entering variable *from*
            // this row's terms, so its column is present by construction.
            .expect("pivot column must appear in row");

        // Value updates (Dutertre–de Moura `pivotAndUpdate`).
        let theta = (target - self.vars[bi].value) / a_ij;
        self.vars[bi].value = target;
        let new_nj = self.vars[nj].value + theta;
        self.vars[nj].value = new_nj;
        for (rr, row) in self.rows.iter().enumerate() {
            if rr == r {
                continue;
            }
            if let Some(c) = row.coeff(nj) {
                let b = row.basic;
                self.vars[b].value += c * theta;
            }
        }

        // Tableau pivot: express nj from row r:
        //   bi = Σ terms  ⇒  nj = (bi - Σ_{w≠nj} a_iw·w) / a_ij
        // `bi` is nonbasic from here on and appears in no row yet, so it
        // slots into the sorted row at its index.
        let inv = a_ij.recip();
        let old_terms = std::mem::take(&mut self.rows[r].terms);
        let mut nj_terms: Vec<(usize, Rat)> = Vec::with_capacity(old_terms.len());
        let mut bi_term = Some((bi, inv));
        for &(w, c) in &old_terms {
            if w > bi {
                nj_terms.extend(bi_term.take());
            }
            if w != nj {
                nj_terms.push((w, -(c * inv)));
            }
        }
        nj_terms.extend(bi_term);
        debug_assert!(canonical(&nj_terms));

        // Substitute nj in all other rows.
        for (rr, row) in self.rows.iter_mut().enumerate() {
            if rr == r {
                continue;
            }
            if let Ok(at) = row.terms.binary_search_by_key(&nj, |&(w, _)| w) {
                let c = row.terms.remove(at).1;
                row.terms = add_scaled(&row.terms, c, &nj_terms);
                debug_assert!(canonical(&row.terms));
            }
        }
        self.rows[r].basic = nj;
        self.rows[r].terms = nj_terms;
        self.vars[nj].row = Some(r);
        self.vars[bi].row = None;
    }

    /// Builds the conflict explanation for row `r` whose basic variable is
    /// stuck violating one of its bounds: the bound of the basic variable
    /// plus, for every row variable, the bound that blocks movement in the
    /// required direction.
    ///
    /// The `expect`s below are internal invariants, not input checks: the
    /// caller only reaches this after establishing that the basic variable
    /// violates the named bound and that every row variable is blocked in
    /// the needed direction — both of which require the respective bound to
    /// be present. No campaign input can falsify them.
    fn explain(&self, r: usize, below: bool) -> Explanation {
        let bi = self.rows[r].basic;
        let mut out = Vec::new();
        if below {
            out.push(self.vars[bi].lower.expect("violated lower").1);
            for &(w, c) in &self.rows[r].terms {
                if c.is_positive() {
                    out.push(self.vars[w].upper.expect("blocked above").1);
                } else {
                    out.push(self.vars[w].lower.expect("blocked below").1);
                }
            }
        } else {
            out.push(self.vars[bi].upper.expect("violated upper").1);
            for &(w, c) in &self.rows[r].terms {
                if c.is_positive() {
                    out.push(self.vars[w].lower.expect("blocked below").1);
                } else {
                    out.push(self.vars[w].upper.expect("blocked above").1);
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Runs the feasibility check. Uses Bland's rule (smallest variable
    /// index) for both the leaving and entering variable, which guarantees
    /// termination.
    pub fn check(&mut self) -> SimplexResult {
        loop {
            // Leaving variable: smallest-index basic var violating a bound.
            let mut leaving: Option<(usize, bool)> = None; // (row, below_lower)
            let mut best_var = usize::MAX;
            for (r, row) in self.rows.iter().enumerate() {
                let b = row.basic;
                if b < best_var {
                    if self.violates_lower(b) {
                        leaving = Some((r, true));
                        best_var = b;
                    } else if self.violates_upper(b) {
                        leaving = Some((r, false));
                        best_var = b;
                    }
                }
            }
            let Some((r, below)) = leaving else {
                let values = self.vars.iter().map(|v| v.value).collect();
                return SimplexResult::Sat(values);
            };
            let bi = self.rows[r].basic;
            // Invariant, not an input check: `violates_lower`/`violates_upper`
            // just returned true for this bound, which requires it to exist.
            let target = if below {
                self.vars[bi].lower.expect("violated lower bound exists").0
            } else {
                self.vars[bi].upper.expect("violated upper bound exists").0
            };
            // Entering variable: smallest-index nonbasic var that can move
            // the basic variable in the needed direction — the first
            // qualifying term, as rows are sorted.
            let mut entering: Option<usize> = None;
            for &(w, c) in &self.rows[r].terms {
                let ok = if below {
                    // need to increase bi
                    (c.is_positive() && self.can_increase(w))
                        || (c.is_negative() && self.can_decrease(w))
                } else {
                    // need to decrease bi
                    (c.is_positive() && self.can_decrease(w))
                        || (c.is_negative() && self.can_increase(w))
                };
                if ok {
                    entering = Some(w);
                    break;
                }
            }
            match entering {
                Some(nj) => self.pivot_and_update(r, nj, target),
                None => return SimplexResult::Unsat(self.explain(r, below)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(n: i64) -> Rat {
        Rat::from(n)
    }

    fn ok(r: Result<(), Explanation>) {
        r.expect("bound accepted");
    }

    #[test]
    fn unconstrained_is_sat() {
        let mut s = Simplex::new();
        s.new_var();
        assert!(matches!(s.check(), SimplexResult::Sat(_)));
    }

    #[test]
    fn simple_bounds_sat() {
        let mut s = Simplex::new();
        let x = s.new_var();
        ok(s.assert_bound(x, BoundKind::Lower, rat(3), Some(0)));
        ok(s.assert_bound(x, BoundKind::Upper, rat(5), Some(1)));
        match s.check() {
            SimplexResult::Sat(v) => assert!(v[x] >= rat(3) && v[x] <= rat(5)),
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn conflicting_direct_bounds_explained() {
        let mut s = Simplex::new();
        let x = s.new_var();
        ok(s.assert_bound(x, BoundKind::Lower, rat(5), Some(7)));
        let e = s
            .assert_bound(x, BoundKind::Upper, rat(3), Some(9))
            .unwrap_err();
        assert!(e.contains(&Some(7)) && e.contains(&Some(9)));
    }

    #[test]
    fn row_constraint_sat() {
        // x + y ≤ 2, x ≥ 1, y ≥ 1  →  x = y = 1
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Upper, rat(2), Some(0)));
        ok(s.assert_bound(x, BoundKind::Lower, rat(1), Some(1)));
        ok(s.assert_bound(y, BoundKind::Lower, rat(1), Some(2)));
        match s.check() {
            SimplexResult::Sat(v) => {
                assert_eq!(v[x], rat(1));
                assert_eq!(v[y], rat(1));
                assert_eq!(v[sl], rat(2));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn row_constraint_unsat_with_core() {
        // x + y ≤ 1, x ≥ 1, y ≥ 1
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Upper, rat(1), Some(10)));
        ok(s.assert_bound(x, BoundKind::Lower, rat(1), Some(11)));
        ok(s.assert_bound(y, BoundKind::Lower, rat(1), Some(12)));
        match s.check() {
            SimplexResult::Unsat(e) => {
                assert!(e.contains(&Some(10)));
                assert!(e.contains(&Some(11)) || e.contains(&Some(12)));
                assert!(!e.contains(&None));
            }
            SimplexResult::Sat(_) => panic!("expected UNSAT"),
        }
    }

    #[test]
    fn explanation_excludes_unrelated_bounds() {
        // Unrelated variable z with its own bounds must not appear in the
        // explanation of an x/y conflict.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        ok(s.assert_bound(z, BoundKind::Lower, rat(0), Some(99)));
        ok(s.assert_bound(z, BoundKind::Upper, rat(10), Some(98)));
        let sl = s.add_row(&[(x, Rat::ONE), (y, -Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Lower, rat(5), Some(1)));
        ok(s.assert_bound(x, BoundKind::Upper, rat(0), Some(2)));
        ok(s.assert_bound(y, BoundKind::Lower, rat(0), Some(3)));
        match s.check() {
            SimplexResult::Unsat(e) => {
                assert!(!e.contains(&Some(99)) && !e.contains(&Some(98)), "{e:?}");
            }
            SimplexResult::Sat(_) => panic!("expected UNSAT"),
        }
    }

    #[test]
    fn equality_via_two_bounds() {
        // x - y = 3, x ≤ 10, y ≥ 4
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, -Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Lower, rat(3), None));
        ok(s.assert_bound(sl, BoundKind::Upper, rat(3), None));
        ok(s.assert_bound(x, BoundKind::Upper, rat(10), None));
        ok(s.assert_bound(y, BoundKind::Lower, rat(4), None));
        match s.check() {
            SimplexResult::Sat(v) => {
                assert_eq!(v[x] - v[y], rat(3));
                assert!(v[x] <= rat(10) && v[y] >= rat(4));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn chained_rows() {
        // a = x + y, b = a - 2y = x - y; a = 5, b = 1 → x = 3, y = 2.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let a = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        let b = s.add_row(&[(a, Rat::ONE), (y, rat(-2))]);
        for (v, c) in [(a, 5), (b, 1)] {
            ok(s.assert_bound(v, BoundKind::Lower, rat(c), None));
            ok(s.assert_bound(v, BoundKind::Upper, rat(c), None));
        }
        match s.check() {
            SimplexResult::Sat(vals) => {
                assert_eq!(vals[x], rat(3));
                assert_eq!(vals[y], rat(2));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn rational_solution() {
        // 2x = 1 → x = 1/2
        let mut s = Simplex::new();
        let x = s.new_var();
        let sl = s.add_row(&[(x, rat(2))]);
        ok(s.assert_bound(sl, BoundKind::Lower, rat(1), None));
        ok(s.assert_bound(sl, BoundKind::Upper, rat(1), None));
        match s.check() {
            SimplexResult::Sat(v) => assert_eq!(v[x], Rat::new(1, 2)),
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn infeasible_cycle() {
        // x ≤ y - 1, y ≤ z - 1, z ≤ x - 1 is infeasible.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        let pairs = [(x, y, 0u32), (y, z, 1), (z, x, 2)];
        for (a, b, t) in pairs {
            let sl = s.add_row(&[(a, Rat::ONE), (b, -Rat::ONE)]);
            ok(s.assert_bound(sl, BoundKind::Upper, rat(-1), Some(t)));
        }
        match s.check() {
            SimplexResult::Unsat(e) => {
                // All three difference constraints participate.
                assert_eq!(e, vec![Some(0), Some(1), Some(2)]);
            }
            SimplexResult::Sat(_) => panic!("expected UNSAT"),
        }
    }

    #[test]
    fn repeated_checks_stable() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Upper, rat(4), None));
        ok(s.assert_bound(x, BoundKind::Lower, rat(0), None));
        assert!(matches!(s.check(), SimplexResult::Sat(_)));
        // Tighten and re-check.
        ok(s.assert_bound(y, BoundKind::Lower, rat(4), None));
        match s.check() {
            SimplexResult::Sat(v) => {
                assert_eq!(v[x], rat(0));
                assert_eq!(v[y], rat(4));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    /// After random `add_row` / `assert_bound` / `check` sequences every
    /// row is sorted by variable index, without duplicates or zero
    /// coefficients, and mentions only nonbasic variables.
    #[test]
    fn rows_stay_canonical() {
        let mut rng = hotg_prop::TestRng::for_test("rows_stay_canonical");
        let mut pivots = 0;
        for _ in 0..300 {
            let mut s = Simplex::new();
            for _ in 0..(2 + rng.below(5)) {
                s.new_var();
            }
            for step in 0..30u32 {
                match rng.below(5) {
                    0 => {
                        let terms: Vec<(usize, Rat)> = (0..1 + rng.below(4))
                            .map(|_| {
                                let v = rng.below(s.var_count() as u64) as usize;
                                (v, Rat::new(rng.in_span(-4, 4), rng.in_span(1, 3)))
                            })
                            .collect();
                        s.add_row(&terms);
                    }
                    1 => {
                        if let SimplexResult::Unsat(_) = s.check() {
                            break;
                        }
                    }
                    _ => {
                        let v = rng.below(s.var_count() as u64) as usize;
                        let kind = [BoundKind::Lower, BoundKind::Upper][rng.below(2) as usize];
                        let c = Rat::new(rng.in_span(-9, 9), rng.in_span(1, 2));
                        if s.assert_bound(v, kind, c, Some(step)).is_err() {
                            break;
                        }
                    }
                }
                for row in &s.rows {
                    assert!(canonical(&row.terms), "{:?}", row.terms);
                    assert!(row.terms.iter().all(|&(w, _)| s.vars[w].row.is_none()));
                }
            }
            pivots += s.pivots();
        }
        assert!(pivots > 100, "the sequences must pivot: {pivots}");
    }

    #[test]
    fn bounded_box_vertex() {
        // x + 2y ≥ 7, 0 ≤ x ≤ 3, 0 ≤ y ≤ 3.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, rat(2))]);
        ok(s.assert_bound(sl, BoundKind::Lower, rat(7), None));
        for v in [x, y] {
            ok(s.assert_bound(v, BoundKind::Lower, rat(0), None));
            ok(s.assert_bound(v, BoundKind::Upper, rat(3), None));
        }
        match s.check() {
            SimplexResult::Sat(v) => {
                assert!(v[x] + rat(2) * v[y] >= rat(7));
                assert!(v[x] >= rat(0) && v[x] <= rat(3));
                assert!(v[y] >= rat(0) && v[y] <= rat(3));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }
}
