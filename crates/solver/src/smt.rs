//! Lazy DPLL(T) for quantifier-free formulas over linear integer
//! arithmetic plus equality with uninterpreted functions (`T ∪ T_EUF`,
//! Section 5.2 of the paper).
//!
//! Uninterpreted applications are handled by *Ackermann expansion*: each
//! distinct application becomes an opaque integer unknown, and for every
//! pair of same-symbol applications a functional-consistency clause
//! `args₁ = args₂ → f(args₁) = f(args₂)` is conjoined to the input. The
//! result is a pure LIA problem solved by CDCL over the boolean
//! abstraction with simplex + branch-and-bound as the theory oracle.

use crate::atoms::{eq_split, negate_le, normalize, NormAtom, Prim};
use crate::backend::{BackendStats, Cascade, ModelVerdict, PreVerdict};
use crate::cache::{CacheStats, Keyed, QueryCache};
use crate::deadline::Deadline;
use crate::lia::{solve_int, solve_int_budgeted, ConKind, IntConstraint, LiaConfig, LiaResult};
use hotg_logic::{Atom, Formula, LinKey, LogicArena, Model, NonLinearError, Term, Value};
use hotg_sat::{Lit, SatResult, SatSolver};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Result of an SMT satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable: the model assigns every variable of the formula and
    /// gives explicit interpretation entries for every application in it.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The budget was exhausted before a definitive answer.
    Unknown,
}

impl SmtResult {
    /// `true` if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }

    /// This result's model-free verdict.
    pub fn verdict(&self) -> Verdict {
        match self {
            SmtResult::Sat(_) => Verdict::Sat,
            SmtResult::Unsat => Verdict::Unsat,
            SmtResult::Unknown => Verdict::Unknown,
        }
    }
}

/// A model-free satisfiability verdict: what [`SmtSolver::verdict`]
/// returns to callers that only test `Unsat`-ness (refutation proofs,
/// validity certification). Because no model is materialized, the
/// pre-solver cascade may answer `Sat` for abstractly valid formulas —
/// which [`SmtSolver::check`] can only short-circuit in the narrower
/// forced-model case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable (no model offered).
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The budget was exhausted before a definitive answer.
    Unknown,
}

/// Configuration of the SMT solver.
#[derive(Clone, Copy, Debug)]
pub struct SmtConfig {
    /// Theory-solver configuration (variable bounds, branching budget).
    pub lia: LiaConfig,
    /// Maximum number of SAT ↔ theory refinement rounds.
    pub max_rounds: u64,
    /// Total branch-and-bound nodes one `check` may spend across all its
    /// refinement rounds (including core minimization). Without this pool
    /// a hard query can pay the full per-round LIA budget `max_rounds`
    /// times — hours of wall clock — before conceding `Unknown`.
    pub total_node_budget: u64,
    /// Emit an `eprintln!` trace line for slow queries. Resolved from the
    /// `HOTG_SMT_TRACE` environment variable **once**, at configuration
    /// construction time — `check` sits on the campaign hot path and must
    /// not pay an env lookup per query.
    pub trace: bool,
    /// Cooperative wall-clock cutoff, polled between refinement rounds and
    /// (via [`LiaConfig::deadline`]) between branch-and-bound nodes. An
    /// expired deadline makes `check` concede [`SmtResult::Unknown`]; such
    /// verdicts are **never** memoized in the shared query cache, because
    /// they depend on the schedule rather than the query.
    pub deadline: Deadline,
    /// Consult the abstract-interpretation pre-solver cascade
    /// ([`crate::backend`]) on every cache miss before any DPLL(T) work.
    /// The cascade is sound and answers only what DPLL(T) would have
    /// answered — verdicts by abstract refutation, models only when
    /// narrowing *forces* the (then unique) model — so it only changes
    /// *who* answers, never *what*. On by default.
    pub pre_solve: bool,
}

impl SmtConfig {
    /// The default configuration.
    pub fn new() -> SmtConfig {
        SmtConfig {
            lia: LiaConfig::default(),
            max_rounds: 100_000,
            total_node_budget: 120_000,
            trace: std::env::var_os("HOTG_SMT_TRACE").is_some(),
            deadline: Deadline::NONE,
            pre_solve: true,
        }
    }
}

impl Default for SmtConfig {
    fn default() -> SmtConfig {
        SmtConfig::new()
    }
}

/// A quantifier-free `T ∪ T_EUF` satisfiability solver.
///
/// # Examples
///
/// ```
/// use hotg_logic::{Atom, Formula, Signature, Sort, Term};
/// use hotg_solver::smt::{SmtResult, SmtSolver};
///
/// let mut sig = Signature::new();
/// let x = sig.declare_var("x", Sort::Int);
/// let h = sig.declare_func("hash", 1);
/// // x = hash(42) ∧ hash(42) = 567  ⇒  x = 567.
/// let f = Formula::atom(Atom::eq(Term::var(x), Term::app(h, vec![Term::int(42)])))
///     .and(Formula::atom(Atom::eq(Term::app(h, vec![Term::int(42)]), Term::int(567))));
/// match SmtSolver::new().check(&f)? {
///     SmtResult::Sat(m) => assert_eq!(Term::var(x).eval(&m), Some(567)),
///     _ => unreachable!(),
/// }
/// # Ok::<(), hotg_logic::NonLinearError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SmtSolver {
    config: SmtConfig,
    /// Memo table over *normalized* input formulas. Shared by clones of
    /// this solver (and by the worker threads of a parallel campaign).
    cache: Arc<QueryCache<Keyed<Arc<Formula>>, SmtResult>>,
    /// Hash-consing arena memoizing the `nnf().normalize()` pre-pass and
    /// fingerprints per unique formula. Shared by clones (and, via
    /// [`SmtSolver::with_arena`], by the whole campaign) — sharing is
    /// safe because the memo is behavior-free: it stores exactly what the
    /// pre-pass would recompute.
    arena: Arc<LogicArena>,
    /// Optional query tap: every formula posed to [`SmtSolver::check`] on
    /// this solver (or a [`SmtSolver::reconfigured`] clone) is appended
    /// here *before* normalization and cache lookup; a
    /// [`SmtSolver::detached`] clone records nothing. The benchmark
    /// harness uses it to capture a campaign's real query stream for
    /// offline replay; it never affects verdicts.
    recorder: Option<Arc<Mutex<Vec<Formula>>>>,
    /// The pre-solver cascade, consulted on cache misses when
    /// [`SmtConfig::pre_solve`] is set. Shared by clones, so the
    /// short-circuit counters aggregate across the worker threads of a
    /// campaign.
    pre: Option<Arc<Cascade>>,
}

impl Default for SmtSolver {
    fn default() -> SmtSolver {
        SmtSolver::new()
    }
}

#[derive(Debug)]
struct Encoder {
    sat: SatSolver,
    prim_vars: HashMap<Prim, u32>,
    prims: Vec<(Prim, u32)>,
    true_var: Option<u32>,
}

impl Encoder {
    fn new() -> Encoder {
        Encoder {
            sat: SatSolver::new(),
            prim_vars: HashMap::new(),
            prims: Vec::new(),
            true_var: None,
        }
    }

    fn true_lit(&mut self) -> Lit {
        let v = match self.true_var {
            Some(v) => v,
            None => {
                let v = self.sat.new_var();
                self.sat.add_clause([Lit::pos(v)]);
                self.true_var = Some(v);
                v
            }
        };
        Lit::pos(v)
    }

    fn prim_var(&mut self, prim: Prim) -> u32 {
        if let Some(&v) = self.prim_vars.get(&prim) {
            return v;
        }
        let v = self.sat.new_var();
        self.prim_vars.insert(prim.clone(), v);
        self.prims.push((prim.clone(), v));
        if prim.0.kind == ConKind::Eq {
            // Eager case split: ¬(e = 0) → (e < 0 ∨ e > 0), plus mutual
            // exclusions for fast propagation.
            let (lt, gt) = eq_split(&prim.0);
            let lv = self.prim_var(Prim(lt));
            let gv = self.prim_var(Prim(gt));
            self.sat
                .add_clause([Lit::pos(v), Lit::pos(lv), Lit::pos(gv)]);
            self.sat.add_clause([Lit::neg(v), Lit::neg(lv)]);
            self.sat.add_clause([Lit::neg(v), Lit::neg(gv)]);
            self.sat.add_clause([Lit::neg(lv), Lit::neg(gv)]);
        }
        v
    }

    fn encode_atom(&mut self, atom: &Atom) -> Result<Lit, NonLinearError> {
        Ok(match normalize(atom)? {
            NormAtom::Const(true) => self.true_lit(),
            NormAtom::Const(false) => !self.true_lit(),
            NormAtom::Prim { prim, positive } => {
                let v = self.prim_var(prim);
                Lit::new(v, positive)
            }
        })
    }

    /// Tseitin encoding: returns a literal equivalent to `f`.
    fn encode(&mut self, f: &Formula) -> Result<Lit, NonLinearError> {
        Ok(match f {
            Formula::True => self.true_lit(),
            Formula::False => !self.true_lit(),
            Formula::Atom(a) => self.encode_atom(a)?,
            Formula::Not(inner) => !self.encode(inner)?,
            Formula::And(parts) => {
                let lits = parts
                    .iter()
                    .map(|p| self.encode(p))
                    .collect::<Result<Vec<Lit>, _>>()?;
                let aux = self.sat.new_var();
                let a = Lit::pos(aux);
                for &l in &lits {
                    self.sat.add_clause([!a, l]);
                }
                let mut big: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                big.push(a);
                self.sat.add_clause(big);
                a
            }
            Formula::Or(parts) => {
                let lits = parts
                    .iter()
                    .map(|p| self.encode(p))
                    .collect::<Result<Vec<Lit>, _>>()?;
                let aux = self.sat.new_var();
                let a = Lit::pos(aux);
                // a → (l₁ ∨ … ∨ lₙ)
                let mut big: Vec<Lit> = lits.clone();
                big.insert(0, !a);
                self.sat.add_clause(big);
                // each lᵢ → a
                for &l in &lits {
                    self.sat.add_clause([!l, a]);
                }
                a
            }
        })
    }
}

impl SmtSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> SmtSolver {
        SmtSolver::with_config(SmtConfig::new())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SmtConfig) -> SmtSolver {
        SmtSolver {
            config,
            cache: Arc::new(QueryCache::new()),
            arena: Arc::new(LogicArena::new()),
            recorder: None,
            pre: config
                .pre_solve
                .then(|| Arc::new(Cascade::abstract_interpretation())),
        }
    }

    /// Replaces this solver's term arena with a shared (typically
    /// campaign-owned) one, so the memoized normalization pre-pass is
    /// shared across every solver of the campaign.
    pub fn with_arena(mut self, arena: Arc<LogicArena>) -> SmtSolver {
        self.arena = arena;
        self
    }

    /// Attaches a query tap: every formula posed to [`SmtSolver::check`]
    /// on this solver (or a [`SmtSolver::reconfigured`] clone) is
    /// appended to `log`, once per call, before any cache lookup or
    /// normalization. [`SmtSolver::detached`] clones do not record, and
    /// [`SmtSolver::verdict`] never does. Verdicts are unaffected; the
    /// benchmark harness replays the captured stream to measure solver
    /// throughput.
    pub fn with_recorder(mut self, log: Arc<Mutex<Vec<Formula>>>) -> SmtSolver {
        self.recorder = Some(log);
        self
    }

    /// The arena this solver interns queries into.
    pub fn arena(&self) -> &Arc<LogicArena> {
        &self.arena
    }

    /// The active configuration.
    pub fn config(&self) -> &SmtConfig {
        &self.config
    }

    /// A solver with a different configuration that **shares** this
    /// solver's query cache (and arena). Used to thread per-target
    /// deadlines into worker-local clones without losing memoized
    /// verdicts.
    pub fn reconfigured(&self, config: SmtConfig) -> SmtSolver {
        SmtSolver {
            config,
            cache: Arc::clone(&self.cache),
            arena: Arc::clone(&self.arena),
            recorder: self.recorder.clone(),
            // Keep sharing the cascade (its counters stay campaign-wide);
            // create one only if the reconfiguration switches pre-solving
            // on for a solver built without it.
            pre: config.pre_solve.then(|| {
                self.pre
                    .clone()
                    .unwrap_or_else(|| Arc::new(Cascade::abstract_interpretation()))
            }),
        }
    }

    /// A solver with a **private** (empty) query cache. Escalated-budget
    /// retries must use a detached solver: their verdicts are a function of
    /// the inflated budget, and writing them into the shared cache would
    /// make campaign results depend on which targets happened to escalate.
    /// The arena stays shared: its memo is behavior-free (normal forms and
    /// fingerprints do not depend on budgets).
    pub fn detached(&self, config: SmtConfig) -> SmtSolver {
        // Escalated retries are deliberately not recorded: the replayed
        // bench stream should reflect the campaign's first-attempt
        // queries, not budget-inflated duplicates.
        SmtSolver {
            config,
            cache: Arc::new(QueryCache::new()),
            arena: Arc::clone(&self.arena),
            recorder: None,
            // A private cascade for the same reason as the private cache:
            // escalated-retry traffic must not skew the campaign's
            // published backend counters.
            pre: config
                .pre_solve
                .then(|| Arc::new(Cascade::abstract_interpretation())),
        }
    }

    /// Hit/miss counters of the query cache. The campaign engine reads
    /// these once at campaign end and publishes them as a single
    /// `CacheStats` event (merged with the validity checker's counters),
    /// which is why they are the one piece of report accounting allowed
    /// to vary with worker scheduling: whichever thread first poses a
    /// query charges the miss.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Counter snapshot of the pre-solver cascade, or `None` when
    /// pre-solving is disabled. Announcement-only: the campaign engine
    /// publishes it as a `BackendStats` event, which is never folded into
    /// reports (the counters depend on cache scheduling, exactly like the
    /// cache's own hit/miss split).
    pub fn backend_stats(&self) -> Option<BackendStats> {
        self.pre.as_ref().map(|pre| pre.stats())
    }

    /// Conjoins functional-consistency (Ackermann) clauses for every pair
    /// of same-symbol applications in `f`.
    fn ackermannize(f: &Formula) -> Formula {
        let apps = f.apps();
        let mut out = f.clone();
        for i in 0..apps.len() {
            for j in (i + 1)..apps.len() {
                let (Term::App(fi, ai), Term::App(fj, aj)) = (&apps[i], &apps[j]) else {
                    continue;
                };
                if fi != fj || ai.len() != aj.len() {
                    continue;
                }
                let mut clause: Vec<Formula> = ai
                    .iter()
                    .zip(aj.iter())
                    .map(|(a, b)| Formula::atom(Atom::ne(a.clone(), b.clone())))
                    .collect();
                clause.push(Formula::atom(Atom::eq(apps[i].clone(), apps[j].clone())));
                out = out.and(Formula::disj(clause));
            }
        }
        out
    }

    /// Decides satisfiability of a quantifier-free formula.
    ///
    /// # Errors
    ///
    /// Returns [`NonLinearError`] if the formula contains a term outside
    /// the linear theory (non-constant multiplication, division,
    /// remainder). Callers are expected to have eliminated those via
    /// concretization or uninterpreted functions first — that is the whole
    /// point of the paper.
    pub fn check(&self, formula: &Formula) -> Result<SmtResult, NonLinearError> {
        if let Some(log) = &self.recorder {
            log.lock().expect("recorder lock").push(formula.clone());
        }
        let start = std::time::Instant::now();
        // Normalization (flatten/dedup/fold) is a logical equivalence over
        // the same atoms, so the memoized result — including a SAT model —
        // transfers to every formula with the same normal form. The arena
        // memoizes the pre-pass per unique formula, so a query seen before
        // (even by a different solver sharing the arena) skips it.
        let (norm, fp) = self.arena.normal(formula);
        let key = Keyed::new(fp, norm);
        if let Some(cached) = self.cache.get(&key) {
            return Ok(cached);
        }
        // Pre-solver cascade: a sound backend answering `Unsat` (abstract
        // contradiction) or `Sat` with the formula's *forced* model (every
        // variable pinned to a point, candidate verified by evaluation).
        // Either answer is exactly what DPLL(T) would have returned — the
        // forced model is unique — so both are memoized like one. An
        // already-expired deadline skips the cascade: under a dead
        // deadline a cascade-free solver concedes `Unknown` on every
        // query (the resilience ladder pins on that), and the cascade
        // must never change what a campaign observes.
        if let Some(pre) = self
            .pre
            .as_ref()
            .filter(|_| !self.config.deadline.expired())
        {
            match pre.pre_check_model(key.payload()) {
                ModelVerdict::Unsat => {
                    self.cache.insert(key, SmtResult::Unsat);
                    return Ok(SmtResult::Unsat);
                }
                ModelVerdict::Forced(model) => {
                    let result = SmtResult::Sat(model);
                    self.cache.insert(key, result.clone());
                    return Ok(result);
                }
                ModelVerdict::Unknown => {}
            }
        }
        let full = Self::ackermannize(key.payload());

        let result = self.check_inner(&full);
        if let Ok(r) = &result {
            // A deadline-expired `Unknown` reflects the wall clock, not the
            // query; memoizing it would let one slow schedule poison every
            // later (possibly deadline-free) check of the same formula.
            let deadline_unknown =
                matches!(r, SmtResult::Unknown) && self.config.deadline.expired();
            if !deadline_unknown {
                self.cache.insert(key, r.clone());
            }
        }
        if self.config.trace && start.elapsed().as_millis() > 200 {
            eprintln!(
                "[smt] {}ms apps={} result={:?}",
                start.elapsed().as_millis(),
                full.apps().len(),
                result.as_ref().map(|r| match r {
                    SmtResult::Sat(_) => "sat",
                    SmtResult::Unsat => "unsat",
                    SmtResult::Unknown => "unknown",
                })
            );
        }
        result
    }

    /// Decides satisfiability when the caller only needs the verdict,
    /// never a model (refutation tests like `check(f) == Unsat`).
    ///
    /// Identical to [`SmtSolver::check`] followed by
    /// [`SmtResult::verdict`], except that the pre-solver cascade may
    /// additionally short-circuit abstractly *valid* formulas with
    /// `Verdict::Sat`: sound (a valid formula is satisfiable) and
    /// indistinguishable to a verdict-only caller, but unavailable to
    /// `check` in general because validity names no model to hand back.
    /// Such answers are not memoized — the shared cache stores
    /// model-carrying results.
    ///
    /// # Errors
    ///
    /// Returns [`NonLinearError`] exactly as [`SmtSolver::check`] would:
    /// the cascade stays silent on any formula containing an atom outside
    /// the linear theory.
    pub fn verdict(&self, formula: &Formula) -> Result<Verdict, NonLinearError> {
        let (norm, fp) = self.arena.normal(formula);
        let key = Keyed::new(fp, norm);
        if let Some(cached) = self.cache.get(&key) {
            return Ok(cached.verdict());
        }
        // Skipped under an expired deadline for the same reason as in
        // `check`: a dead deadline must concede everywhere.
        if let Some(pre) = self
            .pre
            .as_ref()
            .filter(|_| !self.config.deadline.expired())
        {
            match pre.pre_check(key.payload(), true) {
                PreVerdict::Unsat => {
                    self.cache.insert(key, SmtResult::Unsat);
                    return Ok(Verdict::Unsat);
                }
                PreVerdict::Valid => return Ok(Verdict::Sat),
                PreVerdict::Unknown => {}
            }
        }
        let full = Self::ackermannize(key.payload());
        let result = self.check_inner(&full)?;
        let deadline_unknown =
            matches!(result, SmtResult::Unknown) && self.config.deadline.expired();
        if !deadline_unknown {
            self.cache.insert(key, result.clone());
        }
        Ok(result.verdict())
    }

    fn check_inner(&self, full: &Formula) -> Result<SmtResult, NonLinearError> {
        let mut enc = Encoder::new();
        let top = enc.encode(full)?;
        enc.sat.add_clause([top]);
        self.refine(&mut enc, full)
    }

    /// The lazy CDCL(T) refinement loop over an already-encoded query.
    fn refine(&self, enc: &mut Encoder, full: &Formula) -> Result<SmtResult, NonLinearError> {
        // One node pool for the whole check: every theory query (and the
        // core minimization probes) draws from it, so total work is
        // bounded even when individual rounds are hard.
        let mut pool = self.config.total_node_budget;

        for _round in 0..self.config.max_rounds {
            if self.config.deadline.expired() {
                return Ok(SmtResult::Unknown);
            }
            match enc.sat.solve() {
                SatResult::Unsat => return Ok(SmtResult::Unsat),
                SatResult::Sat(bmodel) => {
                    // Gather asserted theory constraints, remembering the
                    // boolean literal that asserted each.
                    let mut constraints: Vec<IntConstraint> = Vec::new();
                    let mut asserting: Vec<Lit> = Vec::new();
                    for (prim, var) in &enc.prims {
                        let assigned = bmodel[*var as usize];
                        match prim.0.kind {
                            ConKind::Eq => {
                                if assigned {
                                    constraints.push(prim.0.clone());
                                    asserting.push(Lit::neg(*var));
                                }
                                // Negative equality contributes nothing:
                                // the eager split clauses force one of the
                                // strict sides instead.
                            }
                            ConKind::Le => {
                                if assigned {
                                    constraints.push(prim.0.clone());
                                    asserting.push(Lit::neg(*var));
                                } else {
                                    constraints.push(negate_le(&prim.0));
                                    asserting.push(Lit::pos(*var));
                                }
                            }
                        }
                    }
                    let lia = LiaConfig {
                        node_budget: self.config.lia.node_budget.min(pool),
                        deadline: self.config.deadline.earliest(self.config.lia.deadline),
                        ..self.config.lia
                    };
                    let before = pool;
                    let mut call_pool = lia.node_budget.min(pool);
                    let spent_base = pool - call_pool;
                    let result = solve_int_budgeted(&constraints, &lia, &mut call_pool);
                    pool = spent_base + call_pool;
                    debug_assert!(pool <= before);
                    match result {
                        LiaResult::Sat(assign) => {
                            let model = Self::build_model(full, &assign);
                            debug_assert_eq!(full.eval(&model), Some(true));
                            return Ok(SmtResult::Sat(model));
                        }
                        LiaResult::Unknown => return Ok(SmtResult::Unknown),
                        LiaResult::Unsat { core } => {
                            if asserting.is_empty() {
                                // No theory atoms at all: boolean SAT is final.
                                let model =
                                    Self::build_model(full, &std::collections::BTreeMap::new());
                                return Ok(SmtResult::Sat(model));
                            }
                            // Prefer the provenance core from the theory
                            // solver; fall back to deletion-based
                            // minimization when branching or artificial
                            // bounds were involved.
                            let core = match core {
                                Some(c) => c,
                                None => self.minimize_core(&constraints),
                            };
                            let blocking: Vec<Lit> = core.iter().map(|&i| asserting[i]).collect();
                            enc.sat.add_clause(blocking);
                        }
                    }
                }
            }
        }
        Ok(SmtResult::Unknown)
    }

    /// Deletion-based unsat-core minimization: returns indices of a
    /// (locally minimal) subset of `constraints` that is still
    /// unsatisfiable. Small cores make the blocking clauses strong, which
    /// keeps the lazy refinement loop from enumerating exponentially many
    /// boolean assignments.
    fn minimize_core(&self, constraints: &[IntConstraint]) -> Vec<usize> {
        let mut core: Vec<usize> = (0..constraints.len()).collect();
        // Cap the minimization work on very large assertion sets.
        if constraints.len() > 96 {
            return core;
        }
        // Feasibility checks only — no need to polish models. The node
        // budget is capped hard: minimization is a best-effort heuristic
        // running up to ~96 solves per conflict, and a deletion probe that
        // comes back Unknown under the cap simply keeps its constraint
        // (sound — the core stays unsatisfiable, just less minimal).
        let lia = crate::lia::LiaConfig {
            prefer_small: false,
            node_budget: self.config.lia.node_budget.min(400),
            deadline: self.config.deadline.earliest(self.config.lia.deadline),
            ..self.config.lia
        };
        let mut i = 0;
        while i < core.len() {
            let candidate: Vec<IntConstraint> = core
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &k)| constraints[k].clone())
                .collect();
            if solve_int(&candidate, &lia).is_unsat() {
                core.remove(i);
            } else {
                i += 1;
            }
        }
        core
    }

    /// Builds a [`Model`] from a LIA assignment: variables first, then
    /// applications innermost-first so argument evaluation is total.
    fn build_model(full: &Formula, assign: &std::collections::BTreeMap<LinKey, i64>) -> Model {
        let mut model = Model::new();
        for v in full.vars() {
            let value = assign.get(&LinKey::Var(v)).copied().unwrap_or(0);
            model.set_var(v, Value::Int(value));
        }
        for app in full.apps() {
            let Term::App(f, args) = &app else {
                continue;
            };
            // Applications are visited innermost-first, so nested apps are
            // already in the model; evaluation can then only fail on i64
            // overflow inside an operator fold. Such an application's value
            // is unconstrained by the assignment — skip the entry rather
            // than panic a campaign worker over an unrepresentable tuple.
            let Some(arg_vals) = args
                .iter()
                .map(|a| a.eval(&model))
                .collect::<Option<Vec<i64>>>()
            else {
                continue;
            };
            let value = assign.get(&LinKey::App(app.clone())).copied().unwrap_or(0);
            if let Some(prev) = model.apply(*f, &arg_vals) {
                debug_assert_eq!(
                    prev, value,
                    "Ackermann clauses must enforce functional consistency"
                );
            } else {
                model.set_func_entry(*f, arg_vals, value);
            }
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::{Rel, Signature, Sort, Var};

    fn setup() -> (Signature, Var, Var, hotg_logic::FuncSym) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let h = sig.declare_func("h", 1);
        (sig, x, y, h)
    }

    fn solve(f: &Formula) -> SmtResult {
        SmtSolver::new().check(f).expect("linear formula")
    }

    #[test]
    fn trivial_formulas() {
        assert!(solve(&Formula::True).is_sat());
        assert_eq!(solve(&Formula::False), SmtResult::Unsat);
    }

    #[test]
    fn simple_equality() {
        let (_, x, _, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(42)));
        match solve(&f) {
            SmtResult::Sat(m) => assert_eq!(m.var(x), Some(Value::Int(42))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_equalities() {
        let (_, x, _, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn disequality_chain() {
        let (_, x, _, _) = setup();
        // x ≠ 0 ∧ x ≥ 0 ∧ x ≤ 1  ⇒  x = 1.
        let f = Formula::atom(Atom::ne(Term::var(x), Term::int(0)))
            .and(Formula::atom(Atom::new(
                Term::var(x),
                Rel::Ge,
                Term::int(0),
            )))
            .and(Formula::atom(Atom::new(
                Term::var(x),
                Rel::Le,
                Term::int(1),
            )));
        match solve(&f) {
            SmtResult::Sat(m) => assert_eq!(m.var(x), Some(Value::Int(1))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn disequality_window_unsat() {
        let (_, x, _, _) = setup();
        // 0 < x < 2 ∧ x ≠ 1.
        let f = Formula::atom(Atom::new(Term::var(x), Rel::Gt, Term::int(0)))
            .and(Formula::atom(Atom::new(
                Term::var(x),
                Rel::Lt,
                Term::int(2),
            )))
            .and(Formula::atom(Atom::ne(Term::var(x), Term::int(1))));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn disjunction_picks_feasible_branch() {
        let (_, x, _, _) = setup();
        // (x = 1 ∧ x = 2) ∨ x = 7.
        let bad = Formula::atom(Atom::eq(Term::var(x), Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))));
        let good = Formula::atom(Atom::eq(Term::var(x), Term::int(7)));
        match solve(&bad.or(good)) {
            SmtResult::Sat(m) => assert_eq!(m.var(x), Some(Value::Int(7))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn negation_of_conjunction() {
        let (_, x, y, _) = setup();
        // ¬(x = 0 ∧ y = 0) ∧ x = 0  ⇒  y ≠ 0.
        let inner = Formula::atom(Atom::eq(Term::var(x), Term::int(0)))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(0))));
        let f =
            Formula::Not(Box::new(inner)).and(Formula::atom(Atom::eq(Term::var(x), Term::int(0))));
        match solve(&f) {
            SmtResult::Sat(m) => {
                assert_eq!(m.var(x), Some(Value::Int(0)));
                assert_ne!(m.var(y), Some(Value::Int(0)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn uf_app_as_unknown() {
        let (_, x, y, h) = setup();
        // x = h(y): satisfiable, with the model inventing h.
        let f = Formula::atom(Atom::eq(Term::var(x), Term::app(h, vec![Term::var(y)])));
        match solve(&f) {
            SmtResult::Sat(m) => {
                let hy = Term::app(h, vec![Term::var(y)]);
                assert_eq!(Term::var(x).eval(&m), hy.eval(&m));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn functional_consistency_enforced() {
        let (_, x, y, h) = setup();
        // x = y ∧ h(x) ≠ h(y) is UNSAT by congruence.
        let f = Formula::atom(Atom::eq(Term::var(x), Term::var(y))).and(Formula::atom(Atom::ne(
            Term::app(h, vec![Term::var(x)]),
            Term::app(h, vec![Term::var(y)]),
        )));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn functional_consistency_with_arithmetic() {
        let (_, x, y, h) = setup();
        // x = y + 1 ∧ y = 4 ∧ h(x) ≠ h(5): UNSAT since x must be 5.
        let f = Formula::atom(Atom::eq(Term::var(x), Term::var(y) + Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(4))))
            .and(Formula::atom(Atom::ne(
                Term::app(h, vec![Term::var(x)]),
                Term::app(h, vec![Term::int(5)]),
            )));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn samples_pin_uf_values() {
        let (_, x, y, h) = setup();
        // h(42) = 567 ∧ y = 42 ∧ x = h(y)  ⇒  x = 567.
        let f = Formula::atom(Atom::eq(Term::app(h, vec![Term::int(42)]), Term::int(567)))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(42))))
            .and(Formula::atom(Atom::eq(
                Term::var(x),
                Term::app(h, vec![Term::var(y)]),
            )));
        match solve(&f) {
            SmtResult::Sat(m) => assert_eq!(m.var(x), Some(Value::Int(567))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn example1_sound_concretization_unsat() {
        // The paper's Example 1: y = 42 ∧ x = 567 ∧ y = 10 is UNSAT.
        let (_, x, y, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(y), Term::int(42)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(567))))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(10))));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn multi_arg_function() {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let g = sig.declare_func("g", 2);
        // g(x, 1) = 5 ∧ g(2, 1) = 6 ∧ x = 2: UNSAT by congruence.
        let f = Formula::atom(Atom::eq(
            Term::app(g, vec![Term::var(x), Term::int(1)]),
            Term::int(5),
        ))
        .and(Formula::atom(Atom::eq(
            Term::app(g, vec![Term::int(2), Term::int(1)]),
            Term::int(6),
        )))
        .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn nested_applications() {
        let (_, x, _, h) = setup();
        // h(h(x)) = 5 ∧ h(x) = x  ⇒  h(x) = 5 ∧ x = 5 consistent:
        // x = 5, h(5) = 5.
        let hx = Term::app(h, vec![Term::var(x)]);
        let hhx = Term::app(h, vec![hx.clone()]);
        let f = Formula::atom(Atom::eq(hhx.clone(), Term::int(5)))
            .and(Formula::atom(Atom::eq(hx.clone(), Term::var(x))));
        match solve(&f) {
            SmtResult::Sat(m) => {
                assert_eq!(hhx.eval(&m), Some(5));
                assert_eq!(hx.eval(&m), Term::var(x).eval(&m));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_concedes_unknown_without_caching() {
        let (_, x, _, _) = setup();
        // The pre-solver cascade could force this query's model, but a
        // dead deadline must concede everywhere — the cascade is skipped
        // and DPLL(T) concedes Unknown, exactly like a cascade-free
        // solver would.
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(42)));
        let expired = SmtConfig {
            deadline: Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..SmtConfig::new()
        };
        let solver = SmtSolver::with_config(expired);
        assert_eq!(solver.check(&f).expect("linear"), SmtResult::Unknown);
        // A reconfigured clone shares the cache; the deadline-induced
        // Unknown must not have been memoized, so the fresh check decides.
        let fresh = solver.reconfigured(SmtConfig {
            deadline: Deadline::NONE,
            ..*solver.config()
        });
        assert!(fresh.check(&f).expect("linear").is_sat());
    }

    #[test]
    fn detached_solver_has_private_cache() {
        let (_, x, _, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(7)));
        let shared = SmtSolver::new();
        assert!(shared.check(&f).expect("linear").is_sat());
        let detached = shared.detached(*shared.config());
        assert_eq!(detached.cache_stats().hits, 0);
        assert!(detached.check(&f).expect("linear").is_sat());
        // The detached check was a miss in its own cache, not a hit in the
        // shared one.
        assert_eq!(detached.cache_stats().hits, 0);
        assert!(detached.cache_stats().misses >= 1);
    }

    #[test]
    fn nonlinear_reports_error() {
        let (_, x, y, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x) * Term::var(y), Term::int(6)));
        assert!(SmtSolver::new().check(&f).is_err());
    }

    /// The query tap sits on `check`: one entry per call (cache hits
    /// included), shared by `reconfigured` clones, absent from
    /// `detached` ones, and never fed by model-free `verdict` calls.
    #[test]
    fn query_tap_records_each_check_once() {
        let (_, x, y, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(3)));
        let g = Formula::atom(Atom::new(Term::var(y), Rel::Gt, Term::int(5)));
        let log = Arc::new(Mutex::new(Vec::new()));
        let solver = SmtSolver::new().with_recorder(Arc::clone(&log));
        assert!(solver.check(&f).expect("linear").is_sat());
        assert!(solver.check(&f).expect("linear").is_sat());
        assert_eq!(solver.cache_stats().hits, 1, "the repeat is a cache hit");
        let reconfigured = solver.reconfigured(SmtConfig {
            total_node_budget: 7,
            ..*solver.config()
        });
        assert!(reconfigured.check(&g).expect("linear").is_sat());
        let detached = solver.detached(*solver.config());
        assert!(detached.check(&g).expect("linear").is_sat());
        assert_eq!(solver.verdict(&g).expect("linear"), Verdict::Sat);
        assert_eq!(*log.lock().expect("log"), vec![f.clone(), f, g]);
        let stats = solver.cache_stats();
        assert_eq!(stats.hits + stats.misses, 4, "three taps plus one verdict");
    }

    #[test]
    fn model_covers_all_apps() {
        let (_, x, y, h) = setup();
        let f = Formula::atom(Atom::eq(
            Term::app(h, vec![Term::var(x)]),
            Term::app(h, vec![Term::var(y)]) + Term::int(1),
        ));
        match solve(&f) {
            SmtResult::Sat(m) => {
                assert_eq!(f.eval(&m), Some(true));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}
