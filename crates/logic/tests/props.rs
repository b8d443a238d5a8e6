//! Property tests for the logic layer: field axioms of `Rat`,
//! evaluation/substitution laws of terms and formulas, and agreement of
//! linear-form extraction with direct evaluation.

use hotg_logic::{
    Atom, Formula, InternedFormula, LinExpr, LinKey, LogicArena, Model, Rat, Rel, Signature, Sort,
    Term, Value, Var,
};
use hotg_prop::prelude::*;

fn arb_rat() -> impl Strategy<Value = Rat> {
    (-1000i64..=1000, 1i64..=60).prop_map(|(n, d)| Rat::new(n as i128, d as i128))
}

proptest! {
    #[test]
    fn rat_add_commutative(a in arb_rat(), b in arb_rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rat_add_associative(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn rat_mul_distributes(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rat_additive_inverse(a in arb_rat()) {
        prop_assert_eq!(a + (-a), Rat::ZERO);
        prop_assert_eq!(a - a, Rat::ZERO);
    }

    #[test]
    fn rat_mul_inverse(a in arb_rat()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.recip(), Rat::ONE);
        }
    }

    #[test]
    fn rat_floor_ceil_adjacent(a in arb_rat()) {
        let f = a.floor();
        let c = a.ceil();
        prop_assert!(Rat::from(f) <= a);
        prop_assert!(a <= Rat::from(c));
        prop_assert!(c - f <= 1);
        if a.is_integer() {
            prop_assert_eq!(f, c);
        }
    }

    #[test]
    fn rat_order_total(a in arb_rat(), b in arb_rat()) {
        let lt = a < b;
        let gt = a > b;
        let eq = a == b;
        prop_assert_eq!([lt, gt, eq].iter().filter(|x| **x).count(), 1);
    }
}

/// Integers clustered where `i128` sums and products overflow: near zero,
/// near both limits, and near √MAX (≈ 1.3·10¹⁹). `MIN` itself is left out:
/// negating it overflows before any rational operation runs.
fn arb_wide_int() -> impl Strategy<Value = i128> {
    let centers = prop_oneof![
        Just(0i128),
        Just(i128::MAX),
        Just(i128::MIN + 1),
        Just(1i128 << 63),
        Just(-(1i128 << 63)),
        Just(13_043_817_825_332_782_212i128),
        Just(-13_043_817_825_332_782_212i128),
    ];
    (centers, -1000i64..=1000).prop_map(|(c, d)| c.saturating_add(i128::from(d)).max(i128::MIN + 1))
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a as i128
}

/// `a/b + c/d` by the general cross-reduced formula; `None` on overflow.
fn general_add(x: Rat, y: Rat) -> Option<Rat> {
    let g = gcd(x.denom(), y.denom());
    let (lb, rb) = (x.denom() / g, y.denom() / g);
    let num = x
        .numer()
        .checked_mul(rb)?
        .checked_add(y.numer().checked_mul(lb)?)?;
    Some(Rat::new(num, x.denom().checked_mul(rb)?))
}

/// `a/b · c/d` by the general cross-reduced formula; `None` on overflow.
fn general_mul(x: Rat, y: Rat) -> Option<Rat> {
    let g1 = gcd(x.numer(), y.denom());
    let g2 = gcd(y.numer(), x.denom());
    let num = (x.numer() / g1).checked_mul(y.numer() / g2)?;
    let den = (x.denom() / g2).checked_mul(y.denom() / g1)?;
    Some(Rat::new(num, den))
}

/// Runs a `Rat` operation, mapping its overflow panic (whose message must
/// name `op`) to `None`.
fn caught(op: &str, f: impl FnOnce() -> Rat + std::panic::UnwindSafe) -> Option<Rat> {
    match std::panic::catch_unwind(f) {
        Ok(r) => Some(r),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert_eq!(msg, format!("rational overflow in {op}"));
            None
        }
    }
}

proptest! {
    /// The integer fast path of `+`, `-` and `*` returns what the general
    /// formula returns, and overflow-panics on exactly the same inputs.
    #[test]
    fn rat_integer_fast_path_matches_general(a in arb_wide_int(), b in arb_wide_int()) {
        let (x, y) = (Rat::from(a), Rat::from(b));
        prop_assert_eq!(caught("addition", || x + y), general_add(x, y));
        prop_assert_eq!(caught("addition", || x - y), general_add(x, -y));
        prop_assert_eq!(caught("multiplication", || x * y), general_mul(x, y));
    }
}

/// Random linear terms over two variables (no UF applications, no
/// division), paired with a model, so that linearization can be compared
/// against direct evaluation.
fn arb_linear_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-50i64..=50).prop_map(Term::int),
        Just(Term::var(Var(0))),
        Just(Term::var(Var(1))),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), -6i64..=6).prop_map(|(a, k)| a * Term::int(k)),
            inner.prop_map(|a| -a),
        ]
    })
}

fn two_var_model(x: i64, y: i64) -> (Signature, Model) {
    let mut sig = Signature::new();
    let vx = sig.declare_var("x", Sort::Int);
    let vy = sig.declare_var("y", Sort::Int);
    let mut m = Model::new();
    m.set_var(vx, Value::Int(x));
    m.set_var(vy, Value::Int(y));
    (sig, m)
}

fn eval_linexpr(e: &LinExpr, m: &Model) -> Option<Rat> {
    let mut total = e.constant();
    for (k, c) in e.coeffs() {
        let v = match k {
            LinKey::Var(v) => m.var(*v)?.int()?,
            LinKey::App(_) => return None,
        };
        total += c * Rat::from(v);
    }
    Some(total)
}

proptest! {
    /// Linearization preserves the value of the term.
    #[test]
    fn linearize_agrees_with_eval(
        t in arb_linear_term(),
        x in -40i64..=40,
        y in -40i64..=40,
    ) {
        let (_sig, m) = two_var_model(x, y);
        let direct = t.eval(&m);
        let lin = LinExpr::linearize(&t).expect("term is linear");
        let via_lin = eval_linexpr(&lin, &m).expect("model covers vars");
        if let Some(d) = direct {
            prop_assert_eq!(Rat::from(d), via_lin);
        }
        // direct == None only on i64 overflow, which the exact rationals
        // do not have; nothing to compare then.
    }

    /// Substituting a constant then evaluating equals evaluating with the
    /// variable bound to that constant.
    #[test]
    fn subst_eval_coherence(
        t in arb_linear_term(),
        x in -40i64..=40,
        y in -40i64..=40,
    ) {
        let (_sig, m) = two_var_model(x, y);
        let substituted = t.subst(&|v| (v == Var(0)).then(|| Term::int(x)));
        let (_sig2, m2) = two_var_model(999, y); // x binding must not matter
        if let (Some(a), Some(b)) = (substituted.eval(&m2), t.eval(&m)) {
            prop_assert_eq!(a, b);
        }
    }

    /// Atom negation flips evaluation.
    #[test]
    fn atom_negate_flips(
        l in arb_linear_term(),
        r in arb_linear_term(),
        x in -40i64..=40,
        y in -40i64..=40,
        rel_ix in 0usize..6,
    ) {
        let rel = [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][rel_ix];
        let (_sig, m) = two_var_model(x, y);
        let a = Atom::new(l, rel, r);
        if let Some(v) = a.eval(&m) {
            prop_assert_eq!(a.negate().eval(&m), Some(!v));
        }
    }

    /// Formula NNF preserves evaluation; double negation is identity.
    #[test]
    fn formula_nnf_preserves_eval(
        l in arb_linear_term(),
        r in arb_linear_term(),
        l2 in arb_linear_term(),
        r2 in arb_linear_term(),
        x in -40i64..=40,
        y in -40i64..=40,
    ) {
        let (_sig, m) = two_var_model(x, y);
        let f = Formula::atom(Atom::new(l, Rel::Lt, r))
            .and(Formula::Not(Box::new(Formula::atom(Atom::new(l2, Rel::Eq, r2)))));
        let g = Formula::Not(Box::new(f.clone()));
        if let Some(v) = f.eval(&m) {
            prop_assert_eq!(f.nnf().eval(&m), Some(v));
            prop_assert_eq!(g.eval(&m), Some(!v));
            prop_assert_eq!(g.negate().eval(&m), Some(v));
        }
    }
}

/// Random formulas over comparisons of linear terms — the shape the
/// concolic engine emits (conjunctions/disjunctions/negations of branch
/// atoms, including boolean units).
fn arb_formula() -> impl Strategy<Value = Formula> {
    let atom = (arb_linear_term(), arb_linear_term(), 0usize..6).prop_map(|(l, r, i)| {
        let rel = [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][i];
        Formula::atom(Atom::new(l, rel, r))
    });
    let leaf = prop_oneof![Just(Formula::True), Just(Formula::False), atom];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            collection::vec(inner.clone(), 0..4).prop_map(Formula::And),
            collection::vec(inner.clone(), 0..4).prop_map(Formula::Or),
            inner.prop_map(|f| Formula::Not(Box::new(f))),
        ]
    })
}

proptest! {
    /// Arena pointer-equality coincides with structural equality: two
    /// handles from one arena are the same allocation iff the formulas
    /// they intern are structurally equal.
    #[test]
    fn arena_pointer_eq_iff_structural_eq(a in arb_formula(), b in arb_formula()) {
        let arena = LogicArena::new();
        let ia = arena.intern(&a);
        let ib = arena.intern(&b);
        prop_assert_eq!(InternedFormula::ptr_eq(&ia, &ib), a == b);
        prop_assert_eq!(ia == ib, a == b);
        // Re-interning is identity.
        let ia2 = arena.intern(&a);
        prop_assert!(InternedFormula::ptr_eq(&ia, &ia2));
    }

    /// Memoized fingerprints equal freshly-computed `fingerprint()`, both
    /// for the interned formula and for its memoized normal form.
    #[test]
    fn arena_fingerprints_match_fresh(a in arb_formula()) {
        let arena = LogicArena::new();
        let i = arena.intern(&a);
        prop_assert_eq!(i.fingerprint(), a.fingerprint());
        let (norm, nfp) = arena.normal(&a);
        prop_assert_eq!(nfp, norm.fingerprint());
    }

    /// The memoized solver pre-pass returns exactly the unmemoized
    /// `nnf().normalize()`; `normalize` is idempotent on the result and
    /// preserves evaluation semantics.
    #[test]
    fn arena_normal_idempotent_and_semantics_preserving(
        a in arb_formula(),
        x in -40i64..=40,
        y in -40i64..=40,
    ) {
        let arena = LogicArena::new();
        let (norm, _) = arena.normal(&a);
        prop_assert_eq!(&*norm, &a.nnf().normalize());
        prop_assert_eq!(&norm.normalize(), &*norm);
        let (_sig, m) = two_var_model(x, y);
        if let Some(v) = a.eval(&m) {
            prop_assert_eq!(norm.eval(&m), Some(v));
        }
    }
}
