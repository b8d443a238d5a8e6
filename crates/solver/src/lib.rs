//! Constraint solving for higher-order test generation: a from-scratch
//! SMT solver for quantifier-free linear integer arithmetic with equality
//! and uninterpreted functions (`T ∪ T_EUF`), plus the *validity engine*
//! that turns post-processed path constraints
//!
//! ```text
//! POST(pc) = ∃X : A ⇒ pc      (uninterpreted functions ∀-quantified)
//! ```
//!
//! into test-generation *strategies* — the central mechanism of
//! Godefroid's *Higher-Order Test Generation* (PLDI 2011, §4.2–§4.3).
//!
//! Layering:
//!
//! * [`simplex`] — rational feasibility (Dutertre–de Moura general simplex);
//! * [`lia`] — integer layer: GCD pre-test + branch-and-bound;
//! * [`atoms`] — canonicalization of atoms into `Eq`/`Le` primitives;
//! * [`euf`] — ground congruence closure (EUF);
//! * [`smt`] — lazy DPLL(T) with Ackermann expansion of applications;
//! * [`backend`] — abstract-interpretation pre-solver consulted by the
//!   cascade before any DPLL(T) work;
//! * [`validity`] — validity checking and strategy synthesis.
//!
//! The paper used Z3 with an ad-hoc pre-processing step because
//! saturation-proof extraction was unavailable (§7); this crate implements
//! both that pre-processing (sample-driven inversion of function
//! applications, see [`validity`]) and a full strategy synthesizer, so the
//! examples of §5 can be reproduced end-to-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atoms;
pub mod backend;
pub mod cache;
pub mod deadline;
pub mod euf;
pub mod lia;
pub mod simplex;
pub mod smt;
pub mod validity;

pub use backend::{
    AbstractBackend, BackendStats, Cascade, ModelVerdict, PreVerdict, SolverBackend,
};
pub use cache::{CacheStats, Keyed, QueryCache};
pub use deadline::Deadline;
pub use smt::{SmtConfig, SmtResult, SmtSolver, Verdict};
pub use validity::{
    CounterInterp, Interpretation, Samples, SamplesDelta, Strategy, StrategyBinding,
    ValidityChecker, ValidityConfig, ValidityOutcome,
};
