//! Pluggable search strategies: one implementation per [`Technique`],
//! each encapsulating what is technique-specific — path-constraint
//! production (the [`ExecProfile`]), flip-query construction
//! (satisfiability vs. validity), and probe/multi-step behavior —
//! while the [`Engine`](crate::engine::Engine) owns everything shared
//! (scheduling, merging, chaos, deadlines, the degradation ladder).
//!
//! The degradation ladder is expressed *between* strategies: each
//! strategy names the next-weaker strategy via [`Strategy::demoted`],
//! and the ladder walks that chain instead of re-dispatching on the
//! technique inline.
//!
//! Strategies are shard-oblivious: a target is processed as a pure
//! function of the [`Job`] and the generation's [`Samples`] snapshot,
//! so the engine is free to hand the same target to a worker thread or
//! to a shard scheduler's replica (whose snapshot is reconstructed
//! from broadcast state deltas) and obtain the identical
//! [`TargetOutcome`].

mod dart;
mod higher_order;
mod random;

use crate::config::Technique;
use crate::engine::outcome::{Job, TargetOutcome};
use crate::engine::Engine;
use crate::report::DegradationLevel;
use crate::summaries::SummaryTable;
use hotg_concolic::ExecProfile;
use hotg_solver::{Samples, SmtSolver, ValidityChecker};

pub(crate) use dart::{DartSound, DartSoundDelayed, DartUnsound};
pub(crate) use higher_order::{HigherOrder, HigherOrderCompositional};
pub(crate) use random::Random;

/// Everything a worker has in scope while processing one target: the
/// engine's shared services, the generation's sample-table snapshot,
/// and the (possibly deadline-reconfigured) solver stack. Built by
/// [`Engine::process_target`] inside the panic-isolation boundary.
pub(crate) struct TargetCx<'e, 'a> {
    /// The shared campaign engine (chaos, ladder, execution helpers).
    pub(crate) engine: &'e Engine<'a>,
    /// Sample-table snapshot taken at generation start. In sharded
    /// campaigns this is the shard replica's copy, kept bit-identical
    /// to the coordinator's table by the generation-boundary state
    /// exchange — strategies cannot tell (and must not care) which.
    pub(crate) snapshot: &'e Samples,
    /// Function summaries (§8), present only for the compositional
    /// strategy on programs with defined functions.
    pub(crate) summaries: Option<&'e SummaryTable>,
    /// Satisfiability solver: a campaign-wide (or per-target
    /// deadline-reconfigured) clone sharing the query cache, term arena
    /// and query tap, so every flip query is one independent `check`.
    pub(crate) smt: &'e SmtSolver,
    /// Validity checker (shared caches; per-target deadline).
    pub(crate) validity: &'e ValidityChecker,
    /// Schedule-independent key of this target (chaos injection).
    pub(crate) tkey: u64,
}

/// One test-generation search strategy. Implementations are stateless
/// unit structs — per-target state lives in [`TargetCx`] and
/// [`TargetOutcome`] — so a strategy object is shared freely across
/// the worker pool.
pub(crate) trait Strategy: Sync {
    /// The technique this strategy implements.
    fn technique(&self) -> Technique;

    /// How this strategy drives symbolic evaluation: the mode producing
    /// its path constraints, and whether defined-function calls are
    /// summarized (§8).
    fn profile(&self) -> ExecProfile;

    /// Whether the strategy performs the generational directed search.
    /// The random baseline returns `false` and never sees a target.
    fn is_directed(&self) -> bool {
        true
    }

    /// The next-weaker strategy the degradation ladder demotes to when
    /// this strategy's attempt at a target concedes. `None` terminates
    /// the chain (already the weakest mode).
    fn demoted(&self) -> Option<&'static dyn Strategy> {
        None
    }

    /// The [`DegradationLevel`] recorded when this strategy serves as a
    /// ladder rung; `None` for strategies that never do.
    fn degradation_level(&self) -> Option<DegradationLevel> {
        None
    }

    /// Processes one branch-flip target: construct and check the flip
    /// query, and turn verdicts into generated tests, probes,
    /// rejections, or ladder demotions. Runs on a worker thread; must
    /// be pure with respect to the campaign state (everything flows
    /// back through `out`).
    fn process_target(&self, cx: &TargetCx<'_, '_>, job: &Job, out: &mut TargetOutcome);
}

/// The strategy implementing a technique. Strategies are stateless, so
/// one static instance per technique serves every campaign.
pub(crate) fn for_technique(technique: Technique) -> &'static dyn Strategy {
    match technique {
        Technique::Random => &Random,
        Technique::DartUnsound => &DartUnsound,
        Technique::DartSound => &DartSound,
        Technique::DartSoundDelayed => &DartSoundDelayed,
        Technique::HigherOrder => &HigherOrder,
        Technique::HigherOrderCompositional => &HigherOrderCompositional,
    }
}
