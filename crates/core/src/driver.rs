//! The public campaign driver: a thin façade over the strategy-pluggable
//! [`engine`](crate::engine).
//!
//! The search is generational (breadth-first over branch-flip targets, as
//! in SAGE): every executed run contributes one target per negatable
//! branch entry of its path constraint; targets are deduplicated by their
//! expected branch path.
//!
//! * DART techniques solve `ALT(pc)` with a *satisfiability* query and
//!   turn the model into inputs (unconstrained inputs keep the parent
//!   run's values, as in the original DART).
//! * The higher-order technique checks *validity* of
//!   `POST(ALT(pc)) = ∃X : A ⇒ ALT(pc)` and interprets the resulting
//!   strategy against the recorded samples, running intermediate probe
//!   executions when a needed application value is unknown (multi-step
//!   test generation, §5.3 Example 7).
//!
//! Each [`Technique`] maps to one strategy object
//! (`crate::strategy::for_technique`); the engine runs the campaign as a
//! loop over the strategy and emits a [`CampaignEvent`](crate::CampaignEvent)
//! stream from which the returned [`Report`] is folded. See the engine
//! module docs for the parallel generation structure and the determinism
//! argument.

use crate::config::{DriverConfig, Technique};
use crate::engine::{Engine, ResumeData};
use crate::events::{fold_report, EventSink, NullSink};
use crate::report::Report;
use crate::strategy;
use crate::trace::{
    program_digest, recover, shard_digest, shard_trace_path, Recovery, RecoveryReport, ResumeError,
};
use hotg_analysis::{analyze, AnalysisResult};
use hotg_concolic::ConcolicContext;
use hotg_lang::{CompiledProgram, NativeRegistry, Program};
use hotg_logic::LogicArena;
use std::sync::Arc;

/// A test-generation campaign on one program.
#[derive(Debug)]
pub struct Driver<'p> {
    program: &'p Program,
    natives: &'p NativeRegistry,
    ctx: ConcolicContext,
    analysis: AnalysisResult,
    config: DriverConfig,
    /// The campaign's term/formula arena. **Per-driver, never global**:
    /// every solver instance of this driver's campaigns interns through
    /// it, and two concurrent drivers in one process get disjoint id
    /// spaces and share no interned allocations.
    arena: Arc<LogicArena>,
    /// The program lowered to bytecode, compiled once per driver when
    /// [`DriverConfig::bytecode`] is on. `None` when the fast path is
    /// disabled or the program fails the static checker — campaigns then
    /// run on the reference tree-walkers with identical results.
    compiled: Option<CompiledProgram>,
    /// Why compilation failed when `compiled` is `None` despite
    /// [`DriverConfig::bytecode`]: announced per campaign as
    /// [`CampaignEvent::BytecodeFallback`](crate::CampaignEvent) and
    /// counted in [`Report::bytecode_fallbacks`], so the tree-walker
    /// fallback is never silent.
    compile_error: Option<String>,
}

impl<'p> Driver<'p> {
    /// Creates a driver for a program.
    pub fn new(
        program: &'p Program,
        natives: &'p NativeRegistry,
        config: DriverConfig,
    ) -> Driver<'p> {
        let (compiled, compile_error) = if config.bytecode {
            match hotg_lang::compile(program, natives) {
                Ok(cp) => (Some(cp), None),
                Err(e) => (None, Some(e.to_string())),
            }
        } else {
            (None, None)
        };
        Driver {
            program,
            natives,
            ctx: ConcolicContext::new(program),
            analysis: analyze(program),
            config,
            arena: Arc::new(LogicArena::new()),
            compiled,
            compile_error,
        }
    }

    /// The symbolic context (signature, input variables).
    pub fn ctx(&self) -> &ConcolicContext {
        &self.ctx
    }

    /// The static analysis results used as the search oracle.
    pub fn analysis(&self) -> &AnalysisResult {
        &self.analysis
    }

    /// The driver-owned term/formula arena.
    pub fn arena(&self) -> &Arc<LogicArena> {
        &self.arena
    }

    /// The once-per-driver compiled program the campaign VMs execute;
    /// `None` when [`DriverConfig::bytecode`] is off or the program did
    /// not compile (tree-walker fallback).
    pub fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled.as_ref()
    }

    /// Runs a campaign with the given technique and returns its report.
    pub fn run(&self, technique: Technique) -> Report {
        self.run_with_sink(technique, &mut NullSink)
    }

    /// Runs a campaign, streaming every [`CampaignEvent`] into `sink`
    /// (in addition to the report fold and the optional
    /// [`DriverConfig::event_trace`] file). The returned [`Report`] is
    /// exactly the fold of the emitted stream, plus wall-clock
    /// [`Report::elapsed`].
    ///
    /// [`CampaignEvent`]: crate::CampaignEvent
    pub fn run_with_sink(&self, technique: Technique, sink: &mut dyn EventSink) -> Report {
        let start = std::time::Instant::now();
        let mut report = self.engine().run(strategy::for_technique(technique), sink);
        report.elapsed = start.elapsed();
        report
    }

    pub(crate) fn engine(&self) -> Engine<'_> {
        Engine {
            program: self.program,
            natives: self.natives,
            ctx: &self.ctx,
            analysis: &self.analysis,
            config: &self.config,
            arena: &self.arena,
            compiled: self.compiled.as_ref(),
            compile_error: self.compile_error.as_deref(),
            exec: Default::default(),
        }
    }

    /// Resumes an interrupted campaign from the durable trace configured
    /// in [`DriverConfig::trace`] and returns the finished report —
    /// bit-identical (modulo wall-clock [`Report::elapsed`] and the
    /// thread-schedule-dependent cache hit/miss split) to the report an
    /// uninterrupted run would have produced.
    pub fn resume(&self, technique: Technique) -> Result<Report, ResumeError> {
        self.resume_with_sink(technique, &mut NullSink)
            .map(|r| r.report)
    }

    /// [`resume`](Driver::resume), plus a [`RecoveryReport`] describing
    /// what was salvaged from the trace file, and with every event of
    /// the resumed campaign — replayed and fresh alike — streamed into
    /// `sink`.
    ///
    /// Recovery salvages the longest valid prefix of the trace (frames
    /// are length- and CRC32-checked; a torn tail or corrupt frame ends
    /// the prefix and is reported, never panicked on). The header is
    /// refused with [`ResumeError::HeaderMismatch`] unless its
    /// technique, program digest, and [`DriverConfig::resume_digest`]
    /// all match this driver — a salvaged prefix only replays
    /// deterministically under the configuration that recorded it. A
    /// trace that already ends in `CampaignFinished` short-circuits: the
    /// report is folded straight from the recorded events and the file
    /// is left untouched.
    pub fn resume_with_sink(
        &self,
        technique: Technique,
        sink: &mut dyn EventSink,
    ) -> Result<Resumed, ResumeError> {
        let start = std::time::Instant::now();
        let tc = self
            .config
            .trace
            .as_ref()
            .ok_or(ResumeError::NoTraceConfigured)?;
        let sharded = self.config.shards > 1;
        let rec = match recover(&tc.path) {
            Ok(rec) => rec,
            // A sharded campaign's real checkpoints are its shard
            // traces: a canonical trace that is lost or unreadable only
            // forfeits the complete-trace fast path below.
            Err(_) if sharded => return self.resume_sharded(technique, sink, start),
            Err(e) => return Err(e),
        };
        if rec.header.technique != technique {
            return Err(ResumeError::HeaderMismatch {
                field: "technique",
                expected: rec.header.technique.name().to_string(),
                found: technique.name().to_string(),
            });
        }
        let pdigest = program_digest(self.program);
        if rec.header.program_digest != pdigest {
            return Err(ResumeError::HeaderMismatch {
                field: "program_digest",
                expected: format!("{:016x}", rec.header.program_digest),
                found: format!("{pdigest:016x}"),
            });
        }
        let cdigest = self.config.resume_digest();
        if rec.header.config_digest != cdigest {
            return Err(ResumeError::HeaderMismatch {
                field: "config_digest",
                expected: format!("{:016x}", rec.header.config_digest),
                found: format!("{cdigest:016x}"),
            });
        }
        let frames_salvaged = rec.events.len();
        if rec.complete {
            // The trace records a finished campaign: the report is its
            // fold. Nothing re-runs and the file is left untouched.
            let mut report = fold_report(&rec.events);
            for event in &rec.events {
                let _ = sink.emit(event);
            }
            report.elapsed = start.elapsed();
            return Ok(Resumed {
                report,
                recovery: RecoveryReport {
                    frames_salvaged,
                    events_replayed: frames_salvaged,
                    bytes_discarded: rec.bytes_discarded,
                    frames_discarded: rec.frames_discarded,
                    complete: true,
                    damage: rec.damage,
                },
            });
        }
        if sharded {
            // An incomplete canonical trace of a sharded campaign is
            // discarded (it is rewritten live on the resumed run); the
            // shard traces are the checkpoints replay works from.
            return self.resume_sharded(technique, sink, start);
        }
        let resume = ResumeData {
            events: rec.events,
            ends: rec.ends,
            header_end: rec.header_end,
        };
        let (mut report, events_replayed) = self.engine().run_resumable(
            strategy::for_technique(technique),
            sink,
            Some(resume),
            Vec::new(),
        );
        report.elapsed = start.elapsed();
        Ok(Resumed {
            report,
            recovery: RecoveryReport {
                frames_salvaged,
                events_replayed,
                bytes_discarded: rec.bytes_discarded,
                frames_discarded: rec.frames_discarded,
                complete: false,
                damage: rec.damage,
            },
        })
    }

    /// Resumes a sharded campaign from its per-shard traces. Each shard
    /// trace is recovered and header-checked independently; a shard
    /// whose trace is lost outright simply re-runs live (its salvaged
    /// prefix is empty), while a header mismatch is refused — it means
    /// the trace belongs to a different campaign shape. The canonical
    /// trace is rewritten from scratch by the resumed run.
    fn resume_sharded(
        &self,
        technique: Technique,
        sink: &mut dyn EventSink,
        start: std::time::Instant,
    ) -> Result<Resumed, ResumeError> {
        let tc = self.config.trace.as_ref().expect("checked by caller");
        let shards = self.config.shards;
        let cdigest = self.config.resume_digest();
        let pdigest = program_digest(self.program);
        let mut frames_salvaged = 0;
        let mut bytes_discarded = 0;
        let mut frames_discarded = 0;
        let mut damage = None;
        let mut shard_resume: Vec<Option<ResumeData>> = Vec::with_capacity(shards);
        for i in 0..shards {
            let path = shard_trace_path(&tc.path, i, shards);
            let rec: Recovery = match recover(&path) {
                Ok(rec) => rec,
                // Lost shard checkpoint: the shard re-runs live.
                Err(ResumeError::Io(_)) => {
                    shard_resume.push(None);
                    continue;
                }
                Err(e) => return Err(e),
            };
            if rec.header.technique != technique {
                return Err(ResumeError::HeaderMismatch {
                    field: "technique",
                    expected: rec.header.technique.name().to_string(),
                    found: technique.name().to_string(),
                });
            }
            if rec.header.program_digest != pdigest {
                return Err(ResumeError::HeaderMismatch {
                    field: "program_digest",
                    expected: format!("{:016x}", rec.header.program_digest),
                    found: format!("{pdigest:016x}"),
                });
            }
            let expected = shard_digest(cdigest, i, shards);
            if rec.header.config_digest != expected {
                return Err(ResumeError::HeaderMismatch {
                    field: "config_digest",
                    expected: format!("{:016x}", rec.header.config_digest),
                    found: format!("{expected:016x}"),
                });
            }
            frames_salvaged += rec.events.len();
            bytes_discarded += rec.bytes_discarded;
            frames_discarded += rec.frames_discarded;
            if damage.is_none() {
                damage = rec.damage;
            }
            shard_resume.push(Some(ResumeData {
                events: rec.events,
                ends: rec.ends,
                header_end: rec.header_end,
            }));
        }
        let (mut report, events_replayed) = self.engine().run_resumable(
            strategy::for_technique(technique),
            sink,
            None,
            shard_resume,
        );
        report.elapsed = start.elapsed();
        Ok(Resumed {
            report,
            recovery: RecoveryReport {
                frames_salvaged,
                events_replayed,
                bytes_discarded,
                frames_discarded,
                complete: false,
                damage,
            },
        })
    }
}

/// Result of [`Driver::resume_with_sink`]: the finished report plus a
/// summary of what trace recovery salvaged and replay consumed.
#[derive(Debug)]
pub struct Resumed {
    /// The finished campaign report.
    pub report: Report,
    /// What was salvaged from the trace and how much of it replayed.
    pub recovery: RecoveryReport,
}
