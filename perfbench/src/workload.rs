//! The benchmark's workloads: which programs each one runs, under which
//! techniques and budgets. `README.md` in this directory gives the
//! rationale and the layer each workload isolates.

use crate::gen;
use hotg_core::{DriverConfig, Technique};
use hotg_lang::{corpus, pretty, NativeRegistry, Program};
use hotg_lexapp::programs as lex;
use std::time::Duration;

/// Campaigns that run longer than this count as failed.
const CAMPAIGN_DEADLINE: Duration = Duration::from_secs(60);

/// Keyword counts of the scaled keyword lexers in `ho_lexers`: the largest
/// set that leaves three passes in a 40 s run on the reference host in
/// its busy phases; see `README.md` for the measured curve.
const LEXER_KEYWORDS: [usize; 6] = [4, 6, 8, 10, 12, 14];

/// Array widths of the `dart_wide` programs.
const WIDE_WIDTHS: [usize; 7] = [8, 12, 16, 20, 24, 28, 32];

/// Loop lengths of the `exec_long` programs.
const LONG_ITERS: [usize; 6] = [1000, 1250, 1500, 1750, 2000, 2500];

/// Wall time of one pass over a workload's campaigns on the reference host
/// (2-vCPU x86-64 VM) in its busy phases, seconds; quiet phases take about
/// 7 s. A run makes as many whole passes as fit its `--seconds`;
/// `floor(seconds / PASS_SECONDS)`, at least one, is the nominal pass
/// count that fixes the tail percentile, so the percentile has ten
/// campaigns beyond it even when the host is slow.
pub const PASS_SECONDS: f64 = 13.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HoLexers,
    DartWide,
    ExecLong,
}

/// One program of a workload, as the driver receives it: source text,
/// native implementations, campaign configuration, and the techniques
/// each pass runs on it.
#[derive(Clone)]
pub struct Spec {
    pub text: String,
    pub natives: NativeRegistry,
    pub config: DriverConfig,
    pub techniques: &'static [Technique],
    /// Error code every campaign on this program must trigger (the §7
    /// full-parse claim), checked by the correctness oracle.
    pub must_reach: Option<i64>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HoLexers, Workload::DartWide, Workload::ExecLong];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HoLexers => "ho_lexers",
            Workload::DartWide => "dart_wide",
            Workload::ExecLong => "exec_long",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's fixed programs: repository programs whose text does
    /// not depend on the seed. Their source is rendered once, before any
    /// timing, and re-parsed in every set-up.
    pub fn fixed(self) -> Vec<Spec> {
        if self != Workload::HoLexers {
            return Vec::new();
        }
        let mut out = Vec::new();
        let corpus = corpus::all()
            .into_iter()
            .map(|(_, ctor)| ctor())
            .chain((1..=8).map(corpus::kstep));
        for (program, natives) in corpus {
            let config = base(vec![0; program.input_width()], 200);
            out.push(fixed_spec(&program, natives, config, None));
        }
        type Ctor = fn() -> (Program, NativeRegistry);
        let lexers: [(Ctor, Option<i64>); 6] = [
            (lex::keyword_parser, Some(3)),
            (lex::scanning_parser, Some(2)),
            (lex::grammar_parser, None),
            (lex::collision_lexer, None),
            (lex::hardcoded_parser, None),
            (lex::findsym_parser, None),
        ];
        for (ctor, must_reach) in lexers {
            let (program, natives) = ctor();
            let config = DriverConfig {
                threads: 1,
                shards: 1,
                campaign_deadline: Some(CAMPAIGN_DEADLINE),
                ..hotg_lexapp::lexer_config(&program, 200)
            };
            out.push(fixed_spec(&program, natives, config, must_reach));
        }
        out
    }

    /// The workload's seeded programs. Generation is part of the timed
    /// set-up.
    pub fn generated(self, seed: u64) -> Vec<Spec> {
        match self {
            Workload::HoLexers => LEXER_KEYWORDS
                .iter()
                .map(|&n| {
                    let text = gen::keyword_lexer(seed, n);
                    Spec {
                        natives: lex::lexer_registry(),
                        config: DriverConfig {
                            seed,
                            random_range: (0, 127),
                            ..base(vec![97; 12], 200)
                        },
                        techniques: &[Technique::HigherOrder],
                        must_reach: Some(3),
                        text,
                    }
                })
                .collect(),
            Workload::DartWide => WIDE_WIDTHS
                .iter()
                .map(|&w| Spec {
                    text: gen::wide_guard(seed, w),
                    natives: NativeRegistry::new(),
                    config: DriverConfig {
                        seed,
                        ..base(vec![0; w], 1000)
                    },
                    techniques: &[Technique::DartSound, Technique::DartUnsound],
                    must_reach: None,
                })
                .collect(),
            Workload::ExecLong => LONG_ITERS
                .iter()
                .map(|&iters| Spec {
                    text: gen::long_loop(seed, iters),
                    natives: NativeRegistry::new(),
                    config: DriverConfig {
                        seed,
                        ..base(vec![0; 8], 1000)
                    },
                    techniques: &[Technique::Random, Technique::DartSound],
                    must_reach: None,
                })
                .collect(),
        }
    }
}

/// Campaign configuration shared by every workload: the repository
/// defaults, one thread and one shard (deterministic reports on a 2-core
/// host), and the per-campaign deadline.
fn base(initial: Vec<i64>, max_runs: usize) -> DriverConfig {
    DriverConfig {
        max_runs,
        threads: 1,
        shards: 1,
        campaign_deadline: Some(CAMPAIGN_DEADLINE),
        ..DriverConfig::with_initial(initial)
    }
}

fn fixed_spec(
    program: &Program,
    natives: NativeRegistry,
    config: DriverConfig,
    must_reach: Option<i64>,
) -> Spec {
    Spec {
        text: pretty::to_source(program),
        natives,
        config,
        techniques: &[Technique::HigherOrder],
        must_reach,
    }
}
