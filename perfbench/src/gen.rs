//! Seeded `mini` program generators for the benchmark workloads.
//!
//! Every generator returns source text; the benchmark parses and checks it
//! with `hotg_lang::parse`/`hotg_lang::check` like any other program, so
//! front-end cost is part of the measured set-up. The same seed always
//! yields the same text.

use hotg_lexapp::programs::{hashfunct, keyword_cells};
use std::fmt::Write as _;

/// splitmix64: a tiny deterministic stream, so generated programs depend
/// only on the benchmark seed and never on a host entropy source.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by a seed and a purpose tag, so each generator gets
    /// its own independent stream from one benchmark seed.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Scaled keyword lexer: `n` hashed keywords, three 4-cell tokens.
///
/// Why: the paper's §7 claim at a size where it costs something. The
/// parser expects a three-keyword sentence, and every flip is a validity
/// query whose antecedent holds the `n` keyword samples recorded at
/// start-up (the `addsym` loop), so proof search grows with `n`. Validity
/// proofs, EUF and LIA reasoning over sample tables do nearly all the
/// work; the VM runs a few hundred instructions. Isolates the
/// validity/strategy path of `hotg-solver`, seen as `core.target` self
/// time. The keywords and the sentence come from the seed.
pub fn keyword_lexer(seed: u64, n: usize) -> String {
    let mut rng = Rng::new(seed, 0x6b77 + n as u64);
    let mut words: Vec<[i64; 4]> = Vec::with_capacity(n);
    // No keyword may share a hash with another or with the campaign's
    // all-`a` initial tokens, so every seed gives the same branch shape.
    let mut hashes = vec![hashfunct(&[97; 4])];
    while words.len() < n {
        let len = rng.range(2, 4) as usize;
        let word: String = (0..len)
            .map(|_| (b'a' + rng.range(0, 25) as u8) as char)
            .collect();
        let cells = keyword_cells(&word);
        let h = hashfunct(&cells);
        if !hashes.contains(&h) {
            hashes.push(h);
            words.push(cells);
        }
    }
    let sentence: Vec<usize> = (0..3)
        .map(|_| rng.range(0, n as i64 - 1) as usize)
        .collect();
    let mut s = String::from("native hashfunct/4;\n");
    let _ = writeln!(s, "program kwlex{n}(buf: array[12]) {{");
    for (k, [a, b, c, d]) in words.iter().enumerate() {
        let _ = writeln!(s, "let kw{k} = hashfunct({a}, {b}, {c}, {d});");
    }
    for t in 0..3 {
        let o = 4 * t;
        let _ = writeln!(
            s,
            "let tok{t} = hashfunct(buf[{o}], buf[{}], buf[{}], buf[{}]);",
            o + 1,
            o + 2,
            o + 3
        );
    }
    let [a, b, c] = [sentence[0], sentence[1], sentence[2]];
    let _ = writeln!(
        s,
        "if (tok0 == kw{a}) {{\nif (tok1 == kw{b}) {{\nif (tok2 == kw{c}) {{ error(3); }}\nerror(2);\n}}\nerror(1);\n}}\nreturn;\n}}"
    );
    s
}

/// Wide-guard loop: an `array[w]` summed by a loop, then one linear
/// guard per element.
///
/// Why: every run of a DART campaign yields about `w` flip targets, each a
/// satisfiability query that must produce a model, so generations grow to
/// hundreds of targets and a 1000-run campaign is solver model-finding
/// plus engine scheduling and dedup, with no validity query at all — the
/// same solver layer as `keyword_lexer`, used the other way. Isolates
/// `solver.smt` model-finding and the engine's scheduler.
pub fn wide_guard(seed: u64, w: usize) -> String {
    let mut rng = Rng::new(seed, 0x7769 + w as u64);
    let mut s = String::new();
    let _ = writeln!(s, "program wide{w}(a: array[{w}]) {{");
    let _ = writeln!(
        s,
        "let sum = 0;\nlet i = 0;\nwhile (i < {w}) {{ sum = sum + a[i]; i = i + 1; }}\nlet hits = 0;"
    );
    for i in 0..w {
        let c = rng.range(2, 9);
        let t = rng.range(0, 500);
        let _ = writeln!(
            s,
            "if ({c} * a[{i}] - a[{}] > {t}) {{ hits = hits + 1; }}",
            (i + 1) % w
        );
    }
    // The sum target lies far below any sum the guard flips' small models
    // produce, so no seed reaches error(2) early by coincidence.
    let _ = writeln!(
        s,
        "if (hits == 2) {{ error(1); }}\nif (sum == {}) {{ error(2); }}\nreturn;\n}}",
        rng.range(-30000, -20000)
    );
    s
}

/// Long-running loop: an input-independent loop of `iters` iterations
/// ahead of a few symbolic guards.
///
/// Why: the solver has almost nothing to do — each guard constrains one or
/// two inputs and is decided in microseconds — but every run executes
/// `iters` loop iterations and records a branch path of about `2 * iters`
/// entries, and the guards admit a few hundred feasible paths for DART
/// to enumerate. The random leg exercises only the concrete VM; the DART
/// leg exercises the concolic VM and the engine's per-run bookkeeping over
/// long paths. Random testing reaches `error(1)` (one inequality) and
/// never `error(2)` (two equalities); DART reaches both. Isolates
/// `lang.vm`, `concolic` and `core.campaign` self time.
pub fn long_loop(seed: u64, iters: usize) -> String {
    let mut rng = Rng::new(seed, 0x6c6f + iters as u64);
    let (m, k) = (rng.range(3, 97), rng.range(1, 1000));
    let mut s = String::new();
    let _ = writeln!(
        s,
        "program long{iters}(a: array[8]) {{
let acc = {k};
let odd = 0;
let i = 0;
while (i < {iters}) {{
    acc = (acc * {m} + i) % 10007;
    if (acc % 2 == 1) {{ odd = odd + 1; }}
    i = i + 1;
}}"
    );
    for g in 0..5 {
        let _ = writeln!(
            s,
            "if (a[{g}] > {}) {{ odd = odd + 1; }}",
            rng.range(-500, 500)
        );
    }
    // The all-zero initial run reaches error(1), so every campaign's first
    // error comes with its first run. error(2)'s unique solution lies below
    // the error(1) threshold, so DART can reach it on the path that skips
    // error(1), and its first equation needs a difference beyond the random
    // range (±1000), so random testing never takes that branch.
    let g6 = rng.range(-990, -900);
    let x = g6 - rng.range(1, 400);
    let y = x - rng.range(2100, 2500);
    let _ = writeln!(
        s,
        "if (a[5] > {g6}) {{ error(1); }}
if (a[5] - a[6] == {}) {{
    if (a[5] + a[6] == {}) {{ error(2); }}
}}
return;
}}",
        x - y,
        x + y
    );
    s
}
