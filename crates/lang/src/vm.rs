//! Concrete bytecode VM: the campaign fast path for
//! [`CompiledProgram`]s.
//!
//! Behaviorally bit-identical to [`crate::interp::run`] on checked
//! programs: same outcomes, same branch/native-call traces, same
//! statement coverage, same fault messages, and — load-bearing for
//! `fuel_exhausted_runs` parity — the same fuel charging points:
//!
//! - one unit per statement, checked **before** the statement executes
//!   ([`Instr::Stmt`], mirroring the walker's `exec_block` prologue);
//! - one additional unit per `while` iteration, checked **before** the
//!   condition is evaluated ([`Instr::LoopGate`], mirroring the
//!   walker's loop prologue);
//! - no charge anywhere else — expressions, calls, and branch exits are
//!   free, exactly as in the walker.
//!
//! Per-run scratch (operand stack + call frames) lives in a
//! thread-local [`VmScratch`] pool so steady-state campaign runs
//! allocate nothing; reuse is invisible in results (see the
//! `scratch_reuse_is_invisible` test).

use crate::compile::{CompiledProgram, Instr};
use crate::diag::StmtId;
use crate::interp::{eval_binop, Fault, FaultKind, InputVector, Outcome, Trace};
use std::cell::RefCell;

/// Reusable per-worker execution scratch: the operand stack and a call
/// frame per nesting depth. Create once (or let the thread-local pool
/// in [`run_compiled`] do it) and reuse across runs.
#[derive(Debug, Default)]
pub struct VmScratch {
    stack: Vec<Val>,
    frames: Vec<Frame>,
}

impl VmScratch {
    /// Fresh, empty scratch.
    pub fn new() -> VmScratch {
        VmScratch::default()
    }
}

#[derive(Debug, Default)]
struct Frame {
    scalars: Vec<i64>,
    arrays: Vec<Vec<i64>>,
}

impl Frame {
    /// Sizes the frame for a block. Slots are *not* zeroed: a checked
    /// program writes every slot (param binding, `StoreScalar`,
    /// `InitArray`) before reading it, so stale values from a previous
    /// run are unobservable.
    fn size_for(&mut self, scalars: u32, arrays: usize) {
        if self.scalars.len() < scalars as usize {
            self.scalars.resize(scalars as usize, 0);
        }
        while self.arrays.len() < arrays {
            self.arrays.push(Vec::new());
        }
    }
}

/// An operand-stack value (same two-kind value space as
/// [`crate::interp::CVal`], kept separate so the stack is `Copy`).
#[derive(Clone, Copy, Debug)]
enum Val {
    Int(i64),
    Bool(bool),
}

impl Val {
    fn int(self) -> Result<i64, Fault> {
        match self {
            Val::Int(v) => Ok(v),
            Val::Bool(_) => Err(Fault::other("expected integer value")),
        }
    }

    fn bool(self) -> Result<bool, Fault> {
        match self {
            Val::Bool(v) => Ok(v),
            Val::Int(_) => Err(Fault::other("expected boolean value")),
        }
    }
}

/// How a block finished.
enum Exit {
    /// Fell off the end.
    Fall,
    /// Whole-program stop (`error`, `return;`, fuel exhaustion).
    Stop(Outcome),
    /// `return expr;` — value for the caller.
    Ret(i64),
}

struct Vm<'a, 's> {
    cp: &'a CompiledProgram,
    scratch: &'s mut VmScratch,
    trace: Trace,
    fuel: u64,
    instructions: u64,
}

impl<'a> Vm<'a, '_> {
    fn exec_block(&mut self, block_idx: usize, depth: usize) -> Result<Exit, Fault> {
        let cp = self.cp;
        let block = &cp.blocks[block_idx];
        let code = &block.code;
        let mut pc = 0usize;
        while let Some(instr) = code.get(pc) {
            pc += 1;
            self.instructions += 1;
            match *instr {
                Instr::Stmt(id) => {
                    if self.fuel == 0 {
                        return Ok(Exit::Stop(Outcome::OutOfFuel));
                    }
                    self.fuel -= 1;
                    self.trace.stmts.insert(id);
                }
                Instr::LoopGate => {
                    if self.fuel == 0 {
                        return Ok(Exit::Stop(Outcome::OutOfFuel));
                    }
                    self.fuel -= 1;
                }
                Instr::PushInt(v) => self.scratch.stack.push(Val::Int(v)),
                Instr::LoadScalar(slot) => {
                    let v = self.scratch.frames[depth].scalars[slot as usize];
                    self.scratch.stack.push(Val::Int(v));
                }
                Instr::LoadElem(slot) => {
                    let i = self.pop_operand().int()?;
                    let items = &self.scratch.frames[depth].arrays[slot as usize];
                    let len = items.len();
                    let v = usize::try_from(i)
                        .ok()
                        .and_then(|i| items.get(i).copied())
                        .ok_or_else(|| {
                            let name = &block.arrays[slot as usize].name;
                            Fault::new(
                                FaultKind::OutOfBounds,
                                format!("index {i} out of bounds for `{name}` (len {len})"),
                            )
                        })?;
                    self.scratch.stack.push(Val::Int(v));
                }
                Instr::StoreScalar(slot) => {
                    let v = self.pop_operand().int()?;
                    self.scratch.frames[depth].scalars[slot as usize] = v;
                }
                Instr::StoreElem(slot) => {
                    let v = self.pop_operand().int()?;
                    let i = self.pop_operand().int()?;
                    let items = &mut self.scratch.frames[depth].arrays[slot as usize];
                    let len = items.len();
                    let cell = usize::try_from(i)
                        .ok()
                        .and_then(|i| items.get_mut(i))
                        .ok_or_else(|| {
                            let name = &block.arrays[slot as usize].name;
                            Fault::new(
                                FaultKind::OutOfBounds,
                                format!("index {i} out of bounds for `{name}` (len {len})"),
                            )
                        })?;
                    *cell = v;
                }
                Instr::InitArray(slot) => {
                    let len = block.arrays[slot as usize].len;
                    let items = &mut self.scratch.frames[depth].arrays[slot as usize];
                    items.clear();
                    items.resize(len, 0);
                }
                Instr::Neg => {
                    let v = self.pop_operand().int()?;
                    let v = v.checked_neg().ok_or_else(|| {
                        Fault::new(FaultKind::Overflow, "arithmetic overflow in negation")
                    })?;
                    self.scratch.stack.push(Val::Int(v));
                }
                Instr::Not => {
                    let v = self.pop_operand().bool()?;
                    self.scratch.stack.push(Val::Bool(!v));
                }
                Instr::Bin(op) => {
                    let b = self.pop_operand();
                    let a = self.pop_operand();
                    let out = eval_binop(op, a.into(), b.into())?;
                    self.scratch.stack.push(out.into());
                }
                Instr::CallNative { native, argc } => {
                    let args = self.pop_ints(argc as usize)?;
                    let entry = &cp.natives[native as usize];
                    if entry.arity != args.len() {
                        return Err(Fault::native(format!(
                            "native `{}` expects {} arguments, got {}",
                            entry.name,
                            entry.arity,
                            args.len()
                        )));
                    }
                    let out = (entry.imp)(&args);
                    self.trace
                        .native_calls
                        .push((entry.name.clone(), args, out));
                    self.scratch.stack.push(Val::Int(out));
                }
                Instr::CallFn { func } => {
                    let f = &cp.funcs[func as usize];
                    let args = self.pop_ints(f.arity)?;
                    let target = &cp.blocks[f.block];
                    if self.scratch.frames.len() <= depth + 1 {
                        self.scratch.frames.push(Frame::default());
                    }
                    let frame = &mut self.scratch.frames[depth + 1];
                    frame.size_for(target.scalars, target.arrays.len());
                    frame.scalars[..args.len()].copy_from_slice(&args);
                    match self.exec_block(f.block, depth + 1)? {
                        Exit::Ret(v) => self.scratch.stack.push(Val::Int(v)),
                        Exit::Fall | Exit::Stop(Outcome::Returned) => {
                            return Err(Fault::other(format!(
                                "fn `{}` terminated without returning a value",
                                f.name
                            )));
                        }
                        Exit::Stop(o) => return Ok(Exit::Stop(o)),
                    }
                }
                Instr::UndefinedCall { name, argc } => {
                    let _ = self.pop_ints(argc as usize)?;
                    let name = &cp.strings[name as usize];
                    return Err(Fault::other(format!("callable `{name}` is not defined")));
                }
                Instr::Branch { id, if_false } => {
                    let taken = self.pop_operand().bool()?;
                    self.trace.branches.push((id, taken));
                    if !taken {
                        pc = if_false as usize;
                    }
                }
                Instr::Jump(target) => pc = target as usize,
                Instr::Error(code) => return Ok(Exit::Stop(Outcome::Error(code))),
                Instr::ReturnBare => return Ok(Exit::Stop(Outcome::Returned)),
                Instr::ReturnValue => {
                    let v = self.pop_operand().int()?;
                    return Ok(Exit::Ret(v));
                }
            }
        }
        Ok(Exit::Fall)
    }

    fn pop_operand(&mut self) -> Val {
        self.scratch
            .stack
            .pop()
            .expect("compiled code keeps the operand stack balanced")
    }

    fn pop_ints(&mut self, n: usize) -> Result<Vec<i64>, Fault> {
        let at = self.scratch.stack.len() - n;
        let mut out = Vec::with_capacity(n);
        for v in self.scratch.stack.drain(at..) {
            out.push(v.int()?);
        }
        Ok(out)
    }
}

impl From<Val> for crate::interp::CVal {
    fn from(v: Val) -> Self {
        match v {
            Val::Int(i) => crate::interp::CVal::Int(i),
            Val::Bool(b) => crate::interp::CVal::Bool(b),
        }
    }
}

impl From<crate::interp::CVal> for Val {
    fn from(v: crate::interp::CVal) -> Self {
        match v {
            crate::interp::CVal::Int(i) => Val::Int(i),
            crate::interp::CVal::Bool(b) => Val::Bool(b),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<VmScratch> = RefCell::new(VmScratch::new());
}

/// Runs a compiled program on concrete inputs: the drop-in fast
/// replacement for [`crate::interp::run`].
///
/// # Panics
///
/// Panics if the input vector width does not match the program (same
/// contract as [`InputVector::bind`]).
pub fn run_compiled(cp: &CompiledProgram, inputs: &InputVector, fuel: u64) -> (Outcome, Trace) {
    let (outcome, trace, _) = run_compiled_counted(cp, inputs, fuel);
    (outcome, trace)
}

/// Like [`run_compiled`], additionally returning the number of bytecode
/// instructions retired (for `ExecStats` accounting).
pub fn run_compiled_counted(
    cp: &CompiledProgram,
    inputs: &InputVector,
    fuel: u64,
) -> (Outcome, Trace, u64) {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => run_compiled_with_scratch(&mut scratch, cp, inputs, fuel),
        // A native implementation re-entered the VM on this thread;
        // fall back to fresh scratch for the nested run.
        Err(_) => run_compiled_with_scratch(&mut VmScratch::new(), cp, inputs, fuel),
    })
}

/// [`run_compiled_counted`] against caller-owned scratch (used by tests
/// proving scratch reuse is invisible; campaigns use the thread-local
/// pool).
pub fn run_compiled_with_scratch(
    scratch: &mut VmScratch,
    cp: &CompiledProgram,
    inputs: &InputVector,
    fuel: u64,
) -> (Outcome, Trace, u64) {
    assert_eq!(inputs.len(), cp.input_width, "input vector width mismatch");
    scratch.stack.clear();
    if scratch.frames.is_empty() {
        scratch.frames.push(Frame::default());
    }
    let main = &cp.blocks[cp.main];
    {
        let frame = &mut scratch.frames[0];
        frame.size_for(main.scalars, main.arrays.len());
        let mut i = 0usize;
        for p in &cp.params {
            match *p {
                crate::compile::ParamSlot::Scalar(slot) => {
                    frame.scalars[slot as usize] = inputs.get(i).expect("width checked");
                    i += 1;
                }
                crate::compile::ParamSlot::Array(slot, len) => {
                    let arr = &mut frame.arrays[slot as usize];
                    arr.clear();
                    arr.extend((i..i + len).map(|k| inputs.get(k).expect("width checked")));
                    i += len;
                }
            }
        }
    }
    let main_idx = cp.main;
    let mut vm = Vm {
        cp,
        scratch,
        trace: Trace::default(),
        fuel,
        instructions: 0,
    };
    let (outcome, trace) = match vm.exec_block(main_idx, 0) {
        Ok(Exit::Fall) | Ok(Exit::Stop(Outcome::Returned)) | Ok(Exit::Ret(_)) => {
            (Outcome::Returned, vm.trace)
        }
        Ok(Exit::Stop(outcome)) => (outcome, vm.trace),
        Err(fault) => (Outcome::RuntimeFault(fault), vm.trace),
    };
    let instructions = vm.instructions;
    (outcome, trace, instructions)
}

/// Pre-order statement ids executed, as [`StmtId`]s (convenience for
/// coverage comparisons against [`crate::interp::run`]'s traces).
pub fn executed_stmt_ids(trace: &Trace) -> Vec<StmtId> {
    trace.stmts.iter().map(|&i| StmtId(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::interp::{run, NativeRegistry};
    use crate::parser::parse;

    fn compiled(src: &str, natives: &NativeRegistry) -> CompiledProgram {
        let p = parse(src).unwrap();
        compile(&p, natives).unwrap()
    }

    /// Runs tree-walker and VM side by side and asserts identical
    /// observable behavior (outcome, branches, native calls, stmts).
    fn assert_identical(src: &str, natives: &NativeRegistry, inputs: Vec<i64>, fuel: u64) {
        let p = parse(src).unwrap();
        let cp = compile(&p, natives).unwrap();
        let iv = InputVector::new(inputs);
        let (to, tt) = run(&p, natives, &iv, fuel);
        let (vo, vt) = run_compiled(&cp, &iv, fuel);
        assert_eq!(to, vo, "outcome mismatch");
        assert_eq!(tt.branches, vt.branches, "branch trace mismatch");
        assert_eq!(tt.native_calls, vt.native_calls, "native calls mismatch");
        assert_eq!(tt.stmts, vt.stmts, "statement coverage mismatch");
    }

    #[test]
    fn straight_line_matches_walker() {
        assert_identical(
            "program t(x: int) { let a = x + 1; if (a == 5) { error(9); } return; }",
            &NativeRegistry::new(),
            vec![4],
            100,
        );
    }

    #[test]
    fn loops_arrays_and_functions_match_walker() {
        let src = r#"
            fn double(v: int) { return v * 2; }
            program t(x: int, buf: array[3]) {
                let acc[2];
                let i = 0;
                while (i < 3) {
                    acc[0] = acc[0] + buf[i];
                    i = i + 1;
                }
                acc[1] = double(acc[0]);
                if (acc[1] == x) { error(3); }
                return;
            }
        "#;
        for x in [-2, 0, 6, 12] {
            assert_identical(src, &NativeRegistry::new(), vec![x, 1, 2, 3], 1000);
        }
    }

    /// Fuel-accounting audit: the VM charges fuel at exactly the
    /// walker's points, so exhaustion happens on the same statement for
    /// *every* fuel value from 0 up to the program's full cost.
    #[test]
    fn fuel_charging_points_match_walker_exactly() {
        let srcs = [
            "program t(x: int) { let i = 0; while (i < x) { i = i + 1; } return; }",
            r#"
            fn spin(v: int) {
                let i = 0;
                while (i < v) { i = i + 1; }
                return i;
            }
            program t(x: int) { let a = spin(x); let b = a + 1; return; }
            "#,
            r#"program t(x: int) {
                let j = 0;
                while (j < x) {
                    let tmp[2];
                    tmp[0] = j;
                    if (tmp[0] == 3) { let z = 1; } else { let z = 2; }
                    j = j + 1;
                }
                return;
            }"#,
        ];
        let n = NativeRegistry::new();
        for src in srcs {
            let p = parse(src).unwrap();
            let cp = compile(&p, &n).unwrap();
            let iv = InputVector::new(vec![5]);
            for fuel in 0..200 {
                let (to, tt) = run(&p, &n, &iv, fuel);
                let (vo, vt) = run_compiled(&cp, &iv, fuel);
                assert_eq!(to, vo, "outcome diverged at fuel {fuel}");
                assert_eq!(
                    tt.branches, vt.branches,
                    "branch trace diverged at fuel {fuel}"
                );
                assert_eq!(tt.stmts, vt.stmts, "coverage diverged at fuel {fuel}");
            }
        }
    }

    #[test]
    fn faults_match_walker() {
        let n = NativeRegistry::new();
        // Out of bounds (negative and too-large), div by zero, overflow.
        assert_identical(
            "program t(buf: array[2], i: int) { let a = buf[i]; return; }",
            &n,
            vec![1, 2, 5],
            100,
        );
        assert_identical(
            "program t(buf: array[2], i: int) { let a = buf[i]; return; }",
            &n,
            vec![1, 2, -1],
            100,
        );
        assert_identical(
            "program t(x: int) { let a = 10 / x; return; }",
            &n,
            vec![0],
            100,
        );
        assert_identical(
            "program t(x: int) { let a = x * x; return; }",
            &n,
            vec![i64::MAX],
            100,
        );
        assert_identical(
            "program t(x: int) { let a = 0 - x; let b = a - 1; return; }",
            &n,
            vec![i64::MAX],
            100,
        );
    }

    #[test]
    fn native_calls_and_undefined_callables_match_walker() {
        let mut n = NativeRegistry::new();
        n.register("hash", 1, |a| a[0].wrapping_mul(13) % 1000);
        assert_identical(
            "native hash/1; program t(x: int, y: int) { if (x == hash(y) && y == hash(x)) { error(1); } return; }",
            &n,
            vec![33, 42],
            100,
        );
        // Declared but unregistered native: identical fault.
        assert_identical(
            "native hash/1; program t(x: int) { let a = hash(x); return; }",
            &NativeRegistry::new(),
            vec![7],
            100,
        );
    }

    #[test]
    fn shadowing_matches_walker() {
        let src = r#"program t(x: int) {
            let a = 1;
            if (x == 0) { let a = 2; if (a == 2) { error(7); } }
            if (a == 1) { error(1); }
            return;
        }"#;
        assert_identical(src, &NativeRegistry::new(), vec![0], 100);
        assert_identical(src, &NativeRegistry::new(), vec![1], 100);
    }

    #[test]
    fn loop_body_redeclares_arrays() {
        // The walker re-creates `tmp` zeroed on every iteration; the VM's
        // InitArray must do the same, not keep the previous iteration's
        // contents.
        let src = r#"program t(x: int) {
            let i = 0;
            while (i < 3) {
                let tmp[2];
                if (tmp[0] == 0) { tmp[0] = i + 1; } else { error(9); }
                i = i + 1;
            }
            return;
        }"#;
        assert_identical(src, &NativeRegistry::new(), vec![0], 1000);
    }

    #[test]
    fn corpus_matches_walker_on_probe_inputs() {
        for (name, ctor) in crate::corpus::all() {
            let (p, n) = ctor();
            let cp = compile(&p, &n).unwrap();
            let width = p.input_width();
            for seed in 0..16i64 {
                let inputs: Vec<i64> = (0..width)
                    .map(|k| seed.wrapping_mul(2654435761).wrapping_add(k as i64 * 97) % 1000)
                    .collect();
                let iv = InputVector::new(inputs);
                let (to, tt) = run(&p, &n, &iv, 10_000);
                let (vo, vt) = run_compiled(&cp, &iv, 10_000);
                assert_eq!(to, vo, "{name}: outcome mismatch on seed {seed}");
                assert_eq!(tt.branches, vt.branches, "{name}: branches seed {seed}");
                assert_eq!(
                    tt.native_calls, vt.native_calls,
                    "{name}: natives seed {seed}"
                );
                assert_eq!(tt.stmts, vt.stmts, "{name}: coverage seed {seed}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        let (p, n) = crate::corpus::fanout();
        let cp = compile(&p, &n).unwrap();
        let mut scratch = VmScratch::new();
        let iv = InputVector::new(vec![3; p.input_width()]);
        let fresh = run_compiled_with_scratch(&mut VmScratch::new(), &cp, &iv, 10_000);
        for _ in 0..3 {
            let reused = run_compiled_with_scratch(&mut scratch, &cp, &iv, 10_000);
            assert_eq!(fresh.0, reused.0);
            assert_eq!(fresh.1.branches, reused.1.branches);
            assert_eq!(fresh.1.native_calls, reused.1.native_calls);
            assert_eq!(fresh.1.stmts, reused.1.stmts);
            assert_eq!(fresh.2, reused.2);
        }
        // And reuse across *different* programs on the same scratch.
        let (p2, n2) = crate::corpus::budget_cliff();
        let cp2 = compile(&p2, &n2).unwrap();
        let iv2 = InputVector::new(vec![9; p2.input_width()]);
        let a = run_compiled_with_scratch(&mut scratch, &cp2, &iv2, 10_000);
        let b = run_compiled_with_scratch(&mut VmScratch::new(), &cp2, &iv2, 10_000);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.branches, b.1.branches);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn instruction_count_is_positive_and_deterministic() {
        let cp = compiled(
            "program t(x: int) { let i = 0; while (i < x) { i = i + 1; } return; }",
            &NativeRegistry::new(),
        );
        let iv = InputVector::new(vec![10]);
        let (_, _, a) = run_compiled_counted(&cp, &iv, 10_000);
        let (_, _, b) = run_compiled_counted(&cp, &iv, 10_000);
        assert!(a > 0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics_like_bind() {
        let cp = compiled(
            "program t(x: int, y: int) { return; }",
            &NativeRegistry::new(),
        );
        let _ = run_compiled(&cp, &InputVector::new(vec![1]), 100);
    }
}
