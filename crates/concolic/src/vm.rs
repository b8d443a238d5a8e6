//! Concolic shadow VM: executes a [`CompiledProgram`] carrying a
//! `(concrete, symbolic)` pair per operand and frame slot, producing
//! [`ConcolicRun`]s bit-identical to the tree-walking executor in
//! [`crate::exec`].
//!
//! The symbolic semantics — concretization policy, delayed
//! concretization, IOF sampling, uninterpreted applications, branch
//! recording and the summarized-call suppress counter — are not
//! reimplemented here: the VM drives the same [`SymSide`] core the
//! walker drives, at the same points in the same order. What the VM
//! replaces is only the *driving* machinery: name-hashed environments
//! become index-addressed frame slots, and the AST walk becomes flat
//! bytecode dispatch.
//!
//! Fuel is charged at exactly the walker's points (see
//! `hotg_lang::vm`'s module docs): one unit per [`Instr::Stmt`]
//! (check-then-decrement before the statement), one per
//! [`Instr::LoopGate`] (before each `while` condition), nothing else.
//!
//! Per-run scratch (operand stack + frames) is pooled per worker thread
//! so steady-state campaign runs allocate only what the symbolic side
//! itself produces (terms, constraints, samples).

use crate::context::ConcolicContext;
use crate::exec::{ConcolicRun, ExecProfile, Sym, SymSide};
use hotg_lang::compile::{CompiledProgram, Instr, ParamSlot};
use hotg_lang::{eval_binop, CVal, Fault, FaultKind, InputVector, Outcome};
use hotg_logic::{FuncSym, Term};
use std::cell::RefCell;

/// Reusable per-worker scratch for the shadow VM: the `(concrete,
/// symbolic)` operand stack and one frame per call depth.
#[derive(Debug, Default)]
pub struct ConcolicScratch {
    stack: Vec<(CVal, Sym)>,
    frames: Vec<Frame>,
}

impl ConcolicScratch {
    /// Fresh, empty scratch.
    pub fn new() -> ConcolicScratch {
        ConcolicScratch::default()
    }
}

#[derive(Debug, Default)]
struct Frame {
    scalars: Vec<i64>,
    sterms: Vec<Term>,
    arrays: Vec<Vec<i64>>,
    sarrays: Vec<Vec<Term>>,
}

impl Frame {
    /// Sizes the frame for a block; slots are written before read in
    /// checked programs, so stale values are unobservable (same argument
    /// as the concrete VM's frames).
    fn size_for(&mut self, scalars: u32, arrays: usize) {
        if self.scalars.len() < scalars as usize {
            self.scalars.resize(scalars as usize, 0);
        }
        if self.sterms.len() < scalars as usize {
            self.sterms.resize(scalars as usize, Term::int(0));
        }
        while self.arrays.len() < arrays {
            self.arrays.push(Vec::new());
        }
        while self.sarrays.len() < arrays {
            self.sarrays.push(Vec::new());
        }
    }
}

/// How a block finished.
enum Exit {
    Fall,
    Stop(Outcome),
    Ret(i64, Term),
}

struct Vm<'a, 's> {
    ctx: &'a ConcolicContext,
    cp: &'a CompiledProgram,
    inputs: &'a InputVector,
    scratch: &'s mut ConcolicScratch,
    sym: SymSide,
    /// Per-native-table signature symbols, resolved once per run.
    native_syms: Vec<Option<FuncSym>>,
    /// Per-function-table signature symbols (for summarized calls).
    defined_syms: Vec<Option<FuncSym>>,
    fuel: u64,
    instructions: u64,
}

impl Vm<'_, '_> {
    fn exec_block(&mut self, block_idx: usize, depth: usize) -> Result<Exit, Fault> {
        let cp = self.cp;
        let block = &cp.blocks[block_idx];
        let code = &block.code;
        let mut pc = 0usize;
        while let Some(instr) = code.get(pc) {
            pc += 1;
            self.instructions += 1;
            match *instr {
                Instr::Stmt(_) => {
                    // The concolic walker does not record statement
                    // coverage (engine coverage is branch-based), so the
                    // id is fuel-gate-only here.
                    if self.fuel == 0 {
                        return Ok(Exit::Stop(Outcome::OutOfFuel));
                    }
                    self.fuel -= 1;
                }
                Instr::LoopGate => {
                    if self.fuel == 0 {
                        return Ok(Exit::Stop(Outcome::OutOfFuel));
                    }
                    self.fuel -= 1;
                }
                Instr::PushInt(v) => self
                    .scratch
                    .stack
                    .push((CVal::Int(v), Sym::I(Term::int(v)))),
                Instr::LoadScalar(slot) => {
                    let frame = &self.scratch.frames[depth];
                    let c = frame.scalars[slot as usize];
                    let t = frame.sterms[slot as usize].clone();
                    self.scratch.stack.push((CVal::Int(c), Sym::I(t)));
                }
                Instr::LoadElem(slot) => {
                    let (ci, si) = self.pop_operand();
                    let i = ci.int()?;
                    let idx_term = si.int();
                    let frame = &self.scratch.frames[depth];
                    let items = &frame.arrays[slot as usize];
                    let len = items.len();
                    let value = usize::try_from(i)
                        .ok()
                        .and_then(|i| items.get(i).copied())
                        .ok_or_else(|| {
                            let name = &block.arrays[slot as usize].name;
                            Fault::new(
                                FaultKind::OutOfBounds,
                                format!("index {i} out of bounds for `{name}` (len {len})"),
                            )
                        })?;
                    let term = if matches!(idx_term, Term::Int(_)) {
                        // Concrete index: precise symbolic select.
                        frame.sarrays[slot as usize][i as usize].clone()
                    } else {
                        // Symbolic index: unknown instruction in every
                        // mode — pin the index and selected element
                        // (same as the walker's `Expr::Index` arm).
                        let elem = frame.sarrays[slot as usize][i as usize].clone();
                        let combined = idx_term + elem;
                        self.sym.concretize(self.inputs, &combined, value)
                    };
                    self.scratch.stack.push((CVal::Int(value), Sym::I(term)));
                }
                Instr::StoreScalar(slot) => {
                    let (c, s) = self.pop_operand();
                    let v = c.int()?;
                    let frame = &mut self.scratch.frames[depth];
                    frame.scalars[slot as usize] = v;
                    frame.sterms[slot as usize] = s.int();
                }
                Instr::StoreElem(slot) => {
                    let (cv, sv) = self.pop_operand();
                    let (ci, si) = self.pop_operand();
                    let i = ci.int()?;
                    let v = cv.int()?;
                    let idx_term = si.int();
                    let val_term = sv.int();
                    if !matches!(idx_term, Term::Int(_)) {
                        // Symbolic store index: pin it (sound in all
                        // modes but unsound-concretize), store under the
                        // concrete cell — walker's `AssignIndex` arm.
                        let _ = self.sym.concretize(self.inputs, &idx_term, i);
                    }
                    let frame = &mut self.scratch.frames[depth];
                    let items = &mut frame.arrays[slot as usize];
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
                    frame.sarrays[slot as usize][i as usize] = val_term;
                }
                Instr::InitArray(slot) => {
                    let len = block.arrays[slot as usize].len;
                    let frame = &mut self.scratch.frames[depth];
                    let items = &mut frame.arrays[slot as usize];
                    items.clear();
                    items.resize(len, 0);
                    let sitems = &mut frame.sarrays[slot as usize];
                    sitems.clear();
                    sitems.resize(len, Term::int(0));
                }
                Instr::Neg => {
                    let (c, s) = self.pop_operand();
                    let v = c.int()?.checked_neg().ok_or_else(|| {
                        Fault::new(FaultKind::Overflow, "arithmetic overflow in negation")
                    })?;
                    self.scratch.stack.push((CVal::Int(v), Sym::I(-s.int())));
                }
                Instr::Not => {
                    let (c, s) = self.pop_operand();
                    let v = !c.bool()?;
                    self.scratch
                        .stack
                        .push((CVal::Bool(v), Sym::B(s.boolean().negate())));
                }
                Instr::Bin(op) => {
                    let (cb, sb) = self.pop_operand();
                    let (ca, sa) = self.pop_operand();
                    let cv = eval_binop(op, ca, cb)?;
                    let sym = self
                        .sym
                        .symbolic_binop(self.ctx, self.inputs, op, sa, sb, ca, cb, cv)
                        .map_err(Fault::other)?;
                    self.scratch.stack.push((cv, sym));
                }
                Instr::CallNative { native, argc } => {
                    let (cvals, terms) = self.pop_args(argc as usize)?;
                    let entry = &cp.natives[native as usize];
                    if entry.arity != cvals.len() {
                        return Err(Fault::native(format!(
                            "native `{}` expects {} arguments, got {}",
                            entry.name,
                            entry.arity,
                            cvals.len()
                        )));
                    }
                    let out = (entry.imp)(&cvals);
                    self.sym
                        .trace
                        .native_calls
                        .push((entry.name.clone(), cvals.clone(), out));
                    let fsym = self.native_syms[native as usize].ok_or_else(|| {
                        Fault::other(format!("native `{}` not in context", entry.name))
                    })?;
                    let term = self
                        .sym
                        .native_result(self.inputs, fsym, &cvals, terms, out);
                    self.scratch.stack.push((CVal::Int(out), Sym::I(term)));
                }
                Instr::CallFn { func } => {
                    let f = &cp.funcs[func as usize];
                    let (cvals, terms) = self.pop_args(f.arity)?;
                    if self.sym.summarize_calls {
                        // §8 compositional mode: concrete body execution
                        // with recording suppressed, then a sampled
                        // uninterpreted application.
                        let fsym = self.defined_syms[func as usize].ok_or_else(|| {
                            Fault::other(format!("fn `{}` not in context", f.name))
                        })?;
                        self.sym.suppress += 1;
                        let concrete_terms: Vec<Term> =
                            cvals.iter().map(|v| Term::int(*v)).collect();
                        let res = self.call_fn(func as usize, depth, &cvals, concrete_terms);
                        self.sym.suppress -= 1;
                        match res? {
                            Ok((out, _)) => {
                                let term = self.sym.summarized_result(fsym, &cvals, terms, out);
                                self.scratch.stack.push((CVal::Int(out), Sym::I(term)));
                            }
                            Err(stop) => return Ok(Exit::Stop(stop)),
                        }
                    } else {
                        match self.call_fn(func as usize, depth, &cvals, terms)? {
                            Ok((out, t)) => self.scratch.stack.push((CVal::Int(out), Sym::I(t))),
                            Err(stop) => return Ok(Exit::Stop(stop)),
                        }
                    }
                }
                Instr::UndefinedCall { name, argc } => {
                    let _ = self.pop_args(argc as usize)?;
                    let name = &cp.strings[name as usize];
                    return Err(Fault::other(format!("callable `{name}` is not defined")));
                }
                Instr::Branch { id, if_false } => {
                    let (c, s) = self.pop_operand();
                    let taken = c.bool()?;
                    let formula = s.boolean();
                    self.sym
                        .record_branch(self.ctx, self.inputs, id, taken, formula);
                    if !taken {
                        pc = if_false as usize;
                    }
                }
                Instr::Jump(target) => pc = target as usize,
                Instr::Error(code) => return Ok(Exit::Stop(Outcome::Error(code))),
                Instr::ReturnBare => return Ok(Exit::Stop(Outcome::Returned)),
                Instr::ReturnValue => {
                    let (c, s) = self.pop_operand();
                    return Ok(Exit::Ret(c.int()?, s.int()));
                }
            }
        }
        Ok(Exit::Fall)
    }

    /// Runs a defined function's block in a fresh frame. The outer
    /// `Result` is a fault; the inner one distinguishes a returned value
    /// from a whole-program stop raised inside the body (the walker's
    /// `Halt::Stop`).
    #[allow(clippy::type_complexity)]
    fn call_fn(
        &mut self,
        func: usize,
        depth: usize,
        cvals: &[i64],
        terms: Vec<Term>,
    ) -> Result<Result<(i64, Term), Outcome>, Fault> {
        let f = &self.cp.funcs[func];
        let target = &self.cp.blocks[f.block];
        if self.scratch.frames.len() <= depth + 1 {
            self.scratch.frames.push(Frame::default());
        }
        let frame = &mut self.scratch.frames[depth + 1];
        frame.size_for(target.scalars, target.arrays.len());
        frame.scalars[..cvals.len()].copy_from_slice(cvals);
        for (slot, t) in terms.into_iter().enumerate() {
            frame.sterms[slot] = t;
        }
        let block = f.block;
        let name_idx = func;
        match self.exec_block(block, depth + 1)? {
            Exit::Ret(v, t) => Ok(Ok((v, t))),
            Exit::Fall | Exit::Stop(Outcome::Returned) => Err(Fault::other(format!(
                "fn `{}` terminated without returning a value",
                self.cp.funcs[name_idx].name
            ))),
            Exit::Stop(o) => Ok(Err(o)),
        }
    }

    fn pop_operand(&mut self) -> (CVal, Sym) {
        self.scratch
            .stack
            .pop()
            .expect("compiled code keeps the operand stack balanced")
    }

    /// Pops `n` argument pairs in call order, coercing the concrete side
    /// to integers (the walker coerces each argument as it evaluates).
    fn pop_args(&mut self, n: usize) -> Result<(Vec<i64>, Vec<Term>), Fault> {
        let at = self.scratch.stack.len() - n;
        let mut cvals = Vec::with_capacity(n);
        let mut terms = Vec::with_capacity(n);
        for (c, s) in self.scratch.stack.drain(at..) {
            cvals.push(c.int()?);
            terms.push(s.int());
        }
        Ok((cvals, terms))
    }
}

thread_local! {
    static SCRATCH: RefCell<ConcolicScratch> = RefCell::new(ConcolicScratch::new());
}

/// Runs one concolic execution of a compiled program under a strategy's
/// [`ExecProfile`]: the bytecode fast path for
/// [`crate::execute_profiled`]. Uses the per-thread scratch pool.
///
/// # Panics
///
/// Panics if the input vector width does not match the program.
pub fn execute_compiled_profiled(
    ctx: &ConcolicContext,
    cp: &CompiledProgram,
    inputs: &InputVector,
    fuel: u64,
    profile: ExecProfile,
) -> ConcolicRun {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => {
            execute_compiled_with_scratch(&mut scratch, ctx, cp, inputs, fuel, profile)
        }
        // A native implementation re-entered the VM on this thread; use
        // fresh scratch for the nested run.
        Err(_) => execute_compiled_with_scratch(
            &mut ConcolicScratch::new(),
            ctx,
            cp,
            inputs,
            fuel,
            profile,
        ),
    })
}

/// [`execute_compiled_profiled`] against caller-owned scratch (used by
/// the determinism tests; campaigns use the thread-local pool).
pub fn execute_compiled_with_scratch(
    scratch: &mut ConcolicScratch,
    ctx: &ConcolicContext,
    cp: &CompiledProgram,
    inputs: &InputVector,
    fuel: u64,
    profile: ExecProfile,
) -> ConcolicRun {
    assert_eq!(inputs.len(), cp.input_width, "input vector width mismatch");
    scratch.stack.clear();
    if scratch.frames.is_empty() {
        scratch.frames.push(Frame::default());
    }
    let main = &cp.blocks[cp.main];
    {
        let frame = &mut scratch.frames[0];
        frame.size_for(main.scalars, main.arrays.len());
        let mut flat = 0usize;
        for p in &cp.params {
            match *p {
                ParamSlot::Scalar(slot) => {
                    frame.scalars[slot as usize] = inputs.get(flat).expect("width checked");
                    frame.sterms[slot as usize] = ctx.input_term(flat);
                    flat += 1;
                }
                ParamSlot::Array(slot, len) => {
                    let arr = &mut frame.arrays[slot as usize];
                    arr.clear();
                    arr.extend((flat..flat + len).map(|k| inputs.get(k).expect("width checked")));
                    let sarr = &mut frame.sarrays[slot as usize];
                    sarr.clear();
                    sarr.extend((0..len).map(|k| ctx.input_term(flat + k)));
                    flat += len;
                }
            }
        }
    }
    let native_syms = cp.natives.iter().map(|n| ctx.native_sym(&n.name)).collect();
    let defined_syms = cp.funcs.iter().map(|f| ctx.defined_sym(&f.name)).collect();
    let main_idx = cp.main;
    let mut vm = Vm {
        ctx,
        cp,
        inputs,
        scratch,
        sym: SymSide::new(profile.mode, profile.summarize_calls),
        native_syms,
        defined_syms,
        fuel,
        instructions: 0,
    };
    let mut result = None;
    let mut result_term = None;
    let outcome = match vm.exec_block(main_idx, 0) {
        Ok(Exit::Fall) | Ok(Exit::Stop(Outcome::Returned)) => Outcome::Returned,
        Ok(Exit::Ret(v, t)) => {
            result = Some(v);
            result_term = Some(t);
            Outcome::Returned
        }
        Ok(Exit::Stop(o)) => o,
        Err(fault) => Outcome::RuntimeFault(fault),
    };
    let instructions = vm.instructions;
    vm.sym.finish(outcome, result, result_term, instructions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_opts, SymbolicMode};
    use hotg_lang::compile::compile;
    use hotg_lang::corpus;

    /// Field-by-field equality of everything observable in a run
    /// (`instructions` excluded: it is announcement-only accounting).
    fn assert_runs_equal(a: &ConcolicRun, b: &ConcolicRun, what: &str) {
        assert_eq!(a.outcome, b.outcome, "{what}: outcome");
        assert_eq!(a.trace.branches, b.trace.branches, "{what}: branches");
        assert_eq!(
            a.trace.native_calls, b.trace.native_calls,
            "{what}: native calls"
        );
        assert_eq!(a.pc, b.pc, "{what}: path constraint");
        assert_eq!(a.samples, b.samples, "{what}: samples");
        assert_eq!(
            a.concretizations, b.concretizations,
            "{what}: concretizations"
        );
        assert_eq!(a.uf_apps, b.uf_apps, "{what}: uf_apps");
        assert_eq!(a.result, b.result, "{what}: result");
        assert_eq!(a.result_term, b.result_term, "{what}: result term");
    }

    #[test]
    fn shadow_vm_matches_walker_across_corpus_and_modes() {
        for (name, ctor) in corpus::all() {
            let (program, natives) = ctor();
            let ctx = ConcolicContext::new(&program);
            let cp = compile(&program, &natives).unwrap();
            let width = program.input_width();
            for mode in SymbolicMode::ALL {
                for summarize in [false, true] {
                    for seed in 0..4i64 {
                        let inputs: Vec<i64> = (0..width)
                            .map(|k| {
                                seed.wrapping_mul(2654435761).wrapping_add(k as i64 * 131) % 500
                            })
                            .collect();
                        let iv = InputVector::new(inputs);
                        let tree =
                            execute_opts(&ctx, &program, &natives, &iv, mode, 10_000, summarize);
                        let vm = execute_compiled_profiled(
                            &ctx,
                            &cp,
                            &iv,
                            10_000,
                            ExecProfile {
                                mode,
                                summarize_calls: summarize,
                            },
                        );
                        assert_runs_equal(
                            &tree,
                            &vm,
                            &format!("{name}/{:?}/summarize={summarize}/seed={seed}", mode),
                        );
                        assert!(vm.instructions > 0, "{name}: instructions retired");
                    }
                }
            }
        }
    }

    #[test]
    fn shadow_vm_fuel_points_match_walker() {
        let (program, natives) = corpus::crc_guard();
        let ctx = ConcolicContext::new(&program);
        let cp = compile(&program, &natives).unwrap();
        let iv = InputVector::new(vec![7; program.input_width()]);
        for fuel in 0..150 {
            let tree = execute_opts(
                &ctx,
                &program,
                &natives,
                &iv,
                SymbolicMode::Uninterpreted,
                fuel,
                false,
            );
            let vm = execute_compiled_profiled(
                &ctx,
                &cp,
                &iv,
                fuel,
                ExecProfile::new(SymbolicMode::Uninterpreted),
            );
            assert_runs_equal(&tree, &vm, &format!("fuel={fuel}"));
        }
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        let (program, natives) = corpus::fanout();
        let ctx = ConcolicContext::new(&program);
        let cp = compile(&program, &natives).unwrap();
        let iv = InputVector::new(vec![3; program.input_width()]);
        let profile = ExecProfile::new(SymbolicMode::Uninterpreted);
        let mut scratch = ConcolicScratch::new();
        let fresh = execute_compiled_with_scratch(
            &mut ConcolicScratch::new(),
            &ctx,
            &cp,
            &iv,
            10_000,
            profile,
        );
        for _ in 0..3 {
            let reused =
                execute_compiled_with_scratch(&mut scratch, &ctx, &cp, &iv, 10_000, profile);
            assert_runs_equal(&fresh, &reused, "scratch reuse");
            assert_eq!(fresh.instructions, reused.instructions);
        }
    }
}
