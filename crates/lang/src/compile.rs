//! One-shot compiler lowering a checked [`Program`] into a flat
//! [`CompiledProgram`] executed by the bytecode VMs.
//!
//! Campaigns execute the same program millions of times; the tree-walkers
//! pay name-hashing, scope pushing, and enum-tree dispatch on every run.
//! The compiler pays those costs **once per campaign**:
//!
//! - **Register-slot-resolved locals** — every `let`/param gets a frame
//!   slot index at compile time; the VMs never hash a name.
//! - **Constant-folded operands** — integer subtrees whose checked
//!   evaluation succeeds become a single [`Instr::PushInt`]. Folding is
//!   restricted to exactly the cases `hotg_logic::Term::op` also folds
//!   (successful checked `+ - * / % neg` on literals), so the concolic
//!   shadow VM produces bit-identical terms, and overflow/div-by-zero
//!   cases are left unfolded so they fault at runtime like the walker.
//!   Comparisons and logical operators are never folded: they shape the
//!   path-constraint formulas.
//! - **Pre-resolved call/native indices** — call sites are resolved to a
//!   function-table or native-table index at compile time (registry
//!   first, then defined functions, mirroring the walker's precedence).
//! - **Jump-threaded control flow** — `if`/`while` become conditional
//!   branches over a flat instruction array; an `if` with an empty `else`
//!   emits no jump at all.
//!
//! Compilation is gated on [`crate::check::check`]: only well-formed
//! programs compile, so the VMs never see the type-confusion and
//! unbound-name fault paths whose messages differ between the two
//! tree-walkers. Ill-formed programs (hand-built test ASTs, summarizer
//! scaffolding) simply fall back to the walkers.

use crate::ast::{stmt_ids, BinOp, BranchId, Expr, Param, Program, Stmt, UnOp};
use crate::check::{check, CheckError};
use crate::interp::{NativeImpl, NativeRegistry};
use std::collections::HashMap;
use std::fmt;

/// A single bytecode instruction. Operand-stack machine: expression
/// instructions push/pop values, statement instructions move them into
/// frame slots or control the instruction pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Push an integer constant.
    PushInt(i64),
    /// Push the scalar in frame slot `.0`.
    LoadScalar(u32),
    /// Pop an index, push `array[idx]` from array slot `.0` (bounds
    /// fault exactly like the walker's `Expr::Index`).
    LoadElem(u32),
    /// Pop an integer into scalar slot `.0` (`let` and `x = e`).
    StoreScalar(u32),
    /// Pop a value then an index, store into array slot `.0`
    /// (`a[i] = e`; the index concretization point for the shadow VM).
    StoreElem(u32),
    /// (Re-)zero array slot `.0` (`let a[n];` — re-executed each loop
    /// iteration, like the walker re-declaring the array).
    InitArray(u32),
    /// Pop an integer, push its checked negation.
    Neg,
    /// Pop a boolean, push its negation.
    Not,
    /// Pop `b` then `a`, push `a op b` via [`crate::interp::eval_binop`].
    Bin(BinOp),
    /// Pop `argc` arguments, call native-table entry `native`, push the
    /// result and record the call in the trace.
    CallNative {
        /// Index into [`CompiledProgram::natives`].
        native: u32,
        /// Argument count at this call site.
        argc: u32,
    },
    /// Pop the callee's arity in arguments, run function-table entry
    /// `func` in a fresh frame, push its return value.
    CallFn {
        /// Index into [`CompiledProgram::funcs`].
        func: u32,
    },
    /// Pop `argc` arguments, then fault: the name (string-table index)
    /// is a declared native with no registered implementation and no
    /// defined function — "callable `{name}` is not defined", exactly
    /// like both walkers.
    UndefinedCall {
        /// Index into [`CompiledProgram::strings`].
        name: u32,
        /// Argument count at this call site.
        argc: u32,
    },
    /// Statement entry: the fuel charge point (check-then-decrement,
    /// identical to the walker's per-statement gate) carrying the
    /// statement's pre-order id for coverage.
    Stmt(u32),
    /// Per-iteration `while` fuel gate (the walker charges one fuel
    /// before each condition evaluation, on top of the `Stmt` charge).
    LoopGate,
    /// Pop a boolean, record `(id, taken)` in the trace, and jump to
    /// `if_false` when the condition is false.
    Branch {
        /// Branch site id (for traces and path constraints).
        id: BranchId,
        /// Jump target when the popped condition is `false`.
        if_false: u32,
    },
    /// Unconditional jump.
    Jump(u32),
    /// `error(code)`: stop the program with [`crate::Outcome::Error`].
    Error(i64),
    /// `return;` — stop with [`crate::Outcome::Returned`].
    ReturnBare,
    /// `return expr;` — pop the value and return it to the caller.
    ReturnValue,
}

/// An array declared in a code block: its source name (for fault
/// messages) and fixed length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Source-level name, used verbatim in out-of-bounds messages.
    pub name: String,
    /// Fixed element count.
    pub len: usize,
}

/// A compiled block of straight-line bytecode: the program body or one
/// function body, with its frame layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeBlock {
    /// Flat instruction array (jump targets are indices into it).
    pub code: Vec<Instr>,
    /// Number of scalar frame slots this block needs.
    pub scalars: u32,
    /// Array frame slots, in slot order.
    pub arrays: Vec<ArrayDecl>,
}

/// A compiled defined function: name (for fault messages), arity, and
/// the code block holding its body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledFn {
    /// Source-level function name.
    pub name: String,
    /// Parameter count; the first `arity` scalar slots of its frame are
    /// the parameters, in order.
    pub arity: usize,
    /// Index into [`CompiledProgram::blocks`].
    pub block: usize,
}

/// A native call target resolved at compile time: the implementation
/// [`std::sync::Arc`] is cloned out of the registry once, so the VM call
/// path does no name hashing.
#[derive(Clone)]
pub struct CompiledNative {
    /// Source-level native name.
    pub name: String,
    /// Registered arity.
    pub arity: usize,
    /// The shared implementation.
    pub imp: NativeImpl,
}

impl fmt::Debug for CompiledNative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledNative")
            .field("name", &self.name)
            .field("arity", &self.arity)
            .finish()
    }
}

/// How one program parameter binds into the entry frame from the flat
/// input vector (in declaration order; flat indices are implicit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamSlot {
    /// One flat input value into a scalar slot.
    Scalar(u32),
    /// `len` consecutive flat input values into an array slot.
    Array(u32, usize),
}

/// A checked `mini` program lowered to bytecode, ready for the concrete
/// VM ([`crate::vm`]) or the concolic shadow VM in `hotg-concolic`.
/// Compile once per campaign with [`compile`]; execute millions of times.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// All code blocks: defined functions first (declaration order),
    /// then the program body.
    pub blocks: Vec<CodeBlock>,
    /// Index of the program-body block in [`CompiledProgram::blocks`].
    pub main: usize,
    /// Defined-function table (`CallFn` operands index into this).
    pub funcs: Vec<CompiledFn>,
    /// Resolved native table (`CallNative` operands index into this).
    pub natives: Vec<CompiledNative>,
    /// String table for `UndefinedCall` names.
    pub strings: Vec<String>,
    /// Entry-frame binding plan for the flat input vector.
    pub params: Vec<ParamSlot>,
    /// Expected flat input width (mirrors [`Program::input_width`]).
    pub input_width: usize,
}

/// Why a program could not be compiled (the engine falls back to the
/// tree-walkers in this case).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The program failed [`crate::check::check`]; only checked programs
    /// compile (see the module docs for why).
    Check(CheckError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Check(e) => write!(f, "program failed checking: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// What a name resolves to during compilation.
#[derive(Clone, Copy)]
enum SlotRef {
    Scalar(u32),
    Array(u32),
}

/// Position-aware lexical scopes: a declaration is visible from its
/// statement onward within its block; inner declarations shadow outer
/// ones; every `let` gets a fresh slot (shadowing restores the outer
/// slot simply by popping the scope — no save/restore needed).
#[derive(Default)]
struct Scopes {
    stack: Vec<HashMap<String, SlotRef>>,
}

impl Scopes {
    fn enter(&mut self) {
        self.stack.push(HashMap::new());
    }

    fn exit(&mut self) {
        self.stack.pop();
    }

    fn declare(&mut self, name: &str, slot: SlotRef) {
        self.stack
            .last_mut()
            .expect("scope stack nonempty")
            .insert(name.to_string(), slot);
    }

    fn get(&self, name: &str) -> Option<SlotRef> {
        self.stack.iter().rev().find_map(|s| s.get(name)).copied()
    }
}

/// Per-block compilation state.
struct BlockCompiler<'p> {
    program: &'p Program,
    registry: &'p NativeRegistry,
    code: Vec<Instr>,
    scopes: Scopes,
    scalars: u32,
    arrays: Vec<ArrayDecl>,
    /// Shared across blocks (indices are global).
    natives: Vec<CompiledNative>,
    native_index: HashMap<String, u32>,
    strings: Vec<String>,
    string_index: HashMap<String, u32>,
    /// Pre-order statement ids, assigned in [`stmt_ids`] order across
    /// the whole program (functions first, then the body).
    next_stmt: u32,
}

impl BlockCompiler<'_> {
    fn alloc_scalar(&mut self) -> u32 {
        let slot = self.scalars;
        self.scalars += 1;
        slot
    }

    fn alloc_array(&mut self, name: &str, len: usize) -> u32 {
        let slot = self.arrays.len() as u32;
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            len,
        });
        slot
    }

    fn intern_native(&mut self, name: &str, arity: usize, imp: NativeImpl) -> u32 {
        if let Some(&i) = self.native_index.get(name) {
            return i;
        }
        let i = self.natives.len() as u32;
        self.natives.push(CompiledNative {
            name: name.to_string(),
            arity,
            imp,
        });
        self.native_index.insert(name.to_string(), i);
        i
    }

    fn intern_string(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.string_index.get(name) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(name.to_string());
        self.string_index.insert(name.to_string(), i);
        i
    }

    /// Compile-time evaluation of an all-literal integer subtree.
    ///
    /// Returns `Some` only when the checked evaluation **succeeds** —
    /// overflowing or zero-divisor subtrees return `None` and stay
    /// unfolded so the VM faults exactly like the walker. This is the
    /// same rule `hotg_logic::Term::op`'s `fold_concrete` applies when
    /// the shadow walker builds symbolic terms, which is what makes
    /// folding invisible to path constraints.
    fn const_eval(e: &Expr) -> Option<i64> {
        match e {
            Expr::Int(v) => Some(*v),
            Expr::Unary(UnOp::Neg, inner) => Self::const_eval(inner)?.checked_neg(),
            Expr::Binary(op, a, b) if op.is_arith() => {
                let (x, y) = (Self::const_eval(a)?, Self::const_eval(b)?);
                match op {
                    BinOp::Add => x.checked_add(y),
                    BinOp::Sub => x.checked_sub(y),
                    BinOp::Mul => x.checked_mul(y),
                    BinOp::Div => (y != 0).then(|| x.checked_div(y)).flatten(),
                    BinOp::Mod => (y != 0).then(|| x.checked_rem(y)).flatten(),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn expr(&mut self, e: &Expr) {
        if let Some(v) = Self::const_eval(e) {
            self.code.push(Instr::PushInt(v));
            return;
        }
        match e {
            Expr::Int(v) => self.code.push(Instr::PushInt(*v)),
            Expr::Var(name) => match self.scopes.get(name) {
                Some(SlotRef::Scalar(slot)) => self.code.push(Instr::LoadScalar(slot)),
                _ => unreachable!("checked program: `{name}` is a bound scalar"),
            },
            Expr::Index(name, idx) => {
                self.expr(idx);
                match self.scopes.get(name) {
                    Some(SlotRef::Array(slot)) => self.code.push(Instr::LoadElem(slot)),
                    _ => unreachable!("checked program: `{name}` is a bound array"),
                }
            }
            Expr::Unary(UnOp::Neg, inner) => {
                self.expr(inner);
                self.code.push(Instr::Neg);
            }
            Expr::Unary(UnOp::Not, inner) => {
                self.expr(inner);
                self.code.push(Instr::Not);
            }
            Expr::Binary(op, a, b) => {
                self.expr(a);
                self.expr(b);
                self.code.push(Instr::Bin(*op));
            }
            Expr::Call(name, args) => {
                for a in args {
                    self.expr(a);
                }
                let argc = args.len() as u32;
                // Same precedence as the walkers: registry first, then
                // defined functions, else the undefined-callable fault.
                if let Some((arity, imp)) = self.registry.lookup(name) {
                    let native = self.intern_native(name, arity, imp);
                    self.code.push(Instr::CallNative { native, argc });
                } else if let Some(f) = self.program.functions.iter().position(|f| f.name == *name)
                {
                    self.code.push(Instr::CallFn { func: f as u32 });
                } else {
                    let name = self.intern_string(name);
                    self.code.push(Instr::UndefinedCall { name, argc });
                }
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        let sid = self.next_stmt;
        self.next_stmt += 1;
        self.code.push(Instr::Stmt(sid));
        match s {
            Stmt::Let(name, e) => {
                // RHS is resolved *before* the new binding exists, so
                // `let x = x + 1;` reads the outer `x` like the walker.
                self.expr(e);
                let slot = self.alloc_scalar();
                self.code.push(Instr::StoreScalar(slot));
                self.scopes.declare(name, SlotRef::Scalar(slot));
            }
            Stmt::LetArray(name, len) => {
                // A fresh slot per declaration site; `InitArray` re-zeroes
                // it at runtime, so a loop body re-entering this statement
                // sees a zeroed array exactly like the walker re-declaring
                // one each iteration.
                let slot = self.alloc_array(name, *len);
                self.code.push(Instr::InitArray(slot));
                self.scopes.declare(name, SlotRef::Array(slot));
            }
            Stmt::Assign(name, e) => {
                self.expr(e);
                match self.scopes.get(name) {
                    Some(SlotRef::Scalar(slot)) => self.code.push(Instr::StoreScalar(slot)),
                    _ => unreachable!("checked program: `{name}` is an assignable scalar"),
                }
            }
            Stmt::AssignIndex(name, idx, val) => {
                self.expr(idx);
                self.expr(val);
                match self.scopes.get(name) {
                    Some(SlotRef::Array(slot)) => self.code.push(Instr::StoreElem(slot)),
                    _ => unreachable!("checked program: `{name}` is an assignable array"),
                }
            }
            Stmt::If {
                id,
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                let branch_at = self.code.len();
                self.code.push(Instr::Branch {
                    id: *id,
                    if_false: u32::MAX,
                });
                self.block(then_branch);
                if else_branch.is_empty() {
                    let end = self.code.len() as u32;
                    self.code[branch_at] = Instr::Branch {
                        id: *id,
                        if_false: end,
                    };
                } else {
                    let jump_at = self.code.len();
                    self.code.push(Instr::Jump(u32::MAX));
                    let else_start = self.code.len() as u32;
                    self.code[branch_at] = Instr::Branch {
                        id: *id,
                        if_false: else_start,
                    };
                    self.block(else_branch);
                    let end = self.code.len() as u32;
                    self.code[jump_at] = Instr::Jump(end);
                }
            }
            Stmt::While { id, cond, body } => {
                let head = self.code.len() as u32;
                self.code.push(Instr::LoopGate);
                self.expr(cond);
                let branch_at = self.code.len();
                self.code.push(Instr::Branch {
                    id: *id,
                    if_false: u32::MAX,
                });
                self.block(body);
                self.code.push(Instr::Jump(head));
                let exit = self.code.len() as u32;
                self.code[branch_at] = Instr::Branch {
                    id: *id,
                    if_false: exit,
                };
            }
            Stmt::Error(code) => self.code.push(Instr::Error(*code)),
            Stmt::Return => self.code.push(Instr::ReturnBare),
            Stmt::ReturnValue(e) => {
                self.expr(e);
                self.code.push(Instr::ReturnValue);
            }
        }
    }

    fn block(&mut self, body: &[Stmt]) {
        self.scopes.enter();
        for s in body {
            self.stmt(s);
        }
        self.scopes.exit();
    }
}

/// Lowers a checked program into bytecode.
///
/// Call-site resolution uses the same precedence as the walkers
/// (registry first, then defined functions) against the registry the
/// campaign will run with, so the compiled program is specific to one
/// `(program, natives)` pair — exactly the pair a [`crate::Program`]
/// campaign is.
///
/// # Errors
///
/// Returns [`CompileError::Check`] when the program fails
/// [`crate::check::check`]; callers fall back to the tree-walkers.
pub fn compile(
    program: &Program,
    natives: &NativeRegistry,
) -> Result<CompiledProgram, CompileError> {
    check(program).map_err(CompileError::Check)?;

    let mut blocks = Vec::with_capacity(program.functions.len() + 1);
    let mut funcs = Vec::with_capacity(program.functions.len());
    let mut shared_natives = Vec::new();
    let mut native_index = HashMap::new();
    let mut strings = Vec::new();
    let mut string_index = HashMap::new();
    let mut next_stmt = 0u32;

    // Function bodies first, in declaration order, so statement ids line
    // up with `stmt_ids`' pre-order walk.
    for f in &program.functions {
        let mut bc = BlockCompiler {
            program,
            registry: natives,
            code: Vec::new(),
            scopes: Scopes::default(),
            scalars: 0,
            arrays: Vec::new(),
            natives: std::mem::take(&mut shared_natives),
            native_index: std::mem::take(&mut native_index),
            strings: std::mem::take(&mut strings),
            string_index: std::mem::take(&mut string_index),
            next_stmt,
        };
        bc.scopes.enter();
        for p in &f.params {
            let slot = bc.alloc_scalar();
            bc.scopes.declare(p, SlotRef::Scalar(slot));
        }
        bc.block(&f.body);
        bc.scopes.exit();
        funcs.push(CompiledFn {
            name: f.name.clone(),
            arity: f.params.len(),
            block: blocks.len(),
        });
        blocks.push(CodeBlock {
            code: bc.code,
            scalars: bc.scalars,
            arrays: bc.arrays,
        });
        shared_natives = bc.natives;
        native_index = bc.native_index;
        strings = bc.strings;
        string_index = bc.string_index;
        next_stmt = bc.next_stmt;
    }

    let mut bc = BlockCompiler {
        program,
        registry: natives,
        code: Vec::new(),
        scopes: Scopes::default(),
        scalars: 0,
        arrays: Vec::new(),
        natives: shared_natives,
        native_index,
        strings,
        string_index,
        next_stmt,
    };
    bc.scopes.enter();
    let mut params = Vec::with_capacity(program.params.len());
    for p in &program.params {
        match p {
            Param::Scalar(name) => {
                let slot = bc.alloc_scalar();
                bc.scopes.declare(name, SlotRef::Scalar(slot));
                params.push(ParamSlot::Scalar(slot));
            }
            Param::Array(name, len) => {
                let slot = bc.alloc_array(name, *len);
                bc.scopes.declare(name, SlotRef::Array(slot));
                params.push(ParamSlot::Array(slot, *len));
            }
        }
    }
    bc.block(&program.body);
    bc.scopes.exit();
    debug_assert_eq!(
        bc.next_stmt as usize,
        stmt_ids(program).len(),
        "compiler statement ids must cover the stmt_ids pre-order"
    );
    let main = blocks.len();
    blocks.push(CodeBlock {
        code: bc.code,
        scalars: bc.scalars,
        arrays: bc.arrays,
    });

    Ok(CompiledProgram {
        blocks,
        main,
        funcs,
        natives: bc.natives,
        strings: bc.strings,
        params,
        input_width: program.input_width(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn unchecked_programs_do_not_compile() {
        let p = parse("program t(x: int) { let a = b + 1; return; }").unwrap();
        assert!(matches!(
            compile(&p, &NativeRegistry::new()),
            Err(CompileError::Check(_))
        ));
    }

    #[test]
    fn constant_folding_is_checked() {
        let p = parse("program t(x: int) { let a = 2 + 3 * 4; let b = x / 0; return; }").unwrap();
        let cp = compile(&p, &NativeRegistry::new()).unwrap();
        let code = &cp.blocks[cp.main].code;
        // `2 + 3 * 4` folds to a single constant…
        assert!(code.contains(&Instr::PushInt(14)));
        // …but `x / 0` (and any faulting fold) stays unfolded.
        assert!(code.contains(&Instr::Bin(BinOp::Div)));
    }

    #[test]
    fn faulting_constants_stay_unfolded() {
        let p = parse("program t(x: int) { let a = 10 / (2 - 2); return; }").unwrap();
        let cp = compile(&p, &NativeRegistry::new()).unwrap();
        let code = &cp.blocks[cp.main].code;
        assert!(code.contains(&Instr::Bin(BinOp::Div)));
        // The subtree that *does* fold, folds.
        assert!(code.contains(&Instr::PushInt(0)));
    }

    #[test]
    fn comparisons_never_fold() {
        let p = parse("program t(x: int) { if (1 < 2) { error(1); } return; }").unwrap();
        let cp = compile(&p, &NativeRegistry::new()).unwrap();
        let code = &cp.blocks[cp.main].code;
        assert!(code.contains(&Instr::Bin(BinOp::Lt)));
    }

    #[test]
    fn call_sites_resolve_registry_first() {
        let src = "native hash/1; program t(x: int) { let a = hash(x); return; }";
        let p = parse(src).unwrap();
        let mut n = NativeRegistry::new();
        n.register("hash", 1, |a| a[0]);
        let cp = compile(&p, &n).unwrap();
        assert_eq!(cp.natives.len(), 1);
        assert_eq!(cp.natives[0].name, "hash");
        // Unregistered declared native resolves to the undefined-callable
        // fault instruction instead.
        let cp2 = compile(&p, &NativeRegistry::new()).unwrap();
        assert!(cp2.natives.is_empty());
        assert_eq!(cp2.strings, vec!["hash".to_string()]);
    }

    #[test]
    fn functions_compile_in_declaration_order() {
        let p = parse(
            r#"
            fn double(v: int) { return v * 2; }
            fn quad(v: int) { return double(double(v)); }
            program t(x: int) { let a = quad(x); return; }
            "#,
        )
        .unwrap();
        let cp = compile(&p, &NativeRegistry::new()).unwrap();
        assert_eq!(cp.funcs.len(), 2);
        assert_eq!(cp.funcs[0].name, "double");
        assert_eq!(cp.funcs[1].name, "quad");
        assert_eq!(cp.main, 2);
    }

    #[test]
    fn whole_corpus_compiles() {
        for (name, ctor) in crate::corpus::all() {
            let (program, natives) = ctor();
            compile(&program, &natives)
                .unwrap_or_else(|e| panic!("corpus `{name}` must compile: {e}"));
        }
    }
}
