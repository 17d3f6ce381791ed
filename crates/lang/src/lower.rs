//! Type checking and lowering of MiniC to the IR.
//!
//! Typing rules: `int` and `float` never mix implicitly (use `i2f`/`f2i`);
//! comparisons yield `bool` (predicate registers), which coerces to `int`
//! (0/1) in arithmetic contexts and from `int` (`!= 0`) in condition
//! contexts.

use crate::ast::{self, BinOp, ElemType, Expr, FuncDecl, LValue, Lit, Stmt, UnOp, Unit};
use crate::LangError;
use metaopt_ir::builder::FunctionBuilder;
use metaopt_ir::{GlobalData, GlobalInit, Inst, Opcode, Program, RegClass, VReg};
use std::collections::HashMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ty {
    Int,
    Float,
    Bool,
}

impl Ty {
    fn name(self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Float => "float",
            Ty::Bool => "bool",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Val {
    reg: VReg,
    ty: Ty,
}

#[derive(Clone, Debug)]
struct GlobalInfo {
    addr: i64,
    elem: ElemType,
    len: usize,
}

#[derive(Clone, Debug)]
struct Sig {
    index: i64,
    params: Vec<ast::Type>,
    ret: Option<ast::Type>,
}

fn fail<T>(line: u32, msg: impl Into<String>) -> Result<T, LangError> {
    Err(LangError {
        line,
        message: msg.into(),
    })
}

/// Does this statement list contain a `continue` that binds to the current
/// loop (not descending into nested loops)?
fn contains_continue(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Continue(_) => true,
        Stmt::If { then, els, .. } => contains_continue(then) || contains_continue(els),
        // `continue` inside a nested loop binds to that loop.
        Stmt::While { .. } | Stmt::For { .. } => false,
        _ => false,
    })
}

fn scalar_ty(t: ast::Type) -> Ty {
    match t {
        ast::Type::Int => Ty::Int,
        ast::Type::Float => Ty::Float,
    }
}

/// Lower a parsed [`Unit`] into an IR [`Program`].
///
/// # Errors
/// Reports type errors, unknown names, and arity mismatches.
pub fn lower(unit: &Unit) -> Result<Program, LangError> {
    let mut prog = Program::new();
    let mut globals: HashMap<String, GlobalInfo> = HashMap::new();
    for g in &unit.globals {
        if globals.contains_key(&g.name) {
            return fail(g.line, format!("duplicate global {}", g.name));
        }
        let size = g.len * g.elem.size();
        let init = match g.elem {
            ElemType::Byte => {
                let mut bytes = Vec::with_capacity(g.init.len());
                for l in &g.init {
                    match l {
                        Lit::Int(v) => bytes.push(*v as u8),
                        Lit::Float(_) => return fail(g.line, "float initializer for byte array"),
                    }
                }
                GlobalInit::Bytes(bytes)
            }
            ElemType::Int => {
                let mut vs = Vec::with_capacity(g.init.len());
                for l in &g.init {
                    match l {
                        Lit::Int(v) => vs.push(*v),
                        Lit::Float(_) => return fail(g.line, "float initializer for int array"),
                    }
                }
                GlobalInit::I64s(vs)
            }
            ElemType::Float => {
                let mut vs = Vec::with_capacity(g.init.len());
                for l in &g.init {
                    match l {
                        Lit::Float(v) => vs.push(*v),
                        Lit::Int(v) => vs.push(*v as f64),
                    }
                }
                GlobalInit::F64s(vs)
            }
        };
        let addr = prog.add_global(GlobalData {
            name: g.name.clone(),
            size,
            init,
        });
        globals.insert(
            g.name.clone(),
            GlobalInfo {
                addr,
                elem: g.elem,
                len: g.len,
            },
        );
    }

    let mut sigs: HashMap<String, Sig> = HashMap::new();
    for (i, f) in unit.funcs.iter().enumerate() {
        if sigs.contains_key(&f.name) {
            return fail(f.line, format!("duplicate function {}", f.name));
        }
        sigs.insert(
            f.name.clone(),
            Sig {
                index: i as i64,
                params: f.params.iter().map(|(_, t)| *t).collect(),
                ret: f.ret,
            },
        );
    }

    for f in &unit.funcs {
        let func = FnLowerer {
            globals: &globals,
            sigs: &sigs,
            decl: f,
            fb: FunctionBuilder::new(f.name.clone()),
            scopes: Vec::new(),
            loops: Vec::new(),
        }
        .lower()?;
        prog.add_function(func);
    }
    Ok(prog)
}

/// Branch targets for `break`/`continue` in the enclosing loop.
#[derive(Clone, Copy)]
struct LoopCtx {
    exit: metaopt_ir::BlockId,
    cont: metaopt_ir::BlockId,
}

struct FnLowerer<'a> {
    globals: &'a HashMap<String, GlobalInfo>,
    sigs: &'a HashMap<String, Sig>,
    decl: &'a FuncDecl,
    fb: FunctionBuilder,
    scopes: Vec<HashMap<String, Val>>,
    loops: Vec<LoopCtx>,
}

impl<'a> FnLowerer<'a> {
    fn lower(mut self) -> Result<metaopt_ir::Function, LangError> {
        let mut params = HashMap::new();
        for (name, ty) in &self.decl.params {
            let class = match ty {
                ast::Type::Int => RegClass::Int,
                ast::Type::Float => RegClass::Float,
            };
            let reg = self.fb.param(class);
            params.insert(
                name.clone(),
                Val {
                    reg,
                    ty: scalar_ty(*ty),
                },
            );
        }
        self.scopes.push(params);
        let terminated = self.stmts(&self.decl.body.clone())?;
        if !terminated {
            match self.decl.ret {
                None => self.fb.ret(None),
                Some(ast::Type::Int) => {
                    let z = self.fb.movi(0);
                    self.fb.ret(Some(z));
                }
                Some(ast::Type::Float) => {
                    // Return 0 as the integer bit pattern (convention: float
                    // mains return a checksum via f2i; a fallthrough returns
                    // integer 0).
                    let z = self.fb.movi(0);
                    self.fb.ret(Some(z));
                }
            }
        }
        Ok(self.fb.finish())
    }

    fn lookup(&self, name: &str) -> Option<Val> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(*v);
            }
        }
        None
    }

    /// Lower a list of statements; returns `true` if control definitely
    /// left the current block (return on all paths).
    fn stmts(&mut self, stmts: &[Stmt]) -> Result<bool, LangError> {
        self.scopes.push(HashMap::new());
        let mut terminated = false;
        for s in stmts {
            if terminated {
                // Unreachable code: still lower into a fresh dead block so
                // we type-check it, but the result can never run.
                let dead = self.fb.new_block();
                self.fb.switch_to(dead);
            }
            terminated = self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(terminated)
    }

    fn stmt(&mut self, s: &Stmt) -> Result<bool, LangError> {
        match s {
            Stmt::Let { name, init, line } => {
                let v = self.expr(init)?;
                let v = self.coerce_bool_to_int(v);
                if self
                    .scopes
                    .last()
                    .is_some_and(|scope| scope.contains_key(name))
                {
                    return fail(*line, format!("redeclaration of {name} in the same scope"));
                }
                // Dedicated mutable cell so later assignments can overwrite.
                let class = match v.ty {
                    Ty::Int => RegClass::Int,
                    Ty::Float => RegClass::Float,
                    Ty::Bool => unreachable!("coerced above"),
                };
                let cell = self.fb.new_vreg(class);
                self.copy_into(cell, v);
                self.scopes
                    .last_mut()
                    .expect("`lower` opens the function's scope before any statement")
                    .insert(
                        name.clone(),
                        Val {
                            reg: cell,
                            ty: v.ty,
                        },
                    );
                Ok(false)
            }
            Stmt::Assign { target, value } => {
                let v = self.expr(value)?;
                match target {
                    LValue::Var(name, line) => {
                        if let Some(dst) = self.lookup(name) {
                            let v = self.coerce_bool_to_int(v);
                            if dst.ty != v.ty {
                                return fail(
                                    *line,
                                    format!(
                                        "assignment type mismatch: {name} is {}, value is {}",
                                        dst.ty.name(),
                                        v.ty.name()
                                    ),
                                );
                            }
                            self.copy_into(dst.reg, v);
                            Ok(false)
                        } else if self.globals.contains_key(name) {
                            let zero = Expr::Int(0, *line);
                            self.store_global(name, &zero, v, *line)?;
                            Ok(false)
                        } else {
                            fail(*line, format!("unknown variable {name}"))
                        }
                    }
                    LValue::Index(name, ix, line) => {
                        self.store_global(name, ix, v, *line)?;
                        Ok(false)
                    }
                }
            }
            Stmt::If { cond, then, els } => {
                let p = self.cond(cond)?;
                let then_b = self.fb.new_block();
                let else_b = self.fb.new_block();
                let join = self.fb.new_block();
                self.fb.branch(p, then_b, else_b);
                self.fb.switch_to(then_b);
                let t_term = self.stmts(then)?;
                if !t_term {
                    self.fb.br(join);
                }
                self.fb.switch_to(else_b);
                let e_term = self.stmts(els)?;
                if !e_term {
                    self.fb.br(join);
                }
                self.fb.switch_to(join);
                if t_term && e_term {
                    // Join is unreachable; it still needs a terminator,
                    // which the caller's fallthrough handling provides by
                    // treating this as terminated and re-targeting a dead
                    // block — so terminate it here.
                    self.fb.ret(None);
                    return Ok(true);
                }
                Ok(false)
            }
            Stmt::While { cond, body } => {
                let hdr = self.fb.new_block();
                let body_b = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.br(hdr);
                self.fb.switch_to(hdr);
                let p = self.cond(cond)?;
                self.fb.branch(p, body_b, exit);
                self.fb.switch_to(body_b);
                self.loops.push(LoopCtx { exit, cont: hdr });
                let terminated = self.stmts(body)?;
                self.loops.pop();
                if !terminated {
                    self.fb.br(hdr);
                }
                self.fb.switch_to(exit);
                Ok(false)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let init_term = self.stmt(init)?;
                debug_assert!(!init_term);
                let hdr = self.fb.new_block();
                let body_b = self.fb.new_block();
                let exit = self.fb.new_block();
                // `continue` must run the step first, so it needs a landing
                // block; only materialize one when the body actually uses
                // `continue` (keeping the canonical 2-block loop shape that
                // the unroller and the calibrated benchmarks rely on).
                let step_b = contains_continue(body).then(|| self.fb.new_block());
                self.fb.br(hdr);
                self.fb.switch_to(hdr);
                let p = self.cond(cond)?;
                self.fb.branch(p, body_b, exit);
                self.fb.switch_to(body_b);
                self.loops.push(LoopCtx {
                    exit,
                    cont: step_b.unwrap_or(hdr),
                });
                let terminated = self.stmts(body)?;
                self.loops.pop();
                match step_b {
                    Some(sb) => {
                        if !terminated {
                            self.fb.br(sb);
                        }
                        self.fb.switch_to(sb);
                        let step_term = self.stmt(step)?;
                        debug_assert!(!step_term);
                        self.fb.br(hdr);
                    }
                    None => {
                        if !terminated {
                            let step_term = self.stmt(step)?;
                            debug_assert!(!step_term);
                            self.fb.br(hdr);
                        }
                    }
                }
                self.fb.switch_to(exit);
                self.scopes.pop();
                Ok(false)
            }
            Stmt::Break(line) => {
                let Some(ctx) = self.loops.last() else {
                    return fail(*line, "break outside of a loop");
                };
                self.fb.br(ctx.exit);
                Ok(true)
            }
            Stmt::Continue(line) => {
                let Some(ctx) = self.loops.last() else {
                    return fail(*line, "continue outside of a loop");
                };
                self.fb.br(ctx.cont);
                Ok(true)
            }
            Stmt::Return(val, line) => {
                match (val, self.decl.ret) {
                    (None, None) => self.fb.ret(None),
                    (Some(e), Some(want)) => {
                        let v = self.expr(e)?;
                        let v = self.coerce_bool_to_int(v);
                        if v.ty != scalar_ty(want) {
                            return fail(
                                *line,
                                format!(
                                    "return type mismatch: expected {}, got {}",
                                    scalar_ty(want).name(),
                                    v.ty.name()
                                ),
                            );
                        }
                        match v.ty {
                            Ty::Int => self.fb.ret(Some(v.reg)),
                            Ty::Float => {
                                // Functions return through integer registers;
                                // float values pass their raw bit pattern.
                                let bits = self.fb.new_vreg(RegClass::Int);
                                self.fb
                                    .push(Inst::new(Opcode::FBits).dst(bits).args(&[v.reg]));
                                self.fb.ret(Some(bits));
                            }
                            Ty::Bool => unreachable!("a return value is coerced to int above"),
                        }
                    }
                    (None, Some(_)) => return fail(*line, "missing return value"),
                    (Some(_), None) => return fail(*line, "void function returns a value"),
                }
                Ok(true)
            }
            Stmt::ExprStmt(e) => {
                self.expr(e)?;
                Ok(false)
            }
        }
    }

    fn copy_into(&mut self, dst: VReg, v: Val) {
        let op = match v.ty {
            Ty::Int => Opcode::Mov,
            Ty::Float => Opcode::FMov,
            Ty::Bool => Opcode::PMov,
        };
        self.fb.push(Inst::new(op).dst(dst).args(&[v.reg]));
    }

    fn coerce_bool_to_int(&mut self, v: Val) -> Val {
        if v.ty == Ty::Bool {
            let r = self.fb.new_vreg(RegClass::Int);
            self.fb.push(Inst::new(Opcode::P2I).dst(r).args(&[v.reg]));
            Val {
                reg: r,
                ty: Ty::Int,
            }
        } else {
            v
        }
    }

    /// Lower an expression in *condition* context: result is a predicate.
    fn cond(&mut self, e: &Expr) -> Result<VReg, LangError> {
        let v = self.expr(e)?;
        match v.ty {
            Ty::Bool => Ok(v.reg),
            Ty::Int => {
                let p = self.fb.new_vreg(RegClass::Pred);
                self.fb.push(Inst::new(Opcode::I2P).dst(p).args(&[v.reg]));
                Ok(p)
            }
            Ty::Float => fail(
                e.line(),
                "float used as a condition (compare it explicitly)",
            ),
        }
    }

    fn addr_of(
        &mut self,
        name: &str,
        index: &Expr,
        line: u32,
    ) -> Result<(VReg, ElemType), LangError> {
        let Some(g) = self.globals.get(name).cloned() else {
            return fail(line, format!("unknown array {name}"));
        };
        let iv = self.expr(index)?;
        let iv = self.coerce_bool_to_int(iv);
        if iv.ty != Ty::Int {
            return fail(line, "array index must be int");
        }
        let scaled = match g.elem {
            ElemType::Byte => iv.reg,
            ElemType::Int | ElemType::Float => self.fb.muli(iv.reg, g.elem.size() as i64),
        };
        let base = self.fb.movi(g.addr);
        let addr = self.fb.add(base, scaled);
        let _ = g.len; // bounds are enforced dynamically by the interpreter/simulator
        Ok((addr, g.elem))
    }

    fn store_global(
        &mut self,
        name: &str,
        index: &Expr,
        v: Val,
        line: u32,
    ) -> Result<(), LangError> {
        let (addr, elem) = self.addr_of(name, index, line)?;
        let v = self.coerce_bool_to_int(v);
        match (elem, v.ty) {
            (ElemType::Byte, Ty::Int) => self.fb.st1(addr, v.reg, 0),
            (ElemType::Int, Ty::Int) => self.fb.st8(addr, v.reg, 0),
            (ElemType::Float, Ty::Float) => self.fb.fst(addr, v.reg, 0),
            (e, t) => {
                return fail(
                    line,
                    format!("cannot store {} into {name} ({e:?} elements)", t.name()),
                )
            }
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<Val, LangError> {
        match e {
            Expr::Int(v, _) => {
                let r = self.fb.movi(*v);
                Ok(Val {
                    reg: r,
                    ty: Ty::Int,
                })
            }
            Expr::Float(v, _) => {
                let r = self.fb.fmovi(*v);
                Ok(Val {
                    reg: r,
                    ty: Ty::Float,
                })
            }
            Expr::Var(name, line) => {
                if let Some(v) = self.lookup(name) {
                    return Ok(v);
                }
                if self.globals.contains_key(name) {
                    let zero = Expr::Int(0, *line);
                    return self.load_global(name, &zero, *line);
                }
                fail(*line, format!("unknown variable {name}"))
            }
            Expr::Index(name, ix, line) => self.load_global(name, ix, *line),
            Expr::Call(name, args, line) => self.call(name, args, *line),
            Expr::Unary(op, inner, line) => {
                let v = self.expr(inner)?;
                match (op, v.ty) {
                    (UnOp::Neg, Ty::Int) => {
                        let r = self.fb.new_vreg(RegClass::Int);
                        self.fb.push(Inst::new(Opcode::Neg).dst(r).args(&[v.reg]));
                        Ok(Val {
                            reg: r,
                            ty: Ty::Int,
                        })
                    }
                    (UnOp::Neg, Ty::Float) => {
                        let r = self.fb.new_vreg(RegClass::Float);
                        self.fb.push(Inst::new(Opcode::FNeg).dst(r).args(&[v.reg]));
                        Ok(Val {
                            reg: r,
                            ty: Ty::Float,
                        })
                    }
                    (UnOp::Not, Ty::Bool) => {
                        let r = self.fb.new_vreg(RegClass::Pred);
                        self.fb.push(Inst::new(Opcode::PNot).dst(r).args(&[v.reg]));
                        Ok(Val {
                            reg: r,
                            ty: Ty::Bool,
                        })
                    }
                    (UnOp::Not, Ty::Int) => {
                        let p = self.fb.new_vreg(RegClass::Pred);
                        self.fb.push(Inst::new(Opcode::I2P).dst(p).args(&[v.reg]));
                        let r = self.fb.new_vreg(RegClass::Pred);
                        self.fb.push(Inst::new(Opcode::PNot).dst(r).args(&[p]));
                        Ok(Val {
                            reg: r,
                            ty: Ty::Bool,
                        })
                    }
                    (op, t) => fail(*line, format!("bad operand {t:?} for unary {op:?}")),
                }
            }
            Expr::Binary(op, a, b, line) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                self.binary(*op, va, vb, *line)
            }
        }
    }

    fn load_global(&mut self, name: &str, ix: &Expr, line: u32) -> Result<Val, LangError> {
        let (addr, elem) = self.addr_of(name, ix, line)?;
        Ok(match elem {
            ElemType::Byte => Val {
                reg: self.fb.ld1(addr, 0),
                ty: Ty::Int,
            },
            ElemType::Int => Val {
                reg: self.fb.ld8(addr, 0),
                ty: Ty::Int,
            },
            ElemType::Float => Val {
                reg: self.fb.fld(addr, 0),
                ty: Ty::Float,
            },
        })
    }

    fn binary(&mut self, op: BinOp, a: Val, b: Val, line: u32) -> Result<Val, LangError> {
        use BinOp::*;
        // Logical ops accept bool (or int coerced to bool).
        if matches!(op, LAnd | LOr) {
            let pa = self.coerce_to_bool(a, line)?;
            let pb = self.coerce_to_bool(b, line)?;
            let opc = if op == LAnd {
                Opcode::PAnd
            } else {
                Opcode::POr
            };
            let r = self.fb.new_vreg(RegClass::Pred);
            self.fb.push(Inst::new(opc).dst(r).args(&[pa, pb]));
            return Ok(Val {
                reg: r,
                ty: Ty::Bool,
            });
        }
        let a = self.coerce_bool_to_int(a);
        let b = self.coerce_bool_to_int(b);
        if a.ty != b.ty {
            return fail(
                line,
                format!(
                    "type mismatch: {} {op:?} {} (use i2f/f2i to convert)",
                    a.ty.name(),
                    b.ty.name()
                ),
            );
        }
        let is_float = a.ty == Ty::Float;
        // Comparisons.
        if matches!(op, Eq | Ne | Lt | Le | Gt | Ge) {
            let r = self.fb.new_vreg(RegClass::Pred);
            if is_float {
                match op {
                    Eq => self
                        .fb
                        .push(Inst::new(Opcode::FCmpEq).dst(r).args(&[a.reg, b.reg])),
                    Ne => {
                        let t = self.fb.new_vreg(RegClass::Pred);
                        self.fb
                            .push(Inst::new(Opcode::FCmpEq).dst(t).args(&[a.reg, b.reg]));
                        self.fb.push(Inst::new(Opcode::PNot).dst(r).args(&[t]));
                    }
                    Lt => self
                        .fb
                        .push(Inst::new(Opcode::FCmpLt).dst(r).args(&[a.reg, b.reg])),
                    Le => self
                        .fb
                        .push(Inst::new(Opcode::FCmpLe).dst(r).args(&[a.reg, b.reg])),
                    Gt => self
                        .fb
                        .push(Inst::new(Opcode::FCmpLt).dst(r).args(&[b.reg, a.reg])),
                    Ge => self
                        .fb
                        .push(Inst::new(Opcode::FCmpLe).dst(r).args(&[b.reg, a.reg])),
                    _ => unreachable!("only comparisons reach here, not {op:?}"),
                }
            } else {
                match op {
                    Eq => self
                        .fb
                        .push(Inst::new(Opcode::CmpEq).dst(r).args(&[a.reg, b.reg])),
                    Ne => self
                        .fb
                        .push(Inst::new(Opcode::CmpNe).dst(r).args(&[a.reg, b.reg])),
                    Lt => self
                        .fb
                        .push(Inst::new(Opcode::CmpLt).dst(r).args(&[a.reg, b.reg])),
                    Le => self
                        .fb
                        .push(Inst::new(Opcode::CmpLe).dst(r).args(&[a.reg, b.reg])),
                    Gt => self
                        .fb
                        .push(Inst::new(Opcode::CmpLt).dst(r).args(&[b.reg, a.reg])),
                    Ge => self
                        .fb
                        .push(Inst::new(Opcode::CmpLe).dst(r).args(&[b.reg, a.reg])),
                    _ => unreachable!("only comparisons reach here, not {op:?}"),
                }
            }
            return Ok(Val {
                reg: r,
                ty: Ty::Bool,
            });
        }
        // Arithmetic / bitwise.
        let opc = if is_float {
            match op {
                Add => Opcode::FAdd,
                Sub => Opcode::FSub,
                Mul => Opcode::FMul,
                Div => Opcode::FDiv,
                other => return fail(line, format!("operator {other:?} not defined on float")),
            }
        } else {
            match op {
                Add => Opcode::Add,
                Sub => Opcode::Sub,
                Mul => Opcode::Mul,
                Div => Opcode::Div,
                Rem => Opcode::Rem,
                And => Opcode::And,
                Or => Opcode::Or,
                Xor => Opcode::Xor,
                Shl => Opcode::Shl,
                Shr => Opcode::Shr,
                _ => unreachable!("{op:?} is a comparison or logical operator, lowered above"),
            }
        };
        let class = if is_float {
            RegClass::Float
        } else {
            RegClass::Int
        };
        let r = self.fb.new_vreg(class);
        self.fb.push(Inst::new(opc).dst(r).args(&[a.reg, b.reg]));
        Ok(Val { reg: r, ty: a.ty })
    }

    fn coerce_to_bool(&mut self, v: Val, line: u32) -> Result<VReg, LangError> {
        match v.ty {
            Ty::Bool => Ok(v.reg),
            Ty::Int => {
                let p = self.fb.new_vreg(RegClass::Pred);
                self.fb.push(Inst::new(Opcode::I2P).dst(p).args(&[v.reg]));
                Ok(p)
            }
            Ty::Float => fail(line, "float used in logical operation"),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], line: u32) -> Result<Val, LangError> {
        // Builtins first.
        match name {
            "abs" | "sqrt" | "i2f" | "f2i" => {
                if args.len() != 1 {
                    return fail(line, format!("{name} takes one argument"));
                }
                let v = self.expr(&args[0])?;
                let v = self.coerce_bool_to_int(v);
                return match (name, v.ty) {
                    ("abs", Ty::Int) => {
                        let r = self.fb.new_vreg(RegClass::Int);
                        self.fb.push(Inst::new(Opcode::Abs).dst(r).args(&[v.reg]));
                        Ok(Val {
                            reg: r,
                            ty: Ty::Int,
                        })
                    }
                    ("abs", Ty::Float) => {
                        let r = self.fb.new_vreg(RegClass::Float);
                        self.fb.push(Inst::new(Opcode::FAbs).dst(r).args(&[v.reg]));
                        Ok(Val {
                            reg: r,
                            ty: Ty::Float,
                        })
                    }
                    ("sqrt", Ty::Float) => {
                        let r = self.fb.new_vreg(RegClass::Float);
                        self.fb.push(Inst::new(Opcode::FSqrt).dst(r).args(&[v.reg]));
                        Ok(Val {
                            reg: r,
                            ty: Ty::Float,
                        })
                    }
                    ("i2f", Ty::Int) => Ok(Val {
                        reg: self.fb.i2f(v.reg),
                        ty: Ty::Float,
                    }),
                    ("f2i", Ty::Float) => Ok(Val {
                        reg: self.fb.f2i(v.reg),
                        ty: Ty::Int,
                    }),
                    (n, t) => fail(line, format!("{n} not defined on {}", t.name())),
                };
            }
            "min" | "max" => {
                if args.len() != 2 {
                    return fail(line, format!("{name} takes two arguments"));
                }
                let a = self.expr(&args[0])?;
                let a = self.coerce_bool_to_int(a);
                let b = self.expr(&args[1])?;
                let b = self.coerce_bool_to_int(b);
                if a.ty != b.ty {
                    return fail(line, format!("{name} arguments must have the same type"));
                }
                let (opc, class, ty) = match (name, a.ty) {
                    ("min", Ty::Int) => (Opcode::Min, RegClass::Int, Ty::Int),
                    ("max", Ty::Int) => (Opcode::Max, RegClass::Int, Ty::Int),
                    ("min", Ty::Float) => (Opcode::FMin, RegClass::Float, Ty::Float),
                    ("max", Ty::Float) => (Opcode::FMax, RegClass::Float, Ty::Float),
                    (n, t) => return fail(line, format!("{n} not defined on {}", t.name())),
                };
                let r = self.fb.new_vreg(class);
                self.fb.push(Inst::new(opc).dst(r).args(&[a.reg, b.reg]));
                return Ok(Val { reg: r, ty });
            }
            "ucall" => {
                if args.len() != 2 {
                    return fail(line, "ucall takes (site, value)");
                }
                let Expr::Int(site, _) = &args[0] else {
                    return fail(line, "ucall site must be an integer literal");
                };
                let v = self.expr(&args[1])?;
                let v = self.coerce_bool_to_int(v);
                if v.ty != Ty::Int {
                    return fail(line, "ucall value must be int");
                }
                let r = self.fb.unsafe_call(*site, v.reg);
                return Ok(Val {
                    reg: r,
                    ty: Ty::Int,
                });
            }
            _ => {}
        }
        // User function.
        let Some(sig) = self.sigs.get(name).cloned() else {
            return fail(line, format!("unknown function {name}"));
        };
        if sig.params.len() != args.len() {
            return fail(
                line,
                format!(
                    "{name} takes {} arguments, got {}",
                    sig.params.len(),
                    args.len()
                ),
            );
        }
        let mut regs = Vec::with_capacity(args.len());
        for (a, want) in args.iter().zip(&sig.params) {
            let v = self.expr(a)?;
            let v = self.coerce_bool_to_int(v);
            if v.ty != scalar_ty(*want) {
                return fail(
                    line,
                    format!(
                        "argument type mismatch in call to {name}: expected {}, got {}",
                        scalar_ty(*want).name(),
                        v.ty.name()
                    ),
                );
            }
            regs.push(v.reg);
        }
        let r = self.fb.call(sig.index, &regs);
        match sig.ret {
            Some(ast::Type::Float) => {
                // Returned through the integer file as a raw bit pattern;
                // reconstruct the float losslessly.
                let f = self.fb.new_vreg(RegClass::Float);
                self.fb.push(Inst::new(Opcode::BitsF).dst(f).args(&[r]));
                Ok(Val {
                    reg: f,
                    ty: Ty::Float,
                })
            }
            _ => Ok(Val {
                reg: r,
                ty: Ty::Int,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use metaopt_ir::interp::{run, RunConfig};

    fn eval(src: &str) -> i64 {
        let prog = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        run(&prog, &RunConfig::default()).unwrap().ret
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval("fn main() -> int { return 2 + 3 * 4; }"), 14);
        assert_eq!(eval("fn main() -> int { return (2 + 3) * 4; }"), 20);
        assert_eq!(eval("fn main() -> int { return 7 % 3 + 10 / 4; }"), 3);
        assert_eq!(eval("fn main() -> int { return 1 << 4 >> 2; }"), 4);
        assert_eq!(eval("fn main() -> int { return -5 + 2; }"), -3);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval("fn main() -> int { return 3 < 4; }"), 1);
        assert_eq!(eval("fn main() -> int { return 3 >= 4; }"), 0);
        assert_eq!(eval("fn main() -> int { return 1 < 2 && 3 < 4; }"), 1);
        assert_eq!(eval("fn main() -> int { return 1 > 2 || 3 > 4; }"), 0);
        assert_eq!(eval("fn main() -> int { return !(1 > 2); }"), 1);
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            eval("fn main() -> int { let s = 0; for (let i = 0; i < 10; i = i + 1) { s = s + i; } return s; }"),
            45
        );
        assert_eq!(
            eval("fn main() -> int { let x = 5; if (x < 3) { return 1; } else if (x < 7) { return 2; } return 3; }"),
            2
        );
        assert_eq!(
            eval("fn main() -> int { let n = 100; let c = 0; while (n > 1) { if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; } c = c + 1; } return c; }"),
            25
        );
    }

    #[test]
    fn globals_and_arrays() {
        assert_eq!(
            eval("global int xs[4] = { 10, 20, 30, 40 }; fn main() -> int { xs[1] = xs[1] + 5; return xs[0] + xs[1]; }"),
            35
        );
        assert_eq!(
            eval("global byte buf[8] = { 255, 1 }; fn main() -> int { return buf[0] + buf[1]; }"),
            256
        );
        assert_eq!(
            eval("global int acc; fn main() -> int { acc = 7; return acc * 2; }"),
            14
        );
    }

    #[test]
    fn floats_and_conversions() {
        assert_eq!(
            eval("fn main() -> int { let x = 2.5; let y = x * 4.0; return f2i(y); }"),
            10
        );
        assert_eq!(eval("fn main() -> int { return f2i(sqrt(i2f(49))); }"), 7);
        assert_eq!(
            eval("global float fs[2] = { 1.5, 2.5 }; fn main() -> int { return f2i(fs[0] + fs[1]); }"),
            4
        );
        assert_eq!(eval("fn main() -> int { return 2.0 < 3.0; }"), 1);
    }

    #[test]
    fn functions_and_recursion_free_calls() {
        assert_eq!(
            eval(
                r#"
                fn sq(x: int) -> int { return x * x; }
                fn hyp(a: int, b: int) -> int { return sq(a) + sq(b); }
                fn main() -> int { return hyp(3, 4); }
            "#
            ),
            25
        );
        assert_eq!(
            eval(
                r#"
                fn scale(x: float, k: float) -> float { return x * k; }
                fn main() -> int { return f2i(scale(3.0, 7.0)); }
            "#
            ),
            21
        );
    }

    #[test]
    fn builtins() {
        assert_eq!(
            eval("fn main() -> int { return abs(-9) + min(3, 5) + max(3, 5); }"),
            17
        );
        assert_eq!(
            eval("fn main() -> int { let a = ucall(1, 42); let b = ucall(1, 42); return a != b; }"),
            1
        );
    }

    #[test]
    fn type_errors_reported() {
        assert!(crate::compile("fn main() -> int { return 1 + 2.0; }").is_err());
        assert!(crate::compile("fn main() -> int { return undefined_var; }").is_err());
        assert!(crate::compile("fn main() -> int { let x = 1; let x = 2; return x; }").is_err());
        assert!(crate::compile("fn main() -> int { return nosuchfn(1); }").is_err());
        assert!(crate::compile("fn f(a: int) {} fn main() -> int { f(1, 2); return 0; }").is_err());
        assert!(crate::compile("global float g; fn main() -> int { g = 1; return 0; }").is_err());
    }

    #[test]
    fn shadowing_in_nested_scopes() {
        assert_eq!(
            eval("fn main() -> int { let x = 1; if (1 < 2) { let x = 10; x = x + 1; } return x; }"),
            1
        );
    }

    #[test]
    fn early_return_with_trailing_code() {
        assert_eq!(
            eval("fn main() -> int { if (1 < 2) { return 5; } else { return 6; } }"),
            5
        );
        assert_eq!(eval("fn main() -> int { return 1; return 2; }"), 1);
    }
}
