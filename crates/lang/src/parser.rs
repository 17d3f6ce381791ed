//! Recursive-descent parser for MiniC.

use crate::ast::*;
use crate::lexer::{SpannedTok, Tok};
use crate::LangError;

/// Deepest nesting the parser accepts, counting blocks, `else if` arms,
/// parentheses, unary operators, call and index operands, and each binary
/// operator of a chain (which nests its left operand). Parsing and
/// lowering recurse once per level, so deeper input is an error rather
/// than a stack overflow. Every suite kernel compiles under it.
pub const MAX_NESTING: usize = 256;

struct P<'a> {
    toks: &'a [SpannedTok],
    pos: usize,
    depth: usize,
}

impl<'a> P<'a> {
    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LangError> {
        Err(LangError {
            line: self.line(),
            message: msg.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p)
    }

    fn at_ident(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(q)) if q == s)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), LangError> {
        if self.at_punct(p) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!(
                "expected `{p}`, found `{}`",
                self.peek().map_or("<eof>".to_string(), |t| t.to_string())
            ))
        }
    }

    /// Go one nesting level deeper, or fail past [`MAX_NESTING`].
    fn enter(&mut self) -> Result<(), LangError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nested deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        self.enter()?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn expect_ident(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            t => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected identifier, found {t:?}"))
            }
        }
    }

    fn parse_type(&mut self) -> Result<Type, LangError> {
        match self.bump() {
            Some(Tok::Ident(s)) if s == "int" => Ok(Type::Int),
            Some(Tok::Ident(s)) if s == "float" => Ok(Type::Float),
            t => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected type, found {t:?}"))
            }
        }
    }

    fn parse_elem_type(&mut self) -> Result<ElemType, LangError> {
        match self.bump() {
            Some(Tok::Ident(s)) if s == "int" => Ok(ElemType::Int),
            Some(Tok::Ident(s)) if s == "float" => Ok(ElemType::Float),
            Some(Tok::Ident(s)) if s == "byte" => Ok(ElemType::Byte),
            t => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected element type, found {t:?}"))
            }
        }
    }

    fn parse_lit(&mut self) -> Result<Lit, LangError> {
        let neg = if self.at_punct("-") {
            self.pos += 1;
            true
        } else {
            false
        };
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Lit::Int(if neg { -v } else { v })),
            Some(Tok::Float(v)) => Ok(Lit::Float(if neg { -v } else { v })),
            t => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected literal, found {t:?}"))
            }
        }
    }

    fn parse_global(&mut self) -> Result<GlobalDecl, LangError> {
        let line = self.line();
        self.pos += 1; // `global`
        let elem = self.parse_elem_type()?;
        let name = self.expect_ident()?;
        let len = if self.at_punct("[") {
            self.pos += 1;
            let n = match self.bump() {
                Some(Tok::Int(v)) if v > 0 => v as usize,
                t => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err(format!("expected positive array length, found {t:?}"));
                }
            };
            self.expect_punct("]")?;
            n
        } else {
            1
        };
        let mut init = Vec::new();
        if self.at_punct("=") {
            self.pos += 1;
            if self.at_punct("{") {
                self.pos += 1;
                while !self.at_punct("}") {
                    init.push(self.parse_lit()?);
                    if self.at_punct(",") {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect_punct("}")?;
            } else {
                init.push(self.parse_lit()?);
            }
        }
        if init.len() > len {
            return self.err(format!(
                "global {name}: {} initializers for {len} elements",
                init.len()
            ));
        }
        self.expect_punct(";")?;
        Ok(GlobalDecl {
            name,
            elem,
            len,
            init,
            line,
        })
    }

    fn parse_func(&mut self) -> Result<FuncDecl, LangError> {
        let line = self.line();
        self.pos += 1; // `fn`
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        while !self.at_punct(")") {
            let pname = self.expect_ident()?;
            self.expect_punct(":")?;
            let ty = self.parse_type()?;
            params.push((pname, ty));
            if self.at_punct(",") {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_punct(")")?;
        let ret = if self.at_punct("->") {
            self.pos += 1;
            Some(self.parse_type()?)
        } else {
            None
        };
        let body = self.parse_block()?;
        Ok(FuncDecl {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect_punct("{")?;
        self.nested(|p| {
            let mut out = Vec::new();
            while !p.at_punct("}") {
                if p.peek().is_none() {
                    return p.err("unterminated block");
                }
                out.push(p.parse_stmt()?);
            }
            p.expect_punct("}")?;
            Ok(out)
        })
    }

    fn parse_simple_stmt(&mut self) -> Result<Stmt, LangError> {
        // `let x = e` or `lvalue = e` (no trailing `;` — used by for-headers
        // too).
        let line = self.line();
        if self.at_ident("let") {
            self.pos += 1;
            let name = self.expect_ident()?;
            self.expect_punct("=")?;
            let init = self.parse_expr()?;
            return Ok(Stmt::Let { name, init, line });
        }
        // lvalue `=` expr, or a bare expression statement.
        let start = self.pos;
        if let Some(Tok::Ident(name)) = self.peek().cloned() {
            self.pos += 1;
            if self.at_punct("=") {
                self.pos += 1;
                let value = self.parse_expr()?;
                return Ok(Stmt::Assign {
                    target: LValue::Var(name, line),
                    value,
                });
            }
            if self.at_punct("[") {
                self.pos += 1;
                let index = self.parse_expr()?;
                self.expect_punct("]")?;
                if self.at_punct("=") {
                    self.pos += 1;
                    let value = self.parse_expr()?;
                    return Ok(Stmt::Assign {
                        target: LValue::Index(name, index, line),
                        value,
                    });
                }
            }
            self.pos = start;
        }
        let e = self.parse_expr()?;
        Ok(Stmt::ExprStmt(e))
    }

    fn parse_stmt(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        if self.at_ident("if") {
            self.pos += 1;
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let then = self.parse_block()?;
            let els = if self.at_ident("else") {
                self.pos += 1;
                if self.at_ident("if") {
                    vec![self.nested(Self::parse_stmt)?]
                } else {
                    self.parse_block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If { cond, then, els });
        }
        if self.at_ident("while") {
            self.pos += 1;
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let body = self.parse_block()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.at_ident("for") {
            self.pos += 1;
            self.expect_punct("(")?;
            let init = Box::new(self.parse_simple_stmt()?);
            self.expect_punct(";")?;
            let cond = self.parse_expr()?;
            self.expect_punct(";")?;
            let step = Box::new(self.parse_simple_stmt()?);
            self.expect_punct(")")?;
            let body = self.parse_block()?;
            return Ok(Stmt::For {
                init,
                cond,
                step,
                body,
            });
        }
        if self.at_ident("break") {
            self.pos += 1;
            self.expect_punct(";")?;
            return Ok(Stmt::Break(line));
        }
        if self.at_ident("continue") {
            self.pos += 1;
            self.expect_punct(";")?;
            return Ok(Stmt::Continue(line));
        }
        if self.at_ident("return") {
            self.pos += 1;
            let val = if self.at_punct(";") {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_punct(";")?;
            return Ok(Stmt::Return(val, line));
        }
        let s = self.parse_simple_stmt()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    // Expression parsing: precedence climbing.
    fn parse_expr(&mut self) -> Result<Expr, LangError> {
        self.parse_bin(0)
    }

    fn peek_binop(&self) -> Option<(BinOp, u8)> {
        let op = match self.peek()? {
            Tok::Punct(p) => *p,
            _ => return None,
        };
        // (operator, precedence) — higher binds tighter.
        Some(match op {
            "||" => (BinOp::LOr, 1),
            "&&" => (BinOp::LAnd, 2),
            "|" => (BinOp::Or, 3),
            "^" => (BinOp::Xor, 4),
            "&" => (BinOp::And, 5),
            "==" => (BinOp::Eq, 6),
            "!=" => (BinOp::Ne, 6),
            "<" => (BinOp::Lt, 7),
            "<=" => (BinOp::Le, 7),
            ">" => (BinOp::Gt, 7),
            ">=" => (BinOp::Ge, 7),
            "<<" => (BinOp::Shl, 8),
            ">>" => (BinOp::Shr, 8),
            "+" => (BinOp::Add, 9),
            "-" => (BinOp::Sub, 9),
            "*" => (BinOp::Mul, 10),
            "/" => (BinOp::Div, 10),
            "%" => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr, LangError> {
        let outer = self.depth;
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.peek_binop() {
            if prec < min_prec {
                break;
            }
            // The expression so far becomes the left operand, one deeper.
            self.enter()?;
            let line = self.line();
            self.pos += 1;
            let rhs = self.parse_bin(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, LangError> {
        self.nested(|p| {
            let line = p.line();
            if p.at_punct("-") {
                p.pos += 1;
                let e = p.parse_unary()?;
                return Ok(Expr::Unary(UnOp::Neg, Box::new(e), line));
            }
            if p.at_punct("!") {
                p.pos += 1;
                let e = p.parse_unary()?;
                return Ok(Expr::Unary(UnOp::Not, Box::new(e), line));
            }
            p.parse_primary()
        })
    }

    fn parse_primary(&mut self) -> Result<Expr, LangError> {
        let line = self.line();
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::Int(v, line)),
            Some(Tok::Float(v)) => Ok(Expr::Float(v, line)),
            Some(Tok::Punct("(")) => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.at_punct("(") {
                    self.pos += 1;
                    let mut args = Vec::new();
                    while !self.at_punct(")") {
                        args.push(self.parse_expr()?);
                        if self.at_punct(",") {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                    return Ok(Expr::Call(name, args, line));
                }
                if self.at_punct("[") {
                    self.pos += 1;
                    let ix = self.parse_expr()?;
                    self.expect_punct("]")?;
                    return Ok(Expr::Index(name, Box::new(ix), line));
                }
                Ok(Expr::Var(name, line))
            }
            t => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected expression, found {t:?}"))
            }
        }
    }
}

/// Parse a token stream into a [`Unit`].
///
/// # Errors
/// Returns a [`LangError`] with the offending line.
pub fn parse(toks: &[SpannedTok]) -> Result<Unit, LangError> {
    let mut p = P {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut unit = Unit::default();
    while p.peek().is_some() {
        if p.at_ident("global") {
            unit.globals.push(p.parse_global()?);
        } else if p.at_ident("fn") {
            unit.funcs.push(p.parse_func()?);
        } else {
            return p.err(format!(
                "expected `global` or `fn`, found `{}`",
                p.peek().map_or("<eof>".to_string(), |t| t.to_string())
            ));
        }
    }
    Ok(unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Unit {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_globals() {
        let u =
            parse_src("global int xs[4] = { 1, 2, -3 }; global byte b[16]; global float f = 2.5;");
        assert_eq!(u.globals.len(), 3);
        assert_eq!(u.globals[0].len, 4);
        assert_eq!(
            u.globals[0].init,
            vec![Lit::Int(1), Lit::Int(2), Lit::Int(-3)]
        );
        assert_eq!(u.globals[1].elem, ElemType::Byte);
        assert_eq!(u.globals[2].len, 1);
    }

    #[test]
    fn parses_function_with_control_flow() {
        let u = parse_src(
            r#"
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
                }
                while (s > 100) { s = s - 100; }
                return s;
            }
        "#,
        );
        assert_eq!(u.funcs.len(), 1);
        assert_eq!(u.funcs[0].params, vec![("n".to_string(), Type::Int)]);
        assert_eq!(u.funcs[0].ret, Some(Type::Int));
        assert_eq!(u.funcs[0].body.len(), 4);
    }

    #[test]
    fn precedence_is_c_like() {
        let u = parse_src("fn f() -> int { return 1 + 2 * 3 < 4 && 5 == 6; }");
        let Stmt::Return(Some(e), _) = &u.funcs[0].body[0] else {
            panic!()
        };
        // Top must be &&.
        let Expr::Binary(BinOp::LAnd, l, _, _) = e else {
            panic!("top is {e:?}")
        };
        let Expr::Binary(BinOp::Lt, ll, _, _) = l.as_ref() else {
            panic!("lhs is {l:?}")
        };
        assert!(matches!(ll.as_ref(), Expr::Binary(BinOp::Add, _, _, _)));
    }

    #[test]
    fn parses_calls_and_indexing() {
        let u = parse_src("fn f() { g(xs[i], 2); xs[0] = h(); }");
        assert_eq!(u.funcs[0].body.len(), 2);
        assert!(matches!(
            &u.funcs[0].body[0],
            Stmt::ExprStmt(Expr::Call(..))
        ));
        assert!(matches!(
            &u.funcs[0].body[1],
            Stmt::Assign {
                target: LValue::Index(..),
                ..
            }
        ));
    }

    #[test]
    fn else_if_chains() {
        let u = parse_src("fn f(x: int) { if (x < 0) { } else if (x == 0) { } else { } }");
        let Stmt::If { els, .. } = &u.funcs[0].body[0] else {
            panic!()
        };
        assert_eq!(els.len(), 1);
        assert!(matches!(&els[0], Stmt::If { .. }));
    }

    #[test]
    fn errors_have_lines() {
        let toks = lex("fn f() {\n  let = 3;\n}").unwrap();
        let e = parse(&toks).unwrap_err();
        assert_eq!(e.line, 2);
    }
}
