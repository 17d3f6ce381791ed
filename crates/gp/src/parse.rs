//! S-expression parser for the Table 1 genome syntax.
//!
//! Accepts the exact forms from the paper —
//! `(add R R)`, `(sub R R)`, `(mul R R)`, `(div R R)`, `(sqrt R)`,
//! `(tern B R R)`, `(cmul B R R)`, `(rconst K)`,
//! `(and B B)`, `(or B B)`, `(not B)`, `(lt R R)`, `(gt R R)`, `(eq R R)`,
//! `(bconst true|false)`, `(barg name)` —
//! with two ergonomic sugars: a bare numeric literal is `(rconst K)` and a
//! bare identifier is a feature terminal looked up in the [`FeatureSet`].

use crate::expr::{BExpr, Expr, RExpr};
use crate::features::FeatureSet;
use std::fmt;

/// Parse failure with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expression parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: msg.into(),
    })
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Open,
    Close,
    Sym(String),
}

fn tokenize(src: &str) -> Vec<Tok> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in src.chars() {
        match c {
            '(' | ')' => {
                if !cur.is_empty() {
                    out.push(Tok::Sym(std::mem::take(&mut cur)));
                }
                out.push(if c == '(' { Tok::Open } else { Tok::Close });
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(Tok::Sym(std::mem::take(&mut cur)));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(Tok::Sym(cur));
    }
    out
}

/// Deepest operator nesting the parser accepts. Search trees stay within
/// `GpParams::max_depth` (12 by default); the bound keeps the recursive
/// descent, and every recursive walk over the tree it returns, off the end
/// of the stack on hostile input.
pub const MAX_NESTING: usize = 256;

struct Parser<'a> {
    toks: Vec<Tok>,
    pos: usize,
    /// Operator forms currently open.
    depth: usize,
    fs: &'a FeatureSet,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t.ok_or_else(|| ParseError {
            message: "unexpected end of input".into(),
        })
    }

    /// Step into an operator form: consume its `(` and read its operator.
    fn open(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return err(format!(
                "expression nested deeper than {MAX_NESTING} levels"
            ));
        }
        self.head()
    }

    /// Step out of an operator form: consume its `)`.
    fn close(&mut self) -> Result<(), ParseError> {
        self.depth -= 1;
        match self.next()? {
            Tok::Close => Ok(()),
            t => err(format!("expected ')', found {t:?}")),
        }
    }

    fn head(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Sym(s) => Ok(s),
            t => err(format!("expected operator symbol, found {t:?}")),
        }
    }

    fn real(&mut self) -> Result<RExpr, ParseError> {
        match self.peek() {
            Some(Tok::Open) => {
                let op = self.open()?;
                let e = match op.as_str() {
                    "add" => RExpr::Add(Box::new(self.real()?), Box::new(self.real()?)),
                    "sub" => RExpr::Sub(Box::new(self.real()?), Box::new(self.real()?)),
                    "mul" => RExpr::Mul(Box::new(self.real()?), Box::new(self.real()?)),
                    "div" => RExpr::Div(Box::new(self.real()?), Box::new(self.real()?)),
                    "sqrt" => RExpr::Sqrt(Box::new(self.real()?)),
                    "tern" => RExpr::Tern(
                        Box::new(self.boolean()?),
                        Box::new(self.real()?),
                        Box::new(self.real()?),
                    ),
                    "cmul" => RExpr::Cmul(
                        Box::new(self.boolean()?),
                        Box::new(self.real()?),
                        Box::new(self.real()?),
                    ),
                    "rconst" => match self.next()? {
                        Tok::Sym(s) => match s.parse::<f64>() {
                            Ok(k) => RExpr::Const(k),
                            Err(_) => return err(format!("bad real constant {s}")),
                        },
                        t => return err(format!("rconst expects a number, found {t:?}")),
                    },
                    other => return err(format!("unknown real operator {other}")),
                };
                self.close()?;
                Ok(e)
            }
            Some(Tok::Sym(_)) => {
                let Tok::Sym(s) = self.next()? else {
                    unreachable!()
                };
                if let Ok(k) = s.parse::<f64>() {
                    return Ok(RExpr::Const(k));
                }
                if let Some(i) = self.fs.real_index(&s) {
                    return Ok(RExpr::Feat(i));
                }
                // Accept the printer's positional form `rN`.
                if let Some(i) = s.strip_prefix('r').and_then(|r| r.parse::<u16>().ok()) {
                    return Ok(RExpr::Feat(i));
                }
                err(format!("unknown real feature {s}"))
            }
            _ => err("expected real expression"),
        }
    }

    fn boolean(&mut self) -> Result<BExpr, ParseError> {
        match self.peek() {
            Some(Tok::Open) => {
                let op = self.open()?;
                let e = match op.as_str() {
                    "and" => BExpr::And(Box::new(self.boolean()?), Box::new(self.boolean()?)),
                    "or" => BExpr::Or(Box::new(self.boolean()?), Box::new(self.boolean()?)),
                    "not" => BExpr::Not(Box::new(self.boolean()?)),
                    "lt" => BExpr::Lt(Box::new(self.real()?), Box::new(self.real()?)),
                    "gt" => BExpr::Gt(Box::new(self.real()?), Box::new(self.real()?)),
                    "eq" => BExpr::Eq(Box::new(self.real()?), Box::new(self.real()?)),
                    "bconst" => match self.next()? {
                        Tok::Sym(s) if s == "true" => BExpr::Const(true),
                        Tok::Sym(s) if s == "false" => BExpr::Const(false),
                        t => return err(format!("bconst expects true/false, found {t:?}")),
                    },
                    "barg" => match self.next()? {
                        Tok::Sym(s) => match self.fs.bool_index(&s) {
                            Some(i) => BExpr::Feat(i),
                            None => return err(format!("unknown bool feature {s}")),
                        },
                        t => return err(format!("barg expects a name, found {t:?}")),
                    },
                    other => return err(format!("unknown bool operator {other}")),
                };
                self.close()?;
                Ok(e)
            }
            Some(Tok::Sym(_)) => {
                let Tok::Sym(s) = self.next()? else {
                    unreachable!()
                };
                match s.as_str() {
                    "true" => return Ok(BExpr::Const(true)),
                    "false" => return Ok(BExpr::Const(false)),
                    _ => {}
                }
                if let Some(i) = self.fs.bool_index(&s) {
                    return Ok(BExpr::Feat(i));
                }
                // Accept the printer's positional form `bN`.
                if let Some(i) = s.strip_prefix('b').and_then(|r| r.parse::<u16>().ok()) {
                    return Ok(BExpr::Feat(i));
                }
                err(format!("unknown bool feature {s}"))
            }
            _ => err("expected bool expression"),
        }
    }

    fn finish(&mut self) -> Result<(), ParseError> {
        if self.pos != self.toks.len() {
            return err("trailing tokens after expression");
        }
        Ok(())
    }
}

/// Parse a real-valued expression.
///
/// # Errors
/// Returns a [`ParseError`] on malformed syntax or unknown features.
pub fn parse_real(src: &str, fs: &FeatureSet) -> Result<RExpr, ParseError> {
    let mut p = Parser {
        toks: tokenize(src),
        pos: 0,
        depth: 0,
        fs,
    };
    let e = p.real()?;
    p.finish()?;
    Ok(e)
}

/// Parse a Boolean-valued expression.
///
/// # Errors
/// Returns a [`ParseError`] on malformed syntax or unknown features.
pub fn parse_bool(src: &str, fs: &FeatureSet) -> Result<BExpr, ParseError> {
    let mut p = Parser {
        toks: tokenize(src),
        pos: 0,
        depth: 0,
        fs,
    };
    let e = p.boolean()?;
    p.finish()?;
    Ok(e)
}

/// Parse an expression of either sort: tries real first, then Boolean.
///
/// # Errors
/// Returns the real-parse error if both fail.
pub fn parse_expr(src: &str, fs: &FeatureSet) -> Result<Expr, ParseError> {
    match parse_real(src, fs) {
        Ok(r) => Ok(Expr::Real(r)),
        Err(e) => parse_bool(src, fs).map(Expr::Bool).map_err(|_| e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Env;

    fn fs() -> FeatureSet {
        let mut f = FeatureSet::new();
        f.add_real("exec_ratio");
        f.add_real("num_ops");
        f.add_bool("mem_hazard");
        f
    }

    #[test]
    fn parses_eq1_style_expression() {
        // priority = exec_ratio * h * (2.1 - d - o) with h via cmul
        let fs = fs();
        let e = parse_real(
            "(mul exec_ratio (cmul (barg mem_hazard) 0.25 (sub 2.1 num_ops)))",
            &fs,
        )
        .unwrap();
        let v = e.eval(&Env {
            reals: &[0.5, 1.0],
            bools: &[false],
        });
        assert!((v - 0.5 * 1.1).abs() < 1e-12, "{v}");
    }

    #[test]
    fn round_trips_through_display() {
        let fs = fs();
        let src = "(cmul (not (barg mem_hazard)) (div num_ops exec_ratio) (rconst 0.25))";
        let e = parse_real(src, &fs).unwrap();
        let printed = e.to_string();
        let re = parse_real(&printed, &fs).unwrap();
        assert_eq!(e, re);
    }

    #[test]
    fn bare_literals_and_features() {
        let fs = fs();
        let e = parse_real("(add 1.5 exec_ratio)", &fs).unwrap();
        assert_eq!(
            e.eval(&Env {
                reals: &[2.0, 0.0],
                bools: &[]
            }),
            3.5
        );
    }

    #[test]
    fn bool_expressions() {
        let fs = fs();
        let e = parse_bool("(and (gt num_ops 3) (not mem_hazard))", &fs).unwrap();
        assert!(e.eval(&Env {
            reals: &[0.0, 4.0],
            bools: &[false]
        }));
        assert!(!e.eval(&Env {
            reals: &[0.0, 2.0],
            bools: &[false]
        }));
    }

    #[test]
    fn errors_are_reported() {
        let fs = fs();
        assert!(parse_real("(add 1", &fs).is_err());
        assert!(parse_real("(frob 1 2)", &fs).is_err());
        assert!(parse_real("(add 1 unknown_feat)", &fs).is_err());
        assert!(parse_real("(add 1 2) extra", &fs).is_err());
        assert!(parse_bool("(lt 1)", &fs).is_err());
    }

    #[test]
    fn parse_expr_dispatches_on_sort() {
        let fs = fs();
        assert!(matches!(parse_expr("(add 1 2)", &fs), Ok(Expr::Real(_))));
        assert!(matches!(parse_expr("(lt 1 2)", &fs), Ok(Expr::Bool(_))));
    }
}
