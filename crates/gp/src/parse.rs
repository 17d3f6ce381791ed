//! S-expression parser for the Table 1 genome syntax.
//!
//! Accepts the exact forms from the paper —
//! `(add R R)`, `(sub R R)`, `(mul R R)`, `(div R R)`, `(sqrt R)`,
//! `(tern B R R)`, `(cmul B R R)`, `(rconst K)`,
//! `(and B B)`, `(or B B)`, `(not B)`, `(lt R R)`, `(gt R R)`, `(eq R R)`,
//! `(bconst true|false)`, `(barg name)` —
//! with two ergonomic sugars: a bare numeric literal is `(rconst K)` and a
//! bare identifier is a feature terminal looked up in the [`FeatureSet`].

use crate::expr::{Expr, Kind, Prim};
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
    toks: &'a [Tok],
    pos: usize,
    /// Operator forms currently open.
    depth: usize,
    fs: &'a FeatureSet,
}

impl Parser<'_> {
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
        match self.next()? {
            Tok::Sym(s) => Ok(s),
            t => err(format!("expected operator symbol, found {t:?}")),
        }
    }

    /// Step out of an operator form: consume its `)`.
    fn close(&mut self) -> Result<(), ParseError> {
        self.depth -= 1;
        match self.next()? {
            Tok::Close => Ok(()),
            t => err(format!("expected ')', found {t:?}")),
        }
    }

    /// Parse one subtree of sort `kind`, appending it to `out` in preorder.
    fn node(&mut self, kind: Kind, out: &mut Vec<Prim>) -> Result<(), ParseError> {
        match self.toks.get(self.pos) {
            Some(Tok::Open) => {
                let head = self.open()?;
                match Prim::operators(kind).iter().find(|op| op.name() == head) {
                    Some(&op) => {
                        out.push(op);
                        for &arg in op.args() {
                            self.node(arg, out)?;
                        }
                    }
                    None => out.push(self.leaf_form(kind, &head)?),
                }
                self.close()
            }
            Some(Tok::Sym(s)) => {
                out.push(self.symbol(kind, s)?);
                self.pos += 1;
                Ok(())
            }
            _ => err(format!("expected {} expression", kind.name())),
        }
    }

    /// The rest of a leaf form after its head: `(rconst K)`,
    /// `(bconst true|false)` or `(barg name)`.
    fn leaf_form(&mut self, kind: Kind, head: &str) -> Result<Prim, ParseError> {
        match (kind, head) {
            (Kind::Real, "rconst") => match self.next()? {
                Tok::Sym(s) => match s.parse::<f64>() {
                    Ok(k) => Ok(Prim::RConst(k)),
                    Err(_) => err(format!("bad real constant {s}")),
                },
                t => err(format!("rconst expects a number, found {t:?}")),
            },
            (Kind::Bool, "bconst") => match self.next()? {
                Tok::Sym(s) if s == "true" => Ok(Prim::BConst(true)),
                Tok::Sym(s) if s == "false" => Ok(Prim::BConst(false)),
                t => err(format!("bconst expects true/false, found {t:?}")),
            },
            (Kind::Bool, "barg") => match self.next()? {
                Tok::Sym(s) => match self.fs.bool_index(&s) {
                    Some(i) => Ok(Prim::BArg(i)),
                    None => err(format!("unknown bool feature {s}")),
                },
                t => err(format!("barg expects a name, found {t:?}")),
            },
            _ => err(format!("unknown {} operator {head}", kind.name())),
        }
    }

    /// A bare symbol: a literal constant, a feature name, or the printer's
    /// positional form `rN` / `bN`.
    fn symbol(&self, kind: Kind, s: &str) -> Result<Prim, ParseError> {
        let positional = |prefix| s.strip_prefix(prefix).and_then(|i| i.parse::<u16>().ok());
        let leaf = match kind {
            Kind::Real => s.parse::<f64>().ok().map(Prim::RConst).or_else(|| {
                self.fs
                    .real_index(s)
                    .or_else(|| positional('r'))
                    .map(Prim::RArg)
            }),
            Kind::Bool => match s {
                "true" => Some(Prim::BConst(true)),
                "false" => Some(Prim::BConst(false)),
                _ => self
                    .fs
                    .bool_index(s)
                    .or_else(|| positional('b'))
                    .map(Prim::BArg),
            },
        };
        leaf.ok_or_else(|| ParseError {
            message: format!("unknown {} feature {s}", kind.name()),
        })
    }
}

/// Parse an expression of either sort: tries real first, then Boolean.
///
/// # Errors
/// Returns a [`ParseError`] on malformed syntax or unknown features. When
/// both attempts fail, the error is the Boolean attempt's if the text's
/// head names that sort (a Boolean operator, `bconst`, `barg`, `true`,
/// `false` or a Boolean feature), and the real attempt's otherwise.
pub fn parse_expr(src: &str, fs: &FeatureSet) -> Result<Expr, ParseError> {
    let toks = tokenize(src);
    let parse = |kind| {
        let mut p = Parser {
            toks: &toks,
            pos: 0,
            depth: 0,
            fs,
        };
        let mut prims = Vec::new();
        p.node(kind, &mut prims)?;
        if p.pos != toks.len() {
            return err("trailing tokens after expression");
        }
        Ok(Expr { prims })
    };
    let names_bool = match toks.as_slice() {
        [Tok::Open, Tok::Sym(head), ..] => {
            head == "bconst"
                || head == "barg"
                || Prim::operators(Kind::Bool)
                    .iter()
                    .any(|op| op.name() == head)
        }
        [Tok::Sym(s), ..] => s == "true" || s == "false" || fs.bool_index(s).is_some(),
        _ => false,
    };
    parse(Kind::Real).or_else(|real| {
        parse(Kind::Bool).map_err(|boolean| if names_bool { boolean } else { real })
    })
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
        let e = parse_expr(
            "(mul exec_ratio (cmul (barg mem_hazard) 0.25 (sub 2.1 num_ops)))",
            &fs,
        )
        .unwrap();
        let v = e.eval_real(&Env {
            reals: &[0.5, 1.0],
            bools: &[false],
        });
        assert!((v - 0.5 * 1.1).abs() < 1e-12, "{v}");
    }

    #[test]
    fn malformed_text_reports_the_error_of_the_sort_it_names() {
        let mut fs = FeatureSet::new();
        fs.add_real("trip_count");
        fs.add_bool("trip_known");
        let message = |src| parse_expr(src, &fs).unwrap_err().message;
        assert_eq!(
            message("(and (gt trip_count 10.0) (barg nope))"),
            "unknown bool feature nope"
        );
        assert_eq!(
            message("(or (barg trip_known) (gt trip_count x))"),
            "unknown real feature x"
        );
        assert_eq!(
            message("(and (gt trip_count 10.0) trip_known"),
            "unexpected end of input"
        );
        // Text headed by a real operator keeps the real attempt's error.
        assert_eq!(message("(add trip_count y)"), "unknown real feature y");
    }

    #[test]
    fn round_trips_through_display() {
        let fs = fs();
        let src = "(cmul (not (barg mem_hazard)) (div num_ops exec_ratio) (rconst 0.25))";
        let e = parse_expr(src, &fs).unwrap();
        let printed = e.to_string();
        let re = parse_expr(&printed, &fs).unwrap();
        assert_eq!(e, re);
    }

    #[test]
    fn bare_literals_and_features() {
        let fs = fs();
        let e = parse_expr("(add 1.5 exec_ratio)", &fs).unwrap();
        assert_eq!(
            e.eval_real(&Env {
                reals: &[2.0, 0.0],
                bools: &[]
            }),
            3.5
        );
    }

    #[test]
    fn bool_expressions() {
        let fs = fs();
        let e = parse_expr("(and (gt num_ops 3) (not mem_hazard))", &fs).unwrap();
        assert!(e.eval_bool(&Env {
            reals: &[0.0, 4.0],
            bools: &[false]
        }));
        assert!(!e.eval_bool(&Env {
            reals: &[0.0, 2.0],
            bools: &[false]
        }));
    }

    #[test]
    fn errors_are_reported() {
        let fs = fs();
        assert!(parse_expr("(add 1", &fs).is_err());
        assert!(parse_expr("(frob 1 2)", &fs).is_err());
        assert!(parse_expr("(add 1 unknown_feat)", &fs).is_err());
        assert!(parse_expr("(add 1 2) extra", &fs).is_err());
        assert!(parse_expr("(lt 1)", &fs).is_err());
    }

    #[test]
    fn parse_expr_dispatches_on_sort() {
        let fs = fs();
        assert_eq!(parse_expr("(add 1 2)", &fs).unwrap().kind(), Kind::Real);
        assert_eq!(parse_expr("(lt 1 2)", &fs).unwrap().kind(), Kind::Bool);
    }
}
