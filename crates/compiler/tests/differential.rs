//! The pipeline's strongest correctness property, fuzzed: **any** MiniC
//! program compiled under **any** priority functions (hyperblock, regalloc,
//! prefetch), **any** legal pipeline plan, on **any** reasonable machine
//! must produce exactly the reference interpreter's result.

use metaopt_compiler::{compile, prepare_checked, Passes, PipelinePlan};
use metaopt_ir::interp::{run, RunConfig};
use metaopt_sim::{simulate, MachineConfig};
use proptest::prelude::*;

/// A random but always-valid, always-terminating MiniC `main`.
#[derive(Debug, Clone)]
enum Stmt {
    Assign(usize, Expr),
    Store(Expr, Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    For(u8, Vec<Stmt>),
}

#[derive(Debug, Clone)]
enum Expr {
    Lit(i16),
    Var(usize),
    Load(Box<Expr>),
    Bin(u8, Box<Expr>, Box<Expr>),
}

const VARS: [&str; 4] = ["a", "b", "c", "d"];

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<i16>().prop_map(Expr::Lit),
        (0usize..VARS.len()).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Load(Box::new(e))),
            (0u8..8, inner.clone(), inner).prop_map(|(op, a, b)| Expr::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn arb_stmt(depth: u32) -> BoxedStrategy<Stmt> {
    if depth == 0 {
        prop_oneof![
            ((0usize..VARS.len()), arb_expr()).prop_map(|(v, e)| Stmt::Assign(v, e)),
            (arb_expr(), arb_expr()).prop_map(|(i, v)| Stmt::Store(i, v)),
        ]
        .boxed()
    } else {
        let inner = proptest::collection::vec(arb_stmt(depth - 1), 1..4);
        prop_oneof![
            3 => ((0usize..VARS.len()), arb_expr()).prop_map(|(v, e)| Stmt::Assign(v, e)),
            2 => (arb_expr(), arb_expr()).prop_map(|(i, v)| Stmt::Store(i, v)),
            2 => (arb_expr(), inner.clone(), proptest::collection::vec(arb_stmt(depth - 1), 0..3))
                .prop_map(|(c, t, e)| Stmt::If(c, t, e)),
            1 => ((2u8..10), inner).prop_map(|(n, b)| Stmt::For(n, b)),
        ]
        .boxed()
    }
}

fn expr_src(e: &Expr) -> String {
    match e {
        Expr::Lit(v) => format!("{v}"),
        Expr::Var(v) => VARS[*v].to_string(),
        Expr::Load(ix) => format!("xs[abs({}) % 64]", expr_src(ix)),
        Expr::Bin(op, a, b) => {
            let o = ["+", "-", "*", "/", "%", "&", "|", "^"][(*op % 8) as usize];
            format!("({} {o} {})", expr_src(a), expr_src(b))
        }
    }
}

fn stmt_src(s: &Stmt, out: &mut String, loop_depth: usize, indent: usize) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Assign(v, e) => {
            out.push_str(&format!("{pad}{} = {};\n", VARS[*v], expr_src(e)));
        }
        Stmt::Store(ix, v) => {
            out.push_str(&format!(
                "{pad}xs[abs({}) % 64] = {};\n",
                expr_src(ix),
                expr_src(v)
            ));
        }
        Stmt::If(c, t, e) => {
            out.push_str(&format!("{pad}if (({}) % 2 == 0) {{\n", expr_src(c)));
            for s in t {
                stmt_src(s, out, loop_depth, indent + 1);
            }
            if e.is_empty() {
                out.push_str(&format!("{pad}}}\n"));
            } else {
                out.push_str(&format!("{pad}}} else {{\n"));
                for s in e {
                    stmt_src(s, out, loop_depth, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
        }
        Stmt::For(n, body) => {
            let v = format!("i{loop_depth}");
            out.push_str(&format!(
                "{pad}for (let {v} = 0; {v} < {n}; {v} = {v} + 1) {{\n"
            ));
            out.push_str(&format!("{pad}    a = a + {v};\n"));
            for s in body {
                stmt_src(s, out, loop_depth + 1, indent + 1);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
    }
}

fn program_src(stmts: &[Stmt]) -> String {
    let mut body = String::new();
    for s in stmts {
        stmt_src(s, &mut body, 0, 1);
    }
    format!(
        r#"
        global int xs[64];
        fn main() -> int {{
            let a = 1; let b = 2; let c = 3; let d = 4;
            for (let k = 0; k < 64; k = k + 1) {{ xs[k] = k * 2654435761 % 977; }}
{body}
            let h = a ^ b ^ c ^ d;
            for (let k = 0; k < 64; k = k + 1) {{ h = (h * 31 + xs[k]) % 1000003; }}
            return h;
        }}
    "#
    )
}

/// A handful of adversarial priority functions spanning the search space.
fn priorities(pick: u8) -> (f64, f64) {
    // (hyperblock bias, regalloc bias): interpreted by the closures below.
    match pick % 5 {
        0 => (1e9, 1.0),
        1 => (-1e9, -1.0),
        2 => (0.0, 0.0),
        3 => (1.0, 1e6),
        _ => (-1.0, 1e-6),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn compiled_code_matches_interpreter(
        stmts in proptest::collection::vec(arb_stmt(2), 1..6),
        pick in any::<u8>(),
        tiny_regs in any::<bool>(),
        unroll in any::<bool>(),
    ) {
        let src = program_src(&stmts);
        let prog = metaopt_lang::compile(&src)
            .unwrap_or_else(|e| panic!("generated MiniC must compile: {e}\n{src}"));
        let prepared = prepare_checked(&prog, true).expect("prepares");
        let want = run(&prepared, &RunConfig::default()).expect("interprets");
        let profile = run(&prepared, &RunConfig { profile: true, ..Default::default() })
            .expect("profiles")
            .profile
            .expect("requested");

        let (hb_bias, ra_bias) = priorities(pick);
        let hb = move |r: &[f64], _: &[bool]| r[2] * 10.0 + hb_bias;
        let ra = move |r: &[f64], _: &[bool]| r[0] * ra_bias + r[2];
        let pf = |_: &[f64], b: &[bool]| b[0];
        // Fuzz the phase order too: any legal plan must stay correct.
        let plan: PipelinePlan = ["prefetch,hyperblock,regalloc,schedule",
            "hyperblock,prefetch,regalloc,schedule",
            "hyperblock,regalloc,schedule",
            "prefetch,regalloc,schedule"][(pick % 4) as usize]
            .parse()
            .unwrap();
        let plan = if unroll { plan.with_unroll(8) } else { plan };
        let passes = Passes {
            plan,
            hyperblock: &hb,
            regalloc: &ra,
            prefetch: &pf,
            prefetch_iters_ahead: 4,
            // Fuzzed pipelines double as a stress test for the inter-pass
            // invariant checker and the semantic validators: every boundary
            // of every case must be clean, and validation must never reject
            // a compile the interpreter differential accepts (the soundness
            // stance of DESIGN.md §13).
            check_ir: true,
            validate: metaopt_compiler::ValidationLevel::Full,
            tracer: metaopt_trace::Tracer::disabled(),
        };
        let mut machine = MachineConfig::table3();
        if tiny_regs {
            machine.gpr = 10;
            machine.fpr = 8;
        }
        let compiled = compile(&prepared, &profile.funcs[0], &machine, &passes)
            .expect("compiles");
        let mem = compiled.initial_memory(&prepared);
        let got = simulate(&compiled.code, &machine, mem).expect("simulates");
        prop_assert_eq!(got.ret, want.ret, "source:\n{}", src);
        // Memory images agree over the program's own address space.
        let n = prepared.memory_size();
        prop_assert_eq!(&got.memory[..n], &want.memory[..n], "memory divergence in:\n{}", src);
    }
}
