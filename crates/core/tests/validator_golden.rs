//! Golden validator diagnostics: pins the exact text and order of what the
//! register-allocation and schedule validators report on broken inputs.
//!
//! The mutants are deterministic corruptions of real allocator and
//! scheduler output:
//!
//! * the spill-heavy kernel's fullest block collapsed into one bundle;
//! * the first and last bundles swapped, once per multi-bundle block;
//! * an allocation with two pairs of physical registers merged, so several
//!   pairs of interfering same-class vregs end up sharing a register.
//!
//! Regenerate the golden after an intentional diagnostic change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p metaopt --test validator_golden
//! ```

use metaopt_analysis::{render_lines, validate_regalloc, validate_schedule};
use metaopt_compiler::{prepare, PassCtx, PassManager, Passes};
use metaopt_ir::interp::{run, RunConfig};
use metaopt_ir::{Function, RegClass, VReg};
use metaopt_sim::{Bundle, MachineConfig, MachineProgram};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/validator_diagnostics.golden"
);

/// More simultaneously-live integers than a 10-GPR machine (6 allocatable
/// registers) can hold, so the allocator really spills.
const SPILLY: &str = r#"
    global int xs[16];
    fn main() -> int {
        for (let k = 0; k < 16; k = k + 1) { xs[k] = k * 7 + 3; }
        let a = xs[0]; let b = xs[1]; let c = xs[2]; let d = xs[3];
        let e = xs[4]; let f = xs[5]; let g = xs[6]; let h = xs[7];
        let i = xs[8]; let j = xs[9];
        return (a * b + c * d + e * f + g * h + i * j)
             + (a + c + e + g + i) - (b + d + f + h + j);
    }
"#;

/// `src` through the default `regalloc,schedule` pipeline: the prepared
/// function, its allocated form, the scheduled code, the globals size and
/// the final memory size.
fn lower(src: &str, machine: &MachineConfig) -> (Function, Function, MachineProgram, usize, usize) {
    let prepared = prepare(&metaopt_lang::compile(src).unwrap()).unwrap();
    let profile = run(
        &prepared,
        &RunConfig {
            profile: true,
            ..Default::default()
        },
    )
    .unwrap()
    .profile
    .unwrap();
    let passes = Passes::default();
    let pre = prepared.funcs[0].clone();
    let mut post = pre.clone();
    let mut ctx = PassCtx::new(&profile.funcs[0], machine, &passes, prepared.memory_size());
    PassManager::from_plan(&passes.plan)
        .run(&mut post, &mut ctx)
        .unwrap();
    let code = ctx.code.take().unwrap();
    (pre, post, code, prepared.memory_size(), ctx.mem_size)
}

/// Rename every integer-class use of physical register `from` to `to`.
fn merge_int_register(func: &mut Function, from: u32, to: u32) {
    for block in &mut func.blocks {
        for inst in &mut block.insts {
            let classes = inst.op.arg_classes();
            for (ai, a) in inst.args.iter_mut().enumerate() {
                let class = classes.map_or(RegClass::Int, |cs| cs[ai]);
                if class == RegClass::Int && a.0 == from {
                    *a = VReg(to);
                }
            }
            if inst.op.dst_class() == Some(RegClass::Int) && inst.dst == Some(VReg(from)) {
                inst.dst = Some(VReg(to));
            }
        }
    }
}

fn diagnostics_report() -> String {
    let mut machine = MachineConfig::table3();
    machine.gpr = 10;
    let (pre, post, code, base_mem, mem_size) = lower(SPILLY, &machine);
    let mut out = String::new();
    let mut section = |title: String, diags: &[metaopt_analysis::Diagnostic]| {
        writeln!(out, "== {title} ({} findings)", diags.len()).unwrap();
        if !diags.is_empty() {
            writeln!(out, "{}", render_lines(diags)).unwrap();
        }
    };

    // The fullest block collapsed into one bundle.
    let fullest = (0..code.blocks.len())
        .max_by_key(|&b| {
            code.blocks[b]
                .iter()
                .map(|bu| bu.insts.len())
                .sum::<usize>()
        })
        .unwrap();
    let mut packed = code.clone();
    let merged: Vec<_> = packed.blocks[fullest]
        .drain(..)
        .flat_map(|bu| bu.insts)
        .collect();
    packed.blocks[fullest].push(Bundle { insts: merged });
    section(
        format!("over-packed block {fullest}"),
        &validate_schedule(&post, &packed, &machine, "schedule"),
    );

    // First and last bundles swapped in each multi-bundle block.
    for b in 0..code.blocks.len() {
        if code.blocks[b].len() < 2 {
            continue;
        }
        let mut swapped = code.clone();
        let last = swapped.blocks[b].len() - 1;
        swapped.blocks[b].swap(0, last);
        section(
            format!("block {b}: bundles 0 and {last} swapped"),
            &validate_schedule(&post, &swapped, &machine, "schedule"),
        );
    }

    // Two register pairs merged: interfering vregs now share r4 and r6.
    let mut shared = post.clone();
    merge_int_register(&mut shared, 5, 4);
    merge_int_register(&mut shared, 7, 6);
    section(
        "r5 merged into r4, r7 merged into r6".into(),
        &validate_regalloc(&pre, &shared, &machine, base_mem, mem_size, "regalloc"),
    );
    out
}

#[test]
fn validator_diagnostics_match_the_golden() {
    let report = diagnostics_report();
    assert!(
        report.matches("share Phys(").count() >= 2,
        "the merged allocation must force at least two clashes:\n{report}"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &report).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            Path::new(GOLDEN).display()
        )
    });
    assert_eq!(
        report, golden,
        "validator diagnostics drifted from the golden; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}
