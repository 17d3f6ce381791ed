//! Per-pass translation validation: prove that a pass's output means the
//! same thing as its input, where that is decidable.
//!
//! Each validator takes the IR **before** and **after** one pass and either
//! reconstructs a semantic correspondence or reports `Error` diagnostics
//! pinned to the offending block/instruction:
//!
//! * [`validate_regalloc`] — rebuilds the virtual→physical location map
//!   (register or spill slot) instruction by instruction from the rewrite
//!   shapes, and cross-checks it against an independently computed
//!   interference relation.
//! * [`validate_schedule`] — matches every bundled instruction back to the
//!   machine-form IR, recomputes data/memory dependences, and requires the
//!   bundle order to respect them and the machine's issue-width limits.
//! * [`validate_unroll`] — re-derives the counted-loop trip count from
//!   first principles and checks the replicated body is exact and the
//!   factor divides the trip count.
//! * [`validate_prefetch`] — checks the output is the input with only
//!   non-binding `Prefetch` instructions inserted.
//! * [`validate_hyperblock`] — best-effort checks on if-converted code:
//!   opaque-call preservation and predicate coverage of multiply-defined
//!   cells.
//!
//! Soundness stance (DESIGN.md §13): validators must **never** reject a
//! compile the reference tiers accept. Every `Error` here corresponds to a
//! broken correspondence that would be a real miscompile; anything
//! heuristic or undecidable is reported as `Warning` (which never fails a
//! check) or not at all.

use crate::diagnostics::{Diagnostic, Severity};
use metaopt_ir::cfg::Cfg;
use metaopt_ir::liveness::Liveness;
use metaopt_ir::{BlockId, Function, Inst, Opcode, RegClass, VReg, Width};
use metaopt_sim::machine::{first_allocatable, unit_of, FLOAT_TEMPS, INT_TEMPS, PRED_TEMPS};
use metaopt_sim::{MachineConfig, MachineProgram};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Register allocation
// ---------------------------------------------------------------------------

/// Where a virtual register lives after allocation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Loc {
    Phys(u32),
    Slot(i64),
}

/// Walking state over one block's post-allocation instruction stream.
struct PostCursor<'a> {
    insts: &'a [Inst],
    ix: usize,
}

impl<'a> PostCursor<'a> {
    fn peek(&self, ahead: usize) -> Option<&'a Inst> {
        self.insts.get(self.ix + ahead)
    }
    fn take(&mut self) -> Option<&'a Inst> {
        let i = self.insts.get(self.ix);
        self.ix += 1;
        i
    }
}

/// Match the integer half of a spill reload: `Ld.8 r<temp> <- [r0 + slot]`,
/// unpredicated, temp one of the reserved r1–r3. All spill traffic is
/// addressed off the hard-wired zero register r0, which rewritten code can
/// never name otherwise (assignments start at r4, temps at r1), so this
/// shape is unambiguous. Returns `(temp, slot)`.
fn int_reload(inst: &Inst, spill_base: i64) -> Option<(u32, i64)> {
    let t = inst.dst?.0;
    (inst.op == Opcode::Ld(Width::B8)
        && INT_TEMPS.contains(&t)
        && inst.args.len() == 1
        && inst.args[0] == VReg(0)
        && inst.imm >= spill_base
        && inst.pred.is_none())
    .then_some((t, inst.imm))
}

/// Match a float spill reload into one of the non-reserved float temps
/// (f2 is the spilled-destination temp and never holds a reloaded operand).
fn float_reload(inst: &Inst, spill_base: i64) -> Option<(u32, i64)> {
    let t = inst.dst?.0;
    (inst.op == Opcode::FLd
        && FLOAT_TEMPS[..FLOAT_TEMPS.len() - 1].contains(&t)
        && inst.args.len() == 1
        && inst.args[0] == VReg(0)
        && inst.imm >= spill_base
        && inst.pred.is_none())
    .then_some((t, inst.imm))
}

/// Match the `I2P` half of a predicate spill reload pair following `ld`:
/// `I2P p<temp> <- r<ld temp>`, unpredicated, temp one of p0–p2 (p3 is the
/// spilled-destination temp; a rewritten core `I2P` writes either p3 or an
/// allocated register, so the pair cannot be confused with one).
fn pred_reload_cvt(inst: &Inst, ld_temp: u32) -> Option<u32> {
    let t = inst.dst?.0;
    (inst.op == Opcode::I2P
        && PRED_TEMPS[..PRED_TEMPS.len() - 1].contains(&t)
        && inst.args.len() == 1
        && inst.args[0] == VReg(ld_temp)
        && inst.pred.is_none())
    .then_some(t)
}

/// Validate that `post` is `pre` rewritten by the register allocator:
/// every instruction maps back with a consistent virtual→physical (or
/// spill-slot) assignment, spill code has the exact reserved-temp shapes,
/// and no two interfering virtual registers share a physical register or
/// slot. `base_mem_size` is the pre-allocation memory image size (globals),
/// `mem_size` the post-allocation size (globals + spill area).
pub fn validate_regalloc(
    pre: &Function,
    post: &Function,
    machine: &MachineConfig,
    base_mem_size: usize,
    mem_size: usize,
    pass: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let spill_base = ((base_mem_size + 7) & !7) as i64;
    if pre.blocks.len() != post.blocks.len() {
        diags.push(Diagnostic::new(
            Severity::Error,
            pass,
            &pre.name,
            format!(
                "regalloc changed the block count ({} -> {})",
                pre.blocks.len(),
                post.blocks.len()
            ),
        ));
        return diags;
    }

    // vreg -> location, built up as the walk discovers each vreg.
    let mut loc: Vec<Option<Loc>> = vec![None; pre.num_vregs()];
    let mut bind = |diags: &mut Vec<Diagnostic>, v: VReg, l: Loc, at: (usize, usize)| match loc
        .get(v.index())
        .copied()
        .flatten()
    {
        None => {
            if let Some(slot) = loc.get_mut(v.index()) {
                *slot = Some(l);
            }
        }
        Some(prev) if prev == l => {}
        Some(prev) => diags.push(
            Diagnostic::new(
                Severity::Error,
                pass,
                &pre.name,
                format!("{v} mapped to two locations: {prev:?} and {l:?}"),
            )
            .at_inst(BlockId(at.0 as u32), at.1),
        ),
    };

    'blocks: for bi in 0..pre.blocks.len() {
        let mut cur = PostCursor {
            insts: &post.blocks[bi].insts,
            ix: 0,
        };
        for (ii, p) in pre.blocks[bi].insts.iter().enumerate() {
            let here = (bi, ii);
            let err = |diags: &mut Vec<Diagnostic>, msg: String| {
                diags.push(
                    Diagnostic::new(Severity::Error, pass, &pre.name, msg)
                        .at_inst(BlockId(bi as u32), ii),
                );
            };
            // Collect the contiguous spill-reload group preceding the core
            // instruction: int reloads, float reloads, and Ld+I2P predicate
            // pairs. Which operand each reload serves is decided below by
            // inspecting which temp each core operand names — allocated
            // registers never alias the reserved temps, so the attribution
            // is unambiguous.
            let mut reloads_int: Vec<(u32, i64, bool)> = Vec::new(); // (temp, slot, used)
            let mut reloads_float: Vec<(u32, i64, bool)> = Vec::new();
            let mut reloads_pred: Vec<(u32, i64, bool)> = Vec::new();
            let mut ld_temps: Vec<u32> = Vec::new(); // r-temps written by any reload Ld
            while let Some(i0) = cur.peek(0) {
                if let Some((t, slot)) = float_reload(i0, spill_base) {
                    if reloads_float.iter().any(|e| e.0 == t) {
                        err(&mut diags, format!("temp f{t} reloaded twice"));
                    }
                    reloads_float.push((t, slot, false));
                    cur.take();
                } else if let Some((lt, slot)) = int_reload(i0, spill_base) {
                    if ld_temps.contains(&lt) {
                        err(
                            &mut diags,
                            format!("temp r{lt} clobbered by a second reload"),
                        );
                    }
                    ld_temps.push(lt);
                    if let Some(pt) = cur.peek(1).and_then(|i1| pred_reload_cvt(i1, lt)) {
                        if reloads_pred.iter().any(|e| e.0 == pt) {
                            err(&mut diags, format!("temp p{pt} reloaded twice"));
                        }
                        reloads_pred.push((pt, slot, false));
                        cur.take();
                        cur.take();
                    } else {
                        reloads_int.push((lt, slot, false));
                        cur.take();
                    }
                } else {
                    break;
                }
            }

            // The rewritten core instruction.
            let Some(core) = cur.take() else {
                err(
                    &mut diags,
                    format!("{} missing from post-allocation stream", p.op),
                );
                continue 'blocks;
            };
            if core.op != p.op
                || core.imm != p.imm
                || core.fimm.to_bits() != p.fimm.to_bits()
                || core.target != p.target
                || core.args.len() != p.args.len()
            {
                err(
                    &mut diags,
                    format!("instruction shape changed: {} became {}", p.op, core.op),
                );
                continue 'blocks;
            }

            // Guard correspondence: a temp guard must name a predicate
            // reload, anything else must be an allocated register.
            match (p.pred, core.pred) {
                (None, None) => {}
                (Some(gv), Some(got)) => {
                    if got.0 < first_allocatable(RegClass::Pred) {
                        match reloads_pred.iter_mut().find(|e| e.0 == got.0) {
                            Some(e) => {
                                e.2 = true;
                                bind(&mut diags, gv, Loc::Slot(e.1), here);
                            }
                            None => err(
                                &mut diags,
                                format!("guard reads temp p{} with no reload", got.0),
                            ),
                        }
                    } else {
                        check_phys(&mut diags, pass, pre, here, RegClass::Pred, got, machine);
                        bind(&mut diags, gv, Loc::Phys(got.0), here);
                    }
                }
                _ => err(&mut diags, "guard added or removed by regalloc".into()),
            }

            // Operand correspondence, same rule per operand class.
            for (ai, &av) in p.args.iter().enumerate() {
                let class =
                    p.op.arg_class(ai)
                        .expect("a verified instruction fits its arity");
                let got = core.args[ai];
                if got.0 < first_allocatable(class) {
                    let pool = match class {
                        RegClass::Int => &mut reloads_int,
                        RegClass::Float => &mut reloads_float,
                        RegClass::Pred => &mut reloads_pred,
                    };
                    match pool.iter_mut().find(|e| e.0 == got.0) {
                        Some(e) => {
                            e.2 = true;
                            bind(&mut diags, av, Loc::Slot(e.1), here);
                        }
                        None => err(
                            &mut diags,
                            format!("operand {ai} reads temp {got} with no reload"),
                        ),
                    }
                } else {
                    check_phys(&mut diags, pass, pre, here, class, got, machine);
                    bind(&mut diags, av, Loc::Phys(got.0), here);
                }
            }

            // Destination: either an allocated physical register, or the
            // reserved last temp followed by the exact store-back shape.
            if let Some(dv) = p.dst {
                let class = p.op.dst_class().expect("dst implies class");
                let Some(got) = core.dst else {
                    err(&mut diags, "destination dropped by regalloc".into());
                    continue;
                };
                let spill_dst = match class {
                    RegClass::Int => (got == VReg(INT_TEMPS[2])).then(|| match cur.peek(0) {
                        Some(st)
                            if st.op == Opcode::St(Width::B8)
                                && st.args.len() == 2
                                && st.args[0] == VReg(0)
                                && st.args[1] == got
                                && st.imm >= spill_base
                                && st.pred == core.pred =>
                        {
                            Some(st.imm)
                        }
                        _ => None,
                    }),
                    RegClass::Float => (got == VReg(FLOAT_TEMPS[2])).then(|| match cur.peek(0) {
                        Some(st)
                            if st.op == Opcode::FSt
                                && st.args.len() == 2
                                && st.args[0] == VReg(0)
                                && st.args[1] == got
                                && st.imm >= spill_base
                                && st.pred == core.pred =>
                        {
                            Some(st.imm)
                        }
                        _ => None,
                    }),
                    RegClass::Pred => {
                        (got == VReg(PRED_TEMPS[3])).then(|| match (cur.peek(0), cur.peek(1)) {
                            (Some(cvt), Some(st))
                                if cvt.op == Opcode::P2I
                                    && cvt.dst == Some(VReg(INT_TEMPS[2]))
                                    && cvt.args.len() == 1
                                    && cvt.args[0] == got
                                    && cvt.pred == core.pred
                                    && st.op == Opcode::St(Width::B8)
                                    && st.args.len() == 2
                                    && st.args[0] == VReg(0)
                                    && st.args[1] == VReg(INT_TEMPS[2])
                                    && st.imm >= spill_base
                                    && st.pred == core.pred =>
                            {
                                Some(st.imm)
                            }
                            _ => None,
                        })
                    }
                };
                match spill_dst {
                    Some(Some(slot)) => {
                        // Consume the store-back sequence.
                        cur.take();
                        if class == RegClass::Pred {
                            cur.take();
                        }
                        bind(&mut diags, dv, Loc::Slot(slot), here);
                    }
                    Some(None) => {
                        err(
                            &mut diags,
                            "destination in reserved spill temp without a store-back".into(),
                        );
                    }
                    None => {
                        check_phys(&mut diags, pass, pre, here, class, got, machine);
                        bind(&mut diags, dv, Loc::Phys(got.0), here);
                    }
                }
            } else if core.dst.is_some() {
                err(&mut diags, "destination invented by regalloc".into());
            }

            // Every reload in the group must have fed this instruction.
            for (kind, pool) in [
                ("r", &reloads_int),
                ("f", &reloads_float),
                ("p", &reloads_pred),
            ] {
                for e in pool {
                    if !e.2 {
                        err(
                            &mut diags,
                            format!("reload into {kind}{} not consumed by the instruction", e.0),
                        );
                    }
                }
            }
        }
        if cur.ix != post.blocks[bi].insts.len() {
            diags.push(
                Diagnostic::new(
                    Severity::Error,
                    pass,
                    &pre.name,
                    format!(
                        "{} unexplained instructions after rewriting",
                        post.blocks[bi].insts.len() - cur.ix
                    ),
                )
                .at_block(BlockId(bi as u32)),
            );
        }
    }

    // Location sanity: slots live in the spill area, aligned.
    for (v, l) in loc.iter().enumerate() {
        if let Some(Loc::Slot(s)) = l {
            if *s < spill_base || (*s - spill_base) % 8 != 0 || *s + 8 > mem_size as i64 {
                diags.push(Diagnostic::new(
                    Severity::Error,
                    pass,
                    &pre.name,
                    format!(
                        "v{v} spill slot {s} outside the spill area [{spill_base}, {mem_size})"
                    ),
                ));
            }
        }
    }

    // Interference cross-check against independently computed liveness:
    // two same-class vregs whose pre-allocation live ranges overlap must
    // not share a physical register or a spill slot.
    let range = Liveness::compute(pre, &Cfg::new(pre)).ranges(pre);
    // Only vregs that share a location can clash: group the placed vregs
    // by location and test pairs within each group, then report the
    // clashes in increasing (v, w) order.
    let mut placed: Vec<(Loc, usize)> = loc
        .iter()
        .enumerate()
        .filter_map(|(v, l)| l.map(|l| (l, v)))
        .collect();
    placed.sort_unstable();
    let mut clashes: Vec<(usize, usize, Loc)> = Vec::new();
    for group in placed.chunk_by(|a, b| a.0 == b.0) {
        for (i, &(l, v)) in group.iter().enumerate() {
            for &(_, w) in &group[i + 1..] {
                if pre.vreg_class[v] == pre.vreg_class[w] && range.rows_intersect(v, w) {
                    clashes.push((v, w, l));
                }
            }
        }
    }
    clashes.sort_unstable_by_key(|&(v, w, _)| (v, w));
    for (v, w, l) in clashes {
        diags.push(Diagnostic::new(
            Severity::Error,
            pass,
            &pre.name,
            format!("interfering v{v} and v{w} share {l:?}"),
        ));
    }

    diags
}

fn check_phys(
    diags: &mut Vec<Diagnostic>,
    pass: &str,
    pre: &Function,
    at: (usize, usize),
    class: RegClass,
    r: VReg,
    machine: &MachineConfig,
) {
    let size = machine.file_size(class);
    if r.0 < first_allocatable(class) || r.0 as usize >= size {
        diags.push(
            Diagnostic::new(
                Severity::Error,
                pass,
                &pre.name,
                format!(
                    "{r} outside the allocatable {class:?} range [{}, {size})",
                    first_allocatable(class),
                ),
            )
            .at_inst(BlockId(at.0 as u32), at.1),
        );
    }
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

/// Dense index of a register operand: `reg·3 + class`.
fn dep_slot(class: RegClass, reg: u32) -> usize {
    reg as usize * 3 + class as usize
}

/// The register slots `inst` reads, in operand order (a `Ret` value is an
/// integer), then its guard.
fn dep_reads(inst: &Inst) -> impl Iterator<Item = usize> + '_ {
    inst.args
        .iter()
        .enumerate()
        .map_while(|(i, a)| Some(dep_slot(inst.op.arg_class(i)?, a.0)))
        .chain(inst.pred.map(|p| dep_slot(RegClass::Pred, p.0)))
}

fn dep_write(inst: &Inst) -> Option<usize> {
    match (inst.op.dst_class(), inst.dst) {
        (Some(c), Some(d)) => Some(dep_slot(c, d.0)),
        _ => None,
    }
}

/// End of a reader chain.
const NO_READER: usize = usize::MAX;

/// Per-register dependence state for one function, reused by every
/// segment: an entry is live only while its stamp equals the current
/// segment's. Readers since the last write form a chain in `reader_at`,
/// oldest first.
struct DepTables {
    stamp: u32,
    /// (stamp, last writer).
    writer: Vec<(u32, usize)>,
    /// (stamp, oldest reader entry, newest reader entry).
    readers: Vec<(u32, usize, usize)>,
    /// (reader, next entry).
    reader_at: Vec<(usize, usize)>,
    loads_since_store: Vec<usize>,
}

impl DepTables {
    fn new(func: &Function) -> Self {
        let max_reg = func
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .flat_map(|i| i.args.iter().chain(&i.pred).chain(&i.dst))
            .map(|r| r.0 as usize)
            .max()
            .unwrap_or(0);
        let slots = (max_reg + 1) * 3;
        DepTables {
            stamp: 0,
            writer: vec![(0, 0); slots],
            readers: vec![(0, NO_READER, NO_READER); slots],
            reader_at: Vec::new(),
            loads_since_store: Vec::new(),
        }
    }

    /// Call `edge(from, to, why)` for every RAW/WAR/WAW and memory-ordering
    /// dependence among `insts[lo..hi]`, in the order: each instruction's
    /// reads, its write (readers oldest first, then the previous writer),
    /// then its memory ordering.
    fn for_each_edge(
        &mut self,
        insts: &[Inst],
        lo: usize,
        hi: usize,
        mut edge: impl FnMut(usize, usize, &str),
    ) {
        self.stamp += 1;
        let stamp = self.stamp;
        self.reader_at.clear();
        self.loads_since_store.clear();
        let mut last_store: Option<usize> = None;
        for (i, inst) in insts.iter().enumerate().take(hi).skip(lo) {
            for r in dep_reads(inst) {
                let (ws, w) = self.writer[r];
                if ws == stamp {
                    edge(w, i, "read-after-write");
                }
                let at = self.reader_at.len();
                self.reader_at.push((i, NO_READER));
                match self.readers[r] {
                    (rs, first, last) if rs == stamp && first != NO_READER => {
                        self.reader_at[last].1 = at;
                        self.readers[r] = (stamp, first, at);
                    }
                    _ => self.readers[r] = (stamp, at, at),
                }
            }
            if let Some(w) = dep_write(inst) {
                let (rs, mut at, _) = self.readers[w];
                if rs == stamp {
                    while at != NO_READER {
                        let (r, next) = self.reader_at[at];
                        if r != i {
                            edge(r, i, "write-after-read");
                        }
                        at = next;
                    }
                }
                let (ws, pw) = self.writer[w];
                if ws == stamp {
                    edge(pw, i, "write-after-write");
                }
                self.writer[w] = (stamp, i);
                self.readers[w] = (stamp, NO_READER, NO_READER);
            }
            if inst.op.is_store() || inst.op == Opcode::UnsafeCall {
                if let Some(s) = last_store {
                    edge(s, i, "store ordering");
                }
                for &l in &self.loads_since_store {
                    edge(l, i, "load-store ordering");
                }
                last_store = Some(i);
                self.loads_since_store.clear();
            } else if inst.op.is_load() {
                if let Some(s) = last_store {
                    edge(s, i, "store-load ordering");
                }
                self.loads_since_store.push(i);
            }
        }
    }
}

/// Validate a schedule: `code` must contain exactly the instructions of the
/// machine-form `func`, every data/memory dependence must issue in a
/// strictly earlier bundle than its dependent, nothing may move across a
/// control instruction, and no bundle may exceed the machine's functional
/// units. Latency is deliberately *not* a correctness obligation — the
/// simulator's register-ready interlocks stall short schedules rather than
/// executing them wrongly.
pub fn validate_schedule(
    func: &Function,
    code: &MachineProgram,
    machine: &MachineConfig,
    pass: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if code.entry != func.entry.index() {
        diags.push(Diagnostic::new(
            Severity::Error,
            pass,
            &func.name,
            format!(
                "entry moved: block {} became {}",
                func.entry.index(),
                code.entry
            ),
        ));
    }
    if code.blocks.len() != func.blocks.len() {
        diags.push(Diagnostic::new(
            Severity::Error,
            pass,
            &func.name,
            format!(
                "schedule changed the block count ({} -> {})",
                func.blocks.len(),
                code.blocks.len()
            ),
        ));
        return diags;
    }

    let mut deps = DepTables::new(func);
    for bi in 0..func.blocks.len() {
        let pre = &func.blocks[bi].insts;
        let bundles = &code.blocks[bi];
        let n = pre.len();

        // Match every bundled instruction back to the earliest unmatched
        // identical IR instruction. Identical instructions are
        // interchangeable, so if any consistent matching exists, the
        // order-preserving one does.
        let mut bundle_of: Vec<Option<usize>> = vec![None; n];
        let mut extra = 0usize;
        for (bx, bundle) in bundles.iter().enumerate() {
            for inst in &bundle.insts {
                match (0..n).find(|&i| bundle_of[i].is_none() && &pre[i] == inst) {
                    Some(i) => bundle_of[i] = Some(bx),
                    None => extra += 1,
                }
            }
        }
        let missing = bundle_of.iter().filter(|b| b.is_none()).count();
        if extra > 0 || missing > 0 {
            diags.push(
                Diagnostic::new(
                    Severity::Error,
                    pass,
                    &func.name,
                    format!(
                        "schedule is not a permutation of the IR \
                         ({missing} instructions missing, {extra} unexplained)"
                    ),
                )
                .at_block(BlockId(bi as u32)),
            );
            continue;
        }
        let bundle_of: Vec<usize> = bundle_of.into_iter().map(|b| b.unwrap()).collect();

        // Nothing moves across a control instruction: every instruction
        // before a control instruction (in IR order) must issue strictly
        // before it, everything after strictly after.
        let mut max_seen: Option<usize> = None;
        let mut floor: Option<usize> = None;
        let mut segments: Vec<(usize, usize)> = Vec::new(); // IR index ranges
        let mut seg_start = 0usize;
        for (i, inst) in pre.iter().enumerate() {
            if let (Some(f), true) = (floor, bundle_of[i] <= floor.unwrap_or(0)) {
                diags.push(
                    Diagnostic::new(
                        Severity::Error,
                        pass,
                        &func.name,
                        format!(
                            "{} hoisted above a control instruction (bundle {} <= {f})",
                            inst.op, bundle_of[i]
                        ),
                    )
                    .at_inst(BlockId(bi as u32), i),
                );
            }
            if inst.op.is_control() {
                if let Some(m) = max_seen {
                    if bundle_of[i] <= m {
                        diags.push(
                            Diagnostic::new(
                                Severity::Error,
                                pass,
                                &func.name,
                                format!(
                                    "{} issued in bundle {} before its segment finished (bundle {m})",
                                    inst.op, bundle_of[i]
                                ),
                            )
                            .at_inst(BlockId(bi as u32), i),
                        );
                    }
                }
                floor = Some(bundle_of[i]);
                if seg_start < i {
                    segments.push((seg_start, i));
                }
                seg_start = i + 1;
            }
            max_seen = Some(max_seen.map_or(bundle_of[i], |m| m.max(bundle_of[i])));
        }
        if seg_start < n {
            segments.push((seg_start, n));
        }

        // Within each straight-line segment, recompute the dependence
        // edges (the same RAW/WAR/WAW + memory-ordering rules the
        // scheduler uses, on tables of the validator's own) and require
        // each edge to issue in a strictly earlier bundle.
        for &(lo, hi) in &segments {
            deps.for_each_edge(pre, lo, hi, |from, to, why| {
                if bundle_of[from] >= bundle_of[to] {
                    diags.push(
                        Diagnostic::new(
                            Severity::Error,
                            pass,
                            &func.name,
                            format!(
                                "{} dependence violated: {} (bundle {}) must precede {} (bundle {})",
                                why, pre[from].op, bundle_of[from], pre[to].op, bundle_of[to]
                            ),
                        )
                        .at_inst(BlockId(bi as u32), to),
                    );
                }
            });
        }

        // Issue-width limits per bundle.
        for (bx, bundle) in bundles.iter().enumerate() {
            let mut units = [0usize; 4];
            for inst in &bundle.insts {
                units[unit_of(inst.op).index()] += 1;
            }
            let caps = machine.unit_caps();
            let names = ["int", "float", "mem", "branch"];
            for u in 0..4 {
                if units[u] > caps[u] {
                    diags.push(
                        Diagnostic::new(
                            Severity::Error,
                            pass,
                            &func.name,
                            format!(
                                "bundle {bx} uses {} {} units, machine has {}",
                                units[u], names[u], caps[u]
                            ),
                        )
                        .at_block(BlockId(bi as u32)),
                    );
                }
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Unrolling
// ---------------------------------------------------------------------------

/// Re-derive the counted-loop facts for a two-block loop whose body is
/// `body_ix`, without trusting the unroller: returns the trip count when
/// the header matches the canonical `CmpLtI cell, bound; CBr body; Br exit`
/// idiom with a provable constant init and positive constant step that
/// divide evenly. `body` supplies the (pre-unroll) body instructions.
fn derive_trip(pre: &Function, body_ix: usize, body: &[Inst]) -> Option<i64> {
    let header_ix = body.last()?.target?.index();
    let h = &pre.blocks.get(header_ix)?.insts;
    if h.len() < 3 {
        return None;
    }
    let (cbr, br) = (&h[h.len() - 2], &h[h.len() - 1]);
    if cbr.op != Opcode::CBr
        || br.op != Opcode::Br
        || cbr.target.map(|t| t.index()) != Some(body_ix)
    {
        return None;
    }
    let cmp = &h[h.len() - 3];
    if cmp.op != Opcode::CmpLtI || cmp.dst != Some(cbr.args[0]) || cmp.pred.is_some() {
        return None;
    }
    let cell = cmp.args[0].0;
    let bound = cmp.imm;

    // Step: the cell is updated exactly once in the body, by `AddI cell, c`
    // or the `t = AddI(cell, c); Mov cell, t` idiom.
    let mut step = None;
    let mut defs = 0;
    for inst in body {
        if inst.dst.map(|d| d.0) == Some(cell) {
            defs += 1;
            match inst.op {
                Opcode::AddI if inst.args[0].0 == cell && inst.pred.is_none() => {
                    step = Some(inst.imm);
                }
                Opcode::Mov if inst.pred.is_none() => {
                    let src = inst.args[0].0;
                    step = body.iter().find_map(|s| {
                        (s.dst.map(|d| d.0) == Some(src)
                            && s.op == Opcode::AddI
                            && s.args[0].0 == cell
                            && s.pred.is_none())
                        .then_some(s.imm)
                    });
                }
                _ => return None,
            }
        }
    }
    let step = (defs == 1).then_some(step).flatten()?;
    if step <= 0 {
        return None;
    }

    // Init: exactly one out-of-loop definition, a provable constant.
    let mut def_count: HashMap<u32, u32> = HashMap::new();
    let mut movi: HashMap<u32, i64> = HashMap::new();
    for b in &pre.blocks {
        for inst in &b.insts {
            if let Some(d) = inst.dst {
                *def_count.entry(d.0).or_insert(0) += 1;
                if inst.op == Opcode::MovI && inst.pred.is_none() {
                    movi.insert(d.0, inst.imm);
                }
            }
        }
    }
    let const_of = |r: u32| -> Option<i64> {
        (def_count.get(&r) == Some(&1))
            .then(|| movi.get(&r).copied())
            .flatten()
    };
    let mut init = None;
    let mut outside_defs = 0;
    for (bi, b) in pre.blocks.iter().enumerate() {
        if bi == header_ix || bi == body_ix {
            continue;
        }
        for inst in &b.insts {
            if inst.dst.map(|d| d.0) != Some(cell) {
                continue;
            }
            outside_defs += 1;
            init = match inst.op {
                Opcode::MovI if inst.pred.is_none() => Some(inst.imm),
                Opcode::Mov if inst.pred.is_none() => const_of(inst.args[0].0),
                _ => None,
            };
        }
    }
    let init = (outside_defs == 1).then_some(init).flatten()?;
    if init >= bound {
        return None;
    }
    let span = bound - init;
    if span % step != 0 {
        return None;
    }
    Some(span / step)
}

/// Validate loop unrolling: every changed block must be a counted-loop body
/// replicated verbatim by a factor that divides the independently re-derived
/// trip count; headers and everything else must be untouched.
pub fn validate_unroll(pre: &Function, post: &Function, pass: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if pre.blocks.len() != post.blocks.len() {
        diags.push(Diagnostic::new(
            Severity::Error,
            pass,
            &pre.name,
            format!(
                "unroll changed the block count ({} -> {})",
                pre.blocks.len(),
                post.blocks.len()
            ),
        ));
        return diags;
    }
    for bi in 0..pre.blocks.len() {
        let a = &pre.blocks[bi].insts;
        let b = &post.blocks[bi].insts;
        if a == b {
            continue;
        }
        let err = |diags: &mut Vec<Diagnostic>, msg: String| {
            diags.push(
                Diagnostic::new(Severity::Error, pass, &pre.name, msg).at_block(BlockId(bi as u32)),
            );
        };
        if a.is_empty() || a.last().map(|i| i.op) != Some(Opcode::Br) {
            err(
                &mut diags,
                "changed block is not a loop body (no trailing Br)".into(),
            );
            continue;
        }
        let straight = &a[..a.len() - 1];
        let factor = [2usize, 4, 8]
            .into_iter()
            .find(|k| b.len() == straight.len() * k + 1);
        let Some(k) = factor else {
            err(
                &mut diags,
                format!(
                    "changed block size {} is not a 2/4/8-fold replication of {}",
                    b.len(),
                    a.len()
                ),
            );
            continue;
        };
        let replicated = b[..b.len() - 1]
            .chunks(straight.len())
            .all(|chunk| chunk == straight)
            && b.last() == a.last();
        if !replicated {
            err(
                &mut diags,
                format!("unrolled body is not {k} verbatim copies of the original"),
            );
            continue;
        }
        match derive_trip(pre, bi, a) {
            Some(trip) if trip % k as i64 == 0 => {}
            Some(trip) => err(
                &mut diags,
                format!("unroll factor {k} does not divide the trip count {trip}"),
            ),
            None => err(
                &mut diags,
                format!("unrolled a loop whose trip count is not provably a multiple of {k}"),
            ),
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Prefetching
// ---------------------------------------------------------------------------

/// Validate prefetch insertion: the output must be the input with zero or
/// more non-binding `Prefetch` instructions inserted (no dst, no guard, one
/// address operand) and nothing else touched.
pub fn validate_prefetch(pre: &Function, post: &Function, pass: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if pre.blocks.len() != post.blocks.len() {
        diags.push(Diagnostic::new(
            Severity::Error,
            pass,
            &pre.name,
            format!(
                "prefetch changed the block count ({} -> {})",
                pre.blocks.len(),
                post.blocks.len()
            ),
        ));
        return diags;
    }
    for bi in 0..pre.blocks.len() {
        let a = &pre.blocks[bi].insts;
        let b = &post.blocks[bi].insts;
        let mut ai = 0usize;
        for (ii, inst) in b.iter().enumerate() {
            if ai < a.len() && inst == &a[ai] {
                ai += 1;
            } else if inst.op == Opcode::Prefetch {
                if inst.args.len() != 1 || inst.dst.is_some() || inst.pred.is_some() {
                    diags.push(
                        Diagnostic::new(
                            Severity::Error,
                            pass,
                            &pre.name,
                            "malformed inserted prefetch (needs 1 address operand, no dst, no guard)"
                                .to_string(),
                        )
                        .at_inst(BlockId(bi as u32), ii),
                    );
                }
            } else {
                diags.push(
                    Diagnostic::new(
                        Severity::Error,
                        pass,
                        &pre.name,
                        format!(
                            "prefetch pass altered {} (only Prefetch insertion is allowed)",
                            inst.op
                        ),
                    )
                    .at_inst(BlockId(bi as u32), ii),
                );
                return diags;
            }
        }
        if ai != a.len() {
            diags.push(
                Diagnostic::new(
                    Severity::Error,
                    pass,
                    &pre.name,
                    format!("prefetch pass dropped {} instructions", a.len() - ai),
                )
                .at_block(BlockId(bi as u32)),
            );
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Hyperblock formation
// ---------------------------------------------------------------------------

/// Opaque calls reachable from the entry. Counting only reachable blocks
/// makes the count invariant under the pass's unreachable-block pruning.
fn reachable_unsafe_calls(func: &Function) -> usize {
    Cfg::new(func)
        .rpo()
        .iter()
        .map(|b| {
            func.block(*b)
                .insts
                .iter()
                .filter(|i| i.op == Opcode::UnsafeCall)
                .count()
        })
        .sum()
}

/// Validate hyperblock formation, best-effort. If-conversion is validated
/// structurally by the checker (`CfgForm::Hyperblock`); here we prove the
/// two semantic obligations that are cheaply decidable:
///
/// * **opaque-call preservation** (`Error`): `UnsafeCall` sites are
///   observable side effects and may be neither duplicated, dropped, nor
///   predicated, so their reachable static count must be exactly preserved.
/// * **predicate coverage** (`Warning`): a register whose only definitions
///   anywhere are predicated definitions inside one block should be covered
///   by complementary guards (`p` / `PNot p`); a gap means some path reads
///   a value no definition produced. Guard expressions the check cannot
///   resolve are skipped — coverage is undecidable in general, hence
///   warning severity.
pub fn validate_hyperblock(pre: &Function, post: &Function, pass: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let (before, after) = (reachable_unsafe_calls(pre), reachable_unsafe_calls(post));
    if before != after {
        diags.push(Diagnostic::new(
            Severity::Error,
            pass,
            &pre.name,
            format!("hyperblock changed the reachable UnsafeCall count ({before} -> {after})"),
        ));
    }
    for d in post
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| i.op == Opcode::UnsafeCall && i.pred.is_some())
    {
        diags.push(Diagnostic::new(
            Severity::Error,
            pass,
            &pre.name,
            format!("{} may not be predicated (opaque side effects)", d.op),
        ));
    }

    // Predicate coverage of block-local predicated cells.
    for (bi, block) in post.blocks.iter().enumerate() {
        // Defs of each vreg across the whole function.
        let mut defs_elsewhere = vec![0u32; post.num_vregs()];
        for (obi, ob) in post.blocks.iter().enumerate() {
            if obi == bi {
                continue;
            }
            for inst in &ob.insts {
                if let Some(d) = inst.dst {
                    defs_elsewhere[d.index()] += 1;
                }
            }
        }
        // Guard producers within the block: g -> PNot operand.
        let mut not_of: HashMap<u32, u32> = HashMap::new();
        for inst in &block.insts {
            if inst.op == Opcode::PNot {
                if let Some(d) = inst.dst {
                    not_of.insert(d.0, inst.args[0].0);
                }
            }
        }
        // Per-vreg guard sets for vregs defined only under guards here.
        let mut guards: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut unpredicated: Vec<bool> = vec![false; post.num_vregs()];
        for inst in &block.insts {
            if let Some(d) = inst.dst {
                match inst.pred {
                    None => unpredicated[d.index()] = true,
                    Some(g) => guards.entry(d.0).or_default().push(g.0),
                }
            }
        }
        for (v, gs) in &guards {
            let vi = *v as usize;
            if unpredicated[vi] || defs_elsewhere[vi] > 0 || post.params.contains(&VReg(*v)) {
                continue;
            }
            if gs.len() < 2 {
                continue; // a single guarded def of a local is a frontend
                          // pattern the coverage argument does not apply to
            }
            // Covered if some pair of guards is complementary via PNot.
            let complementary = gs.iter().any(|&g| {
                gs.iter()
                    .any(|&h| not_of.get(&h) == Some(&g) || not_of.get(&g) == Some(&h))
            });
            if !complementary {
                diags.push(
                    Diagnostic::new(
                        Severity::Warning,
                        pass,
                        &pre.name,
                        format!(
                            "v{v} has only predicated definitions with no complementary \
                             guard pair; some path may read an undefined value"
                        ),
                    )
                    .at_block(BlockId(bi as u32)),
                );
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::first_error;
    use metaopt_ir::builder::FunctionBuilder;
    use metaopt_sim::Bundle;

    fn table3() -> MachineConfig {
        MachineConfig::table3()
    }

    // -------- prefetch --------

    fn two_load_func() -> Function {
        let mut fb = FunctionBuilder::new("f");
        let base = fb.movi(0);
        let a = fb.ld8(base, 0);
        let b = fb.ld8(base, 8);
        let s = fb.add(a, b);
        fb.ret(Some(s));
        fb.finish()
    }

    #[test]
    fn prefetch_insertion_is_accepted() {
        let pre = two_load_func();
        let mut post = pre.clone();
        let addr = post.blocks[0].insts[1].args[0];
        post.blocks[0]
            .insts
            .insert(1, Inst::new(Opcode::Prefetch).args(&[addr]).imm(64));
        assert!(first_error(&validate_prefetch(&pre, &post, "prefetch")).is_none());
        // Identity is accepted too.
        assert!(validate_prefetch(&pre, &pre, "prefetch").is_empty());
    }

    #[test]
    fn prefetch_rewriting_other_code_is_rejected() {
        let pre = two_load_func();
        let mut post = pre.clone();
        post.blocks[0].insts[0].imm = 99; // mutated a MovI
        let diags = validate_prefetch(&pre, &post, "prefetch");
        assert!(first_error(&diags).is_some(), "{diags:?}");

        let mut dropped = pre.clone();
        dropped.blocks[0].insts.remove(2);
        assert!(first_error(&validate_prefetch(&pre, &dropped, "prefetch")).is_some());
    }

    // -------- unroll --------

    /// `for (i = 0; i < 8; i++) s += i` in the canonical two-block shape.
    fn counted_loop() -> Function {
        let mut fb = FunctionBuilder::new("loop");
        let hdr = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let i = fb.movi(0);
        let s = fb.movi(0);
        fb.br(hdr);
        fb.switch_to(hdr);
        let p = fb.cmp_lti(i, 8);
        fb.branch(p, body, exit);
        fb.switch_to(body);
        let s2 = fb.add(s, i);
        fb.push(Inst::new(Opcode::Mov).dst(s).args(&[s2]));
        let i2 = fb.addi(i, 1);
        fb.push(Inst::new(Opcode::Mov).dst(i).args(&[i2]));
        fb.br(hdr);
        fb.switch_to(exit);
        fb.ret(Some(s));
        fb.finish()
    }

    fn unroll_by(f: &Function, body_ix: usize, k: usize) -> Function {
        let mut post = f.clone();
        let body = post.blocks[body_ix].insts.clone();
        let straight = &body[..body.len() - 1];
        let mut insts = Vec::new();
        for _ in 0..k {
            insts.extend_from_slice(straight);
        }
        insts.push(body.last().unwrap().clone());
        post.blocks[body_ix].insts = insts;
        post
    }

    #[test]
    fn exact_unrolling_is_accepted() {
        let pre = counted_loop();
        for k in [2, 4, 8] {
            let post = unroll_by(&pre, 2, k);
            let diags = validate_unroll(&pre, &post, "unroll");
            assert!(first_error(&diags).is_none(), "k={k}: {diags:?}");
        }
        assert!(validate_unroll(&pre, &pre, "unroll").is_empty());
    }

    #[test]
    fn non_dividing_factor_is_rejected() {
        // Trip count 8 but header claims bound 9 after the "unroll": mutate
        // the header bound so trip becomes 9, indivisible by 2.
        let mut pre = counted_loop();
        let hlen = pre.blocks[1].insts.len();
        pre.blocks[1].insts[hlen - 3].imm = 9;
        let post = unroll_by(&pre, 2, 2);
        let diags = validate_unroll(&pre, &post, "unroll");
        assert!(first_error(&diags).is_some(), "{diags:?}");
    }

    #[test]
    fn mangled_replication_is_rejected() {
        let pre = counted_loop();
        let mut post = unroll_by(&pre, 2, 2);
        // Corrupt one instruction of the second copy.
        let n = post.blocks[2].insts.len();
        post.blocks[2].insts[n - 2].imm = 5;
        let diags = validate_unroll(&pre, &post, "unroll");
        assert!(first_error(&diags).is_some(), "{diags:?}");
    }

    // -------- schedule --------

    fn machine_form_block() -> Function {
        // Machine-register form by construction: r4..r7, dependence chain
        // plus an independent pair.
        let mut f = Function::new("mf");
        f.blocks[0].insts = vec![
            Inst::new(Opcode::MovI).dst(VReg(4)).imm(1),
            Inst::new(Opcode::MovI).dst(VReg(5)).imm(2),
            Inst::new(Opcode::Add)
                .dst(VReg(6))
                .args(&[VReg(4), VReg(5)]),
            Inst::new(Opcode::Ret).args(&[VReg(6)]),
        ];
        f
    }

    fn bundles_of(groups: Vec<Vec<Inst>>) -> MachineProgram {
        MachineProgram {
            blocks: vec![groups.into_iter().map(|insts| Bundle { insts }).collect()],
            entry: 0,
        }
    }

    #[test]
    fn legal_schedule_is_accepted() {
        let f = machine_form_block();
        let i = &f.blocks[0].insts;
        let code = bundles_of(vec![
            vec![i[0].clone(), i[1].clone()],
            vec![i[2].clone()],
            vec![i[3].clone()],
        ]);
        let diags = validate_schedule(&f, &code, &table3(), "schedule");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn raw_violation_is_rejected() {
        let f = machine_form_block();
        let i = &f.blocks[0].insts;
        // Add issued in the same bundle as the MovIs it reads.
        let code = bundles_of(vec![
            vec![i[0].clone(), i[1].clone(), i[2].clone()],
            vec![i[3].clone()],
        ]);
        let diags = validate_schedule(&f, &code, &table3(), "schedule");
        assert!(
            diags.iter().any(|d| d.message.contains("read-after-write")),
            "{diags:?}"
        );
    }

    #[test]
    fn hoisting_past_a_branch_is_rejected() {
        let f = machine_form_block();
        let i = &f.blocks[0].insts;
        // Ret before the Add completes its segment.
        let code = bundles_of(vec![
            vec![i[0].clone(), i[1].clone()],
            vec![i[3].clone()],
            vec![i[2].clone()],
        ]);
        let diags = validate_schedule(&f, &code, &table3(), "schedule");
        assert!(first_error(&diags).is_some(), "{diags:?}");
    }

    #[test]
    fn dropped_and_invented_instructions_are_rejected() {
        let f = machine_form_block();
        let i = &f.blocks[0].insts;
        let code = bundles_of(vec![vec![i[0].clone()], vec![i[3].clone()]]);
        let diags = validate_schedule(&f, &code, &table3(), "schedule");
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("not a permutation")),
            "{diags:?}"
        );
    }

    #[test]
    fn store_load_reorder_is_rejected() {
        let mut f = Function::new("mem");
        f.blocks[0].insts = vec![
            Inst::new(Opcode::MovI).dst(VReg(4)).imm(0),
            Inst::new(Opcode::St(Width::B8)).args(&[VReg(4), VReg(4)]),
            Inst::new(Opcode::Ld(Width::B8))
                .dst(VReg(5))
                .args(&[VReg(4)]),
            Inst::new(Opcode::Ret).args(&[VReg(5)]),
        ];
        let i = &f.blocks[0].insts;
        // Load issued before the store it must observe.
        let code = bundles_of(vec![
            vec![i[0].clone()],
            vec![i[2].clone()],
            vec![i[1].clone()],
            vec![i[3].clone()],
        ]);
        let diags = validate_schedule(&f, &code, &table3(), "schedule");
        assert!(
            diags.iter().any(|d| d.message.contains("store-load")),
            "{diags:?}"
        );
    }

    #[test]
    fn overfilled_bundle_is_rejected() {
        let mut f = Function::new("wide");
        let mut insts: Vec<Inst> = (0..6)
            .map(|k| Inst::new(Opcode::MovI).dst(VReg(4 + k)).imm(k as i64))
            .collect();
        insts.push(Inst::new(Opcode::Ret));
        f.blocks[0].insts = insts;
        let i = &f.blocks[0].insts;
        // 6 MovIs in one bundle exceeds table3's 4 int units.
        let code = bundles_of(vec![i[..6].to_vec(), vec![i[6].clone()]]);
        let diags = validate_schedule(&f, &code, &table3(), "schedule");
        assert!(
            diags.iter().any(|d| d.message.contains("int units")),
            "{diags:?}"
        );
    }

    // -------- regalloc --------

    /// A virtual function plus its correct hand-allocated form with v10
    /// spilled to the first slot.
    fn regalloc_pair() -> (Function, Function, usize) {
        let mut fb = FunctionBuilder::new("ra");
        let a = fb.movi(7); // -> r4
        let b = fb.movi(5); // -> spilled
        let c = fb.add(a, b); // -> r5
        fb.ret(Some(c));
        let pre = fb.finish();
        let base = 64usize; // globals
        let spill_base = 64i64;
        let mut post = pre.clone();
        post.blocks[0].insts = vec![
            Inst::new(Opcode::MovI).dst(VReg(4)).imm(7),
            // b spilled: compute into reserved temp r3, store back.
            Inst::new(Opcode::MovI).dst(VReg(3)).imm(5),
            Inst::new(Opcode::St(Width::B8))
                .args(&[VReg(0), VReg(3)])
                .imm(spill_base),
            // c = a + b: reload b into r1.
            Inst::new(Opcode::Ld(Width::B8))
                .dst(VReg(1))
                .args(&[VReg(0)])
                .imm(spill_base),
            Inst::new(Opcode::Add)
                .dst(VReg(5))
                .args(&[VReg(4), VReg(1)]),
            Inst::new(Opcode::Ret).args(&[VReg(5)]),
        ];
        (pre, post, base)
    }

    #[test]
    fn correct_spill_code_is_accepted() {
        let (pre, post, base) = regalloc_pair();
        let diags = validate_regalloc(&pre, &post, &table3(), base, base + 8, "regalloc");
        assert!(first_error(&diags).is_none(), "{diags:?}");
    }

    #[test]
    fn dropped_reload_is_rejected() {
        let (pre, mut post, base) = regalloc_pair();
        // Drop the reload: Add now reads a stale temp.
        post.blocks[0].insts.remove(3);
        let diags = validate_regalloc(&pre, &post, &table3(), base, base + 8, "regalloc");
        assert!(first_error(&diags).is_some(), "{diags:?}");
    }

    #[test]
    fn dropped_store_back_is_rejected() {
        let (pre, mut post, base) = regalloc_pair();
        post.blocks[0].insts.remove(2);
        let diags = validate_regalloc(&pre, &post, &table3(), base, base + 8, "regalloc");
        assert!(first_error(&diags).is_some(), "{diags:?}");
    }

    #[test]
    fn interfering_vregs_sharing_a_register_is_rejected() {
        // a and b are simultaneously live but both mapped to r4.
        let mut fb = FunctionBuilder::new("clash");
        let a = fb.movi(1);
        let b = fb.movi(2);
        let c = fb.add(a, b);
        fb.ret(Some(c));
        let pre = fb.finish();
        let mut post = pre.clone();
        post.blocks[0].insts = vec![
            Inst::new(Opcode::MovI).dst(VReg(4)).imm(1),
            Inst::new(Opcode::MovI).dst(VReg(4)).imm(2),
            Inst::new(Opcode::Add)
                .dst(VReg(5))
                .args(&[VReg(4), VReg(4)]),
            Inst::new(Opcode::Ret).args(&[VReg(5)]),
        ];
        let diags = validate_regalloc(&pre, &post, &table3(), 0, 0, "regalloc");
        assert!(
            diags.iter().any(|d| d.message.contains("share")),
            "{diags:?}"
        );
    }

    #[test]
    fn reserved_register_as_operand_is_rejected() {
        let mut fb = FunctionBuilder::new("resv");
        let a = fb.movi(1);
        let b = fb.mov(a);
        fb.ret(Some(b));
        let pre = fb.finish();
        let mut post = pre.clone();
        // a "allocated" to the reserved spill temp r2.
        post.blocks[0].insts = vec![
            Inst::new(Opcode::MovI).dst(VReg(2)).imm(1),
            Inst::new(Opcode::Mov).dst(VReg(4)).args(&[VReg(2)]),
            Inst::new(Opcode::Ret).args(&[VReg(4)]),
        ];
        let diags = validate_regalloc(&pre, &post, &table3(), 0, 0, "regalloc");
        assert!(
            diags.iter().any(|d| d.message.contains("allocatable")),
            "{diags:?}"
        );
    }

    #[test]
    fn real_allocator_output_is_accepted_under_pressure() {
        // Differential: run the actual allocator on a high-pressure function
        // with a tiny register file and validate its output.
        let mut fb = FunctionBuilder::new("pressure");
        let mut vals = Vec::new();
        for k in 0..12 {
            vals.push(fb.movi(k));
        }
        let mut acc = vals[0];
        for v in &vals[1..] {
            acc = fb.add(acc, *v);
        }
        fb.ret(Some(acc));
        let pre = fb.finish();
        let mut machine = table3();
        machine.gpr = 8; // force spills
        let mut post = pre.clone();
        let profile = metaopt_ir::profile::FuncProfile::default();
        let ra =
            metaopt_compiler_shim::allocate(&mut post, &machine, &profile, 64).expect("allocates");
        let diags = validate_regalloc(&pre, &post, &machine, 64, ra, "regalloc");
        assert!(first_error(&diags).is_none(), "{diags:?}");
    }

    /// Minimal local re-implementation hook: the analysis crate cannot
    /// depend on the compiler crate (which depends on it), so the
    /// allocator-differential test lives in `metaopt-core`'s integration
    /// tests. This shim only keeps the test above honest by delegating to a
    /// verbatim-shape allocator for the no-float no-pred straight-line case.
    mod metaopt_compiler_shim {
        use super::*;

        /// Allocate with the same reservations/spill ABI as the real
        /// allocator, greedy in vreg order (priority order is irrelevant to
        /// validity).
        pub fn allocate(
            func: &mut Function,
            machine: &MachineConfig,
            _profile: &metaopt_ir::profile::FuncProfile,
            globals: usize,
        ) -> Result<usize, String> {
            let nv = func.num_vregs();
            let nb = func.blocks.len();
            let range = Liveness::compute(func, &Cfg::new(func)).ranges(func);
            let mut assignment: Vec<Option<u32>> = vec![None; nv];
            let mut spilled = vec![false; nv];
            let first = first_allocatable(RegClass::Int);
            let count = machine.gpr as u32;
            for v in 0..nv {
                if range.row_is_empty(v) || func.vreg_class[v] != RegClass::Int {
                    continue;
                }
                let mut taken = vec![false; count.saturating_sub(first) as usize];
                for (w, a) in assignment.iter().enumerate() {
                    if w != v && func.vreg_class[w] == RegClass::Int {
                        if let Some(c) = *a {
                            if range.rows_intersect(v, w) {
                                taken[(c - first) as usize] = true;
                            }
                        }
                    }
                }
                match taken.iter().position(|t| !t) {
                    Some(c) => assignment[v] = Some(first + c as u32),
                    None => spilled[v] = true,
                }
            }
            let mut slot_of: Vec<Option<usize>> = vec![None; nv];
            let mut next = 0usize;
            for (v, s) in slot_of.iter_mut().enumerate() {
                if spilled[v] {
                    *s = Some(next);
                    next += 1;
                }
            }
            let spill_base = ((globals + 7) & !7) as i64;
            for bi in 0..nb {
                let old = std::mem::take(&mut func.blocks[bi].insts);
                let mut new = Vec::new();
                for mut inst in old {
                    let mut int_t = 0usize;
                    for ai in 0..inst.args.len() {
                        let v = inst.args[ai].index();
                        if spilled[v] {
                            let slot = spill_base + slot_of[v].unwrap() as i64 * 8;
                            let t = INT_TEMPS[int_t];
                            int_t += 1;
                            new.push(
                                Inst::new(Opcode::Ld(Width::B8))
                                    .dst(VReg(t))
                                    .args(&[VReg(0)])
                                    .imm(slot),
                            );
                            inst.args[ai] = VReg(t);
                        } else {
                            inst.args[ai] = VReg(assignment[v].expect("allocated"));
                        }
                    }
                    let mut post: Vec<Inst> = Vec::new();
                    if let Some(d) = inst.dst {
                        let v = d.index();
                        if spilled[v] {
                            let slot = spill_base + slot_of[v].unwrap() as i64 * 8;
                            let t = INT_TEMPS[2];
                            inst.dst = Some(VReg(t));
                            let mut st = Inst::new(Opcode::St(Width::B8))
                                .args(&[VReg(0), VReg(t)])
                                .imm(slot);
                            st.pred = inst.pred;
                            post.push(st);
                        } else {
                            inst.dst = Some(VReg(assignment[v].expect("allocated")));
                        }
                    }
                    new.push(inst);
                    new.extend(post);
                }
                func.blocks[bi].insts = new;
            }
            Ok(spill_base as usize + next * 8)
        }
    }

    // -------- hyperblock --------

    #[test]
    fn unsafe_call_count_change_is_rejected() {
        let mut fb = FunctionBuilder::new("h");
        let a = fb.movi(1);
        let r = fb.unsafe_call(0, a);
        fb.ret(Some(r));
        let pre = fb.finish();
        let mut post = pre.clone();
        post.blocks[0].insts.retain(|i| i.op != Opcode::UnsafeCall);
        post.blocks[0]
            .insts
            .insert(1, Inst::new(Opcode::MovI).dst(VReg(1)).imm(0));
        let diags = validate_hyperblock(&pre, &post, "hyperblock");
        assert!(first_error(&diags).is_some(), "{diags:?}");
        assert!(validate_hyperblock(&pre, &pre, "hyperblock").is_empty());
    }

    #[test]
    fn uncovered_predicated_cell_warns() {
        let mut fb = FunctionBuilder::new("cov");
        let x = fb.param(RegClass::Int);
        let p = fb.cmp_lti(x, 0);
        let q = fb.cmp_lti(x, 10); // NOT complementary to p
        let cell = fb.new_vreg(RegClass::Int);
        fb.push(Inst::new(Opcode::MovI).dst(cell).imm(1).guarded(p));
        fb.push(Inst::new(Opcode::MovI).dst(cell).imm(2).guarded(q));
        fb.ret(Some(cell));
        let f = fb.finish();
        let diags = validate_hyperblock(&f, &f, "hyperblock");
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Warning && d.message.contains("complementary")),
            "{diags:?}"
        );

        // The canonical if-converted shape (p / PNot p) is clean.
        let mut fb = FunctionBuilder::new("ok");
        let x = fb.param(RegClass::Int);
        let p = fb.cmp_lti(x, 0);
        let np = fb.new_vreg(RegClass::Pred);
        fb.push(Inst::new(Opcode::PNot).dst(np).args(&[p]));
        let cell = fb.new_vreg(RegClass::Int);
        fb.push(Inst::new(Opcode::MovI).dst(cell).imm(1).guarded(p));
        fb.push(Inst::new(Opcode::MovI).dst(cell).imm(2).guarded(np));
        fb.ret(Some(cell));
        let f = fb.finish();
        let diags = validate_hyperblock(&f, &f, "hyperblock");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
