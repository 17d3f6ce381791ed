//! List scheduling into VLIW bundles.
//!
//! The classic latency-weighted-depth priority (Gibbons & Muchnick, cited by
//! the paper's §2 as the canonical list-scheduling priority function) drives
//! a greedy cycle-by-cycle scheduler. Each block is split into *segments* at
//! control instructions — nothing moves across a branch, which keeps
//! hyperblock side exits correct without speculation machinery.
//!
//! Dependences come from dense per-register tables (last writer, readers
//! since that write) indexed by `reg·3 + class` and stamped per segment, so
//! one set of tables serves every segment of a function. Each (from, to)
//! pair keeps a single edge carrying its largest latency, and each cycle
//! draws its ready set from the candidates whose predecessors have all
//! issued. A segment of n instructions and e edges costs O(n + e) to build
//! and O(c·log c) per cycle for c candidates.

use crate::pass::{Pass, PassCtx};
use crate::CompileError;
use metaopt_ir::{Function, Inst, Opcode, RegClass};
use metaopt_sim::machine::{latency_of, unit_of, MachineConfig};
use metaopt_sim::{Bundle, MachineProgram};

/// Scheduling latency of an instruction: functional-unit latency, with
/// loads assumed to hit L1 (the optimistic assumption the simulator then
/// checks dynamically).
fn sched_latency(inst: &Inst, m: &MachineConfig) -> u64 {
    if inst.op.is_load() {
        m.cache.l1_latency
    } else {
        latency_of(inst.op)
    }
}

/// Dense index of a register operand: `reg·3 + class`.
fn reg_slot(class: RegClass, reg: u32) -> usize {
    reg as usize * 3 + class as usize
}

/// Register slots `inst` reads: its operands in order (a `Ret` value is an
/// integer), then its guard.
fn read_slots(inst: &Inst) -> impl Iterator<Item = usize> + '_ {
    inst.args
        .iter()
        .enumerate()
        .map_while(|(i, a)| Some(reg_slot(inst.op.arg_class(i)?, a.0)))
        .chain(inst.pred.map(|p| reg_slot(RegClass::Pred, p.0)))
}

/// Register slot `inst` writes, if any.
fn write_slot(inst: &Inst) -> Option<usize> {
    match (inst.op.dst_class(), inst.dst) {
        (Some(c), Some(d)) => Some(reg_slot(c, d.0)),
        _ => None,
    }
}

/// No reader-list entry.
const NIL: u32 = u32::MAX;

/// Scratch state for scheduling one function's segments. Register tables
/// are valid only where their stamp equals the current segment's; the
/// per-instruction vectors are cleared and refilled per segment.
struct Scheduler<'m> {
    m: &'m MachineConfig,
    /// Current segment stamp (0 marks a never-written table entry).
    stamp: u32,
    /// Per register slot: (stamp, index of the last writer).
    writer: Vec<(u32, u32)>,
    /// Per register slot: (stamp, head of its reader list in `reader_at`).
    readers: Vec<(u32, u32)>,
    /// Reader-list arena: (instruction, next entry or `NIL`).
    reader_at: Vec<(u32, u32)>,
    /// Dependence edges grouped by target: (from, latency).
    edges: Vec<(u32, u64)>,
    /// `edges[edge_start[i]..edge_start[i + 1]]` are the edges into `i`.
    edge_start: Vec<usize>,
    /// Per instruction: `(to + 1, position in edges)` of its latest edge.
    last_edge: Vec<(usize, usize)>,
    /// Successor lists by source: `succs[succ_start[i]..succ_start[i + 1]]`.
    succs: Vec<(u32, u64)>,
    succ_start: Vec<usize>,
    /// Fill cursors while `succs` is built.
    succ_fill: Vec<usize>,
    loads_since_store: Vec<u32>,
    prio: Vec<u64>,
    npred: Vec<usize>,
    earliest: Vec<u64>,
    /// Unscheduled instructions whose predecessors have all issued.
    cands: Vec<u32>,
    ready: Vec<u32>,
    picked: Vec<u32>,
}

impl<'m> Scheduler<'m> {
    fn new(func: &Function, m: &'m MachineConfig) -> Self {
        let max_reg = func
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .flat_map(|i| i.args.iter().chain(&i.pred).chain(&i.dst))
            .map(|r| r.0 as usize)
            .max()
            .unwrap_or(0);
        let slots = (max_reg + 1) * 3;
        Scheduler {
            m,
            stamp: 0,
            writer: vec![(0, 0); slots],
            readers: vec![(0, NIL); slots],
            reader_at: Vec::new(),
            edges: Vec::new(),
            edge_start: Vec::new(),
            last_edge: Vec::new(),
            succs: Vec::new(),
            succ_start: Vec::new(),
            succ_fill: Vec::new(),
            loads_since_store: Vec::new(),
            prio: Vec::new(),
            npred: Vec::new(),
            earliest: Vec::new(),
            cands: Vec::new(),
            ready: Vec::new(),
            picked: Vec::new(),
        }
    }

    /// Record a dependence `from -> to` while `to` is the instruction being
    /// added, keeping one edge per pair with the largest latency.
    fn edge(&mut self, from: u32, to: usize, lat: u64) {
        let (last_to, at) = self.last_edge[from as usize];
        if last_to == to + 1 {
            self.edges[at].1 = self.edges[at].1.max(lat);
        } else {
            self.last_edge[from as usize] = (to + 1, self.edges.len());
            self.edges.push((from, lat));
        }
    }

    /// Build the dependence graph of `insts`: RAW, WAR and WAW on
    /// registers, plus memory ordering (stores and unsafe calls are
    /// barriers among memory operations; loads may reorder with loads;
    /// prefetches have no memory dependences).
    fn build_edges(&mut self, insts: &[Inst]) {
        let n = insts.len();
        self.stamp += 1;
        let stamp = self.stamp;
        self.reader_at.clear();
        self.edges.clear();
        self.edge_start.clear();
        self.last_edge.clear();
        self.last_edge.resize(n, (0, 0));
        self.loads_since_store.clear();
        let mut last_store: Option<u32> = None;
        for (i, inst) in insts.iter().enumerate() {
            self.edge_start.push(self.edges.len());
            for r in read_slots(inst) {
                let (ws, w) = self.writer[r];
                if ws == stamp {
                    self.edge(w, i, sched_latency(&insts[w as usize], self.m));
                }
                let (rs, head) = self.readers[r];
                let next = if rs == stamp { head } else { NIL };
                self.readers[r] = (stamp, self.reader_at.len() as u32);
                self.reader_at.push((i as u32, next));
            }
            if let Some(w) = write_slot(inst) {
                let (rs, mut at) = self.readers[w];
                if rs == stamp {
                    while at != NIL {
                        let (r, next) = self.reader_at[at as usize];
                        if r as usize != i {
                            self.edge(r, i, 1);
                        }
                        at = next;
                    }
                }
                let (ws, pw) = self.writer[w];
                if ws == stamp {
                    self.edge(pw, i, 1);
                }
                self.writer[w] = (stamp, i as u32);
                self.readers[w] = (stamp, NIL);
            }
            if inst.op.is_store() || inst.op == Opcode::UnsafeCall {
                if let Some(s) = last_store {
                    self.edge(s, i, 1);
                }
                for k in 0..self.loads_since_store.len() {
                    self.edge(self.loads_since_store[k], i, 1);
                }
                last_store = Some(i as u32);
                self.loads_since_store.clear();
            } else if inst.op.is_load() {
                if let Some(s) = last_store {
                    self.edge(s, i, 1);
                }
                self.loads_since_store.push(i as u32);
            }
        }
        self.edge_start.push(self.edges.len());

        // Successor lists by source (counting sort of the edges).
        self.succ_start.clear();
        self.succ_start.resize(n + 1, 0);
        for &(from, _) in &self.edges {
            self.succ_start[from as usize + 1] += 1;
        }
        for i in 0..n {
            self.succ_start[i + 1] += self.succ_start[i];
        }
        self.succs.clear();
        self.succs.resize(self.edges.len(), (0, 0));
        self.succ_fill.clear();
        self.succ_fill.extend_from_slice(&self.succ_start[..n]);
        for to in 0..n {
            for &(from, lat) in &self.edges[self.edge_start[to]..self.edge_start[to + 1]] {
                let at = &mut self.succ_fill[from as usize];
                self.succs[*at] = (to as u32, lat);
                *at += 1;
            }
        }
    }

    /// Schedule one segment (no control instructions) into bundles.
    fn schedule_segment(&mut self, insts: &[Inst], out: &mut Vec<Bundle>) {
        let n = insts.len();
        if n == 0 {
            return;
        }
        self.build_edges(insts);

        // Latency-weighted depth priority: longest path to any leaf. Every
        // successor of `i` comes later, so its priority is final by the
        // time the descending walk reaches `i`'s in-edges.
        self.prio.clear();
        self.prio.resize(n, 0);
        for i in (0..n).rev() {
            self.prio[i] += sched_latency(&insts[i], self.m);
            let p = self.prio[i];
            for &(from, _) in &self.edges[self.edge_start[i]..self.edge_start[i + 1]] {
                let f = &mut self.prio[from as usize];
                *f = (*f).max(p);
            }
        }

        // Greedy cycle-driven list scheduling.
        self.npred.clear();
        self.npred
            .extend((0..n).map(|i| self.edge_start[i + 1] - self.edge_start[i]));
        self.earliest.clear();
        self.earliest.resize(n, 0);
        self.cands.clear();
        self.cands
            .extend((0..n as u32).filter(|&i| self.npred[i as usize] == 0));
        let caps = self.m.unit_caps();
        let mut remaining = n;
        let mut cycle: u64 = 0;
        while remaining > 0 {
            let earliest = &self.earliest;
            self.ready.clear();
            self.ready.extend(
                self.cands
                    .iter()
                    .copied()
                    .filter(|&i| earliest[i as usize] <= cycle),
            );
            if self.ready.is_empty() {
                // Jump to the next time anything becomes ready.
                cycle = self
                    .cands
                    .iter()
                    .map(|&i| earliest[i as usize])
                    .min()
                    .unwrap_or(cycle + 1)
                    .max(cycle + 1);
                continue;
            }
            let prio = &self.prio;
            self.ready
                .sort_unstable_by(|&a, &b| prio[b as usize].cmp(&prio[a as usize]).then(a.cmp(&b)));
            let mut units = [0usize; 4];
            self.picked.clear();
            for &i in &self.ready {
                let u = unit_of(insts[i as usize].op).index();
                if units[u] < caps[u] {
                    units[u] += 1;
                    self.picked.push(i);
                }
            }
            // Keep original program order within the bundle (sequential-slot
            // semantics; all picked instructions are mutually independent).
            self.picked.sort_unstable();
            let bundle = Bundle {
                insts: self
                    .picked
                    .iter()
                    .map(|&i| insts[i as usize].clone())
                    .collect(),
            };
            remaining -= self.picked.len();
            let picked = &self.picked;
            self.cands.retain(|i| picked.binary_search(i).is_err());
            for &i in &self.picked {
                let i = i as usize;
                for &(s, lat) in &self.succs[self.succ_start[i]..self.succ_start[i + 1]] {
                    let s = s as usize;
                    self.npred[s] -= 1;
                    self.earliest[s] = self.earliest[s].max(cycle + lat);
                    if self.npred[s] == 0 {
                        self.cands.push(s as u32);
                    }
                }
            }
            out.push(bundle);
            cycle += 1;
        }
    }
}

/// Schedule a function in machine-register form into a [`MachineProgram`].
/// Control instructions terminate their segment and are emitted in their own
/// bundle, preserving program order of branches.
pub fn schedule_function(func: &Function, m: &MachineConfig) -> MachineProgram {
    let mut sched = Scheduler::new(func, m);
    let mut blocks = Vec::with_capacity(func.blocks.len());
    for block in &func.blocks {
        let mut bundles: Vec<Bundle> = Vec::new();
        let mut start = 0;
        for (i, inst) in block.insts.iter().enumerate() {
            if inst.op.is_control() {
                sched.schedule_segment(&block.insts[start..i], &mut bundles);
                bundles.push(Bundle {
                    insts: vec![inst.clone()],
                });
                start = i + 1;
            }
        }
        sched.schedule_segment(&block.insts[start..], &mut bundles);
        blocks.push(bundles);
    }
    MachineProgram {
        blocks,
        entry: func.entry.index(),
    }
}

/// [`schedule_function`] as a plan-schedulable [`Pass`]: the mandatory
/// terminal of every plan. Reads the machine-register-form function and
/// deposits the scheduled [`MachineProgram`] into [`PassCtx::code`];
/// `mutates_ir` is false, so the post-pass invariant checker (which would
/// re-check an unchanged function) is skipped.
pub struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn run(&self, func: &mut Function, ctx: &mut PassCtx<'_>) -> Result<(), CompileError> {
        let code = schedule_function(func, ctx.machine);
        ctx.stats.counters.static_insts = code.num_insts() as u64;
        ctx.stats.counters.static_bundles = code.num_bundles() as u64;
        ctx.code = Some(code);
        Ok(())
    }

    fn mutates_ir(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::VReg;
    use metaopt_sim::machine::UnitKind;

    fn movi(d: u32, v: i64) -> Inst {
        Inst::new(Opcode::MovI).dst(VReg(d)).imm(v)
    }

    fn add(d: u32, a: u32, b: u32) -> Inst {
        Inst::new(Opcode::Add)
            .dst(VReg(d))
            .args(&[VReg(a), VReg(b)])
    }

    fn func_of(insts: Vec<Inst>) -> Function {
        let mut f = Function::new("t");
        f.blocks[0].insts = insts;
        f
    }

    #[test]
    fn bundles_independent_instructions_together() {
        let mut insts: Vec<Inst> = (0..4).map(|i| movi(4 + i, i as i64)).collect();
        insts.push(Inst::new(Opcode::Ret));
        let mp = schedule_function(&func_of(insts), &MachineConfig::table3());
        // 4 independent MovIs fit in one bundle (4 int units), then ret.
        assert_eq!(mp.blocks[0].len(), 2, "{:?}", mp.blocks[0]);
        assert_eq!(mp.blocks[0][0].insts.len(), 4);
    }

    #[test]
    fn serializes_dependent_chain() {
        let insts = vec![
            movi(4, 1),
            add(5, 4, 4),
            add(6, 5, 5),
            add(7, 6, 6),
            Inst::new(Opcode::Ret).args(&[VReg(7)]),
        ];
        let mp = schedule_function(&func_of(insts), &MachineConfig::table3());
        // Chain of 4 + ret: at least 5 bundles.
        assert!(mp.blocks[0].len() >= 5, "{}", mp.blocks[0].len());
    }

    #[test]
    fn respects_memory_unit_limit() {
        // 4 independent loads: only 2 memory units -> 2 bundles minimum.
        let mut insts = vec![movi(4, 8192)];
        for i in 0..4 {
            insts.push(
                Inst::new(Opcode::Ld(metaopt_ir::Width::B8))
                    .dst(VReg(5 + i))
                    .args(&[VReg(4)])
                    .imm(i as i64 * 8),
            );
        }
        insts.push(Inst::new(Opcode::Ret));
        let mp = schedule_function(&func_of(insts), &MachineConfig::table3());
        for bundle in &mp.blocks[0] {
            let mems = bundle
                .insts
                .iter()
                .filter(|i| unit_of(i.op) == UnitKind::Mem)
                .count();
            assert!(mems <= 2);
        }
    }

    #[test]
    fn store_load_order_preserved() {
        // st [a] = x ; y = ld [a] : the load must come strictly after.
        let insts = vec![
            movi(4, 8192),
            movi(5, 77),
            Inst::new(Opcode::St(metaopt_ir::Width::B8)).args(&[VReg(4), VReg(5)]),
            Inst::new(Opcode::Ld(metaopt_ir::Width::B8))
                .dst(VReg(6))
                .args(&[VReg(4)]),
            Inst::new(Opcode::Ret).args(&[VReg(6)]),
        ];
        let mp = schedule_function(&func_of(insts), &MachineConfig::table3());
        let mut store_bundle = None;
        let mut load_bundle = None;
        for (bi, b) in mp.blocks[0].iter().enumerate() {
            for inst in &b.insts {
                if inst.op.is_store() {
                    store_bundle = Some(bi);
                }
                if inst.op.is_load() {
                    load_bundle = Some(bi);
                }
            }
        }
        assert!(store_bundle.unwrap() < load_bundle.unwrap());
    }

    #[test]
    fn control_instructions_end_segments_in_order() {
        let mut f = Function::new("t");
        let p = f.new_vreg(RegClass::Pred);
        let b1 = f.new_block();
        f.blocks[0].insts = vec![
            Inst::new(Opcode::PMovI).dst(p).imm(1),
            Inst::new(Opcode::CBr).args(&[p]).target(b1),
            Inst::new(Opcode::Br).target(b1),
        ];
        f.blocks[1].insts = vec![Inst::new(Opcode::Ret)];
        let mp = schedule_function(&f, &MachineConfig::table3());
        // Each control inst gets its own bundle, in order.
        let b0 = &mp.blocks[0];
        assert_eq!(b0.len(), 3);
        assert_eq!(b0[1].insts[0].op, Opcode::CBr);
        assert_eq!(b0[2].insts[0].op, Opcode::Br);
        assert!(metaopt_sim::code::verify_machine(&mp, &MachineConfig::table3()).is_ok());
    }
}
