//! Programs, functions, basic blocks and global data.

use crate::cfg::Cfg;
use crate::inst::{Inst, Opcode};
use crate::types::{BlockId, FuncId, RegClass, VReg};
use std::collections::HashMap;
use std::fmt;

/// A basic block: a sequence of instructions.
///
/// **Canonical form** (before if-conversion): only the final one or two
/// instructions transfer control — an optional `CBr` followed by a mandatory
/// `Br`/`Ret`. **Hyperblock form** (after if-conversion): predicated `CBr`
/// side exits may appear anywhere, but the block still terminates with an
/// unconditional `Br` or `Ret`.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Instructions in program order.
    pub insts: Vec<Inst>,
}

impl Block {
    /// An empty block.
    pub fn new() -> Self {
        Block { insts: Vec::new() }
    }

    /// The terminating instruction, if the block is non-empty.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last()
    }

    /// All successor blocks, in branch order: each `CBr` target in program
    /// order, then the final `Br` target (if any). Each call scans the
    /// block; analyses query a [`Cfg`] built from one scan.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.insts
            .iter()
            .filter_map(|inst| match (inst.op, inst.target) {
                (Opcode::CBr | Opcode::Br, Some(t)) => Some(t),
                _ => None,
            })
    }
}

/// A function: a CFG of basic blocks over a local virtual-register space.
#[derive(Clone, Debug)]
pub struct Function {
    /// Human-readable name (unique within a [`Program`]).
    pub name: String,
    /// Parameter registers, filled by the caller in order.
    pub params: Vec<VReg>,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// Register class of each virtual register, indexed by [`VReg`].
    pub vreg_class: Vec<RegClass>,
}

impl Function {
    /// Create an empty function with a single empty entry block.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            params: Vec::new(),
            blocks: vec![Block::new()],
            entry: BlockId(0),
            vreg_class: Vec::new(),
        }
    }

    /// Number of virtual registers allocated so far.
    pub fn num_vregs(&self) -> usize {
        self.vreg_class.len()
    }

    /// Allocate a fresh virtual register of the given class.
    pub fn new_vreg(&mut self, class: RegClass) -> VReg {
        let r = VReg(self.vreg_class.len() as u32);
        self.vreg_class.push(class);
        r
    }

    /// Append a fresh empty block and return its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    /// Shared access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Class of a virtual register.
    pub fn class_of(&self, r: VReg) -> RegClass {
        self.vreg_class[r.index()]
    }

    /// Total number of instructions across all blocks.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Delete every block unreachable from the entry, renumbering the
    /// survivors in place (original order preserved) and rewriting branch
    /// targets. Returns the old-to-new block mapping, `None` for deleted
    /// blocks; the mapping is the identity when everything is reachable.
    ///
    /// Passes that disconnect blocks (e.g. if-conversion absorbing a path)
    /// call this so downstream consumers — and the inter-pass invariant
    /// checker — never see their tombstones.
    pub fn prune_unreachable_blocks(&mut self) -> Vec<Option<BlockId>> {
        let n = self.blocks.len();
        let cfg = Cfg::new(self);
        let keep: Vec<bool> = (0..n)
            .map(|b| cfg.is_reachable(BlockId(b as u32)))
            .collect();
        let mut map: Vec<Option<BlockId>> = Vec::with_capacity(n);
        let mut next = 0u32;
        for &k in &keep {
            if k {
                map.push(Some(BlockId(next)));
                next += 1;
            } else {
                map.push(None);
            }
        }
        if next as usize == n {
            return map; // identity
        }
        let old = std::mem::take(&mut self.blocks);
        self.blocks = old
            .into_iter()
            .enumerate()
            .filter(|(i, _)| keep[*i])
            .map(|(_, mut b)| {
                for inst in &mut b.insts {
                    if let Some(t) = inst.target {
                        inst.target = map[t.index()]; // reachable block's targets survive
                    }
                }
                b
            })
            .collect();
        self.entry = map[self.entry.index()].expect("entry is always reachable");
        map
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}: {}", self.class_of(*p))?;
        }
        writeln!(f, ") {{")?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "{}:", BlockId(i as u32))?;
            for inst in &b.insts {
                writeln!(f, "    {inst}")?;
            }
        }
        writeln!(f, "}}")
    }
}

/// How a global data region is initialized.
#[derive(Clone, Debug, PartialEq)]
pub enum GlobalInit {
    /// All-zero bytes.
    Zero,
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Packed little-endian `i64`s.
    I64s(Vec<i64>),
    /// Packed little-endian `f64` bit patterns.
    F64s(Vec<f64>),
}

/// A named global data region.
#[derive(Clone, Debug)]
pub struct GlobalData {
    /// Symbol name (unique within the program).
    pub name: String,
    /// Size in bytes.
    pub size: usize,
    /// Initializer.
    pub init: GlobalInit,
}

/// Base address of the first global; address 0 is reserved as "null" and the
/// low page stays unmapped so stray accesses are easy to spot.
pub const GLOBAL_BASE: i64 = 4096;

/// Scratch area written by [`Opcode::UnsafeCall`]; lives below the globals.
pub const UNSAFE_SCRATCH_BASE: i64 = 1024;

/// A whole program: functions plus global data.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All functions; `FuncId` indexes this vector.
    pub funcs: Vec<Function>,
    /// Global data regions, laid out in order from [`GLOBAL_BASE`].
    pub globals: Vec<GlobalData>,
    name_to_func: HashMap<String, FuncId>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Add a function; its name must be unique.
    ///
    /// # Panics
    /// Panics if a function with the same name already exists.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        assert!(
            self.name_to_func.insert(f.name.clone(), id).is_none(),
            "duplicate function name {}",
            f.name
        );
        self.funcs.push(f);
        id
    }

    /// Add a global region; returns its base address.
    ///
    /// # Panics
    /// Panics if a global with the same name already exists.
    pub fn add_global(&mut self, g: GlobalData) -> i64 {
        assert!(
            self.globals.iter().all(|x| x.name != g.name),
            "duplicate global name {}",
            g.name
        );
        let base = self.memory_size() as i64;
        self.globals.push(g);
        base
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.name_to_func.get(name).copied()
    }

    /// Shared access to a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// The entry function, named `main` if present, else function 0.
    pub fn entry_func(&self) -> FuncId {
        self.func_by_name("main").unwrap_or(FuncId(0))
    }

    /// Each global with its base address under the deterministic layout:
    /// globals are placed in declaration order from [`GLOBAL_BASE`], each
    /// 8-byte aligned.
    fn placed(&self) -> impl Iterator<Item = (i64, &GlobalData)> {
        self.globals.iter().scan(GLOBAL_BASE, |next, g| {
            let base = *next;
            *next += padded_size(g) as i64;
            Some((base, g))
        })
    }

    /// Base address of a named global under the deterministic layout
    /// (declaration order from [`GLOBAL_BASE`], each 8-byte aligned).
    pub fn global_addr(&self, name: &str) -> Option<i64> {
        self.placed()
            .find(|(_, g)| g.name == name)
            .map(|(base, _)| base)
    }

    /// Total memory image size (bytes) needed to run this program.
    pub fn memory_size(&self) -> usize {
        GLOBAL_BASE as usize + self.globals.iter().map(padded_size).sum::<usize>()
    }

    /// Build the initial memory image: globals with their initializers.
    pub fn initial_memory(&self) -> Vec<u8> {
        let mut mem = vec![0u8; self.memory_size()];
        for (base, g) in self.placed() {
            let addr = base as usize;
            match &g.init {
                GlobalInit::Zero => {}
                GlobalInit::Bytes(b) => {
                    assert!(
                        b.len() <= g.size,
                        "initializer larger than global {}",
                        g.name
                    );
                    mem[addr..addr + b.len()].copy_from_slice(b);
                }
                GlobalInit::I64s(vs) => {
                    assert!(
                        vs.len() * 8 <= g.size,
                        "initializer larger than global {}",
                        g.name
                    );
                    for (i, v) in vs.iter().enumerate() {
                        mem[addr + i * 8..addr + i * 8 + 8].copy_from_slice(&v.to_le_bytes());
                    }
                }
                GlobalInit::F64s(vs) => {
                    assert!(
                        vs.len() * 8 <= g.size,
                        "initializer larger than global {}",
                        g.name
                    );
                    for (i, v) in vs.iter().enumerate() {
                        mem[addr + i * 8..addr + i * 8 + 8]
                            .copy_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        mem
    }

    /// Total instruction count across all functions.
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.num_insts()).sum()
    }
}

/// Bytes a global occupies in the layout: its size rounded up to 8.
fn padded_size(g: &GlobalData) -> usize {
    (g.size + 7) & !7
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (base, g) in self.placed() {
            writeln!(f, "global {} [{} bytes] @ {base}", g.name, g.size)?;
        }
        for func in &self.funcs {
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Opcode};

    fn ret_block() -> Block {
        Block {
            insts: vec![Inst::new(Opcode::Ret)],
        }
    }

    #[test]
    fn successors_in_branch_order() {
        let mut b = Block::new();
        b.insts
            .push(Inst::new(Opcode::CBr).args(&[VReg(0)]).target(BlockId(2)));
        b.insts.push(Inst::new(Opcode::Br).target(BlockId(1)));
        assert_eq!(b.successors().collect::<Vec<_>>(), [BlockId(2), BlockId(1)]);
    }

    #[test]
    fn global_layout_is_aligned_and_ordered() {
        let mut p = Program::new();
        let a = p.add_global(GlobalData {
            name: "a".into(),
            size: 3,
            init: GlobalInit::Zero,
        });
        let b = p.add_global(GlobalData {
            name: "b".into(),
            size: 16,
            init: GlobalInit::Zero,
        });
        assert_eq!(a, GLOBAL_BASE);
        assert_eq!(b, GLOBAL_BASE + 8); // 3 rounds up to 8
        assert_eq!(p.memory_size(), (GLOBAL_BASE + 8 + 16) as usize);
    }

    #[test]
    fn initial_memory_applies_initializers() {
        let mut p = Program::new();
        p.add_global(GlobalData {
            name: "xs".into(),
            size: 16,
            init: GlobalInit::I64s(vec![7, -1]),
        });
        let mem = p.initial_memory();
        let base = GLOBAL_BASE as usize;
        assert_eq!(
            i64::from_le_bytes(mem[base..base + 8].try_into().unwrap()),
            7
        );
        assert_eq!(
            i64::from_le_bytes(mem[base + 8..base + 16].try_into().unwrap()),
            -1
        );
    }

    #[test]
    fn reverse_postorder_visits_entry_first() {
        let mut f = Function::new("t");
        let b1 = f.new_block();
        let b2 = f.new_block();
        let p = f.new_vreg(RegClass::Pred);
        f.block_mut(BlockId(0))
            .insts
            .push(Inst::new(Opcode::CBr).args(&[p]).target(b2));
        f.block_mut(BlockId(0))
            .insts
            .push(Inst::new(Opcode::Br).target(b1));
        *f.block_mut(b1) = ret_block();
        *f.block_mut(b2) = ret_block();
        let cfg = Cfg::new(&f);
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_function_names_rejected() {
        let mut p = Program::new();
        p.add_function(Function::new("f"));
        p.add_function(Function::new("f"));
    }
}
