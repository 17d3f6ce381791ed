//! Machine configuration: register files, functional units, latencies,
//! cache hierarchy. [`MachineConfig::table3`] reproduces the paper's Table 3.

use metaopt_ir::{Opcode, RegClass};

/// Which functional unit class an operation issues on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnitKind {
    /// Integer ALU (also predicate ops and comparisons).
    Int,
    /// Floating-point unit.
    Float,
    /// Memory unit (loads, stores, prefetches, opaque calls).
    Mem,
    /// Branch unit.
    Branch,
}

impl UnitKind {
    /// Dense index in declaration order (`Int` 0 to `Branch` 3): the slot
    /// of this unit class in a per-unit count or capacity array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Data-cache hierarchy parameters.
///
/// Latencies follow the paper's Table 3: L1 2 cycles, L2 7 cycles, and 35
/// cycles for anything beyond L2 (the paper's "L3 accesses require 35
/// cycles" — we model the last level as always hitting).
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Cache line size in bytes (shared by both levels).
    pub line_bytes: usize,
    /// L1 data cache capacity in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Latency of an access that misses both levels.
    pub miss_latency: u64,
}

impl CacheConfig {
    /// Small caches sized so the benchmark kernels produce realistic miss
    /// rates at laptop-scale working sets.
    pub fn table3() -> Self {
        CacheConfig {
            line_bytes: 32,
            l1_bytes: 8 * 1024,
            l1_assoc: 2,
            l1_latency: 2,
            l2_bytes: 64 * 1024,
            l2_assoc: 4,
            l2_latency: 7,
            miss_latency: 35,
        }
    }
}

/// Full machine description.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of general-purpose (integer) registers.
    pub gpr: usize,
    /// Number of floating-point registers.
    pub fpr: usize,
    /// Number of predicate registers.
    pub pred: usize,
    /// Integer units.
    pub int_units: usize,
    /// Floating-point units.
    pub fp_units: usize,
    /// Memory units.
    pub mem_units: usize,
    /// Branch units.
    pub branch_units: usize,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// Memory-queue occupancy of a software prefetch hint, in cycles.
    /// Software prefetches tie up the memory pipeline while their tag probe
    /// and fill request issue; demand accesses queue behind them (the
    /// paper's §7: unnecessary prefetches "saturate memory queues").
    pub prefetch_queue_cycles: u64,
    /// Data-cache hierarchy.
    pub cache: CacheConfig,
    /// Maximum simulated instructions before aborting.
    pub max_insts: u64,
    /// Maximum simulated cycles before aborting: the cooperative deadline
    /// checked once per issued bundle, bounding low-IPC schedules that stay
    /// under `max_insts` but stall indefinitely.
    pub max_cycles: u64,
}

impl MachineConfig {
    /// The paper's Table 3 EPIC machine (approximating Intel Itanium).
    pub fn table3() -> Self {
        MachineConfig {
            gpr: 64,
            fpr: 64,
            pred: 256,
            int_units: 4,
            fp_units: 2,
            mem_units: 2,
            branch_units: 1,
            mispredict_penalty: 5,
            prefetch_queue_cycles: 3,
            cache: CacheConfig::table3(),
            max_insts: metaopt_ir::budget::DEFAULT_MAX_STEPS,
            max_cycles: metaopt_ir::budget::DEFAULT_MAX_STEPS,
        }
    }

    /// Units of each class, indexed by [`UnitKind::index`]: how many
    /// instructions of that class one bundle may issue.
    pub fn unit_caps(&self) -> [usize; 4] {
        [
            self.int_units,
            self.fp_units,
            self.mem_units,
            self.branch_units,
        ]
    }

    /// The register-allocation case study's stressed machine: Table 3 with
    /// only 32 general-purpose and 32 floating-point registers (paper §6.1).
    pub fn regalloc_stress() -> Self {
        MachineConfig {
            gpr: 32,
            fpr: 32,
            ..MachineConfig::table3()
        }
    }

    /// An in-order "Itanium I"-like configuration used by the prefetching
    /// case study (paper §7): same core resources with Itanium I's 16 KiB
    /// L1D and a 96 KiB unified L2 slice.
    pub fn itanium_like() -> Self {
        let mut m = MachineConfig::table3();
        m.cache.l1_bytes = 16 * 1024;
        m.cache.l1_assoc = 4;
        m.cache.l2_bytes = 96 * 1024;
        m
    }

    /// A second target architecture for the paper's Fig. 16 two-machine
    /// cross-validation: double-size caches and a costlier miss.
    pub fn itanium_bigcache() -> Self {
        let mut m = MachineConfig::itanium_like();
        m.cache.l1_bytes *= 2;
        m.cache.l2_bytes *= 4;
        m.cache.miss_latency = 50;
        m
    }

    /// Total issue slots per cycle.
    pub fn issue_width(&self) -> usize {
        self.int_units + self.fp_units + self.mem_units + self.branch_units
    }

    /// Register-file size for a class.
    pub fn file_size(&self, class: RegClass) -> usize {
        match class {
            RegClass::Int => self.gpr,
            RegClass::Float => self.fpr,
            RegClass::Pred => self.pred,
        }
    }
}

// The register allocator's reservations, which the regalloc translation
// validator reads back: registers below each class's first allocatable one
// never hold an allocated value.

/// Integer spill temps; r0 below them is the zero and spill-base register.
pub const INT_TEMPS: [u32; 3] = [1, 2, 3];
/// Float spill temps.
pub const FLOAT_TEMPS: [u32; 3] = [0, 1, 2];
/// Predicate spill temps.
pub const PRED_TEMPS: [u32; 4] = [0, 1, 2, 3];
/// First allocatable integer register.
pub const FIRST_INT: u32 = 4;
/// First allocatable float register.
pub const FIRST_FLOAT: u32 = 3;
/// First allocatable predicate register.
pub const FIRST_PRED: u32 = 4;

/// Whether every register in `temps` lies below `first`.
const fn all_below(temps: &[u32], first: u32) -> bool {
    let mut i = 0;
    while i < temps.len() {
        if temps[i] >= first {
            return false;
        }
        i += 1;
    }
    true
}

const _: () = assert!(
    all_below(&INT_TEMPS, FIRST_INT)
        && all_below(&FLOAT_TEMPS, FIRST_FLOAT)
        && all_below(&PRED_TEMPS, FIRST_PRED),
    "a reserved temp would collide with an allocatable register"
);

/// The first register of `class` the allocator assigns.
pub const fn first_allocatable(class: RegClass) -> u32 {
    match class {
        RegClass::Int => FIRST_INT,
        RegClass::Float => FIRST_FLOAT,
        RegClass::Pred => FIRST_PRED,
    }
}

/// Functional unit an opcode issues on.
pub fn unit_of(op: Opcode) -> UnitKind {
    use Opcode::*;
    match op {
        FAdd | FSub | FMul | FDiv | FSqrt | FAbs | FNeg | FMin | FMax | FMovI | FMov | FSel
        | FCmpEq | FCmpLt | FCmpLe | I2F | F2I | FBits | BitsF => UnitKind::Float,
        Ld(_) | St(_) | FLd | FSt | Prefetch | UnsafeCall => UnitKind::Mem,
        Br | CBr | Ret | Call => UnitKind::Branch,
        _ => UnitKind::Int,
    }
}

/// Result-ready latency of an opcode, excluding memory ops (whose latency
/// comes from the cache model). Matches Table 3: integer ops 1 cycle except
/// multiply 3 / divide 8; FP ops 3 cycles except divide 8; buffered stores 1.
pub fn latency_of(op: Opcode) -> u64 {
    use Opcode::*;
    match op {
        Mul | MulI => 3,
        Div | Rem => 8,
        FDiv | FSqrt => 8,
        FAdd | FSub | FMul | FMin | FMax | FAbs | FNeg | FSel | I2F | F2I => 3,
        FMovI | FMov | FBits | BitsF => 1,
        UnsafeCall => 8,
        St(_) | FSt | Prefetch => 1,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::{RegClass, Width};

    #[test]
    fn table3_matches_paper() {
        let m = MachineConfig::table3();
        assert_eq!((m.gpr, m.fpr, m.pred), (64, 64, 256));
        assert_eq!(
            (m.int_units, m.fp_units, m.mem_units, m.branch_units),
            (4, 2, 2, 1)
        );
        assert_eq!(m.mispredict_penalty, 5);
        assert_eq!(m.cache.l1_latency, 2);
        assert_eq!(m.cache.l2_latency, 7);
        assert_eq!(m.cache.miss_latency, 35);
        assert_eq!(m.issue_width(), 9);
    }

    #[test]
    fn regalloc_stress_halves_registers() {
        let m = MachineConfig::regalloc_stress();
        assert_eq!((m.gpr, m.fpr), (32, 32));
        assert_eq!(m.pred, 256);
    }

    #[test]
    fn unit_assignment() {
        assert_eq!(unit_of(Opcode::Add), UnitKind::Int);
        assert_eq!(unit_of(Opcode::FMul), UnitKind::Float);
        assert_eq!(unit_of(Opcode::Ld(Width::B8)), UnitKind::Mem);
        assert_eq!(unit_of(Opcode::CBr), UnitKind::Branch);
        assert_eq!(unit_of(Opcode::CmpLt), UnitKind::Int);
        assert_eq!(unit_of(Opcode::Prefetch), UnitKind::Mem);
    }

    #[test]
    fn latencies_match_table3() {
        assert_eq!(latency_of(Opcode::Add), 1);
        assert_eq!(latency_of(Opcode::Mul), 3);
        assert_eq!(latency_of(Opcode::Div), 8);
        assert_eq!(latency_of(Opcode::FAdd), 3);
        assert_eq!(latency_of(Opcode::FDiv), 8);
        assert_eq!(latency_of(Opcode::St(Width::B8)), 1);
    }

    #[test]
    fn file_sizes() {
        let m = MachineConfig::table3();
        assert_eq!(m.file_size(RegClass::Int), 64);
        assert_eq!(m.file_size(RegClass::Float), 64);
        assert_eq!(m.file_size(RegClass::Pred), 256);
    }
}
