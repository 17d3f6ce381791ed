#![warn(missing_docs)]
//! # metaopt-suite
//!
//! The benchmark suite for the *Meta Optimization* (PLDI 2003) reproduction:
//! MiniC kernels that stand in for the paper's Table 5 programs (Mediabench,
//! SPEC92/95 integer, SPECfp 92/95/2000). Each kernel mimics the control-flow
//! and memory character of its namesake — codecs with data-dependent
//! branches, compressors with hash-table probing, interpreters with dispatch
//! loops, FP stencils with streaming array accesses — at a size the cycle
//! simulator can evaluate thousands of times during a GP run.
//!
//! Every benchmark is **self-contained**: it generates its own input data
//! from a single `dataseed` global that the harness varies to produce the
//! paper's *train* vs *novel* data sets, then computes a checksum so runs can
//! be differentially verified between the interpreter and the simulator.

pub mod fp;
pub mod int;

use metaopt_ir::Program;
use metaopt_lang::compile;
use std::fmt;

/// Failure loading a bundled benchmark.
///
/// These indicate a bug in this crate's bundled sources (or a caller
/// passing mismatched programs), but downstream evaluation pipelines treat
/// benchmark loading as fallible so a single bad benchmark cannot abort a
/// multi-day GP run.
#[derive(Clone, Debug, PartialEq)]
pub enum SuiteError {
    /// The benchmark's MiniC source failed to compile.
    Compile {
        /// Benchmark name.
        bench: &'static str,
        /// Compiler diagnostic.
        message: String,
    },
    /// The benchmark program lacks the mandatory `dataseed` global.
    MissingDataseed {
        /// Benchmark name.
        bench: &'static str,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Compile { bench, message } => {
                write!(f, "benchmark {bench} failed to compile: {message}")
            }
            SuiteError::MissingDataseed { bench } => {
                write!(f, "benchmark {bench} lacks a dataseed global")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// Which input data a run uses (paper §5.4: "train data set" vs "novel data
/// set").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataSet {
    /// The data the priority function was trained on.
    Train,
    /// Unseen data (cross-validation of data sensitivity).
    Novel,
}

impl DataSet {
    /// The `dataseed` value for this data set.
    pub fn seed(self) -> i64 {
        match self {
            DataSet::Train => 0x5EED_0001,
            DataSet::Novel => 0x0BAD_CAFE,
        }
    }
}

/// Benchmark category, mirroring the paper's suite split.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Category {
    /// Integer / multimedia programs (hyperblock & regalloc studies).
    IntMedia,
    /// Floating-point programs (prefetching study).
    Fp,
}

/// A suite benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    /// Paper benchmark name (e.g. `rawcaudio`, `101.tomcatv`).
    pub name: &'static str,
    /// Originating suite (paper Table 5).
    pub suite: &'static str,
    /// One-line description (paper Table 5).
    pub description: &'static str,
    /// Category.
    pub category: Category,
    /// MiniC source.
    pub source: &'static str,
}

impl Benchmark {
    /// Compile the benchmark's MiniC source, with the benchmark's name
    /// attached to any compiler diagnostic.
    ///
    /// # Errors
    /// [`SuiteError::Compile`] if the bundled source fails to compile — a
    /// bug in this crate, covered by tests.
    pub fn try_program(&self) -> Result<Program, SuiteError> {
        compile(self.source).map_err(|e| SuiteError::Compile {
            bench: self.name,
            message: e.to_string(),
        })
    }

    /// Initial memory for `prog` with the given data set's seed installed.
    ///
    /// # Errors
    /// [`SuiteError::MissingDataseed`] if the program lacks the mandatory
    /// `dataseed` global.
    pub fn try_memory(&self, prog: &Program, ds: DataSet) -> Result<Vec<u8>, SuiteError> {
        let mut mem = prog.initial_memory();
        let addr = prog
            .global_addr("dataseed")
            .ok_or(SuiteError::MissingDataseed { bench: self.name })? as usize;
        mem[addr..addr + 8].copy_from_slice(&ds.seed().to_le_bytes());
        Ok(mem)
    }

    /// Panicking convenience wrapper over [`Benchmark::try_program`] for
    /// tests, examples, and benches; production evaluation paths use the
    /// fallible form.
    ///
    /// # Panics
    /// Panics if the bundled source fails to compile.
    pub fn program(&self) -> Program {
        self.try_program().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking convenience wrapper over [`Benchmark::try_memory`] for
    /// tests, examples, and benches; production evaluation paths use the
    /// fallible form.
    ///
    /// # Panics
    /// Panics if the program lacks the mandatory `dataseed` global.
    pub fn memory(&self, prog: &Program, ds: DataSet) -> Vec<u8> {
        self.try_memory(prog, ds).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// All integer/multimedia benchmarks (hyperblock & register-allocation
/// studies).
pub fn int_benchmarks() -> Vec<Benchmark> {
    int::all()
}

/// All floating-point benchmarks (prefetching study).
pub fn fp_benchmarks() -> Vec<Benchmark> {
    fp::all()
}

/// Every benchmark in the suite.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut v = int_benchmarks();
    v.extend(fp_benchmarks());
    v
}

/// Look up a benchmark by its paper name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

/// The paper's hyperblock training set (Fig. 6) — mostly Mediabench, which
/// "compiles and runs faster than the Spec benchmarks".
pub fn hyperblock_training_set() -> Vec<Benchmark> {
    [
        "decodrle4",
        "codrle4",
        "g721decode",
        "g721encode",
        "rawdaudio",
        "rawcaudio",
        "toast",
        "mpeg2dec",
        "124.m88ksim",
        "129.compress",
        "huff_enc",
        "huff_dec",
    ]
    .iter()
    .map(|n| by_name(n).expect("training benchmark registered"))
    .collect()
}

/// The paper's hyperblock cross-validation test set (Fig. 7).
pub fn hyperblock_test_set() -> Vec<Benchmark> {
    [
        "unepic",
        "djpeg",
        "rasta",
        "023.eqntott",
        "132.ijpeg",
        "147.vortex",
        "085.cc1",
        "130.li",
        "osdemo",
        "mipmap",
    ]
    .iter()
    .map(|n| by_name(n).expect("test benchmark registered"))
    .collect()
}

/// The paper's register-allocation training set (Fig. 11; smaller because
/// of the 32-register target).
pub fn regalloc_training_set() -> Vec<Benchmark> {
    [
        "129.compress",
        "g721decode",
        "g721encode",
        "huff_enc",
        "huff_dec",
        "rawcaudio",
        "rawdaudio",
        "mpeg2dec",
    ]
    .iter()
    .map(|n| by_name(n).expect("regalloc training benchmark registered"))
    .collect()
}

/// The paper's register-allocation cross-validation set (Fig. 12).
pub fn regalloc_test_set() -> Vec<Benchmark> {
    [
        "decodrle4",
        "codrle4",
        "124.m88ksim",
        "unepic",
        "djpeg",
        "023.eqntott",
        "132.ijpeg",
        "147.vortex",
        "085.cc1",
        "130.li",
    ]
    .iter()
    .map(|n| by_name(n).expect("regalloc test benchmark registered"))
    .collect()
}

/// The paper's prefetching training set (Fig. 15: SPEC92/95 FP).
pub fn prefetch_training_set() -> Vec<Benchmark> {
    [
        "101.tomcatv",
        "102.swim",
        "103.su2cor",
        "125.turb3d",
        "146.wave5",
        "093.nasa7",
        "015.doduc",
        "034.mdljdp2",
        "107.mgrid",
        "141.apsi",
    ]
    .iter()
    .map(|n| by_name(n).expect("prefetch training benchmark registered"))
    .collect()
}

/// The paper's prefetching cross-validation set (Fig. 16: SPEC2000 FP).
pub fn prefetch_test_set() -> Vec<Benchmark> {
    [
        "168.wupwise",
        "171.swim",
        "172.mgrid",
        "173.applu",
        "183.equake",
        "188.ammp",
        "189.lucas",
        "301.apsi",
    ]
    .iter()
    .map(|n| by_name(n).expect("prefetch test benchmark registered"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::budget::{KERNEL_STEP_CEILING, KERNEL_VERIFY_MAX_STEPS};
    use metaopt_ir::interp::{run, RunConfig};

    #[test]
    fn all_benchmarks_compile_and_run_on_both_datasets() {
        for b in all_benchmarks() {
            let prog = b.program();
            for ds in [DataSet::Train, DataSet::Novel] {
                let cfg = RunConfig {
                    memory: Some(b.memory(&prog, ds)),
                    max_steps: KERNEL_VERIFY_MAX_STEPS,
                    ..Default::default()
                };
                let out =
                    run(&prog, &cfg).unwrap_or_else(|e| panic!("{} failed on {ds:?}: {e}", b.name));
                assert!(
                    out.steps > 1_000,
                    "{} too trivial: {} steps",
                    b.name,
                    out.steps
                );
                assert!(
                    out.steps < KERNEL_STEP_CEILING,
                    "{} too long for GP evaluation: {} steps",
                    b.name,
                    out.steps
                );
            }
        }
    }

    #[test]
    fn datasets_differ_and_are_deterministic() {
        for b in all_benchmarks() {
            let prog = b.program();
            let run_ds = |ds| {
                let cfg = RunConfig {
                    memory: Some(b.memory(&prog, ds)),
                    max_steps: KERNEL_VERIFY_MAX_STEPS,
                    ..Default::default()
                };
                run(&prog, &cfg).unwrap().ret
            };
            let t1 = run_ds(DataSet::Train);
            let t2 = run_ds(DataSet::Train);
            let n1 = run_ds(DataSet::Novel);
            assert_eq!(t1, t2, "{} must be deterministic", b.name);
            assert_ne!(t1, n1, "{} train and novel data must differ", b.name);
        }
    }

    #[test]
    fn registry_covers_paper_sets_without_overlap() {
        assert!(all_benchmarks().len() >= 30);
        let train = hyperblock_training_set();
        let test = hyperblock_test_set();
        for t in &test {
            assert!(
                train.iter().all(|b| b.name != t.name),
                "{} appears in both hyperblock sets",
                t.name
            );
        }
        let ptrain = prefetch_training_set();
        let ptest = prefetch_test_set();
        for t in &ptest {
            assert!(ptrain.iter().all(|b| b.name != t.name));
        }
        // Names unique.
        let mut names: Vec<_> = all_benchmarks().iter().map(|b| b.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate benchmark names");
    }

    #[test]
    fn loading_errors_carry_benchmark_names() {
        let broken = Benchmark {
            name: "synthetic-broken",
            suite: "test",
            description: "deliberately malformed source",
            category: Category::IntMedia,
            source: "fn main( { this is not MiniC",
        };
        match broken.try_program() {
            Err(SuiteError::Compile { bench, message }) => {
                assert_eq!(bench, "synthetic-broken");
                assert!(!message.is_empty());
            }
            other => panic!("expected Compile error, got {other:?}"),
        }

        // A valid program without a dataseed global: memory loading fails
        // with the benchmark named.
        let no_seed = Benchmark {
            name: "synthetic-no-dataseed",
            suite: "test",
            description: "valid program, no dataseed",
            category: Category::IntMedia,
            source: "global int x;\nfn main() -> int { return x; }",
        };
        let prog = no_seed.try_program().expect("source is valid");
        match no_seed.try_memory(&prog, DataSet::Train) {
            Err(SuiteError::MissingDataseed { bench }) => {
                assert_eq!(bench, "synthetic-no-dataseed")
            }
            other => panic!("expected MissingDataseed, got {other:?}"),
        }
    }

    #[test]
    fn categories_are_consistent() {
        for b in prefetch_training_set().iter().chain(&prefetch_test_set()) {
            assert_eq!(b.category, Category::Fp, "{}", b.name);
        }
        for b in hyperblock_training_set()
            .iter()
            .chain(&hyperblock_test_set())
        {
            assert_eq!(b.category, Category::IntMedia, "{}", b.name);
        }
    }
}
