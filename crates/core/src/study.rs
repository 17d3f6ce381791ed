//! The three case studies: which compiler pass is evolved, on which
//! machine, with which features, seeds and baselines.

use metaopt_compiler::{
    hyperblock, prefetch, regalloc, BoolPriority, Passes, PipelinePlan, RealPriority,
    ValidationLevel,
};
use metaopt_gp::expr::{Env, Expr};
use metaopt_gp::parse::parse_expr;
use metaopt_gp::{FeatureSet, Kind};
use metaopt_sim::{MachineConfig, SimTier};

/// Which priority function is being evolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StudyKind {
    /// Hyperblock-formation path priority (paper §5, real-valued).
    Hyperblock,
    /// Register-allocation per-block savings (paper §6, real-valued).
    Regalloc,
    /// Data-prefetch confidence (paper §7, Boolean).
    Prefetch,
}

/// Full configuration of a case study.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Which pass is evolved.
    pub kind: StudyKind,
    /// Target machine.
    pub machine: MachineConfig,
    /// Feature set the genomes are built over.
    pub features: FeatureSet,
    /// The baseline heuristic expressed as a GP genome (seeds the initial
    /// population, paper §4).
    pub baseline_seed: Expr,
    /// Multiplicative timing-noise amplitude (the prefetch study runs on a
    /// "real machine"; paper §7.1), 0.0 for the simulated studies.
    pub noise: f64,
    /// Genome sort.
    pub genome_kind: Kind,
    /// Run the inter-pass IR invariant checker at every pass boundary of
    /// every compilation in this study. Off by default; flip with
    /// [`StudyConfig::with_check_ir`] (the CLI's `--check-ir`).
    pub check_ir: bool,
    /// The pipeline plan every compilation in this study executes. Each
    /// study's constructor picks the paper-calibrated plan (the evolved
    /// pass plus the fixed downstream passes); override with
    /// [`StudyConfig::with_plan`] (the CLI's `--passes`) or
    /// [`StudyConfig::with_unroll`] (the CLI's `--unroll`) to explore the
    /// phase-ordering space.
    pub plan: PipelinePlan,
    /// Which simulator execution tier evaluations run on. Both tiers are
    /// bit-identical in every observable by contract, so this is purely a
    /// throughput knob: it never enters fitness, the persistent fitness
    /// cache, or checkpoint fingerprints. Defaults to the fast bytecode
    /// tier; flip with [`StudyConfig::with_sim_tier`] (the CLI's
    /// `--sim-tier`).
    pub sim_tier: SimTier,
    /// Semantic-validation level every compilation in this study runs at:
    /// per-pass translation validators at [`ValidationLevel::Fast`], plus
    /// post-pass abstract interpretation at [`ValidationLevel::Full`]. Off
    /// by default; flip with [`StudyConfig::with_validate`] (the CLI's
    /// `--validate`).
    pub validate: ValidationLevel,
}

/// A study of `kind` on `machine` with the paper-calibrated defaults: the
/// baseline heuristic `seed` and the pipeline `plan`, both module
/// constants, with IR checking and validation off and the fast simulator
/// tier.
fn study(
    kind: StudyKind,
    machine: MachineConfig,
    names: (Vec<&'static str>, Vec<&'static str>),
    seed: &str,
    noise: f64,
    plan: &str,
) -> StudyConfig {
    let mut features = FeatureSet::new();
    for r in names.0 {
        features.add_real(r);
    }
    for b in names.1 {
        features.add_bool(b);
    }
    StudyConfig {
        kind,
        machine,
        baseline_seed: parse_expr(seed, &features)
            .expect("each study's seed is a constant genome over its own features"),
        features,
        noise,
        genome_kind: match kind {
            StudyKind::Prefetch => Kind::Bool,
            StudyKind::Hyperblock | StudyKind::Regalloc => Kind::Real,
        },
        check_ir: false,
        plan: PipelinePlan::parse(plan).expect("each study's plan is a constant legal plan"),
        sim_tier: SimTier::default(),
        validate: ValidationLevel::Off,
    }
}

/// The hyperblock-formation study (paper §5): Table 3 machine, Table 4
/// features, Eq. 1 seed.
pub fn hyperblock() -> StudyConfig {
    study(
        StudyKind::Hyperblock,
        MachineConfig::table3(),
        hyperblock::feature_names(),
        "(mul exec_ratio (cmul (or (barg mem_hazard) (or (barg has_unsafe_jsr) (barg has_pointer_deref))) \
           0.25 \
           (sub 2.1 (add (div dep_height dep_height_max) (div num_ops num_ops_max)))))",
        0.0,
        "hyperblock,regalloc,schedule",
    )
}

/// The register-allocation study (paper §6): Table 3 machine restricted to
/// 32 GPR / 32 FPR, Eq. 2 seed.
pub fn regalloc() -> StudyConfig {
    study(
        StudyKind::Regalloc,
        MachineConfig::regalloc_stress(),
        regalloc::feature_names(),
        "(mul w (add (mul 2.0 uses) defs))",
        0.0,
        "hyperblock,regalloc,schedule",
    )
}

/// The data-prefetching study (paper §7): Itanium-like machine, Boolean
/// confidence genome, ORC-like trip-count seed, real-machine noise.
pub fn prefetch() -> StudyConfig {
    study(
        StudyKind::Prefetch,
        MachineConfig::itanium_like(),
        prefetch::feature_names(),
        "(barg trip_known)",
        0.005,
        "prefetch,regalloc,schedule",
    )
}

/// Adapter: a GP expression used as a real-valued priority function.
pub struct ExprPriority<'a>(pub &'a Expr);

impl RealPriority for ExprPriority<'_> {
    fn score(&self, reals: &[f64], bools: &[bool]) -> f64 {
        self.0.eval_real(&Env { reals, bools })
    }
}

impl BoolPriority for ExprPriority<'_> {
    fn decide(&self, reals: &[f64], bools: &[bool]) -> bool {
        self.0.eval_bool(&Env { reals, bools })
    }
}

impl StudyConfig {
    /// This study with IR invariant checking switched on or off.
    pub fn with_check_ir(mut self, on: bool) -> Self {
        self.check_ir = on;
        self
    }

    /// This study simulating on `tier` (the fast bytecode tier or the
    /// reference cycle-level interpreter; results are identical, only
    /// throughput differs).
    pub fn with_sim_tier(mut self, tier: SimTier) -> Self {
        self.sim_tier = tier;
        self
    }

    /// This study with semantic validation at `level` (the translation
    /// validators at `fast`, plus abstract interpretation at `full`).
    pub fn with_validate(mut self, level: ValidationLevel) -> Self {
        self.validate = level;
        self
    }

    /// This study running `plan` instead of its paper-calibrated pipeline.
    /// Priority slots for passes outside the study keep their shipped
    /// baselines, so any legal plan is runnable.
    pub fn with_plan(mut self, plan: PipelinePlan) -> Self {
        self.plan = plan;
        self
    }

    /// This study with a `unroll(factor)` step prepended to its plan
    /// (replacing any existing unroll step; `factor < 2` removes it).
    pub fn with_unroll(mut self, factor: u32) -> Self {
        self.plan = self.plan.with_unroll(factor);
        self
    }

    /// The pass configuration with the study's slot filled by `expr`
    /// (the other passes run their shipped baselines).
    pub fn passes_with<'a>(&self, expr: &'a ExprPriority<'a>) -> Passes<'a> {
        let mut passes: Passes<'a> = self.baseline_passes();
        match self.kind {
            StudyKind::Hyperblock => passes.hyperblock = expr,
            StudyKind::Regalloc => passes.regalloc = expr,
            StudyKind::Prefetch => passes.prefetch = expr,
        }
        passes
    }

    /// The pass configuration with the study's shipped baseline heuristic:
    /// the study's plan, baseline priorities in every slot.
    pub fn baseline_passes(&self) -> Passes<'static> {
        Passes {
            plan: self.plan.clone(),
            hyperblock: &hyperblock::BaselineEq1,
            regalloc: &regalloc::BaselineEq2,
            prefetch: &prefetch::BaselineTripCount,
            prefetch_iters_ahead: 8,
            check_ir: self.check_ir,
            validate: self.validate,
            tracer: metaopt_trace::Tracer::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_studies_construct() {
        for cfg in [hyperblock(), regalloc(), prefetch()] {
            assert!(cfg.features.num_reals() > 0);
            assert!(cfg.baseline_seed.size() >= 1);
        }
    }

    #[test]
    fn hyperblock_seed_matches_native_eq1() {
        // The GP-expressed Eq. 1 seed must agree with the native baseline on
        // arbitrary feature vectors.
        let cfg = hyperblock();
        let n = cfg.features.num_reals();
        for trial in 0..50 {
            let reals: Vec<f64> = (0..n)
                .map(|i| ((trial * 31 + i * 7) % 13) as f64 + 0.5)
                .collect();
            let bools = [trial % 3 == 0, trial % 5 == 0, trial % 7 == 0];
            let native = metaopt_compiler::hyperblock::BaselineEq1.score(&reals, &bools);
            let seeded = ExprPriority(&cfg.baseline_seed).score(&reals, &bools);
            assert!(
                (native - seeded).abs() < 1e-9,
                "trial {trial}: native {native} vs seed {seeded}"
            );
        }
    }

    #[test]
    fn regalloc_seed_matches_native_eq2() {
        let cfg = regalloc();
        for trial in 0..20 {
            let reals: Vec<f64> = (0..cfg.features.num_reals())
                .map(|i| ((trial + i * 3) % 9) as f64)
                .collect();
            let bools = [false, false];
            let native = metaopt_compiler::regalloc::BaselineEq2.score(&reals, &bools);
            let seeded = ExprPriority(&cfg.baseline_seed).score(&reals, &bools);
            assert!((native - seeded).abs() < 1e-9);
        }
    }

    #[test]
    fn prefetch_seed_matches_native_baseline() {
        let cfg = prefetch();
        let reals = vec![0.0; cfg.features.num_reals()];
        for sk in [false, true] {
            for tk in [false, true] {
                let bools = [sk, tk, false];
                let native = metaopt_compiler::prefetch::BaselineTripCount.decide(&reals, &bools);
                let seeded = ExprPriority(&cfg.baseline_seed).decide(&reals, &bools);
                assert_eq!(native, seeded);
            }
        }
    }
}
