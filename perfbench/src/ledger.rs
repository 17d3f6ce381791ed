//! Per-layer metrics from the traced run's spans.

use crate::spans::Span;
use crate::stats::{concurrency, self_time, Summary};
use crate::workload::{RepOutcome, Workload};
use std::collections::HashMap;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in BENCHMARK.json.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The compiler passes and translation validators, in plan order.
pub const PASSES: [&str; 5] = ["unroll", "prefetch", "hyperblock", "regalloc", "schedule"];

/// Span families whose distributions the families file records; a
/// `.self` suffix selects the self times of the named family.
pub const FAMILIES: [&str; 24] = [
    "core.prepared_bench",
    "core.baseline",
    "lang.frontend",
    "ir.interp",
    "compiler.prepare",
    "core.eval",
    "compiler.compile",
    "compiler.pass.unroll",
    "compiler.pass.prefetch",
    "compiler.pass.hyperblock",
    "compiler.pass.regalloc",
    "compiler.pass.schedule",
    "analysis.validate.unroll",
    "analysis.validate.prefetch",
    "analysis.validate.hyperblock",
    "analysis.validate.regalloc",
    "analysis.validate.schedule",
    "sim.bytecode_compile",
    "sim.mem_image",
    "sim.run",
    "gp.evolution",
    "core.prepared_bench.self",
    "core.eval.self",
    "compiler.compile.self",
];

/// Spans indexed by name and by parent.
pub struct Index<'a> {
    by_name: HashMap<&'static str, Vec<&'a Span>>,
    children: HashMap<u64, Vec<&'a Span>>,
}

impl<'a> Index<'a> {
    /// Index `spans`.
    pub fn new(spans: &'a [Span]) -> Self {
        let mut by_name: HashMap<&'static str, Vec<&Span>> = HashMap::new();
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in spans {
            by_name.entry(s.name).or_default().push(s);
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(s);
            }
        }
        Index { by_name, children }
    }

    /// Spans named `name`.
    pub fn named(&self, name: &str) -> &[&'a Span] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Durations (ns) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).iter().map(|s| s.dur() as f64).collect()
    }

    /// Self times (ns) of the spans named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .iter()
            .map(|s| {
                let kids: Vec<(u64, u64)> = self
                    .children
                    .get(&s.id)
                    .map(|k| k.iter().map(|c| (c.start, c.end)).collect())
                    .unwrap_or_default();
                self_time((s.start, s.end), &kids) as f64
            })
            .collect()
    }

    /// Σ duration (ns) of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).iter().map(|s| s.dur() as f64).sum()
    }

    /// Σ of a count over the spans named `name`.
    pub fn count_sum(&self, name: &str, count: &str) -> u64 {
        self.named(name).iter().filter_map(|s| s.count(count)).sum()
    }
}

/// Distribution of a family, or of its self times for `.self` names.
pub fn family(ix: &Index<'_>, name: &str) -> Summary {
    match name.strip_suffix(".self") {
        Some(base) => Summary::of(&ix.self_times(base)),
        None => Summary::of(&ix.durations(name)),
    }
}

/// The per-layer metrics of a traced rep. `run_s` is the traced rep's wall
/// time after set-up and `untraced_run_s` the untraced median.
pub fn metrics(
    w: Workload,
    spans: &[Span],
    rep: &RepOutcome,
    run_s: f64,
    untraced_run_s: f64,
) -> Vec<Metric> {
    let ix = Index::new(spans);
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    let ops_total = ix.total(w.op_span());
    let share = |ns: f64| if ops_total > 0.0 { ns / ops_total } else { 0.0 };

    // Set-up.
    let kernels = family(&ix, "core.prepared_bench");
    put("core.setup_kernels", kernels.n as f64, "count");
    for (fam, name) in [
        ("core.prepared_bench", "core.prepared_bench"),
        ("core.baseline", "core.baseline"),
        ("lang.frontend", "lang.frontend"),
        ("ir.interp", "ir.interp"),
        ("compiler.prepare", "compiler.prepare"),
    ] {
        let s = family(&ix, fam);
        put(&format!("{name}_ms"), s.median / MS, "ms");
        put(&format!("{name}_tail_ms"), s.tail_or_median() / MS, "ms");
    }
    put(
        "core.prepared_bench_self_ms",
        family(&ix, "core.prepared_bench.self").median / MS,
        "ms",
    );
    put("ir.interp_runs", family(&ix, "ir.interp").n as f64, "count");
    put(
        "ir.interp_steps",
        ix.count_sum("ir.interp", "ir.interp_steps") as f64,
        "count",
    );

    // Evaluation core.
    let evals = family(&ix, "core.eval");
    put("core.evals", evals.n as f64, "count");
    put("core.eval_p50_ms", evals.median / MS, "ms");
    put("core.eval_tail_ms", evals.tail_or_median() / MS, "ms");
    put("core.eval_tail_pct", evals.tail_pct(), "%");
    let eval_self = family(&ix, "core.eval.self");
    put("core.eval_self_us", eval_self.median / US, "us");
    put("core.eval_self_share", share(eval_self.sum), "ratio");

    // Compiler.
    let compiles = family(&ix, "compiler.compile");
    put("compiler.compiles", compiles.n as f64, "count");
    put("compiler.compile_p50_us", compiles.median / US, "us");
    put(
        "compiler.compile_tail_us",
        compiles.tail_or_median() / US,
        "us",
    );
    put("compiler.compile_tail_pct", compiles.tail_pct(), "%");
    for p in PASSES {
        let s = family(&ix, &format!("compiler.pass.{p}"));
        put(&format!("compiler.pass.{p}_us"), s.median / US, "us");
        put(
            &format!("compiler.pass.{p}_tail_us"),
            s.tail_or_median() / US,
            "us",
        );
        put(&format!("compiler.pass.{p}_runs"), s.n as f64, "count");
    }
    put(
        "compiler.self_us",
        family(&ix, "compiler.compile.self").median / US,
        "us",
    );
    put(
        "compiler.static_insts",
        ix.count_sum("compiler.compile", "compiler.static_insts") as f64,
        "count",
    );
    put(
        "compiler.spills",
        ix.count_sum("compiler.compile", "compiler.spills") as f64,
        "count",
    );
    let validators: f64 = PASSES
        .iter()
        .map(|p| ix.total(&format!("analysis.validate.{p}")))
        .sum();
    put(
        "compiler.share",
        share(ix.total("compiler.compile") - validators),
        "ratio",
    );

    // Analysis.
    for p in PASSES {
        let s = family(&ix, &format!("analysis.validate.{p}"));
        put(&format!("analysis.validate.{p}_us"), s.median / US, "us");
        put(
            &format!("analysis.validate.{p}_tail_us"),
            s.tail_or_median() / US,
            "us",
        );
    }
    put(
        "analysis.findings",
        ix.count_sum("compiler.compile", "analysis.findings") as f64,
        "count",
    );
    put("analysis.share", share(validators), "ratio");

    // Simulator.
    let runs = family(&ix, "sim.run");
    put("sim.runs", runs.n as f64, "count");
    for (fam, name) in [
        ("sim.bytecode_compile", "sim.bytecode_compile"),
        ("sim.mem_image", "sim.mem_image"),
    ] {
        let s = family(&ix, fam);
        put(&format!("{name}_us"), s.median / US, "us");
        put(&format!("{name}_tail_us"), s.tail_or_median() / US, "us");
    }
    put("sim.run_p50_ms", runs.median / MS, "ms");
    put("sim.run_tail_ms", runs.tail_or_median() / MS, "ms");
    put("sim.run_tail_pct", runs.tail_pct(), "%");
    let cycles = ix.count_sum("sim.run", "sim.cycles");
    put(
        "sim.mcycles_per_s",
        if runs.sum > 0.0 {
            cycles as f64 / (runs.sum / 1e9) / 1e6
        } else {
            0.0
        },
        "1/s",
    );
    for c in [
        "sim.cycles",
        "sim.insts",
        "sim.nullified",
        "sim.mispredicts",
        "sim.l1_misses",
        "sim.l2_misses",
        "sim.prefetches",
    ] {
        put(c, ix.count_sum("sim.run", c) as f64, "count");
    }
    put(
        "sim.share",
        share(ix.total("sim.bytecode_compile") + ix.total("sim.mem_image") + runs.sum),
        "ratio",
    );

    // GP engine and evaluation service.
    let lookups = rep.memo_hits + rep.ops;
    put(
        "gp.memo_hit_rate",
        if w == Workload::CompileRegalloc || lookups == 0 {
            0.0
        } else {
            rep.memo_hits as f64 / lookups as f64
        },
        "ratio",
    );
    put("gp.quarantined", rep.quarantined as f64, "count");
    put("gp.duplicate_evals", (rep.calls - rep.ops) as f64, "count");
    let evals_iv: Vec<(u64, u64)> = ix
        .named("core.eval")
        .iter()
        .map(|s| (s.start, s.end))
        .collect();
    let (mut wall, mut idle, mut one, mut busy) = (0u64, 0u64, 0u64, 0u64);
    for win in ix.named("gp.evolution") {
        let c = concurrency((win.start, win.end), &evals_iv);
        wall += win.dur();
        idle += c.idle;
        one += c.one;
        busy += c.busy;
    }
    put("gp.evolution_s", wall as f64 / 1e9, "s");
    put(
        "gp.worker_busy_frac",
        if wall > 0 {
            busy as f64 / (w.workers() as f64 * wall as f64)
        } else {
            0.0
        },
        "ratio",
    );
    put("gp.serial_s", idle as f64 / 1e9, "s");
    put("gp.one_busy_s", one as f64 / 1e9, "s");

    // Tracing overhead.
    put("overhead.traced_run_s", run_s, "s");
    put(
        "overhead.traced_run_ratio",
        if untraced_run_s > 0.0 {
            run_s / untraced_run_s
        } else {
            0.0
        },
        "ratio",
    );
    out
}

/// The distribution of every span family, as one JSON object per line.
pub fn families_json(spans: &[Span]) -> String {
    let ix = Index::new(spans);
    let mut out = String::new();
    for name in FAMILIES {
        let s = family(&ix, name);
        out.push_str(&format!(
            "{{\"family\":\"{name}\",\"n\":{},\"median_ns\":{},\"tail_pct\":{},\"tail_ns\":{},\"sum_ns\":{}}}\n",
            s.n,
            s.median,
            s.tail.map_or("null".to_string(), |(p, _)| p.to_string()),
            s.tail.map_or("null".to_string(), |(_, v)| v.to_string()),
            s.sum
        ));
    }
    out
}
