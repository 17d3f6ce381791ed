//! The terminal view behind `metaopt top`: one frame rendered from the
//! [`Report`] that `metaopt top` folds a (possibly still-growing)
//! `run-trace.v1` stream into with [`Report::push_line`]. It is the digest
//! `metaopt trace-report` prints, so the two views cannot disagree.

use crate::report::Report;

/// How many recent generations the view tabulates.
const RECENT_GENS: usize = 5;

/// Render `report` as a multi-line terminal status view.
pub fn render(report: &Report) -> String {
    let run = &report.run;
    let command = run.command.as_deref().unwrap_or("(no run-start yet)");
    let mut out = format!("metaopt top · {command}\n");
    let cur_gen = report
        .generations
        .last()
        .map_or(0, |g| g.gen.saturating_add(1));
    let state = if run.finished { "finished" } else { "running" };
    out.push_str(&format!(
        "gen {cur_gen}/{} · pop {} · threads {} · {state}\n\n",
        run.generations, run.population, run.threads
    ));
    out.push_str(&format!(
        "evals {} ({:.1}/s) · cache hit {:.1}% · warm {}\n",
        report.total_evals,
        report.evals_per_sec(),
        100.0 * report.hit_rate(),
        report.reliability.warm_evals
    ));
    let latency = report.eval_latency_ns();
    if !latency.is_empty() {
        let quantiles: Vec<String> = latency
            .iter()
            .map(|(p, ns)| format!("p{p} {}", fmt_ns(*ns)))
            .collect();
        out.push_str(&format!(
            "eval latency {} ({} samples)\n",
            quantiles.join(" · "),
            report.eval_ns.len()
        ));
    }
    if report.sims.0 > 0 {
        out.push_str(&format!(
            "sim {} cycles/s · {} runs for {} evaluations\n",
            fmt_quantity(report.sim_cycles_per_sec()),
            report.sims.0,
            report.total_evals
        ));
    }
    let quarantined: u64 = report.quarantine.iter().map(|(_, n)| n).sum();
    out.push_str(&format!(
        "reliability: retries {} · quarantined {quarantined}\n",
        report.reliability.retries
    ));

    // Recent generations table.
    if !report.generations.is_empty() {
        out.push_str(&format!(
            "\n{:>5} {:>7} {:>6} {:>10} {:>10} {:>8}\n",
            "gen", "evals", "hits", "best", "mean", "ms"
        ));
        let start = report.generations.len().saturating_sub(RECENT_GENS);
        for g in &report.generations[start..] {
            out.push_str(&format!(
                "{:>5} {:>7} {:>6} {:>10.4} {:>10.4} {:>8.1}\n",
                g.gen,
                g.evals,
                g.cache_hits,
                g.best_fitness,
                g.mean_fitness,
                g.dur_ns as f64 / 1e6
            ));
        }
    }
    out
}

/// Format nanoseconds human-readably (`1.8ms`, `412µs`, `2.1s`).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.0}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Format a rate human-readably (`8.3M`, `74.2`, `1.2G`).
fn fmt_quantity(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(lines: &[&str]) -> Report {
        let mut report = Report::default();
        for line in lines {
            report.push_line(line);
        }
        report
    }

    #[test]
    fn digests_a_running_trace() {
        let mut r = feed(&[
            r#"{"type":"trace-header","ts":0,"schema":"run-trace.v1","producer":"metaopt"}"#,
            r#"{"type":"run-start","ts":1,"command":"specialize hyperblock unepic"}"#,
            r#"{"type":"evolution-start","ts":2,"population":16,"generations":12,"start_gen":0,"threads":2,"resumed":false}"#,
            r#"{"type":"eval","ts":3,"gen":0,"genome":"g","case":0,"outcome":"score","score":1.0,"dur_ns":2000000,"warm":true}"#,
            r#"{"type":"eval","ts":3,"gen":0,"genome":"h","case":0,"outcome":"budget","dur_ns":1000000}"#,
            r#"{"type":"sim","ts":3,"cycles":8000000,"insts":100,"dur_ns":1000000000}"#,
            r#"{"type":"generation","ts":4,"gen":0,"subset":[0],"evals":16,"cache_hits":4,"best_fitness":1.25,"mean_fitness":2.5,"best_size":3,"dur_ns":200000000}"#,
        ]);
        assert!(!r.run.finished);
        let view = render(&r);
        assert!(view.contains("specialize hyperblock unepic"), "{view}");
        assert!(
            view.contains("gen 1/12 · pop 16 · threads 2 · running"),
            "{view}"
        );
        assert!(view.contains("evals 16 (80.0/s)"), "{view}");
        assert!(view.contains("cache hit 20.0%"), "{view}");
        assert!(view.contains("warm 1"), "{view}");
        // Exact nearest-rank median of {1ms, 2ms}; two samples print no tail.
        assert!(
            view.contains("eval latency p50 1.0ms (2 samples)"),
            "{view}"
        );
        assert!(
            view.contains("sim 8.0M cycles/s · 1 runs for 16 evaluations"),
            "{view}"
        );
        assert!(view.contains("quarantined 1"), "{view}");

        // run-end flips the finished flag.
        r.push_line(r#"{"type":"run-end","ts":9,"command":"specialize","dur_ns":5}"#);
        assert!(r.run.finished);
        assert!(render(&r).contains("finished"));
    }

    #[test]
    fn tolerates_torn_and_unknown_lines() {
        let r = feed(&[
            r#"{"type":"run-start","ts":1,"command":"x"}"#,
            r#"{"type":"generation","ts":2,"gen":0,"subset":[],"evals":1,"#, // torn
            "garbage",
            r#"{"type":"from-the-future","ts":3,"novel":true}"#,
            r#"{"no_type":1}"#,
        ]);
        // Only the parseable typed lines counted (unknown types are digested
        // as no-ops — forward compatibility); render stays sane.
        assert_eq!(r.events, 2);
        let view = render(&r);
        assert!(view.contains("metaopt top · x"), "{view}");
        assert!(view.contains("evals 0 (0.0/s)"), "{view}");
    }

    #[test]
    fn renders_without_snapshots() {
        // The view reads events only: no metrics-snapshot is needed.
        let r = feed(&[
            r#"{"type":"retry","ts":1,"gen":0,"genome":"g","case":0,"attempt":1,"kind":"timeout","backoff_ns":5}"#,
        ]);
        let view = render(&r);
        assert!(view.contains("retries 1 · quarantined 0"), "{view}");
        assert!(!view.contains("eval latency"), "{view}");
    }

    #[test]
    fn formats_are_human_scale() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(95_000), "95µs");
        assert_eq!(fmt_ns(1_800_000), "1.8ms");
        assert_eq!(fmt_ns(2_100_000_000), "2.1s");
        assert_eq!(fmt_quantity(74.25), "74.2");
        assert_eq!(fmt_quantity(8_300_000.0), "8.3M");
        assert_eq!(fmt_quantity(1_200_000_000.0), "1.2G");
    }
}
