//! The state machine behind `metaopt top`: incrementally digest a
//! (possibly still-growing) `run-trace.v1` JSONL stream and render a
//! compact live status view.
//!
//! [`LiveStatus::push_line`] is tolerant by design — a tail of a running
//! trace can hand it a torn final line or content written by a newer
//! producer, and it simply ignores what it cannot parse. Rendering pulls
//! throughput from `generation` events and latency/utilization from the
//! `runtime` dump of the latest `metrics-snapshot` event (when the run has
//! metrics enabled; without them the view degrades to event-derived rows).

use crate::json::{self, Value};
use crate::metrics::quantile_from_buckets;

/// One digested `generation` event.
#[derive(Clone, Debug)]
struct GenRow {
    gen: u64,
    evals: u64,
    cache_hits: u64,
    best: f64,
    mean: f64,
    dur_ns: u64,
}

/// A histogram deserialized from a snapshot `runtime` dump.
#[derive(Clone, Debug, Default)]
struct HistDump {
    count: u64,
    buckets: Vec<(usize, u64)>,
}

impl HistDump {
    fn quantile(&self, q_num: u64, q_den: u64) -> u64 {
        quantile_from_buckets(&self.buckets, q_num, q_den)
    }
}

/// The latest `metrics-snapshot`, split into its deterministic counters and
/// the runtime registry dump.
#[derive(Clone, Debug, Default)]
struct Snapshot {
    seq: u64,
    counters: Vec<(String, u64)>,
    scalars: Vec<(String, u64)>,
    hists: Vec<(String, HistDump)>,
}

impl Snapshot {
    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    fn scalar(&self, name: &str) -> Option<u64> {
        self.scalars
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Sum of every member of a labeled scalar family, e.g. the per-shard
    /// queue depth gauges.
    fn scalar_family_sum(&self, family: &str) -> u64 {
        let prefix = format!("{family}{{");
        self.scalars
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    fn hist(&self, name: &str) -> Option<&HistDump> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }
}

/// Incremental digest of a live trace, rendering a terminal status view.
#[derive(Clone, Debug, Default)]
pub struct LiveStatus {
    command: Option<String>,
    population: u64,
    generations: u64,
    threads: u64,
    gens: Vec<GenRow>,
    snapshot: Option<Snapshot>,
    retries: u64,
    timeouts: u64,
    restarts: u64,
    quarantined_events: u64,
    finished: bool,
    events: u64,
}

/// How many recent generations the view tabulates.
const RECENT_GENS: usize = 5;

impl LiveStatus {
    /// A fresh digest with no events seen.
    pub fn new() -> LiveStatus {
        LiveStatus::default()
    }

    /// Total events digested so far (parse failures excluded).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether the producing process has written its `run-end` event — the
    /// signal for `--follow` to stop tailing.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Digest one JSONL line. Unparseable or torn lines are ignored — a
    /// live tail races the writer by design.
    pub fn push_line(&mut self, line: &str) {
        let Ok(v) = json::parse(line) else { return };
        let Some(ty) = v.get("type").and_then(Value::as_str) else {
            return;
        };
        let u = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let f = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        self.events += 1;
        match ty {
            "run-start" => {
                self.command = v.get("command").and_then(Value::as_str).map(str::to_string);
            }
            "run-end" => self.finished = true,
            "evolution-start" => {
                self.population = u("population");
                self.generations = u("generations");
                self.threads = u("threads");
            }
            "generation" => {
                self.gens.push(GenRow {
                    gen: u("gen"),
                    evals: u("evals"),
                    cache_hits: u("cache_hits"),
                    best: f("best_fitness"),
                    mean: f("mean_fitness"),
                    dur_ns: u("dur_ns"),
                });
            }
            "eval"
                if v.get("outcome").and_then(Value::as_str)
                    != Some(crate::schema::OUTCOME_SCORE) =>
            {
                self.quarantined_events += 1;
            }
            "retry" => self.retries += 1,
            "timeout" => self.timeouts += 1,
            "worker-restart" => self.restarts += 1,
            "metrics-snapshot" => {
                let mut snap = Snapshot {
                    seq: u("seq"),
                    ..Snapshot::default()
                };
                if let Some(counters) = v.get("counters").and_then(Value::as_obj) {
                    for (k, c) in counters {
                        if let Some(n) = c.as_u64() {
                            snap.counters.push((k.clone(), n));
                        }
                    }
                }
                if let Some(runtime) = v.get("runtime").and_then(Value::as_obj) {
                    for (k, m) in runtime {
                        if let Some(n) = m.as_u64() {
                            snap.scalars.push((k.clone(), n));
                        } else if m.get("buckets").is_some() {
                            let mut hist = HistDump {
                                count: m.get("count").and_then(Value::as_u64).unwrap_or(0),
                                buckets: Vec::new(),
                            };
                            if let Some(pairs) = m.get("buckets").and_then(Value::as_arr) {
                                for pair in pairs {
                                    if let Some(p) = pair.as_arr() {
                                        if let (Some(i), Some(n)) = (
                                            p.first().and_then(Value::as_u64),
                                            p.get(1).and_then(Value::as_u64),
                                        ) {
                                            hist.buckets.push((i as usize, n));
                                        }
                                    }
                                }
                            }
                            snap.hists.push((k.clone(), hist));
                        }
                    }
                }
                self.snapshot = Some(snap);
            }
            _ => {}
        }
    }

    /// Render the current status as a multi-line terminal view.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let command = self.command.as_deref().unwrap_or("(no run-start yet)");
        out.push_str(&format!("metaopt top · {command}\n"));
        let cur_gen = self.gens.last().map_or(0, |g| g.gen + 1);
        let seq = self
            .snapshot
            .as_ref()
            .map_or("-".to_string(), |s| s.seq.to_string());
        let state = if self.finished { "finished" } else { "running" };
        out.push_str(&format!(
            "gen {cur_gen}/{} · pop {} · threads {} · snapshot seq {seq} · {state}\n\n",
            self.generations, self.population, self.threads
        ));

        // Throughput from generation events (deterministic, always present
        // in a traced run).
        let evals: u64 = self.gens.iter().map(|g| g.evals).sum();
        let hits: u64 = self.gens.iter().map(|g| g.cache_hits).sum();
        let dur: u64 = self.gens.iter().map(|g| g.dur_ns).sum();
        let eps = if dur == 0 {
            0.0
        } else {
            evals as f64 / (dur as f64 / 1e9)
        };
        let hit_pct = if evals + hits == 0 {
            0.0
        } else {
            100.0 * hits as f64 / (evals + hits) as f64
        };
        let warm = self.snapshot.as_ref().map_or(0, |s| s.counter("warm_hits"));
        out.push_str(&format!(
            "evals {evals} ({eps:.1}/s) · cache hit {hit_pct:.1}% · warm {warm}\n"
        ));

        // Latency + utilization from the latest snapshot's runtime dump.
        if let Some(snap) = &self.snapshot {
            if let Some(h) = snap.hist("metaopt_eval_latency_ns") {
                out.push_str(&format!(
                    "eval latency p50 {} · p90 {} · p99 {} ({} samples)\n",
                    fmt_ns(h.quantile(50, 100)),
                    fmt_ns(h.quantile(90, 100)),
                    fmt_ns(h.quantile(99, 100)),
                    h.count,
                ));
            }
            if let Some(workers) = snap.scalar("metaopt_service_workers") {
                let busy = snap.scalar("metaopt_service_workers_busy").unwrap_or(0);
                out.push_str(&format!(
                    "workers {busy}/{workers} busy · queue {} · steals {} · restarts {}\n",
                    snap.scalar_family_sum("metaopt_service_queue_depth"),
                    snap.scalar("metaopt_service_steals_total").unwrap_or(0),
                    snap.scalar("metaopt_service_restarts_total").unwrap_or(0),
                ));
            }
            let sim_cycles = snap.scalar("metaopt_sim_cycles_total").unwrap_or(0);
            let sim_ns = snap.scalar("metaopt_sim_wall_ns_total").unwrap_or(0);
            if sim_cycles > 0 && sim_ns > 0 {
                let cps = sim_cycles as f64 / (sim_ns as f64 / 1e9);
                out.push_str(&format!(
                    "sim {} cycles/s · memo hits {}\n",
                    fmt_quantity(cps),
                    snap.scalar("metaopt_sim_memo_hits_total").unwrap_or(0)
                ));
            }
            out.push_str(&format!(
                "reliability: retries {} · timeouts {} · quarantined {}\n",
                snap.counter("retries").max(self.retries),
                self.timeouts,
                snap.counter("quarantined").max(self.quarantined_events),
            ));
        } else {
            out.push_str(&format!(
                "reliability: retries {} · timeouts {} · restarts {} · quarantined {}\n",
                self.retries, self.timeouts, self.restarts, self.quarantined_events
            ));
            out.push_str(
                "(no metrics-snapshot events yet — run with --trace-out to stream them)\n",
            );
        }

        // Recent generations table.
        if !self.gens.is_empty() {
            out.push_str(&format!(
                "\n{:>5} {:>7} {:>6} {:>10} {:>10} {:>8}\n",
                "gen", "evals", "hits", "best", "mean", "ms"
            ));
            let start = self.gens.len().saturating_sub(RECENT_GENS);
            for g in &self.gens[start..] {
                out.push_str(&format!(
                    "{:>5} {:>7} {:>6} {:>10.4} {:>10.4} {:>8.1}\n",
                    g.gen,
                    g.evals,
                    g.cache_hits,
                    g.best,
                    g.mean,
                    g.dur_ns as f64 / 1e6
                ));
            }
        }
        out
    }
}

/// Format nanoseconds human-readably (`1.8ms`, `412µs`, `2.1s`).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{}µs", ns / 1_000)
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

    fn feed(status: &mut LiveStatus, lines: &[&str]) {
        for line in lines {
            status.push_line(line);
        }
    }

    #[test]
    fn digests_a_running_trace() {
        let mut s = LiveStatus::new();
        feed(
            &mut s,
            &[
                r#"{"type":"trace-header","ts":0,"schema":"run-trace.v1","producer":"metaopt"}"#,
                r#"{"type":"run-start","ts":1,"command":"specialize hyperblock unepic"}"#,
                r#"{"type":"evolution-start","ts":2,"population":16,"generations":12,"start_gen":0,"threads":2,"resumed":false}"#,
                r#"{"type":"generation","ts":3,"gen":0,"subset":[0],"evals":16,"cache_hits":4,"best_fitness":1.25,"mean_fitness":2.5,"best_size":3,"dur_ns":200000000}"#,
                r#"{"type":"metrics-snapshot","ts":4,"seq":0,"gen":0,"counters":{"evaluations":16,"cache_hits":4,"warm_hits":2,"quarantined":1},"runtime":{"metaopt_eval_latency_ns":{"count":16,"sum":160000000,"buckets":[[24,12],[25,4]]},"metaopt_service_workers":2,"metaopt_service_workers_busy":1,"metaopt_service_queue_depth{shard=\"0\"}":3,"metaopt_service_queue_depth{shard=\"1\"}":2,"metaopt_service_steals_total":7,"metaopt_service_restarts_total":0,"metaopt_sim_cycles_total":8000000,"metaopt_sim_wall_ns_total":1000000000,"metaopt_sim_memo_hits_total":12}}"#,
            ],
        );
        assert!(!s.finished());
        let view = s.render();
        assert!(view.contains("specialize hyperblock unepic"), "{view}");
        assert!(view.contains("gen 1/12 · pop 16 · threads 2"), "{view}");
        assert!(view.contains("snapshot seq 0"), "{view}");
        assert!(view.contains("evals 16 (80.0/s)"), "{view}");
        assert!(view.contains("cache hit 20.0%"), "{view}");
        assert!(view.contains("warm 2"), "{view}");
        // p50 in bucket 24 (upper bound 16777215 ns ≈ 16.8ms), p99 bucket 25.
        assert!(view.contains("eval latency p50 16.8ms"), "{view}");
        assert!(view.contains("p99 33.6ms"), "{view}");
        assert!(
            view.contains("workers 1/2 busy · queue 5 · steals 7 · restarts 0"),
            "{view}"
        );
        assert!(view.contains("sim 8.0M cycles/s · memo hits 12"), "{view}");
        assert!(view.contains("quarantined 1"), "{view}");

        // run-end flips the finished flag.
        s.push_line(r#"{"type":"run-end","ts":9,"command":"specialize","dur_ns":5}"#);
        assert!(s.finished());
        assert!(s.render().contains("finished"));
    }

    #[test]
    fn tolerates_torn_and_unknown_lines() {
        let mut s = LiveStatus::new();
        feed(
            &mut s,
            &[
                r#"{"type":"run-start","ts":1,"command":"x"}"#,
                r#"{"type":"generation","ts":2,"gen":0,"subset":[],"evals":1,"#, // torn
                "garbage",
                r#"{"type":"from-the-future","ts":3,"novel":true}"#,
                r#"{"no_type":1}"#,
            ],
        );
        // Only the parseable typed lines counted (unknown types are digested
        // as no-ops — forward compatibility); render stays sane.
        assert_eq!(s.events(), 2);
        let view = s.render();
        assert!(view.contains("metaopt top · x"), "{view}");
        assert!(view.contains("evals 0 (0.0/s)"), "{view}");
    }

    #[test]
    fn renders_without_snapshots() {
        let mut s = LiveStatus::new();
        s.push_line(r#"{"type":"retry","ts":1,"gen":0,"genome":"g","case":0,"attempt":1,"kind":"timeout","backoff_ns":5}"#);
        let view = s.render();
        assert!(view.contains("retries 1"), "{view}");
        assert!(view.contains("no metrics-snapshot events yet"), "{view}");
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
