//! The trace digest is an input boundary: `metaopt trace-report` and
//! `metaopt top` fold whatever a trace file holds, and `/metrics` renders
//! the same digest. On any text, on real trace lines with fields mutated,
//! and on schema-valid traces whose numbers sit at the edge of `u64`,
//! folding, validating and every rendering of the digest must finish
//! without a panic, and sums saturate rather than wrap.

use metaopt_trace::json::{self, Value};
use metaopt_trace::report::{analyze, Report};
use metaopt_trace::{live, metrics};
use proptest::prelude::*;

/// One line of each event type, taken from real traces (a validated,
/// checkpointed scalar run and a co-evolved run), plus the reliability
/// events and a metrics snapshot without the `runtime` dump older traces
/// carry.
#[rustfmt::skip]
const REAL: &[&str] = &[
    r#"{"type":"trace-header","ts":394,"schema":"run-trace.v1","producer":"metaopt"}"#,
    r#"{"type":"run-start","ts":20734,"command":"specialize hyperblock codrle4"}"#,
    r#"{"type":"evolution-start","ts":8203511,"population":4,"generations":2,"start_gen":0,"threads":1,"resumed":false}"#,
    r#"{"type":"validate","ts":9298595,"pass":"hyperblock","level":"full","ok":true,"findings":0,"wall_ns":997576,"bench":"codrle4"}"#,
    r#"{"type":"pass","ts":9306105,"pass":"hyperblock","wall_ns":41732,"delta":{"hyperblocks":2,"paths_merged":4},"bench":"codrle4"}"#,
    r#"{"type":"sim","ts":12948908,"cycles":431070,"insts":413401,"dur_ns":2782932,"tier":"fast","bench":"codrle4"}"#,
    r#"{"type":"eval","ts":12961990,"gen":0,"genome":"(mul r2 (rconst 0.25))","case":0,"outcome":"score","score":1,"dur_ns":4714277}"#,
    r#"{"type":"eval","ts":12961999,"gen":0,"genome":"(sqrt r10)","case":1,"outcome":"budget","dur_ns":514277,"warm":true}"#,
    r#"{"type":"generation","ts":26359834,"gen":0,"subset":[0],"evals":4,"cache_hits":0,"best_fitness":1.0055822915621786,"mean_fitness":1.0016004029838421,"best_size":2,"dur_ns":18145412}"#,
    r#"{"type":"metrics-snapshot","ts":26375710,"seq":0,"gen":0,"counters":{"evaluations":4,"successes":4,"failures":0,"cache_hits":0,"warm_hits":0,"quarantined":0},"runtime":{"metaopt_eval_latency_ns":{"count":4,"sum":18056939,"buckets":[[22,1],[23,3]]},"metaopt_sim_total":3}}"#,
    r#"{"type":"metrics-snapshot","ts":26375711,"seq":1,"gen":1,"counters":{"evaluations":5,"successes":5,"failures":0,"cache_hits":3,"warm_hits":0,"quarantined":0}}"#,
    r#"{"type":"checkpoint","ts":26504495,"gen":1,"dur_ns":104471}"#,
    r#"{"type":"retry","ts":26504496,"gen":0,"genome":"(g0-0)","case":0,"attempt":0,"kind":"timeout","backoff_ns":65536}"#,
    r#"{"type":"timeout","ts":26504497,"genome":"(g0-1)","case":1,"wall_ns":5000000}"#,
    r#"{"type":"worker-restart","ts":26504498,"worker":1,"restarts":1,"reason":"worker thread died"}"#,
    r#"{"type":"cache-recovered","ts":26504499,"mode":"recovered","entries":4,"dropped_bytes":12}"#,
    r#"{"type":"pareto-front","ts":15359526,"gen":0,"size":2,"hypervolume":53048,"points":[{"plan":"hyperblock,regalloc,schedule","expr":"(sqrt (rconst 0.4312531046426826))","objectives":[428677,166,498]},{"plan":"regalloc,schedule","expr":"(rconst 0.25)","objectives":[436210,172,344]}]}"#,
    r#"{"type":"evolution-end","ts":28451045,"evaluations":5,"successes":5,"failures":0,"quarantined":0,"best_fitness":1.0055822915621786,"best":"(rconst 0.43643500619128867)","dur_ns":20247570}"#,
    r#"{"type":"run-end","ts":37353372,"command":"specialize hyperblock codrle4","dur_ns":37332386}"#,
];

/// Every rendering of a digest: the `trace-report` text and bench digest,
/// the `top` frame and the `/metrics` exposition.
fn render_all(report: &Report) {
    let _ = report.render();
    let digest = report.bench_json();
    assert!(json::parse(&digest).is_ok(), "bench digest {digest:?}");
    let _ = live::render(report);
    let _ = metrics::render(report);
}

/// Fold `text` line by line as `top` does and strictly as `trace-report`
/// does, and render whatever comes out.
fn digest_is_total(text: &str) {
    let mut fed = Report::default();
    for line in text.lines() {
        fed.push_line(line);
    }
    render_all(&fed);
    if let Ok(whole) = analyze(text) {
        render_all(&whole);
    }
}

/// Text made of real lines, their pieces, JSON fragments and numbers at
/// the edge of `u64`, joined by newlines or not.
fn arb_text() -> impl Strategy<Value = String> {
    #[rustfmt::skip]
    const FRAGMENTS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", "\"", "\n", "\"type\":", "\"eval\"", "\"sim\"",
        "\"generation\"", "\"pass\"", "\"dur_ns\":", "\"cycles\":", "\"wall_ns\":",
        "18446744073709551615", "18446744073709551614", "1e999", "-1", "null", "é",
    ];
    let piece = prop_oneof![
        (0..REAL.len(), any::<usize>(), any::<usize>()).prop_map(|(i, a, b)| {
            let line = REAL[i];
            let (a, b) = (a % (line.len() + 1), b % (line.len() + 1));
            line.get(a.min(b)..a.max(b)).unwrap_or(line).to_string()
        }),
        (0..REAL.len()).prop_map(|i| format!("{}\n", REAL[i])),
        (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000)
            .unwrap_or('\u{fffd}')
            .to_string()),
    ];
    proptest::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
}

/// A JSON value to put in place of a field.
fn arb_field() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::UInt),
        arb_edge().prop_map(Value::UInt),
        any::<f64>().prop_map(Value::Num),
        prop_oneof![
            Just("score"),
            Just("budget"),
            Just("schedule"),
            Just("recovered"),
            Just(""),
        ]
        .prop_map(Value::str),
        proptest::collection::vec(arb_edge().prop_map(Value::UInt), 0..4).prop_map(Value::Arr),
        Just(Value::Obj(vec![])),
    ]
}

/// A `u64` at or near the top of its range.
fn arb_edge() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(u64::MAX),
        (0..1024u32).prop_map(|k| u64::MAX - u64::from(k)),
        (0..1024u32).prop_map(|k| u64::MAX / 2 + u64::from(k)),
        (0..1024u32).prop_map(|k| (1 << 63) - u64::from(k)),
    ]
}

/// `line` with field `field` (modulo the field count) replaced by
/// `value`, removed, or joined by a duplicate key.
fn mutate(line: &str, field: usize, action: u8, value: Value) -> String {
    let Ok(Value::Obj(mut fields)) = json::parse(line) else {
        return line.to_string();
    };
    let k = field % fields.len();
    match action % 3 {
        0 => fields[k].1 = value,
        1 => {
            fields.remove(k);
        }
        _ => {
            let key = fields[k].0.clone();
            fields.insert(k, (key, value));
        }
    }
    Value::Obj(fields).to_string()
}

/// `v` with every unsigned integer in it replaced by the next of `edges`
/// (cycling), so a schema-valid line stays schema-valid. A pareto front's
/// `size` must count its points and a `runtime` dump's bucket indices stay
/// below 65, so those keep their values.
fn at_the_edge(v: &mut Value, edges: &[u64], next: &mut usize) {
    match v {
        Value::UInt(n) => {
            *n = edges[*next % edges.len()];
            *next += 1;
        }
        Value::Arr(items) => items
            .iter_mut()
            .for_each(|item| at_the_edge(item, edges, next)),
        Value::Obj(fields) => fields
            .iter_mut()
            .filter(|(key, _)| key != "size" && key != "runtime")
            .for_each(|(_, item)| at_the_edge(item, edges, next)),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_digests_without_panic(text in arb_text()) {
        digest_is_total(&text);
    }

    #[test]
    fn real_lines_with_mutated_fields_digest_without_panic(
        picks in proptest::collection::vec(
            (0..REAL.len(), any::<usize>(), any::<u8>(), arb_field()),
            1..24,
        ),
    ) {
        let text: Vec<String> = picks
            .into_iter()
            .map(|(i, field, action, value)| mutate(REAL[i], field, action, value))
            .collect();
        digest_is_total(&text.join("\n"));
    }

    #[test]
    fn numbers_at_the_edge_of_u64_digest_without_panic(
        lines in proptest::collection::vec(1..REAL.len(), 1..40),
        edges in proptest::collection::vec(arb_edge(), 1..8),
    ) {
        // The header first, as the schema demands; then every counter,
        // duration and cycle count of each line at the edge.
        let mut text = vec![REAL[0].to_string()];
        let mut next = 0;
        for i in lines {
            let mut v = json::parse(REAL[i]).unwrap();
            at_the_edge(&mut v, &edges, &mut next);
            text.push(v.to_string());
        }
        let text = text.join("\n");
        let whole = analyze(&text).unwrap();
        render_all(&whole);
        digest_is_total(&text);
    }
}

/// A schema-valid trace of two simulations and two evaluations whose
/// cycles and durations are `u64::MAX`: the digest once wrapped its sums
/// (and panicked in a debug build); they now saturate.
#[test]
fn sums_past_u64_saturate() {
    let max = u64::MAX;
    let text = [
        REAL[0].to_string(),
        format!(r#"{{"type":"sim","ts":1,"cycles":{max},"insts":1,"dur_ns":{max}}}"#),
        format!(r#"{{"type":"sim","ts":2,"cycles":{max},"insts":1,"dur_ns":{max}}}"#),
        format!(
            r#"{{"type":"eval","ts":3,"gen":0,"genome":"g","case":0,"outcome":"score","score":1,"dur_ns":{max}}}"#
        ),
        format!(
            r#"{{"type":"eval","ts":4,"gen":0,"genome":"g","case":1,"outcome":"score","score":1,"dur_ns":{max}}}"#
        ),
    ]
    .join("\n");
    let r = analyze(&text).unwrap();
    assert_eq!((r.sims, r.sim_ns), ((2, max), max));
    assert_eq!(r.eval_ns, vec![max, max]);
    let digest = json::parse(&r.bench_json()).unwrap();
    assert_eq!(digest.get("sim_cycles").and_then(Value::as_u64), Some(max));
    let exposition = metrics::render(&r);
    for sample in [
        format!("metaopt_sim_cycles_total {max}\n"),
        format!("metaopt_sim_wall_ns_total {max}\n"),
        format!("metaopt_eval_latency_ns_sum {max}\n"),
    ] {
        assert!(exposition.contains(&sample), "{exposition}");
    }
    render_all(&r);
    digest_is_total(&text);
}
