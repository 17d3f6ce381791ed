//! Generation-granular checkpoint/resume for evolution runs.
//!
//! After each generation's breeding step the engine can serialize its
//! complete search state — population, RNG state, DSS weights, telemetry
//! log, evaluation counters, and the quarantine ledger — to a checkpoint
//! file. A run killed mid-search resumes from its last checkpoint and, with
//! the same parameters and a deterministic evaluator, produces *bit-identical*
//! results to an uninterrupted run: the RNG stream is restored exactly
//! (xoshiro state snapshot) and every float crosses the file boundary as its
//! IEEE-754 bit pattern, never as a rounded decimal.
//!
//! The file is one JSON document, written and read through
//! [`metaopt_trace::json`] (the serializer behind every trace), so any JSON
//! tool can read it. `bits` below is an `f64`'s bit pattern as an unsigned
//! integer, which keeps NaN, −0.0 and ∞ exact:
//!
//! ```text
//! {"format": "metaopt-checkpoint v4", "fingerprint": "<params fingerprint>",
//!  "next_generation": g, "rng": [w0, w1, w2, w3],
//!  "evaluations": n, "successes": n, "failures": n, "memo_entries": n,
//!  "population": ["<genome s-expression>", …],
//!  "plans": ["<pipeline plan>", …] | null,
//!  "dss": {"subset_size": k, "difficulty": [bits, …], "age": [bits, …]} | null,
//!  "log": [{"generation": g, "best_fitness": bits, "mean_fitness": bits,
//!           "best_size": n, "subset": [case, …]}, …],
//!  "quarantine": [{"genome": "…", "case": c, "kind": "<error kind>",
//!                  "injected": false, "message": "…"}, …]}
//! ```
//!
//! The fingerprint captures every [`GpParams`] field that shapes the random
//! stream or the selection pressure, plus the caller-supplied evaluator
//! configuration tag (the compiler's pipeline plan — a checkpoint written
//! under one pass pipeline must not be resumed under another).
//! `generations` and `threads` are deliberately excluded: resuming with a
//! larger `generations` *extends* the run (exactly what "resume after kill"
//! needs), and the thread count never affects results (fitness is memoized
//! per genome and the partitioning is deterministic).

use crate::engine::{GenLog, GpParams};
use crate::eval::{EvalError, EvalErrorKind, QuarantineRecord};
use metaopt_trace::json::{self, Value};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Checkpoint format version written by this build.
///
/// v2: the fingerprint gained the evaluator-configuration tag (the
/// compiler's pipeline plan), so v1 checkpoints — which cannot prove which
/// pipeline produced their fitness values — are no longer resumable.
///
/// v3: co-evolution serializes a per-genome pipeline-plan section after
/// the population block.
///
/// v4: the file is one JSON document in place of v1–v3's line grammar.
/// Cross-version resume is rejected with a version-aware error instead of
/// a parse failure deep inside the file.
pub const CHECKPOINT_VERSION: u32 = 4;

/// Serialized DSS (dynamic subset selection) state.
#[derive(Clone, Debug, PartialEq)]
pub struct DssState {
    /// Configured subset size.
    pub subset_size: usize,
    /// Per-case difficulty weights.
    pub difficulty: Vec<f64>,
    /// Per-case age counters.
    pub age: Vec<f64>,
}

/// A complete, resumable snapshot of an evolution run at a generation
/// boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Parameter fingerprint (see [`fingerprint`]); resume refuses a
    /// checkpoint whose fingerprint disagrees with the configured params.
    pub fingerprint: String,
    /// The generation the resumed run will execute next.
    pub next_generation: usize,
    /// Raw xoshiro256++ state at the moment of the snapshot.
    pub rng_state: [u64; 4],
    /// Population genomes in canonical re-parseable form.
    pub population: Vec<String>,
    /// Per-genome pipeline plans (canonical textual form, parallel to
    /// `population`) for co-evolved runs; `None` for scalar single-plan
    /// runs, which keep their plan in the fingerprint's config tag.
    pub plans: Option<Vec<String>>,
    /// DSS state, when the run uses dynamic subset selection.
    pub dss: Option<DssState>,
    /// Per-generation telemetry accumulated so far.
    pub log: Vec<GenLog>,
    /// Uncached fitness evaluations performed so far.
    pub evaluations: u64,
    /// Successful uncached evaluations.
    pub successes: u64,
    /// Failed (quarantined) uncached evaluations.
    pub failures: u64,
    /// The quarantine ledger so far.
    pub quarantined: Vec<QuarantineRecord>,
    /// Memo-cache summary: number of distinct `(genome, case)` entries at
    /// snapshot time (the cache itself is *not* persisted — deterministic
    /// evaluators recompute identical values on resume).
    pub memo_entries: u64,
}

/// Failure while saving, loading, or validating a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file is not a well-formed checkpoint.
    Parse {
        /// 1-based line number (0 when the location is not line-specific).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The checkpoint's parameters disagree with the configured run.
    Mismatch {
        /// Fingerprint of the configured parameters.
        expected: String,
        /// Fingerprint recorded in the checkpoint.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse { line: 0, message } => {
                write!(f, "checkpoint parse error: {message}")
            }
            CheckpointError::Parse { line, message } => {
                write!(f, "checkpoint parse error at line {line}: {message}")
            }
            CheckpointError::Mismatch { expected, found } => write!(
                f,
                "checkpoint was written by a run with different parameters: \
                 expected [{expected}], checkpoint has [{found}]"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Canonical fingerprint of every [`GpParams`] field that must match for a
/// resume to reproduce the uninterrupted run, plus the caller's
/// `config_tag` describing the evaluator configuration (the experiment
/// drivers pass the compiler's pipeline plan, so a checkpoint cannot be
/// resumed under a different pass pipeline). `generations` is excluded so
/// a resumed run can extend the search; `threads` is excluded because it
/// never affects results.
pub fn fingerprint(p: &GpParams, config_tag: &str) -> String {
    format!(
        "pop={} replace={:016x} mut={:016x} tour={} depth={} init={}-{} kind={:?} seed={} \
         eps={:016x} subset={} elitism={} retries={} config={config_tag}",
        p.population,
        p.replace_frac.to_bits(),
        p.mutation_rate.to_bits(),
        p.tournament,
        p.max_depth,
        p.init_depth.0,
        p.init_depth.1,
        p.kind,
        p.seed,
        p.fitness_epsilon.to_bits(),
        p.subset_size.map_or("none".to_string(), |s| s.to_string()),
        p.elitism,
        p.retries,
    )
}

/// A [`CheckpointError::Parse`] about the whole document, not one line.
pub(crate) fn bad(message: String) -> CheckpointError {
    CheckpointError::Parse { line: 0, message }
}

fn format_tag() -> String {
    format!("metaopt-checkpoint v{CHECKPOINT_VERSION}")
}

/// For a `metaopt-checkpoint vN` header naming another version, an error
/// message that names both, so users know to restart rather than suspect
/// corruption.
fn unsupported(header: &str) -> Option<String> {
    let found: u32 = header.strip_prefix("metaopt-checkpoint v")?.parse().ok()?;
    (found != CHECKPOINT_VERSION).then(|| {
        format!(
            "unsupported checkpoint version v{found}: this build reads v{CHECKPOINT_VERSION} \
             (one JSON document since v4); restart the run from scratch"
        )
    })
}

fn as_usize(v: &Value) -> Option<usize> {
    v.as_u64().and_then(|n| usize::try_from(n).ok())
}

fn as_bits(v: &Value) -> Option<f64> {
    v.as_u64().map(f64::from_bits)
}

fn as_string(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

/// `v` as a list whose every item `item` converts.
fn list<'v, T>(v: &'v Value, item: impl Fn(&'v Value) -> Option<T>) -> Option<Vec<T>> {
    v.as_arr()?.iter().map(item).collect()
}

/// One object of a checkpoint document and its path there, so that every
/// error names the field it is about.
struct Fields<'a>(&'a Value, String);

impl<'a> Fields<'a> {
    /// The field under `key` converted by `read`; `what` names the type
    /// `read` accepts.
    fn read<T>(
        &self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, CheckpointError> {
        let Fields(obj, path) = self;
        let v = obj
            .get(key)
            .ok_or_else(|| bad(format!("missing field `{path}{key}`")))?;
        read(v).ok_or_else(|| bad(format!("field `{path}{key}` is not {what}")))
    }

    fn u64(&self, key: &str) -> Result<u64, CheckpointError> {
        self.read(key, "an unsigned integer", Value::as_u64)
    }

    fn usize(&self, key: &str) -> Result<usize, CheckpointError> {
        self.read(key, "an unsigned integer", as_usize)
    }

    fn bits(&self, key: &str) -> Result<f64, CheckpointError> {
        self.read(key, "an f64 bit pattern", as_bits)
    }

    fn string(&self, key: &str) -> Result<String, CheckpointError> {
        self.read(key, "a string", as_string)
    }

    /// The list of objects under `key`, each read by `read` at its own
    /// path.
    fn objects<T>(
        &self,
        key: &str,
        read: impl Fn(&Fields<'a>) -> Result<T, CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let objects = self.read(key, "a list of objects", |v| {
            list(v, |o| o.as_obj().map(|_| o))
        })?;
        let path = &self.1;
        objects
            .into_iter()
            .enumerate()
            .map(|(i, o)| read(&Fields(o, format!("{path}{key}[{i}]."))))
            .collect()
    }
}

impl Checkpoint {
    /// Refuse to resume under parameters that disagree with the ones that
    /// wrote this checkpoint.
    pub fn validate(&self, expected_fingerprint: &str) -> Result<(), CheckpointError> {
        if self.fingerprint != expected_fingerprint {
            return Err(CheckpointError::Mismatch {
                expected: expected_fingerprint.to_string(),
                found: self.fingerprint.clone(),
            });
        }
        Ok(())
    }

    /// Serialize to the versioned JSON document, one line long.
    pub fn to_text(&self) -> String {
        let uint = |n: usize| Value::UInt(n as u64);
        let bits = |x: f64| Value::UInt(x.to_bits());
        let strings = |v: &[String]| Value::Arr(v.iter().map(Value::str).collect());
        let floats = |v: &[f64]| Value::Arr(v.iter().map(|&x| bits(x)).collect());
        let dss = self.dss.as_ref().map_or(Value::Null, |d| {
            Value::obj([
                ("subset_size", uint(d.subset_size)),
                ("difficulty", floats(&d.difficulty)),
                ("age", floats(&d.age)),
            ])
        });
        let log = self.log.iter().map(|l| {
            Value::obj([
                ("generation", uint(l.generation)),
                ("best_fitness", bits(l.best_fitness)),
                ("mean_fitness", bits(l.mean_fitness)),
                ("best_size", uint(l.best_size)),
                (
                    "subset",
                    Value::Arr(l.subset.iter().map(|&c| uint(c)).collect()),
                ),
            ])
        });
        let quarantine = self.quarantined.iter().map(|q| {
            Value::obj([
                ("genome", Value::str(&q.genome)),
                ("case", uint(q.case)),
                ("kind", Value::str(q.error.kind.label())),
                ("injected", Value::Bool(q.error.injected)),
                ("message", Value::str(&q.error.message)),
            ])
        });
        let doc = Value::obj([
            ("format", Value::str(format_tag())),
            ("fingerprint", Value::str(&self.fingerprint)),
            ("next_generation", uint(self.next_generation)),
            ("rng", Value::Arr(self.rng_state.map(Value::UInt).to_vec())),
            ("evaluations", Value::UInt(self.evaluations)),
            ("successes", Value::UInt(self.successes)),
            ("failures", Value::UInt(self.failures)),
            ("memo_entries", Value::UInt(self.memo_entries)),
            ("population", strings(&self.population)),
            ("plans", self.plans.as_deref().map_or(Value::Null, strings)),
            ("dss", dss),
            ("log", Value::Arr(log.collect())),
            ("quarantine", Value::Arr(quarantine.collect())),
        ]);
        format!("{doc}\n")
    }

    /// Parse the document produced by [`Checkpoint::to_text`]. Every error
    /// names the field it is in; a file of another format version gets an
    /// error that names both versions.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let doc = json::parse(text).map_err(|e| {
            // v1–v3 files open with a text header line.
            match unsupported(text.lines().next().unwrap_or("")) {
                Some(message) => CheckpointError::Parse { line: 1, message },
                None => bad(format!("not a JSON checkpoint: {e}")),
            }
        })?;
        let top = Fields(&doc, String::new());
        let format = top.string("format")?;
        if format != format_tag() {
            return Err(bad(unsupported(&format).unwrap_or_else(|| {
                format!("field `format` is {format:?}, expected {:?}", format_tag())
            })));
        }

        let strings = |v| list(v, as_string);
        let population = top.read("population", "a list of strings", strings)?;
        let plans = top.read("plans", "null or a list of strings", |v| match v {
            Value::Null => Some(None),
            _ => strings(v).map(Some),
        })?;
        if let Some(plans) = plans.as_ref().filter(|p| p.len() != population.len()) {
            return Err(bad(format!(
                "field `plans` has {} entries for {} genomes",
                plans.len(),
                population.len()
            )));
        }
        let dss = match top.read("dss", "null or an object", |v| {
            (*v == Value::Null || v.as_obj().is_some()).then_some(v)
        })? {
            Value::Null => None,
            obj => {
                let d = Fields(obj, "dss.".to_string());
                let floats = |v| list(v, as_bits);
                Some(DssState {
                    subset_size: d.usize("subset_size")?,
                    difficulty: d.read("difficulty", "a list of f64 bit patterns", floats)?,
                    age: d.read("age", "a list of f64 bit patterns", floats)?,
                })
            }
        };
        let log = top.objects("log", |l| {
            Ok(GenLog {
                generation: l.usize("generation")?,
                best_fitness: l.bits("best_fitness")?,
                mean_fitness: l.bits("mean_fitness")?,
                best_size: l.usize("best_size")?,
                subset: l.read("subset", "a list of unsigned integers", |v| {
                    list(v, as_usize)
                })?,
            })
        })?;
        let quarantined = top.objects("quarantine", |q| {
            Ok(QuarantineRecord {
                genome: q.string("genome")?,
                case: q.usize("case")?,
                error: EvalError {
                    kind: q.read("kind", "an error kind", |v| {
                        v.as_str().and_then(EvalErrorKind::from_label)
                    })?,
                    message: q.string("message")?,
                    injected: q.read("injected", "a boolean", |v| match v {
                        Value::Bool(b) => Some(*b),
                        _ => None,
                    })?,
                },
            })
        })?;

        Ok(Checkpoint {
            fingerprint: top.string("fingerprint")?,
            next_generation: top.usize("next_generation")?,
            rng_state: top.read("rng", "a list of 4 unsigned integers", |v| {
                list(v, Value::as_u64)?.try_into().ok()
            })?,
            population,
            plans,
            dss,
            log,
            evaluations: top.u64("evaluations")?,
            successes: top.u64("successes")?,
            failures: top.u64("failures")?,
            quarantined,
            memo_entries: top.u64("memo_entries")?,
        })
    }

    /// Atomically write the checkpoint to `path` (write to a sibling
    /// temporary file, then rename): a run killed mid-write leaves either
    /// the previous complete checkpoint or the new one, never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_text())?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load and parse a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = fs::read_to_string(path)?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: fingerprint(&GpParams::quick(), "prefetch,hyperblock,regalloc,schedule"),
            next_generation: 3,
            rng_state: [1, u64::MAX, 0xDEAD_BEEF, 42],
            population: vec!["(add r0 1.5)".to_string(), "(mul r1 r0)".to_string()],
            plans: None,
            dss: Some(DssState {
                subset_size: 2,
                difficulty: vec![1.0, f64::NAN, 0.3333333333333333],
                age: vec![2.0, 1.0, 4.0],
            }),
            log: vec![GenLog {
                generation: 0,
                best_fitness: 1.25,
                mean_fitness: 0.875,
                best_size: 7,
                subset: vec![0, 2],
            }],
            evaluations: 10,
            successes: 8,
            failures: 2,
            quarantined: vec![QuarantineRecord {
                genome: "(div r0 0.0)".to_string(),
                case: 1,
                error: EvalError::new(EvalErrorKind::Budget, "instruction limit of 9 exceeded"),
            }],
            memo_entries: 9,
        }
    }

    /// `sample()`'s text with `from` replaced by `to` (which must occur).
    fn edited(from: &str, to: &str) -> String {
        let text = sample().to_text();
        assert!(text.contains(from), "{from} not in {text}");
        text.replacen(from, to, 1)
    }

    #[test]
    fn text_round_trip_is_exact() {
        let ck = sample();
        let parsed = Checkpoint::parse(&ck.to_text()).unwrap();
        // NaN breaks PartialEq; compare through bit patterns.
        assert_eq!(parsed.to_text(), ck.to_text());
        assert_eq!(parsed.rng_state, ck.rng_state);
        assert_eq!(parsed.population, ck.population);
        assert_eq!(parsed.quarantined, ck.quarantined);
        let (a, b) = (parsed.dss.unwrap(), ck.dss.unwrap());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.difficulty), bits(&b.difficulty));
        assert_eq!(bits(&a.age), bits(&b.age));
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("metaopt-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.txt");
        let ck = sample();
        ck.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.to_text(), ck.to_text());
        // Saving again over an existing file must succeed (rename overwrite).
        ck.save(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_and_corrupt_files_error_cleanly() {
        let text = sample().to_text();
        for cut in [0, 1, 10, text.len() / 2, text.len() - 2] {
            let truncated = &text[..cut.min(text.len())];
            assert!(Checkpoint::parse(truncated).is_err(), "cut at {cut}");
        }
        assert!(Checkpoint::parse(&edited("\"rng\"", "\"rgn\"")).is_err());
        assert!(
            Checkpoint::parse(&edited("\"evaluations\":10", "\"evaluations\":\"ten\"")).is_err()
        );
    }

    #[test]
    fn malformed_fields_are_named_in_the_error() {
        for (from, to, field) in [
            ("\"memo_entries\":9", "\"memo_entry\":9", "`memo_entries`"),
            (
                "\"next_generation\":3",
                "\"next_generation\":\"3\"",
                "`next_generation`",
            ),
            (
                "\"next_generation\":3",
                "\"next_generation\":-3",
                "`next_generation`",
            ),
            (
                "\"successes\":8",
                "\"successes\":18446744073709551616",
                "`successes`",
            ),
            (
                "\"plans\":null",
                "\"plans\":[\"regalloc,schedule\"]",
                "`plans`",
            ),
            ("\"rng\":[1,", "\"rng\":[", "`rng`"),
            ("\"rng\":[1,", "\"rng\":[0,1,", "`rng`"),
            ("\"best_size\":7", "\"best_size\":7.5", "`log[0].best_size`"),
            ("\"subset\":[0,2]", "\"subset\":[0,null]", "`log[0].subset`"),
            (
                "\"subset_size\":2",
                "\"subset_size\":-2",
                "`dss.subset_size`",
            ),
            (
                "\"kind\":\"budget\"",
                "\"kind\":\"gremlin\"",
                "`quarantine[0].kind`",
            ),
            (
                "\"injected\":false",
                "\"injected\":0",
                "`quarantine[0].injected`",
            ),
            ("\"case\":1", "\"case\":{}", "`quarantine[0].case`"),
        ] {
            match Checkpoint::parse(&edited(from, to)) {
                Err(CheckpointError::Parse { message, .. }) => {
                    assert!(message.contains(field), "{to}: {message}")
                }
                other => panic!("{to}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn quarantine_records_round_trip_hostile_strings() {
        let mut ck = sample();
        ck.quarantined = vec![QuarantineRecord {
            genome: "(add r0 1.0)\"\\".to_string(),
            case: 7,
            error: EvalError::injected(
                EvalErrorKind::WrongAnswer,
                "diverged\ton unepic\nexpected 3 \\ got 4\r\u{1}\u{1f} é ✓",
            ),
        }];
        let text = ck.to_text();
        assert_eq!(text.lines().count(), 1);
        assert_eq!(
            Checkpoint::parse(&text).unwrap().quarantined,
            ck.quarantined
        );
    }

    #[test]
    fn mismatched_fingerprint_is_refused() {
        let ck = sample();
        let plan = "prefetch,hyperblock,regalloc,schedule";
        let mut other = GpParams::quick();
        other.seed ^= 1;
        let err = ck.validate(&fingerprint(&other, plan)).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
        ck.validate(&fingerprint(&GpParams::quick(), plan)).unwrap();
    }

    #[test]
    fn fingerprint_ignores_generations_and_threads() {
        let a = GpParams::quick();
        let mut b = a.clone();
        b.generations += 17;
        b.threads = 1;
        assert_eq!(fingerprint(&a, ""), fingerprint(&b, ""));
        let mut c = a.clone();
        c.population += 1;
        assert_ne!(fingerprint(&a, ""), fingerprint(&c, ""));
    }

    #[test]
    fn fingerprint_binds_the_pipeline_plan() {
        // A checkpoint written under one pipeline plan must not resume
        // under another: the fitness landscape is plan-dependent.
        let p = GpParams::quick();
        let ck = sample();
        ck.validate(&fingerprint(&p, "prefetch,hyperblock,regalloc,schedule"))
            .unwrap();
        let err = ck
            .validate(&fingerprint(
                &p,
                "unroll(2),prefetch,hyperblock,regalloc,schedule",
            ))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        let err = ck
            .validate(&fingerprint(&p, "regalloc,schedule"))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn plan_genomes_round_trip() {
        let mut ck = sample();
        ck.plans = Some(vec![
            "regalloc,schedule".to_string(),
            "unroll(4),hyperblock,regalloc,schedule".to_string(),
        ]);
        let parsed = Checkpoint::parse(&ck.to_text()).unwrap();
        assert_eq!(parsed.plans, ck.plans);
        assert_eq!(parsed.to_text(), ck.to_text());
    }

    #[test]
    fn plan_count_must_match_the_population() {
        let mut ck = sample();
        ck.plans = Some(vec!["regalloc,schedule".to_string()]); // population is 2
        let err = Checkpoint::parse(&ck.to_text()).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse { .. }), "{err}");
    }

    #[test]
    fn earlier_version_checkpoints_are_rejected_with_a_version_error() {
        // A v1–v3 file (a text header line, then one field per line) must
        // be refused with a message that names both versions — a clean
        // rejection, not a JSON syntax error about its first byte.
        for old_version in ["v1", "v2", "v3"] {
            let old =
                format!("metaopt-checkpoint {old_version}\nfingerprint pop=8\nnext-generation 3\n");
            let err = Checkpoint::parse(&old).unwrap_err();
            match &err {
                CheckpointError::Parse { line: 1, message } => {
                    assert!(
                        message.contains(&format!("unsupported checkpoint version {old_version}"))
                            && message.contains("v4"),
                        "unhelpful message: {message}"
                    );
                }
                other => panic!("expected a line-1 parse error, got {other:?}"),
            }
        }
        // A JSON document that names another version is refused the same way.
        let err = Checkpoint::parse(&edited("checkpoint v4", "checkpoint v5")).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported checkpoint version v5"),
            "{err}"
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/metaopt/ck.txt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
