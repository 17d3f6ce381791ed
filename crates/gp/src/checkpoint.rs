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
//! The format is a versioned, line-oriented text file (no external
//! serialization dependency is available in this build environment):
//!
//! ```text
//! metaopt-checkpoint v3
//! fingerprint <escaped params fingerprint>
//! next-generation <g>
//! rng <hex> <hex> <hex> <hex>
//! counters <evaluations> <successes> <failures>
//! memo-entries <n>
//! population <n>
//! <genome s-expression> × n
//! plans <n> | plans none
//! <escaped pipeline plan> × n
//! dss <subset_size> <n> | dss none
//! <difficulty f64-bits hex, space-separated>
//! <age f64-bits hex, space-separated>
//! log <n>
//! gen <idx> <best-bits> <mean-bits> <best-size> <subset csv>  × n
//! quarantine <n>
//! <ledger line> × n
//! end
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
use crate::eval::{escape, unescape, QuarantineRecord};
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
/// v3: co-evolution serializes a per-genome pipeline-plan section
/// (`plans <n>` / `plans none`) after the population block. Earlier
/// versions cannot represent a co-evolved population, so cross-version
/// resume is rejected with a version-aware error instead of a parse
/// failure deep inside the file.
pub const CHECKPOINT_VERSION: u32 = 3;

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

fn fmt_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_bits(s: &str, line: usize) -> Result<f64, CheckpointError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointError::Parse {
            line,
            message: format!("bad f64 bit pattern {s:?}"),
        })
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, CheckpointError> {
    s.parse().map_err(|_| CheckpointError::Parse {
        line,
        message: format!("bad {what} {s:?}"),
    })
}

fn parse_usize(s: &str, line: usize, what: &str) -> Result<usize, CheckpointError> {
    s.parse().map_err(|_| CheckpointError::Parse {
        line,
        message: format!("bad {what} {s:?}"),
    })
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

    /// Serialize to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("metaopt-checkpoint v{CHECKPOINT_VERSION}\n"));
        out.push_str(&format!("fingerprint {}\n", escape(&self.fingerprint)));
        out.push_str(&format!("next-generation {}\n", self.next_generation));
        let [a, b, c, d] = self.rng_state;
        out.push_str(&format!("rng {a:016x} {b:016x} {c:016x} {d:016x}\n"));
        out.push_str(&format!(
            "counters {} {} {}\n",
            self.evaluations, self.successes, self.failures
        ));
        out.push_str(&format!("memo-entries {}\n", self.memo_entries));
        out.push_str(&format!("population {}\n", self.population.len()));
        for g in &self.population {
            out.push_str(&escape(g));
            out.push('\n');
        }
        match &self.plans {
            None => out.push_str("plans none\n"),
            Some(plans) => {
                out.push_str(&format!("plans {}\n", plans.len()));
                for p in plans {
                    out.push_str(&escape(p));
                    out.push('\n');
                }
            }
        }
        match &self.dss {
            None => out.push_str("dss none\n"),
            Some(st) => {
                out.push_str(&format!("dss {} {}\n", st.subset_size, st.difficulty.len()));
                let join = |v: &[f64]| v.iter().map(|&x| fmt_bits(x)).collect::<Vec<_>>().join(" ");
                out.push_str(&join(&st.difficulty));
                out.push('\n');
                out.push_str(&join(&st.age));
                out.push('\n');
            }
        }
        out.push_str(&format!("log {}\n", self.log.len()));
        for l in &self.log {
            let subset = l
                .subset
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "gen {} {} {} {} {}\n",
                l.generation,
                fmt_bits(l.best_fitness),
                fmt_bits(l.mean_fitness),
                l.best_size,
                if subset.is_empty() {
                    "-".to_string()
                } else {
                    subset
                },
            ));
        }
        out.push_str(&format!("quarantine {}\n", self.quarantined.len()));
        for q in &self.quarantined {
            out.push_str(&q.to_line());
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parse the text format produced by [`Checkpoint::to_text`].
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        let mut next = |what: &str| {
            lines.next().ok_or_else(|| CheckpointError::Parse {
                line: 0,
                message: format!("truncated checkpoint: missing {what}"),
            })
        };

        let (ln, header) = next("header")?;
        let expected = format!("metaopt-checkpoint v{CHECKPOINT_VERSION}");
        if header != expected {
            // Distinguish "a checkpoint from another format version" from
            // "not a checkpoint at all": the former gets a version-aware
            // message so users know to restart rather than suspect
            // corruption.
            let message = match header
                .strip_prefix("metaopt-checkpoint v")
                .and_then(|v| v.parse::<u32>().ok())
            {
                Some(found) => format!(
                    "unsupported checkpoint version v{found}: this build reads \
                     v{CHECKPOINT_VERSION} (the format changed when pipeline-plan \
                     genomes were added); restart the run from scratch"
                ),
                None => format!("bad header {header:?} (expected {expected:?})"),
            };
            return Err(CheckpointError::Parse { line: ln, message });
        }

        let (ln, l) = next("fingerprint")?;
        let fingerprint = l
            .strip_prefix("fingerprint ")
            .and_then(unescape)
            .ok_or_else(|| CheckpointError::Parse {
                line: ln,
                message: "expected `fingerprint <text>`".to_string(),
            })?;

        let (ln, l) = next("next-generation")?;
        let next_generation = l
            .strip_prefix("next-generation ")
            .ok_or_else(|| CheckpointError::Parse {
                line: ln,
                message: "expected `next-generation <n>`".to_string(),
            })
            .and_then(|s| parse_usize(s, ln, "generation"))?;

        let (ln, l) = next("rng")?;
        let words: Vec<&str> = l
            .strip_prefix("rng ")
            .map(|s| s.split_whitespace().collect())
            .unwrap_or_default();
        if words.len() != 4 {
            return Err(CheckpointError::Parse {
                line: ln,
                message: "expected `rng <4 hex words>`".to_string(),
            });
        }
        let mut rng_state = [0u64; 4];
        for (i, w) in words.iter().enumerate() {
            rng_state[i] = u64::from_str_radix(w, 16).map_err(|_| CheckpointError::Parse {
                line: ln,
                message: format!("bad rng word {w:?}"),
            })?;
        }

        let (ln, l) = next("counters")?;
        let words: Vec<&str> = l
            .strip_prefix("counters ")
            .map(|s| s.split_whitespace().collect())
            .unwrap_or_default();
        if words.len() != 3 {
            return Err(CheckpointError::Parse {
                line: ln,
                message: "expected `counters <evals> <successes> <failures>`".to_string(),
            });
        }
        let evaluations = parse_u64(words[0], ln, "evaluation count")?;
        let successes = parse_u64(words[1], ln, "success count")?;
        let failures = parse_u64(words[2], ln, "failure count")?;

        let (ln, l) = next("memo-entries")?;
        let memo_entries = l
            .strip_prefix("memo-entries ")
            .ok_or_else(|| CheckpointError::Parse {
                line: ln,
                message: "expected `memo-entries <n>`".to_string(),
            })
            .and_then(|s| parse_u64(s, ln, "memo entry count"))?;

        let (ln, l) = next("population")?;
        let npop = l
            .strip_prefix("population ")
            .ok_or_else(|| CheckpointError::Parse {
                line: ln,
                message: "expected `population <n>`".to_string(),
            })
            .and_then(|s| parse_usize(s, ln, "population size"))?;
        let mut population = Vec::new();
        for _ in 0..npop {
            let (ln, l) = next("population genome")?;
            population.push(unescape(l).ok_or_else(|| CheckpointError::Parse {
                line: ln,
                message: "bad escape in genome".to_string(),
            })?);
        }

        let (ln, l) = next("plans")?;
        let plans = if l == "plans none" {
            None
        } else {
            let nplans = l
                .strip_prefix("plans ")
                .ok_or_else(|| CheckpointError::Parse {
                    line: ln,
                    message: "expected `plans none` or `plans <n>`".to_string(),
                })
                .and_then(|s| parse_usize(s, ln, "plan count"))?;
            if nplans != npop {
                return Err(CheckpointError::Parse {
                    line: ln,
                    message: format!("{nplans} plans for {npop} genomes"),
                });
            }
            let mut plans = Vec::new();
            for _ in 0..nplans {
                let (ln, l) = next("plan")?;
                plans.push(unescape(l).ok_or_else(|| CheckpointError::Parse {
                    line: ln,
                    message: "bad escape in plan".to_string(),
                })?);
            }
            Some(plans)
        };

        let (ln, l) = next("dss")?;
        let dss = if l == "dss none" {
            None
        } else {
            let words: Vec<&str> = l
                .strip_prefix("dss ")
                .map(|s| s.split_whitespace().collect())
                .unwrap_or_default();
            if words.len() != 2 {
                return Err(CheckpointError::Parse {
                    line: ln,
                    message: "expected `dss none` or `dss <subset> <n>`".to_string(),
                });
            }
            let subset_size = parse_usize(words[0], ln, "subset size")?;
            let n = parse_usize(words[1], ln, "case count")?;
            let mut read_vec = |what: &str| -> Result<Vec<f64>, CheckpointError> {
                let (ln, l) = next(what)?;
                let v = l
                    .split_whitespace()
                    .map(|w| parse_bits(w, ln))
                    .collect::<Result<Vec<f64>, _>>()?;
                if v.len() != n {
                    return Err(CheckpointError::Parse {
                        line: ln,
                        message: format!("{what} has {} entries, expected {n}", v.len()),
                    });
                }
                Ok(v)
            };
            let difficulty = read_vec("dss difficulty")?;
            let age = read_vec("dss age")?;
            Some(DssState {
                subset_size,
                difficulty,
                age,
            })
        };

        let (ln, l) = next("log")?;
        let nlog = l
            .strip_prefix("log ")
            .ok_or_else(|| CheckpointError::Parse {
                line: ln,
                message: "expected `log <n>`".to_string(),
            })
            .and_then(|s| parse_usize(s, ln, "log length"))?;
        let mut log = Vec::new();
        for _ in 0..nlog {
            let (ln, l) = next("log entry")?;
            let words: Vec<&str> = l
                .strip_prefix("gen ")
                .map(|s| s.split_whitespace().collect())
                .unwrap_or_default();
            if words.len() != 5 {
                return Err(CheckpointError::Parse {
                    line: ln,
                    message: "expected `gen <idx> <best> <mean> <size> <subset>`".to_string(),
                });
            }
            let subset = if words[4] == "-" {
                Vec::new()
            } else {
                words[4]
                    .split(',')
                    .map(|w| parse_usize(w, ln, "subset case"))
                    .collect::<Result<Vec<_>, _>>()?
            };
            log.push(GenLog {
                generation: parse_usize(words[0], ln, "generation index")?,
                best_fitness: parse_bits(words[1], ln)?,
                mean_fitness: parse_bits(words[2], ln)?,
                best_size: parse_usize(words[3], ln, "best size")?,
                subset,
            });
        }

        let (ln, l) = next("quarantine")?;
        let nq = l
            .strip_prefix("quarantine ")
            .ok_or_else(|| CheckpointError::Parse {
                line: ln,
                message: "expected `quarantine <n>`".to_string(),
            })
            .and_then(|s| parse_usize(s, ln, "quarantine length"))?;
        let mut quarantined = Vec::new();
        for _ in 0..nq {
            let (ln, l) = next("quarantine record")?;
            quarantined.push(QuarantineRecord::from_line(l).ok_or_else(|| {
                CheckpointError::Parse {
                    line: ln,
                    message: "bad quarantine record".to_string(),
                }
            })?);
        }

        let (ln, l) = next("end marker")?;
        if l != "end" {
            return Err(CheckpointError::Parse {
                line: ln,
                message: format!("expected `end`, found {l:?}"),
            });
        }

        Ok(Checkpoint {
            fingerprint,
            next_generation,
            rng_state,
            population,
            plans,
            dss,
            log,
            evaluations,
            successes,
            failures,
            quarantined,
            memo_entries,
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
    use crate::eval::{EvalError, EvalErrorKind};

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
        for cut in [0, 1, 10, text.len() / 2] {
            let truncated = &text[..cut.min(text.len())];
            assert!(Checkpoint::parse(truncated).is_err(), "cut at {cut}");
        }
        let corrupt = text.replace("rng ", "rgn ");
        assert!(Checkpoint::parse(&corrupt).is_err());
        let bad_float = text.replace("counters 10 8 2", "counters ten 8 2");
        assert!(Checkpoint::parse(&bad_float).is_err());
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
        // A v2 (or v1) file must be refused at the header with a message
        // that names both versions — a clean rejection, not a parse panic
        // somewhere inside the body the old format lays out differently.
        for old_version in ["v1", "v2"] {
            let old = sample().to_text().replace(
                "metaopt-checkpoint v3",
                &format!("metaopt-checkpoint {old_version}"),
            );
            let err = Checkpoint::parse(&old).unwrap_err();
            match &err {
                CheckpointError::Parse { line: 1, message } => {
                    assert!(
                        message.contains(&format!("unsupported checkpoint version {old_version}"))
                            && message.contains("v3"),
                        "unhelpful message: {message}"
                    );
                }
                other => panic!("expected a line-1 parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/metaopt/ck.txt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
