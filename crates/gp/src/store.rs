//! Crash-safe persistent fitness store: the on-disk warm layer behind the
//! evaluation core's in-memory memo.
//!
//! A GP run at paper scale performs tens of thousands of `(genome, case)`
//! evaluations, each costing up to 60 M simulated instructions; losing them
//! to a crash or a config change means recomputing them. The store persists
//! every *successful* score keyed on the exact `Expr::key` text plus the
//! checkpoint-v2 config fingerprint, so a re-run (or a resumed run) under
//! the same configuration serves those scores from disk instead of the
//! simulator. Failures are deliberately not persisted: permanent failures
//! are cheap to rediscover and transient ones should be retried fresh.
//!
//! # File format (`metaopt-fitness-cache v1`)
//!
//! ```text
//! metaopt-fitness-cache v1\n          (magic + version, line 1)
//! <config fingerprint>\n              (checkpoint-v2 fingerprint, line 2)
//! [len: u32 LE] [payload] [fnv1a(payload): u64 LE]     (repeated)
//! payload = case: u32 LE | score: f64 bits, u64 LE | key: UTF-8 bytes
//! ```
//!
//! Appends are serialized under a mutex and issued as a single `write_all`
//! of the complete record, so a crash can only ever leave a *truncated
//! tail*, never an interleaved one. On open, records are validated in
//! order; the first bad record (short read, absurd length, checksum
//! mismatch, malformed payload) truncates the file back to the last good
//! offset and the run continues with everything before it — the
//! "drop the bad tail" recovery contract. A file that fails *header*
//! validation (wrong magic, wrong version, foreign fingerprint, unreadable)
//! is never modified: the store degrades to in-memory-only for the run and
//! emits a traced warning, so a mis-pointed `--eval-cache` can never
//! destroy data or serve a wrong fitness.

use metaopt_trace::json::Value;
use metaopt_trace::Tracer;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Magic + version line (line 1 of the file).
pub const STORE_MAGIC: &str = "metaopt-fitness-cache v1";

/// Upper bound on a record payload: no genome key comes anywhere near this,
/// so a larger length prefix means the tail is garbage.
const MAX_PAYLOAD: usize = 1 << 20;

/// Minimum payload: case (4) + score (8) + at least one key byte.
const MIN_PAYLOAD: usize = 13;

/// Hook consulted on every append; when it returns `true` the record is
/// written with a corrupted checksum, simulating a torn write. Exists so
/// the fault injector's `CacheCorrupt` stage (and tests) can exercise the
/// recovery path deterministically.
pub type CorruptHook = Arc<dyn Fn(&str, usize) -> bool + Send + Sync>;

/// How the store came up when it was opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreHealth {
    /// File opened cleanly (or was created fresh).
    Intact,
    /// A bad tail was detected and truncated away; everything before it
    /// was loaded.
    Recovered,
    /// The file was unusable (wrong magic/version, foreign fingerprint, or
    /// I/O error); the store is in-memory-only for this run.
    Degraded,
}

/// The persistent fitness store. All methods are `&self` and thread-safe:
/// lookups read an immutable map loaded at open, appends serialize under an
/// internal mutex. The store never panics and never returns an error to the
/// evaluation path — every failure mode degrades to "no persistence".
pub struct FitnessStore {
    loaded: HashMap<String, Vec<(usize, f64)>>,
    entries: u64,
    writer: Mutex<Option<File>>,
    health: StoreHealth,
    dropped_bytes: u64,
    appended: AtomicU64,
    corrupt_hook: Option<CorruptHook>,
    tracer: Tracer,
}

/// 64-bit FNV-1a: the record checksum here, and the evaluation core's
/// deterministic retry backoff. Both are part of the on-disk and traced
/// formats, so the function must never change.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Outcome of parsing the byte image of an existing store file.
struct Parsed {
    loaded: HashMap<String, Vec<(usize, f64)>>,
    entries: u64,
    /// Offset of the first byte past the last valid record.
    good_offset: u64,
}

impl FitnessStore {
    /// Open (or create) the store at `path` for a run with the given config
    /// `fingerprint`. Infallible by design: any failure mode yields a
    /// degraded in-memory store with a traced `cache-recovered` warning
    /// (`mode: "degraded"`); a torn tail yields a recovered store
    /// (`mode: "recovered"`) with the tail truncated away.
    pub fn open(path: &Path, fingerprint: &str, tracer: &Tracer) -> FitnessStore {
        let (store, emit) = Self::open_inner(path, fingerprint, tracer);
        if let Some(mode) = emit {
            tracer.emit(
                "cache-recovered",
                [
                    ("mode", Value::Str(mode.to_string())),
                    ("entries", Value::UInt(store.entries)),
                    ("dropped_bytes", Value::UInt(store.dropped_bytes)),
                ],
            );
        }
        store
    }

    fn open_inner(
        path: &Path,
        fingerprint: &str,
        tracer: &Tracer,
    ) -> (FitnessStore, Option<&'static str>) {
        let header = format!("{STORE_MAGIC}\n{fingerprint}\n");
        let degraded = |tracer: &Tracer| {
            (
                FitnessStore {
                    loaded: HashMap::new(),
                    entries: 0,
                    writer: Mutex::new(None),
                    health: StoreHealth::Degraded,
                    dropped_bytes: 0,
                    appended: AtomicU64::new(0),
                    corrupt_hook: None,
                    tracer: tracer.clone(),
                },
                Some("degraded"),
            )
        };

        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(_) => return degraded(tracer),
        };

        // A missing file, an empty file, or a torn header (a strict prefix
        // of our own header — only possible from a crash during creation)
        // all mean "start fresh". Anything else that fails header
        // validation is not ours to touch: degrade without modifying it.
        let fresh = bytes.len() < header.len() && header.as_bytes().starts_with(&bytes);
        if !fresh && !bytes.starts_with(header.as_bytes()) {
            return degraded(tracer);
        }

        let (parsed, mut recovered) = if fresh {
            (
                Parsed {
                    loaded: HashMap::new(),
                    entries: 0,
                    good_offset: header.len() as u64,
                },
                !bytes.is_empty(),
            )
        } else {
            let p = Self::parse_records(&bytes, header.len());
            let rec = p.good_offset < bytes.len() as u64;
            (p, rec)
        };
        let dropped =
            (bytes.len() as u64).saturating_sub(parsed.good_offset.min(bytes.len() as u64));

        // Materialize the repaired file: rewrite a torn header, truncate a
        // bad tail, then reopen for appending.
        let file = (|| -> std::io::Result<File> {
            if fresh {
                let mut f = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(path)?;
                f.write_all(header.as_bytes())?;
                Ok(f)
            } else {
                let f = OpenOptions::new().read(true).write(true).open(path)?;
                if recovered {
                    f.set_len(parsed.good_offset)?;
                }
                Ok(f)
            }
        })();
        let mut file = match file {
            Ok(mut f) => {
                use std::io::Seek;
                match f.seek(std::io::SeekFrom::End(0)) {
                    Ok(_) => Some(f),
                    Err(_) => None,
                }
            }
            Err(_) => None,
        };
        if file.is_none() {
            // Loaded entries are still good — serve them read-only, but
            // report the store as degraded (no persistence this run).
            recovered = false;
        }
        let health = if file.is_none() {
            StoreHealth::Degraded
        } else if recovered {
            StoreHealth::Recovered
        } else {
            StoreHealth::Intact
        };
        let store = FitnessStore {
            entries: parsed.entries,
            loaded: parsed.loaded,
            writer: Mutex::new(file.take()),
            health,
            dropped_bytes: if health == StoreHealth::Recovered {
                dropped
            } else {
                0
            },
            appended: AtomicU64::new(0),
            corrupt_hook: None,
            tracer: tracer.clone(),
        };
        let emit = match health {
            StoreHealth::Intact => None,
            StoreHealth::Recovered => Some("recovered"),
            StoreHealth::Degraded => Some("degraded"),
        };
        (store, emit)
    }

    /// Validate records in `bytes` starting at `start`; stop at the first
    /// bad one. Later records for the same `(key, case)` win (duplicates
    /// arise from resumed runs re-evaluating pairs whose memo was lost).
    fn parse_records(bytes: &[u8], start: usize) -> Parsed {
        let mut loaded: HashMap<String, Vec<(usize, f64)>> = HashMap::new();
        let mut entries = 0u64;
        let mut off = start;
        loop {
            let rest = &bytes[off..];
            if rest.is_empty() {
                break;
            }
            if rest.len() < 4 {
                break; // torn length prefix
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            if !(MIN_PAYLOAD..=MAX_PAYLOAD).contains(&len) || rest.len() < 4 + len + 8 {
                break; // absurd length or torn payload/checksum
            }
            let payload = &rest[4..4 + len];
            // The length check above makes every fixed-width read succeed;
            // a read that failed would be a corrupt record, so it ends the
            // valid prefix like one.
            let Ok(sum) = rest[4 + len..4 + len + 8]
                .try_into()
                .map(u64::from_le_bytes)
            else {
                break;
            };
            if fnv1a(payload) != sum {
                break; // bit flip or torn write
            }
            let (Ok(case), Ok(score)) = (
                payload[..4].try_into().map(u32::from_le_bytes),
                payload[4..12].try_into().map(u64::from_le_bytes),
            ) else {
                break;
            };
            let (case, score) = (case as usize, f64::from_bits(score));
            let key = match std::str::from_utf8(&payload[12..]) {
                Ok(k) => k,
                Err(_) => break,
            };
            let cases = loaded.entry(key.to_string()).or_default();
            match cases.iter_mut().find(|(c, _)| *c == case) {
                Some(slot) => slot.1 = score,
                None => {
                    cases.push((case, score));
                    entries += 1;
                }
            }
            off += 4 + len + 8;
        }
        Parsed {
            loaded,
            entries,
            good_offset: off as u64,
        }
    }

    /// Install a corruption hook (fault injection / tests): appends for
    /// which the hook fires are written with a corrupted checksum,
    /// simulating a torn write that the next open must recover from.
    pub fn with_corrupt_hook(mut self, hook: CorruptHook) -> Self {
        self.corrupt_hook = Some(hook);
        self
    }

    /// Score persisted for `(key, case)` by an earlier run, if any. Borrows
    /// the key — no allocation on the hot path.
    pub fn lookup(&self, key: &str, case: usize) -> Option<f64> {
        self.loaded
            .get(key)
            .and_then(|cases| cases.iter().find(|(c, _)| *c == case))
            .map(|(_, s)| *s)
    }

    /// Append a successful score. Serialized under a mutex and written as
    /// one `write_all`; on I/O failure the store silently degrades to
    /// in-memory-only (with a traced warning) rather than surfacing an
    /// error into the evaluation path.
    pub fn append(&self, key: &str, case: usize, score: f64) {
        let mut payload = Vec::with_capacity(12 + key.len());
        payload.extend_from_slice(&(case as u32).to_le_bytes());
        payload.extend_from_slice(&score.to_bits().to_le_bytes());
        payload.extend_from_slice(key.as_bytes());
        let mut sum = fnv1a(&payload);
        if let Some(hook) = &self.corrupt_hook {
            if hook(key, case) {
                sum ^= 0xFF; // torn-write simulation: checksum won't verify
            }
        }
        let mut record = Vec::with_capacity(4 + payload.len() + 8);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&payload);
        record.extend_from_slice(&sum.to_le_bytes());

        // A panic while another append held the lock leaves at worst a torn
        // record, which the next open recovers from like any other.
        let mut guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = guard.as_mut() {
            if f.write_all(&record).is_err() {
                *guard = None;
                self.tracer.emit(
                    "cache-recovered",
                    [
                        ("mode", Value::Str("degraded".to_string())),
                        ("entries", Value::UInt(self.entries)),
                        ("dropped_bytes", Value::UInt(0)),
                    ],
                );
            } else {
                self.appended.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of `(key, case)` entries loaded from disk at open.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Records appended (and durably written) by this run so far.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Health classification from open time.
    pub fn health(&self) -> StoreHealth {
        self.health
    }

    /// Bytes dropped by truncated-tail recovery at open (0 unless
    /// [`StoreHealth::Recovered`]).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }
}

impl std::fmt::Debug for FitnessStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitnessStore")
            .field("entries", &self.entries)
            .field("health", &self.health)
            .field("dropped_bytes", &self.dropped_bytes)
            .field("appended", &self.appended.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const FP: &str = "pop=8 seed=42 config=test";

    fn temp(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("metaopt-store-{}-{}.bin", name, std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn filled(path: &Path) -> Vec<(String, usize, f64)> {
        let rows = vec![
            ("(add x 1.0)".to_string(), 0, 1.25),
            ("(add x 1.0)".to_string(), 1, 0.75),
            ("(mul x x)".to_string(), 0, 2.0),
            ("(mul x x)".to_string(), 3, -4.5),
        ];
        let s = FitnessStore::open(path, FP, &Tracer::disabled());
        assert_eq!(s.health(), StoreHealth::Intact);
        for (k, c, v) in &rows {
            s.append(k, *c, *v);
        }
        assert_eq!(s.appended(), rows.len() as u64);
        rows
    }

    #[test]
    fn round_trips_scores_across_opens() {
        let path = temp("roundtrip");
        let rows = filled(&path);
        let s = FitnessStore::open(&path, FP, &Tracer::disabled());
        assert_eq!(s.health(), StoreHealth::Intact);
        assert_eq!(s.entries(), rows.len() as u64);
        for (k, c, v) in &rows {
            assert_eq!(s.lookup(k, *c), Some(*v), "{k} case {c}");
        }
        assert_eq!(s.lookup("(add x 1.0)", 9), None);
        assert_eq!(s.lookup("(unknown)", 0), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_is_recovered_and_traced() {
        let path = temp("trunc");
        let rows = filled(&path);
        // Chop mid-record: the last record loses its checksum bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let tracer = Tracer::in_memory();
        let s = FitnessStore::open(&path, FP, &tracer);
        assert_eq!(s.health(), StoreHealth::Recovered);
        assert_eq!(s.entries(), rows.len() as u64 - 1);
        assert!(s.dropped_bytes() > 0);
        // The dropped pair misses; everything before it is served.
        assert_eq!(s.lookup(&rows[3].0, rows[3].1), None);
        assert_eq!(s.lookup(&rows[0].0, rows[0].1), Some(rows[0].2));
        let lines = tracer.lines().unwrap();
        assert!(
            lines
                .iter()
                .any(|l| l.contains("cache-recovered") && l.contains("\"mode\":\"recovered\"")),
            "{lines:?}"
        );
        // The file was repaired in place: reopening is clean, and appends go
        // to the truncation point.
        s.append("(neg x)", 2, 9.0);
        drop(s);
        let s2 = FitnessStore::open(&path, FP, &Tracer::disabled());
        assert_eq!(s2.health(), StoreHealth::Intact);
        assert_eq!(s2.lookup("(neg x)", 2), Some(9.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flipped_record_drops_the_tail_but_never_serves_it() {
        let path = temp("bitflip");
        let rows = filled(&path);
        // Flip one bit inside the *third* record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let header = format!("{STORE_MAGIC}\n{FP}\n").len();
        let mut off = header;
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 4 + len + 8;
        }
        bytes[off + 8] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let tracer = Tracer::in_memory();
        let s = FitnessStore::open(&path, FP, &tracer);
        assert_eq!(s.health(), StoreHealth::Recovered);
        // Records before the flip survive; the flipped one and everything
        // after are gone — a corrupted score is never served.
        assert_eq!(s.entries(), 2);
        assert_eq!(s.lookup(&rows[0].0, rows[0].1), Some(rows[0].2));
        assert_eq!(s.lookup(&rows[2].0, rows[2].1), None);
        assert_eq!(s.lookup(&rows[3].0, rows[3].1), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_version_or_magic_degrades_without_touching_the_file() {
        for (name, contents) in [
            ("wrongver", format!("metaopt-fitness-cache v9\n{FP}\n")),
            (
                "notours",
                "some other file entirely\nwith two lines\n".to_string(),
            ),
            ("binary", "\u{1}\u{2}\u{3}garbage".to_string()),
        ] {
            let path = temp(name);
            std::fs::write(&path, &contents).unwrap();
            let tracer = Tracer::in_memory();
            let s = FitnessStore::open(&path, FP, &tracer);
            assert_eq!(s.health(), StoreHealth::Degraded, "{name}");
            assert_eq!(s.entries(), 0);
            // Appends are silently dropped; the foreign file is untouched.
            s.append("(add x 1.0)", 0, 1.0);
            assert_eq!(s.appended(), 0);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), contents, "{name}");
            let lines = tracer.lines().unwrap();
            assert!(
                lines
                    .iter()
                    .any(|l| l.contains("cache-recovered") && l.contains("\"mode\":\"degraded\"")),
                "{name}: {lines:?}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn foreign_fingerprint_degrades() {
        let path = temp("foreignfp");
        filled(&path);
        let s = FitnessStore::open(&path, "pop=8 seed=43 config=test", &Tracer::disabled());
        assert_eq!(s.health(), StoreHealth::Degraded);
        assert_eq!(s.lookup("(add x 1.0)", 0), None);
        // Re-open under the right fingerprint: still intact.
        let s2 = FitnessStore::open(&path, FP, &Tracer::disabled());
        assert_eq!(s2.health(), StoreHealth::Intact);
        assert_eq!(s2.lookup("(add x 1.0)", 0), Some(1.25));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_header_restarts_fresh() {
        let path = temp("tornheader");
        std::fs::write(&path, &STORE_MAGIC.as_bytes()[..10]).unwrap();
        let s = FitnessStore::open(&path, FP, &Tracer::disabled());
        assert_eq!(s.health(), StoreHealth::Recovered);
        s.append("(add x 1.0)", 0, 1.5);
        drop(s);
        let s2 = FitnessStore::open(&path, FP, &Tracer::disabled());
        assert_eq!(s2.health(), StoreHealth::Intact);
        assert_eq!(s2.lookup("(add x 1.0)", 0), Some(1.5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unreadable_path_degrades() {
        let path = PathBuf::from("/nonexistent-dir/metaopt-cache.bin");
        let tracer = Tracer::in_memory();
        let s = FitnessStore::open(&path, FP, &tracer);
        assert_eq!(s.health(), StoreHealth::Degraded);
        s.append("(add x 1.0)", 0, 1.0); // must not panic
        assert!(tracer
            .lines()
            .unwrap()
            .iter()
            .any(|l| l.contains("\"mode\":\"degraded\"")));
    }

    #[test]
    fn corrupt_hook_produces_a_recoverable_tail() {
        let path = temp("hooked");
        let hooked = FitnessStore::open(&path, FP, &Tracer::disabled())
            .with_corrupt_hook(Arc::new(|key: &str, _case: usize| key.contains("mul")));
        hooked.append("(add x 1.0)", 0, 1.25);
        hooked.append("(mul x x)", 0, 2.0); // corrupted checksum
        hooked.append("(add x 2.0)", 0, 3.0); // after the corrupt record
        drop(hooked);
        let s = FitnessStore::open(&path, FP, &Tracer::disabled());
        // Drop-the-tail: the corrupt record and everything after it go.
        assert_eq!(s.health(), StoreHealth::Recovered);
        assert_eq!(s.lookup("(add x 1.0)", 0), Some(1.25));
        assert_eq!(s.lookup("(mul x x)", 0), None);
        assert_eq!(s.lookup("(add x 2.0)", 0), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_records_take_the_last_value() {
        let path = temp("dups");
        let s = FitnessStore::open(&path, FP, &Tracer::disabled());
        s.append("(add x 1.0)", 0, 1.0);
        s.append("(add x 1.0)", 0, 2.0);
        drop(s);
        let s2 = FitnessStore::open(&path, FP, &Tracer::disabled());
        assert_eq!(s2.entries(), 1);
        assert_eq!(s2.lookup("(add x 1.0)", 0), Some(2.0));
        let _ = std::fs::remove_file(&path);
    }
}
