//! End-to-end checkpoint/resume acceptance: start a real `metaopt` run as
//! a subprocess, SIGKILL it mid-evolution once its first checkpoint lands,
//! resume from the checkpoint file, and require the resumed run to report
//! *exactly* the same winner and speedups as a never-interrupted run.
//!
//! Works on any kill point: checkpoints are written atomically (tmp +
//! rename), so the file on disk is always a complete generation boundary,
//! and resumption replays the remaining generations deterministically.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

const GP_ARGS: &[&str] = &[
    "specialize",
    "hyperblock",
    "unepic",
    "--pop",
    "12",
    "--gens",
    "6",
    "--seed",
    "42",
    "--threads",
    "2",
];

fn metaopt(extra: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_metaopt"));
    c.args(GP_ARGS).args(extra);
    c
}

/// The lines a run is judged by: the re-parseable winner and its speedups.
fn key_lines(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| {
            l.starts_with("raw (re-parseable):")
                || l.starts_with("train speedup:")
                || l.starts_with("novel speedup:")
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn killed_run_resumes_to_the_same_result() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("metaopt-kill-resume-{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Launch the run with checkpointing, then kill it as soon as the first
    // checkpoint exists. If the run wins the race and finishes first, the
    // kill is a no-op and resume starts from the final checkpoint — the
    // equality below must hold at *any* kill point.
    let mut child = metaopt(&["--checkpoint", path.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn metaopt");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !path.exists() {
        assert!(Instant::now() < deadline, "no checkpoint within 120s");
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    assert!(path.exists(), "a checkpoint must survive the kill");

    let resumed = metaopt(&["--resume", path.to_str().unwrap()])
        .output()
        .expect("resumed run");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let straight = metaopt(&[]).output().expect("uninterrupted run");
    assert!(straight.status.success());

    let r = key_lines(&resumed.stdout);
    let s = key_lines(&straight.stdout);
    assert_eq!(r.len(), 3, "expected 3 key lines, got {r:?}");
    assert_eq!(
        r, s,
        "resumed run must reproduce the uninterrupted run exactly"
    );
    let _ = std::fs::remove_file(&path);
}

/// Kill -9 a run while it is appending to the persistent fitness cache,
/// then deliberately tear the file's tail mid-record (the worst crash the
/// append protocol can leave behind). The next run must recover the cache
/// on open — dropping only the torn tail — answer evaluations from it
/// (warm hits > 0), and still report *exactly* the same winner and
/// speedups as a never-interrupted, never-cached run.
#[test]
fn killed_run_leaves_a_recoverable_fitness_cache() {
    let cache: PathBuf =
        std::env::temp_dir().join(format!("metaopt-kill-cache-{}.bin", std::process::id()));
    let trace: PathBuf =
        std::env::temp_dir().join(format!("metaopt-kill-cache-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&trace);

    // Kill once the cache holds the header plus a few full records. If the
    // run wins the race and finishes first, the kill is a no-op and the
    // torn tail below still exercises recovery.
    let mut child = metaopt(&["--eval-cache", cache.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn metaopt");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let len = std::fs::metadata(&cache).map(|m| m.len()).unwrap_or(0);
        if len >= 1000 || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "cache never grew within 120s");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();

    // Tear the last record: chop a few bytes off the tail, as a crash in
    // the middle of a `write_all` would.
    let len = std::fs::metadata(&cache)
        .expect("cache must survive the kill")
        .len();
    assert!(
        len > 100,
        "cache should hold at least the header: {len} bytes"
    );
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&cache)
        .expect("open cache for truncation");
    f.set_len(len - 5).expect("tear the tail");
    drop(f);

    let warm = metaopt(&[
        "--eval-cache",
        cache.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ])
    .output()
    .expect("warm run");
    assert!(
        warm.status.success(),
        "warm run failed: {}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let straight = metaopt(&[]).output().expect("uninterrupted run");
    assert!(straight.status.success());

    // Same winner and speedups as a run that never saw a cache or a crash.
    assert_eq!(
        key_lines(&warm.stdout),
        key_lines(&straight.stdout),
        "warm recovered run must reproduce the uninterrupted run exactly"
    );
    // The store actually answered evaluations.
    let stdout = String::from_utf8_lossy(&warm.stdout).to_string();
    let hits: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("eval cache warm hits: "))
        .expect("warm run must report its warm-hit count")
        .trim()
        .parse()
        .expect("warm-hit count parses");
    assert!(hits > 0, "expected warm hits > 0:\n{stdout}");
    // And the trace records the truncated-tail recovery.
    let trace_text = std::fs::read_to_string(&trace).expect("trace file");
    assert!(
        trace_text
            .lines()
            .any(|l| l.contains("\"type\":\"cache-recovered\"")
                && l.contains("\"mode\":\"recovered\"")),
        "trace must carry the cache-recovered event"
    );
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&trace);
}

/// The deterministic section of a co-evolved run's report: the front
/// header, the front table, the champion, and its speedups — everything
/// from `pareto front:` through `raw (re-parseable):`.
fn coevo_key_section(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let start = text.find("pareto front:").expect("front header in output");
    let end = text[start..]
        .find("\nraw (re-parseable):")
        .map(|i| {
            text[start + i + 1..]
                .find('\n')
                .map_or(text.len(), |j| start + i + 1 + j)
        })
        .unwrap_or(text.len());
    text[start..end].to_string()
}

/// SIGKILL a co-evolved run after its first v3 checkpoint lands, resume,
/// and require bit-identical output (front, champion, speedups) to the
/// never-interrupted run — the joint-genome analogue of
/// [`killed_run_resumes_to_the_same_result`].
#[test]
fn killed_co_evolved_run_resumes_to_the_same_result() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("metaopt-coevo-kill-{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut child = metaopt(&["--co-evolve", "--checkpoint", path.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn metaopt");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !path.exists() {
        assert!(Instant::now() < deadline, "no checkpoint within 120s");
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    assert!(path.exists(), "a checkpoint must survive the kill");

    let resumed = metaopt(&["--co-evolve", "--resume", path.to_str().unwrap()])
        .output()
        .expect("resumed run");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let straight = metaopt(&["--co-evolve"])
        .output()
        .expect("uninterrupted run");
    assert!(straight.status.success());
    assert_eq!(
        coevo_key_section(&resumed.stdout),
        coevo_key_section(&straight.stdout),
        "resumed co-evolved run must reproduce the uninterrupted run exactly"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_rejects_a_checkpoint_from_different_parameters() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("metaopt-mismatch-{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let first = metaopt(&["--checkpoint", path.to_str().unwrap()])
        .output()
        .expect("checkpointed run");
    assert!(first.status.success());
    assert!(path.exists());

    // Same checkpoint, different population size: must be refused, loudly.
    let mut c = Command::new(env!("CARGO_BIN_EXE_metaopt"));
    c.args([
        "specialize",
        "hyperblock",
        "unepic",
        "--pop",
        "14",
        "--gens",
        "6",
        "--seed",
        "42",
        "--resume",
        path.to_str().unwrap(),
    ]);
    let out = c.output().expect("mismatched resume");
    assert!(!out.status.success(), "mismatched resume must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint"),
        "error should mention the checkpoint: {stderr}"
    );
    let _ = std::fs::remove_file(&path);
}
