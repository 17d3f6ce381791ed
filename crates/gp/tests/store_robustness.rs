//! The persistent fitness store reads a file that a crash, a full disk or
//! a mis-pointed `--eval-cache` may have left in any state. On any bytes
//! `FitnessStore::open` never panics; a file that is not a store is never
//! modified; and a damaged store serves exactly the records before the
//! first damaged one, bit-exact, cut back to where they end.

use metaopt_gp::store::STORE_MAGIC;
use metaopt_gp::{FitnessStore, StoreHealth};
use metaopt_trace::Tracer;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

const FP: &str = "pop=8 seed=42 config=regalloc,schedule";

/// The store's bounds on a record payload (`case`, `score`, then at least
/// one key byte; nothing near a mebibyte), fixed by its file format.
const MIN_PAYLOAD: usize = 13;
const MAX_PAYLOAD: usize = 1 << 20;

/// Genome keys, including the one-byte minimum and non-ASCII text.
const KEYS: &[&str] = &[
    "x",
    "(add x 1.0)",
    "(mul x x)",
    "(sqrt é)",
    "(tern flag 1.5 ✓)",
];

fn header() -> String {
    format!("{STORE_MAGIC}\n{FP}\n")
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "metaopt-store-robustness-{name}-{}.bin",
        std::process::id()
    ))
}

/// The record checksum: 64-bit FNV-1a of the payload.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// One on-disk record: `[len u32 LE] [payload] [fnv1a(payload) u64 LE]`.
fn record(payload: &[u8]) -> Vec<u8> {
    let mut r = (payload.len() as u32).to_le_bytes().to_vec();
    r.extend_from_slice(payload);
    r.extend_from_slice(&fnv1a(payload).to_le_bytes());
    r
}

/// Appends of `(key, case, score)` drawn with repeats, so duplicates occur.
fn arb_rows() -> impl Strategy<Value = Vec<(&'static str, usize, f64)>> {
    let score = prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::MIN_POSITIVE / 4.0),
    ];
    proptest::collection::vec((0..KEYS.len(), 0usize..3, score), 1..16)
        .prop_map(|rows| rows.into_iter().map(|(k, c, s)| (KEYS[k], c, s)).collect())
}

/// Write `rows` through the store and return the file's bytes and the end
/// offset of each record.
fn write_store(path: &PathBuf, rows: &[(&str, usize, f64)]) -> (Vec<u8>, Vec<usize>) {
    let _ = std::fs::remove_file(path);
    let store = FitnessStore::open(path, FP, &Tracer::disabled());
    let mut ends = Vec::new();
    let mut end = header().len();
    for &(key, case, score) in rows {
        store.append(key, case, score);
        end += 4 + 12 + key.len() + 8;
        ends.push(end);
    }
    drop(store);
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(bytes.len(), end, "records are laid out as the format says");
    (bytes, ends)
}

/// Reopen the store at `path` and check that it serves exactly `rows`
/// (later duplicates winning), bit-exact, from a file `good_len` bytes
/// long; then that an append after the reopen round-trips.
fn assert_serves_exactly(path: &PathBuf, rows: &[(&str, usize, f64)], good_len: usize) {
    let mut want: HashMap<(&str, usize), u64> = HashMap::new();
    for &(key, case, score) in rows {
        want.insert((key, case), score.to_bits());
    }
    let store = FitnessStore::open(path, FP, &Tracer::disabled());
    assert_ne!(store.health(), StoreHealth::Degraded);
    assert_eq!(store.entries(), want.len() as u64);
    for key in KEYS {
        for case in 0..3 {
            let got = store.lookup(key, case).map(f64::to_bits);
            assert_eq!(got, want.get(&(*key, case)).copied(), "{key} case {case}");
        }
    }
    assert_eq!(std::fs::metadata(path).unwrap().len(), good_len as u64);
    store.append("(neg x)", 2, -1.5);
    drop(store);
    let store = FitnessStore::open(path, FP, &Tracer::disabled());
    assert_eq!(store.health(), StoreHealth::Intact);
    assert_eq!(store.lookup("(neg x)", 2), Some(-1.5));
    assert_eq!(store.entries(), want.len() as u64 + 1);
}

/// Arbitrary bytes, alone or after our own header, whole or torn.
fn arb_file() -> impl Strategy<Value = Vec<u8>> {
    let bytes = proptest::collection::vec(any::<u8>(), 0..256);
    prop_oneof![
        bytes.clone(),
        bytes
            .clone()
            .prop_map(|tail| [header().into_bytes(), tail].concat()),
        (0..=header().len(), bytes).prop_map(|(cut, tail)| {
            let mut file = header().into_bytes()[..cut].to_vec();
            file.extend(tail);
            file
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_files_open_without_panicking(file in arb_file()) {
        let path = temp("arbitrary");
        std::fs::write(&path, &file).unwrap();
        let store = FitnessStore::open(&path, FP, &Tracer::disabled());
        store.append("(add x 1.0)", 0, 1.0);
        drop(store);
        let head = header().into_bytes();
        if !head.starts_with(&file) && !file.starts_with(&head) {
            // Not a store of ours: degraded, and the file left as it was.
            prop_assert_eq!(std::fs::read(&path).unwrap(), file);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_stores_serve_the_records_before_the_cut(
        rows in arb_rows(),
        cut in any::<usize>(),
    ) {
        let path = temp("truncated");
        let (bytes, ends) = write_store(&path, &rows);
        let cut = header().len() + cut % (bytes.len() - header().len() + 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let whole = ends.iter().take_while(|&&end| end <= cut).count();
        let good_len = if whole == 0 { header().len() } else { ends[whole - 1] };
        assert_serves_exactly(&path, &rows[..whole], good_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flipped_byte_ends_the_good_prefix(
        rows in arb_rows(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let path = temp("flipped");
        let (mut bytes, ends) = write_store(&path, &rows);
        let at = header().len() + at % (bytes.len() - header().len());
        bytes[at] ^= mask;
        std::fs::write(&path, &bytes).unwrap();
        let damaged = ends.iter().take_while(|&&end| end <= at).count();
        let good_len = if damaged == 0 { header().len() } else { ends[damaged - 1] };
        assert_serves_exactly(&path, &rows[..damaged], good_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_length_prefix_out_of_bounds_ends_the_good_prefix(
        rows in arb_rows(),
        at in any::<usize>(),
        short in proptest::collection::vec(any::<u8>(), 0..MIN_PAYLOAD),
        over in (MAX_PAYLOAD as u32 + 1)..=u32::MAX,
        use_short in any::<bool>(),
    ) {
        // Splice a record whose length is out of bounds between two good
        // records: a short one carries a valid checksum, a long one only
        // its prefix.
        let path = temp("bounds");
        let (bytes, ends) = write_store(&path, &rows);
        let k = at % (rows.len() + 1);
        let splice = if k == 0 { header().len() } else { ends[k - 1] };
        let bad = if use_short { record(&short) } else { over.to_le_bytes().to_vec() };
        let file = [&bytes[..splice], &bad[..], &bytes[splice..]].concat();
        std::fs::write(&path, &file).unwrap();
        assert_serves_exactly(&path, &rows[..k], splice);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn a_checksummed_record_past_the_payload_bound_ends_the_good_prefix() {
    let path = temp("oversized");
    let rows = [("(add x 1.0)", 0, 1.25), ("(mul x x)", 1, 2.0)];
    let (bytes, ends) = write_store(&path, &rows);
    let mut payload = vec![0u8; 12];
    payload.resize(MAX_PAYLOAD + 1, b'k');
    let file = [&bytes[..ends[0]], &record(&payload)[..], &bytes[ends[0]..]].concat();
    std::fs::write(&path, &file).unwrap();
    assert_serves_exactly(&path, &rows[..1], ends[0]);
    // At the bound itself the record is good.
    let mut payload = vec![0u8; 12];
    payload.resize(MAX_PAYLOAD, b'k');
    let file = [&bytes[..ends[0]], &record(&payload)[..]].concat();
    std::fs::write(&path, &file).unwrap();
    let store = FitnessStore::open(&path, FP, &Tracer::disabled());
    assert_eq!(store.health(), StoreHealth::Intact);
    assert_eq!(store.entries(), 2);
    let key = "k".repeat(MAX_PAYLOAD - 12);
    assert_eq!(store.lookup(&key, 0), Some(0.0));
    let _ = std::fs::remove_file(&path);
}
