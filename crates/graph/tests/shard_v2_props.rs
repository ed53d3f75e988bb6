//! Property tests for the KRSH delta-varint codec and its pipeline:
//! LEB128 encode→decode identity with canonical-form (overlong)
//! rejection, run roundtrips over random sorted streams, a corruption
//! corpus aimed at the codec's surfaces (truncation mid-varint, forged
//! count and payload lengths, bit flips in the compressed region), and
//! the single-pass external build emitting files byte-identical to the
//! two-pass reference.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use kron_graph::shard::{
    build_external_csr, build_external_csr_two_pass, decode_varint, encode_varint, ShardReader,
    ShardWriter, Varint, MAX_VARINT_BYTES,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh per-case scratch path (proptest shrinks rerun cases, so paths
/// must never be shared between runs of the same test).
fn scratch(tag: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kron_shard_v2_props_{}_{tag}_{id}", std::process::id()))
}

/// Strategy: a sorted, possibly-duplicated arc list over `n` vertices.
fn sorted_run(n: u64, max: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0..n, 0..n), 0..max).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// Writes one finished shard and returns its path.
fn write_run(tag: &str, n: u64, arcs: &[(u64, u64)]) -> PathBuf {
    let path = scratch(tag);
    let mut w = ShardWriter::with_buffer(&path, n, 4096).expect("create shard");
    for &(u, v) in arcs {
        w.push(u, v).expect("sorted in-range push");
    }
    let info = w.finish().expect("finish shard");
    assert_eq!(info.arcs, arcs.len() as u64);
    path
}

/// Drains a reader to completion; any error is returned, not panicked.
fn drain(path: &PathBuf) -> kron_graph::Result<Vec<(u64, u64)>> {
    let mut reader = ShardReader::with_buffer(path, 256)?;
    let mut out = Vec::new();
    while let Some(arc) = reader.next_arc()? {
        out.push(arc);
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LEB128 identity: every u64 encodes to ≤ MAX_VARINT_BYTES bytes and
    /// decodes back exactly, with the declared length.
    #[test]
    fn varint_roundtrip(value in 0u64..=u64::MAX) {
        let mut buf = Vec::new();
        let len = encode_varint(value, &mut buf);
        prop_assert_eq!(len, buf.len());
        prop_assert!(len <= MAX_VARINT_BYTES);
        match decode_varint(&buf).expect("own encoding decodes") {
            Varint::Value { value: got, len: got_len } => {
                prop_assert_eq!(got, value);
                prop_assert_eq!(got_len, len);
            }
            Varint::NeedMore => prop_assert!(false, "complete encoding reported NeedMore"),
        }
    }

    /// A concatenated varint stream decodes value-for-value: the decoder
    /// never consumes into the next value.
    #[test]
    fn varint_stream_roundtrip(values in proptest::collection::vec(0u64..=u64::MAX, 0..50)) {
        let mut buf = Vec::new();
        for &v in &values {
            encode_varint(v, &mut buf);
        }
        let mut at = 0usize;
        let mut decoded = Vec::new();
        while at < buf.len() {
            match decode_varint(&buf[at..]).expect("stream decodes") {
                Varint::Value { value, len } => {
                    decoded.push(value);
                    at += len;
                }
                Varint::NeedMore => {
                    prop_assert!(false, "complete stream reported NeedMore at {at}");
                }
            }
        }
        prop_assert_eq!(decoded, values);
    }

    /// Non-canonical (overlong) encodings are rejected: padding a value
    /// with a redundant continuation group must fail, never silently
    /// decode to the same value.
    #[test]
    fn varint_overlong_rejected(value in 0u64..=u64::MAX) {
        let mut buf = Vec::new();
        let len = encode_varint(value, &mut buf);
        if len < MAX_VARINT_BYTES {
            // Set the continuation bit on the final group and append a
            // zero group — the classic overlong form of the same value.
            buf[len - 1] |= 0x80;
            buf.push(0x00);
            prop_assert!(decode_varint(&buf).is_err(), "overlong encoding accepted");
        }
    }

    /// A truncated varint inside an otherwise well-framed window reports
    /// NeedMore (short window) — while a 10-byte window with no
    /// terminator is an error, not a request for more input.
    #[test]
    fn varint_truncation_is_needmore(value in (1u64 << 14)..=u64::MAX) {
        let mut buf = Vec::new();
        let len = encode_varint(value, &mut buf);
        prop_assert!(len >= 3);
        for cut in 0..len.min(MAX_VARINT_BYTES - 1) {
            match decode_varint(&buf[..cut]) {
                Ok(Varint::NeedMore) => {}
                Ok(Varint::Value { .. }) => {
                    prop_assert!(false, "truncated to {cut}/{len} bytes yet decoded");
                }
                Err(_) => prop_assert!(false, "short window must be NeedMore, not error"),
            }
        }
        let no_terminator = [0x80u8; MAX_VARINT_BYTES];
        prop_assert!(decode_varint(&no_terminator).is_err());
    }

    /// Encode→decode identity, and the compressed run beats the
    /// retired fixed-width layout (24-byte header + 16 bytes/arc) on any
    /// non-trivial stream.
    #[test]
    fn v2_roundtrip_identity(arcs in sorted_run(64, 300)) {
        let p2 = write_run("rt2", 64, &arcs);
        let reader = ShardReader::open(&p2).expect("open shard");
        prop_assert_eq!(reader.arcs_total(), arcs.len() as u64);
        drop(reader);
        prop_assert_eq!(drain(&p2).expect("drain shard"), arcs.clone());
        if arcs.len() >= 16 {
            let fixed = 24 + 16 * arcs.len() as u64;
            let b2 = std::fs::metadata(&p2).unwrap().len();
            prop_assert!(b2 < fixed, "run file {b2}B not smaller than fixed width {fixed}B");
        }
        std::fs::remove_file(&p2).ok();
    }

    /// Every strict truncation of a run file — including cuts landing
    /// mid-varint in the payload — is a clean error.
    #[test]
    fn v2_truncation_rejected(arcs in sorted_run(32, 100), cut in 0usize..100_000) {
        let path = write_run("trunc", 32, &arcs);
        let full = std::fs::metadata(&path).unwrap().len();
        let keep = (cut as u64) % full;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(keep).unwrap();
        drop(file);
        prop_assert!(drain(&path).is_err(), "truncated to {keep}/{full} bytes yet accepted");
        std::fs::remove_file(&path).ok();
    }

    /// Single-bit flips anywhere in a run file never panic and never
    /// over-allocate: either a clean error, or — when validity is
    /// preserved — a stream still satisfying every format invariant.
    #[test]
    fn v2_bit_flips_never_panic(arcs in sorted_run(32, 80), pos in 0usize..100_000, bit in 0u8..8) {
        let path = write_run("flip", 32, &arcs);
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(decoded) = drain(&path) {
            let reader = ShardReader::open(&path).expect("drain succeeded");
            prop_assert_eq!(decoded.len() as u64, reader.arcs_total());
            prop_assert!(decoded.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(decoded.iter().all(|&(u, v)| u < 32 && v < 32));
        }
        std::fs::remove_file(&path).ok();
    }

    /// Forged header lengths — arc count (bytes 16..24) and payload_len
    /// (24..32) — are rejected by the framing cross-check before any
    /// count-proportional allocation.
    #[test]
    fn v2_forged_lengths_rejected(
        arcs in sorted_run(32, 80),
        field in 0usize..2,
        forged in 0u64..=u64::MAX,
    ) {
        let path = write_run("forge", 32, &arcs);
        let mut bytes = std::fs::read(&path).unwrap();
        let off = 16 + field * 8;
        let original = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        bytes[off..off + 8].copy_from_slice(&forged.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let result = drain(&path);
        if forged == original {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(
                result.is_err(),
                "forged field {field} = {forged} (real {original}) accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// The single-pass external build writes files byte-identical to the
    /// two-pass reference, including when arcs repeat across runs.
    #[test]
    fn one_pass_build_matches_two_pass(
        arcs in sorted_run(40, 150),
        assign in proptest::collection::vec(0usize..3, 150),
        dup_mask in proptest::collection::vec(proptest::bool::ANY, 150),
    ) {
        let mut runs: [Vec<(u64, u64)>; 3] = Default::default();
        for (i, &arc) in arcs.iter().enumerate() {
            runs[assign[i]].push(arc);
            if dup_mask[i] {
                runs[(assign[i] + 1) % 3].push(arc);
            }
        }
        let paths: Vec<PathBuf> = runs.iter().map(|run| write_run("onep", 40, run)).collect();
        let one = scratch("one.krsc");
        let two = scratch("two.krsc");
        let s1 = build_external_csr(&paths, &one, 512).expect("single-pass build");
        let s2 = build_external_csr_two_pass(&paths, &two, 512).expect("two-pass build");
        prop_assert_eq!(s1.arcs, s2.arcs);
        prop_assert_eq!(s1.merge_passes, 1);
        prop_assert_eq!(s2.merge_passes, 2);
        let b1 = std::fs::read(&one).expect("read single-pass output");
        let b2 = std::fs::read(&two).expect("read two-pass output");
        prop_assert_eq!(b1, b2, "single-pass KRSC bytes differ from two-pass");
        for p in paths.iter().chain([&one, &two]) {
            std::fs::remove_file(p).ok();
        }
    }
}
