//! Out-of-core edge shards: streaming sorted-run spill files and the
//! external-memory CSR build over them.
//!
//! The distributed generator can produce a `C = A ⊗ B` far larger than
//! RAM; this module is the disk tier that makes such a product storable
//! and analyzable on a small box. Three layers:
//!
//! * **Sorted-run shard files** (`KRSH` version 2): a length-prefixed
//!   binary format holding one *sorted* run of arcs, delta-encoded as
//!   `(row-delta, target-delta)` canonical LEB128 varints over the
//!   already-sorted stream (~2–4 bytes/arc), followed by a per-row
//!   `(row, count)` footer sidecar that lets the external build predict
//!   the degree table without a counting pass. Files stamped with any
//!   other version — including the retired fixed-width v1 — are
//!   rejected at open. [`ShardWriter`] streams arcs out through a
//!   bounded buffer (enforcing sortedness at write time);
//!   [`ShardReader`] streams them back a *block* at a time,
//!   validating declared lengths with overflow-checked arithmetic
//!   *before* trusting them — the same adversarial-decode discipline as
//!   [`crate::io::decode_binary`] — and re-checking vertex range per arc
//!   (sortedness is structural: deltas cannot be negative), so a
//!   corrupted shard (truncated varint,
//!   overlong encoding, forged count, bit flip) is an error, never a
//!   panic or an attacker-sized allocation.
//! * **K-way merge** ([`merge_shards`] / [`try_merge_shards`]): a
//!   tournament (loser-tree) merge of any number of sorted runs into one
//!   globally sorted, deduplicated arc stream delivered to a visitor —
//!   `log2(k)` comparisons per arc against decoded blocks, no heap churn
//!   and no per-arc syscalls. The fallible variant propagates visitor
//!   errors at the failing arc. Resident memory is one bounded
//!   buffer per run plus the `O(k)` tree — never `O(edges)`.
//! * **CSR builds**: [`CsrGraph::from_shards`] materializes the merged
//!   stream as an in-memory CSR **bit-identical** to
//!   [`CsrGraph::from_edge_list`] over the same arc multiset;
//!   [`build_external_csr`] goes fully out-of-core in **one** merge
//!   pass: run footers predict the offset table, the pass verifies every
//!   row boundary against the prediction while appending targets, and
//!   only a divergence (cross-run duplicates, forged footers) triggers
//!   an `O(n)` seek-back rewrite — output byte-identical to the
//!   reference two-pass build ([`build_external_csr_two_pass`]) in every
//!   case. [`ExternalCsr`] reads that file back — whole (for
//!   validation-scale equality checks), row-at-a-time through an
//!   optional bounded block cache (4-way set-associative, seeded
//!   random eviction), or via streaming visitors
//!   ([`ExternalCsr::for_each_degree`], [`ExternalCsr::for_each_row`])
//!   for beyond-RAM analytics.
//!
//! Spill and merge volumes are mirrored into `kron-obs` counters
//! (`shard.spilled_arcs`, `shard.merged_arcs`,
//! `shard.merge_duplicates_discarded`, …) so an [`ObsReport`] covers the
//! disk tier alongside the kernels.
//!
//! [`ObsReport`]: ../../kron_obs/report/struct.ObsReport.html

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::csr::CsrGraph;
use crate::hash::{mix64, splitmix64};
use crate::{Arc, GraphError, Result};

/// Magic bytes of a sorted-run shard file.
pub const SHARD_MAGIC: &[u8; 4] = b"KRSH";
/// Wire version of the delta-varint shard format with a row footer — the
/// only version readers accept.
pub const SHARD_V2_VERSION: u32 = 2;
/// Magic bytes of an external CSR file.
pub const CSR_MAGIC: &[u8; 4] = b"KRSC";
/// Current external CSR format version.
pub const CSR_VERSION: u32 = 1;

/// Default IO buffer capacity for shard readers and writers (bytes).
pub const DEFAULT_IO_BUF: usize = 64 * 1024;

/// Longest canonical LEB128 encoding of a `u64`.
pub const MAX_VARINT_BYTES: usize = 10;

const V2_HEADER: u64 = 40;

/// Placeholder written at create time for the count/payload/footer
/// lengths; a shard dropped before [`ShardWriter::finish`] keeps it, and
/// every reader rejects it (the overflow-checked length reconstruction
/// fails), so half-written shards can never be merged.
const UNFINISHED: u64 = u64::MAX;

fn corrupt(path: &Path, message: impl std::fmt::Display) -> GraphError {
    GraphError::Parse { line: 0, message: format!("{}: {message}", path.display()) }
}

// ---------------------------------------------------------------------------
// Canonical LEB128 varints
// ---------------------------------------------------------------------------

/// Outcome of decoding one varint from the front of a byte window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Varint {
    /// A complete, canonical varint of `len` bytes.
    Value {
        /// Decoded value.
        value: u64,
        /// Encoded length in bytes.
        len: usize,
    },
    /// The window ended mid-varint; refill the window and retry.
    NeedMore,
}

/// Appends the canonical LEB128 encoding of `value` to `out` and returns
/// the encoded length (1..=[`MAX_VARINT_BYTES`]).
pub fn encode_varint(value: u64, out: &mut Vec<u8>) -> usize {
    let mut v = value;
    let mut len = 0usize;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        len += 1;
        if v == 0 {
            out.push(byte);
            return len;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one canonical LEB128 varint from the front of `bytes`.
///
/// Rejections (the encoding is bijective, so every value has exactly one
/// accepted spelling): encodings longer than [`MAX_VARINT_BYTES`], a
/// tenth byte carrying bits beyond 2^64 or a continuation flag, and
/// overlong encodings whose final group is zero. A window that ends
/// before the terminating byte yields [`Varint::NeedMore`], never an
/// out-of-bounds read.
pub fn decode_varint(bytes: &[u8]) -> std::result::Result<Varint, &'static str> {
    let mut value = 0u64;
    for (i, &byte) in bytes.iter().enumerate().take(MAX_VARINT_BYTES) {
        if i == MAX_VARINT_BYTES - 1 && byte > 1 {
            return Err("varint carries bits beyond 64 or overlong continuation");
        }
        let group = (byte & 0x7f) as u64;
        value |= group << (7 * i as u32);
        if byte & 0x80 == 0 {
            if i > 0 && group == 0 {
                return Err("overlong varint (zero final group)");
            }
            return Ok(Varint::Value { value, len: i + 1 });
        }
    }
    if bytes.len() < MAX_VARINT_BYTES {
        Ok(Varint::NeedMore)
    } else {
        Err("varint longer than 10 bytes")
    }
}

// ---------------------------------------------------------------------------
// Header parsing shared by the reader and the footer scan
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ShardHeader {
    n: u64,
    count: u64,
    /// Arc payload bytes.
    payload_len: u64,
    /// Footer bytes.
    footer_len: u64,
}

/// Reads and fully validates a shard header from `file`: magic, version,
/// and an overflow-checked reconstruction of the exact file length from
/// the declared sizes — truncation, trailing garbage, forged counts and
/// the [`UNFINISHED`] placeholders are all rejected before any
/// allocation or payload read.
fn read_shard_header(file: &mut File, path: &Path) -> Result<ShardHeader> {
    let len = file.metadata()?.len();
    if len < 8 {
        return Err(corrupt(path, "shard truncated (header)"));
    }
    let mut fixed = [0u8; 8];
    file.read_exact(&mut fixed)?;
    if &fixed[0..4] != SHARD_MAGIC {
        return Err(corrupt(path, "bad magic (expected KRSH)"));
    }
    let version = u32::from_le_bytes(fixed[4..8].try_into().expect("4 bytes"));
    if version != SHARD_V2_VERSION {
        return Err(corrupt(
            path,
            format!("unsupported shard version {version} (expected {SHARD_V2_VERSION})"),
        ));
    }
    if len < V2_HEADER {
        return Err(corrupt(path, "shard truncated (header)"));
    }
    let mut rest = [0u8; 32];
    file.read_exact(&mut rest)?;
    let n = u64::from_le_bytes(rest[0..8].try_into().expect("8 bytes"));
    let count = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(rest[16..24].try_into().expect("8 bytes"));
    let footer_len = u64::from_le_bytes(rest[24..32].try_into().expect("8 bytes"));
    let need = payload_len
        .checked_add(footer_len)
        .and_then(|b| b.checked_add(V2_HEADER))
        .ok_or_else(|| corrupt(path, "declared sizes overflow byte length"))?;
    if len != need {
        return Err(corrupt(
            path,
            format!("file length {len} does not match declared sizes ({need})"),
        ));
    }
    if count == 0 {
        if payload_len != 0 || footer_len != 0 {
            return Err(corrupt(path, "empty run with non-empty payload or footer"));
        }
    } else {
        // Each arc encodes as 2..=20 payload bytes; the footer holds
        // 1..=count entries of 2..=20 bytes. A forged count dies here for
        // the cost of two multiplications.
        let min_payload = count
            .checked_mul(2)
            .ok_or_else(|| corrupt(path, "arc count overflows byte length"))?;
        let max_payload = count.saturating_mul(20);
        if payload_len < min_payload || payload_len > max_payload {
            return Err(corrupt(
                path,
                format!("payload length {payload_len} impossible for {count} arcs"),
            ));
        }
        if footer_len < 2 || footer_len > max_payload {
            return Err(corrupt(
                path,
                format!("footer length {footer_len} impossible for {count} arcs"),
            ));
        }
    }
    Ok(ShardHeader { n, count, payload_len, footer_len })
}

/// Summary of one finished shard run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// File the run was written to.
    pub path: PathBuf,
    /// Vertex-universe size stamped in the header.
    pub n: u64,
    /// Arcs in the run.
    pub arcs: u64,
    /// Total bytes of the finished file (header + payload + footer).
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer of one sorted run.
///
/// Arcs must be pushed in non-decreasing `(source, target)` order —
/// enforced per push, because the merge's correctness (and the
/// non-negative deltas) rest on it. The header's trailing length fields
/// are patched in by [`ShardWriter::finish`]; until then the file
/// carries poisoned sizes no reader accepts.
#[derive(Debug)]
pub struct ShardWriter {
    out: BufWriter<File>,
    path: PathBuf,
    n: u64,
    arcs: u64,
    last: Option<Arc>,
    /// Payload bytes written so far.
    payload_len: u64,
    /// Reusable per-push encode scratch (<= 20 bytes live).
    scratch: Vec<u8>,
    /// Encoded `(row-delta, count)` footer entries, appended at finish.
    /// `O(min(arcs, n))` entries of a few bytes each — bounded by the
    /// run size, never the graph size.
    footer: Vec<u8>,
    footer_row: u64,
    footer_count: u64,
    footer_prev_row: u64,
}

impl ShardWriter {
    /// Creates a shard over a universe of `n` vertices with the default
    /// IO buffer.
    pub fn create<P: AsRef<Path>>(path: P, n: u64) -> Result<Self> {
        Self::with_buffer(path, n, DEFAULT_IO_BUF)
    }

    /// Creates a shard with an explicit IO buffer capacity — the only
    /// resident memory the writer holds beyond the (run-bounded) footer
    /// accumulator.
    pub fn with_buffer<P: AsRef<Path>>(path: P, n: u64, buf_bytes: usize) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut out = BufWriter::with_capacity(buf_bytes.max(64), File::create(&path)?);
        out.write_all(SHARD_MAGIC)?;
        out.write_all(&SHARD_V2_VERSION.to_le_bytes())?;
        out.write_all(&n.to_le_bytes())?;
        for _ in 0..3 {
            out.write_all(&UNFINISHED.to_le_bytes())?;
        }
        Ok(ShardWriter {
            out,
            path,
            n,
            arcs: 0,
            last: None,
            payload_len: 0,
            scratch: Vec::new(),
            footer: Vec::new(),
            footer_row: 0,
            footer_count: 0,
            footer_prev_row: 0,
        })
    }

    fn flush_footer_entry(&mut self) {
        let mut entry = std::mem::take(&mut self.footer);
        encode_varint(self.footer_row - self.footer_prev_row, &mut entry);
        encode_varint(self.footer_count, &mut entry);
        self.footer = entry;
        self.footer_prev_row = self.footer_row;
    }

    /// Appends one arc; must be `>=` the previous arc and in `0..n`.
    pub fn push(&mut self, u: u64, v: u64) -> Result<()> {
        if u >= self.n || v >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: u.max(v), n: self.n });
        }
        if let Some(last) = self.last {
            if (u, v) < last {
                return Err(corrupt(
                    &self.path,
                    format!("arc ({u},{v}) pushed after {last:?} — runs must be sorted"),
                ));
            }
        }
        // Deltas against (0, 0) before the first arc make the rule
        // uniform: row delta, then target delta within a row or the
        // absolute target on a row change.
        let (pu, pv) = self.last.unwrap_or((0, 0));
        let row_delta = u - pu;
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_varint(row_delta, &mut scratch);
        if row_delta == 0 {
            encode_varint(v - pv, &mut scratch);
        } else {
            encode_varint(v, &mut scratch);
        }
        self.out.write_all(&scratch)?;
        self.payload_len += scratch.len() as u64;
        self.scratch = scratch;
        // Row footer: close the open entry on a row change.
        if self.arcs == 0 {
            self.footer_row = u;
            self.footer_count = 1;
        } else if u == self.footer_row {
            self.footer_count += 1;
        } else {
            self.flush_footer_entry();
            self.footer_row = u;
            self.footer_count = 1;
        }
        self.last = Some((u, v));
        self.arcs += 1;
        Ok(())
    }

    /// Arcs pushed so far.
    pub fn arcs(&self) -> u64 {
        self.arcs
    }

    /// Flushes, appends the footer, patches the header's length fields,
    /// and returns the run summary. Dropping a writer without calling
    /// this leaves the file unreadable by design.
    pub fn finish(mut self) -> Result<ShardInfo> {
        if self.arcs > 0 {
            self.flush_footer_entry();
        }
        let footer_len = self.footer.len() as u64;
        let footer = std::mem::take(&mut self.footer);
        self.out.write_all(&footer)?;
        self.out.flush()?;
        // count, payload_len and footer_len are contiguous at byte 16 —
        // one seek patches all three.
        let file = self.out.get_mut();
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&self.arcs.to_le_bytes())?;
        file.write_all(&self.payload_len.to_le_bytes())?;
        file.write_all(&footer_len.to_le_bytes())?;
        file.flush()?;
        let bytes = V2_HEADER + self.payload_len + footer_len;
        kron_obs::counter!("shard.spilled_runs").add(1);
        kron_obs::counter!("shard.spilled_arcs").add(self.arcs);
        kron_obs::counter!("shard.spilled_bytes").add(bytes);
        Ok(ShardInfo { path: self.path, n: self.n, arcs: self.arcs, bytes })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Streaming reader of one sorted run; validates framing at open and
/// vertex range per arc, decoding a *block* of arcs per refill so the
/// merge inner loop never touches a syscall.
///
/// Resident memory is split between the raw byte window and the decoded
/// arc block so the total stays within the requested `buf_bytes` (plus a
/// small floor for tiny requests).
#[derive(Debug)]
pub struct ShardReader {
    file: File,
    path: PathBuf,
    n: u64,
    total: u64,
    /// Arcs not yet decoded into the block.
    undecoded: u64,
    /// Payload bytes not yet pulled from the file.
    payload_left: u64,
    raw: Vec<u8>,
    raw_start: usize,
    raw_end: usize,
    block: Vec<Arc>,
    block_cap: usize,
    block_pos: usize,
    /// Delta state: the previously decoded arc ((0, 0) initially).
    prev: Arc,
}

impl ShardReader {
    /// Opens a shard with the default IO buffer.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::with_buffer(path, DEFAULT_IO_BUF)
    }

    /// Opens a shard with an explicit buffer budget (raw window plus
    /// decoded block) — the only resident memory the reader holds.
    ///
    /// The declared sizes are validated against the real file length
    /// (overflow-checked, trailing bytes rejected) **before** anything
    /// is believed, so a forged header costs a few comparisons, not an
    /// OOM.
    pub fn with_buffer<P: AsRef<Path>>(path: P, buf_bytes: usize) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let header = read_shard_header(&mut file, &path)?;
        // Half the budget for raw bytes, half for decoded 16-byte arcs.
        let raw_cap = (buf_bytes / 2).max(64);
        let block_cap = (buf_bytes / 32).clamp(16, 4096);
        Ok(ShardReader {
            file,
            path,
            n: header.n,
            total: header.count,
            undecoded: header.count,
            payload_left: header.payload_len,
            raw: vec![0u8; raw_cap],
            raw_start: 0,
            raw_end: 0,
            block: Vec::with_capacity(block_cap),
            block_cap,
            block_pos: 0,
            prev: (0, 0),
        })
    }

    /// Vertex-universe size stamped in the header.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Total arcs declared by the (validated) header.
    pub fn arcs_total(&self) -> u64 {
        self.total
    }

    /// Compacts the raw window and refills it from the payload region.
    /// Returns the bytes added (0 once the payload is exhausted).
    fn fill_raw(&mut self) -> Result<usize> {
        if self.raw_start > 0 {
            self.raw.copy_within(self.raw_start..self.raw_end, 0);
            self.raw_end -= self.raw_start;
            self.raw_start = 0;
        }
        let space = self.raw.len() - self.raw_end;
        let want = self.payload_left.min(space as u64) as usize;
        if want == 0 {
            return Ok(0);
        }
        // The framing was validated at open, so a short read here means
        // the file shrank underneath us — surface it as corruption.
        self.file
            .read_exact(&mut self.raw[self.raw_end..self.raw_end + want])
            .map_err(|_| corrupt(&self.path, "payload truncated mid-run"))?;
        self.raw_end += want;
        self.payload_left -= want as u64;
        Ok(want)
    }

    /// Decodes one varint off the raw window, refilling as needed.
    fn take_varint(&mut self) -> Result<u64> {
        loop {
            match decode_varint(&self.raw[self.raw_start..self.raw_end]) {
                Ok(Varint::Value { value, len }) => {
                    self.raw_start += len;
                    return Ok(value);
                }
                Ok(Varint::NeedMore) => {
                    if self.fill_raw()? == 0 {
                        return Err(corrupt(&self.path, "payload ends mid-varint"));
                    }
                }
                Err(msg) => return Err(corrupt(&self.path, msg)),
            }
        }
    }

    fn decode_arc(&mut self) -> Result<Arc> {
        let row_delta = self.take_varint()?;
        let u = self
            .prev
            .0
            .checked_add(row_delta)
            .ok_or_else(|| corrupt(&self.path, "row delta overflows u64"))?;
        let second = self.take_varint()?;
        let v = if row_delta == 0 {
            self.prev
                .1
                .checked_add(second)
                .ok_or_else(|| corrupt(&self.path, "target delta overflows u64"))?
        } else {
            second
        };
        // Sortedness is structural — deltas cannot be negative — so only
        // the range needs revalidating.
        if u >= self.n || v >= self.n {
            return Err(corrupt(&self.path, format!("arc ({u},{v}) out of range (n={})", self.n)));
        }
        self.prev = (u, v);
        Ok((u, v))
    }

    /// Decodes up to a block of arcs from the raw window.
    fn refill_block(&mut self) -> Result<()> {
        self.block.clear();
        self.block_pos = 0;
        while self.block.len() < self.block_cap && self.undecoded > 0 {
            let arc = self.decode_arc()?;
            self.block.push(arc);
            self.undecoded -= 1;
        }
        Ok(())
    }

    /// Next arc, or `None` at end of run. Errors on IO failure, an
    /// out-of-range vertex, or a malformed / truncated encoding —
    /// corruption in the payload surfaces here instead of corrupting a
    /// merge.
    #[inline]
    pub fn next_arc(&mut self) -> Result<Option<Arc>> {
        if self.block_pos == self.block.len() {
            if self.undecoded == 0 {
                // Every declared arc decoded: the payload must be fully
                // consumed, or the count was forged low.
                if self.raw_end - self.raw_start > 0 || self.payload_left > 0 {
                    return Err(corrupt(&self.path, "trailing bytes inside payload"));
                }
                return Ok(None);
            }
            self.refill_block()?;
        }
        let arc = self.block[self.block_pos];
        self.block_pos += 1;
        Ok(Some(arc))
    }
}

// ---------------------------------------------------------------------------
// Footer scan
// ---------------------------------------------------------------------------

/// Reads one varint byte-at-a-time from `input`, bounded by `left`.
fn footer_varint(input: &mut impl Read, left: &mut u64, path: &Path) -> Result<u64> {
    let mut buf = [0u8; MAX_VARINT_BYTES];
    let mut filled = 0usize;
    loop {
        if *left == 0 {
            return Err(corrupt(path, "footer ends mid-varint"));
        }
        input.read_exact(&mut buf[filled..filled + 1])?;
        *left -= 1;
        filled += 1;
        match decode_varint(&buf[..filled]) {
            Ok(Varint::Value { value, .. }) => return Ok(value),
            Ok(Varint::NeedMore) => continue,
            Err(msg) => return Err(corrupt(path, msg)),
        }
    }
}

/// Adds a shard's per-row arc counts (from its footer sidecar) into
/// `counts[row + 1]`, the layout a prefix sum turns into CSR offsets.
///
/// The footer is validated like any other untrusted input: rows must be
/// strictly increasing and `< n`, counts positive, every addition
/// overflow-checked, and the entry sum must reproduce the header's arc
/// count exactly. A footer can still *lie consistently* about which rows
/// its arcs live in — [`build_external_csr`] verifies every row boundary
/// during the merge pass and self-heals, so a forged footer costs a
/// rewrite, never a corrupt CSR.
pub fn sum_footer_degrees<P: AsRef<Path>>(
    path: P,
    counts: &mut [u64],
    buf_bytes: usize,
) -> Result<()> {
    let path = path.as_ref();
    let mut file = File::open(path)?;
    let header = read_shard_header(&mut file, path)?;
    if counts.len() as u64 != header.n + 1 {
        return Err(corrupt(
            path,
            format!("degree table sized {} for universe n={}", counts.len(), header.n),
        ));
    }
    file.seek(SeekFrom::Start(V2_HEADER + header.payload_len))?;
    let mut input = BufReader::with_capacity(buf_bytes.clamp(64, DEFAULT_IO_BUF), file);
    let mut left = header.footer_len;
    let mut prev_row = 0u64;
    let mut first = true;
    let mut sum = 0u64;
    while left > 0 {
        let delta = footer_varint(&mut input, &mut left, path)?;
        let count = footer_varint(&mut input, &mut left, path)?;
        let row = if first {
            delta
        } else {
            if delta == 0 {
                return Err(corrupt(path, "footer rows not strictly increasing"));
            }
            prev_row
                .checked_add(delta)
                .ok_or_else(|| corrupt(path, "footer row overflows u64"))?
        };
        if row >= header.n {
            return Err(corrupt(path, format!("footer row {row} out of range (n={})", header.n)));
        }
        if count == 0 {
            return Err(corrupt(path, "footer entry with zero count"));
        }
        sum = sum
            .checked_add(count)
            .filter(|&s| s <= header.count)
            .ok_or_else(|| corrupt(path, "footer counts exceed declared arcs"))?;
        let slot = &mut counts[row as usize + 1];
        *slot = slot
            .checked_add(count)
            .ok_or_else(|| corrupt(path, "summed degree overflows u64"))?;
        prev_row = row;
        first = false;
    }
    if sum != header.count {
        return Err(corrupt(
            path,
            format!("footer counts sum to {sum}, header declares {}", header.count),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Tournament merge
// ---------------------------------------------------------------------------

/// Accounting of one merge pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Runs merged.
    pub runs: usize,
    /// Unique arcs emitted.
    pub arcs_out: u64,
    /// Duplicate arcs discarded (within or across runs).
    pub duplicates_discarded: u64,
}

/// `true` when run `a`'s head must be emitted before run `b`'s: smaller
/// arc first, exhausted runs (`None`) last, ties to the lower run index
/// — exactly the order a min-heap of `(arc, index)` pairs would pop, so
/// loser-tree merges are bit-identical to the PR 8 heap merge.
fn beats(heads: &[Option<Arc>], a: u32, b: u32) -> bool {
    match (heads[a as usize], heads[b as usize]) {
        (Some(x), Some(y)) => (x, a) < (y, b),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a < b,
    }
}

/// Loser tree over `k2` (a power of two) runs: internal nodes hold the
/// *loser* of their subtree's playoff, slot 0 the overall winner.
/// Replacing the winner's head replays exactly one leaf-to-root path —
/// `log2(k)` comparisons per emitted arc, against `k` heap-sift
/// comparisons *plus* reheap churn for the `BinaryHeap` it replaces.
///
/// Invariants: (1) `tree[0]` always indexes the run whose head is the
/// global minimum under [`beats`]; (2) every internal node holds the
/// index that lost its subtree's final playoff, so a replay only ever
/// compares the changed leaf's path; (3) exhausted runs carry `None`
/// heads, ordered after every live head, so termination is "winner's
/// head is `None`" — no separate bookkeeping.
struct LoserTree {
    k2: usize,
    tree: Vec<u32>,
}

impl LoserTree {
    fn new(heads: &[Option<Arc>]) -> Self {
        let k2 = heads.len();
        debug_assert!(k2.is_power_of_two());
        let mut winners = vec![0u32; 2 * k2];
        for (i, w) in winners.iter_mut().enumerate().skip(k2) {
            *w = (i - k2) as u32;
        }
        let mut tree = vec![0u32; k2];
        for j in (1..k2).rev() {
            let a = winners[2 * j];
            let b = winners[2 * j + 1];
            let (win, lose) = if beats(heads, a, b) { (a, b) } else { (b, a) };
            winners[j] = win;
            tree[j] = lose;
        }
        tree[0] = winners[1];
        LoserTree { k2, tree }
    }

    #[inline]
    fn winner(&self) -> usize {
        self.tree[0] as usize
    }

    /// Replays the path from `leaf`'s parent to the root after `leaf`'s
    /// head changed.
    #[inline]
    fn replay(&mut self, heads: &[Option<Arc>], leaf: usize) {
        let mut w = leaf as u32;
        let mut j = (self.k2 + leaf) / 2;
        while j >= 1 {
            if beats(heads, self.tree[j], w) {
                std::mem::swap(&mut self.tree[j], &mut w);
            }
            j /= 2;
        }
        self.tree[0] = w;
    }
}

/// K-way merges sorted runs into one sorted, deduplicated arc stream,
/// delivered to the fallible `emit` in strictly increasing
/// `(source, target)` order; an `Err` from `emit` aborts the merge at
/// that arc — the error surfaces at the failing write, not at a flush.
///
/// All runs must agree on `n`. Resident memory: the readers' bounded
/// buffers plus the `O(k)` tournament tree.
pub fn try_merge_shards<F: FnMut(u64, u64) -> Result<()>>(
    mut readers: Vec<ShardReader>,
    mut emit: F,
) -> Result<MergeStats> {
    let mut stats = MergeStats { runs: readers.len(), ..MergeStats::default() };
    if let Some(first) = readers.first() {
        let n = first.n();
        for r in &readers {
            if r.n() != n {
                return Err(corrupt(
                    &r.path,
                    format!("shard n={} disagrees with sibling n={n}", r.n()),
                ));
            }
        }
    }
    if !readers.is_empty() {
        let k2 = readers.len().next_power_of_two();
        let mut heads: Vec<Option<Arc>> = Vec::with_capacity(k2);
        for reader in readers.iter_mut() {
            heads.push(reader.next_arc()?);
        }
        heads.resize(k2, None);
        let mut tree = LoserTree::new(&heads);
        let mut last: Option<Arc> = None;
        loop {
            let w = tree.winner();
            let Some(arc) = heads[w] else { break };
            heads[w] = readers[w].next_arc()?;
            tree.replay(&heads, w);
            if last == Some(arc) {
                stats.duplicates_discarded += 1;
            } else {
                last = Some(arc);
                stats.arcs_out += 1;
                emit(arc.0, arc.1)?;
            }
        }
    }
    kron_obs::counter!("shard.merged_runs").add(stats.runs as u64);
    kron_obs::counter!("shard.merged_arcs").add(stats.arcs_out);
    kron_obs::counter!("shard.merge_duplicates_discarded").add(stats.duplicates_discarded);
    Ok(stats)
}

/// Infallible-visitor wrapper over [`try_merge_shards`].
pub fn merge_shards<F: FnMut(u64, u64)>(readers: Vec<ShardReader>, mut emit: F) -> Result<MergeStats> {
    try_merge_shards(readers, |u, v| {
        emit(u, v);
        Ok(())
    })
}

fn open_all<P: AsRef<Path>>(paths: &[P], buf_bytes: usize) -> Result<Vec<ShardReader>> {
    paths.iter().map(|p| ShardReader::with_buffer(p, buf_bytes)).collect()
}

impl CsrGraph {
    /// External-memory CSR build: k-way merges the sorted shard runs at
    /// `paths` straight into CSR arrays — **bit-identical** to
    /// [`CsrGraph::from_edge_list`] over the union of the runs' arcs, but
    /// the 16-byte-per-arc edge list and the counting-sort scratch never
    /// exist. Transient memory beyond the returned CSR is one `buf_bytes`
    /// budget per run plus the tournament tree.
    ///
    /// `n` comes from the shard headers (which must agree). An empty
    /// `paths` slice is rejected — there is no `n` to build over.
    pub fn from_shards<P: AsRef<Path>>(paths: &[P], buf_bytes: usize) -> Result<CsrGraph> {
        let _span = kron_obs::span::enter("shard/from_shards");
        let readers = open_all(paths, buf_bytes)?;
        let first = readers
            .first()
            .ok_or_else(|| corrupt(Path::new("<no shards>"), "from_shards needs >= 1 run"))?;
        let n = first.n();
        // Upper bound (duplicates only shrink it): reserving exactly once
        // keeps the peak at one targets array, no doubling.
        let declared: u64 = readers.iter().map(ShardReader::arcs_total).sum();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut targets: Vec<u64> = Vec::with_capacity(declared as usize);
        offsets.push(0usize);
        let mut row = 0u64;
        merge_shards(readers, |u, v| {
            // Arcs arrive sorted by (u, v); close out rows up to u.
            while row < u {
                offsets.push(targets.len());
                row += 1;
            }
            targets.push(v);
        })?;
        while row < n {
            offsets.push(targets.len());
            row += 1;
        }
        Ok(CsrGraph::from_sorted_parts(n, offsets, targets))
    }
}

// ---------------------------------------------------------------------------
// External CSR build
// ---------------------------------------------------------------------------

/// Accounting of one external CSR build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExternalCsrStats {
    /// Unique arcs written.
    pub arcs: u64,
    /// Duplicates discarded by the merge.
    pub duplicates_discarded: u64,
    /// Bytes of the emitted CSR file.
    pub bytes: u64,
    /// Merge passes taken (1 for [`build_external_csr`], 2 for the
    /// reference builder).
    pub merge_passes: u32,
    /// Whether the offset region had to be rewritten after the merge
    /// pass (cross-run duplicates or a lying footer).
    pub offsets_rewritten: bool,
}

fn write_csr_header<W: Write>(out: &mut W, n: u64, count: u64) -> Result<()> {
    out.write_all(CSR_MAGIC)?;
    out.write_all(&CSR_VERSION.to_le_bytes())?;
    out.write_all(&n.to_le_bytes())?;
    out.write_all(&count.to_le_bytes())?;
    Ok(())
}

/// Fully out-of-core CSR build in **one** merge pass: run footers
/// predict the offset table, which is written optimistically before the
/// pass; the pass appends targets while verifying every row boundary
/// against the prediction. If the prediction holds (honest footers, no
/// cross-run duplicates — the normal spill output) the file is already
/// correct when the pass ends. Any divergence flips the build into
/// repair mode, which finalizes true boundaries in place and rewrites the
/// `O(n)` offset region with one seek — so the output is
/// **byte-identical** to [`build_external_csr_two_pass`] in every case,
/// for half the merge work in the common one.
///
/// Write errors surface at the failing write (the merge visitor is
/// fallible), not at a final flush. Peak resident memory is the
/// `(n + 1)`-entry offset table plus the bounded run buffers:
/// independent of the arc count, which only ever exists on disk.
pub fn build_external_csr<P: AsRef<Path>>(
    paths: &[P],
    out: &Path,
    buf_bytes: usize,
) -> Result<ExternalCsrStats> {
    let _span = kron_obs::span::enter("shard/build_external_csr");
    let readers = open_all(paths, buf_bytes)?;
    let first = readers
        .first()
        .ok_or_else(|| corrupt(Path::new("<no shards>"), "external build needs >= 1 run"))?;
    let n = first.n();
    let n_usize = n as usize;

    // Predicted offsets from the footers. The prediction is untrusted —
    // every row boundary is re-verified during the merge pass below.
    let mut offsets = vec![0u64; n_usize + 1];
    for p in paths {
        sum_footer_degrees(p, &mut offsets, buf_bytes)?;
    }
    for i in 1..=n_usize {
        offsets[i] = offsets[i]
            .checked_add(offsets[i - 1])
            .ok_or_else(|| corrupt(out, "predicted offsets overflow u64"))?;
    }
    let predicted_total = offsets[n_usize];

    let mut writer = BufWriter::with_capacity(buf_bytes.max(64), File::create(out)?);
    write_csr_header(&mut writer, n, predicted_total)?;
    for offset in &offsets {
        writer.write_all(&offset.to_le_bytes())?;
    }

    // The single merge pass: append targets, and verify each row boundary
    // the moment the stream moves past it. `dirty` flips on the first
    // boundary that disagrees with the prediction; every boundary is
    // overwritten with the truth as it is passed, so from then on
    // `offsets` is the true table.
    let mut dirty = false;
    let mut row = 0u64;
    let mut pos = 0u64;
    let mut close_row = |row: &mut u64, pos: u64| {
        let slot = *row as usize + 1;
        if offsets[slot] != pos {
            dirty = true;
            offsets[slot] = pos;
        }
        *row += 1;
    };
    let writer_ref = &mut writer;
    let stats = try_merge_shards(readers, |u, v| {
        while row < u {
            close_row(&mut row, pos);
        }
        writer_ref.write_all(&v.to_le_bytes())?;
        pos += 1;
        Ok(())
    })?;
    while row < n {
        close_row(&mut row, pos);
    }
    debug_assert!(dirty || stats.arcs_out == predicted_total);

    writer.flush()?;
    if dirty {
        // Repair: the arc count and the offset region are contiguous
        // from byte 16, so one seek rewrites both.
        let file = writer.get_mut();
        file.seek(SeekFrom::Start(16))?;
        let mut patch = BufWriter::with_capacity(buf_bytes.max(64), &mut *file);
        patch.write_all(&stats.arcs_out.to_le_bytes())?;
        for offset in &offsets {
            patch.write_all(&offset.to_le_bytes())?;
        }
        patch.flush()?;
    }
    let bytes = 24 + (n + 1) * 8 + stats.arcs_out * 8;
    kron_obs::counter!("shard.external_csr_arcs").add(stats.arcs_out);
    kron_obs::counter!("shard.external_csr_bytes").add(bytes);
    if dirty {
        kron_obs::counter!("shard.external_csr_offset_rewrites").add(1);
    }
    Ok(ExternalCsrStats {
        arcs: stats.arcs_out,
        duplicates_discarded: stats.duplicates_discarded,
        bytes,
        merge_passes: 1,
        offsets_rewritten: dirty,
    })
}

/// The reference builder: two merge passes (degree count, then targets),
/// no footer use. Kept as the conformance oracle —
/// [`build_external_csr`] must produce byte-identical files.
pub fn build_external_csr_two_pass<P: AsRef<Path>>(
    paths: &[P],
    out: &Path,
    buf_bytes: usize,
) -> Result<ExternalCsrStats> {
    let _span = kron_obs::span::enter("shard/build_external_csr_two_pass");
    let readers = open_all(paths, buf_bytes)?;
    let first = readers
        .first()
        .ok_or_else(|| corrupt(Path::new("<no shards>"), "external build needs >= 1 run"))?;
    let n = first.n();
    // Pass 1: degree counts (the only O(n) state of the build).
    let mut counts = vec![0u64; n as usize + 1];
    let pass1 = merge_shards(readers, |u, _| counts[u as usize + 1] += 1)?;
    for i in 0..n as usize {
        counts[i + 1] += counts[i];
    }
    let mut writer = BufWriter::with_capacity(buf_bytes.max(64), File::create(out)?);
    write_csr_header(&mut writer, n, pass1.arcs_out)?;
    for offset in &counts {
        writer.write_all(&offset.to_le_bytes())?;
    }
    // Pass 2: stream targets in merged order, which is exactly CSR order.
    let readers = open_all(paths, buf_bytes)?;
    let writer_ref = &mut writer;
    let pass2 = try_merge_shards(readers, move |_, v| {
        writer_ref.write_all(&v.to_le_bytes())?;
        Ok(())
    })?;
    if pass2 != pass1 {
        return Err(corrupt(out, "shards changed between merge passes"));
    }
    writer.flush()?;
    let bytes = 24 + (n + 1) * 8 + pass1.arcs_out * 8;
    kron_obs::counter!("shard.external_csr_arcs").add(pass1.arcs_out);
    kron_obs::counter!("shard.external_csr_bytes").add(bytes);
    Ok(ExternalCsrStats {
        arcs: pass1.arcs_out,
        duplicates_discarded: pass1.duplicates_discarded,
        bytes,
        merge_passes: 2,
        offsets_rewritten: false,
    })
}

// ---------------------------------------------------------------------------
// External CSR reader with an optional block cache
// ---------------------------------------------------------------------------

const CACHE_WAYS: usize = 4;

/// Configuration of the [`ExternalCsr`] block cache.
#[derive(Debug, Clone, Copy)]
pub struct CsrCacheConfig {
    /// Bytes per cached block (rounded up to a multiple of 8 so a word
    /// never straddles blocks; floor 64).
    pub block_bytes: usize,
    /// Total block capacity across all sets (rounded to the sets the
    /// 4-way associativity implies).
    pub blocks: usize,
    /// Seed of the deterministic eviction stream.
    pub seed: u64,
}

impl Default for CsrCacheConfig {
    fn default() -> Self {
        CsrCacheConfig { block_bytes: 4096, blocks: 64, seed: 0x9E37_79B9_7F4A_7C15 }
    }
}

/// Cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident block.
    pub hits: u64,
    /// Lookups that had to read the block from disk.
    pub misses: u64,
    /// Resident blocks displaced to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct CacheWay {
    /// Block id + 1; 0 = empty. Avoids an `Option` in the probe loop.
    tag: u64,
    data: Vec<u8>,
}

#[derive(Debug)]
struct CacheSet {
    ways: [CacheWay; CACHE_WAYS],
    rng: u64,
}

/// Bounded 4-way set-associative cache of fixed-size file blocks with
/// seeded random eviction. Way data is allocated lazily on first fill,
/// so an idle cache costs only its set table.
#[derive(Debug)]
struct BlockCache {
    block_bytes: usize,
    set_mask: u64,
    sets: Vec<CacheSet>,
    stats: CacheStats,
}

impl BlockCache {
    fn new(cfg: &CsrCacheConfig) -> Self {
        let block_bytes = cfg.block_bytes.max(64).div_ceil(8) * 8;
        let sets = (cfg.blocks / CACHE_WAYS).max(1).next_power_of_two();
        let sets = (0..sets)
            .map(|i| CacheSet {
                ways: Default::default(),
                rng: mix64(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            })
            .collect::<Vec<_>>();
        let set_mask = sets.len() as u64 - 1;
        BlockCache { block_bytes, set_mask, sets, stats: CacheStats::default() }
    }

    /// Returns the cached block, loading it through `load` on a miss.
    fn block<F: FnOnce(&mut Vec<u8>) -> Result<()>>(
        &mut self,
        block_id: u64,
        load: F,
    ) -> Result<&[u8]> {
        let tag = block_id + 1;
        let set = &mut self.sets[(mix64(block_id) & self.set_mask) as usize];
        let slot = if let Some(hit) = set.ways.iter().position(|w| w.tag == tag) {
            self.stats.hits += 1;
            kron_obs::counter!("shard.block_cache_hits").add(1);
            hit
        } else {
            self.stats.misses += 1;
            kron_obs::counter!("shard.block_cache_misses").add(1);
            let slot = match set.ways.iter().position(|w| w.tag == 0) {
                Some(empty) => empty,
                None => {
                    self.stats.evictions += 1;
                    kron_obs::counter!("shard.block_cache_evictions").add(1);
                    (splitmix64(&mut set.rng) % CACHE_WAYS as u64) as usize
                }
            };
            let way = &mut set.ways[slot];
            way.tag = 0; // poisoned until the load succeeds
            load(&mut way.data)?;
            way.tag = tag;
            slot
        };
        Ok(&set.ways[slot].data)
    }
}

/// Reader over a `KRSC` external CSR file: validated header,
/// O(1)-memory degree/row access (optionally through a bounded block
/// cache), streaming per-degree and per-row visitors for beyond-RAM
/// analytics, and a full [`ExternalCsr::load`] for validation-scale
/// equality checks.
#[derive(Debug)]
pub struct ExternalCsr {
    file: File,
    path: PathBuf,
    n: u64,
    arcs: u64,
    len: u64,
    cache: Option<BlockCache>,
}

impl ExternalCsr {
    /// Opens and validates an external CSR file. The declared `n` and arc
    /// count must reproduce the file length exactly (overflow-checked), so
    /// truncation, forged headers, and trailing garbage are all rejected
    /// before any allocation.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let len = file.metadata()?.len();
        if len < 24 {
            return Err(corrupt(&path, "external CSR truncated (header)"));
        }
        let mut header = [0u8; 24];
        file.read_exact(&mut header)?;
        if &header[0..4] != CSR_MAGIC {
            return Err(corrupt(&path, "bad magic (expected KRSC)"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != CSR_VERSION {
            return Err(corrupt(&path, format!("unsupported CSR version {version}")));
        }
        let n = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let arcs = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let need = n
            .checked_add(1)
            .and_then(|rows| rows.checked_mul(8))
            .and_then(|o| arcs.checked_mul(8).and_then(|t| o.checked_add(t)))
            .and_then(|body| body.checked_add(24))
            .ok_or_else(|| corrupt(&path, "header sizes overflow byte length"))?;
        if len != need {
            return Err(corrupt(
                &path,
                format!("file length {len} does not match declared sizes ({need})"),
            ));
        }
        Ok(ExternalCsr { file, path, n, arcs, len, cache: None })
    }

    /// Opens with a bounded block cache behind [`ExternalCsr::degree`]
    /// and [`ExternalCsr::row`] — repeated point lookups (the serve /
    /// analytics pattern) hit memory instead of a seek + read.
    pub fn open_with_cache<P: AsRef<Path>>(path: P, cfg: CsrCacheConfig) -> Result<Self> {
        let mut ext = Self::open(path)?;
        ext.cache = Some(BlockCache::new(&cfg));
        Ok(ext)
    }

    /// Vertex count.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Stored arc count.
    pub fn arc_count(&self) -> u64 {
        self.arcs
    }

    /// Cache counters (all zero when opened without a cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats).unwrap_or_default()
    }

    /// Reads the little-endian word at `byte_off`, through the block
    /// cache when one is attached.
    fn read_word(&mut self, byte_off: u64) -> Result<u64> {
        debug_assert!(byte_off % 8 == 0 && byte_off + 8 <= self.len);
        match &mut self.cache {
            None => {
                self.file.seek(SeekFrom::Start(byte_off))?;
                let mut buf = [0u8; 8];
                self.file.read_exact(&mut buf)?;
                Ok(u64::from_le_bytes(buf))
            }
            Some(cache) => {
                let bb = cache.block_bytes as u64;
                let block_id = byte_off / bb;
                let within = (byte_off % bb) as usize;
                let file = &mut self.file;
                let file_len = self.len;
                let path = &self.path;
                let block = cache.block(block_id, |data| {
                    let start = block_id * bb;
                    let take = (file_len - start).min(bb) as usize;
                    data.clear();
                    data.resize(take, 0);
                    file.seek(SeekFrom::Start(start))?;
                    file.read_exact(data)
                        .map_err(|_| corrupt(path, "external CSR truncated mid-block"))?;
                    Ok(())
                })?;
                if within + 8 > block.len() {
                    return Err(corrupt(&self.path, "external CSR block short of a word"));
                }
                Ok(u64::from_le_bytes(block[within..within + 8].try_into().expect("8 bytes")))
            }
        }
    }

    fn offset_pair(&mut self, p: u64) -> Result<(u64, u64)> {
        if p >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: p, n: self.n });
        }
        let start = self.read_word(24 + p * 8)?;
        let end = self.read_word(24 + (p + 1) * 8)?;
        if start > end || end > self.arcs {
            return Err(corrupt(&self.path, format!("row {p} offsets [{start},{end}) corrupt")));
        }
        Ok((start, end))
    }

    /// Degree of `p` — two offset reads, O(1) memory.
    pub fn degree(&mut self, p: u64) -> Result<u64> {
        let (start, end) = self.offset_pair(p)?;
        Ok(end - start)
    }

    /// Neighbor row of `p` — memory proportional to that row alone.
    pub fn row(&mut self, p: u64) -> Result<Vec<u64>> {
        let mut row = Vec::new();
        self.row_into(p, &mut row)?;
        Ok(row)
    }

    /// Reads `p`'s neighbor row into `out` (cleared first), reusing its
    /// allocation — the zero-alloc steady state for row-at-a-time scans.
    pub fn row_into(&mut self, p: u64, out: &mut Vec<u64>) -> Result<()> {
        let (start, end) = self.offset_pair(p)?;
        out.clear();
        out.reserve((end - start) as usize);
        let targets_base = 24 + (self.n + 1) * 8;
        if self.cache.is_some() {
            for i in start..end {
                out.push(self.read_word(targets_base + i * 8)?);
            }
        } else {
            self.file.seek(SeekFrom::Start(targets_base + start * 8))?;
            let mut buf = [0u8; 8];
            for _ in start..end {
                self.file.read_exact(&mut buf)?;
                out.push(u64::from_le_bytes(buf));
            }
        }
        Ok(())
    }

    /// Streams every vertex's degree in id order through a bounded
    /// buffer — the beyond-RAM degree scan.
    pub fn for_each_degree<F: FnMut(u64, u64)>(&mut self, mut f: F) -> Result<()> {
        self.file.seek(SeekFrom::Start(24))?;
        let mut reader = BufReader::with_capacity(DEFAULT_IO_BUF, &self.file);
        let mut buf = [0u8; 8];
        reader.read_exact(&mut buf)?;
        let mut prev = u64::from_le_bytes(buf);
        for p in 0..self.n {
            reader.read_exact(&mut buf)?;
            let next = u64::from_le_bytes(buf);
            if next < prev {
                return Err(corrupt(&self.path, format!("offsets not monotone at row {p}")));
            }
            f(p, next - prev);
            prev = next;
        }
        Ok(())
    }

    /// Streams every row in id order — two bounded sequential readers
    /// (offsets and targets) plus one reusable row buffer, so whole-graph
    /// analytics (BFS frontiers, degree moments, triangle probes) run
    /// over a CSR that never fits in memory. The visitor may fail, which
    /// aborts the scan at that row.
    pub fn for_each_row<F: FnMut(u64, &[u64]) -> Result<()>>(&mut self, mut f: F) -> Result<()> {
        let mut offs = BufReader::with_capacity(DEFAULT_IO_BUF, File::open(&self.path)?);
        offs.seek(SeekFrom::Start(24))?;
        let mut tgts = BufReader::with_capacity(DEFAULT_IO_BUF, File::open(&self.path)?);
        tgts.seek(SeekFrom::Start(24 + (self.n + 1) * 8))?;
        let mut buf = [0u8; 8];
        offs.read_exact(&mut buf)?;
        let mut prev = u64::from_le_bytes(buf);
        if prev != 0 {
            return Err(corrupt(&self.path, "first offset is not zero"));
        }
        let mut row_buf: Vec<u64> = Vec::new();
        for p in 0..self.n {
            offs.read_exact(&mut buf)?;
            let next = u64::from_le_bytes(buf);
            if next < prev || next > self.arcs {
                return Err(corrupt(&self.path, format!("offsets corrupt at row {p}")));
            }
            row_buf.clear();
            for _ in prev..next {
                tgts.read_exact(&mut buf)?;
                let v = u64::from_le_bytes(buf);
                if v >= self.n {
                    return Err(corrupt(&self.path, format!("target {v} out of range")));
                }
                row_buf.push(v);
            }
            f(p, &row_buf)?;
            prev = next;
        }
        if prev != self.arcs {
            return Err(corrupt(&self.path, "final offset disagrees with arc count"));
        }
        Ok(())
    }

    /// Loads the whole file as an in-memory [`CsrGraph`] — validation-
    /// scale only; this is the one method that allocates O(arcs).
    pub fn load(&mut self) -> Result<CsrGraph> {
        self.file.seek(SeekFrom::Start(24))?;
        let mut reader = BufReader::with_capacity(DEFAULT_IO_BUF, &self.file);
        let mut buf = [0u8; 8];
        let mut offsets = Vec::with_capacity(self.n as usize + 1);
        for row in 0..=self.n {
            reader.read_exact(&mut buf)?;
            let offset = u64::from_le_bytes(buf);
            if offset > self.arcs || offsets.last().is_some_and(|&o| (o as u64) > offset) {
                return Err(corrupt(&self.path, format!("offsets corrupt at row {row}")));
            }
            offsets.push(offset as usize);
        }
        if offsets.last() != Some(&(self.arcs as usize)) {
            return Err(corrupt(&self.path, "final offset disagrees with arc count"));
        }
        let mut targets = Vec::with_capacity(self.arcs as usize);
        for _ in 0..self.arcs {
            reader.read_exact(&mut buf)?;
            let v = u64::from_le_bytes(buf);
            if v >= self.n {
                return Err(corrupt(&self.path, format!("target {v} out of range")));
            }
            targets.push(v);
        }
        Ok(CsrGraph::from_sorted_parts(self.n, offsets, targets))
    }
}

/// Sorts `arcs` and spills them as one run at `path` (helper for run
/// buffers accumulated in arrival order).
pub fn spill_sorted_run(path: &Path, n: u64, arcs: &mut Vec<Arc>) -> Result<ShardInfo> {
    arcs.sort_unstable();
    let mut writer = ShardWriter::create(path, n)?;
    for &(u, v) in arcs.iter() {
        writer.push(u, v)?;
    }
    arcs.clear();
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("kron_shard_unit").join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_run(path: &Path, n: u64, arcs: &[Arc]) -> ShardInfo {
        let mut w = ShardWriter::create(path, n).unwrap();
        for &(u, v) in arcs {
            w.push(u, v).unwrap();
        }
        w.finish().unwrap()
    }

    fn drain(path: &Path) -> Result<Vec<Arc>> {
        let mut reader = ShardReader::open(path)?;
        let mut out = Vec::new();
        while let Some(arc) = reader.next_arc()? {
            out.push(arc);
        }
        Ok(out)
    }

    #[test]
    fn varint_roundtrip_edge_values() {
        for value in [0u64, 1, 127, 128, 129, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            let len = encode_varint(value, &mut buf);
            assert_eq!(len, buf.len());
            assert!(len <= MAX_VARINT_BYTES);
            assert_eq!(decode_varint(&buf), Ok(Varint::Value { value, len }), "value {value}");
            // A longer window must decode identically.
            let mut padded = buf.clone();
            padded.push(0xAB);
            assert_eq!(decode_varint(&padded), Ok(Varint::Value { value, len }));
        }
    }

    #[test]
    fn varint_rejects_malformed_encodings() {
        // Overlong spelling of 0.
        assert!(decode_varint(&[0x80, 0x00]).is_err());
        // Overlong spelling of 1.
        assert!(decode_varint(&[0x81, 0x00]).is_err());
        // Ten continuation bytes: longer than any u64.
        assert!(decode_varint(&[0xFF; 10]).is_err());
        // Tenth byte carrying bits beyond 2^64.
        let mut too_big = [0xFF; 10];
        too_big[9] = 0x02;
        assert!(decode_varint(&too_big).is_err());
        // u64::MAX itself is fine: 9 continuations + final 0x01.
        let mut max = [0xFF; 10];
        max[9] = 0x01;
        assert_eq!(decode_varint(&max), Ok(Varint::Value { value: u64::MAX, len: 10 }));
        // Truncated windows ask for more instead of erroring.
        assert_eq!(decode_varint(&[0x80]), Ok(Varint::NeedMore));
        assert_eq!(decode_varint(&[]), Ok(Varint::NeedMore));
    }

    #[test]
    fn roundtrip_single_run() {
        let d = dir("roundtrip");
        let path = d.join("run.krsh");
        let arcs = vec![(0, 1), (0, 2), (1, 0), (3, 3)];
        let info = write_run(&path, 4, &arcs);
        assert_eq!(info.arcs, 4);
        assert_eq!(info.bytes, std::fs::metadata(&path).unwrap().len());
        let mut reader = ShardReader::open(&path).unwrap();
        assert_eq!(reader.n(), 4);
        let mut back = Vec::new();
        while let Some(arc) = reader.next_arc().unwrap() {
            back.push(arc);
        }
        assert_eq!(back, arcs);
    }

    #[test]
    fn run_is_at_most_a_quarter_of_fixed_width() {
        let d = dir("compact");
        // Dense-ish sorted run with duplicates and row gaps.
        let mut arcs = Vec::new();
        for u in 0..64u64 {
            for v in 0..32u64 {
                arcs.push((u, v * 3 % 97));
            }
        }
        arcs.sort_unstable();
        let path = d.join("run.krsh");
        let info = write_run(&path, 100, &arcs);
        assert_eq!(drain(&path).unwrap(), arcs);
        // The retired fixed-width layout: a 24-byte header + 16 bytes/arc.
        let fixed = 24 + 16 * info.arcs;
        assert!(
            info.bytes * 4 <= fixed,
            "run ({} bytes) is not <= 1/4 of fixed width ({fixed} bytes)",
            info.bytes
        );
    }

    #[test]
    fn empty_run_roundtrips() {
        let d = dir("empty");
        let path = d.join("empty.krsh");
        let info = write_run(&path, 4, &[]);
        assert_eq!(info.arcs, 0);
        assert_eq!(drain(&path).unwrap(), Vec::<Arc>::new());
    }

    #[test]
    fn writer_rejects_unsorted_and_out_of_range() {
        let d = dir("writer_rejects");
        let mut w = ShardWriter::create(d.join("bad.krsh"), 4).unwrap();
        w.push(2, 2).unwrap();
        assert!(w.push(1, 0).is_err(), "descending arc accepted");
        assert!(w.push(2, 9).is_err(), "out-of-range target accepted");
    }

    #[test]
    fn unfinished_shard_is_rejected() {
        let d = dir("unfinished");
        let path = d.join("dropped.krsh");
        {
            let mut w = ShardWriter::create(&path, 4).unwrap();
            w.push(0, 1).unwrap();
            // Dropped without finish: lengths stay poisoned.
        }
        assert!(ShardReader::open(&path).is_err(), "unfinished shard accepted");
    }

    #[test]
    fn reader_rejects_framing_corruption() {
        let d = dir("framing");
        let path = d.join("run.krsh");
        write_run(&path, 4, &[(0, 1), (1, 2)]);
        let good = std::fs::read(&path).unwrap();

        // Truncated header.
        std::fs::write(&path, &good[..10]).unwrap();
        assert!(ShardReader::open(&path).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(ShardReader::open(&path).is_err());
        // Unsupported version.
        let mut bad = good.clone();
        bad[4] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(ShardReader::open(&path).is_err());
        // Truncated payload/footer.
        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(ShardReader::open(&path).is_err());
        // Trailing byte.
        let mut bad = good.clone();
        bad.push(0);
        std::fs::write(&path, &bad).unwrap();
        assert!(ShardReader::open(&path).is_err());
    }

    #[test]
    fn reader_rejects_forged_counts_without_allocating() {
        let d = dir("forged");
        // A forged count dies on the payload-bounds check even when the
        // total length still adds up.
        let path = d.join("forged.krsh");
        write_run(&path, 4, &[(0, 1), (1, 2)]);
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        bad[16..24].copy_from_slice(&1_000_000u64.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(ShardReader::open(&path).is_err(), "inflated count accepted");
        let mut bad = good.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(ShardReader::open(&path).is_err(), "u64::MAX count accepted");
    }

    #[test]
    fn version_1_header_is_rejected() {
        let d = dir("version1");
        // The retired fixed-width layout — magic, version 1, n, count,
        // then 16 bytes per arc — including one whose count is forged to
        // u64::MAX: rejected on the version word before any size in the
        // header is read, let alone allocated for.
        let mut fixed = Vec::new();
        fixed.extend_from_slice(SHARD_MAGIC);
        fixed.extend_from_slice(&1u32.to_le_bytes());
        fixed.extend_from_slice(&4u64.to_le_bytes());
        fixed.extend_from_slice(&2u64.to_le_bytes());
        for (u, v) in [(0u64, 1u64), (1, 2)] {
            fixed.extend_from_slice(&u.to_le_bytes());
            fixed.extend_from_slice(&v.to_le_bytes());
        }
        let mut forged = fixed[..16].to_vec();
        forged.extend_from_slice(&u64::MAX.to_le_bytes());
        // A current file restamped as version 1.
        let restamped = d.join("restamped.krsh");
        write_run(&restamped, 4, &[(0, 1), (1, 2)]);
        let mut bytes = std::fs::read(&restamped).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        for (name, bytes) in [("fixed", fixed), ("forged", forged), ("restamped", bytes)] {
            let path = d.join(format!("{name}.krsh"));
            std::fs::write(&path, &bytes).unwrap();
            let err = ShardReader::open(&path).expect_err(name).to_string();
            assert!(err.contains("unsupported shard version 1"), "{name}: {err}");
            let mut counts = vec![0u64; 5];
            assert!(sum_footer_degrees(&path, &mut counts, 512).is_err(), "{name}: footer scan");
            assert!(counts.iter().all(|&c| c == 0), "{name}: degree table touched");
            let out = d.join(format!("{name}.krsc"));
            assert!(build_external_csr(&[&path], &out, 512).is_err(), "{name}: external build");
        }
    }

    #[test]
    fn reader_rejects_v2_payload_corruption() {
        let d = dir("v2_payload");
        // Out-of-range row via a forged delta: arc decodes to u = 5 >= n.
        let path = d.join("range.krsh");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SHARD_MAGIC);
        bytes.extend_from_slice(&SHARD_V2_VERSION.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes()); // n
        bytes.extend_from_slice(&1u64.to_le_bytes()); // count
        bytes.extend_from_slice(&2u64.to_le_bytes()); // payload_len
        bytes.extend_from_slice(&2u64.to_le_bytes()); // footer_len
        bytes.extend_from_slice(&[5, 0]); // arc (5, 0)
        bytes.extend_from_slice(&[5, 1]); // footer (row 5, count 1)
        std::fs::write(&path, &bytes).unwrap();
        assert!(drain(&path).is_err(), "out-of-range v2 arc accepted");

        // Payload with leftover bytes after the declared arcs.
        let path = d.join("trailing.krsh");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SHARD_MAGIC);
        bytes.extend_from_slice(&SHARD_V2_VERSION.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes()); // two arcs' worth
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&[0, 1, 1, 0]); // arcs (0,1) and (1,0)
        bytes.extend_from_slice(&[0, 1]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(drain(&path).is_err(), "trailing payload bytes accepted");

        // Payload ending mid-varint (continuation bit on the last byte).
        let path = d.join("midvarint.krsh");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SHARD_MAGIC);
        bytes.extend_from_slice(&SHARD_V2_VERSION.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&[0x00, 0x80]); // second varint never ends
        bytes.extend_from_slice(&[0, 1]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(drain(&path).is_err(), "mid-varint truncation accepted");
    }

    #[test]
    fn merge_dedups_across_runs() {
        let d = dir("merge");
        let p1 = d.join("a.krsh");
        let p2 = d.join("b.krsh");
        write_run(&p1, 5, &[(0, 1), (2, 3), (4, 4)]);
        write_run(&p2, 5, &[(0, 1), (1, 0), (2, 3)]);
        let readers = vec![ShardReader::open(&p1).unwrap(), ShardReader::open(&p2).unwrap()];
        let mut merged = Vec::new();
        let stats = merge_shards(readers, |u, v| merged.push((u, v))).unwrap();
        assert_eq!(merged, vec![(0, 1), (1, 0), (2, 3), (4, 4)]);
        assert_eq!(stats.arcs_out, 4);
        assert_eq!(stats.duplicates_discarded, 2);
        assert_eq!(stats.runs, 2);
    }

    #[test]
    fn merge_rejects_disagreeing_universes() {
        let d = dir("merge_n");
        let p1 = d.join("a.krsh");
        let p2 = d.join("b.krsh");
        write_run(&p1, 5, &[(0, 1)]);
        write_run(&p2, 6, &[(0, 1)]);
        let readers = vec![ShardReader::open(&p1).unwrap(), ShardReader::open(&p2).unwrap()];
        assert!(merge_shards(readers, |_, _| {}).is_err());
    }

    #[test]
    fn merge_handles_many_runs() {
        let d = dir("merge_many");
        // 9 runs (pads the tournament to 16 leaves) with heavy overlap.
        let n = 50u64;
        let mut paths = Vec::new();
        let mut expect = std::collections::BTreeSet::new();
        for r in 0..9u64 {
            let mut arcs: Vec<Arc> = (0..40)
                .map(|i| ((r * 7 + i * 3) % n, (r * 11 + i * 5) % n))
                .collect();
            arcs.sort_unstable();
            for &a in &arcs {
                expect.insert(a);
            }
            let path = d.join(format!("run{r}.krsh"));
            write_run(&path, n, &arcs);
            paths.push(path);
        }
        let readers: Vec<ShardReader> =
            paths.iter().map(|p| ShardReader::with_buffer(p, 256).unwrap()).collect();
        let mut merged = Vec::new();
        let stats = merge_shards(readers, |u, v| merged.push((u, v))).unwrap();
        assert_eq!(merged, expect.into_iter().collect::<Vec<_>>());
        assert_eq!(stats.arcs_out as usize, merged.len());
        assert_eq!(stats.runs, 9);
    }

    #[test]
    fn try_merge_propagates_emit_errors() {
        let d = dir("merge_fallible");
        let p = d.join("run.krsh");
        write_run(&p, 5, &[(0, 1), (1, 2), (2, 3)]);
        let mut seen = 0u32;
        let err = try_merge_shards(vec![ShardReader::open(&p).unwrap()], |_, _| {
            seen += 1;
            if seen == 2 {
                Err(corrupt(Path::new("sink"), "disk full"))
            } else {
                Ok(())
            }
        });
        assert!(err.is_err(), "emit error swallowed");
        assert_eq!(seen, 2, "merge continued past the failing emit");
    }

    #[test]
    fn sum_footer_degrees_matches_actual_degrees() {
        let d = dir("footer_sum");
        let n = 30u64;
        let arcs: Vec<Arc> = {
            let mut a: Vec<Arc> =
                (0..200u64).map(|i| ((i * 13) % n, (i * 7) % n)).collect();
            a.sort_unstable();
            a
        };
        let path = d.join("run.krsh");
        write_run(&path, n, &arcs);
        let mut counts = vec![0u64; n as usize + 1];
        sum_footer_degrees(&path, &mut counts, 1024).unwrap();
        let mut expect = vec![0u64; n as usize + 1];
        for &(u, _) in &arcs {
            expect[u as usize + 1] += 1;
        }
        assert_eq!(counts, expect);
    }

    #[test]
    fn from_shards_matches_from_edge_list() {
        let d = dir("from_shards");
        let arcs = vec![(0u64, 3u64), (1, 1), (2, 0), (3, 2), (0, 1), (1, 1)];
        let list = EdgeList::from_arcs(4, arcs.clone()).unwrap();
        let reference = CsrGraph::from_edge_list(&list);
        // Two interleaved sorted runs with a duplicate across them.
        let mut run1 = vec![arcs[0], arcs[2], arcs[4]];
        let mut run2 = vec![arcs[1], arcs[3], arcs[5], (0, 3)];
        run1.sort_unstable();
        run2.sort_unstable();
        let p1 = d.join("r1.krsh");
        let p2 = d.join("r2.krsh");
        write_run(&p1, 4, &run1);
        write_run(&p2, 4, &run2);
        let built = CsrGraph::from_shards(&[&p1, &p2], 1024).unwrap();
        assert_eq!(built, reference);
        assert_eq!(built.offsets(), reference.offsets());
        assert_eq!(built.targets(), reference.targets());
    }

    #[test]
    fn from_shards_needs_a_run() {
        let empty: [&Path; 0] = [];
        assert!(CsrGraph::from_shards(&empty, 1024).is_err());
    }

    #[test]
    fn external_csr_roundtrip_and_streaming() {
        let d = dir("external");
        let arcs = vec![(0u64, 1u64), (0, 2), (1, 0), (3, 0), (3, 3)];
        let list = EdgeList::from_arcs(4, arcs.clone()).unwrap();
        let reference = CsrGraph::from_edge_list(&list);
        let mut sorted = arcs.clone();
        sorted.sort_unstable();
        let run = d.join("run.krsh");
        write_run(&run, 4, &sorted);
        let out = d.join("c.krsc");
        let stats = build_external_csr(&[&run], &out, 1024).unwrap();
        assert_eq!(stats.arcs, 5);
        assert_eq!(stats.duplicates_discarded, 0);
        assert_eq!(stats.bytes, std::fs::metadata(&out).unwrap().len());
        assert_eq!(stats.merge_passes, 1);
        assert!(!stats.offsets_rewritten, "honest v2 footers should predict exactly");

        let mut ext = ExternalCsr::open(&out).unwrap();
        assert_eq!(ext.n(), 4);
        assert_eq!(ext.arc_count(), 5);
        assert_eq!(ext.load().unwrap(), reference);
        for p in 0..4u64 {
            assert_eq!(ext.degree(p).unwrap(), reference.degree(p), "degree({p})");
            assert_eq!(ext.row(p).unwrap(), reference.neighbors(p), "row({p})");
        }
        let mut degrees = Vec::new();
        ext.for_each_degree(|_, deg| degrees.push(deg)).unwrap();
        assert_eq!(degrees, reference.degrees());
        let mut rows = Vec::new();
        ext.for_each_row(|p, row| {
            rows.push((p, row.to_vec()));
            Ok(())
        })
        .unwrap();
        for (p, row) in rows {
            assert_eq!(row, reference.neighbors(p), "for_each_row({p})");
        }
        assert!(ext.degree(99).is_err());
    }

    #[test]
    fn one_pass_build_matches_two_pass_bytes() {
        let d = dir("onepass");
        let n = 40u64;
        let base: Vec<Arc> = {
            let mut a: Vec<Arc> = (0..300u64).map(|i| ((i * 17) % n, (i * 23) % n)).collect();
            a.sort_unstable();
            a.dedup();
            a
        };
        // (label, run splits, expect a rewrite?)
        let halves = base.len() / 2;
        let cases: Vec<(&str, Vec<Vec<Arc>>, bool)> = vec![
            ("v2 disjoint", vec![base[..halves].to_vec(), base[halves..].to_vec()], false),
            (
                "v2 overlapping",
                vec![base[..halves + 20].to_vec(), base[halves - 20..].to_vec()],
                true,
            ),
        ];
        for (label, splits, expect_rewrite) in cases {
            let mut paths = Vec::new();
            for (i, split) in splits.iter().enumerate() {
                let path = d.join(format!("{}_{i}.krsh", label.replace(' ', "_")));
                write_run(&path, n, split);
                paths.push(path);
            }
            let one = d.join(format!("{}_one.krsc", label.replace(' ', "_")));
            let two = d.join(format!("{}_two.krsc", label.replace(' ', "_")));
            let s1 = build_external_csr(&paths, &one, 512).unwrap();
            let s2 = build_external_csr_two_pass(&paths, &two, 512).unwrap();
            assert_eq!(s1.arcs, s2.arcs, "{label}: arcs");
            assert_eq!(
                s1.duplicates_discarded, s2.duplicates_discarded,
                "{label}: duplicates"
            );
            assert_eq!(s1.merge_passes, 1, "{label}");
            assert_eq!(s2.merge_passes, 2, "{label}");
            assert_eq!(s1.offsets_rewritten, expect_rewrite, "{label}: rewrite flag");
            assert_eq!(
                std::fs::read(&one).unwrap(),
                std::fs::read(&two).unwrap(),
                "{label}: one-pass and two-pass files differ"
            );
        }
    }

    #[test]
    fn forged_footer_self_heals_or_errors() {
        let d = dir("forged_footer");
        let n = 4u64;
        let path = d.join("run.krsh");
        write_run(&path, n, &[(0, 1), (0, 2), (1, 0)]);
        let good = std::fs::read(&path).unwrap();
        // Footer is [(row 0, count 2), (row +1, count 1)] = [0,2,1,1] at
        // the tail. A *consistent* lie keeps the sum: [(0,1),(+1,2)].
        assert_eq!(&good[good.len() - 4..], &[0, 2, 1, 1]);
        let mut lying = good.clone();
        let at = lying.len() - 4;
        lying[at..].copy_from_slice(&[0, 1, 1, 2]);
        std::fs::write(&path, &lying).unwrap();
        // The merge pass catches the divergence and rewrites: output is
        // still byte-identical to the reference build.
        let one = d.join("one.krsc");
        let two = d.join("two.krsc");
        let s1 = build_external_csr(&[&path], &one, 512).unwrap();
        assert!(s1.offsets_rewritten, "lying footer must force a rewrite");
        build_external_csr_two_pass(&[&path], &two, 512).unwrap();
        assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&two).unwrap());

        // An *inconsistent* footer (sum != count) is a clean error.
        let mut broken = good.clone();
        let at = broken.len() - 4;
        broken[at..].copy_from_slice(&[0, 2, 1, 2]);
        std::fs::write(&path, &broken).unwrap();
        let mut counts = vec![0u64; n as usize + 1];
        assert!(sum_footer_degrees(&path, &mut counts, 512).is_err());
        assert!(build_external_csr(&[&path], &one, 512).is_err());
    }

    #[test]
    fn block_cache_matches_uncached_and_counts() {
        let d = dir("cache");
        let n = 64u64;
        let mut arcs: Vec<Arc> = (0..400u64).map(|i| ((i * 29) % n, (i * 31) % n)).collect();
        arcs.sort_unstable();
        arcs.dedup();
        let run = d.join("run.krsh");
        write_run(&run, n, &arcs);
        let out = d.join("c.krsc");
        build_external_csr(&[&run], &out, 1024).unwrap();

        let mut plain = ExternalCsr::open(&out).unwrap();
        let cfg = CsrCacheConfig { block_bytes: 128, blocks: 8, seed: 42 };
        let mut cached = ExternalCsr::open_with_cache(&out, cfg).unwrap();
        assert_eq!(plain.cache_stats(), CacheStats::default());
        let mut row_buf = Vec::new();
        for pass in 0..3 {
            for p in 0..n {
                assert_eq!(cached.degree(p).unwrap(), plain.degree(p).unwrap(), "degree({p})");
                cached.row_into(p, &mut row_buf).unwrap();
                assert_eq!(row_buf, plain.row(p).unwrap(), "row({p}) pass {pass}");
            }
        }
        let stats = cached.cache_stats();
        assert!(stats.hits > 0, "repeated scans must hit the cache");
        assert!(stats.misses > 0, "cold blocks must miss");
        assert!(
            stats.evictions > 0,
            "an 8-block cache over a {}-byte file must evict",
            std::fs::metadata(&out).unwrap().len()
        );
        // Deterministic: the same access sequence reproduces the stats.
        let mut again = ExternalCsr::open_with_cache(&out, cfg).unwrap();
        for _ in 0..3 {
            for p in 0..n {
                again.degree(p).unwrap();
                again.row_into(p, &mut row_buf).unwrap();
            }
        }
        assert_eq!(again.cache_stats(), stats);
    }

    #[test]
    fn external_csr_rejects_corruption() {
        let d = dir("external_bad");
        let run = d.join("run.krsh");
        write_run(&run, 3, &[(0, 1), (2, 2)]);
        let out = d.join("c.krsc");
        build_external_csr(&[&run], &out, 1024).unwrap();
        let good = std::fs::read(&out).unwrap();

        std::fs::write(&out, &good[..20]).unwrap();
        assert!(ExternalCsr::open(&out).is_err(), "truncated header accepted");
        let mut bad = good.clone();
        bad[0] = b'Z';
        std::fs::write(&out, &bad).unwrap();
        assert!(ExternalCsr::open(&out).is_err(), "bad magic accepted");
        let mut bad = good.clone();
        bad[4] = 7;
        std::fs::write(&out, &bad).unwrap();
        assert!(ExternalCsr::open(&out).is_err(), "bad version accepted");
        std::fs::write(&out, &good[..good.len() - 8]).unwrap();
        assert!(ExternalCsr::open(&out).is_err(), "truncated targets accepted");
        let mut bad = good.clone();
        bad.push(1);
        std::fs::write(&out, &bad).unwrap();
        assert!(ExternalCsr::open(&out).is_err(), "trailing byte accepted");
        // Forged n that would overflow the length computation.
        let mut bad = good.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&out, &bad).unwrap();
        assert!(ExternalCsr::open(&out).is_err(), "overflowing n accepted");
    }

    #[test]
    fn spill_sorted_run_sorts_and_clears() {
        let d = dir("spill_helper");
        let path = d.join("run.krsh");
        let mut buf = vec![(3u64, 0u64), (0, 1), (2, 2)];
        let info = spill_sorted_run(&path, 4, &mut buf).unwrap();
        assert!(buf.is_empty(), "run buffer must be recycled empty");
        assert_eq!(info.arcs, 3);
        let mut reader = ShardReader::open(&path).unwrap();
        let mut back = Vec::new();
        while let Some(arc) = reader.next_arc().unwrap() {
            back.push(arc);
        }
        assert_eq!(back, vec![(0, 1), (2, 2), (3, 0)]);
    }
}
