//! Out-of-core edge shards: streaming sorted-run spill files and the
//! external-memory CSR build over them.
//!
//! The distributed generator can produce a `C = A ⊗ B` far larger than
//! RAM; this module is the disk tier that makes such a product storable
//! and analyzable on a small box. Three layers:
//!
//! * **Sorted-run shard files** (`KRSH` version 3): a length-prefixed
//!   binary format holding one *sorted* run of arcs, delta-encoded as
//!   `(row-delta, target-delta)` canonical LEB128 varints over the
//!   already-sorted stream (~2–4 bytes/arc). Files stamped with any
//!   other version are rejected at open. [`ShardWriter`] streams arcs
//!   out through a bounded buffer (enforcing sortedness at write time);
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
//!   pass: it streams the targets past the header and offset region,
//!   counts each row's arcs as the merge passes them, and writes the
//!   header and the prefix-summed offsets once at the end — output
//!   byte-identical to the reference two-pass build
//!   ([`build_external_csr_two_pass`]). [`ExternalCsr`] reads that file
//!   back — whole (for
//!   validation-scale equality checks), row-at-a-time through an
//!   optional bounded block cache (4-way set-associative, seeded
//!   random eviction), or via streaming visitors
//!   ([`ExternalCsr::for_each_degree`], [`ExternalCsr::for_each_row`])
//!   for beyond-RAM analytics.
//!
//! Each step returns its own count of what it did — [`ShardInfo`],
//! [`MergeStats`], [`ExternalCsrStats`], [`ExternalCsr::cache_stats`] —
//! and that struct is the only count: the process-global `kron-obs`
//! registry holds no copy.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::csr::CsrGraph;
use crate::hash::{mix64, splitmix64};
use crate::{Arc, GraphError, Result};

/// Magic bytes of a sorted-run shard file.
pub const SHARD_MAGIC: &[u8; 4] = b"KRSH";
/// Wire version of the delta-varint shard format — the only version
/// readers accept. Version 1 stored 16 fixed-width bytes per arc;
/// version 2 used today's codec but trailed the payload with a per-row
/// `(row, count)` footer that the external build no longer needs.
pub const SHARD_VERSION: u32 = 3;
/// Magic bytes of an external CSR file.
pub const CSR_MAGIC: &[u8; 4] = b"KRSC";
/// Current external CSR format version.
pub const CSR_VERSION: u32 = 1;

/// Default IO buffer capacity for shard readers and writers (bytes).
pub const DEFAULT_IO_BUF: usize = 64 * 1024;

/// Longest canonical LEB128 encoding of a `u64`.
pub const MAX_VARINT_BYTES: usize = 10;

/// Bytes of a shard header: magic, version, `n`, arc count and payload
/// length.
const SHARD_HEADER: u64 = 32;

/// Placeholder written at create time for the count and payload
/// length; a shard dropped before [`ShardWriter::finish`] keeps it, and
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
// Header parsing
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ShardHeader {
    n: u64,
    count: u64,
    /// Arc payload bytes.
    payload_len: u64,
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
    if version != SHARD_VERSION {
        return Err(corrupt(
            path,
            format!("unsupported shard version {version} (expected {SHARD_VERSION})"),
        ));
    }
    if len < SHARD_HEADER {
        return Err(corrupt(path, "shard truncated (header)"));
    }
    let mut rest = [0u8; 24];
    file.read_exact(&mut rest)?;
    let n = u64::from_le_bytes(rest[0..8].try_into().expect("8 bytes"));
    let count = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(rest[16..24].try_into().expect("8 bytes"));
    let need = payload_len
        .checked_add(SHARD_HEADER)
        .ok_or_else(|| corrupt(path, "declared sizes overflow byte length"))?;
    if len != need {
        return Err(corrupt(
            path,
            format!("file length {len} does not match declared sizes ({need})"),
        ));
    }
    // Each arc encodes as 2..=20 payload bytes. A forged count dies here
    // for the cost of two multiplications.
    let min_payload =
        count.checked_mul(2).ok_or_else(|| corrupt(path, "arc count overflows byte length"))?;
    if payload_len < min_payload || payload_len > count.saturating_mul(20) {
        return Err(corrupt(
            path,
            format!("payload length {payload_len} impossible for {count} arcs"),
        ));
    }
    Ok(ShardHeader { n, count, payload_len })
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
    /// Total bytes of the finished file (header + payload).
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
}

impl ShardWriter {
    /// Creates a shard over a universe of `n` vertices with the default
    /// IO buffer.
    pub fn create<P: AsRef<Path>>(path: P, n: u64) -> Result<Self> {
        Self::with_buffer(path, n, DEFAULT_IO_BUF)
    }

    /// Creates a shard with an explicit IO buffer capacity — the only
    /// resident memory the writer holds.
    pub fn with_buffer<P: AsRef<Path>>(path: P, n: u64, buf_bytes: usize) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut out = BufWriter::with_capacity(buf_bytes.max(64), File::create(&path)?);
        out.write_all(SHARD_MAGIC)?;
        out.write_all(&SHARD_VERSION.to_le_bytes())?;
        out.write_all(&n.to_le_bytes())?;
        for _ in 0..2 {
            out.write_all(&UNFINISHED.to_le_bytes())?;
        }
        Ok(ShardWriter { out, path, n, arcs: 0, last: None, payload_len: 0, scratch: Vec::new() })
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
        self.last = Some((u, v));
        self.arcs += 1;
        Ok(())
    }

    /// Arcs pushed so far.
    pub fn arcs(&self) -> u64 {
        self.arcs
    }

    /// Flushes, patches the header's length fields, and returns the run
    /// summary. Dropping a writer without calling this leaves the file
    /// unreadable by design.
    pub fn finish(mut self) -> Result<ShardInfo> {
        self.out.flush()?;
        // count and payload_len are contiguous at byte 16 — one seek
        // patches both.
        let file = self.out.get_mut();
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&self.arcs.to_le_bytes())?;
        file.write_all(&self.payload_len.to_le_bytes())?;
        file.flush()?;
        let bytes = SHARD_HEADER + self.payload_len;
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
    /// `paths` slice is rejected — there is no `n` to build over — and so
    /// is an `n` above [`CsrGraph::MAX_VERTICES`], before anything sized
    /// by it is allocated.
    pub fn from_shards<P: AsRef<Path>>(paths: &[P], buf_bytes: usize) -> Result<CsrGraph> {
        let _span = kron_obs::span::enter("shard/from_shards");
        let readers = open_all(paths, buf_bytes)?;
        let first = readers
            .first()
            .ok_or_else(|| corrupt(Path::new("<no shards>"), "from_shards needs >= 1 run"))?;
        let n = first.n();
        CsrGraph::check_vertex_count(n)?;
        // Upper bound (duplicates only shrink it): reserving exactly once
        // keeps the peak at one targets array, no doubling.
        let declared: u64 = readers.iter().map(ShardReader::arcs_total).sum();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut targets: Vec<u32> = Vec::with_capacity(declared as usize);
        offsets.push(0usize);
        let mut row = 0u64;
        merge_shards(readers, |u, v| {
            // Arcs arrive sorted by (u, v); close out rows up to u.
            while row < u {
                offsets.push(targets.len());
                row += 1;
            }
            // The reader checked v < n ≤ 2^32.
            targets.push(v as u32);
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
    /// Whether the offset region was written more than once. Always
    /// `false`: both build functions write it exactly once. Kept for
    /// reports that print it (`shard.offsets_rewritten`).
    pub offsets_rewritten: bool,
}

fn write_csr_header<W: Write>(out: &mut W, n: u64, count: u64) -> Result<()> {
    out.write_all(CSR_MAGIC)?;
    out.write_all(&CSR_VERSION.to_le_bytes())?;
    out.write_all(&n.to_le_bytes())?;
    out.write_all(&count.to_le_bytes())?;
    Ok(())
}

/// The zeroed `(n + 1)`-entry offset table of an external build over
/// runs declaring `n` vertices, or an error when no such table can be
/// allocated: the run headers bound `n` by nothing.
#[allow(clippy::slow_vector_initialization)] // `vec!` cannot report a failed allocation
fn offset_table(n: u64, path: &Path) -> Result<Vec<u64>> {
    let mut table = Vec::new();
    match usize::try_from(n).ok().and_then(|n| n.checked_add(1)) {
        Some(len) if table.try_reserve_exact(len).is_ok() => {
            table.resize(len, 0);
            Ok(table)
        }
        _ => Err(corrupt(path, format!("n={n} needs an offset table too large to allocate"))),
    }
}

/// Fully out-of-core CSR build in **one** merge pass: the targets are
/// streamed to their final place behind the `24 + 8·(n + 1)`-byte header
/// and offset region while the pass counts each row's arcs into the
/// `(n + 1)`-entry offset table; once the merge ends, the table is
/// prefix-summed and the header and offsets are written, once. The
/// output is **byte-identical** to [`build_external_csr_two_pass`] for
/// half its merge work.
///
/// Write errors surface at the failing write (the merge visitor is
/// fallible), not at a final flush. A build that fails leaves a file
/// whose header was never written (zero bytes, or nothing at all), which
/// [`ExternalCsr::open`] rejects. Peak resident memory is the
/// `(n + 1)`-entry offset table plus the bounded run buffers:
/// independent of the arc count, which only ever exists on disk. Runs
/// declaring an `n` whose table cannot be allocated are an error,
/// returned before `out` is created.
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
    let mut offsets = offset_table(n, &first.path)?;
    let mut file = File::create(out)?;
    file.seek(SeekFrom::Start(24 + (n + 1) * 8))?;
    let mut writer = BufWriter::with_capacity(buf_bytes.max(64), file);
    let stats = try_merge_shards(readers, |u, v| {
        offsets[u as usize + 1] += 1;
        writer.write_all(&v.to_le_bytes())?;
        Ok(())
    })?;
    for i in 0..n as usize {
        offsets[i + 1] += offsets[i];
    }
    writer.seek(SeekFrom::Start(0))?;
    write_csr_header(&mut writer, n, stats.arcs_out)?;
    for offset in &offsets {
        writer.write_all(&offset.to_le_bytes())?;
    }
    writer.flush()?;
    let bytes = 24 + (n + 1) * 8 + stats.arcs_out * 8;
    Ok(ExternalCsrStats {
        arcs: stats.arcs_out,
        duplicates_discarded: stats.duplicates_discarded,
        bytes,
        merge_passes: 1,
        offsets_rewritten: false,
    })
}

/// The reference builder: two merge passes (degree count, then targets),
/// each writing in file order. Kept as the conformance oracle —
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
    let mut counts = offset_table(n, &first.path)?;
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
            hit
        } else {
            self.stats.misses += 1;
            let slot = match set.ways.iter().position(|w| w.tag == 0) {
                Some(empty) => empty,
                None => {
                    self.stats.evictions += 1;
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
        let bad_first = p == 0 && start != 0;
        let bad_last = p + 1 == self.n && end != self.arcs;
        if start > end || end > self.arcs || bad_first || bad_last {
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
    /// A target `>= n` is an error, as in every other reader; the row's
    /// order is not checked (sorted rows are [`ExternalCsr::load`]'s
    /// promise only).
    pub fn row_into(&mut self, p: u64, out: &mut Vec<u64>) -> Result<()> {
        let (start, end) = self.offset_pair(p)?;
        out.clear();
        out.reserve((end - start) as usize);
        let targets_base = 24 + (self.n + 1) * 8;
        if self.cache.is_some() {
            for i in start..end {
                let v = self.read_word(targets_base + i * 8)?;
                out.push(self.target(v)?);
            }
        } else {
            self.file.seek(SeekFrom::Start(targets_base + start * 8))?;
            let mut buf = [0u8; 8];
            for _ in start..end {
                self.file.read_exact(&mut buf)?;
                out.push(self.target(u64::from_le_bytes(buf))?);
            }
        }
        Ok(())
    }

    /// `v` if it names a vertex of this file, else the corruption error
    /// every row reader returns.
    fn target(&self, v: u64) -> Result<u64> {
        if v < self.n {
            Ok(v)
        } else {
            Err(corrupt(&self.path, format!("target {v} out of range")))
        }
    }

    /// Reads the `n + 1` offsets from `offsets` (positioned at the first)
    /// and calls `row(p, start, end)` for each row's span, in id order,
    /// after checking it: the first offset is 0, offsets never decrease
    /// or pass the arc count, and the last equals it. Every streaming
    /// reader walks the offsets through here, so none trusts them.
    fn for_each_span<R: Read, F: FnMut(u64, u64, u64) -> Result<()>>(
        &self,
        offsets: &mut R,
        mut row: F,
    ) -> Result<()> {
        let mut buf = [0u8; 8];
        offsets.read_exact(&mut buf)?;
        let mut prev = u64::from_le_bytes(buf);
        if prev != 0 {
            return Err(corrupt(&self.path, "first offset is not zero"));
        }
        for p in 0..self.n {
            offsets.read_exact(&mut buf)?;
            let next = u64::from_le_bytes(buf);
            if next < prev || next > self.arcs {
                return Err(corrupt(&self.path, format!("offsets corrupt at row {p}")));
            }
            row(p, prev, next)?;
            prev = next;
        }
        if prev != self.arcs {
            return Err(corrupt(&self.path, "final offset disagrees with arc count"));
        }
        Ok(())
    }

    /// Streams every vertex's degree in id order through a bounded
    /// buffer — the beyond-RAM degree scan.
    pub fn for_each_degree<F: FnMut(u64, u64)>(&mut self, mut f: F) -> Result<()> {
        self.file.seek(SeekFrom::Start(24))?;
        let mut offs = BufReader::with_capacity(DEFAULT_IO_BUF, &self.file);
        self.for_each_span(&mut offs, |p, start, end| {
            f(p, end - start);
            Ok(())
        })
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
        let mut row_buf: Vec<u64> = Vec::new();
        self.for_each_span(&mut offs, |p, start, end| {
            row_buf.clear();
            for _ in start..end {
                tgts.read_exact(&mut buf)?;
                row_buf.push(self.target(u64::from_le_bytes(buf))?);
            }
            f(p, &row_buf)
        })
    }

    /// Loads the whole file as an in-memory [`CsrGraph`] — validation-
    /// scale only; this is the one method that allocates O(arcs). A file
    /// over more than [`CsrGraph::MAX_VERTICES`] vertices is rejected
    /// before any allocation; row reads and the streaming visitors have
    /// no such limit. Every row must be strictly increasing, as
    /// [`CsrGraph::from_sorted_parts`] assumes.
    pub fn load(&mut self) -> Result<CsrGraph> {
        CsrGraph::check_vertex_count(self.n)?;
        self.file.seek(SeekFrom::Start(24))?;
        let mut reader = BufReader::with_capacity(DEFAULT_IO_BUF, &self.file);
        let mut offsets = Vec::with_capacity(self.n as usize + 1);
        offsets.push(0);
        self.for_each_span(&mut reader, |_, _, end| {
            offsets.push(end as usize);
            Ok(())
        })?;
        let mut buf = [0u8; 8];
        let mut targets = Vec::with_capacity(self.arcs as usize);
        for _ in 0..self.arcs {
            reader.read_exact(&mut buf)?;
            targets.push(self.target(u64::from_le_bytes(buf))? as u32);
        }
        for (p, span) in offsets.windows(2).enumerate() {
            if targets[span[0]..span[1]].windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt(&self.path, format!("row {p} not strictly increasing")));
            }
        }
        Ok(CsrGraph::from_sorted_parts(self.n, offsets, targets))
    }
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
        // Truncated payload.
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
    fn retired_versions_are_rejected() {
        let d = dir("retired_versions");
        // The fixed-width version 1 — magic, version 1, n, count, then 16
        // bytes per arc — and the footer-carrying version 2 — a 40-byte
        // header of magic, version 2, n, count, payload_len and
        // footer_len, the payload, then per-row (row, count) varints.
        // Both are also forged to u64::MAX sizes: rejected on the version
        // word before any size in the header is read, let alone
        // allocated for.
        let mut fixed = Vec::new();
        fixed.extend_from_slice(SHARD_MAGIC);
        fixed.extend_from_slice(&1u32.to_le_bytes());
        fixed.extend_from_slice(&4u64.to_le_bytes());
        fixed.extend_from_slice(&2u64.to_le_bytes());
        for (u, v) in [(0u64, 1u64), (1, 2)] {
            fixed.extend_from_slice(&u.to_le_bytes());
            fixed.extend_from_slice(&v.to_le_bytes());
        }
        let mut forged_1 = fixed[..16].to_vec();
        forged_1.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut v2 = Vec::new();
        v2.extend_from_slice(SHARD_MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        for word in [4u64, 2, 4, 4] {
            v2.extend_from_slice(&word.to_le_bytes()); // n, count, payload, footer
        }
        v2.extend_from_slice(&[0, 1, 1, 2]); // arcs (0,1) and (1,2)
        v2.extend_from_slice(&[0, 1, 1, 1]); // footer (row 0: 1), (row +1: 1)
        let mut forged_2 = v2[..16].to_vec();
        forged_2.extend_from_slice(&[0xFF; 24]);
        // A current file restamped as each retired version.
        let current = d.join("current.krsh");
        write_run(&current, 4, &[(0, 1), (1, 2)]);
        let current = std::fs::read(&current).unwrap();
        let restamp = |version: u32| {
            let mut bytes = current.clone();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            bytes
        };
        let files = [
            ("fixed", 1, fixed),
            ("forged_1", 1, forged_1),
            ("restamped_1", 1, restamp(1)),
            ("v2", 2, v2),
            ("forged_2", 2, forged_2),
            ("restamped_2", 2, restamp(2)),
        ];
        for (name, version, bytes) in files {
            let path = d.join(format!("{name}.krsh"));
            std::fs::write(&path, &bytes).unwrap();
            let want = format!("unsupported shard version {version}");
            let err = ShardReader::open(&path).expect_err(name).to_string();
            assert!(err.contains(&want), "{name}: {err}");
            let out = d.join(format!("{name}.krsc"));
            let err = build_external_csr(&[&path], &out, 512).expect_err(name).to_string();
            assert!(err.contains(&want), "{name}: external build: {err}");
        }
    }

    #[test]
    fn reader_rejects_payload_corruption() {
        let d = dir("payload");
        // Out-of-range row via a forged delta: arc decodes to u = 5 >= n.
        let path = d.join("range.krsh");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SHARD_MAGIC);
        bytes.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes()); // n
        bytes.extend_from_slice(&1u64.to_le_bytes()); // count
        bytes.extend_from_slice(&2u64.to_le_bytes()); // payload_len
        bytes.extend_from_slice(&[5, 0]); // arc (5, 0)
        std::fs::write(&path, &bytes).unwrap();
        assert!(drain(&path).is_err(), "out-of-range arc accepted");

        // Payload with leftover bytes after the declared arcs.
        let path = d.join("trailing.krsh");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SHARD_MAGIC);
        bytes.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes()); // two arcs' worth
        bytes.extend_from_slice(&[0, 1, 1, 0]); // arcs (0,1) and (1,0)
        std::fs::write(&path, &bytes).unwrap();
        assert!(drain(&path).is_err(), "trailing payload bytes accepted");

        // Payload ending mid-varint (continuation bit on the last byte).
        let path = d.join("midvarint.krsh");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SHARD_MAGIC);
        bytes.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&[0x00, 0x80]); // second varint never ends
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

        let mut ext = ExternalCsr::open(&out).unwrap();
        assert_eq!(ext.n(), 4);
        assert_eq!(ext.arc_count(), 5);
        assert_eq!(ext.load().unwrap(), reference);
        for p in 0..4u64 {
            assert_eq!(ext.degree(p).unwrap(), reference.degree(p), "degree({p})");
            assert_eq!(ext.row(p).unwrap(), row_u64(&reference, p), "row({p})");
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
            assert_eq!(row, row_u64(&reference, p), "for_each_row({p})");
        }
        assert!(ext.degree(99).is_err());
    }

    /// Row `p` of an in-memory CSR widened to the `u64` ids the
    /// out-of-core readers return.
    fn row_u64(g: &CsrGraph, p: u64) -> Vec<u64> {
        g.neighbors(p).iter().map(|&v| u64::from(v)).collect()
    }

    #[test]
    fn in_memory_loads_reject_more_than_2_pow_32_vertices() {
        let d = dir("too_many_vertices");
        // A valid two-arc run over 2^33 vertices: the out-of-core tier
        // takes it, but an in-memory CSR of it would need a 64 GiB offset
        // array, so `from_shards` must refuse before allocating one.
        let run = d.join("run.krsh");
        write_run(&run, 1 << 33, &[(0, 1), (1, 0)]);
        let err = CsrGraph::from_shards(&[&run], 1024).unwrap_err();
        assert!(matches!(err, GraphError::TooManyVertices { n } if n == 1 << 33), "{err}");
        assert!(err.to_string().contains("2^32"), "{err}");

        // External CSR over 2^32 + 1 vertices. The header must match the
        // file length, so the offsets region is a sparse hole: `open` and
        // the point reads accept it, `load` refuses it before allocating.
        let n = CsrGraph::MAX_VERTICES + 1;
        let path = d.join("wide.krsc");
        {
            let mut f = File::create(&path).unwrap();
            write_csr_header(&mut f, n, 0).unwrap();
            f.set_len(24 + (n + 1) * 8).unwrap();
        }
        let mut ext = ExternalCsr::open(&path).unwrap();
        assert_eq!(ext.n(), n);
        assert_eq!(ext.degree(n - 1).unwrap(), 0);
        let err = ext.load().unwrap_err();
        assert!(matches!(err, GraphError::TooManyVertices { n: m } if m == n), "{err}");
        drop(ext);
        std::fs::remove_file(&path).unwrap();
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
        // Disjoint runs, and runs that share 40 arcs the merge discards.
        let halves = base.len() / 2;
        let cases: Vec<(&str, Vec<Vec<Arc>>)> = vec![
            ("disjoint", vec![base[..halves].to_vec(), base[halves..].to_vec()]),
            ("overlapping", vec![base[..halves + 20].to_vec(), base[halves - 20..].to_vec()]),
        ];
        for (label, splits) in cases {
            let mut paths = Vec::new();
            for (i, split) in splits.iter().enumerate() {
                let path = d.join(format!("{label}_{i}.krsh"));
                write_run(&path, n, split);
                paths.push(path);
            }
            let one = d.join(format!("{label}_one.krsc"));
            let two = d.join(format!("{label}_two.krsc"));
            let s1 = build_external_csr(&paths, &one, 512).unwrap();
            let s2 = build_external_csr_two_pass(&paths, &two, 512).unwrap();
            assert_eq!(s1.merge_passes, 1, "{label}");
            assert_eq!(ExternalCsrStats { merge_passes: 2, ..s1 }, s2, "{label}: stats");
            assert_eq!(
                std::fs::read(&one).unwrap(),
                std::fs::read(&two).unwrap(),
                "{label}: one-pass and two-pass files differ"
            );
        }
    }

    #[test]
    fn failed_build_leaves_no_readable_csr() {
        let d = dir("failed_build");
        let n = 50u64;
        let mut arcs: Vec<Arc> =
            (0..n).flat_map(|u| (0..4).map(move |k| (u, (u + 7 * k) % n))).collect();
        arcs.sort_unstable();
        let run = d.join("run.krsh");
        write_run(&run, n, &arcs);
        let out = d.join("c.krsc");
        build_external_csr(&[&run], &out, 512).unwrap();
        assert!(ExternalCsr::open(&out).is_ok());
        // The last payload byte gains a continuation bit, so the run
        // decodes 12 blocks of 16 arcs and fails in the 13th: the merge
        // has already written most of the targets when it stops.
        let mut bytes = std::fs::read(&run).unwrap();
        *bytes.last_mut().unwrap() |= 0x80;
        std::fs::write(&run, &bytes).unwrap();
        let err = build_external_csr(&[&run], &out, 512).unwrap_err();
        assert!(err.to_string().contains("mid-varint"), "{err}");
        let written = std::fs::metadata(&out).unwrap().len();
        assert!(written > 24 + (n + 1) * 8, "the merge stopped before writing targets");
        assert!(ExternalCsr::open(&out).is_err(), "a failed build left a readable CSR");
    }

    #[test]
    fn external_builds_reject_unallocatable_vertex_counts() {
        let d = dir("huge_n");
        let run = d.join("run.krsh");
        let out = d.join("c.krsc");
        for n in [(1u64 << 61) + 5, u64::MAX] {
            // A valid one-arc run: nothing in its header bounds `n`.
            write_run(&run, n, &[(0, 1)]);
            assert_eq!(ShardReader::open(&run).unwrap().n(), n);
            for two_pass in [false, true] {
                let _ = std::fs::remove_file(&out);
                let built = std::panic::catch_unwind(|| {
                    if two_pass {
                        build_external_csr_two_pass(&[&run], &out, 512)
                    } else {
                        build_external_csr(&[&run], &out, 512)
                    }
                });
                let err = built.expect("the build panicked").unwrap_err();
                assert!(err.to_string().contains("offset table"), "n={n}: {err}");
                assert!(!out.exists(), "n={n}: the build created its output first");
            }
        }
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

        write_run(&run, 3, &[(0, 1), (0, 2), (2, 2)]);
        build_external_csr(&[&run], &out, 1024).unwrap();
        let good = std::fs::read(&out).unwrap();
        // Offsets [0, 2, 2, 3] at byte 24, targets [1, 2, 2] at byte 56.
        let with_offsets = |offsets: [u64; 4]| {
            let mut bad = good.clone();
            for (w, o) in offsets.iter().enumerate() {
                bad[24 + 8 * w..32 + 8 * w].copy_from_slice(&o.to_le_bytes());
            }
            bad
        };
        // Each corruption keeps the file length, so `open` accepts it
        // and every reader has to check the offsets itself.
        for offsets in [[0, 2, 2, 100], [0, 2, 2, 2], [1, 2, 2, 3], [3, 3, 3, 3], [0, 3, 2, 3]] {
            std::fs::write(&out, with_offsets(offsets)).unwrap();
            let mut ext = ExternalCsr::open(&out).unwrap();
            assert!((0..3).any(|p| ext.degree(p).is_err()), "degree read {offsets:?}");
            let mut row = Vec::new();
            assert!((0..3).any(|p| ext.row_into(p, &mut row).is_err()), "row read {offsets:?}");
            assert!(ext.for_each_degree(|_, _| {}).is_err(), "degree scan read {offsets:?}");
            assert!(ext.for_each_row(|_, _| Ok(())).is_err(), "row scan read {offsets:?}");
            assert!(ext.load().is_err(), "load read {offsets:?}");
        }
        // A row stored out of order: only `load` promises sorted rows.
        let mut bad = good.clone();
        bad[56..64].copy_from_slice(&2u64.to_le_bytes());
        bad[64..72].copy_from_slice(&1u64.to_le_bytes());
        std::fs::write(&out, &bad).unwrap();
        assert!(ExternalCsr::open(&out).unwrap().load().is_err(), "unsorted row loaded");
        // A target past n: every reader rejects it, row reads on both
        // paths included.
        let mut bad = good.clone();
        bad[56..64].copy_from_slice(&100u64.to_le_bytes());
        std::fs::write(&out, &bad).unwrap();
        let mut row = Vec::new();
        let mut ext = ExternalCsr::open(&out).unwrap();
        assert!(ext.row_into(0, &mut row).is_err(), "row read target 100 of 3");
        let mut cached = ExternalCsr::open_with_cache(&out, CsrCacheConfig::default()).unwrap();
        assert!(cached.row_into(0, &mut row).is_err(), "cached row read target 100 of 3");
        assert!(ext.for_each_row(|_, _| Ok(())).is_err(), "row scan read target 100 of 3");
        assert!(ext.load().is_err(), "load read target 100 of 3");
        std::fs::write(&out, &good).unwrap();
        assert_eq!(ExternalCsr::open(&out).unwrap().load().unwrap().nnz(), 3);
    }
}
