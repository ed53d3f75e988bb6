//! The kron-serve wire protocol: length-prefixed binary frames.
//!
//! ## Frame grammar
//!
//! ```text
//! frame    := len:u32le payload            len = |payload|, 10 ≤ len ≤ MAX_FRAME_LEN
//! payload  := version:u8 tag:u8 request_id:u64le body
//!
//! request tags (client → server):
//!   0..=5  single query                     body := vertex:u64le
//!          (0 Neighbors, 1 Degree, 2 TriangleCount,
//!           3 Closeness, 4 CommunityId, 5 HopsFromRoot)
//!   6      pipelined batch                  body := count:u32le (kind:u8 vertex:u64le)^count
//!   7      shutdown request                 body := ε
//!
//! admin request tags (client → server; same framing, served by the
//! same worker pool so scrapes obey query backpressure):
//!   8      Stats                            body := ε
//!   9      SlowQueries                      body := threshold_ns:u64le limit:u32le
//!   10     FlightDump                       body := ε
//!   11     ResetStats                       body := ε
//!
//! response tags (server → client):
//!   0      single reply                     body := reply
//!   1      batch reply                      body := count:u32le reply^count
//!   2      shutting down                    body := ε
//!   3      admin reply                      body := UTF-8 JSON document
//!
//! reply    := 0:u8 kind:u8 value            (ok)
//!           | 1:u8 code:u8 detail:u64le     (error)
//! code     := 0 VertexOutOfRange            (detail = the vertex)
//!           | 1 ReplyTooLarge               (detail = the row's arc count)
//! value    := count:u32le neighbor:u64le^count   (Neighbors)
//!           | v:u64le                            (Degree, TriangleCount)
//!           | bits:u64le                         (Closeness — f64::to_bits, so
//!                                                 equality is bit-exact)
//!           | v:u32le                            (CommunityId, HopsFromRoot)
//! ```
//!
//! ## Hardening contract
//!
//! Decoding adversarial bytes must never panic and never allocate more
//! than the frame itself justifies: every count field is validated
//! against the *actual* remaining byte length before any reservation, so
//! a forged `count = u64::MAX` costs one comparison, not an OOM. Frame
//! lengths outside `[HEADER_LEN, MAX_FRAME_LEN]` are rejected before the
//! payload is read. Framing violations are connection-fatal (the server
//! drops the connection); semantic errors (vertex out of range, a row
//! too large for its frame) travel back as error replies and the
//! connection lives on.
//!
//! ## Reply budget
//!
//! Every reply frame fits in [`MAX_FRAME_LEN`] by construction. Entries
//! are answered in query order; a Neighbors entry gets its row only if
//! the payload so far, plus the row's `6 + 8·deg` bytes, plus 10 bytes
//! (the largest other reply) for each entry still to come, stays within
//! the cap (`reply_room`, `neighbors_fit`). Otherwise it gets a
//! [`ErrorCode::ReplyTooLarge`] reply. The decision depends on the
//! request and the factor degrees alone, so a client can predict it.

use std::io::{self, Read};

/// Protocol version stamped into every payload header.
pub const PROTO_VERSION: u8 = 1;
/// Bytes of payload header: version, tag, request id.
pub const HEADER_LEN: usize = 10;
/// Upper bound on one frame's payload; bounds every decoder allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;
/// Upper bound on queries per batch frame.
pub const MAX_BATCH: usize = 4096;
/// Largest reply other than a Neighbors row: an error or a `u64` value.
const SCALAR_REPLY_MAX: usize = 10;
// A full batch of the largest scalar replies always fits one frame.
const _: () = assert!(HEADER_LEN + 4 + SCALAR_REPLY_MAX * MAX_BATCH <= MAX_FRAME_LEN);

/// The six per-vertex query kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Full sorted neighbor row of the vertex — the one O(deg) query.
    Neighbors,
    /// `d_C(p) = d_A(i)·d_B(k)`.
    Degree,
    /// Cor. 1 per-vertex triangle participation.
    TriangleCount,
    /// Thm. 4 closeness centrality (returned as `f64::to_bits`).
    Closeness,
    /// Kronecker-partition label from factor connected components.
    CommunityId,
    /// Thm. 3 hop count from the server's configured root vertex.
    HopsFromRoot,
}

impl QueryKind {
    /// Every kind, in wire-tag order.
    pub const ALL: [QueryKind; 6] = [
        QueryKind::Neighbors,
        QueryKind::Degree,
        QueryKind::TriangleCount,
        QueryKind::Closeness,
        QueryKind::CommunityId,
        QueryKind::HopsFromRoot,
    ];

    /// Wire tag of this kind.
    #[inline]
    pub fn as_u8(self) -> u8 {
        match self {
            QueryKind::Neighbors => 0,
            QueryKind::Degree => 1,
            QueryKind::TriangleCount => 2,
            QueryKind::Closeness => 3,
            QueryKind::CommunityId => 4,
            QueryKind::HopsFromRoot => 5,
        }
    }

    /// Parses a wire tag.
    #[inline]
    pub fn from_u8(v: u8) -> Option<QueryKind> {
        QueryKind::ALL.get(v as usize).copied()
    }

    /// Stable lowercase name (metric labels, reports).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Neighbors => "neighbors",
            QueryKind::Degree => "degree",
            QueryKind::TriangleCount => "triangles",
            QueryKind::Closeness => "closeness",
            QueryKind::CommunityId => "community",
            QueryKind::HopsFromRoot => "hops",
        }
    }
}

/// One query: a kind applied to a product vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// What to compute.
    pub kind: QueryKind,
    /// The product vertex `p ∈ 0..n_C`.
    pub vertex: u64,
}

/// Observability requests on the admin opcodes (tags 8–11). Versioned
/// like everything else by the payload's `version` byte; replies are
/// [`Response::AdminJson`] documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminRequest {
    /// Serving snapshot: the exact always-on serve counters and per-kind
    /// latency quantiles derived from the flight recorder.
    Stats,
    /// Recent queries whose processing time met the threshold, with
    /// per-stage breakdowns from the flight recorder.
    SlowQueries {
        /// Minimum processing time (queue + engine + write), ns.
        threshold_ns: u64,
        /// Maximum entries in the reply (also capped server-side).
        limit: u32,
    },
    /// Recent flight-recorder contents (capped to fit one frame).
    FlightDump,
    /// Zero what `Stats` reports: the serve counters and the flight
    /// recorder.
    ResetStats,
}

/// Owned request body (the convenience/test form; the server's hot path
/// uses [`decode_request_into`] with a reused scratch vector instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// One query, one reply.
    Single(Query),
    /// Pipelined queries answered in one batch reply frame.
    Batch(Vec<Query>),
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// An observability request (tags 8–11).
    Admin(AdminRequest),
}

/// Error codes carried inside error replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The queried vertex is `≥ n_C`; `detail` echoes the vertex.
    VertexOutOfRange,
    /// The Neighbors row does not fit the reply frame's budget (module
    /// docs); `detail` is the row's arc count.
    ReplyTooLarge,
}

impl ErrorCode {
    /// Wire tag.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::VertexOutOfRange => 0,
            ErrorCode::ReplyTooLarge => 1,
        }
    }

    /// Parses a wire tag.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            0 => Some(ErrorCode::VertexOutOfRange),
            1 => Some(ErrorCode::ReplyTooLarge),
            _ => None,
        }
    }
}

/// A successfully computed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Sorted neighbor ids.
    Neighbors(Vec<u64>),
    /// Product degree.
    Degree(u64),
    /// Per-vertex triangle count.
    Triangles(u64),
    /// Closeness as raw `f64` bits.
    ClosenessBits(u64),
    /// Kronecker-partition community label.
    CommunityId(u32),
    /// Hops from the server's root (`u32::MAX` = unreachable).
    Hops(u32),
}

impl Value {
    /// The kind this value answers.
    pub fn kind(&self) -> QueryKind {
        match self {
            Value::Neighbors(_) => QueryKind::Neighbors,
            Value::Degree(_) => QueryKind::Degree,
            Value::Triangles(_) => QueryKind::TriangleCount,
            Value::ClosenessBits(_) => QueryKind::Closeness,
            Value::CommunityId(_) => QueryKind::CommunityId,
            Value::Hops(_) => QueryKind::HopsFromRoot,
        }
    }
}

/// One reply inside a response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The computed value.
    Ok(Value),
    /// A semantic error; the connection stays usable.
    Err {
        /// What went wrong.
        code: ErrorCode,
        /// Input echo (e.g. the offending vertex).
        detail: u64,
    },
}

/// Owned response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to a single-query frame.
    Single(Reply),
    /// Replies to a batch frame, in query order.
    Batch(Vec<Reply>),
    /// Acknowledgement of a shutdown request.
    ShuttingDown,
    /// Reply to an admin request: a UTF-8 JSON document.
    AdminJson(String),
}

/// Why a payload failed to decode. All variants are connection-fatal
/// framing/syntax violations, except that servers may choose to treat
/// nothing here as recoverable — a peer that emits malformed bytes once
/// cannot be trusted to frame the next message correctly either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload shorter than its header or a field's fixed size.
    Truncated,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown request/response tag byte.
    BadTag(u8),
    /// Unknown query kind inside a batch entry.
    BadKind(u8),
    /// Unknown error code inside an error reply.
    BadErrorCode(u8),
    /// Body length inconsistent with the declared counts.
    BadLength,
    /// Batch with zero entries.
    EmptyBatch,
    /// Batch entry count above [`MAX_BATCH`].
    BatchTooLarge(u32),
    /// Admin reply body is not valid UTF-8.
    BadText,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "payload truncated"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            ProtoError::BadKind(k) => write!(f, "unknown query kind {k}"),
            ProtoError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            ProtoError::BadLength => write!(f, "body length inconsistent with counts"),
            ProtoError::EmptyBatch => write!(f, "batch frame with zero entries"),
            ProtoError::BatchTooLarge(n) => {
                write!(f, "batch of {n} entries exceeds cap {MAX_BATCH}")
            }
            ProtoError::BadText => write!(f, "admin reply body is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

const TAG_BATCH: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_ADMIN_STATS: u8 = 8;
const TAG_ADMIN_SLOW: u8 = 9;
const TAG_ADMIN_FLIGHT: u8 = 10;
const TAG_ADMIN_RESET: u8 = 11;
const RESP_SINGLE: u8 = 0;
const RESP_BATCH: u8 = 1;
const RESP_SHUTTING_DOWN: u8 = 2;
/// Response tag of admin JSON replies (public so encode helpers outside
/// this module can begin a frame with it).
pub const RESP_ADMIN_JSON: u8 = 3;

#[inline]
fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

// ---------------------------------------------------------------------------
// Frame assembly (appends `len:u32le payload` to a caller-owned buffer, so
// steady-state encoding never allocates once the buffer has warmed up).
// ---------------------------------------------------------------------------

/// Starts a frame: appends the length placeholder plus the payload header
/// and returns the frame's start offset for [`finish_frame`].
pub fn begin_frame(out: &mut Vec<u8>, tag: u8, request_id: u64) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(PROTO_VERSION);
    out.push(tag);
    out.extend_from_slice(&request_id.to_le_bytes());
    start
}

/// Completes a frame begun at `start`: patches the length prefix.
/// Panics if the payload outgrew [`MAX_FRAME_LEN`] — encoders own their
/// data and must size batches/rows to fit; the server's replies do by
/// the reply budget (module docs).
pub fn finish_frame(out: &mut Vec<u8>, start: usize) {
    let len = out.len() - start - 4;
    assert!(
        (HEADER_LEN..=MAX_FRAME_LEN).contains(&len),
        "frame payload of {len} bytes outside [{HEADER_LEN}, {MAX_FRAME_LEN}]"
    );
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Bytes the next reply of the frame begun at `start` in `out` may take
/// so that `later` more replies of at most [`SCALAR_REPLY_MAX`] bytes
/// still fit in [`MAX_FRAME_LEN`].
#[inline]
pub(crate) fn reply_room(out: &[u8], start: usize, later: usize) -> usize {
    let payload = out.len() - start - 4;
    MAX_FRAME_LEN.saturating_sub(payload + SCALAR_REPLY_MAX * later)
}

/// Whether an ok Neighbors reply carrying `deg` neighbors (`6 + 8·deg`
/// bytes) fits in `room` bytes.
#[inline]
pub(crate) fn neighbors_fit(deg: u64, room: usize) -> bool {
    deg.saturating_mul(8).saturating_add(6) <= room as u64
}

/// Appends an ok-reply with a `u64` value (Degree, TriangleCount,
/// Closeness bits).
#[inline]
pub fn put_ok_u64(out: &mut Vec<u8>, kind: QueryKind, v: u64) {
    out.push(0);
    out.push(kind.as_u8());
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an ok-reply with a `u32` value (CommunityId, HopsFromRoot).
#[inline]
pub fn put_ok_u32(out: &mut Vec<u8>, kind: QueryKind, v: u32) {
    out.push(0);
    out.push(kind.as_u8());
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an ok-reply carrying a neighbor row.
#[inline]
pub fn put_ok_neighbors(out: &mut Vec<u8>, row: &[u64]) {
    out.push(0);
    out.push(QueryKind::Neighbors.as_u8());
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for &q in row {
        out.extend_from_slice(&q.to_le_bytes());
    }
}

/// Appends an error reply.
#[inline]
pub fn put_err(out: &mut Vec<u8>, code: ErrorCode, detail: u64) {
    out.push(1);
    out.push(code.as_u8());
    out.extend_from_slice(&detail.to_le_bytes());
}

fn put_reply(out: &mut Vec<u8>, reply: &Reply) {
    match reply {
        Reply::Ok(Value::Neighbors(row)) => put_ok_neighbors(out, row),
        Reply::Ok(Value::Degree(v)) => put_ok_u64(out, QueryKind::Degree, *v),
        Reply::Ok(Value::Triangles(v)) => put_ok_u64(out, QueryKind::TriangleCount, *v),
        Reply::Ok(Value::ClosenessBits(v)) => put_ok_u64(out, QueryKind::Closeness, *v),
        Reply::Ok(Value::CommunityId(v)) => put_ok_u32(out, QueryKind::CommunityId, *v),
        Reply::Ok(Value::Hops(v)) => put_ok_u32(out, QueryKind::HopsFromRoot, *v),
        Reply::Err { code, detail } => put_err(out, *code, *detail),
    }
}

/// Appends a complete request frame.
pub fn encode_request(request_id: u64, req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Single(q) => {
            let start = begin_frame(out, q.kind.as_u8(), request_id);
            out.extend_from_slice(&q.vertex.to_le_bytes());
            finish_frame(out, start);
        }
        Request::Batch(queries) => {
            assert!(
                !queries.is_empty() && queries.len() <= MAX_BATCH,
                "batch size {} outside [1, {MAX_BATCH}]",
                queries.len()
            );
            let start = begin_frame(out, TAG_BATCH, request_id);
            out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
            for q in queries {
                out.push(q.kind.as_u8());
                out.extend_from_slice(&q.vertex.to_le_bytes());
            }
            finish_frame(out, start);
        }
        Request::Shutdown => {
            let start = begin_frame(out, TAG_SHUTDOWN, request_id);
            finish_frame(out, start);
        }
        Request::Admin(admin) => match admin {
            AdminRequest::Stats => {
                let start = begin_frame(out, TAG_ADMIN_STATS, request_id);
                finish_frame(out, start);
            }
            AdminRequest::SlowQueries { threshold_ns, limit } => {
                let start = begin_frame(out, TAG_ADMIN_SLOW, request_id);
                out.extend_from_slice(&threshold_ns.to_le_bytes());
                out.extend_from_slice(&limit.to_le_bytes());
                finish_frame(out, start);
            }
            AdminRequest::FlightDump => {
                let start = begin_frame(out, TAG_ADMIN_FLIGHT, request_id);
                finish_frame(out, start);
            }
            AdminRequest::ResetStats => {
                let start = begin_frame(out, TAG_ADMIN_RESET, request_id);
                finish_frame(out, start);
            }
        },
    }
}

/// Appends a complete response frame.
pub fn encode_response(request_id: u64, resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Single(reply) => {
            let start = begin_frame(out, RESP_SINGLE, request_id);
            put_reply(out, reply);
            finish_frame(out, start);
        }
        Response::Batch(replies) => {
            let start = begin_frame(out, RESP_BATCH, request_id);
            out.extend_from_slice(&(replies.len() as u32).to_le_bytes());
            for r in replies {
                put_reply(out, r);
            }
            finish_frame(out, start);
        }
        Response::ShuttingDown => {
            let start = begin_frame(out, RESP_SHUTTING_DOWN, request_id);
            finish_frame(out, start);
        }
        Response::AdminJson(json) => {
            put_admin_json(out, request_id, json);
        }
    }
}

/// Appends a complete admin-JSON response frame. Builders must keep the
/// document under `MAX_FRAME_LEN - HEADER_LEN` bytes ([`finish_frame`]
/// panics otherwise) — the flight-dump builder caps its event count for
/// exactly this reason.
pub fn put_admin_json(out: &mut Vec<u8>, request_id: u64, json: &str) {
    let start = begin_frame(out, RESP_ADMIN_JSON, request_id);
    out.extend_from_slice(json.as_bytes());
    finish_frame(out, start);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Request body decoded into caller-owned storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestBody {
    /// One query.
    Single(Query),
    /// The batch's queries were written into the `batch` scratch vector.
    Batch,
    /// Graceful-shutdown request.
    Shutdown,
    /// An observability request (tags 8–11).
    Admin(AdminRequest),
}

/// Decodes a request payload. Batch queries land in `batch` (cleared
/// first), so a worker that reuses one scratch vector decodes every
/// frame without allocating in steady state.
pub fn decode_request_into(
    payload: &[u8],
    batch: &mut Vec<Query>,
) -> Result<(u64, RequestBody), ProtoError> {
    if payload.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    if payload[0] != PROTO_VERSION {
        return Err(ProtoError::BadVersion(payload[0]));
    }
    let tag = payload[1];
    let request_id = u64_at(payload, 2);
    let body = &payload[HEADER_LEN..];
    match tag {
        0..=5 => {
            let kind = QueryKind::from_u8(tag).expect("tag range checked");
            if body.len() != 8 {
                return Err(ProtoError::BadLength);
            }
            Ok((request_id, RequestBody::Single(Query { kind, vertex: u64_at(body, 0) })))
        }
        TAG_BATCH => {
            if body.len() < 4 {
                return Err(ProtoError::Truncated);
            }
            let count = u32_at(body, 0);
            if count == 0 {
                return Err(ProtoError::EmptyBatch);
            }
            if count as usize > MAX_BATCH {
                return Err(ProtoError::BatchTooLarge(count));
            }
            let count = count as usize;
            // Exact-length check *before* any reservation: a forged count
            // can never cost more than this comparison.
            if body.len() - 4 != count * 9 {
                return Err(ProtoError::BadLength);
            }
            batch.clear();
            batch.reserve(count);
            for e in 0..count {
                let at = 4 + e * 9;
                let kind = QueryKind::from_u8(body[at])
                    .ok_or(ProtoError::BadKind(body[at]))?;
                batch.push(Query { kind, vertex: u64_at(body, at + 1) });
            }
            Ok((request_id, RequestBody::Batch))
        }
        TAG_SHUTDOWN => {
            if !body.is_empty() {
                return Err(ProtoError::BadLength);
            }
            Ok((request_id, RequestBody::Shutdown))
        }
        TAG_ADMIN_STATS | TAG_ADMIN_FLIGHT | TAG_ADMIN_RESET => {
            if !body.is_empty() {
                return Err(ProtoError::BadLength);
            }
            let admin = match tag {
                TAG_ADMIN_STATS => AdminRequest::Stats,
                TAG_ADMIN_FLIGHT => AdminRequest::FlightDump,
                _ => AdminRequest::ResetStats,
            };
            Ok((request_id, RequestBody::Admin(admin)))
        }
        TAG_ADMIN_SLOW => {
            if body.len() != 12 {
                return Err(ProtoError::BadLength);
            }
            Ok((
                request_id,
                RequestBody::Admin(AdminRequest::SlowQueries {
                    threshold_ns: u64_at(body, 0),
                    limit: u32_at(body, 8),
                }),
            ))
        }
        t => Err(ProtoError::BadTag(t)),
    }
}

/// Owned-form request decode (tests and non-hot-path callers).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
    let mut batch = Vec::new();
    let (id, body) = decode_request_into(payload, &mut batch)?;
    let req = match body {
        RequestBody::Single(q) => Request::Single(q),
        RequestBody::Batch => Request::Batch(batch),
        RequestBody::Shutdown => Request::Shutdown,
        RequestBody::Admin(a) => Request::Admin(a),
    };
    Ok((id, req))
}

/// Byte cursor over a reply list; every read is bounds-checked.
struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, ProtoError> {
        let v = *self.b.get(self.at).ok_or(ProtoError::Truncated)?;
        self.at += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        if self.b.len() - self.at < 4 {
            return Err(ProtoError::Truncated);
        }
        let v = u32_at(self.b, self.at);
        self.at += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        if self.b.len() - self.at < 8 {
            return Err(ProtoError::Truncated);
        }
        let v = u64_at(self.b, self.at);
        self.at += 8;
        Ok(v)
    }

    fn reply(&mut self) -> Result<Reply, ProtoError> {
        match self.u8()? {
            0 => {
                let raw = self.u8()?;
                let kind = QueryKind::from_u8(raw).ok_or(ProtoError::BadKind(raw))?;
                let value = match kind {
                    QueryKind::Neighbors => {
                        let count = self.u32()? as usize;
                        // Bound the allocation by the actual bytes left.
                        if self.b.len() - self.at < count * 8 {
                            return Err(ProtoError::Truncated);
                        }
                        let mut row = Vec::with_capacity(count);
                        for _ in 0..count {
                            row.push(self.u64()?);
                        }
                        Value::Neighbors(row)
                    }
                    QueryKind::Degree => Value::Degree(self.u64()?),
                    QueryKind::TriangleCount => Value::Triangles(self.u64()?),
                    QueryKind::Closeness => Value::ClosenessBits(self.u64()?),
                    QueryKind::CommunityId => Value::CommunityId(self.u32()?),
                    QueryKind::HopsFromRoot => Value::Hops(self.u32()?),
                };
                Ok(Reply::Ok(value))
            }
            1 => {
                let raw = self.u8()?;
                let code = ErrorCode::from_u8(raw).ok_or(ProtoError::BadErrorCode(raw))?;
                let detail = self.u64()?;
                Ok(Reply::Err { code, detail })
            }
            s => Err(ProtoError::BadTag(s)),
        }
    }
}

/// Decodes a response payload into its owned form.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ProtoError> {
    if payload.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    if payload[0] != PROTO_VERSION {
        return Err(ProtoError::BadVersion(payload[0]));
    }
    let tag = payload[1];
    let request_id = u64_at(payload, 2);
    let mut cur = Cursor { b: &payload[HEADER_LEN..], at: 0 };
    let resp = match tag {
        RESP_SINGLE => Response::Single(cur.reply()?),
        RESP_BATCH => {
            let count = cur.u32()?;
            if count as usize > MAX_BATCH {
                return Err(ProtoError::BatchTooLarge(count));
            }
            // Replies are ≥ 2 bytes each; cap the reservation by what the
            // remaining bytes could possibly hold.
            let cap = (count as usize).min((cur.b.len() - cur.at) / 2);
            let mut replies = Vec::with_capacity(cap);
            for _ in 0..count {
                replies.push(cur.reply()?);
            }
            Response::Batch(replies)
        }
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        RESP_ADMIN_JSON => {
            let text = std::str::from_utf8(cur.b).map_err(|_| ProtoError::BadText)?;
            cur.at = cur.b.len();
            Response::AdminJson(text.to_string())
        }
        t => return Err(ProtoError::BadTag(t)),
    };
    if cur.at != cur.b.len() {
        return Err(ProtoError::BadLength);
    }
    Ok((request_id, resp))
}

// ---------------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------------

/// Reads `buf.len()` bytes; `Ok(false)` on EOF before the first byte,
/// `Err(UnexpectedEof)` on EOF mid-way.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one frame's payload into `buf` (resized to the payload length;
/// the capacity stabilizes after warmup, so steady-state reads never
/// allocate). Returns `Ok(false)` on clean EOF at a frame boundary and
/// `Err(InvalidData)` on an out-of-bounds length prefix — the caller
/// must drop the connection; nothing after a bad prefix can be trusted.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len4 = [0u8; 4];
    if !read_full(r, &mut len4)? {
        return Ok(false);
    }
    let len = u32::from_le_bytes(len4) as usize;
    if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside [{HEADER_LEN}, {MAX_FRAME_LEN}]"),
        ));
    }
    buf.resize(len, 0);
    if !read_full(r, buf)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed between length prefix and payload",
        ));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_request_roundtrip() {
        for kind in QueryKind::ALL {
            let req = Request::Single(Query { kind, vertex: 0xDEAD_BEEF });
            let mut buf = Vec::new();
            encode_request(77, &req, &mut buf);
            let (id, parsed) = decode_request(&buf[4..]).unwrap();
            assert_eq!(id, 77);
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn batch_and_shutdown_roundtrip() {
        let req = Request::Batch(vec![
            Query { kind: QueryKind::Degree, vertex: 3 },
            Query { kind: QueryKind::Neighbors, vertex: 9 },
        ]);
        let mut buf = Vec::new();
        encode_request(1, &req, &mut buf);
        assert_eq!(decode_request(&buf[4..]).unwrap(), (1, req));

        buf.clear();
        encode_request(2, &Request::Shutdown, &mut buf);
        assert_eq!(decode_request(&buf[4..]).unwrap(), (2, Request::Shutdown));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::Batch(vec![
            Reply::Ok(Value::Neighbors(vec![1, 2, 3])),
            Reply::Ok(Value::Degree(12)),
            Reply::Ok(Value::ClosenessBits(1.5f64.to_bits())),
            Reply::Err { code: ErrorCode::VertexOutOfRange, detail: 999 },
            Reply::Err { code: ErrorCode::ReplyTooLarge, detail: 160_000 },
            Reply::Ok(Value::CommunityId(4)),
            Reply::Ok(Value::Hops(2)),
        ]);
        let mut buf = Vec::new();
        encode_response(5, &resp, &mut buf);
        assert_eq!(decode_response(&buf[4..]).unwrap(), (5, resp));
    }

    #[test]
    fn reply_budget_boundaries() {
        let mut out = Vec::new();
        let start = begin_frame(&mut out, RESP_BATCH, 1);
        out.extend_from_slice(&8u32.to_le_bytes());
        // 14 payload bytes so far, 7 entries still to come.
        let room = reply_room(&out, start, 7);
        assert_eq!(room, MAX_FRAME_LEN - 14 - 7 * SCALAR_REPLY_MAX);
        let deg = ((room - 6) / 8) as u64;
        assert!(neighbors_fit(deg, room));
        assert!(!neighbors_fit(deg + 1, room));
        assert!(!neighbors_fit(u64::MAX, room));
    }

    #[test]
    fn admin_request_and_reply_roundtrip() {
        for admin in [
            AdminRequest::Stats,
            AdminRequest::SlowQueries { threshold_ns: 1_500_000, limit: 32 },
            AdminRequest::FlightDump,
            AdminRequest::ResetStats,
        ] {
            let req = Request::Admin(admin);
            let mut buf = Vec::new();
            encode_request(99, &req, &mut buf);
            assert_eq!(decode_request(&buf[4..]).unwrap(), (99, req));
        }

        let resp = Response::AdminJson("{\"served_total\": 12}".to_string());
        let mut buf = Vec::new();
        encode_response(7, &resp, &mut buf);
        assert_eq!(decode_response(&buf[4..]).unwrap(), (7, resp));
    }

    #[test]
    fn admin_bad_bodies_rejected() {
        // Stats with a non-empty body.
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf, TAG_ADMIN_STATS, 1);
        buf.push(0);
        finish_frame(&mut buf, start);
        assert_eq!(decode_request(&buf[4..]), Err(ProtoError::BadLength));

        // SlowQueries body must be exactly 12 bytes.
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf, TAG_ADMIN_SLOW, 1);
        buf.extend_from_slice(&[0u8; 11]);
        finish_frame(&mut buf, start);
        assert_eq!(decode_request(&buf[4..]), Err(ProtoError::BadLength));

        // Admin reply body must be UTF-8.
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf, RESP_ADMIN_JSON, 1);
        buf.extend_from_slice(&[0xff, 0xfe, 0x80]);
        finish_frame(&mut buf, start);
        assert_eq!(decode_response(&buf[4..]), Err(ProtoError::BadText));
    }

    #[test]
    fn adversarial_counts_never_overallocate() {
        // Batch frame claiming u32::MAX entries with a 9-byte body.
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf, 6, 1);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 9]);
        finish_frame(&mut buf, start);
        assert_eq!(
            decode_request(&buf[4..]),
            Err(ProtoError::BatchTooLarge(u32::MAX))
        );

        // Neighbors reply claiming u32::MAX ids with no bytes behind it.
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf, RESP_SINGLE, 1);
        buf.push(0);
        buf.push(QueryKind::Neighbors.as_u8());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        finish_frame(&mut buf, start);
        assert_eq!(decode_response(&buf[4..]), Err(ProtoError::Truncated));
    }

    #[test]
    fn framing_bounds_rejected() {
        // Oversized length prefix.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut cursor, &mut buf).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Undersized (below header length).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut cursor, &mut buf).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Truncated payload.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&18u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 10]);
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut cursor, &mut buf).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );

        // Clean EOF at boundary.
        let mut cursor = std::io::Cursor::new(Vec::new());
        assert!(!read_frame(&mut cursor, &mut buf).unwrap());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        encode_response(5, &Response::Single(Reply::Ok(Value::Degree(1))), &mut buf);
        buf.push(0); // trailing garbage inside the declared payload
        let patched = {
            let mut b = buf.clone();
            let len = (b.len() - 4) as u32;
            b[..4].copy_from_slice(&len.to_le_bytes());
            b
        };
        assert_eq!(decode_response(&patched[4..]), Err(ProtoError::BadLength));

        let mut buf = Vec::new();
        encode_request(5, &Request::Single(Query { kind: QueryKind::Degree, vertex: 0 }), &mut buf);
        buf.push(0);
        let patched = {
            let mut b = buf.clone();
            let len = (b.len() - 4) as u32;
            b[..4].copy_from_slice(&len.to_le_bytes());
            b
        };
        assert_eq!(decode_request(&patched[4..]), Err(ProtoError::BadLength));
    }
}
