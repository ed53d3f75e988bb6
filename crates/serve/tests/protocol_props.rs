//! Property tests for the wire protocol: round-trips over random
//! requests/responses (batches and error frames included) and
//! decoder-never-panics over adversarially mutated bytes.

use kron_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, ErrorCode,
    Query, QueryKind, Reply, Request, Response, Value, MAX_BATCH, MAX_FRAME_LEN,
};
use proptest::prelude::*;

fn query_of((kind, vertex): (u8, u64)) -> Query {
    Query { kind: QueryKind::from_u8(kind).expect("kind in 0..6"), vertex }
}

fn reply_of((variant, v, row): (u8, u64, Vec<u64>)) -> Reply {
    match variant % 8 {
        0 => Reply::Ok(Value::Neighbors(row)),
        1 => Reply::Ok(Value::Degree(v)),
        2 => Reply::Ok(Value::Triangles(v)),
        3 => Reply::Ok(Value::ClosenessBits(v)),
        4 => Reply::Ok(Value::CommunityId(v as u32)),
        5 => Reply::Ok(Value::Hops(v as u32)),
        6 => Reply::Err { code: ErrorCode::VertexOutOfRange, detail: v },
        _ => Reply::Err { code: ErrorCode::ReplyTooLarge, detail: v },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_request_roundtrips(id in 0u64..u64::MAX, kv in (0u8..6, 0u64..1 << 40)) {
        let req = Request::Single(query_of(kv));
        let mut buf = Vec::new();
        encode_request(id, &req, &mut buf);
        prop_assert_eq!(decode_request(&buf[4..]), Ok((id, req)));
    }

    #[test]
    fn batch_request_roundtrips(
        id in 0u64..u64::MAX,
        kvs in proptest::collection::vec((0u8..6, 0u64..1 << 40), 1..64usize),
    ) {
        let req = Request::Batch(kvs.into_iter().map(query_of).collect());
        let mut buf = Vec::new();
        encode_request(id, &req, &mut buf);
        prop_assert_eq!(decode_request(&buf[4..]), Ok((id, req)));
    }

    #[test]
    fn response_roundtrips(
        id in 0u64..u64::MAX,
        single in proptest::bool::ANY,
        replies in proptest::collection::vec(
            (0u8..8, 0u64..u64::MAX, proptest::collection::vec(0u64..1 << 40, 0..16usize)),
            1..16usize,
        ),
    ) {
        let resp = if single {
            Response::Single(reply_of(replies.into_iter().next().expect("non-empty")))
        } else {
            Response::Batch(replies.into_iter().map(reply_of).collect())
        };
        let mut buf = Vec::new();
        encode_response(id, &resp, &mut buf);
        prop_assert_eq!(decode_response(&buf[4..]), Ok((id, resp)));
    }

    #[test]
    fn mutated_requests_never_panic(
        kvs in proptest::collection::vec((0u8..6, 0u64..1 << 40), 1..32usize),
        mutations in proptest::collection::vec((0usize..4096, 0u8..=255), 1..16usize),
        cut in 0usize..4096,
    ) {
        let req = Request::Batch(kvs.into_iter().map(query_of).collect());
        let mut buf = Vec::new();
        encode_request(7, &req, &mut buf);
        for &(at, byte) in &mutations {
            let len = buf.len();
            buf[at % len] = byte;
        }
        buf.truncate(4 + cut.min(buf.len() - 4));
        // Any Ok/Err outcome is fine; panicking or over-allocating is not.
        let _ = decode_request(&buf[4..]);
    }

    #[test]
    fn mutated_responses_never_panic(
        replies in proptest::collection::vec(
            (0u8..8, 0u64..u64::MAX, proptest::collection::vec(0u64..1 << 40, 0..8usize)),
            1..8usize,
        ),
        mutations in proptest::collection::vec((0usize..4096, 0u8..=255), 1..16usize),
        cut in 0usize..4096,
    ) {
        let resp = Response::Batch(replies.into_iter().map(reply_of).collect());
        let mut buf = Vec::new();
        encode_response(9, &resp, &mut buf);
        for &(at, byte) in &mutations {
            let len = buf.len();
            buf[at % len] = byte;
        }
        buf.truncate(4 + cut.min(buf.len() - 4));
        let _ = decode_response(&buf[4..]);
    }

    #[test]
    fn random_streams_never_panic_read_frame(
        bytes in proptest::collection::vec(0u8..=255, 0..256usize),
    ) {
        // Arbitrary byte soup through the framing layer: every outcome
        // must be a clean Ok/Err, and any accepted length is bounded.
        let mut cursor = std::io::Cursor::new(bytes);
        let mut buf = Vec::new();
        loop {
            match read_frame(&mut cursor, &mut buf) {
                Ok(true) => prop_assert!(buf.len() <= MAX_FRAME_LEN),
                Ok(false) => break,
                Err(_) => break,
            }
        }
    }
}

#[test]
fn max_batch_is_encodable() {
    let queries: Vec<Query> = (0..MAX_BATCH as u64)
        .map(|v| Query { kind: QueryKind::Degree, vertex: v })
        .collect();
    let req = Request::Batch(queries);
    let mut buf = Vec::new();
    encode_request(1, &req, &mut buf);
    assert!(buf.len() - 4 <= MAX_FRAME_LEN, "a full batch must fit one frame");
    assert_eq!(decode_request(&buf[4..]), Ok((1, req)));
}
