//! However the bytes of a request stream are cut into reads, a
//! [`MsgBuf`] yields the same requests: fed whole, one byte at a time,
//! or split in two at every offset — for well-formed pipelines and for
//! ones that go wrong part-way.

use dcws_http::Request;
use dcws_net::MsgBuf;
use proptest::prelude::*;

/// What a `MsgBuf` makes of `wire` delivered in `pieces`: the requests it
/// extracted, and whether it then rejected the stream.
fn drain(pieces: &[&[u8]]) -> (Vec<Request>, bool) {
    let mut mb = MsgBuf::new();
    let mut out = Vec::new();
    for piece in pieces {
        mb.feed(piece);
        loop {
            match mb.try_extract_request() {
                Ok(Some(req)) => out.push(req),
                Ok(None) => break,
                Err(_) => return (out, true),
            }
        }
    }
    (out, false)
}

fn request() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::string::string_regex("/[a-z0-9/.]{0,20}").unwrap(),
        proptest::collection::vec(
            proptest::string::string_regex("X[a-z-]{0,8}: [ -~]{0,20}").unwrap(),
            0..4,
        ),
        proptest::collection::vec(any::<u8>(), 0..40),
    )
        .prop_map(|(target, headers, body)| {
            let mut req = Request::get(target);
            for h in &headers {
                let (n, v) = h.split_once(':').unwrap();
                req.headers.insert(n, v.trim()).unwrap();
            }
            if !body.is_empty() {
                req = req.with_body(body);
            }
            req.to_bytes()
        })
}

proptest! {
    #[test]
    fn any_split_yields_the_same_requests(
        reqs in proptest::collection::vec(request(), 1..4),
        // Damage applied to the concatenated stream: (offset, byte).
        flips in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 0..2),
    ) {
        let mut wire: Vec<u8> = reqs.concat();
        for (at, byte) in flips {
            let pos = ((wire.len() as f64) * at) as usize % wire.len();
            wire[pos] = byte;
        }
        let whole = drain(&[&wire]);
        let bytes: Vec<&[u8]> = wire.chunks(1).collect();
        prop_assert_eq!(&drain(&bytes), &whole, "one byte at a time");
        for cut in 0..=wire.len() {
            let (a, b) = wire.split_at(cut);
            prop_assert_eq!(&drain(&[a, b]), &whole, "split at {}", cut);
        }
    }
}

#[test]
fn well_formed_pipeline_is_extracted_in_order() {
    let reqs = [
        Request::get("/a").with_header("Host", "h"),
        Request::get("/b").with_body(b"xyz".to_vec()),
        Request::head("/c"),
    ];
    let wire: Vec<u8> = reqs.iter().flat_map(|r| r.to_bytes()).collect();
    let bytes: Vec<&[u8]> = wire.chunks(1).collect();
    assert_eq!(drain(&bytes), (reqs.to_vec(), false));
}
