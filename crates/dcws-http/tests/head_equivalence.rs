//! The borrowed head parser against the parser it replaced.
//!
//! `parse_request` used to decode the head into an owned `String`, split
//! it with `str::lines`, and insert every field into a `Headers` map.
//! [`RequestHead::parse`] does the same validation over borrowed slices,
//! and `parse_request` is now built on it. [`reference_parse`] below is
//! that earlier algorithm, kept as the oracle: on valid heads and on
//! byte-flipped, truncated and spliced mutants of them, both must agree
//! on accept / reject / need-more, and on every field of what they accept.

use dcws_http::parser::{MAX_BODY_BYTES, MAX_HEAD_BYTES};
use dcws_http::{parse_request, Headers, Method, Request, RequestHead, Version};
use proptest::prelude::*;
use proptest::TestCaseError;

/// The earlier `parse_request`: `Ok(None)` = need more bytes, `Err(())` =
/// rejected (error payloads are not compared, only the verdict).
fn reference_parse(buf: &[u8]) -> Result<Option<(Request, usize)>, ()> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    if head_end.unwrap_or(buf.len()) > MAX_HEAD_BYTES {
        return Err(());
    }
    let Some(head_end) = head_end else {
        return Ok(None);
    };
    let text = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = text.lines();
    let start = lines.next().ok_or(())?;
    let mut parts = start.split(' ');
    let (m, t, v) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(()),
    };
    if t.is_empty() {
        return Err(());
    }
    let method = Method::parse(m).map_err(drop)?;
    let version = Version::parse(v).map_err(drop)?;
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(())?;
        headers
            .insert(name.trim_end(), value.trim())
            .map_err(drop)?;
    }
    let body_len = headers.content_length().map_err(drop)?.unwrap_or(0);
    if body_len > MAX_BODY_BYTES {
        return Err(());
    }
    if buf.len() < head_end + body_len {
        return Ok(None);
    }
    let req = Request {
        method,
        target: t.to_string(),
        version,
        headers,
        body: buf[head_end..head_end + body_len].into(),
    };
    Ok(Some((req, head_end + body_len)))
}

/// Hold `parse_request` and `RequestHead::parse` to the oracle on `buf`.
fn check(buf: &[u8]) -> Result<(), TestCaseError> {
    let want = reference_parse(buf);
    let got = parse_request(buf)
        .map(|p| p.map(|p| (p.message, p.consumed)))
        .map_err(drop);
    prop_assert_eq!(&got, &want);

    // The borrowed view itself, wherever a complete head is buffered.
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4) else {
        return Ok(());
    };
    if head_end > MAX_HEAD_BYTES {
        return Ok(());
    }
    let text = String::from_utf8_lossy(&buf[..head_end]);
    let head = RequestHead::parse(&text, head_end);
    match want {
        Err(()) => prop_assert!(head.is_err(), "oracle rejects, head parser accepts"),
        // Need-more with a complete head means the body is short: the
        // head itself was accepted.
        Ok(None) => prop_assert!(head.unwrap().wire_len() > buf.len()),
        Ok(Some((req, consumed))) => {
            let head = head.unwrap();
            prop_assert_eq!(head.method, req.method);
            prop_assert_eq!(head.target, req.target.as_str());
            prop_assert_eq!(head.version, req.version);
            prop_assert_eq!(head.wire_len(), consumed);
            prop_assert_eq!(
                head.headers().collect::<Vec<_>>(),
                req.headers.iter().collect::<Vec<_>>()
            );
            for (name, _) in req.headers.iter() {
                prop_assert_eq!(head.header(&name.to_lowercase()), req.headers.get(name));
            }
            prop_assert_eq!(head.to_request(&buf[head_end..consumed]), req);
        }
    }
    Ok(())
}

fn method() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("GET"), Just("HEAD"), Just("POST")]
}

fn version() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("HTTP/1.1"), Just("HTTP/1.0")]
}

fn target() -> impl Strategy<Value = String> {
    proptest::string::string_regex("(http://h:8[0-9])?/[a-zA-Z0-9_./~-]{0,30}").unwrap()
}

/// A well-formed header line other than `Content-Length`: ordinary
/// fields, the ones the servers look at, repeated and odd-cased names,
/// optional whitespace around the colon.
fn header_line() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("X[A-Za-z0-9-]{0,12} ?: ?[!-~][ -~]{0,20}").unwrap(),
        proptest::string::string_regex(
            "(Host|host|X-DCWS-Load|Range|Connection|If-Modified-Since): [a-z0-9=;-]{0,16}"
        )
        .unwrap(),
    ]
}

/// What a sloppy or hostile client might put where a valid request has a
/// method, a version or a header line.
fn odd_token() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("GET"),
        Just("get"),
        Just("BREW"),
        Just(""),
        Just("HTTP/1.1"),
        Just("HTTP/2.0"),
        Just("Content-Length: ten"),
        Just("content-length: 3"),
        Just("Content-Length: 99999999999"),
        Just("NoColon"),
        Just(": empty-name"),
        Just("Bad Name: v"),
    ]
}

/// A request as a client would send it: `body` framed by a
/// `Content-Length` placed among `lines`.
fn wire(m: &str, t: &str, v: &str, lines: &[String], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{m} {t} {v}\r\n").into_bytes();
    for (i, l) in lines.iter().enumerate() {
        if i == lines.len() / 2 && !body.is_empty() {
            out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
        }
        out.extend_from_slice(l.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if lines.is_empty() && !body.is_empty() {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Bytes worth splicing in: line structure, separators, whitespace the
/// old parser trimmed through `str::trim` (NBSP, U+2003), invalid UTF-8.
const SPLICES: [&[u8]; 12] = [
    b"\r\n",
    b"\n",
    b"\r",
    b":",
    b" ",
    b"\t",
    b"\r\n\r\n",
    b"\xc2\xa0",
    b"\xe2\x80\x83",
    b"\xff",
    b"\xe2\x80",
    b"\0",
];

/// Apply one seeded mutation to `buf`.
fn mutate(buf: &mut Vec<u8>, kind: u8, at: f64, byte: u8) {
    if buf.is_empty() {
        return;
    }
    let pos = ((buf.len() as f64) * at) as usize % buf.len();
    match kind % 4 {
        0 => buf[pos] ^= 1 << (byte % 8),
        1 => buf[pos] = byte,
        2 => buf.truncate(pos),
        _ => {
            let s = SPLICES[byte as usize % SPLICES.len()];
            buf.splice(pos..pos, s.iter().copied());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn valid_heads_agree(
        m in method(),
        t in target(),
        v in version(),
        lines in proptest::collection::vec(header_line(), 0..6),
        body in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let buf = wire(m, &t, v, &lines, &body);
        prop_assert!(matches!(reference_parse(&buf), Ok(Some(_))), "generator drifted");
        check(&buf)?;
    }

    #[test]
    fn odd_heads_agree(
        m in prop_oneof![method(), odd_token()],
        t in prop_oneof![target(), Just(String::new()), Just("no-slash".to_string())],
        v in prop_oneof![version(), odd_token()],
        lines in proptest::collection::vec(
            prop_oneof![header_line(), odd_token().prop_map(str::to_string)],
            0..6,
        ),
        body in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        check(&wire(m, &t, v, &lines, &body))?;
    }

    #[test]
    fn mutants_agree(
        m in method(),
        t in target(),
        v in version(),
        lines in proptest::collection::vec(header_line(), 0..6),
        body in proptest::collection::vec(any::<u8>(), 0..48),
        edits in proptest::collection::vec((any::<u8>(), 0.0f64..1.0, any::<u8>()), 1..4),
    ) {
        let mut buf = wire(m, &t, v, &lines, &body);
        for (kind, at, byte) in edits {
            mutate(&mut buf, kind, at, byte);
            check(&buf)?;
        }
    }

    #[test]
    fn garbage_agrees(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check(&bytes)?;
    }
}

#[test]
fn unicode_whitespace_and_lossy_bytes_agree() {
    for buf in [
        // NBSP after the field name and around the value: trimmed.
        &b"GET /x HTTP/1.1\r\nHost\xc2\xa0: \xc2\xa0h\xe2\x80\x83\r\n\r\n"[..],
        // Invalid UTF-8 in a value is kept (as U+FFFD), in a name rejected.
        b"GET /x HTTP/1.1\r\nX: a\xffb\r\n\r\n",
        b"GET /x HTTP/1.1\r\nX\xff: v\r\n\r\n",
        // Bare LF ends a line; bare CR stays in it.
        b"GET /x HTTP/1.1\nHost: h\r\n\r\n",
        b"GET /x HTTP/1.1\r\nX: a\rb\r\n\r\n",
        b"GET /x HTTP/1.1\r\r\nHost: h\r\n\r\n",
        // A raw UTF-8 target passes through.
        "GET /caf\u{e9}.html HTTP/1.1\r\n\r\n".as_bytes(),
        b"GET /\xff.html HTTP/1.1\r\n\r\n",
        b"\r\n\r\n",
    ] {
        check(buf).unwrap_or_else(|e| panic!("{:?}: {e:?}", String::from_utf8_lossy(buf)));
    }
}
