//! Incremental HTTP/1.x message parsing.
//!
//! [`parse_request`] / [`parse_response`] operate on a byte buffer that may
//! hold a partial message (more bytes still in flight on the socket): they
//! return `Ok(None)` until a complete message is buffered, then
//! `Ok(Some(Parsed))` with the number of bytes consumed so pipelined
//! messages can follow in the same buffer.

use crate::error::{HttpError, Result};
use crate::headers::{valid_name, valid_value, Headers};
use crate::method::Method;
use crate::request::Request;
use crate::response::Response;
use crate::status::StatusCode;
use crate::Version;
use std::borrow::Cow;

/// Maximum size of the head (start line + headers) we accept, to bound
/// memory on malicious input.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum entity body we accept. The Sequoia dataset tops out at 2.8 MB
/// images; 16 MB leaves generous headroom.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A successfully parsed message plus how many buffer bytes it consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed<T> {
    /// The parsed message.
    pub message: T,
    /// Bytes consumed from the front of the input buffer.
    pub consumed: usize,
}

/// Find the end of the head (`\r\n\r\n`), returning the index just past it.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// A header line's `(name, value)`, trimmed as [`Headers`] stores them;
/// `None` for a line without a colon.
fn split_field(line: &str) -> Option<(&str, &str)> {
    let (name, value) = line.split_once(':')?;
    Some((name.trim_end(), value.trim()))
}

/// Split the head into lines, parse header fields into `Headers`.
fn parse_header_lines(lines: std::str::Lines<'_>) -> Result<Headers> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) =
            split_field(line).ok_or_else(|| HttpError::BadHeader(line.to_string()))?;
        headers.insert(name, value)?;
    }
    Ok(headers)
}

/// Common head handling: locate head end, decode to UTF-8-ish text.
/// The text borrows `buf` unless lossy decoding had to replace bytes.
fn head_text(buf: &[u8]) -> Result<Option<(Cow<'_, str>, usize)>> {
    let end = find_head_end(buf);
    if end.unwrap_or(buf.len()) > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge {
            what: "head",
            limit: MAX_HEAD_BYTES,
        });
    }
    // HTTP heads are ASCII; lossy decoding maps stray bytes to U+FFFD which
    // then fail token validation downstream.
    Ok(end.map(|end| (String::from_utf8_lossy(&buf[..end]), end)))
}

/// Extract a body of `len` bytes following the head, if fully buffered.
fn take_body(buf: &[u8], head_end: usize, len: usize) -> Result<Option<Vec<u8>>> {
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge {
            what: "body",
            limit: MAX_BODY_BYTES,
        });
    }
    if buf.len() < head_end + len {
        return Ok(None);
    }
    Ok(Some(buf[head_end..head_end + len].to_vec()))
}

/// Body length implied by a parsed head, bounds-checked.
fn framed_body_len(headers: &Headers) -> Result<usize> {
    let len = headers.content_length()?.unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge {
            what: "body",
            limit: MAX_BODY_BYTES,
        });
    }
    Ok(len)
}

/// A request head parsed in place: method, target, version and header
/// fields are slices of the head text, so parsing allocates nothing.
/// Everything [`parse_request`] rejects — a malformed request line, an
/// unknown method or version, a header line without a colon, an invalid
/// field name, CR in a value, an unparsable or oversize
/// `Content-Length` — [`RequestHead::parse`] rejects with the same error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead<'a> {
    /// Request method.
    pub method: Method,
    /// Request target exactly as it appeared on the request line.
    pub target: &'a str,
    /// Protocol version.
    pub version: Version,
    /// The validated header lines (everything after the request line).
    fields: &'a str,
    wire_len: usize,
}

impl<'a> RequestHead<'a> {
    /// Parse head `text` — the decoded bytes up to and including the
    /// blank line — which occupied `head_len` bytes of the buffer (the
    /// two lengths differ only when lossy decoding replaced bytes).
    pub fn parse(text: &'a str, head_len: usize) -> Result<RequestHead<'a>> {
        // `str::lines` semantics: lines end at `\n`, one trailing `\r`
        // is dropped, a bare `\r` stays in its line.
        let (start, fields) = text.split_once('\n').unwrap_or((text, ""));
        let start = start.strip_suffix('\r').unwrap_or(start);
        let mut parts = start.split(' ');
        let (m, target, v) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v), None) if !t.is_empty() => (m, t, v),
            _ => return Err(HttpError::BadRequestLine(start.to_string())),
        };
        let method = Method::parse(m)?;
        let version = Version::parse(v)?;
        let mut content_length = None;
        for line in fields.lines().filter(|l| !l.is_empty()) {
            let (name, value) =
                split_field(line).ok_or_else(|| HttpError::BadHeader(line.to_string()))?;
            if !valid_name(name) {
                return Err(HttpError::BadHeader(name.to_string()));
            }
            if !valid_value(value) {
                return Err(HttpError::BadHeader(format!("{name}: {value}")));
            }
            if content_length.is_none() && name.eq_ignore_ascii_case("Content-Length") {
                content_length = Some(value);
            }
        }
        let body_len = match content_length {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| HttpError::BadContentLength(v.to_string()))?,
        };
        if body_len > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge {
                what: "body",
                limit: MAX_BODY_BYTES,
            });
        }
        Ok(RequestHead {
            method,
            target,
            version,
            fields,
            wire_len: head_len + body_len,
        })
    }

    /// `(name, value)` pairs in wire order, trimmed as [`Headers`]
    /// stores them.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> + Clone {
        // Every non-empty line has its colon: `parse` checked.
        self.fields.lines().filter_map(split_field)
    }

    /// First value for `name`, if any (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Total wire length of the message: head plus framed body.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// The owned message, with `body` as its entity.
    pub fn to_request(&self, body: &[u8]) -> Request {
        let mut headers = Headers::new();
        for (name, value) in self.headers() {
            headers.push_validated(name, value);
        }
        Request {
            method: self.method,
            target: self.target.to_string(),
            version: self.version,
            headers,
            body: body.into(),
        }
    }
}

/// Total wire length (head + body) of the request at the front of `buf`,
/// available as soon as its *head* is fully buffered — `Ok(None)` until
/// the `\r\n\r\n` terminator arrives.
pub fn request_wire_len(buf: &[u8]) -> Result<Option<usize>> {
    let Some((text, head_end)) = head_text(buf)? else {
        return Ok(None);
    };
    Ok(Some(RequestHead::parse(&text, head_end)?.wire_len()))
}

/// [`request_wire_len`] for responses: `request_method` affects framing
/// exactly as in [`parse_response`] (`HEAD` and bodyless statuses carry
/// no body regardless of `Content-Length`).
pub fn response_wire_len(buf: &[u8], request_method: Method) -> Result<Option<usize>> {
    let (text, head_end) = match head_text(buf)? {
        Some(t) => t,
        None => return Ok(None),
    };
    let mut lines = text.lines();
    let start = lines
        .next()
        .ok_or_else(|| HttpError::BadStatusLine(String::new()))?;
    let mut parts = start.splitn(3, ' ');
    let code = match (parts.next(), parts.next()) {
        (Some(_v), Some(c)) => c,
        _ => return Err(HttpError::BadStatusLine(start.to_string())),
    };
    let code: u16 = code
        .parse()
        .map_err(|_| HttpError::BadStatusCode(code.to_string()))?;
    let status = StatusCode::from_code(code)?;
    let headers = parse_header_lines(lines)?;
    if request_method == Method::Head || status.bodyless() {
        return Ok(Some(head_end));
    }
    Ok(Some(head_end + framed_body_len(&headers)?))
}

/// Try to parse a complete request from the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed.
pub fn parse_request(buf: &[u8]) -> Result<Option<Parsed<Request>>> {
    let Some((text, head_end)) = head_text(buf)? else {
        return Ok(None);
    };
    let head = RequestHead::parse(&text, head_end)?;
    let consumed = head.wire_len();
    if buf.len() < consumed {
        return Ok(None);
    }
    Ok(Some(Parsed {
        message: head.to_request(&buf[head_end..consumed]),
        consumed,
    }))
}

/// A response head parsed before its body has arrived: the message with
/// an empty body plus the framed body length still on the wire. This is
/// what lets a chunked reader act on the status line and headers (and
/// start integrity-checking the body) without buffering the entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHead {
    /// The response with status, headers, and an *empty* body.
    pub resp: Response,
    /// Entity bytes that follow the head on the wire (0 for `HEAD`
    /// requests and bodyless statuses).
    pub body_len: usize,
}

/// Try to parse just the head of the response at the front of `buf`,
/// without requiring (or consuming) any body bytes. `consumed` covers
/// the head only, so the entity can be drained from the stream in
/// chunks afterwards. `Ok(None)` until the `\r\n\r\n` terminator is
/// buffered. Framing follows [`parse_response`].
pub fn parse_response_head(
    buf: &[u8],
    request_method: Method,
) -> Result<Option<Parsed<ResponseHead>>> {
    let (text, head_end) = match head_text(buf)? {
        Some(t) => t,
        None => return Ok(None),
    };
    let mut lines = text.lines();
    let start = lines
        .next()
        .ok_or_else(|| HttpError::BadStatusLine(String::new()))?;
    let mut parts = start.splitn(3, ' ');
    let (v, c) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => return Err(HttpError::BadStatusLine(start.to_string())),
    };
    let version = Version::parse(v)?;
    let code: u16 = c
        .parse()
        .map_err(|_| HttpError::BadStatusCode(c.to_string()))?;
    let status = StatusCode::from_code(code)?;
    let headers = parse_header_lines(lines)?;
    let body_len = if request_method == Method::Head || status.bodyless() {
        0
    } else {
        framed_body_len(&headers)?
    };
    Ok(Some(Parsed {
        message: ResponseHead {
            resp: Response {
                version,
                status,
                headers,
                body: Vec::new().into(),
            },
            body_len,
        },
        consumed: head_end,
    }))
}

/// Try to parse a complete response from the front of `buf`.
///
/// `request_method` affects body framing: responses to `HEAD` have no body
/// regardless of `Content-Length`. Responses lacking `Content-Length` are
/// treated as having an empty body (DCWS always sets the header; this
/// avoids read-until-close framing, which the simulator cannot express).
pub fn parse_response(buf: &[u8], request_method: Method) -> Result<Option<Parsed<Response>>> {
    let (text, head_end) = match head_text(buf)? {
        Some(t) => t,
        None => return Ok(None),
    };
    let mut lines = text.lines();
    let start = lines
        .next()
        .ok_or_else(|| HttpError::BadStatusLine(String::new()))?;
    // Status line: HTTP-Version SP Status-Code SP Reason-Phrase (reason may
    // contain spaces or be empty).
    let mut parts = start.splitn(3, ' ');
    let (v, c) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => return Err(HttpError::BadStatusLine(start.to_string())),
    };
    let version = Version::parse(v)?;
    let code: u16 = c
        .parse()
        .map_err(|_| HttpError::BadStatusCode(c.to_string()))?;
    let status = StatusCode::from_code(code)?;
    let headers = parse_header_lines(lines)?;
    let body_len = if request_method == Method::Head || status.bodyless() {
        0
    } else {
        headers.content_length()?.unwrap_or(0)
    };
    let body = match take_body(buf, head_end, body_len)? {
        Some(b) => b,
        None => return Ok(None),
    };
    Ok(Some(Parsed {
        message: Response {
            version,
            status,
            headers,
            body: body.into(),
        },
        consumed: head_end + body_len,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let r = Request::get("/a/b.html")
            .with_header("Host", "example.com")
            .with_header("X-DCWS-Load", "server=h:80; cps=12.5; bps=99; ts=3");
        let wire = r.to_bytes();
        let p = parse_request(&wire).unwrap().unwrap();
        assert_eq!(p.message, r);
        assert_eq!(p.consumed, wire.len());
    }

    #[test]
    fn request_with_body_round_trip() {
        let r = Request::get("/post").with_body(b"k=v&x=y".to_vec());
        let wire = r.to_bytes();
        let p = parse_request(&wire).unwrap().unwrap();
        assert_eq!(p.message.body, b"k=v&x=y");
    }

    #[test]
    fn incremental_request_needs_more() {
        let wire = Request::get("/x").with_header("Host", "h").to_bytes();
        for cut in 1..wire.len() {
            assert_eq!(parse_request(&wire[..cut]).unwrap(), None, "cut={cut}");
        }
        assert!(parse_request(&wire).unwrap().is_some());
    }

    #[test]
    fn incremental_body_needs_more() {
        let wire = Request::get("/x").with_body(vec![7u8; 100]).to_bytes();
        assert!(parse_request(&wire[..wire.len() - 1]).unwrap().is_none());
        assert!(parse_request(&wire).unwrap().is_some());
    }

    #[test]
    fn pipelined_requests_consume_correctly() {
        let a = Request::get("/a").to_bytes();
        let b = Request::get("/b").to_bytes();
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let p1 = parse_request(&buf).unwrap().unwrap();
        assert_eq!(p1.message.target, "/a");
        let p2 = parse_request(&buf[p1.consumed..]).unwrap().unwrap();
        assert_eq!(p2.message.target, "/b");
        assert_eq!(p1.consumed + p2.consumed, buf.len());
    }

    #[test]
    fn bad_request_line_rejected() {
        assert!(parse_request(b"GET /x\r\n\r\n").is_err());
        assert!(parse_request(b"GET  /x HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_request(b"FROB /x HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_request(b"GET /x HTTP/3.0\r\n\r\n").is_err());
    }

    #[test]
    fn header_without_colon_rejected() {
        assert!(parse_request(b"GET /x HTTP/1.1\r\nBadHeader\r\n\r\n").is_err());
    }

    #[test]
    fn oversized_head_rejected_even_incomplete() {
        let big = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(matches!(
            parse_request(&big),
            Err(HttpError::TooLarge { what: "head", .. })
        ));
    }

    #[test]
    fn oversized_body_rejected() {
        let wire = format!(
            "GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_request(wire.as_bytes()),
            Err(HttpError::TooLarge { what: "body", .. })
        ));
    }

    #[test]
    fn response_round_trip() {
        let r = Response::ok(b"body!".to_vec(), "text/html").with_header("X-Extra", "1");
        let wire = r.to_bytes();
        let p = parse_response(&wire, Method::Get).unwrap().unwrap();
        assert_eq!(p.message, r);
        assert_eq!(p.consumed, wire.len());
    }

    #[test]
    fn head_response_has_no_body() {
        let r = Response::ok(b"0123456789".to_vec(), "text/plain");
        let wire = r.to_bytes_for(true);
        let p = parse_response(&wire, Method::Head).unwrap().unwrap();
        assert!(p.message.body.is_empty());
        assert_eq!(p.message.headers.get("Content-Length"), Some("10"));
        assert_eq!(p.consumed, wire.len());
    }

    #[test]
    fn not_modified_has_no_body_even_with_length() {
        // A buggy peer might send Content-Length with 304; framing must not
        // wait for a body that will never come.
        let wire = b"HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\n\r\n";
        let p = parse_response(wire, Method::Get).unwrap().unwrap();
        assert_eq!(p.message.status, StatusCode::NotModified);
        assert!(p.message.body.is_empty());
    }

    #[test]
    fn reason_phrase_with_spaces() {
        let wire = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n";
        let p = parse_response(wire, Method::Get).unwrap().unwrap();
        assert_eq!(p.message.status, StatusCode::ServiceUnavailable);
    }

    #[test]
    fn empty_reason_phrase_accepted() {
        let wire = b"HTTP/1.1 200 \r\nContent-Length: 0\r\n\r\n";
        let p = parse_response(wire, Method::Get).unwrap().unwrap();
        assert_eq!(p.message.status, StatusCode::Ok);
    }

    #[test]
    fn bad_status_code_rejected() {
        assert!(parse_response(b"HTTP/1.1 xyz OK\r\n\r\n", Method::Get).is_err());
        assert!(parse_response(b"HTTP/1.1 999 Odd\r\n\r\n", Method::Get).is_err());
    }

    #[test]
    fn bad_content_length_rejected() {
        assert!(parse_request(b"GET /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n").is_err());
    }

    #[test]
    fn wire_len_known_once_head_buffered() {
        let wire = Request::get("/x").with_body(vec![7u8; 100]).to_bytes();
        let head_end = wire.len() - 100;
        // Unknown while the head is incomplete…
        assert_eq!(request_wire_len(&wire[..head_end - 1]).unwrap(), None);
        // …known the moment the terminator lands, before any body byte.
        assert_eq!(
            request_wire_len(&wire[..head_end]).unwrap(),
            Some(wire.len())
        );
        assert_eq!(request_wire_len(&wire).unwrap(), Some(wire.len()));
    }

    #[test]
    fn response_wire_len_honors_framing() {
        let r = Response::ok(b"0123456789".to_vec(), "text/plain");
        let wire = r.to_bytes();
        assert_eq!(
            response_wire_len(&wire, Method::Get).unwrap(),
            Some(wire.len())
        );
        // HEAD framing: the body never arrives, so the head is the message.
        let head_wire = r.to_bytes_for(true);
        assert_eq!(
            response_wire_len(&head_wire, Method::Head).unwrap(),
            Some(head_wire.len())
        );
        // 304s are bodyless even with a Content-Length.
        let wire304 = b"HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\n\r\n";
        assert_eq!(
            response_wire_len(wire304, Method::Get).unwrap(),
            Some(wire304.len())
        );
    }

    #[test]
    fn response_head_parses_before_any_body_byte() {
        let r = Response::ok(vec![7u8; 100], "application/octet-stream");
        let wire = r.to_bytes();
        let head_end = wire.len() - 100;
        // Incomplete head: more bytes needed.
        assert_eq!(
            parse_response_head(&wire[..head_end - 1], Method::Get).unwrap(),
            None
        );
        // Head complete, zero body bytes buffered: fully parsed.
        let p = parse_response_head(&wire[..head_end], Method::Get)
            .unwrap()
            .unwrap();
        assert_eq!(p.consumed, head_end);
        assert_eq!(p.message.body_len, 100);
        assert_eq!(p.message.resp.status, StatusCode::Ok);
        assert!(p.message.resp.body.is_empty());
        // HEAD framing: the entity never follows.
        let ph = parse_response_head(&wire[..head_end], Method::Head)
            .unwrap()
            .unwrap();
        assert_eq!(ph.message.body_len, 0);
    }

    #[test]
    fn wire_len_rejects_oversize_body() {
        let wire = format!(
            "GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(request_wire_len(wire.as_bytes()).is_err());
    }

    #[test]
    fn header_name_trailing_space_trimmed() {
        let wire = b"GET /x HTTP/1.1\r\nHost : h\r\n\r\n";
        let p = parse_request(wire).unwrap().unwrap();
        assert_eq!(p.message.headers.get("Host"), Some("h"));
    }
}
