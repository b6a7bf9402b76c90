//! Blocking socket helpers: read one message, write one message.
//!
//! Keep-alive connections (the reactor's client connections, the pooled
//! inter-server client streams, redirect-chasing `fetch`) read through a
//! per-connection [`MsgBuf`] instead of a fresh allocation per message:
//!
//! * the scratch buffer is **reused** across messages, so a long-lived
//!   connection allocates once, not once per exchange;
//! * bytes read past the end of one message are **preserved** as the
//!   prefix of the next, so pipelined / back-to-back messages are never
//!   dropped or re-read from the socket;
//! * the head terminator (`\r\n\r\n`) is searched **incrementally**
//!   (resume offset, never re-scanning bytes already seen) and a request
//!   head is parsed **once**, in place, when it completes
//!   ([`MsgBuf::peek_request`] hands out the borrowed [`RequestHead`]);
//!   only a message whose body is still arriving is parsed a second
//!   time, when that many bytes are buffered — so large-body transfers
//!   don't pay a quadratic re-parse of the whole buffer after every read.
//!
//! The one-shot [`read_request`] / [`read_response`] wrappers keep the
//! old connect-read-close call sites working on a throwaway buffer.

use dcws_http::parser::MAX_HEAD_BYTES;
use dcws_http::{
    parse_response, parse_response_head, response_wire_len, Method, Request, RequestHead, Response,
    ResponseHead, STREAM_CHUNK,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default per-socket read timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Socket read granularity: the size of the scratch buffer
/// [`MsgBuf::fill_from`] reads through.
pub const READ_CHUNK: usize = 16 * 1024;

fn invalid_data(e: dcws_http::HttpError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Per-connection reusable read buffer with message-boundary tracking.
///
/// One `MsgBuf` lives as long as its connection; each completed message
/// drains exactly its own bytes and leaves any over-read as the start of
/// the next message.
#[derive(Debug, Default)]
pub struct MsgBuf {
    buf: Vec<u8>,
    /// Bytes already scanned for the head terminator (resume offset).
    scanned: usize,
    /// Total wire length of the in-progress message, once its head is
    /// complete.
    total: Option<usize>,
    /// Lossy-decoded text of a request head that is not valid UTF-8, for
    /// [`MsgBuf::peek_request`] to borrow from; empty otherwise.
    decoded: String,
}

/// A complete request still sitting in its [`MsgBuf`]: the head parsed
/// in place and the entity bytes behind it. Drop it, then
/// [`MsgBuf::consume`] `head.wire_len()` bytes to move on.
#[derive(Debug)]
pub struct BufferedRequest<'a> {
    /// The parsed head, borrowing the buffer.
    pub head: RequestHead<'a>,
    /// The entity (empty for GET/HEAD in practice).
    pub body: &'a [u8],
}

impl MsgBuf {
    /// A fresh, empty buffer.
    pub fn new() -> MsgBuf {
        MsgBuf::default()
    }

    /// Bytes currently buffered (partial message and/or pipelined next
    /// messages).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Forget per-message progress (after an error leaves the stream
    /// unusable); buffered bytes are dropped too.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.scanned = 0;
        self.total = None;
    }

    /// Advance the incremental head-terminator search: the head's length
    /// once its terminator is buffered.
    fn scan_head(&mut self) -> io::Result<Option<usize>> {
        // Re-inspect up to 3 bytes of overlap so a terminator split
        // across reads is still found; everything before that is known
        // terminator-free.
        let from = self.scanned.saturating_sub(3);
        let end = self.buf[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|i| from + i + 4);
        self.scanned = self.buf.len();
        if end.unwrap_or(self.buf.len()) > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "message head exceeds size limit",
            ));
        }
        Ok(end)
    }

    /// On the head completing, learn the message's total wire length
    /// from `probe`.
    fn note_progress(
        &mut self,
        probe: impl Fn(&[u8]) -> dcws_http::Result<Option<usize>>,
    ) -> io::Result<()> {
        if self.total.is_none() && self.scan_head()?.is_some() {
            match probe(&self.buf) {
                Ok(Some(total)) => self.total = Some(total),
                // The probe saw the terminator we just found.
                Ok(None) => unreachable!("head terminator buffered but probe saw none"),
                Err(e) => return Err(invalid_data(e)),
            }
        }
        Ok(())
    }

    /// Whether the current message is fully buffered.
    fn complete(&self) -> bool {
        self.total.is_some_and(|t| self.buf.len() >= t)
    }

    /// Drop the `consumed`-byte message from the front, keeping any
    /// pipelined remainder, and rearm for the next message.
    pub fn consume(&mut self, consumed: usize) {
        self.buf.copy_within(consumed.., 0);
        self.buf.truncate(self.buf.len() - consumed);
        self.scanned = 0;
        self.total = None;
    }

    /// Append bytes as if a socket read had delivered them.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One read from `stream` through `scratch` into the buffer; `Ok(0)`
    /// means EOF. On a nonblocking socket `Err(WouldBlock)` means "no
    /// more bytes now", and a read shorter than `scratch` means the
    /// socket is drained — this is how the [`reactor`](crate::reactor)
    /// feeds connections. The caller owns `scratch` (the reactor keeps
    /// one per shard), so a read costs neither a zeroed stack frame nor
    /// per-connection capacity beyond the bytes that actually arrived.
    pub fn fill_from(&mut self, stream: &mut TcpStream, scratch: &mut [u8]) -> io::Result<usize> {
        let n = stream.read(scratch)?;
        self.feed(&scratch[..n]);
        Ok(n)
    }

    /// [`Self::fill_from`] through a scratch buffer of this call's own.
    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<usize> {
        self.fill_from(stream, &mut [0u8; READ_CHUNK])
    }

    /// The next complete request already buffered, parsed in place,
    /// without touching any socket. `Ok(None)` means the head or body is
    /// still incomplete — feed more bytes with [`MsgBuf::fill_from`] and
    /// call again (the head-terminator scan resumes where it left off, so
    /// a slow-loris client dribbling one byte per readiness event costs
    /// linear work, not a rescan per byte). After serving the request,
    /// [`MsgBuf::consume`] its `head.wire_len()` bytes.
    pub fn peek_request(&mut self) -> io::Result<Option<BufferedRequest<'_>>> {
        if self.total.is_some_and(|t| self.buf.len() < t) {
            return Ok(None);
        }
        let Some(head_end) = self.scan_head()? else {
            return Ok(None);
        };
        // The scan is done with this message; a later call (the body
        // arriving after its head was parsed) finds the head again.
        self.scanned = 0;
        // HTTP heads are ASCII; lossy decoding maps stray bytes to U+FFFD,
        // which then fail token validation (or 404) downstream.
        let text = match std::str::from_utf8(&self.buf[..head_end]) {
            Ok(text) => text,
            Err(_) => {
                self.decoded = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
                &self.decoded
            }
        };
        let head = RequestHead::parse(text, head_end).map_err(invalid_data)?;
        let total = head.wire_len();
        if self.buf.len() < total {
            self.total = Some(total);
            return Ok(None);
        }
        Ok(Some(BufferedRequest {
            head,
            body: &self.buf[head_end..total],
        }))
    }

    /// Extract the next complete request already buffered as an owned
    /// message ([`Self::peek_request`] + [`Self::consume`]).
    pub fn try_extract_request(&mut self) -> io::Result<Option<Request>> {
        let Some(req) = self.peek_request()? else {
            return Ok(None);
        };
        let (owned, consumed) = (req.head.to_request(req.body), req.head.wire_len());
        self.consume(consumed);
        Ok(Some(owned))
    }

    /// Extract the next complete response already buffered (framing
    /// depends on the request method); the nonblocking counterpart of
    /// [`read_response_buf`], used by poller-driven clients.
    pub fn try_extract_response(&mut self, method: Method) -> io::Result<Option<Response>> {
        self.note_progress(|buf| response_wire_len(buf, method))?;
        if !self.complete() {
            return Ok(None);
        }
        let parsed = parse_response(&self.buf, method)
            .map_err(invalid_data)?
            .expect("wire length satisfied but parse incomplete");
        self.consume(parsed.consumed);
        Ok(Some(parsed.message))
    }

    /// True when a message is partially buffered (head or body started
    /// but incomplete) — the reactor's read-timeout sweep closes such
    /// connections after [`READ_TIMEOUT`], while a connection idle *at a
    /// message boundary* may stay parked indefinitely.
    pub fn mid_message(&self) -> bool {
        !self.buf.is_empty() || self.total.is_some()
    }
}

/// Read one complete HTTP request from a keep-alive stream through `mb`.
///
/// Returns `Ok(None)` on clean EOF at a message boundary (peer closed an
/// idle connection); `Err` on timeouts, resets, or protocol errors.
pub fn read_request_buf(stream: &mut TcpStream, mb: &mut MsgBuf) -> io::Result<Option<Request>> {
    loop {
        if let Some(req) = mb.try_extract_request()? {
            return Ok(Some(req));
        }
        if mb.fill(stream)? == 0 {
            return if mb.buf.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ))
            };
        }
    }
}

/// Read one complete HTTP response from a keep-alive stream through
/// `mb` (framing depends on the request method — `HEAD` responses carry
/// no body).
pub fn read_response_buf(
    stream: &mut TcpStream,
    method: Method,
    mb: &mut MsgBuf,
) -> io::Result<Response> {
    loop {
        mb.note_progress(|buf| response_wire_len(buf, method))?;
        if mb.complete() {
            let parsed = parse_response(&mb.buf, method)
                .map_err(invalid_data)?
                .expect("wire length satisfied but parse incomplete");
            mb.consume(parsed.consumed);
            return Ok(parsed.message);
        }
        if mb.fill(stream)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
    }
}

/// Read just the head of one HTTP response through `mb`, leaving the
/// entity on the wire (any body prefix over-read with the head stays
/// buffered for [`drain_body_chunks`]). This is the chunked-pull entry
/// point: the caller learns the status, headers, and framed body length
/// before a single entity byte has to be held.
pub fn read_response_head_buf(
    stream: &mut TcpStream,
    method: Method,
    mb: &mut MsgBuf,
) -> io::Result<ResponseHead> {
    loop {
        if let Some(parsed) = parse_response_head(&mb.buf, method).map_err(invalid_data)? {
            mb.consume(parsed.consumed);
            return Ok(parsed.message);
        }
        if mb.fill(stream)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response head",
            ));
        }
    }
}

/// Drain the `body_len`-byte entity following a head read with
/// [`read_response_head_buf`]: bytes already over-read into `mb` are
/// delivered first, then the socket is read in [`STREAM_CHUNK`] pieces,
/// invoking `on_chunk` for each slice in arrival order. EOF before
/// `body_len` bytes is an error (`Content-Length` framing broken); an
/// error from `on_chunk` aborts the drain immediately.
pub fn drain_body_chunks(
    stream: &mut TcpStream,
    mb: &mut MsgBuf,
    body_len: usize,
    on_chunk: &mut dyn FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut remaining = body_len;
    let buffered = mb.buf.len().min(remaining);
    if buffered > 0 {
        on_chunk(&mb.buf[..buffered])?;
        mb.consume(buffered);
        remaining -= buffered;
    }
    if remaining == 0 {
        return Ok(());
    }
    let mut chunk = vec![0u8; STREAM_CHUNK.min(remaining)];
    while remaining > 0 {
        let want = chunk.len().min(remaining);
        let n = match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        on_chunk(&chunk[..n])?;
        remaining -= n;
    }
    Ok(())
}

/// Read one complete HTTP request from a stream (throwaway buffer; for
/// keep-alive loops use [`read_request_buf`]).
///
/// Returns `Ok(None)` on clean EOF before any bytes (peer closed an idle
/// connection); `Err` on timeouts, resets, or protocol errors.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    read_request_buf(stream, &mut MsgBuf::new())
}

/// Read one complete HTTP response on a throwaway buffer (framing
/// depends on the request method — `HEAD` responses carry no body).
pub fn read_response(stream: &mut TcpStream, method: Method) -> io::Result<Response> {
    read_response_buf(stream, method, &mut MsgBuf::new())
}

/// Write a request and flush (the client side of one exchange).
pub fn write_request(stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    stream.write_all(&req.to_bytes())?;
    stream.flush()
}

/// Write a response, omitting the body for `HEAD` requests, and flush.
pub fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    request_method: Method,
) -> io::Result<()> {
    let wire = resp.to_bytes_for(request_method == Method::Head);
    stream.write_all(&wire)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcws_http::StatusCode;
    use std::net::TcpListener;

    /// Round-trip a request and response over a real socket pair.
    #[test]
    fn socket_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
            let req = read_request(&mut s).unwrap().unwrap();
            assert_eq!(req.target, "/x.html");
            let resp = Response::ok(b"hello".to_vec(), "text/plain");
            write_response(&mut s, &resp, req.method).unwrap();
        });
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        c.write_all(&Request::get("/x.html").to_bytes()).unwrap();
        let resp = read_response(&mut c, Method::Get).unwrap();
        assert_eq!(resp.status, StatusCode::Ok);
        assert_eq!(resp.body, b"hello");
        server.join().unwrap();
    }

    #[test]
    fn head_round_trip_strips_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap().unwrap();
            let resp = Response::ok(b"body-bytes".to_vec(), "text/plain");
            write_response(&mut s, &resp, req.method).unwrap();
        });
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(&Request::head("/x").to_bytes()).unwrap();
        let resp = read_response(&mut c, Method::Head).unwrap();
        assert!(resp.body.is_empty());
        assert_eq!(resp.headers.get("Content-Length"), Some("10"));
        server.join().unwrap();
    }

    #[test]
    fn clean_eof_returns_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_request(&mut s)
        });
        let c = TcpStream::connect(addr).unwrap();
        drop(c); // close immediately
        assert!(server.join().unwrap().unwrap().is_none());
    }

    /// Two requests written in one burst must both be served: the bytes
    /// of the second, over-read while framing the first, survive in the
    /// `MsgBuf` as the next message's prefix.
    #[test]
    fn pipelined_requests_survive_in_the_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
            // Let both requests land in the socket buffer so one read
            // delivers the burst.
            std::thread::sleep(Duration::from_millis(50));
            let mut mb = MsgBuf::new();
            let a = read_request_buf(&mut s, &mut mb).unwrap().unwrap();
            // The second request is already buffered: serving it must not
            // touch the socket again (the client sends nothing more).
            assert!(mb.buffered() > 0, "second request should be buffered");
            let b = read_request_buf(&mut s, &mut mb).unwrap().unwrap();
            (a.target, b.target)
        });
        let mut c = TcpStream::connect(addr).unwrap();
        let mut burst = Request::get("/first").to_bytes();
        burst.extend_from_slice(&Request::get("/second").with_body(b"xy".to_vec()).to_bytes());
        c.write_all(&burst).unwrap();
        let (a, b) = server.join().unwrap();
        assert_eq!((a.as_str(), b.as_str()), ("/first", "/second"));
    }

    /// Back-to-back responses on one reused client connection: leftover
    /// bytes of response two, read with response one, are not lost.
    #[test]
    fn back_to_back_responses_reuse_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut wire = Response::ok(b"one".to_vec(), "text/plain").to_bytes();
            wire.extend_from_slice(&Response::ok(b"two".to_vec(), "text/plain").to_bytes());
            s.write_all(&wire).unwrap();
        });
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut mb = MsgBuf::new();
        let r1 = read_response_buf(&mut c, Method::Get, &mut mb).unwrap();
        let r2 = read_response_buf(&mut c, Method::Get, &mut mb).unwrap();
        assert_eq!(r1.body, b"one");
        assert_eq!(r2.body, b"two");
        server.join().unwrap();
    }

    /// A body much larger than the read chunk parses correctly through
    /// the single-probe framing path.
    #[test]
    fn large_body_reads_through_msgbuf() {
        let body = vec![0xabu8; 1_200_000];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let body2 = body.clone();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(&Response::ok(body2, "application/octet-stream").to_bytes())
                .unwrap();
        });
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let resp = read_response(&mut c, Method::Get).unwrap();
        assert_eq!(resp.body.len(), body.len());
        assert_eq!(resp.body, body.as_slice());
        server.join().unwrap();
    }

    #[test]
    fn oversized_head_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_request(&mut s)
        });
        let mut c = TcpStream::connect(addr).unwrap();
        // An endless header line: the reader must bail at the head cap,
        // not buffer forever.
        c.write_all(b"GET /x HTTP/1.1\r\nX-Big: ").unwrap();
        let filler = vec![b'a'; 64 * 1024];
        let _ = c.write_all(&filler);
        drop(c);
        let err = server.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
