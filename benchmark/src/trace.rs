//! Spans of the traced run: kept in memory while the load runs, written
//! out as JSON lines when the workload ends.
//!
//! The benchmark records spans only from its own side of each boundary —
//! around the client's socket calls, and around calls into the crates'
//! public functions on shadow objects (flagged `probe`). Spans inside the
//! servers are a later change to the servers.

use std::io::{self, Write};
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<u32>,
    /// Sequence number of the op; all spans of one op share it.
    pub op: u64,
    /// `(server index, HTTP status)` of a `client.hop`.
    pub hop: Option<(usize, u16)>,
    /// Timed on a shadow object, not observed on the live servers.
    pub probe: bool,
}

impl Span {
    pub fn new(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            hop: None,
            probe: false,
        }
    }

    pub fn with_hop(mut self, server: usize, status: u16) -> Span {
        self.hop = Some((server, status));
        self
    }

    pub fn probe(mut self) -> Span {
        self.probe = true;
        self
    }
}

/// One generator thread's spans, in the order they were recorded, so a
/// parent always precedes its children.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

/// Spans kept per thread: enough for some thousand sampled ops, bounded
/// so a fast workload cannot make the harness the biggest thing in memory.
const MAX_SPANS: usize = 60_000;

impl SpanLog {
    /// Append a span and return its index. Beyond [`MAX_SPANS`] the span
    /// is dropped; the index returned then matches no stored span.
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
            (self.spans.len() - 1) as u32
        } else {
            u32::MAX
        }
    }
}

/// Write every thread's spans to `path`, one JSON object per line. Span
/// ids are `t<thread>.<index>`, unique within the file.
pub fn write_jsonl(path: &Path, logs: &[&SpanLog]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for (t, log) in logs.iter().enumerate() {
        for (i, s) in log.spans.iter().enumerate() {
            write!(
                w,
                "{{\"id\":\"t{t}.{i}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
            match s.parent {
                Some(p) => write!(w, ",\"parent\":\"t{t}.{p}\"")?,
                None => write!(w, ",\"parent\":null")?,
            }
            if let Some((server, status)) = s.hop {
                write!(w, ",\"server\":{server},\"status\":{status}")?;
            }
            if s.probe {
                write!(w, ",\"probe\":true")?;
            }
            writeln!(w, "}}")?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_has_one_object_per_span_with_unique_ids() {
        let mut log = SpanLog::default();
        let op = log.push(Span::new("client.op", 1, 2, None, 3));
        log.push(Span::new("client.hop", 1, 2, Some(op), 3).with_hop(1, 301));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[&log, &log]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[1],
            r#"{"id":"t0.1","name":"client.hop","start_ns":1,"end_ns":2,"op":3,"parent":"t0.0","server":1,"status":301}"#
        );
        assert!(lines[2].starts_with(r#"{"id":"t1.0""#));
        for l in lines {
            dcws_core::Json::parse(l).expect("each line is JSON");
        }
    }
}
