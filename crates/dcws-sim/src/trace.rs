//! Access-trace recording and open-loop replay.
//!
//! The paper's evaluation drives synthetic Algorithm-2 walks and lists
//! *"we have not used actual access logs for the experiments"* as future
//! work (§6). This module closes that gap: any simulation run can record
//! the requests its clients issued as a [`Trace`] (a minimal access log),
//! and a later run can **replay** a trace open-loop — each request fires
//! at its recorded time regardless of how the cluster responds, the
//! standard methodology for log-driven evaluation. Replay still follows
//! `301`s (a browser would), so DCWS migration keeps working underneath.

use std::io::{BufRead, Write};
use std::path::Path;

/// One access-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Request time, ms from run start.
    pub t_ms: u64,
    /// Issuing client id (kept for per-client analyses).
    pub client: usize,
    /// Absolute URL requested.
    pub url: String,
}

/// An ordered access log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events sorted by time.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Build from events (sorts by time, stable).
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| e.t_ms);
        Trace { events }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total span in ms (time of the last event).
    pub fn span_ms(&self) -> u64 {
        self.events.last().map(|e| e.t_ms).unwrap_or(0)
    }

    /// Serialize as `t_ms,client,url` lines (a minimal combined-log).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for e in &self.events {
            writeln!(f, "{},{},{}", e.t_ms, e.client, e.url)?;
        }
        f.flush()
    }

    /// Parse the [`Trace::save`] format; malformed lines are skipped.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Trace> {
        let f = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut events = Vec::new();
        for line in f.lines() {
            let line = line?;
            let mut parts = line.splitn(3, ',');
            let (Some(t), Some(c), Some(u)) = (parts.next(), parts.next(), parts.next()) else {
                continue;
            };
            let (Ok(t_ms), Ok(client)) = (t.parse(), c.parse()) else {
                continue;
            };
            if u.is_empty() {
                continue;
            }
            events.push(TraceEvent {
                t_ms,
                client,
                url: u.to_string(),
            });
        }
        Ok(Trace::new(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(vec![
            TraceEvent {
                t_ms: 30,
                client: 1,
                url: "http://s0/b.html".into(),
            },
            TraceEvent {
                t_ms: 10,
                client: 0,
                url: "http://s0/a.html".into(),
            },
            TraceEvent {
                t_ms: 20,
                client: 0,
                url: "http://s0/i.gif".into(),
            },
        ])
    }

    #[test]
    fn new_sorts_by_time() {
        let t = sample();
        assert_eq!(t.events[0].t_ms, 10);
        assert_eq!(t.events[2].t_ms, 30);
        assert_eq!(t.span_ms(), 30);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn save_load_round_trip() {
        let t = sample();
        let path = std::env::temp_dir().join(format!("dcws-trace-{}.log", std::process::id()));
        t.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(loaded, t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_skips_malformed_lines() {
        let path = std::env::temp_dir().join(format!("dcws-trace-bad-{}.log", std::process::id()));
        std::fs::write(
            &path,
            "10,0,http://s0/a.html\ngarbage\n,x,\n20,1,http://s0/b.html\n",
        )
        .unwrap();
        let t = Trace::load(&path).unwrap();
        assert_eq!(t.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
