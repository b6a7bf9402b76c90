//! The cached, merge-first control plane against the one it replaced.
//!
//! Until this suite was written every `X-DCWS-Load` row was formatted by
//! its sender (`LoadReport::encode` on a freshly built report) and fully
//! decoded by its receiver (`LoadReport::extract_all`, then one
//! `ingest_report` per report), whether or not it said anything new. The
//! engine now keeps each peer row's text beside the row and drops a
//! received row on its `(server, ts)` alone when the table would discard
//! it anyway. Both earlier algorithms are kept here as the oracle:
//!
//! * [`reference_ingest`] is the earlier `ingest_reports`, verbatim, over
//!   the still-public codec. Two engines are walked through one seeded
//!   sequence of messages and membership events — one ingesting the new
//!   way, one the old — and must end with the same table, dead list,
//!   ping-failure counts and event stream;
//! * [`reference_rows`] is the earlier `reports()`: one `encode()` per
//!   row, from the table as it stands. Everything either engine sends
//!   (`attach_reports`, pings out of `tick`) must equal it byte for
//!   byte, in particular right after a
//!   row changed, appeared, died or came back — when a stale cache entry
//!   would show.
//!
//! The corpus is canonical values over a small universe of ids and
//! timestamps (so rows collide, tie and supersede one another), the same
//! fields in every other arrangement `decode` tolerates or refuses, and
//! byte-level mutants of both.

use dcws_core::{Call, EngineEvent, MemStore, ServerConfig, ServerEngine, TickOutput};
use dcws_graph::{DocKind, LoadInfo, ServerId};
use dcws_http::{Headers, LoadReport, Request, PIGGYBACK_HEADER};
use proptest::prelude::*;
use proptest::TestCaseError;

const OWN: &str = "s20:80";

/// The pings a tick sends, as `(peer, request)`.
fn pings(out: TickOutput) -> Vec<(ServerId, Request)> {
    out.calls
        .into_iter()
        .filter(|c| c.call == Call::Ping)
        .map(|c| (c.peer, c.req))
        .collect()
}

/// Ids that sort before, around and after [`OWN`], so the piggyback
/// prefix (own row, then the lowest ids) changes as peers come and go.
const PEERS: [&str; 12] = [
    "s0:80", "s1:80", "s10:80", "s11:80", "s12:80", "s13:80", "s14:80", "s15:80", "s16:80",
    "s2:80", "s30:80", "s9:80",
];

// ---------------------------------------------------------------- oracle

/// `ServerEngine::ingest_reports` as it was: decode everything, merge
/// each report.
fn reference_ingest(e: &mut ServerEngine, headers: &Headers) {
    for r in LoadReport::extract_all(headers) {
        e.ingest_report(&r);
    }
}

/// What `attach_reports` attached when every row was encoded per message:
/// the own row, then the other rows in id order, `piggyback_max` in all.
/// Read from the table *after* the send, whose own row is the one sent.
fn reference_rows(e: &ServerEngine) -> Vec<String> {
    let row = |sid: &ServerId, info: LoadInfo| {
        LoadReport {
            server: sid.to_string(),
            cps: info.cps,
            bps: info.bps,
            ts_ms: info.ts_ms,
        }
        .encode()
    };
    let others = e
        .glt()
        .snapshot()
        .into_iter()
        .filter(|(sid, _)| sid != e.id())
        .take(e.config().piggyback_max - 1);
    std::iter::once(row(e.id(), e.glt().self_info()))
        .chain(others.map(|(sid, info)| row(&sid, info)))
        .collect()
}

fn load_rows(headers: &Headers) -> Vec<String> {
    headers
        .get_all(PIGGYBACK_HEADER)
        .map(str::to_string)
        .collect()
}

// ------------------------------------------------------------- the pair

/// Two engines in the same state: `new` ingests with `ingest_reports`,
/// `old` with [`reference_ingest`].
struct Pair {
    new: ServerEngine,
    old: ServerEngine,
}

fn engine() -> ServerEngine {
    let mut e = ServerEngine::new(
        ServerId::new(OWN),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
    e.publish("/a.html", b"<p>a</p>".to_vec(), DocKind::Html, true);
    e.publish("/b.gif", vec![7; 512], DocKind::Image, false);
    for peer in &PEERS[..4] {
        e.add_peer(ServerId::new(*peer));
    }
    // A standing migration, so declaring its co-op dead recalls
    // something (more events to compare).
    assert_eq!(e.restore_migrations("/b.gif\ts10:80\n", 0), 1);
    e
}

/// One step of a run. Times only move forward; the pair's clock is the
/// running sum of the `dt`s.
#[derive(Debug, Clone)]
enum Op {
    /// A message carrying these `X-DCWS-Load` values arrives.
    Message(Vec<String>),
    /// A ping to `peer` is answered, the answer carrying these values.
    Pong(&'static str, Vec<String>),
    /// A ping to `peer` fails.
    PingFailed(&'static str),
    AddPeer(&'static str),
    DeclareDead(&'static str),
    /// A client fetches a home document (moves the own row's rates).
    Get,
    /// `attach_reports` onto an outgoing message.
    Attach,
    Tick,
}

fn headers_of(values: &[String]) -> Headers {
    let mut h = Headers::new();
    for v in values {
        // A value with a line break never reaches an engine: the header
        // map refuses it, as the wire parser would have.
        let _ = h.insert(PIGGYBACK_HEADER, v.as_str());
    }
    h
}

impl Pair {
    fn new() -> Pair {
        Pair {
            new: engine(),
            old: engine(),
        }
    }

    fn apply(&mut self, op: &Op, now: u64) -> Result<(), TestCaseError> {
        match op {
            Op::Message(values) => {
                let h = headers_of(values);
                self.new.ingest_reports(&h);
                reference_ingest(&mut self.old, &h);
            }
            Op::Pong(peer, values) => {
                let (h, peer) = (headers_of(values), ServerId::new(*peer));
                self.new.ping_result(&peer, true, Some(&h));
                self.old.ping_result(&peer, true, None);
                reference_ingest(&mut self.old, &h);
            }
            Op::PingFailed(peer) => {
                let peer = ServerId::new(*peer);
                prop_assert_eq!(
                    self.new.ping_result(&peer, false, None),
                    self.old.ping_result(&peer, false, None)
                );
            }
            Op::AddPeer(peer) => {
                self.new.add_peer(ServerId::new(*peer));
                self.old.add_peer(ServerId::new(*peer));
            }
            Op::DeclareDead(peer) => {
                let peer = ServerId::new(*peer);
                prop_assert_eq!(
                    self.new.declare_peer_dead(&peer),
                    self.old.declare_peer_dead(&peer)
                );
            }
            Op::Get => {
                for e in [&mut self.new, &mut self.old] {
                    e.handle_request(&Request::get("/a.html"), now)
                        .into_response()
                        .expect("a home document is served");
                }
            }
            Op::Attach => {
                for e in [&mut self.new, &mut self.old] {
                    let mut h = Headers::new();
                    e.attach_reports(&mut h, now);
                    prop_assert_eq!(load_rows(&h), reference_rows(e));
                }
            }
            Op::Tick => {
                let new = pings(self.new.tick(now));
                let old = pings(self.old.tick(now));
                prop_assert_eq!(new.len(), old.len());
                for ((to_new, ping_new), (to_old, ping_old)) in new.iter().zip(&old) {
                    prop_assert_eq!(to_new, to_old);
                    prop_assert_eq!(&ping_new.headers, &ping_old.headers);
                }
                // Every ping of the tick carries the rows as of `now`.
                for (_, ping) in &new {
                    prop_assert_eq!(load_rows(&ping.headers), reference_rows(&self.new));
                }
            }
        }
        self.check_same_state()
    }

    /// Table (to the bit: `-0.0` is a rate `decode` accepts), dead list.
    fn check_same_state(&self) -> Result<(), TestCaseError> {
        let bits = |e: &ServerEngine| -> Vec<(ServerId, u64, u64, u64, bool)> {
            let dead: Vec<_> = e.peer_summaries().into_iter().map(|p| p.dead).collect();
            e.glt()
                .snapshot()
                .into_iter()
                .filter(|(sid, _)| sid != e.id())
                .zip(dead)
                .map(|((sid, i), dead)| (sid, i.cps.to_bits(), i.bps.to_bits(), i.ts_ms, dead))
                .collect()
        };
        prop_assert_eq!(bits(&self.new), bits(&self.old));
        prop_assert_eq!(
            self.new.glt().self_info().ts_ms,
            self.old.glt().self_info().ts_ms
        );
        Ok(())
    }

    /// End of run: same events, and the same number of failed pings left
    /// before each live peer is declared dead (the ping-failure counts,
    /// which no accessor shows).
    fn finish(mut self) -> Result<(), TestCaseError> {
        self.check_same_state()?;
        let live: Vec<ServerId> = self
            .new
            .peer_summaries()
            .into_iter()
            .filter(|p| !p.dead)
            .map(|p| p.id)
            .collect();
        let failures_to_death = |e: &mut ServerEngine, peer: &ServerId| {
            let dead = |r: &dcws_core::EventRecord| {
                matches!(r.event, EngineEvent::PeerDeclaredDead { .. })
            };
            let before = e.recent_events(usize::MAX).into_iter().filter(dead).count();
            (1..=e.config().ping_failure_limit)
                .find(|_| {
                    e.ping_result(peer, false, None);
                    e.recent_events(usize::MAX).into_iter().filter(dead).count() > before
                })
                .expect("a peer dies within the failure limit")
        };
        for peer in &live {
            prop_assert_eq!(
                failures_to_death(&mut self.new, peer),
                failures_to_death(&mut self.old, peer),
                "ping failures on record for {}",
                peer
            );
        }
        prop_assert_eq!(self.new.drain_events(), self.old.drain_events());
        // The two did the same merges by different routes.
        let (new, old) = (self.new.stats(), self.old.stats());
        prop_assert_eq!(new.reports_merged, old.reports_merged);
        prop_assert_eq!(old.reports_skipped, 0);
        Ok(())
    }
}

fn run(ops: &[(Op, u64)]) -> Result<(), TestCaseError> {
    let mut pair = Pair::new();
    let mut now = 1_000;
    for (op, dt) in ops {
        now += dt;
        pair.apply(op, now)?;
    }
    pair.finish()
}

// ------------------------------------------------------------ the corpus

fn peer() -> impl Strategy<Value = &'static str> {
    (0..PEERS.len()).prop_map(|i| PEERS[i])
}

fn server_text() -> impl Strategy<Value = String> {
    prop_oneof![
        peer().prop_map(str::to_string),
        peer().prop_map(str::to_string),
        Just(OWN.to_string()),
        Just("unknown:9".to_string()),
        Just(String::new()),
        Just(" s1:80".to_string()),
        Just("s1:80 ".to_string()),
        Just("s1:80\u{a0}".to_string()),
        Just("s1;80".to_string()),
        Just("s1=80".to_string()),
    ]
}

fn rate() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(5.25),
        Just(0.0005),
        Just(10.0 / 3.0),
        Just(-1.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(1e300),
        0.0f64..1e7,
        0.0f64..10.0,
    ]
}

/// Timestamps around the ones a run's own rows carry (so they tie, trail
/// and lead), and spellings `decode` reads differently or not at all.
fn ts_text() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..8).prop_map(|t| t.to_string()),
        (0u64..8).prop_map(|t| t.to_string()),
        (990u64..1_200).prop_map(|t| t.to_string()),
        Just(u64::MAX.to_string()),
        Just("18446744073709551616".to_string()),
        Just("+5".to_string()),
        Just(" 5".to_string()),
        Just("05".to_string()),
        Just("1.5".to_string()),
        Just("-1".to_string()),
        Just(String::new()),
    ]
}

/// The four fields in the canonical arrangement or one of the others.
fn value() -> impl Strategy<Value = String> {
    (server_text(), rate(), rate(), ts_text(), 0u8..16).prop_map(|(s, c, b, t, shape)| {
        let canonical = format!("server={s}; cps={c:.3}; bps={b:.3}; ts={t}");
        match shape {
            // Half the corpus: what `encode` emits (when `t` is a `u64`).
            0..=7 => canonical,
            8 => format!("ts={t}; server={s}; cps={c:.3}; bps={b:.3}"),
            9 => format!("server={s}; bps={b:.3}; cps={c:.3}; ts={t}"),
            10 => format!("{canonical}; ts=3"),
            11 => format!("{canonical}; server=s0:80"),
            12 => format!("{canonical}; future=x"),
            13 => format!("server={s};cps={c:.3};bps={b:.3};ts={t}"),
            14 => format!(" server = {s} ; cps = {c:.3} ; bps = {b:.3} ; ts = {t} ;"),
            _ => format!("server={s}; cps={c:.3}; ts={t}"),
        }
    })
}

/// Bytes worth splicing into a value: its own separators, whitespace
/// `str::trim` strips (NBSP, U+2003), signs, line breaks.
const SPLICES: [&str; 12] = [
    ";", "=", " ", "\t", "; ", "\u{a0}", "\u{2003}", "+", "-", ".", "\r\n", "\n",
];

/// A value after 0–2 seeded edits (flip, overwrite, truncate, splice),
/// kept on character boundaries.
fn mutant() -> impl Strategy<Value = String> {
    (
        value(),
        proptest::collection::vec((any::<u8>(), 0.0f64..1.0, any::<u8>()), 0..3),
    )
        .prop_map(|(mut v, edits)| {
            for (kind, at, byte) in edits {
                if v.is_empty() {
                    break;
                }
                let mut pos = ((v.len() as f64) * at) as usize % v.len();
                while !v.is_char_boundary(pos) {
                    pos -= 1;
                }
                match kind % 4 {
                    0 => v.truncate(pos),
                    1 => v.insert_str(pos, SPLICES[byte as usize % SPLICES.len()]),
                    _ => {
                        let c = (b' ' + byte % 95) as char;
                        let end = pos + v[pos..].chars().next().map_or(0, char::len_utf8);
                        v.replace_range(pos..end, c.encode_utf8(&mut [0; 4]));
                    }
                }
            }
            v
        })
}

/// A message's worth of rows: usually a handful, now and then far more
/// than `piggyback_max`.
fn rows() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![
        proptest::collection::vec(value(), 0..10),
        proptest::collection::vec(prop_oneof![value(), mutant()], 0..10),
        proptest::collection::vec(prop_oneof![value(), mutant()], 0..65),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        rows().prop_map(Op::Message),
        rows().prop_map(Op::Message),
        (peer(), rows()).prop_map(|(p, r)| Op::Pong(p, r)),
        peer().prop_map(Op::PingFailed),
        peer().prop_map(Op::PingFailed),
        peer().prop_map(Op::AddPeer),
        peer().prop_map(Op::DeclareDead),
        Just(Op::Get),
        Just(Op::Attach),
        Just(Op::Attach),
        Just(Op::Tick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Whatever `peek` reads off a value, `decode` reads the same or
    /// refuses the value — the one fact the early drop rests on — and it
    /// does read everything `encode` writes.
    #[test]
    fn peek_never_disagrees_with_decode(v in prop_oneof![value(), mutant()]) {
        if let Some((server, ts_ms)) = LoadReport::peek(&v) {
            if let Ok(r) = LoadReport::decode(&v) {
                prop_assert_eq!((r.server.as_str(), r.ts_ms), (server, ts_ms), "{:?}", v);
            }
        }
        if let Ok(r) = LoadReport::decode(&v) {
            let encoded = r.encode();
            prop_assert_eq!(
                LoadReport::peek(&encoded),
                Some((r.server.as_str(), r.ts_ms)),
                "{:?}", encoded
            );
        }
    }

    #[test]
    fn engines_agree_on_any_history(
        ops in proptest::collection::vec((op(), 0u64..400), 1..24),
    ) {
        run(&ops)?;
    }
}

/// The moments a stale cache entry would show, in order, each followed at
/// once by a send: a gossiped row superseded, a new lowest id joining
/// (every later row shifts), a peer declared dead, and that peer heard
/// from again.
#[test]
fn sends_follow_every_kind_of_row_change() {
    let canonical = |server: &str, cps: f64, ts_ms: u64| {
        vec![LoadReport {
            server: server.into(),
            cps,
            bps: cps * 1e3,
            ts_ms,
        }
        .encode()]
    };
    let ops = [
        (Op::Attach, 0),
        (Op::Tick, 1),
        // update: newer, then the same row again (a tie), then an older one.
        (Op::Message(canonical("s10:80", 4.5, 2_000)), 1),
        (Op::Attach, 0),
        (Op::Message(canonical("s10:80", 9.0, 2_000)), 1),
        (Op::Message(canonical("s10:80", 9.0, 1_500)), 0),
        (Op::Attach, 0),
        // add_peer: known (keeps its row) and new, sorting first.
        (Op::AddPeer("s10:80"), 1),
        (Op::AddPeer("s0:80"), 0),
        (Op::Attach, 0),
        // An unknown server's report adds a row mid-prefix.
        (Op::Message(canonical("s1:80", 1.25, 2_100)), 1),
        (Op::Attach, 0),
        // Death (recalls /b.gif) and resurrection.
        (Op::DeclareDead("s10:80"), 1),
        (Op::Attach, 0),
        (Op::Tick, 0),
        (Op::Pong("s11:80", canonical("s10:80", 0.5, 2_200)), 1),
        (Op::Attach, 0),
        // Ping failures cleared by gossip about the peer, not from it.
        (Op::PingFailed("s11:80"), 1),
        (Op::PingFailed("s11:80"), 1),
        (Op::Message(canonical("s11:80", 2.0, 2_300)), 0),
        (Op::PingFailed("s11:80"), 1),
        (Op::Get, 1),
        (Op::Attach, 1),
        (Op::Tick, 100),
        (Op::Attach, 0),
    ];
    let mut pair = Pair::new();
    let mut now = 1_000;
    for (op, dt) in &ops {
        now += dt;
        pair.apply(op, now)
            .unwrap_or_else(|e| panic!("after {op:?}: {e:?}"));
    }
    let events = pair.new.recent_events(usize::MAX);
    for kind in [
        "peer_declared_dead",
        "migration_revoked",
        "peer_resurrected",
    ] {
        assert!(
            events.iter().any(|r| r.event.kind() == kind),
            "the script never produced {kind}"
        );
    }
    pair.finish()
        .unwrap_or_else(|e| panic!("at the end: {e:?}"));
}

/// An all-stale message is dropped whole, and says so.
#[test]
fn redundant_rows_are_counted_as_skipped() {
    let mut e = engine();
    let fresh = |server: &str, ts_ms| LoadReport {
        server: server.into(),
        cps: 1.0,
        bps: 1.0,
        ts_ms,
    };
    let mut first = Headers::new();
    fresh("s0:80", 5).attach(&mut first);
    fresh("s1:80", 5).attach(&mut first);
    e.ingest_reports(&first);
    let mut again = first.clone();
    fresh(OWN, 9_999).attach(&mut again);
    fresh("s0:80", 4).attach(&mut again);
    fresh("s1:80", 6).attach(&mut again);
    e.ingest_reports(&again);
    let s = e.stats();
    assert_eq!((s.reports_merged, s.reports_skipped), (3, 4));
}
