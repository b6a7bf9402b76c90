//! The `Front` policy over a home engine and a co-op engine: pull
//! coalescing, the settle step that answers every waiter from the copy
//! its pull brought in, the degradation ladder, and the one door every
//! reply to a call goes through, with requests and replies handed across
//! directly.

use dcws_core::{
    Call, EngineEvent, Front, MemStore, Outbound, ServerConfig, ServerEngine, Settled, Step,
    TickOutput, Waiter,
};
use dcws_graph::{DocKind, ServerId};
use dcws_http::{Request, Response, StatusCode, PIGGYBACK_HEADER};
use std::borrow::Cow;

const T_ST: u64 = 10_000;
const T_VAL: u64 = 120_000;
const MIGRATE_D: &str = "/~migrate/home/8000/d.html";

fn home_id() -> ServerId {
    ServerId::new("home:8000")
}

fn coop_id() -> ServerId {
    ServerId::new("coop1:8001")
}

/// One waiting client: its number and its request.
#[derive(Debug)]
struct Client(usize, Request);

impl Waiter for Client {
    fn request(&self) -> Cow<'_, Request> {
        Cow::Borrowed(&self.1)
    }
}

/// A home that has migrated `/d.html` to the co-op.
fn migrated_home() -> ServerEngine {
    let mut home = loaded_home(ServerConfig::paper_defaults(), T_ST);
    let migrated = home.tick(T_ST).migrated;
    assert_eq!(migrated, vec![("/d.html".to_string(), coop_id())]);
    home
}

/// A home with a co-op peer, `/d.html` hot enough that its statistics
/// tick at `now` migrates it.
fn loaded_home(cfg: ServerConfig, now: u64) -> ServerEngine {
    let mut home = ServerEngine::new(home_id(), cfg, Box::new(MemStore::new()));
    home.publish(
        "/index.html",
        br#"<html><body><a href="/d.html">D</a></body></html>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home.publish(
        "/d.html",
        b"<html><body>doc D</body></html>".to_vec(),
        DocKind::Html,
        false,
    );
    home.add_peer(coop_id());
    for _ in 0..80 {
        home.handle_request(&Request::get("/d.html"), now - 1000);
    }
    home
}

fn coop_with_budget(budget: u64) -> ServerEngine {
    let cfg = ServerConfig {
        cache_budget_bytes: budget,
        ..ServerConfig::paper_defaults()
    };
    ServerEngine::new(coop_id(), cfg, Box::new(MemStore::new()))
}

fn coop() -> ServerEngine {
    coop_with_budget(ServerConfig::paper_defaults().cache_budget_bytes)
}

/// Serve `n` misses of `/d.html` at the co-op: the first must lead.
fn park(front: &mut Front<Client>, coop: &mut ServerEngine, n: usize, now: u64) {
    for i in 0..n {
        match front.serve(coop, Client(i, Request::get(MIGRATE_D)), now) {
            Step::Pull(Outbound { peer, call, req }) if i == 0 => {
                assert_eq!((peer, &req.target[..]), (home_id(), "/d.html"));
                assert_eq!(
                    call,
                    Call::Pull {
                        path: "/d.html".into()
                    }
                );
            }
            Step::Parked if i > 0 => {}
            other => panic!("miss {i}: {other:?}"),
        }
    }
}

/// The home's answer to the co-op's pull of `/d.html`.
fn pull(home: &mut ServerEngine, coop: &mut ServerEngine, now: u64) -> Response {
    let req = coop.make_pull_request("/d.html", now);
    home.handle_request(&req, now).into_response().unwrap()
}

fn settle(
    front: &mut Front<Client>,
    coop: &mut ServerEngine,
    reply: Option<&Response>,
    now: u64,
) -> Vec<Settled<Client>> {
    let pull = Call::Pull {
        path: "/d.html".into(),
    };
    front.answered(coop, &home_id(), &pull, reply, now)
}

/// The requests `out` sends for calls labelled `label`.
fn sent<'a>(out: &'a TickOutput, label: &str) -> Vec<&'a Request> {
    out.calls
        .iter()
        .filter(|c| c.call.label() == label)
        .map(|c| &c.req)
        .collect()
}

/// The answers of a settled pull, in waiter order; panics on a copy.
fn answers(settled: Vec<Settled<Client>>) -> Vec<(usize, Response)> {
    settled
        .into_iter()
        .map(|s| match s {
            Settled::Answer(Client(i, _), resp) => (i, resp),
            Settled::Copy(Client(i, _), _) => panic!("waiter {i} was handed a copy"),
        })
        .collect()
}

/// A settled pull's waiters, each answered from the copy it was handed,
/// in waiter order; panics on any other answer.
fn served_copies(
    front: &Front<Client>,
    coop: &mut ServerEngine,
    settled: Vec<Settled<Client>>,
    now: u64,
) -> Vec<(usize, Response)> {
    settled
        .into_iter()
        .map(|s| match s {
            Settled::Copy(client, copy) => {
                let (Client(i, _), resp) = front.serve_copy(coop, client, &copy, now);
                (i, resp)
            }
            Settled::Answer(Client(i, _), resp) => panic!("waiter {i} answered {resp:?}"),
        })
        .collect()
}

fn pull_failed_events(coop: &mut ServerEngine) -> usize {
    coop.drain_events()
        .iter()
        .filter(|r| matches!(r.event, EngineEvent::PullFailed { .. }))
        .count()
}

#[test]
fn concurrent_misses_lead_one_pull() {
    const N: usize = 8;
    let mut coop = coop();
    let mut front = Front::default();
    park(&mut front, &mut coop, N, T_ST + 5);
    let flights = front.flights();
    assert_eq!((flights.led, flights.coalesced), (1, N as u64 - 1));
    assert_eq!(flights.in_flight, 1);
    assert_eq!(coop.coop_cache().stats().coalesced_waits, N as u64 - 1);
    // Another document leads a pull of its own.
    let other = Request::get("/~migrate/home/8000/e.html");
    assert!(matches!(
        front.serve(&mut coop, Client(N, other), T_ST + 5),
        Step::Pull(_)
    ));
    assert_eq!(front.flights().in_flight, 2);
}

#[test]
fn a_stored_pull_retries_every_waiter() {
    let mut home = migrated_home();
    let mut coop = coop();
    let mut front = Front::default();
    let now = T_ST + 5;
    park(&mut front, &mut coop, 3, now);
    let reply = pull(&mut home, &mut coop, now);
    let settled = settle(&mut front, &mut coop, Some(&reply), now);
    let answers = served_copies(&front, &mut coop, settled, now + 1);
    assert_eq!(answers.len(), 3);
    for (i, (client, resp)) in answers.into_iter().enumerate() {
        assert_eq!(client, i, "waiters keep their arrival order");
        assert_eq!(resp.status, StatusCode::Ok);
        assert!(String::from_utf8_lossy(&resp.body).contains("doc D"));
    }
    assert_eq!(home.stats().pulls_served, 1);
    assert_eq!(coop.stats().served_coop, 3);
    assert_eq!(front.flights().in_flight, 0);
    // The copy is in: the next request is answered outright.
    assert!(matches!(
        front.serve(&mut coop, Client(9, Request::get(MIGRATE_D)), now + 2),
        Step::Answer(..)
    ));
}

/// A copy the store refuses (too large for its budget) still answers
/// every request that waited on its pull; the store keeps nothing, so
/// the next request leads a pull of its own.
#[test]
fn an_uncacheable_copy_answers_every_waiter() {
    let mut home = migrated_home();
    let mut coop = coop_with_budget(64);
    let mut front = Front::default();
    let now = T_ST + 5;
    park(&mut front, &mut coop, 4, now);
    let reply = pull(&mut home, &mut coop, now);
    let settled = settle(&mut front, &mut coop, Some(&reply), now);
    assert_eq!(coop.coop_doc_count(), 0, "the cache refused the copy");
    let answers = served_copies(&front, &mut coop, settled, now + 1);
    assert_eq!(answers.len(), 4);
    for (_, resp) in &answers {
        assert_eq!(resp.status, StatusCode::Ok);
        assert_eq!(resp.body, reply.body);
    }
    assert_eq!(home.stats().pulls_served, 1);
    assert_eq!(front.flights().led, 1, "one pull for every waiter");
    assert!(matches!(
        front.serve(&mut coop, Client(9, Request::get(MIGRATE_D)), now + 2),
        Step::Pull(_)
    ));
}

/// The home recalled `/d.html`, and the co-op re-checks its revoked copy:
/// the home's `301` reaches every waiter, and the co-op remembers it.
#[test]
fn a_301_reply_reaches_every_waiter_and_is_remembered() {
    let mut home = migrated_home();
    let mut coop = coop();
    let mut front = Front::default();
    let now = T_ST + 5;
    let reply = pull(&mut home, &mut coop, now);
    assert!(coop.store_pulled(&home_id(), "/d.html", &reply, now));
    home.declare_peer_dead(&coop_id());
    let later = now + T_VAL;
    let out = coop.tick(later);
    let validate = sent(&out, "validate")[0];
    let revoked = home
        .handle_request(validate, later)
        .into_response()
        .unwrap();
    coop.handle_validation_response(&home_id(), "/d.html", &revoked, later);

    park(&mut front, &mut coop, 3, later + 1);
    let moved = pull(&mut home, &mut coop, later + 1);
    assert_eq!(moved.status, StatusCode::MovedPermanently);
    let answers = answers(settle(&mut front, &mut coop, Some(&moved), later + 1));
    assert_eq!(answers.len(), 3);
    for (_, resp) in &answers {
        assert_eq!(resp, &moved);
    }
    // The tombstone answers the next request: no second pull.
    match front.serve(&mut coop, Client(9, Request::get(MIGRATE_D)), later + 2) {
        Step::Answer(_, answer) => {
            let resp = answer.into_response().expect("an answer");
            assert_eq!(resp.status, StatusCode::MovedPermanently);
            assert_eq!(
                resp.headers.get("Location"),
                Some("http://home:8000/d.html")
            );
        }
        other => panic!("the 301 was not remembered: {other:?}"),
    }
    assert_eq!(coop.stats().pull_failures, 0);
}

/// An overloaded home's `503` is relayed as it came, and is no failure:
/// nothing is marked stale, and the next request pulls again.
#[test]
fn a_503_reply_is_relayed_as_is() {
    let mut coop = coop();
    let mut front = Front::default();
    let now = T_ST + 5;
    park(&mut front, &mut coop, 2, now);
    let busy = Response::service_unavailable(7);
    let answers = answers(settle(&mut front, &mut coop, Some(&busy), now));
    assert_eq!(answers.len(), 2);
    for (_, resp) in &answers {
        assert_eq!(resp, &busy);
    }
    assert_eq!(coop.stats().pull_failures, 0);
    assert_eq!(pull_failed_events(&mut coop), 0);
    assert!(matches!(
        front.serve(&mut coop, Client(9, Request::get(MIGRATE_D)), now + 1),
        Step::Pull(_)
    ));
}

/// An unreachable home is one pull failure, however many waited; with
/// nothing retained, each waiter gets a `503` with `Retry-After: 1`.
#[test]
fn an_unreachable_home_answers_503_with_retry_after() {
    let mut coop = coop();
    let mut front = Front::default();
    let now = T_ST + 5;
    park(&mut front, &mut coop, 3, now);
    let answers = answers(settle(&mut front, &mut coop, None, now));
    assert_eq!(answers.len(), 3);
    for (_, resp) in &answers {
        assert_eq!(resp.status, StatusCode::ServiceUnavailable);
        assert_eq!(resp.headers.get("Retry-After"), Some("1"));
    }
    assert_eq!(coop.stats().pull_failures, 1);
    assert_eq!(pull_failed_events(&mut coop), 1);
}

/// With a retained copy — here one the home revoked, kept as §4.5 crash
/// insurance — every waiter of an unreachable home is handed it, stale,
/// and answered from it as from the cache: a conditional waiter the copy
/// satisfies gets a `304`, a ranged one its range.
#[test]
fn an_unreachable_home_serves_a_retained_copy_stale() {
    let mut home = migrated_home();
    let mut coop = coop();
    let mut front = Front::default();
    let now = T_ST + 5;
    let reply = pull(&mut home, &mut coop, now);
    assert!(coop.store_pulled(&home_id(), "/d.html", &reply, now));
    home.declare_peer_dead(&coop_id());
    let later = now + T_VAL;
    let out = coop.tick(later);
    let validate = sent(&out, "validate")[0];
    let revoked = home
        .handle_request(validate, later)
        .into_response()
        .unwrap();
    coop.handle_validation_response(&home_id(), "/d.html", &revoked, later);
    coop.drain_events();

    park(&mut front, &mut coop, 3, later + 1);
    let last_modified = reply.headers.get("Last-Modified").unwrap().to_string();
    let conditional = Request::get(MIGRATE_D).with_header("If-Modified-Since", last_modified);
    let ranged = Request::get(MIGRATE_D).with_header("Range", "bytes=0-3");
    for (i, req) in [(3, conditional), (4, ranged)] {
        assert!(matches!(
            front.serve(&mut coop, Client(i, req), later + 1),
            Step::Parked
        ));
    }
    let stale_before = coop.stats().stale_serves;
    let settled = settle(&mut front, &mut coop, None, later + 1);
    let answers = served_copies(&front, &mut coop, settled, later + 1);
    let statuses: Vec<StatusCode> = answers.iter().map(|(_, r)| r.status).collect();
    assert_eq!(
        statuses,
        [
            StatusCode::Ok,
            StatusCode::Ok,
            StatusCode::Ok,
            StatusCode::NotModified,
            StatusCode::PartialContent
        ]
    );
    for (_, resp) in &answers[..3] {
        assert_eq!(resp.body, reply.body);
    }
    assert_eq!(answers[4].1.body, reply.body[..4]);
    assert_eq!(coop.stats().stale_serves, stale_before + 4);
    assert_eq!(coop.stats().pull_failures, 1);
    assert_eq!(pull_failed_events(&mut coop), 1);
}

/// A host whose connections all die takes every parked waiter back, in
/// key order, and settling afterwards still stores the copy.
#[test]
fn drain_empties_the_table_in_key_order() {
    let mut home = migrated_home();
    let mut coop = coop();
    let mut front = Front::default();
    let now = T_ST + 5;
    for (i, doc) in ["/e.html", "/d.html", "/e.html"].iter().enumerate() {
        let req = Request::get(format!("/~migrate/home/8000{doc}"));
        front.serve(&mut coop, Client(i, req), now);
    }
    let order: Vec<usize> = front.drain().map(|Client(i, _)| i).collect();
    assert_eq!(order, [1, 0, 2]);
    assert_eq!(front.flights().in_flight, 0);
    let reply = pull(&mut home, &mut coop, now);
    assert!(settle(&mut front, &mut coop, Some(&reply), now).is_empty());
    assert_eq!(coop.coop_doc_count(), 1);
}

fn copy_stale(coop: &ServerEngine) -> bool {
    coop.coop_cache()
        .copies()
        .iter()
        .any(|(_, copy)| copy.stale)
}

/// Unreachable pings short of `ping_failure_limit` leave the peer alive;
/// the last declares it dead and recalls every document migrated to it.
/// A ping releases no waiter.
#[test]
fn unreachable_pings_declare_the_peer_dead_and_recall_its_documents() {
    let mut home = migrated_home();
    let mut front = Front::<Client>::default();
    let limit = home.config().ping_failure_limit;
    for n in 1..=limit {
        let now = T_ST + u64::from(n);
        assert!(front
            .answered(&mut home, &coop_id(), &Call::Ping, None, now)
            .is_empty());
        let dead = home.stats().peers_declared_dead;
        assert_eq!(dead, u64::from(n == limit), "after {n} unreachable pings");
    }
    assert!(home.ldg().get("/d.html").unwrap().location.is_home());
    assert_eq!(home.stats().revocations, 1);
}

/// Any reply to a ping — the peer's own answer, or a `503` carrying its
/// rows — merges the load rows piggybacked on it and proves the peer
/// alive: the count of unreachable pings starts over.
#[test]
fn a_ping_reply_merges_its_piggybacked_rows() {
    let now = 25_000; // past T_pi: the co-op's row is stale
    for busy in [false, true] {
        let mut home = migrated_home();
        let mut coop = coop();
        let mut front = Front::<Client>::default();
        let out = home.tick(now);
        let reply = if busy {
            let mut busy = Response::service_unavailable(1);
            coop.attach_reports(&mut busy.headers, now);
            busy
        } else {
            let ping = sent(&out, "ping")[0];
            coop.handle_request(ping, now).into_response().unwrap()
        };
        let limit = home.config().ping_failure_limit;
        for _ in 1..limit {
            front.answered(&mut home, &coop_id(), &Call::Ping, None, now);
        }
        assert_ne!(home.glt().get(&coop_id()).unwrap().ts_ms, now);
        let released = front.answered(&mut home, &coop_id(), &Call::Ping, Some(&reply), now);
        assert!(released.is_empty());
        assert_eq!(
            home.glt().get(&coop_id()).unwrap().ts_ms,
            now,
            "busy: {busy}"
        );
        front.answered(&mut home, &coop_id(), &Call::Ping, None, now + 1);
        assert_eq!(home.stats().peers_declared_dead, 0, "busy: {busy}");
    }
}

/// A revalidation that cannot reach the home marks the copy stale and
/// records `ValidationFailed`; the home's `304` later clears the mark.
/// Neither releases a waiter.
#[test]
fn an_unreachable_validation_marks_the_copy_stale_and_a_304_clears_it() {
    let mut home = migrated_home();
    let mut coop = coop();
    let mut front = Front::<Client>::default();
    let now = T_ST + 5;
    let reply = pull(&mut home, &mut coop, now);
    assert!(coop.store_pulled(&home_id(), "/d.html", &reply, now));
    coop.drain_events();
    let validate = Call::Validate {
        path: "/d.html".into(),
    };
    let later = now + T_VAL;
    assert!(front
        .answered(&mut coop, &home_id(), &validate, None, later)
        .is_empty());
    assert!(copy_stale(&coop));
    assert_eq!(coop.stats().validation_failures, 1);
    let failed = coop
        .drain_events()
        .into_iter()
        .filter(|r| matches!(r.event, EngineEvent::ValidationFailed { .. }))
        .count();
    assert_eq!(failed, 1);

    let out = coop.tick(later);
    let not_modified = home
        .handle_request(sent(&out, "validate")[0], later)
        .into_response()
        .unwrap();
    assert_eq!(not_modified.status, StatusCode::NotModified);
    let released = front.answered(&mut coop, &home_id(), &validate, Some(&not_modified), later);
    assert!(released.is_empty());
    assert!(!copy_stale(&coop));
}

/// A push's reply — rows piggybacked on it too — or its failure changes
/// nothing: a co-op that missed it lazy-pulls later.
#[test]
fn a_push_reply_changes_nothing() {
    let mut home = migrated_home();
    let mut coop = coop();
    let mut front = Front::<Client>::default();
    let mut stored = Response::ok(b"stored".to_vec(), "text/plain");
    coop.attach_reports(&mut stored.headers, T_ST + 1);
    home.drain_events();
    let (stats, row) = (home.stats(), home.glt().get(&coop_id()).unwrap().ts_ms);
    for reply in [Some(&stored), None] {
        assert!(front
            .answered(&mut home, &coop_id(), &Call::Push, reply, T_ST + 1)
            .is_empty());
    }
    assert_eq!(home.stats(), stats);
    assert_eq!(home.glt().get(&coop_id()).unwrap().ts_ms, row);
    assert!(home.drain_events().is_empty());
}

/// A tick that pings, validates and pushes (`eager_migration`) sends its
/// calls in that order — pings, then validations, then the pushes its
/// migration decided — so neither host's event sequence moves.
#[test]
fn a_tick_sends_pings_then_validations_then_pushes() {
    let cfg = ServerConfig {
        eager_migration: true,
        ..ServerConfig::paper_defaults()
    };
    // A statistics tick, T_val after the copy below, T_pi after the co-op
    // was last heard from.
    let now = T_VAL + T_ST;
    let mut home = loaded_home(cfg, now);
    let other = ServerId::new("other:8002");
    let copy = Response::ok(b"<p>x</p>".to_vec(), "text/html");
    assert!(home.store_pulled(&other, "/x.html", &copy, T_ST));
    let out = home.tick(now);
    assert_eq!(out.migrated, vec![("/d.html".to_string(), coop_id())]);
    let calls: Vec<(&ServerId, &str)> = out
        .calls
        .iter()
        .map(|c| (&c.peer, c.call.label()))
        .collect();
    assert_eq!(
        calls,
        [
            (&coop_id(), "ping"),
            (&other, "validate"),
            (&coop_id(), "push")
        ]
    );
}

/// Gossip never travels alone: every request the engine builds — each
/// call a tick hands the host, and the pull `Front::serve` leads — carries
/// its `X-DCWS-Load` rows beside another `X-DCWS-*` header, and a read
/// path declines it, so only the engine ever merges the rows a request
/// carries. A bare-gossip GET would fail here first.
#[test]
fn every_built_request_carries_its_rows_beside_another_dcws_header() {
    let cfg = ServerConfig {
        eager_migration: true,
        ..ServerConfig::paper_defaults()
    };
    let now = T_VAL + T_ST;
    let mut home = loaded_home(cfg, now);
    let other = ServerId::new("other:8002");
    let copy = Response::ok(b"<p>x</p>".to_vec(), "text/html");
    assert!(home.store_pulled(&other, "/x.html", &copy, T_ST));
    let mut built = home.tick(now).calls;
    let mut coop = coop();
    let mut front = Front::default();
    match front.serve(&mut coop, Client(0, Request::get(MIGRATE_D)), now) {
        Step::Pull(pull) => built.push(pull),
        other => panic!("a cold miss must lead a pull: {other:?}"),
    }
    let labels: Vec<&str> = built.iter().map(|c| c.call.label()).collect();
    assert_eq!(labels, ["ping", "validate", "push", "pull"]);

    // A primed route the read path answers when asked plainly.
    let plain = Request::get("/index.html");
    home.handle_request(&plain, now);
    assert!(home.read_path().try_serve(&plain, now).is_some());
    for Outbound { call, req, .. } in &built {
        let label = call.label();
        let names: Vec<&str> = req.headers.iter().map(|(n, _)| n).collect();
        assert!(names.contains(&PIGGYBACK_HEADER), "{label}: no rows");
        assert!(
            names
                .iter()
                .any(|n| n.starts_with("X-DCWS-") && *n != PIGGYBACK_HEADER),
            "{label}: rows alone: {names:?}"
        );
        let read = home.read_path();
        assert!(
            read.serve_parts(req.method, &req.target, req.headers.iter())
                .is_none(),
            "{label}: answered on the read path"
        );
        // Its rows alone decline the primed route too.
        let rows = req.headers.iter().filter(|(n, _)| *n == PIGGYBACK_HEADER);
        assert!(
            read.serve_parts(plain.method, &plain.target, rows)
                .is_none(),
            "{label}: its rows were answered on the read path"
        );
    }
}
