//! The `Front` policy over a home engine and a co-op engine: pull
//! coalescing, the settle step, the one-retry rule and the degradation
//! ladder, with requests and pulls handed across directly.

use dcws_core::{
    EngineEvent, Front, MemStore, Pulled, ServerConfig, ServerEngine, Settled, Step, Waiter,
};
use dcws_graph::{DocKind, ServerId};
use dcws_http::{Request, Response, StatusCode};
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
    let mut home = ServerEngine::new(
        home_id(),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
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
        home.handle_request(&Request::get("/d.html"), T_ST - 1000);
    }
    let migrated = home.tick(T_ST).migrated;
    assert_eq!(migrated, vec![("/d.html".to_string(), coop_id())]);
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
            Step::Pull { home, path } if i == 0 => {
                assert_eq!((home, path.as_str()), (home_id(), "/d.html"));
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
    pulled: Pulled,
    now: u64,
) -> Vec<Settled<Client>> {
    front.settle(coop, &home_id(), "/d.html", pulled, now)
}

/// The answers of a settled pull, in waiter order; panics on a retry.
fn answers(settled: Vec<Settled<Client>>) -> Vec<(usize, Response)> {
    settled
        .into_iter()
        .map(|s| match s {
            Settled::Answer(Client(i, _), resp) => (i, resp),
            Settled::Retry(Client(i, _)) => panic!("waiter {i} retried"),
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
        Step::Pull { .. }
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
    let settled = settle(&mut front, &mut coop, Pulled::Reply(reply), now);
    assert_eq!(settled.len(), 3);
    for (i, s) in settled.into_iter().enumerate() {
        let Settled::Retry(client) = s else {
            panic!("waiter {i} was not retried: {s:?}");
        };
        assert_eq!(client.0, i, "waiters keep their arrival order");
        let resp = front.retry(&mut coop, client, now + 1).1.into_response();
        let resp = resp.expect("a retry is answered");
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

/// A copy too large for the co-op cache is staged for one serve: the
/// first retry takes it, the second misses again and is answered `500`
/// instead of pulling in a loop.
#[test]
fn a_second_miss_after_the_pull_answers_500() {
    let mut home = migrated_home();
    let mut coop = coop_with_budget(64);
    let mut front = Front::default();
    let now = T_ST + 5;
    park(&mut front, &mut coop, 2, now);
    let reply = pull(&mut home, &mut coop, now);
    let statuses: Vec<StatusCode> = settle(&mut front, &mut coop, Pulled::Reply(reply), now)
        .into_iter()
        .map(|s| match s {
            Settled::Retry(client) => {
                let answer = front.retry(&mut coop, client, now + 1).1;
                answer.into_response().expect("a retry is answered").status
            }
            Settled::Answer(..) => panic!("a stored pull retries"),
        })
        .collect();
    assert_eq!(statuses, [StatusCode::Ok, StatusCode::InternalServerError]);
    assert_eq!(home.stats().pulls_served, 1);
    assert_eq!(front.flights().led, 1, "no second pull");
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
    let (_, validate) = coop.tick(later).validations.remove(0);
    let revoked = home
        .handle_request(&validate, later)
        .into_response()
        .unwrap();
    coop.handle_validation_response(&home_id(), "/d.html", &revoked, later);

    park(&mut front, &mut coop, 3, later + 1);
    let moved = pull(&mut home, &mut coop, later + 1);
    assert_eq!(moved.status, StatusCode::MovedPermanently);
    let answers = answers(settle(
        &mut front,
        &mut coop,
        Pulled::Reply(moved.clone()),
        later + 1,
    ));
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
    let answers = answers(settle(
        &mut front,
        &mut coop,
        Pulled::Reply(busy.clone()),
        now,
    ));
    assert_eq!(answers.len(), 2);
    for (_, resp) in &answers {
        assert_eq!(resp, &busy);
    }
    assert_eq!(coop.stats().pull_failures, 0);
    assert_eq!(pull_failed_events(&mut coop), 0);
    assert!(matches!(
        front.serve(&mut coop, Client(9, Request::get(MIGRATE_D)), now + 1),
        Step::Pull { .. }
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
    let answers = answers(settle(&mut front, &mut coop, Pulled::Unreachable, now));
    assert_eq!(answers.len(), 3);
    for (_, resp) in &answers {
        assert_eq!(resp.status, StatusCode::ServiceUnavailable);
        assert_eq!(resp.headers.get("Retry-After"), Some("1"));
    }
    assert_eq!(coop.stats().pull_failures, 1);
    assert_eq!(pull_failed_events(&mut coop), 1);
}

/// With a retained copy — here one the home revoked, kept as §4.5 crash
/// insurance — every waiter of an unreachable home is served it stale.
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
    let (_, validate) = coop.tick(later).validations.remove(0);
    let revoked = home
        .handle_request(&validate, later)
        .into_response()
        .unwrap();
    coop.handle_validation_response(&home_id(), "/d.html", &revoked, later);
    coop.drain_events();

    park(&mut front, &mut coop, 3, later + 1);
    let stale_before = coop.stats().stale_serves;
    let answers = answers(settle(
        &mut front,
        &mut coop,
        Pulled::Unreachable,
        later + 1,
    ));
    assert_eq!(answers.len(), 3);
    for (_, resp) in &answers {
        assert_eq!(resp.status, StatusCode::Ok);
        assert_eq!(resp.body, reply.body);
    }
    assert_eq!(coop.stats().stale_serves, stale_before + 3);
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
    assert!(settle(&mut front, &mut coop, Pulled::Reply(reply), now).is_empty());
    assert_eq!(coop.coop_doc_count(), 1);
}
