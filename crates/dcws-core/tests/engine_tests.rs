//! End-to-end engine tests: the full migration / redirect / pull /
//! validation / revocation protocol between two or more engines, with no
//! transport — requests and responses are handed across directly.

use dcws_core::{MemStore, Outcome, ServerConfig, ServerEngine, TickOutput};
use dcws_graph::{DocKind, Location, ServerId};
use dcws_http::{Request, Response, StatusCode};

const T_ST: u64 = 10_000;
const T_VAL: u64 = 120_000;

fn home_id() -> ServerId {
    ServerId::new("home:8000")
}
fn coop_id() -> ServerId {
    ServerId::new("coop1:8001")
}

/// A home engine with a tiny site: entry /index.html -> /d.html, /e.html;
/// /d.html -> /e.html; one image embedded in /index.html.
fn make_home(cfg: ServerConfig) -> ServerEngine {
    let mut e = ServerEngine::new(home_id(), cfg, Box::new(MemStore::new()));
    e.publish(
        "/index.html",
        br#"<html><body><a href="/d.html">D</a> <a href="/e.html">E</a> <img src="/i.gif"></body></html>"#.to_vec(),
        DocKind::Html,
        true,
    );
    e.publish(
        "/d.html",
        br#"<html><body><a href="/e.html">E</a> doc D</body></html>"#.to_vec(),
        DocKind::Html,
        false,
    );
    e.publish(
        "/e.html",
        b"<html><body>doc E</body></html>".to_vec(),
        DocKind::Html,
        false,
    );
    e.publish("/i.gif", vec![0xAB; 64], DocKind::Image, false);
    e
}

fn make_coop() -> ServerEngine {
    ServerEngine::new(
        coop_id(),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    )
}

/// The calls `out` sends whose [`dcws_core::Call::label`] is `label`, as
/// `(peer, request)`.
fn sent<'a>(out: &'a TickOutput, label: &str) -> Vec<(&'a ServerId, &'a Request)> {
    out.calls
        .iter()
        .filter(|c| c.call.label() == label)
        .map(|c| (&c.peer, &c.req))
        .collect()
}

fn get(engine: &mut ServerEngine, path: &str, now: u64) -> Response {
    engine
        .handle_request(&Request::get(path), now)
        .into_response()
        .expect("expected a direct response")
}

/// Drive enough traffic and a tick that the home decides to migrate.
/// Returns the (doc, coop) pairs migrated.
fn force_migration(home: &mut ServerEngine, now: u64) -> Vec<(String, ServerId)> {
    home.add_peer(coop_id());
    for _ in 0..80 {
        get(home, "/d.html", now - 1000);
    }
    home.tick(now).migrated
}

#[test]
fn serves_published_documents() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let r = get(&mut home, "/index.html", 0);
    assert_eq!(r.status, StatusCode::Ok);
    assert!(String::from_utf8_lossy(&r.body).contains("/d.html"));
    assert_eq!(r.headers.get("Content-Type"), Some("text/html"));

    let r = get(&mut home, "/i.gif", 0);
    assert_eq!(r.status, StatusCode::Ok);
    assert_eq!(r.body, vec![0xAB; 64]);
}

#[test]
fn unknown_document_is_404() {
    let mut home = make_home(ServerConfig::paper_defaults());
    assert_eq!(get(&mut home, "/nope.html", 0).status, StatusCode::NotFound);
    assert_eq!(home.stats().not_found, 1);
}

#[test]
fn malformed_target_is_400() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let r = home
        .handle_request(&Request::get("no-leading-slash"), 0)
        .into_response()
        .unwrap();
    assert_eq!(r.status, StatusCode::BadRequest);
}

#[test]
fn ldg_built_from_published_html() {
    let home = make_home(ServerConfig::paper_defaults());
    let idx = home.ldg().get("/index.html").unwrap();
    assert!(idx.entry_point);
    assert_eq!(idx.link_to.len(), 3, "two anchors + one image");
    let d = home.ldg().get("/d.html").unwrap();
    assert_eq!(d.link_to, vec!["/e.html".to_string()]);
    let e = home.ldg().get("/e.html").unwrap();
    let mut from = e.link_from.clone();
    from.sort();
    assert_eq!(from, vec!["/d.html".to_string(), "/index.html".to_string()]);
    assert!(home.ldg().check_symmetry().is_none());
}

#[test]
fn tick_migrates_under_load() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let migrated = force_migration(&mut home, T_ST);
    assert_eq!(migrated.len(), 1);
    let (doc, coop) = &migrated[0];
    assert_eq!(doc, "/d.html", "the hottest eligible doc");
    assert_eq!(coop, &coop_id());
    assert_eq!(home.stats().migrations, 1);
    assert_eq!(
        home.ldg().get("/d.html").unwrap().location,
        Location::Coop(coop_id())
    );
}

#[test]
fn no_migration_without_load() {
    let mut home = make_home(ServerConfig::paper_defaults());
    home.add_peer(coop_id());
    let out = home.tick(T_ST);
    assert!(out.migrated.is_empty(), "idle server must not migrate");
}

#[test]
fn no_migration_without_peers() {
    let mut home = make_home(ServerConfig::paper_defaults());
    for _ in 0..80 {
        get(&mut home, "/d.html", 9_000);
    }
    assert!(home.tick(T_ST).migrated.is_empty());
}

#[test]
fn migrated_doc_redirects_with_naming_convention() {
    let mut home = make_home(ServerConfig::paper_defaults());
    force_migration(&mut home, T_ST);
    let r = get(&mut home, "/d.html", T_ST + 1);
    assert_eq!(r.status, StatusCode::MovedPermanently);
    assert_eq!(
        r.headers.get("Location"),
        Some("http://coop1:8001/~migrate/home/8000/d.html")
    );
    assert_eq!(home.stats().redirects, 1);
}

#[test]
fn dirty_sources_regenerate_with_rewritten_links() {
    let mut home = make_home(ServerConfig::paper_defaults());
    force_migration(&mut home, T_ST);
    // /index.html links to /d.html → dirty → regenerated on next request.
    assert!(home.ldg().get("/index.html").unwrap().dirty);
    let r = get(&mut home, "/index.html", T_ST + 1);
    let body = String::from_utf8_lossy(&r.body).into_owned();
    assert!(
        body.contains(r#"href="http://coop1:8001/~migrate/home/8000/d.html""#),
        "rewritten: {body}"
    );
    assert!(
        body.contains(r#"href="/e.html""#),
        "unmigrated link untouched"
    );
    assert!(!home.ldg().get("/index.html").unwrap().dirty);
    assert_eq!(home.stats().regenerations, 1);
    // Second request serves the cached regeneration.
    get(&mut home, "/index.html", T_ST + 2);
    assert_eq!(home.stats().regenerations, 1);
}

#[test]
fn lazy_pull_flow_end_to_end() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let mut coop = make_coop();
    force_migration(&mut home, T_ST);
    let now = T_ST + 5;

    // Client follows the redirect to the co-op, which misses.
    let migrate_path = "/~migrate/home/8000/d.html";
    let outcome = coop.handle_request(&Request::get(migrate_path), now);
    let Outcome::FetchNeeded { home: h, path } = outcome else {
        panic!("expected FetchNeeded");
    };
    assert_eq!(h, home_id());
    assert_eq!(path, "/d.html");

    // Co-op pulls from home.
    let pull = coop.make_pull_request(&path, now);
    let pull_resp = home.handle_request(&pull, now).into_response().unwrap();
    assert_eq!(pull_resp.status, StatusCode::Ok);
    assert_eq!(home.stats().pulls_served, 1);
    // Pulled content has absolute links (it will be served from the coop).
    let body = String::from_utf8_lossy(&pull_resp.body).into_owned();
    assert!(body.contains(r#"href="http://home:8000/e.html""#), "{body}");

    assert!(coop.store_pulled(&h, &path, &pull_resp, now));
    assert_eq!(coop.coop_doc_count(), 1);

    // Retry now serves from the co-op copy.
    let r = coop
        .handle_request(&Request::get(migrate_path), now + 1)
        .into_response()
        .unwrap();
    assert_eq!(r.status, StatusCode::Ok);
    assert_eq!(r.body, pull_resp.body);
    assert_eq!(coop.stats().served_coop, 1);

    // Subsequent requests hit the local copy directly.
    let r2 = coop
        .handle_request(&Request::get(migrate_path), now + 2)
        .into_response()
        .unwrap();
    assert_eq!(r2.status, StatusCode::Ok);
}

#[test]
fn piggyback_gossip_updates_glt() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let mut coop = make_coop();
    force_migration(&mut home, T_ST);
    // Co-op pulls; home's response carries piggybacked load reports.
    let pull = coop.make_pull_request("/d.html", T_ST + 5);
    // The pull request itself carries coop's (zero) load to home.
    let resp = home
        .handle_request(&pull, T_ST + 5)
        .into_response()
        .unwrap();
    assert!(
        home.glt().get(&coop_id()).is_some(),
        "home learned of coop via request"
    );
    coop.store_pulled(&home_id(), "/d.html", &resp, T_ST + 5);
    let info = coop
        .glt()
        .get(&home_id())
        .expect("coop learned home's load");
    assert!(info.cps > 0.0, "home was busy: {}", info.cps);
}

#[test]
fn validation_not_modified_when_fresh() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let mut coop = make_coop();
    force_migration(&mut home, T_ST);
    let now = T_ST + 5;
    let pull = coop.make_pull_request("/d.html", now);
    let resp = home.handle_request(&pull, now).into_response().unwrap();
    coop.store_pulled(&home_id(), "/d.html", &resp, now);

    // T_val later, the co-op's tick emits a validation.
    let later = now + T_VAL;
    let out = coop.tick(later);
    assert_eq!(sent(&out, "validate").len(), 1);
    let (to, req) = sent(&out, "validate")[0];
    assert_eq!(to, &home_id());
    let vresp = home.handle_request(req, later).into_response().unwrap();
    assert_eq!(vresp.status, StatusCode::NotModified);
    coop.handle_validation_response(&home_id(), "/d.html", &vresp, later);
    // No duplicate validation until another T_val passes.
    assert!(sent(&coop.tick(later + 1000), "validate").is_empty());
}

#[test]
fn validation_refreshes_after_author_update() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let mut coop = make_coop();
    force_migration(&mut home, T_ST);
    let now = T_ST + 5;
    let pull = coop.make_pull_request("/d.html", now);
    let resp = home.handle_request(&pull, now).into_response().unwrap();
    coop.store_pulled(&home_id(), "/d.html", &resp, now);

    // Author edits the document on the home server (§4.5 case 1).
    home.publish(
        "/d.html",
        b"<html><body>doc D version 2</body></html>".to_vec(),
        DocKind::Html,
        false,
    );
    // It must stay migrated.
    assert!(!home.ldg().get("/d.html").unwrap().location.is_home());

    let later = now + T_VAL;
    let out = coop.tick(later);
    let (_, req) = sent(&out, "validate")[0];
    let vresp = home.handle_request(req, later).into_response().unwrap();
    assert_eq!(vresp.status, StatusCode::Ok);
    coop.handle_validation_response(&home_id(), "/d.html", &vresp, later);

    let r = coop
        .handle_request(&Request::get("/~migrate/home/8000/d.html"), later + 1)
        .into_response()
        .unwrap();
    assert!(String::from_utf8_lossy(&r.body).contains("version 2"));
}

#[test]
fn revocation_via_validation_then_redirect_home() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let mut coop = make_coop();
    force_migration(&mut home, T_ST);
    let now = T_ST + 5;
    let pull = coop.make_pull_request("/d.html", now);
    let resp = home.handle_request(&pull, now).into_response().unwrap();
    coop.store_pulled(&home_id(), "/d.html", &resp, now);

    // Home declares the co-op dead (simulating recall) — or any revocation
    // path; here we use peer death which recalls documents.
    let recalled = home.declare_peer_dead(&coop_id());
    assert_eq!(recalled, vec!["/d.html".to_string()]);
    assert!(home.ldg().get("/d.html").unwrap().location.is_home());
    assert_eq!(home.stats().revocations, 1);

    // The co-op validates; home answers with a revocation notice.
    let later = now + T_VAL;
    let out = coop.tick(later);
    let (_, req) = sent(&out, "validate")[0];
    let vresp = home.handle_request(req, later).into_response().unwrap();
    assert_eq!(vresp.status, StatusCode::Ok);
    assert!(vresp.headers.contains("X-DCWS-Revoked"));
    coop.handle_validation_response(&home_id(), "/d.html", &vresp, later);

    // A stale ~migrate URL triggers a re-check with the home, whose 301
    // answer is remembered as a moved-tombstone and relayed.
    let Outcome::FetchNeeded { home: h, path } =
        coop.handle_request(&Request::get("/~migrate/home/8000/d.html"), later + 1)
    else {
        panic!("revoked copy must be re-checked with the home");
    };
    let pull = coop.make_pull_request(&path, later + 1);
    let pull_resp = home
        .handle_request(&pull, later + 1)
        .into_response()
        .unwrap();
    assert_eq!(pull_resp.status, StatusCode::MovedPermanently);
    assert_eq!(
        pull_resp.headers.get("Location"),
        Some("http://home:8000/d.html")
    );
    assert!(!coop.store_pulled(&h, &path, &pull_resp, later + 1));
    coop.pull_rejected(&h, &path, &pull_resp, later + 1);

    // Subsequent requests 301 straight home from the tombstone.
    let r = coop
        .handle_request(&Request::get("/~migrate/home/8000/d.html"), later + 2)
        .into_response()
        .unwrap();
    assert_eq!(r.status, StatusCode::MovedPermanently);
    assert_eq!(r.headers.get("Location"), Some("http://home:8000/d.html"));

    // And home serves it directly again, with links restored.
    let r = get(&mut home, "/d.html", later + 2);
    assert_eq!(r.status, StatusCode::Ok);
}

#[test]
fn revocation_dirties_sources_back() {
    let mut home = make_home(ServerConfig::paper_defaults());
    force_migration(&mut home, T_ST);
    // Regenerate /index.html with the migrated link...
    let r = get(&mut home, "/index.html", T_ST + 1);
    assert!(String::from_utf8_lossy(&r.body).contains("~migrate"));
    // ...then recall and check the link is restored to the original form.
    home.declare_peer_dead(&coop_id());
    let r = get(&mut home, "/index.html", T_ST + 2);
    let body = String::from_utf8_lossy(&r.body).into_owned();
    assert!(body.contains(r#"href="/d.html""#), "restored: {body}");
    assert!(!body.contains("~migrate"));
}

#[test]
fn pinger_emits_and_dead_peer_excluded_from_targets() {
    let mut cfg = ServerConfig::paper_defaults();
    cfg.ping_failure_limit = 2;
    let mut home = make_home(cfg);
    home.add_peer(coop_id());

    // Peer info is stale (ts 0), so past T_pi the tick emits a ping.
    let out = home.tick(25_000);
    let pings = sent(&out, "ping");
    assert_eq!(pings.len(), 1);
    assert_eq!(*pings[0].0, coop_id());
    assert!(pings[0].1.headers.contains("X-DCWS-Ping"));
    assert_eq!(home.stats().pings_sent, 1);

    // Two failures → declared dead.
    assert!(home.ping_result(&coop_id(), false, None).is_empty());
    home.ping_result(&coop_id(), false, None);
    assert_eq!(home.stats().peers_declared_dead, 1);

    // Dead peers are not migration targets.
    for _ in 0..80 {
        get(&mut home, "/d.html", 29_000);
    }
    assert!(home.tick(30_000).migrated.is_empty());
}

#[test]
fn ping_response_resurrects_peer() {
    let mut cfg = ServerConfig::paper_defaults();
    cfg.ping_failure_limit = 1;
    let mut home = make_home(cfg);
    home.add_peer(coop_id());
    home.ping_result(&coop_id(), false, None);
    assert_eq!(home.stats().peers_declared_dead, 1);

    // A fresh report from the peer (via any message) resurrects it.
    let mut coop = make_coop();
    let mut req = Request::get("/index.html");
    coop.attach_reports(&mut req.headers, 50_000);
    home.handle_request(&req, 50_000);
    for _ in 0..80 {
        get(&mut home, "/d.html", 59_000);
    }
    let out = home.tick(60_000);
    assert_eq!(out.migrated.len(), 1, "resurrected peer is a target again");
}

#[test]
fn ping_request_answered_with_piggyback() {
    let mut home = make_home(ServerConfig::paper_defaults());
    get(&mut home, "/index.html", 100);
    let ping = Request::head("/").with_header("X-DCWS-Ping", "1");
    let r = home.handle_request(&ping, 200).into_response().unwrap();
    assert_eq!(r.status, StatusCode::Ok);
    assert!(r.headers.get("X-DCWS-Load").is_some());
}

#[test]
fn t_coop_rate_limits_migrations_to_same_coop() {
    let mut home = make_home(ServerConfig::paper_defaults());
    home.add_peer(coop_id());
    for _ in 0..200 {
        get(&mut home, "/d.html", 9_000);
        get(&mut home, "/e.html", 9_000);
    }
    assert_eq!(home.tick(T_ST).migrated.len(), 1);
    // 10 s later the home may migrate again, but the only co-op is inside
    // its 60 s window → nothing happens.
    for _ in 0..200 {
        get(&mut home, "/e.html", 19_000);
    }
    assert!(home.tick(2 * T_ST).migrated.is_empty());
    // After T_coop expires the next migration goes through.
    for _ in 0..200 {
        get(&mut home, "/e.html", 74_000);
    }
    let out = home.tick(80_000);
    assert_eq!(out.migrated.len(), 1);
}

#[test]
fn second_coop_allows_back_to_back_migrations() {
    let mut home = make_home(ServerConfig::paper_defaults());
    home.add_peer(coop_id());
    home.add_peer(ServerId::new("coop2:8002"));
    for _ in 0..200 {
        get(&mut home, "/d.html", 9_000);
        get(&mut home, "/e.html", 9_000);
    }
    let first = home.tick(T_ST).migrated;
    assert_eq!(first.len(), 1);
    for _ in 0..200 {
        get(&mut home, "/e.html", 19_000);
    }
    let second = home.tick(2 * T_ST).migrated;
    assert_eq!(second.len(), 1);
    assert_ne!(first[0].1, second[0].1, "different co-ops");
}

#[test]
fn eager_migration_pushes_content() {
    let mut cfg = ServerConfig::paper_defaults();
    cfg.eager_migration = true;
    let mut home = make_home(cfg);
    let mut coop = make_coop();
    home.add_peer(coop_id());
    for _ in 0..80 {
        get(&mut home, "/d.html", 9_000);
    }
    let out = home.tick(T_ST);
    assert_eq!(out.migrated.len(), 1);
    assert_eq!(sent(&out, "push").len(), 1);
    let (to, push) = sent(&out, "push")[0];
    assert_eq!(to, &coop_id());
    let r = coop.handle_request(push, T_ST).into_response().unwrap();
    assert_eq!(r.status, StatusCode::Ok);
    // No FetchNeeded: content is already there.
    let r = coop
        .handle_request(&Request::get("/~migrate/home/8000/d.html"), T_ST + 1)
        .into_response()
        .expect("push made the copy available");
    assert_eq!(r.status, StatusCode::Ok);
    assert!(String::from_utf8_lossy(&r.body).contains("doc D"));
}

#[test]
fn hot_replication_creates_replicas() {
    let mut cfg = ServerConfig::paper_defaults();
    cfg.hot_replication = Some(dcws_core::HotReplication {
        hot_fraction: 0.5,
        max_replicas: 3,
    });
    let mut home = make_home(cfg);
    home.add_peer(ServerId::new("c1:1"));
    home.add_peer(ServerId::new("c2:1"));
    home.add_peer(ServerId::new("c3:1"));
    // /d.html draws nearly all traffic → hot.
    for _ in 0..300 {
        get(&mut home, "/d.html", 9_000);
    }
    let out = home.tick(T_ST);
    // One primary migration plus replicas, all for /d.html.
    assert!(out.migrated.len() >= 2, "migrated: {:?}", out.migrated);
    assert!(out.migrated.iter().all(|(d, _)| d == "/d.html"));
    let coops: std::collections::HashSet<_> = out.migrated.iter().map(|(_, c)| c.clone()).collect();
    assert_eq!(coops.len(), out.migrated.len(), "distinct replica targets");
    assert!(home.stats().replicas_created >= 1);
}

#[test]
fn versions_stable_for_clean_serves() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let v0 = home.doc_version("/index.html");
    get(&mut home, "/index.html", 0);
    get(&mut home, "/index.html", 1);
    assert_eq!(home.doc_version("/index.html"), v0);
    home.publish("/index.html", b"<p>new</p>".to_vec(), DocKind::Html, true);
    assert!(home.doc_version("/index.html") > v0);
}

#[test]
fn head_request_keeps_engine_behaviour() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let r = home
        .handle_request(&Request::head("/index.html"), 0)
        .into_response()
        .unwrap();
    // Engine produces the full response; the transport strips the body for
    // HEAD per RFC 2616.
    assert_eq!(r.status, StatusCode::Ok);
    assert!(!r.body.is_empty());
    let wire = r.to_bytes_for(true);
    assert!(!wire.ends_with(b"</html>"));
}

#[test]
fn hits_recorded_and_rotated_by_tick() {
    let mut home = make_home(ServerConfig::paper_defaults());
    for _ in 0..5 {
        get(&mut home, "/e.html", 500);
    }
    assert_eq!(home.ldg().get("/e.html").unwrap().hits, 0);
    home.tick(T_ST);
    assert_eq!(home.ldg().get("/e.html").unwrap().hits, 5);
}

#[test]
fn stats_counters_consistent() {
    let mut home = make_home(ServerConfig::paper_defaults());
    get(&mut home, "/index.html", 0);
    get(&mut home, "/nope.html", 1);
    home.handle_request(&Request::get("bad"), 2);
    let s = home.stats();
    assert_eq!(s.requests, 3);
    assert_eq!(s.served_home, 1);
    assert_eq!(s.not_found, 1);
    assert_eq!(s.bad_requests, 1);
    assert!(s.bytes_sent > 0);
}

#[test]
fn dirty_migrated_doc_refreshes_once_then_converges() {
    // Regression for double regeneration: the Dirty bit used to be
    // checked (and the version bumped) in more than one serving path.
    // A migrated document whose links went stale must settle exactly
    // once — one version bump, one refresh — after which validation
    // answers 304 forever.
    let mut home = make_home(ServerConfig::paper_defaults());
    let mut coop = make_coop();
    force_migration(&mut home, T_ST); // /d.html -> coop1
    let now = T_ST + 5;
    let pull = coop.make_pull_request("/d.html", now);
    let resp = home.handle_request(&pull, now).into_response().unwrap();
    assert!(coop.store_pulled(&home_id(), "/d.html", &resp, now));

    // Migrate /e.html to a second co-op: /d.html links to it, so the
    // copy shipped to coop1 now carries stale hyperlinks and /d.html's
    // Dirty bit is set while it is migrated.
    home.add_peer(ServerId::new("coop2:8002"));
    for _ in 0..200 {
        get(&mut home, "/e.html", 19_000);
    }
    let out = home.tick(2 * T_ST);
    assert!(out.migrated.iter().any(|(d, _)| d == "/e.html"));
    assert!(home.ldg().get("/d.html").unwrap().dirty);
    let regen_before = home.stats().regenerations;

    // First validation: the Dirty bit settles exactly once and the
    // version mismatch refreshes the co-op copy.
    let later = now + T_VAL;
    let out = coop.tick(later);
    assert_eq!(sent(&out, "validate").len(), 1);
    let (_, req) = sent(&out, "validate")[0];
    let vresp = home.handle_request(req, later).into_response().unwrap();
    assert_eq!(vresp.status, StatusCode::Ok);
    let v1 = home.doc_version("/d.html");
    coop.handle_validation_response(&home_id(), "/d.html", &vresp, later);
    assert_eq!(home.stats().regenerations, regen_before + 1);

    // Second round: versions converged — a 304, no new regeneration,
    // no further version bump.
    let later2 = later + T_VAL + T_VAL / 4 + 1;
    let out = coop.tick(later2);
    assert_eq!(sent(&out, "validate").len(), 1);
    let (_, req) = sent(&out, "validate")[0];
    assert!(
        req.headers.get("If-Modified-Since").is_some(),
        "validation carries a conditional-GET date"
    );
    let vresp = home.handle_request(req, later2).into_response().unwrap();
    assert_eq!(vresp.status, StatusCode::NotModified, "fresh copy must 304");
    assert!(vresp.body.is_empty(), "304 ships zero body bytes");
    assert_eq!(home.doc_version("/d.html"), v1);
    assert_eq!(home.stats().regenerations, regen_before + 1);
}

#[test]
fn conditional_get_answers_304_with_zero_body() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let r = get(&mut home, "/e.html", 5_000);
    let last_modified = r
        .headers
        .get("Last-Modified")
        .expect("200 carries Last-Modified")
        .to_string();
    let req = Request::get("/e.html").with_header("If-Modified-Since", last_modified.clone());
    let r = home.handle_request(&req, 6_000).into_response().unwrap();
    assert_eq!(r.status, StatusCode::NotModified);
    assert!(r.body.is_empty());
    assert_eq!(home.stats().conditional_not_modified, 1);

    // Republishing moves Last-Modified forward; the same conditional
    // now gets fresh content.
    home.publish("/e.html", b"<p>v2</p>".to_vec(), DocKind::Html, false);
    let r = home.handle_request(&req, 9_000).into_response().unwrap();
    assert_eq!(r.status, StatusCode::Ok, "stale validator gets the body");
}

#[test]
fn eight_concurrent_misses_coalesce_to_one_pull() {
    use dcws_core::{Front, Settled, Step, Waiter};
    use std::sync::mpsc::{channel, Sender};
    use std::sync::{Arc, Barrier, Mutex};

    /// A thread's request and where its answer goes.
    struct Asker(Request, Sender<Response>);
    impl Waiter for Asker {
        fn request(&self) -> std::borrow::Cow<'_, Request> {
            std::borrow::Cow::Borrowed(&self.0)
        }
    }

    const THREADS: usize = 8;
    let mut home = make_home(ServerConfig::paper_defaults());
    force_migration(&mut home, T_ST);
    let now = T_ST + 5;

    let home = Arc::new(Mutex::new(home));
    // The co-op and its front under one lock, as a host keeps them: a
    // miss and its parking are one step.
    let coop = Arc::new(Mutex::new((make_coop(), Front::<Asker>::default())));
    let barrier = Arc::new(Barrier::new(THREADS));
    let migrate_path = "/~migrate/home/8000/d.html";

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let home = Arc::clone(&home);
            let coop = Arc::clone(&coop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let (tx, rx) = channel();
                barrier.wait();
                let asker = Asker(Request::get(migrate_path), tx);
                let step = {
                    let (engine, front) = &mut *coop.lock().unwrap();
                    front.serve(engine, asker, now)
                };
                match step {
                    Step::Answer(Asker(_, tx), answer) => {
                        tx.send(answer.into_response().unwrap()).unwrap()
                    }
                    Step::Parked => {}
                    Step::Pull(pull) => {
                        // Hold the pull open so the other threads arrive
                        // while it is in flight.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        let resp = home
                            .lock()
                            .unwrap()
                            .handle_request(&pull.req, now)
                            .into_response()
                            .unwrap();
                        // The leader answers every waiter, itself included.
                        let (engine, front) = &mut *coop.lock().unwrap();
                        for s in front.answered(engine, &pull.peer, &pull.call, Some(&resp), now) {
                            let Settled::Copy(asker, copy) = s else {
                                panic!("pull must succeed");
                            };
                            let (Asker(_, tx), resp) = front.serve_copy(engine, asker, &copy, now);
                            tx.send(resp).unwrap();
                        }
                    }
                }
                rx.recv().unwrap()
            })
        })
        .collect();

    for h in handles {
        let r = h.join().unwrap();
        assert_eq!(r.status, StatusCode::Ok);
        assert!(String::from_utf8_lossy(&r.body).contains("doc D"));
    }
    assert_eq!(
        home.lock().unwrap().stats().pulls_served,
        1,
        "8 concurrent misses must produce exactly one pull"
    );
    let (coop, front) = &*coop.lock().unwrap();
    assert_eq!(
        coop.coop_cache().stats().coalesced_waits,
        THREADS as u64 - 1
    );
    assert_eq!(front.flights().led, 1);
}

#[test]
fn oversize_pulled_doc_is_served_from_the_pulled_copy() {
    // A pulled document larger than the co-op cache's budget slice is
    // refused by the cache, but the pull still answers its requester from
    // the copy it brought in; the next miss pulls again.
    use dcws_core::{Front, Settled, Step, Waiter};

    struct Get(Request);
    impl Waiter for Get {
        fn request(&self) -> std::borrow::Cow<'_, Request> {
            std::borrow::Cow::Borrowed(&self.0)
        }
    }

    let mut home = make_home(ServerConfig::paper_defaults());
    let mut cfg = ServerConfig::paper_defaults();
    cfg.cache_budget_bytes = 64; // far below any document body
    let mut coop = ServerEngine::new(coop_id(), cfg, Box::new(MemStore::new()));
    force_migration(&mut home, T_ST);
    let now = T_ST + 5;

    let migrate_path = "/~migrate/home/8000/d.html";
    let mut front = Front::default();
    let Step::Pull(pull) = front.serve(&mut coop, Get(Request::get(migrate_path)), now) else {
        panic!("expected a pull");
    };
    let resp = home.handle_request(&pull.req, now).into_response().unwrap();
    let mut settled = front.answered(&mut coop, &pull.peer, &pull.call, Some(&resp), now);
    assert_eq!(coop.coop_cache().stats().oversize_rejects, 1);
    assert_eq!(coop.coop_doc_count(), 0);

    // The requester is answered from the copy...
    let Some(Settled::Copy(get, copy)) = settled.pop() else {
        panic!("a stored pull hands its requester the copy");
    };
    let (_, r) = front.serve_copy(&mut coop, get, &copy, now + 1);
    assert_eq!(r.status, StatusCode::Ok);
    assert_eq!(r.body, resp.body);
    // ...and the next miss pulls again.
    assert!(matches!(
        coop.handle_request(&Request::get(migrate_path), now + 2),
        Outcome::FetchNeeded { .. }
    ));
}

/// Pull a copy of /d.html into `coop`, returning the pull response.
fn pull_d(home: &mut ServerEngine, coop: &mut ServerEngine, now: u64) -> Response {
    let pull = coop.make_pull_request("/d.html", now);
    let resp = home.handle_request(&pull, now).into_response().unwrap();
    assert!(coop.store_pulled(&home_id(), "/d.html", &resp, now));
    resp
}

fn coop_entry_stale(coop: &ServerEngine) -> bool {
    coop.coop_cache()
        .entries_meta()
        .iter()
        .find(|(k, _)| k.ends_with("/d.html"))
        .expect("copy present")
        .1
        .stale
}

#[test]
fn failed_validation_marks_stale_then_success_clears_it() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let mut coop = make_coop();
    force_migration(&mut home, T_ST);
    let now = T_ST + 5;
    pull_d(&mut home, &mut coop, now);
    assert!(!coop_entry_stale(&coop));

    // T_val expires but the home is unreachable: the copy is marked
    // stale and kept, never discarded.
    let later = now + T_VAL;
    let out = coop.tick(later);
    assert_eq!(sent(&out, "validate").len(), 1);
    coop.validation_failed(&home_id(), "/d.html", later);
    assert_eq!(coop.stats().validation_failures, 1);
    assert!(coop_entry_stale(&coop));

    // Serving the stale copy still works — and is counted.
    let before = coop.stats().stale_serves;
    let r = get(&mut coop, "/~migrate/home/8000/d.html", later + 1);
    assert_eq!(r.status, StatusCode::Ok);
    assert!(String::from_utf8_lossy(&r.body).contains("doc D"));
    assert_eq!(coop.stats().stale_serves, before + 1);

    // The home comes back; a 304 revalidation clears the stale mark.
    let again = later + T_VAL + 1;
    let out = coop.tick(again);
    assert_eq!(sent(&out, "validate").len(), 1);
    let (_, vreq) = sent(&out, "validate")[0];
    let vresp = home.handle_request(vreq, again).into_response().unwrap();
    assert_eq!(vresp.status, StatusCode::NotModified);
    coop.handle_validation_response(&home_id(), "/d.html", &vresp, again);
    assert!(!coop_entry_stale(&coop));
    let before = coop.stats().stale_serves;
    let r = get(&mut coop, "/~migrate/home/8000/d.html", again + 1);
    assert_eq!(r.status, StatusCode::Ok);
    assert_eq!(
        coop.stats().stale_serves,
        before,
        "fresh serve not counted stale"
    );
}

#[test]
fn pull_failure_degrades_to_stale_copy() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let mut coop = make_coop();
    force_migration(&mut home, T_ST);
    let now = T_ST + 5;

    // No copy at all: nothing to degrade to.
    assert!(coop.note_pull_failure(&home_id(), "/d.html", now).is_none());
    assert_eq!(coop.stats().pull_failures, 1);

    let resp = pull_d(&mut home, &mut coop, now);

    // A later pull attempt fails (home unreachable after retries): the
    // retained copy is marked stale and handed back.
    let copy = coop
        .note_pull_failure(&home_id(), "/d.html", now + 10)
        .expect("a retained copy");
    assert_eq!(coop.stats().pull_failures, 2);
    assert!(copy.stale);
    assert!(coop_entry_stale(&coop));

    // The last rung before 503: answer from the retained copy.
    let before = coop.stats().stale_serves;
    let r = coop.serve_copy(&Request::get("/~migrate/home/8000/d.html"), &copy, now + 11);
    assert_eq!(r.status, StatusCode::Ok);
    assert_eq!(r.body, resp.body);
    assert_eq!(coop.stats().stale_serves, before + 1);
    assert!(r.headers.get("Last-Modified").is_some());
}

#[test]
fn pull_responses_carry_body_checksum() {
    let mut home = make_home(ServerConfig::paper_defaults());
    let mut coop = make_coop();
    force_migration(&mut home, T_ST);
    let now = T_ST + 5;
    let pull = coop.make_pull_request("/d.html", now);
    let resp = home.handle_request(&pull, now).into_response().unwrap();
    let sum = resp
        .headers
        .get(dcws_http::CHECKSUM_HEADER)
        .expect("pull response must carry a checksum");
    assert!(dcws_http::checksum_matches(&resp.body, sum));
}

#[test]
fn garbled_push_body_is_rejected_with_400() {
    let mut cfg = ServerConfig::paper_defaults();
    cfg.eager_migration = true;
    let mut home = make_home(cfg);
    let mut coop = make_coop();
    home.add_peer(coop_id());
    for _ in 0..80 {
        get(&mut home, "/d.html", 9_000);
    }
    let out = home.tick(T_ST);
    assert_eq!(sent(&out, "push").len(), 1);
    let (_, push) = sent(&out, "push")[0];
    assert!(push.headers.get(dcws_http::CHECKSUM_HEADER).is_some());

    // A single bit flipped in transit: the co-op must refuse to install
    // the corrupt body.
    let mut garbled = push.clone();
    let mut bytes = garbled.body.to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    garbled.body = bytes.into();
    let r = coop.handle_request(&garbled, T_ST).into_response().unwrap();
    assert_eq!(r.status, StatusCode::BadRequest);
    assert_eq!(coop.coop_doc_count(), 0, "corrupt copy must not install");
    assert_eq!(coop.stats().bad_requests, 1);

    // The untampered push still lands.
    let r = coop.handle_request(push, T_ST + 1).into_response().unwrap();
    assert_eq!(r.status, StatusCode::Ok);
    assert_eq!(coop.coop_doc_count(), 1);
}

/// What the home side's one store must keep, and what it must drop, for
/// the regeneration count — and every digest that pins it — to hold.
mod one_store {
    use super::*;

    const A: &str = "/a.html";
    const B: &str = "/b.html";

    /// A home where `/a.html` links to `/b.html`, with `/b.html` on the
    /// co-op `coop1:8001`: `/a.html` is dirty, so its first serve or pull
    /// regenerates it.
    fn home() -> ServerEngine {
        let mut e = ServerEngine::new(
            home_id(),
            ServerConfig::paper_defaults(),
            Box::new(MemStore::new()),
        );
        let page = br#"<html><body><a href="/b.html">B</a> page A</body></html>"#;
        e.publish(A, page.to_vec(), DocKind::Html, true);
        e.publish(B, b"<html>B</html>".to_vec(), DocKind::Html, false);
        assert_eq!(e.restore_migrations(&format!("{B}\t{}\n", coop_id()), 0), 1);
        e
    }

    fn get(e: &mut ServerEngine, now: u64) -> Response {
        e.handle_request(&Request::get(A), now)
            .into_response()
            .unwrap()
    }

    fn pull(e: &mut ServerEngine, coop: &str, now: u64) -> Response {
        let req = Request::get(A)
            .with_header("X-DCWS-Pull", "1")
            .with_header("X-DCWS-Coop", coop.to_string());
        let resp = e.handle_request(&req, now).into_response().unwrap();
        assert_eq!(resp.status, StatusCode::Ok, "a pull from {coop}");
        resp
    }

    #[test]
    fn a_migrated_then_revoked_rewritten_page_comes_home_without_regenerating() {
        let mut e = home();
        let rewritten = get(&mut e, 1);
        assert!(rewritten.body.windows(8).any(|w| w == b"~migrate"));
        assert_eq!(e.regenerations(), 1);
        // `/a.html` itself moves to a second co-op, and is revoked home.
        assert_eq!(e.restore_migrations(&format!("{A}\tcoop2:8002\n"), 2), 1);
        assert_eq!(get(&mut e, 3).status, StatusCode::MovedPermanently);
        e.declare_peer_dead(&ServerId::new("coop2:8002"));
        let again = get(&mut e, 4);
        assert_eq!(
            (again.status, &again.body),
            (StatusCode::Ok, &rewritten.body)
        );
        assert_eq!(e.regenerations(), 1, "the home variant was kept");
    }

    #[test]
    fn two_coops_pulling_one_version_cost_one_regeneration() {
        let mut e = home();
        let replicas = format!("{A}\tcoop2:8002\n{A}\tcoop3:8003\n");
        assert_eq!(e.restore_migrations(&replicas, 1), 1);
        let first = pull(&mut e, "coop2:8002", 2);
        let second = pull(&mut e, "coop3:8003", 3);
        assert_eq!(first.body, second.body);
        assert_eq!(
            first.headers.get("X-DCWS-Version"),
            second.headers.get("X-DCWS-Version")
        );
        assert_eq!(e.regenerations(), 1, "the pull variant was kept");
    }

    #[test]
    fn a_republish_or_a_dirty_settle_drops_both_variants() {
        // `/a.html` holds both variants: served at home, then migrated and
        // pulled. It is the store's only entry, so the store's residency
        // is that entry's.
        let setup = || {
            let mut e = home();
            let home_len = get(&mut e, 1).body.len() as u64;
            assert_eq!(e.restore_migrations(&format!("{A}\tcoop2:8002\n"), 2), 1);
            let pull_len = pull(&mut e, "coop2:8002", 3).body.len() as u64;
            assert_eq!(e.regenerations(), 2);
            let store = e.read_path().table().stats();
            assert_eq!(store.entries, 1);
            assert!(store.bytes_resident > home_len + pull_len);
            (e, pull_len)
        };

        let (mut e, _) = setup();
        let page = get(&mut e, 4);
        assert_eq!(page.status, StatusCode::MovedPermanently);
        e.publish(A, b"<html>A, again</html>".to_vec(), DocKind::Html, true);
        let store = e.read_path().table().stats();
        assert_eq!((store.entries, store.bytes_resident), (0, 0));

        // `/b.html` comes home, which dirties `/a.html`; the co-op's next
        // pull settles it — a new version, so a new regeneration, kept
        // alone: the home variant of the old version went with the rest.
        let (mut e, _) = setup();
        e.declare_peer_dead(&coop_id());
        let pull_len = pull(&mut e, "coop2:8002", 4).body.len() as u64;
        assert_eq!(e.regenerations(), 3);
        let store = e.read_path().table().stats();
        assert_eq!(store.entries, 1);
        assert!(
            store.bytes_resident < A.len() as u64 + 128 + pull_len,
            "{} bytes resident for one {pull_len}-byte variant",
            store.bytes_resident
        );
    }
}
