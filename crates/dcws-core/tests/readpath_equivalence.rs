//! The simulator's server model against the exclusive path it replaced.
//!
//! A simulated server answers a client `GET` the way the TCP reactor
//! does: the read path first ([`ReadPath::serve_parts`]), with the traffic
//! it served folded into the rate window at the serve's own time
//! ([`ServerEngine::fold_read_traffic`]), and `handle_request` only for
//! what the read path declines. Before, every `GET` went to
//! `handle_request`. This suite walks two copies of one LOD site — a home
//! and a co-op each — through the same seeded sequence of client `GET`s,
//! redirects, lazy pulls, pings, validations, ticks and a co-op declared
//! dead, one copy the old way and one the new, and requires every answer
//! to be the same bytes on the wire, every tick to make the same
//! decisions, every engine event to carry the same time, and both copies
//! to end with the same counters, LDG hits, self GLT row and load reports.
//!
//! [`ReadPath::serve_parts`]: dcws_core::ReadPath::serve_parts

use dcws_core::{Call, MemStore, Outbound, Outcome, Served, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::{Headers, Method, Request, StatusCode, Url, PIGGYBACK_HEADER};
use dcws_workloads::{materialize::materialize, Dataset, PageKind};

const HOME: &str = "s0:80";
const COOP: &str = "s1:80";

/// A home and its one co-op, migrating often: the statistics tick and the
/// per-co-op spacing are a second, validation every five.
fn site(dataset: &Dataset) -> [ServerEngine; 2] {
    let cfg = ServerConfig {
        stat_interval_ms: 1_000,
        coop_migration_interval_ms: 1_000,
        validation_interval_ms: 5_000,
        pinger_interval_ms: 2_000,
        selection_threshold: 1,
        ..ServerConfig::paper_defaults()
    };
    let mut site = [HOME, COOP].map(|id| {
        let mut e = ServerEngine::new(ServerId::new(id), cfg.clone(), Box::new(MemStore::new()));
        e.add_peer(ServerId::new(HOME));
        e.add_peer(ServerId::new(COOP));
        e
    });
    for doc in &dataset.docs {
        let kind = match doc.kind {
            PageKind::Html => DocKind::Html,
            PageKind::Image => DocKind::Image,
        };
        site[0].publish(&doc.name, materialize(doc), kind, doc.entry_point);
    }
    site
}

fn index(id: &ServerId) -> usize {
    usize::from(id.as_str() == COOP)
}

/// One server's answer to a plain client `GET path` at `now`, in wire
/// form, or the pull it needs first. `read_first` takes the simulator's
/// order; otherwise every request goes to `handle_request`.
fn serve(e: &mut ServerEngine, path: &str, now: u64, read_first: bool) -> Result<Served, String> {
    if read_first {
        if let Some(served) = e
            .read_path()
            .serve_parts(Method::Get, path, std::iter::empty())
        {
            e.fold_read_traffic(now);
            return Ok(served);
        }
    }
    match e.handle_request(&Request::get(path), now) {
        Outcome::FetchNeeded { home, path } => {
            assert_eq!(home.as_str(), HOME);
            Err(path)
        }
        out => Ok(Served::from_response(out.into_response().unwrap())),
    }
}

/// A client's `GET path` from the home, following redirects and pulling
/// on a co-op miss, as the simulator does; every answer on the way, the
/// pulls' (whose piggybacked load reports read the rate window) included.
fn walk(site: &mut [ServerEngine; 2], path: &str, now: u64, read_first: bool) -> Vec<Served> {
    let (mut at, mut path) = (0, path.to_string());
    let mut answers = Vec::new();
    for _ in 0..4 {
        let served = match serve(&mut site[at], &path, now, read_first) {
            Ok(served) => served,
            Err(home_path) => {
                let pull = site[at].make_pull_request(&home_path, now);
                let resp = site[0].handle_request(&pull, now).into_response().unwrap();
                answers.push(Served::from_response(resp.clone()));
                let home = ServerId::new(HOME);
                if site[at].store_pulled(&home, &home_path, &resp, now) {
                    serve(&mut site[at], &path, now, read_first).expect("pulled copy serves")
                } else {
                    site[at].pull_rejected(&home, &home_path, &resp, now);
                    Served::from_response(resp)
                }
            }
        };
        let next = (served.status() == StatusCode::MovedPermanently)
            .then(|| Url::parse(served.header("Location").unwrap()).unwrap());
        answers.push(served);
        let Some(loc) = next else { break };
        at = index(&ServerId::new(format!(
            "{}:{}",
            loc.host().unwrap(),
            loc.port()
        )));
        path = loc.path().to_string();
    }
    answers
}

/// The events both servers logged since the last call, with the engine
/// clock that stamped each.
fn events(site: &mut [ServerEngine; 2]) -> Vec<String> {
    site.iter_mut()
        .flat_map(|e| e.drain_events())
        .map(|r| format!("{} {:?}", r.t_ms, r.event))
        .collect()
}

/// Tick both servers and deliver what the ticks sent; the decisions made
/// and the events logged, for comparison.
fn tick(site: &mut [ServerEngine; 2], now: u64) -> Vec<String> {
    let mut decisions = events(site);
    for i in 0..2 {
        let out = site[i].tick(now);
        decisions.push(format!("{i} {:?} {:?}", out.migrated, out.revoked));
        for Outbound { peer, call, req } in out.calls {
            match call {
                Call::Ping => {
                    let resp = site[index(&peer)].handle_request(&req, now);
                    let resp = resp.into_response().unwrap();
                    decisions.push(format!("{i} ping {peer} {:?}", resp.headers));
                    site[i].ping_result(&peer, true, Some(&resp.headers));
                }
                Call::Validate { path } => {
                    let resp = site[index(&peer)].handle_request(&req, now);
                    let resp = resp.into_response().unwrap();
                    decisions.push(format!("{i} validate {path} {:?}", resp.status));
                    site[i].handle_validation_response(&peer, &path, &resp, now);
                }
                Call::Pull { .. } | Call::Push => {}
            }
        }
    }
    decisions
}

fn reports(e: &mut ServerEngine, now: u64) -> Vec<String> {
    let mut headers = Headers::new();
    e.attach_reports(&mut headers, now);
    headers
        .get_all(PIGGYBACK_HEADER)
        .map(str::to_string)
        .collect()
}

fn ldg_hits(e: &ServerEngine) -> Vec<(String, u64, u64)> {
    let mut hits: Vec<_> = e
        .ldg()
        .iter()
        .map(|d| (d.name.clone(), d.hits, d.hits_total))
        .collect();
    hits.sort();
    hits
}

#[test]
fn read_path_first_serves_as_the_exclusive_path_would() {
    let dataset = Dataset::lod(1);
    let names: Vec<&str> = dataset.docs.iter().map(|d| d.name.as_str()).collect();
    let mut exclusive = site(&dataset);
    let mut read_first = site(&dataset);
    // 24,000 GETs over 30 virtual seconds, a tick every 500 ms.
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..24_000u64 {
        let now = i * 30_000 / 24_000;
        if i % 400 == 0 && i > 0 {
            assert_eq!(
                tick(&mut exclusive, now),
                tick(&mut read_first, now),
                "ticks at {now} ms decided differently"
            );
        }
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let path = names[(rng % names.len() as u64) as usize];
        let want = walk(&mut exclusive, path, now, false);
        let got = walk(&mut read_first, path, now, true);
        assert_eq!(want.len(), got.len(), "GET {path} at {now} ms");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(
                String::from_utf8_lossy(&w.head),
                String::from_utf8_lossy(&g.head),
                "GET {path} at {now} ms: heads differ"
            );
            assert_eq!(w.body, g.body, "GET {path} at {now} ms: bodies differ");
        }
        if i == 12_123 {
            // The co-op is declared dead between two ticks. Its recalls
            // are stamped with the engine clock, which the read-path
            // serves before them advanced as `handle_request` would have.
            for site in [&mut exclusive, &mut read_first] {
                let coop = ServerId::new(COOP);
                for _ in 0..site[0].config().ping_failure_limit {
                    site[0].ping_result(&coop, false, None);
                }
            }
            let recalls = events(&mut exclusive);
            assert!(recalls.iter().any(|e| e.contains("MigrationRevoked")));
            assert_eq!(recalls, events(&mut read_first), "recalls at {now} ms");
        }
    }
    let end = 30_000;
    assert_eq!(tick(&mut exclusive, end), tick(&mut read_first, end));
    assert_eq!(events(&mut exclusive), events(&mut read_first));

    for i in 0..2 {
        let (a, b) = (&mut exclusive[i], &mut read_first[i]);
        assert_eq!(a.stats(), b.stats(), "server {i}: counters");
        assert_eq!(ldg_hits(a), ldg_hits(b), "server {i}: LDG hits");
        let (sa, sb) = (a.glt().self_info(), b.glt().self_info());
        assert_eq!(
            (sa.cps, sa.bps, sa.ts_ms),
            (sb.cps, sb.bps, sb.ts_ms),
            "server {i}: self GLT row"
        );
        assert_eq!(reports(a, end), reports(b, end), "server {i}: load reports");
    }

    // The comparison meant something: the site migrated, the read path
    // answered nearly everything, and the exclusive path still answered
    // what only it can (first serves, regenerations, co-op misses).
    let stats = read_first[0].stats();
    assert!(stats.migrations >= 10, "{} migrations", stats.migrations);
    assert!(stats.regenerations > 0 && stats.redirects > 0 && stats.revocations > 0);
    let served: u64 = read_first.iter().map(|e| e.stats().served_total()).sum();
    let by_read_path: u64 = read_first
        .iter()
        .map(|e| {
            let r = e.read_path().snapshot();
            r.served_home + r.served_coop
        })
        .sum();
    assert!(
        by_read_path * 10 >= served * 9,
        "read path gave {by_read_path} of {served} 200s"
    );
    assert!(read_first[0].read_path().snapshot().fallbacks > 0);
    assert!(read_first[1].read_path().snapshot().served_coop > 0);
    assert_eq!(exclusive[0].read_path().snapshot().requests, 0);
}
