//! Property test: the store's byte budget is a hard invariant, shard by
//! shard. Across arbitrary sequences of installs (a home serve primes a
//! route, regenerating a rewritten page first; a co-op's pull keeps a pull
//! variant), read-path hits, route-only drops (a migration, a revocation),
//! whole-entry drops (a republish) and re-budgets, a shard's resident cost
//! never exceeds its slice, every eviction names a document, and the
//! stream routes the read path counts are the ones it answers from.
//!
//! Every document here hashes to the store's first shard (FNV-1a of the
//! path, modulo its eight shards), so that shard's residency is the
//! store's, and the slice is an eighth of the store's budget.

use dcws_core::{EngineEvent, MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::{fnv1a, Request, RequestHead, StatusCode};
use proptest::prelude::*;

const SHARDS: u64 = 8;
const COOP: &str = "coop:81";

/// The first `n` paths `path(i)` that land in the first shard.
fn paths(n: usize, path: impl Fn(usize) -> String) -> Vec<String> {
    (0..)
        .map(path)
        .filter(|p| fnv1a(p.as_bytes()).is_multiple_of(SHARDS))
        .take(n)
        .collect()
}

/// One step, decoded from `(kind, document, size)`.
#[derive(Debug, Clone)]
enum Op {
    Serve(usize),
    Hit(usize),
    Migrate(usize),
    Revoke,
    Pull(usize),
    Republish(usize),
    SetBudget(u64),
}

fn decode((kind, doc, size): (u8, usize, u8)) -> Op {
    match kind % 7 {
        0 => Op::Serve(doc),
        1 => Op::Hit(doc),
        2 => Op::Migrate(doc),
        3 => Op::Revoke,
        4 => Op::Pull(doc),
        5 => Op::Republish(doc),
        _ => Op::SetBudget(1 << (size % 23)),
    }
}

/// A home whose pages link to its targets, beside large objects that
/// stream: a migrated target dirties every page, so their next serve or
/// pull regenerates them.
struct Site {
    engine: ServerEngine,
    docs: Vec<(String, Vec<u8>, DocKind)>,
    objects: Vec<String>,
}

impl Site {
    fn new(budget: u64) -> Site {
        let mut cfg = ServerConfig::paper_defaults();
        cfg.cache_budget_bytes = budget;
        cfg.stream_threshold_bytes = 1024;
        let mut engine =
            ServerEngine::new(ServerId::new("home:80"), cfg, Box::new(MemStore::new()));
        let targets = paths(3, |i| format!("/t{i}.html"));
        let links: String = targets
            .iter()
            .map(|t| format!("<a href=\"{t}\">{t}</a>"))
            .collect();
        let objects = paths(3, |i| format!("/s{i}.bin"));
        let mut docs = Vec::new();
        for (i, page) in paths(6, |i| format!("/p{i}.html")).into_iter().enumerate() {
            let body = format!("<html>{links}{}</html>", "x".repeat(64 << i));
            docs.push((page, body.into_bytes(), DocKind::Html));
        }
        for t in targets {
            docs.push((t, b"<html>target</html>".to_vec(), DocKind::Html));
        }
        for o in &objects {
            docs.push((o.clone(), vec![7; 2048], DocKind::Image));
        }
        for (path, body, kind) in &docs {
            engine.publish(path, body.clone(), *kind, false);
        }
        Site {
            engine,
            docs,
            objects,
        }
    }

    fn apply(&mut self, op: &Op, now: u64) {
        let e = &mut self.engine;
        let path = |doc: usize| self.docs[doc % self.docs.len()].0.as_str();
        match *op {
            Op::Serve(doc) => {
                let resp = e.handle_request(&Request::get(path(doc)), now);
                assert!(resp.into_response().is_some(), "a home serve answers");
            }
            Op::Hit(doc) => {
                let _ = e.read_path().try_serve(&Request::get(path(doc)), now);
            }
            Op::Migrate(doc) => {
                e.restore_migrations(&format!("{}\t{COOP}\n", path(doc)), now);
            }
            Op::Revoke => {
                e.declare_peer_dead(&ServerId::new(COOP));
            }
            Op::Pull(doc) => {
                let pull = Request::get(path(doc))
                    .with_header("X-DCWS-Pull", "1")
                    .with_header("X-DCWS-Coop", COOP);
                let resp = e.handle_request(&pull, now).into_response().unwrap();
                assert!(matches!(
                    resp.status,
                    StatusCode::Ok | StatusCode::MovedPermanently
                ));
            }
            Op::Republish(doc) => {
                let (path, body, kind) = &self.docs[doc % self.docs.len()];
                e.publish(path, body.clone(), *kind, false);
            }
            Op::SetBudget(bytes) => e.set_cache_budget(bytes),
        }
    }

    /// The objects the read path answers with a stream, as a front end
    /// that parsed the request in place would ask.
    fn streamed(&self) -> u64 {
        let answered = |path: &String| {
            let wire = Request::get(path.as_str()).to_bytes();
            let text = std::str::from_utf8(&wire).unwrap();
            let head = RequestHead::parse(text, wire.len()).expect("a valid request");
            matches!(self.engine.read_path().serve(&head), Some((_, Some(_))))
        };
        self.objects.iter().filter(|o| answered(o)).count() as u64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_shard_stays_within_its_slice(
        budget_bits in 0u8..23,
        raw_ops in proptest::collection::vec((0u8..7, 0usize..12, 0u8..=255), 1..150),
    ) {
        let mut site = Site::new(1 << budget_bits);
        for (now, raw) in raw_ops.into_iter().enumerate() {
            let op = decode(raw);
            site.apply(&op, now as u64);
            let store = site.engine.read_path().table().stats();
            prop_assert!(
                store.bytes_resident <= store.budget_bytes / SHARDS,
                "after {:?}: {} resident over a {}-byte slice",
                op,
                store.bytes_resident,
                store.budget_bytes / SHARDS,
            );
            for record in site.engine.drain_events() {
                if let EngineEvent::CacheEvict { cache, key, .. } = record.event {
                    prop_assert_eq!(cache, "store");
                    prop_assert!(site.docs.iter().any(|(path, ..)| *path == key), "{}", key);
                }
            }
        }
        let routes = site.engine.read_path().snapshot().stream_routes;
        prop_assert_eq!(routes, site.streamed());
    }
}
