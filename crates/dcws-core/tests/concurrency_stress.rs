//! Concurrency stress: reader threads hammer GETs through the read path
//! (falling back to the locked engine) while a mutator republishes,
//! migrates, revokes, and ticks. The invariants under test:
//!
//! * no reader ever observes a server error or a missing document;
//! * every body served is the *current or immediately-prior* version of
//!   the document at the moment of the request — the serialization
//!   guarantee of install/invalidate running under the engine's
//!   exclusive lock;
//! * counters stay coherent (folded stats never go backwards).
//!
//! Sized to finish in well under CI budget: each reader serves a fixed
//! request quota; the mutator keeps mutating until the readers finish.

use dcws_core::{MemStore, Outcome, ReadPath, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::{Request, StatusCode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const REQUESTS_PER_READER: usize = 400;
const N_READERS: usize = 4;

/// The versioned document the mutator republishes.
const VERSIONED: &str = "/versioned.html";
/// The document the mutator migrates and revokes.
const MOVING: &str = "/moving.html";
/// Stable documents the readers also hammer.
const STABLE: [&str; 3] = ["/s0.html", "/s1.html", "/s2.html"];

fn body_for(version: u64) -> Vec<u8> {
    format!("<p>v{version}</p>").into_bytes()
}

fn version_of(body: &[u8]) -> u64 {
    let s = std::str::from_utf8(body).expect("utf8 body");
    let s = s.strip_prefix("<p>v").expect("versioned body prefix");
    let s = s.strip_suffix("</p>").expect("versioned body suffix");
    s.parse().expect("version number")
}

#[test]
fn readers_race_mutator_without_stale_or_failed_serves() {
    let cfg = ServerConfig {
        stat_interval_ms: 50,
        selection_threshold: 1,
        min_cps_to_migrate: 0.0,
        ..ServerConfig::paper_defaults()
    };
    let mut engine = ServerEngine::new(ServerId::new("home:8080"), cfg, Box::new(MemStore::new()));
    engine.add_peer(ServerId::new("peer:8081"));
    engine.publish(VERSIONED, body_for(0), DocKind::Html, false);
    engine.publish(MOVING, b"<p>moving</p>".to_vec(), DocKind::Html, false);
    for s in STABLE {
        engine.publish(s, b"<p>stable</p>".to_vec(), DocKind::Html, false);
    }

    let read: Arc<ReadPath> = engine.read_path().clone();
    let engine = Arc::new(Mutex::new(engine));
    // Highest version whose publish has completed (stored *after* the
    // publish critical section, so a serve of `current + 1` just means
    // the reader raced ahead of this counter, never a stale body).
    let current = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let clock = Arc::new(AtomicU64::new(1));

    let mut readers = Vec::new();
    for r in 0..N_READERS {
        let read = read.clone();
        let engine = engine.clone();
        let current = current.clone();
        let clock = clock.clone();
        readers.push(std::thread::spawn(move || {
            let mut served = 0u64;
            // Start once the mutator is running: a reader's quota is
            // otherwise done before that thread has been scheduled.
            while current.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            for i in r..r + REQUESTS_PER_READER {
                let path = match i % 5 {
                    0 | 1 => VERSIONED,
                    2 => MOVING,
                    n => STABLE[n - 3],
                };
                let req = Request::get(path);
                let now = clock.fetch_add(1, Ordering::Relaxed);
                let lo = current.load(Ordering::SeqCst);
                let resp = match read.try_serve(&req, now) {
                    Some(resp) => resp,
                    None => {
                        let out = engine.lock().unwrap().handle_request(&req, now);
                        match out {
                            Outcome::FetchNeeded { .. } => {
                                panic!("home documents never need a fetch")
                            }
                            buffered => buffered.into_response().expect("response outcome"),
                        }
                    }
                };
                let hi = current.load(Ordering::SeqCst);
                assert!(
                    matches!(
                        resp.status,
                        StatusCode::Ok | StatusCode::MovedPermanently | StatusCode::NotModified
                    ),
                    "unexpected status {:?} for {path}",
                    resp.status
                );
                if path == VERSIONED && resp.status == StatusCode::Ok {
                    let v = version_of(&resp.body);
                    assert!(
                        v + 1 >= lo && v <= hi + 1,
                        "stale serve: got v{v}, current was {lo}..{hi}"
                    );
                }
                served += 1;
            }
            served
        }));
    }

    // The mutator: republish (bump version), drive a migration of
    // MOVING via load, revoke it again, and tick — all the write-path
    // operations the read path must stay coherent against. It keeps
    // mutating until every reader has finished its quota, so the
    // interleaving happens regardless of how the host schedules threads.
    let mutator = {
        let engine = engine.clone();
        let current = current.clone();
        let done = done.clone();
        let clock = clock.clone();
        std::thread::spawn(move || {
            let peer = ServerId::new("peer:8081");
            let mut round = 0u64;
            while !done.load(Ordering::Acquire) {
                round += 1;
                {
                    let mut eng = engine.lock().unwrap();
                    eng.publish(VERSIONED, body_for(round), DocKind::Html, false);
                }
                current.store(round, Ordering::SeqCst);

                let now = clock.fetch_add(100, Ordering::Relaxed);
                let mut eng = engine.lock().unwrap();
                if round.is_multiple_of(3) {
                    eng.tick(now);
                }
                if round % 10 == 5 {
                    // Recall everything from the peer, then let load
                    // build again.
                    eng.declare_peer_dead(&peer);
                    eng.ping_result(&peer, true, None);
                }
                drop(eng);
                // On a single-core host the readers otherwise starve
                // behind a tight republish loop.
                std::thread::yield_now();
            }
            round
        })
    };

    let mut total = 0u64;
    for t in readers {
        total += t.join().expect("reader thread panicked");
    }
    done.store(true, Ordering::Release);
    let rounds = mutator.join().expect("mutator thread panicked");
    assert!(rounds > 0, "mutator made progress");
    assert_eq!(total, (N_READERS * REQUESTS_PER_READER) as u64);

    // Counter coherence: folded stats cover at least every versioned /
    // stable 200 the readers saw, and the engine still serves.
    let mut eng = engine.lock().unwrap();
    let now = clock.fetch_add(1, Ordering::Relaxed);
    eng.tick(now);
    let stats = eng.stats();
    assert!(stats.requests >= total, "stats lost requests");
    let resp = eng
        .handle_request(&Request::get(VERSIONED), now + 1)
        .into_response()
        .expect("engine alive after stress");
    assert_eq!(version_of(&resp.body), rounds);
}
