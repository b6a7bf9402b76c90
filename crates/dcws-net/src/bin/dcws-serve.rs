//! `dcws-serve` — run a DCWS server over a directory of documents.
//!
//! ```bash
//! dcws-serve --bind 127.0.0.1:8000 --docroot ./site \
//!            --entry /index.html --peer 127.0.0.1:8001 [--fast-timers]
//! ```
//!
//! The server is a *home* for every document under `--docroot` (HTML files
//! are parsed for hyperlinks to build the Local Document Graph) and a
//! potential *co-op* for any `--peer`. With `--fast-timers` the Table 1
//! intervals shrink 20× so migration can be watched interactively.

use dcws_core::{DiskStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_net::DcwsServer;
use std::path::{Path, PathBuf};
use std::time::Duration;

struct Args {
    bind: String,
    docroot: PathBuf,
    entries: Vec<String>,
    peers: Vec<String>,
    fast: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bind: "127.0.0.1:8000".into(),
        docroot: PathBuf::from("."),
        entries: Vec::new(),
        peers: Vec::new(),
        fast: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bind" => args.bind = it.next().ok_or("--bind needs a value")?,
            "--docroot" => {
                args.docroot = PathBuf::from(it.next().ok_or("--docroot needs a value")?)
            }
            "--entry" => args.entries.push(it.next().ok_or("--entry needs a value")?),
            "--peer" => args.peers.push(it.next().ok_or("--peer needs a value")?),
            "--fast-timers" => args.fast = true,
            "--help" | "-h" => {
                return Err("usage: dcws-serve --bind HOST:PORT --docroot DIR \
                            [--entry /path]... [--peer HOST:PORT]... [--fast-timers]"
                    .into())
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if args.entries.is_empty() {
        args.entries.push("/index.html".into());
    }
    Ok(args)
}

/// Walk `root` and return (document name, bytes) pairs.
fn scan(root: &Path) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    fn rec(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let p = entry?.path();
            if p.is_dir() {
                rec(root, &p, out)?;
            } else if let Ok(rel) = p.strip_prefix(root) {
                let name = format!(
                    "/{}",
                    rel.components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/")
                );
                out.push((name, std::fs::read(&p)?));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    rec(root, root, &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn is_html(name: &str) -> bool {
    name.ends_with(".html") || name.ends_with(".htm")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut cfg = ServerConfig::paper_defaults();
    if args.fast {
        cfg.stat_interval_ms /= 20;
        cfg.pinger_interval_ms /= 20;
        cfg.validation_interval_ms /= 20;
        cfg.remigration_interval_ms /= 20;
        cfg.coop_migration_interval_ms /= 20;
        cfg.selection_threshold = 3;
    }

    let id = ServerId::new(args.bind.clone());
    // The permanent originals live beside the docroot so regenerated
    // copies never clobber the author's files.
    let store_dir = args.docroot.join(".dcws-originals");
    let store = match DiskStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open store at {}: {e}", store_dir.display());
            std::process::exit(1);
        }
    };
    let mut engine = ServerEngine::new(id.clone(), cfg, Box::new(store));

    let docs = match scan(&args.docroot) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot scan {}: {e}", args.docroot.display());
            std::process::exit(1);
        }
    };
    let mut published = 0usize;
    for (name, bytes) in docs {
        if name.starts_with("/.dcws-originals") {
            continue;
        }
        let kind = if is_html(&name) {
            DocKind::Html
        } else {
            DocKind::Image
        };
        let entry = args.entries.iter().any(|e| e == &name);
        engine.publish(&name, bytes, kind, entry);
        published += 1;
    }
    for p in &args.peers {
        engine.add_peer(ServerId::new(p.clone()));
    }

    // Size the document cache to the corpus: a quarter covers the hot set
    // of typical Zipf-like access patterns without letting regenerated
    // copies and co-op pulls double memory, with a floor so tiny docroots
    // still cache whole documents.
    let corpus = engine.corpus_bytes();
    let budget = (corpus / 4).max(1024 * 1024);
    engine.set_cache_budget(budget);

    let links: usize = engine.ldg().iter().map(|e| e.link_to.len()).sum();
    println!(
        "dcws-serve: {published} documents ({links} hyperlinks, {corpus} corpus bytes) \
         on http://{id}/ ({} peers, entry points: {:?})",
        args.peers.len(),
        args.entries
    );
    println!("document cache budget: {budget} bytes (corpus/4, 1 MiB floor)");
    let control = Duration::from_millis(if args.fast { 100 } else { 1_000 });
    let server = match DcwsServer::spawn(engine, &args.bind, control) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.bind);
            std::process::exit(1);
        }
    };
    println!("introspection: http://{id}{}", dcws_http::STATUS_PATH);

    // Periodic status line until killed.
    loop {
        std::thread::sleep(Duration::from_secs(10));
        let (st, migrated, events, cache) = {
            let eng = server.engine().lock();
            (
                eng.stats(),
                eng.ldg().all_migrated().len(),
                eng.events().total_recorded(),
                eng.read_path().table().stats(),
            )
        };
        let service = server.metrics().service_time.snapshot();
        println!(
            "served={} coop_served={} redirects={} migrations={} (active {migrated}) \
             pulls={} regens={} dropped={} events={events} p95={:?} \
             cache[hit={:.2} resident={}B evict={}]",
            st.served_home,
            st.served_coop,
            st.redirects,
            st.migrations,
            st.pulls_served,
            st.regenerations,
            server.dropped_connections(),
            service.percentile(95.0),
            cache.hit_ratio(),
            cache.bytes_resident,
            cache.evictions,
        );
    }
}
