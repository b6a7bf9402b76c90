//! Large objects on the read path: once the first (spilled) serve has
//! primed an object's stream route, the reactor answers every plain
//! client shape itself — and byte for byte as the engine's exclusive path
//! would have. Each test drives a real one-shard reactor over TCP, on the
//! epoll and on the `poll(2)` backend, over a `DiskStore` and a
//! `MemStore`, and compares what arrives with what a second engine
//! holding the same content and clock answers through `handle_request`;
//! one more runs four shards over the one table.

use dcws_core::{DiskStore, DocStore, MemStore, Outcome, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::{LoadReport, Method, Request, Version};
use dcws_net::{DcwsServer, NetConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// `ServerConfig::paper_defaults().stream_threshold_bytes`.
const THRESHOLD: usize = 256 * 1024;

/// The largest Sequoia raster.
const RASTER: usize = 2_800_000;

/// The engines' clock when the corpus is published: late enough that an
/// `If-Modified-Since` can name an earlier second.
const PUBLISHED_MS: u64 = 1_000_000_000_000;

/// The objects around the streaming threshold, and one well past it.
const OBJECTS: [(&str, usize); 4] = [
    ("/img/under.bin", THRESHOLD - 1),
    ("/img/at.bin", THRESHOLD),
    ("/img/over.bin", THRESHOLD + 1),
    ("/img/raster.bin", RASTER),
];

const PAGE: &[u8] = b"<p>a small page between two rasters</p>";

/// Position-dependent bytes, different per `salt`, so a slice from the
/// wrong offset or the wrong version is detected.
fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| ((i + salt) % 251) as u8).collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Backing {
    Disk,
    Mem,
}

/// A scratch directory for one `DiskStore`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("dcws-stream-route-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn store(&self, backing: Backing, name: &str) -> Box<dyn DocStore> {
        match backing {
            Backing::Disk => Box::new(DiskStore::open(self.0.join(name)).unwrap()),
            Backing::Mem => Box::new(MemStore::new()),
        }
    }

    /// Open descriptors of this process that point into the directory
    /// (a replaced file's old inode still reads as its old path).
    fn open_descriptors(&self) -> usize {
        std::fs::read_dir("/proc/self/fd")
            .expect("procfs")
            .flatten()
            .filter_map(|e| std::fs::read_link(e.path()).ok())
            .filter(|target| target.starts_with(&self.0))
            .count()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An engine for `id` holding `OBJECTS` and a small page, its clock at
/// `PUBLISHED_MS`.
fn engine(id: &ServerId, cfg: ServerConfig, store: Box<dyn DocStore>) -> ServerEngine {
    let mut e = ServerEngine::new(id.clone(), cfg, store);
    e.tick(PUBLISHED_MS);
    for (i, (path, len)) in OBJECTS.iter().enumerate() {
        e.publish(path, pattern(*len, i), DocKind::Image, false);
    }
    e.publish("/page.html", PAGE.to_vec(), DocKind::Html, true);
    e
}

/// A server of `shards` reactor shards bound to a port reserved
/// beforehand, so the engine's identity is the address clients reach (a
/// `~migrate` name for this server must decode to itself), and a
/// reference engine with the same identity, content and clock that no
/// front end ever touches.
fn spawn(
    scratch: &Scratch,
    backing: Backing,
    force_poll: bool,
    cfg: ServerConfig,
    shards: usize,
) -> (DcwsServer, ServerEngine) {
    let reserved = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = reserved.local_addr().unwrap();
    drop(reserved);
    let id = ServerId::new(addr.to_string());
    let live = engine(&id, cfg.clone(), scratch.store(backing, "live"));
    let reference = engine(&id, cfg, scratch.store(backing, "reference"));
    let mut net = NetConfig::new(Duration::from_millis(50));
    net.reactor_shards = shards;
    net.reactor_force_poll = force_poll;
    let server = DcwsServer::spawn_with(live, &addr.to_string(), net).unwrap();
    (server, reference)
}

/// Run `test` on both pollers over both stores.
fn on_every_server(tag: &str, test: impl Fn(&DcwsServer, &mut ServerEngine, &Scratch, Backing)) {
    for backing in [Backing::Disk, Backing::Mem] {
        for force_poll in [false, true] {
            let scratch = Scratch::new(&format!("{tag}-{backing:?}-{force_poll}"));
            let (server, mut reference) = spawn(
                &scratch,
                backing,
                force_poll,
                ServerConfig::paper_defaults(),
                1,
            );
            test(&server, &mut reference, &scratch, backing);
            server.shutdown();
            drop(reference);
            assert_eq!(
                scratch.open_descriptors(),
                0,
                "{backing:?}: a descriptor outlived shutdown"
            );
        }
    }
}

/// What the exclusive path puts on the wire for `req`.
fn exclusive_wire(engine: &mut ServerEngine, req: &Request) -> Vec<u8> {
    match engine.handle_request(req, PUBLISHED_MS) {
        Outcome::Response(resp) => resp.to_bytes_for(req.method == Method::Head),
        Outcome::Stream { resp, mut body } => {
            let mut wire = resp.head_bytes();
            let mut chunk = vec![0u8; dcws_http::STREAM_CHUNK];
            loop {
                match body.read_chunk(&mut chunk).expect("store read") {
                    0 => break wire,
                    n => wire.extend_from_slice(&chunk[..n]),
                }
            }
        }
        Outcome::FetchNeeded { .. } => panic!("a home document needs no pull"),
    }
}

/// A keep-alive client that frames responses itself and keeps their wire
/// bytes.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes asked of the socket per read.
    read_size: usize,
    /// Wait this long before every read: a reader slower than the server.
    pause: Duration,
}

impl Client {
    fn connect(server: &DcwsServer) -> Client {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
            read_size: 64 * 1024,
            pause: Duration::ZERO,
        }
    }

    fn send(&mut self, req: &Request) {
        self.stream.write_all(&req.to_bytes()).unwrap();
    }

    fn fill(&mut self) {
        if !self.pause.is_zero() {
            std::thread::sleep(self.pause);
        }
        let at = self.buf.len();
        self.buf.resize(at + self.read_size, 0);
        let n = self.stream.read(&mut self.buf[at..]).expect("reply bytes");
        assert!(n > 0, "server closed mid-reply");
        self.buf.truncate(at + n);
    }

    /// The wire length of the reply at the front of the buffer, once its
    /// head is complete: the head alone for a `HEAD` and a 304.
    fn reply_len(&self, method: Method) -> Option<usize> {
        let head_end = self.buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&self.buf[..head_end]).unwrap();
        let bodyless = method == Method::Head || head.starts_with("HTTP/1.1 304");
        let body = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(n, _)| n.eq_ignore_ascii_case("Content-Length"))
            .map_or(0, |(_, v)| v.trim().parse().unwrap());
        Some(head_end + if bodyless { 0 } else { body })
    }

    /// Read the head of the next reply (and whatever came with it).
    fn read_head(&mut self, method: Method) -> usize {
        loop {
            if let Some(len) = self.reply_len(method) {
                return len;
            }
            self.fill();
        }
    }

    /// Read one whole reply to a `method` request: its wire bytes.
    fn read_reply(&mut self, method: Method) -> Vec<u8> {
        let len = self.read_head(method);
        while self.buf.len() < len {
            self.fill();
        }
        self.buf.drain(..len).collect()
    }

    fn exchange(&mut self, req: &Request) -> Vec<u8> {
        self.send(req);
        self.read_reply(req.method)
    }

    /// True once the server has closed its end with nothing left unread.
    fn closed_by_server(&mut self) -> bool {
        let mut byte = [0u8; 1];
        self.buf.is_empty() && matches!(self.stream.read(&mut byte), Ok(0))
    }
}

/// Split a reply into its head text and entity.
fn split(wire: &[u8]) -> (&str, &[u8]) {
    let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    (
        std::str::from_utf8(&wire[..head_end]).unwrap(),
        &wire[head_end..],
    )
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.trim())
}

/// `wire` without its `X-DCWS-Load` fields: the two paths attach the same
/// rows measured at different moments.
fn without_load_reports(wire: &[u8]) -> Vec<u8> {
    let (head, body) = split(wire);
    let mut out: Vec<u8> = head
        .split_inclusive("\r\n")
        .filter(|l| !l.to_ascii_lowercase().starts_with("x-dcws-load:"))
        .collect::<String>()
        .into_bytes();
    out.extend_from_slice(body);
    out
}

fn counters(server: &DcwsServer) -> (u64, u64) {
    let stats = server.reactor_stats();
    (
        stats.inline_served.load(Ordering::Relaxed),
        stats.spillover_jobs.load(Ordering::Relaxed),
    )
}

/// Prime every object's route: one spilled GET each.
fn prime(server: &DcwsServer) {
    let mut c = Client::connect(server);
    for (path, len) in OBJECTS {
        let wire = c.exchange(&Request::get(path));
        let (head, body) = split(&wire);
        assert!(head.starts_with("HTTP/1.1 200"), "priming {path}: {head}");
        assert_eq!(body.len(), len, "priming {path}");
    }
}

/// Every plain-client shape of a request for `path`, `len` bytes long,
/// last modified at `PUBLISHED_MS`.
fn shapes(path: &str, len: usize, id: &ServerId) -> Vec<Request> {
    let get = || Request::get(path);
    let ranged = |spec: String| get().with_header("Range", spec);
    let modified = dcws_http::http_date(PUBLISHED_MS);
    let (host, port) = id.host_port();
    vec![
        get(),
        Request::head(path),
        ranged("bytes=100-299".into()),
        ranged(format!("bytes={}-", len - 1000)),
        ranged("bytes=-500".into()),
        ranged(format!("bytes={0}-{0}", len - 1)),
        ranged(format!("bytes={len}-")),
        ranged(format!("bytes=100-{}", len + 5000)),
        ranged("bytes=0-99,200-299".into()),
        ranged("bytes=abc-".into()),
        ranged("items=0-5".into()),
        Request::head(path).with_header("Range", "bytes=0-9"),
        get().with_header(
            "If-Modified-Since",
            dcws_http::http_date(PUBLISHED_MS - 5_000),
        ),
        get().with_header("If-Modified-Since", modified.clone()),
        get().with_header(
            "If-Modified-Since",
            dcws_http::http_date(PUBLISHED_MS + 5_000),
        ),
        ranged("bytes=0-99".into()).with_header("If-Modified-Since", modified.clone()),
        Request::head(path).with_header("If-Modified-Since", modified),
        Request::get(format!("/~migrate/{host}/{port}{path}")),
        Request::get(format!("/~migrate/{host}/{port}{path}")).with_header("Range", "bytes=7-77"),
    ]
}

#[test]
fn every_shape_is_answered_inline_as_the_exclusive_path_would() {
    on_every_server("shapes", |server, reference, _, backing| {
        prime(server);
        let id = server.server_id();
        let mut c = Client::connect(server);
        for (path, len) in OBJECTS {
            let shapes = shapes(path, len, &id);
            let (inline0, spilled0) = counters(server);
            for req in &shapes {
                let got = c.exchange(req);
                let want = exclusive_wire(reference, req);
                let (got_head, got_body) = split(&got);
                let (want_head, want_body) = split(&want);
                assert_eq!(got_head, want_head, "{backing:?} {req:?}");
                assert!(
                    got_body == want_body,
                    "{backing:?}: entity differs for {req:?}"
                );
            }
            let (inline1, spilled1) = counters(server);
            assert_eq!(inline1 - inline0, shapes.len() as u64, "{path}");
            assert_eq!(spilled1, spilled0, "{path}: a primed shape spilled");
        }
    });
}

#[test]
fn closing_shapes_close_after_the_last_byte() {
    on_every_server("closing", |server, reference, _, backing| {
        prime(server);
        let (inline0, spilled0) = counters(server);
        let mut closing = Vec::new();
        for (path, _) in OBJECTS {
            let mut old = Request::get(path);
            old.version = Version::Http10;
            closing.push(old);
            closing.push(Request::get(path).with_header("Connection", "close"));
            closing.push(
                Request::get(path)
                    .with_header("Range", "bytes=-70000")
                    .with_header("connection", "CLOSE"),
            );
        }
        for req in &closing {
            let mut c = Client::connect(server);
            let got = c.exchange(req);
            assert!(
                got == exclusive_wire(reference, req),
                "{backing:?}: {req:?} differs"
            );
            assert!(c.closed_by_server(), "still open after {req:?}");
        }
        let (inline1, spilled1) = counters(server);
        assert_eq!(inline1 - inline0, closing.len() as u64);
        assert_eq!(spilled1, spilled0);
    });
}

#[test]
fn piggybacked_load_report_is_deferred_and_answered_on_a_stream() {
    on_every_server("load", |server, reference, _, backing| {
        prime(server);
        let report = LoadReport {
            server: "peer:9090".into(),
            cps: 41.5,
            bps: 20_000.0,
            ts_ms: 5,
        };
        let peer = ServerId::new(report.server.as_str());
        let (inline0, spilled0) = counters(server);
        let mut c = Client::connect(server);
        for (path, _) in OBJECTS {
            let req = Request::get(path).with_header("X-DCWS-Load", report.encode());
            let got = c.exchange(&req);
            let want = exclusive_wire(reference, &req);
            assert!(
                without_load_reports(&got) == without_load_reports(&want),
                "{backing:?} {path}: differs beyond the load reports"
            );
            let (head, _) = split(&got);
            assert!(
                header(head, "X-DCWS-Load").is_some(),
                "{path}: no report attached: {head}"
            );
            // Merged while the request was answered, not at a tick.
            let row = server.engine().lock().glt().get(&peer);
            assert_eq!(row.map(|r| r.cps), Some(41.5), "{path}: row not merged");
        }
        // A load report is inter-server traffic: the engine answers it,
        // like any other `X-DCWS-*` header.
        let (inline1, spilled1) = counters(server);
        assert_eq!(inline1, inline0);
        assert_eq!(spilled1 - spilled0, OBJECTS.len() as u64);
        let req = Request::get("/img/raster.bin").with_header("X-DCWS-Coop", "peer:9090");
        let got = c.exchange(&req);
        assert_eq!(split(&got).1.len(), RASTER);
        assert_eq!(counters(server).1, spilled1 + 1);
    });
}

#[test]
fn pipelined_large_small_large_keep_their_order() {
    on_every_server("pipelined", |server, reference, _, backing| {
        prime(server);
        // The page is primed by its own first serve.
        Client::connect(server).exchange(&Request::get("/page.html"));
        let batch = [
            Request::get("/img/raster.bin"),
            Request::get("/page.html"),
            Request::get("/img/over.bin").with_header("Range", "bytes=1000-"),
            Request::head("/img/raster.bin"),
            Request::get("/img/at.bin"),
        ];
        let (inline0, spilled0) = counters(server);
        let mut c = Client::connect(server);
        let wire: Vec<u8> = batch.iter().flat_map(Request::to_bytes).collect();
        c.stream.write_all(&wire).unwrap();
        for req in &batch {
            let got = c.read_reply(req.method);
            assert!(
                got == exclusive_wire(reference, req),
                "{backing:?}: out of order or wrong at {req:?}"
            );
        }
        let (inline1, spilled1) = counters(server);
        assert_eq!(inline1 - inline0, batch.len() as u64);
        assert_eq!(spilled1, spilled0);

        // A burst of transfers that each finish in their first slice:
        // every one is answered, though no readable event announces the
        // requests already buffered behind it.
        const BURST: usize = 2_000;
        let one = Request::get("/img/raster.bin").with_header("Range", "bytes=4096-8191");
        let want = exclusive_wire(reference, &one);
        c.stream.write_all(&one.to_bytes().repeat(BURST)).unwrap();
        for i in 0..BURST {
            assert!(c.read_reply(Method::Get) == want, "burst reply {i}");
        }
        assert_eq!(counters(server), (inline1 + BURST as u64, spilled1));
    });
}

/// A reader that takes 4 KiB at a time, and its time over each, against
/// a connection with thirty-two transfers pipelined on it, each two
/// slices long, and a small page behind each: every byte arrives in
/// place and in order, and no request waits for bytes that already came.
#[test]
fn slow_reader_gets_every_byte_and_the_requests_behind_it() {
    const PAIRS: usize = 32;
    on_every_server("slow", |server, reference, _, backing| {
        prime(server);
        let tail = Request::get("/img/raster.bin").with_header("Range", "bytes=-524288");
        let page = Request::get("/page.html");
        let mut c = Client::connect(server);
        c.exchange(&page);
        let (want_tail, want_page) = (
            exclusive_wire(reference, &tail),
            exclusive_wire(reference, &page),
        );
        let (inline0, spilled0) = counters(server);
        let pair = [tail.to_bytes(), page.to_bytes()].concat();
        c.stream.write_all(&pair.repeat(PAIRS)).unwrap();
        (c.read_size, c.pause) = (4096, Duration::from_micros(20));
        for i in 0..PAIRS {
            assert!(
                c.read_reply(Method::Get) == want_tail,
                "{backing:?}: slice {i} differs"
            );
            assert!(
                c.read_reply(Method::Get) == want_page,
                "{backing:?}: page {i} differs"
            );
        }
        assert_eq!(counters(server), (inline0 + 2 * PAIRS as u64, spilled0));
    });
}

/// Larger than the loopback socket buffers can hold between them, so a
/// client that stops reading leaves the transfer parked on the reactor.
const PARKED: usize = 16 << 20;

#[test]
fn republish_mid_transfer_finishes_on_the_old_bytes() {
    on_every_server("republish", |server, _, scratch, backing| {
        let path = "/img/parked.bin";
        let old = pattern(PARKED, 1);
        let new = pattern(THRESHOLD + 4096, 2);
        server
            .engine()
            .lock()
            .publish(path, old.clone(), DocKind::Image, false);
        let routes0 = server.read_path().snapshot().stream_routes;
        let mut prime = Client::connect(server);
        prime.exchange(&Request::get(path));
        assert_eq!(server.read_path().snapshot().stream_routes, routes0 + 1);

        // Take the head and the first bytes, then stop reading.
        let (inline0, spilled0) = counters(server);
        let mut parked = Client::connect(server);
        parked.send(&Request::get(path));
        let len = parked.read_head(Method::Get);
        assert_eq!(counters(server).0, inline0 + 1, "served on the reactor");
        let old_modified = {
            let (head, _) = split(&parked.buf);
            header(head, "Last-Modified").unwrap().to_string()
        };

        // Republish — a shorter object, five seconds later.
        {
            let mut engine = server.engine().lock();
            engine.tick(PUBLISHED_MS + 5_000);
            engine.publish(path, new.clone(), DocKind::Image, false);
        }
        assert_eq!(
            server.read_path().snapshot().stream_routes,
            routes0,
            "publish drops the route"
        );

        // The next GET spills once and serves the new version…
        let mut fresh = Client::connect(server);
        let wire = fresh.exchange(&Request::get(path));
        let (head, body) = split(&wire);
        assert!(body == &new[..], "{backing:?}: not the republished bytes");
        assert_ne!(header(head, "Last-Modified").unwrap(), old_modified);
        assert_eq!(counters(server).1, spilled0 + 1, "one priming spill");
        // …and the one after it is inline again.
        let wire = fresh.exchange(&Request::get(path));
        assert!(split(&wire).1 == &new[..]);
        assert_eq!(counters(server), (inline0 + 2, spilled0 + 1));

        // The parked transfer ends with the old bytes and the old length.
        while parked.buf.len() < len {
            parked.fill();
        }
        let wire: Vec<u8> = parked.buf.drain(..len).collect();
        let (head, body) = split(&wire);
        assert_eq!(header(head, "Content-Length"), Some(&*PARKED.to_string()));
        assert!(body == &old[..], "{backing:?}: transfer switched versions");

        // Its descriptor went with it: the one left open is the
        // republished object's resident route's.
        drop((prime, parked, fresh));
        assert_eq!(server.read_path().snapshot().stream_routes, routes0 + 1);
        wait_for(|| backing == Backing::Mem || scratch.open_descriptors() == 1);
    });
}

fn wait_for(pred: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !pred() {
        assert!(std::time::Instant::now() < deadline, "condition never held");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn migrate_turns_the_route_into_a_301() {
    on_every_server("migrate", |server, _, _, _| {
        prime(server);
        let path = "/img/raster.bin";
        let routes0 = server.read_path().snapshot().stream_routes;
        let restored = server
            .engine()
            .lock()
            .restore_migrations(&format!("{path}\t127.0.0.1:9\n"), 0);
        assert_eq!(restored, 1);
        assert_eq!(server.read_path().snapshot().stream_routes, routes0 - 1);
        let mut c = Client::connect(server);
        let (inline0, spilled0) = counters(server);
        for _ in 0..2 {
            let wire = c.exchange(&Request::get(path));
            let (head, _) = split(&wire);
            assert!(head.starts_with("HTTP/1.1 301"), "{head}");
            assert!(header(head, "Location")
                .unwrap()
                .starts_with("http://127.0.0.1:9/~migrate/"));
        }
        // The engine's 301 primed the moved route; the second was inline.
        assert_eq!(counters(server), (inline0 + 1, spilled0 + 1));
    });
}

/// Resident descriptors are the store's to bound and to release: one per
/// stream route, gone with an invalidate, an eviction, and shutdown.
#[test]
fn invalidate_and_eviction_release_the_descriptor() {
    on_every_server("descriptors", |server, _, scratch, backing| {
        let on_disk = |routes: u64| {
            assert_eq!(server.read_path().snapshot().stream_routes, routes);
            if backing == Backing::Disk {
                assert_eq!(scratch.open_descriptors() as u64, routes);
            }
        };
        on_disk(0);
        prime(server);
        // The object under the threshold is a buffered route.
        on_disk(3);
        // However many transfers share it, a route holds one descriptor.
        let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(server)).collect();
        for c in &mut clients {
            c.send(&Request::get("/img/raster.bin"));
        }
        for c in &mut clients {
            assert_eq!(split(&c.read_reply(Method::Get)).1.len(), RASTER);
        }
        on_disk(3);
        drop(clients);

        // Invalidate: a republish drops the route and its descriptor.
        server
            .engine()
            .lock()
            .publish("/img/at.bin", pattern(THRESHOLD, 9), DocKind::Image, false);
        on_disk(2);
        let mut c = Client::connect(server);
        assert!(split(&c.exchange(&Request::get("/img/at.bin"))).1 == &pattern(THRESHOLD, 9)[..]);
        on_disk(3);

        // Eviction: with no budget every shard is over it, each entry is
        // evicted, and no route fits any more — large objects spill, and
        // still arrive.
        let entries = server.read_path().table().stats().entries;
        let evictions0 = server.read_path().table().stats().evictions;
        server.engine().lock().set_cache_budget(0);
        let evictions = server.read_path().table().stats().evictions;
        assert_eq!(evictions - evictions0, entries, "one eviction an entry");
        on_disk(0);
        let (_, spilled0) = counters(server);
        for _ in 0..2 {
            assert_eq!(
                split(&c.exchange(&Request::get("/img/raster.bin"))).1.len(),
                RASTER
            );
        }
        assert_eq!(counters(server).1, spilled0 + 2);
        drop(c);
        wait_for(|| backing == Backing::Mem || scratch.open_descriptors() == 0);

        // With a budget again the route comes back.
        let budget = ServerConfig::paper_defaults().cache_budget_bytes;
        server.engine().lock().set_cache_budget(budget);
        let mut c = Client::connect(server);
        c.exchange(&Request::get("/img/raster.bin"));
        on_disk(1);
    });
}

/// The table budget bounds the resident descriptors: a budget with room
/// for two stream routes a shard never holds more, whatever is served.
#[test]
fn table_budget_bounds_resident_descriptors() {
    let scratch = Scratch::new("budget");
    let mut cfg = ServerConfig::paper_defaults();
    // Half of it is the store's, spread over its 8 shards: 160 KiB a
    // shard, and a stream route is charged a little over 64 KiB.
    cfg.cache_budget_bytes = 2 * 8 * 160 * 1024;
    let (server, _) = spawn(&scratch, Backing::Disk, false, cfg, 1);
    const DOCS: usize = 64;
    {
        let mut engine = server.engine().lock();
        for i in 0..DOCS {
            let path = format!("/many/{i}.bin");
            engine.publish(&path, pattern(THRESHOLD, i), DocKind::Image, false);
        }
    }
    let mut c = Client::connect(&server);
    for round in 0..2 {
        for i in 0..DOCS {
            let wire = c.exchange(&Request::get(format!("/many/{i}.bin")));
            assert!(split(&wire).1 == &pattern(THRESHOLD, i)[..], "{round}/{i}");
            let snap = server.read_path().snapshot();
            assert!(snap.stream_routes <= 2 * 8, "{} routes", snap.stream_routes);
            assert_eq!(scratch.open_descriptors() as u64, snap.stream_routes);
        }
    }
    assert!(server.read_path().table().stats().evictions > 0);
    drop(c);
    server.shutdown();
    assert_eq!(scratch.open_descriptors(), 0);
}

/// A primed large-object request of any plain shape takes neither the
/// engine lock nor a worker: the test thread holds the lock, and the one
/// worker there is has nothing to do, while twenty of them complete.
#[test]
fn primed_large_gets_need_neither_the_engine_lock_nor_a_worker() {
    for force_poll in [false, true] {
        let scratch = Scratch::new(&format!("witness-{force_poll}"));
        let mut cfg = ServerConfig::paper_defaults();
        cfg.n_workers = 1;
        let (server, mut reference) = spawn(&scratch, Backing::Disk, force_poll, cfg, 1);
        prime(&server);
        let shapes = shapes("/img/raster.bin", RASTER, &server.server_id());
        let mut c = Client::connect(&server);
        let (inline0, spilled0) = counters(&server);
        let served0 = server.engine().lock().stats().streamed_serves;

        let guard = server.engine().lock();
        let mut streamed = 0;
        for req in shapes.iter().cycle().take(20) {
            let got = c.exchange(req);
            assert!(got == exclusive_wire(&mut reference, req), "{req:?}");
            streamed += u64::from(!split(&got).1.is_empty());
        }
        assert_eq!(counters(&server), (inline0 + 20, spilled0));
        drop(guard);

        // What the reactor served reaches the engine's own totals.
        assert_eq!(
            server.engine().lock().stats().streamed_serves - served0,
            streamed
        );
        assert_eq!(server.read_path().snapshot().streamed_serves, streamed);
        server.shutdown();
    }
}

/// Four shards read the one serve table: whichever shard the kernel
/// hands a connection to streams a primed object from the route's shared
/// reader, sixteen transfers in flight at once, and the one descriptor
/// goes at the drain.
#[test]
fn four_shards_stream_one_route_over_many_connections() {
    const CONNS: usize = 16;
    let scratch = Scratch::new("shards");
    let cfg = ServerConfig::paper_defaults();
    let (server, mut reference) = spawn(&scratch, Backing::Disk, false, cfg, 4);
    prime(&server);
    let (_, spilled0) = counters(&server);
    let streamed0 = server.read_path().snapshot().streamed_serves;
    let mut clients: Vec<Client> = (0..CONNS).map(|_| Client::connect(&server)).collect();
    let whole = Request::get("/img/raster.bin");
    let ranged = Request::get("/img/raster.bin").with_header("Range", "bytes=1000000-1999999");
    for req in [&whole, &ranged] {
        let want = exclusive_wire(&mut reference, req);
        for c in &mut clients {
            c.send(req);
        }
        for (i, c) in clients.iter_mut().enumerate() {
            assert!(c.read_reply(Method::Get) == want, "conn {i}: {req:?}");
        }
    }
    assert_eq!(counters(&server).1, spilled0, "a primed GET spilled");
    assert_eq!(
        server.read_path().snapshot().streamed_serves - streamed0,
        2 * CONNS as u64
    );
    // Sixteen connections on one shard of four: 4^-15 under the kernel's
    // hashing, impossible under round-robin hand-off.
    let status = server.status_json();
    let shards = status.get("reactor").and_then(|r| r.get("shards"));
    let serving = shards
        .and_then(|s| s.as_arr())
        .expect("reactor.shards")
        .iter()
        .filter(|s| s.get("inline_served").and_then(|n| n.as_u64()) > Some(0))
        .count();
    assert!(serving > 1, "one shard served every connection");
    drop(clients);
    server.shutdown();
    drop(reference);
    assert_eq!(scratch.open_descriptors(), 0, "a descriptor outlived drain");
}
