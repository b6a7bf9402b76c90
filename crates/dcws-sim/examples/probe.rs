//! One simulation run, with the simulator's own decomposition: wall time,
//! events/s, how many events of each kind were handled, what the control
//! plane did with its gossip, and how full the event queue got.
//!
//! ```text
//! probe [servers] [clients] [duration_ms] [accel] [dataset] [seed]
//! ```
//!
//! Defaults: 4 servers, 16 clients, 60 000 ms, Table-1 timers / 10, `lod`.
//! With a `seed` it seeds both the dataset and the run, as the benchmark's
//! `sim-lod` does — `probe 64 1024 100000 1 lod 1999` is that workload's
//! configuration. Without one the dataset seed is 1 and the run seed the
//! `SimConfig::paper` default.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_servers: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let n_clients: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let dur: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(60_000);
    let accel: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(10);
    let ds = args.get(5).map(|s| s.as_str()).unwrap_or("lod");
    let seed: Option<u64> = args.get(6).and_then(|s| s.parse().ok());
    let mut cfg = dcws_sim::SimConfig::paper(
        dcws_workloads::Dataset::by_name(ds, seed.unwrap_or(1)).unwrap(),
        n_servers,
        n_clients,
    )
    .accelerate(accel);
    cfg.duration_ms = dur;
    cfg.sample_interval_ms = 10_000;
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    // The event-queue presize of `SimCluster::with_crashes`, restated:
    // a run whose peak stays under it never grows the queue in the loop.
    let presized = cfg.n_clients * (cfg.client.helpers + 1) + 3 * cfg.n_servers + 64;
    let t0 = std::time::Instant::now();
    let cluster = dcws_sim::SimCluster::new(cfg);
    let setup = t0.elapsed();
    let t1 = std::time::Instant::now();
    let r = cluster.run();
    let wall = t1.elapsed();
    println!(
        "setup={setup:?} wall={wall:?} events={} events/s={:.0}",
        r.events,
        r.events as f64 / wall.as_secs_f64()
    );
    let n = r.event_counts;
    println!(
        "events by kind: request_arrive={} service_done={} client_deliver={} server_deliver={} \
         server_tick={} client_wake={} other={}",
        n.request_arrive,
        n.service_done,
        n.client_deliver,
        n.server_deliver,
        n.server_tick,
        n.client_wake,
        n.other
    );
    let g = r.gossip;
    println!(
        "gossip: pings_sent={} reports_merged={} reports_skipped={} reports_encoded={}",
        g.pings_sent, g.reports_merged, g.reports_skipped, g.reports_encoded
    );
    println!("queue: peak={} presized={presized}", r.queue_peak);
    println!("digest: {}", r.digest());
    for s in &r.samples {
        println!(
            "t={}ms cps={:.0} bps={:.0} drops/s={:.0} redir/s={:.0} per_server={:?}",
            s.t_ms,
            s.cps,
            s.bps,
            s.drops_per_sec,
            s.redirects_per_sec,
            s.per_server_cps
                .iter()
                .map(|c| *c as u64)
                .collect::<Vec<_>>()
        );
    }
}
