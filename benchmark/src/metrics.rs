//! The benchmark's metric names: one table, from which `BENCHMARK.json`,
//! the printed report and the run files all take names, units and
//! directions, so they cannot drift apart.

use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Where the number comes from (counter path or probed function).
    pub source: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        source,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        source,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
///
/// The timed ones are read as multiples of a reference measured beside
/// them and reported in the reference's frozen nominal time (see
/// `reference`): what the clock would have read had the machine run at
/// its nominal speed. The first tick of a block is never used.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "generate + materialise + publish (+ DiskStore write) + spawn + connection placement, over the reference computation run before and after it, times that computation's nominal time; median of the run's build-to-ready repeats"),
    e2e("p50_us", "us", Lower, 0.25,
        "paced blocks: latency of an op, timed from when it was due, over that of the reference round trip right after it (same bytes, same grid), times the nominal round trip; median over every such pair of the run"),
    e2e("ttfb_p50_us", "us", Lower, 0.25,
        "paced blocks: as p50_us, for the time from due to the first byte of the final 2xx response"),
    e2e("sat_ops_per_s", "op/s", Higher, 0.25,
        "sat blocks: a thread's verified ops over the time they took, times its mean reference round trip of the block over the nominal one, summed over threads; median block (the paper's CPS)"),
    e2e("sat_mb_per_s", "MB/s", Higher, 0.25,
        "sat blocks: a thread's verified entity-body bytes, 10^6 B, over the time they took, over the bytes per second its reference round trips of the block moved, times the nominal; summed over threads; median block (the paper's BPS)"),
    e2e("server_cpu_us_per_op", "us", Lower, 0.25,
        "sat blocks: on-CPU time of threads named dcws-reactor-*, dcws-worker-*, dcws-pinger, dcws-frontend over a block / ops sent in it, over the block's reference round trip, times the nominal one; median block (sim-lod: of the simulating thread, per simulation)"),
    e2e("peak_rss_mb", "MB", Lower, 0.25,
        "VmHWM of the process at workload end, 10^6 B, started again after the last set-up; servers, generator, its samples and its reference responders together"),
];

/// What single layers did. No bounds; they explain the metrics above.
pub const PER_LAYER: &[MetricDef] = &[
    // dcws-http
    layer("http.parse_ns", "ns", Lower, "probe: dcws_http::parse_request on the op's request bytes", "p50_us, server_cpu_us_per_op on lod-warm; none on seq-stream"),
    layer("http.head_ns", "ns", Lower, "probe: Response::head_bytes on the shadow's response", "p50_us, server_cpu_us_per_op on lod-warm; none on seq-stream"),
    layer("http.piggyback_ns", "ns", Lower, "probe: 8 x LoadReport::attach + LoadReport::extract_all", "server_cpu_us_per_op on lod-cluster; none on lod-warm"),
    layer("http.checksum_ns_per_kb", "ns/KB", Lower, "probe: dcws_http::body_checksum on the returned body", "client.cold_ops_per_s (pulls) on lod-cluster; none on lod-warm"),
    // dcws-html
    layer("html.extract_ns_per_kb", "ns/KB", Lower, "probe: dcws_html::extract_links on returned pages", "setup_s everywhere, client.p99_us on lod-churn; none on seq-stream"),
    layer("html.rewrite_ns_per_kb", "ns/KB", Lower, "probe: dcws_html::rewrite_links mapping every link to a ~migrate URL", "client.cold_ops_per_s, client.p99_us on lod-cluster, lod-churn; none on lod-warm"),
    // dcws-graph
    layer("graph.select_us", "us", Lower, "probe: dcws_graph::select_for_migration on the shadow LDG", "client.cold_ops_per_s, client.p99_us on lod-cluster (the tick holds the engine lock); none on lod-warm"),
    layer("graph.glt_update_ns", "ns", Lower, "probe: GlobalLoadTable::update", "client.cold_ops_per_s, client.p99_us on lod-cluster; none on lod-warm"),
    // dcws-cache
    layer("cache.get_ns", "ns", Lower, "probe: DocCache::get of the op's document", "p50_us on lod-cluster; none on lod-warm"),
    layer("cache.insert_ns", "ns", Lower, "probe: DocCache::insert of a 2 KB document", "p50_us on lod-cluster; none on lod-warm"),
    layer("cache.hit_ratio", "ratio", Higher, "live: regen_cache + coop_cache CacheStats hits / (hits + misses)", "sat_mb_per_s, peak_rss_mb on seq-stream; none on lod-warm"),
    layer("cache.evictions", "count", Lower, "live: CacheStats::evictions", "sat_mb_per_s, peak_rss_mb on seq-stream"),
    layer("cache.admission_rejects", "count", Lower, "live: CacheStats::admission_rejects", "sat_mb_per_s, peak_rss_mb on seq-stream"),
    layer("cache.coalesced_waits", "count", Lower, "live: CacheStats::coalesced_waits", "client.cold_ops_per_s on lod-cluster"),
    // dcws-core
    layer("core.try_serve_ns", "ns", Lower, "probe: ReadPath::try_serve on the shadow read path", "p50_us, sat_ops_per_s on lod-warm; none on seq-stream"),
    layer("core.handle_hit_ns", "ns", Lower, "probe: ServerEngine::handle_request answering from home (read-path miss or streamed)", "client.p99_us, server_cpu_us_per_op on lod-churn, seq-stream"),
    layer("core.handle_redirect_ns", "ns", Lower, "probe: handle_request answering 301 for a migrated document", "client.p99_us, server_cpu_us_per_op on lod-churn; none on lod-warm"),
    layer("core.handle_coop_miss_ns", "ns", Lower, "probe: co-op handle_request returning FetchNeeded", "client.p99_us on lod-churn; none on lod-warm"),
    layer("core.handle_regen_us", "us", Lower, "probe: handle_request on a dirty page (regeneration)", "client.p99_us, server_cpu_us_per_op on lod-churn; none on lod-warm"),
    layer("core.tick_us", "us", Lower, "probe: ServerEngine::tick closing a statistics window", "client.p99_us on lod-churn; none on lod-warm"),
    layer("core.publish_us", "us", Lower, "live: EngineLock + ServerEngine::publish, timed around the generator's call", "client.p99_us on lod-churn; none on lod-warm"),
    layer("core.stream_chunk_ns_per_kb", "ns/KB", Lower, "probe: draining the StreamBody of a streamed outcome in 64 KiB chunks", "sat_mb_per_s, ttfb_p50_us on seq-stream; none on lod-*"),
    layer("core.migrations", "count", Higher, "live: EngineStats::migrations", "explains client.cold_ops_per_s on lod-cluster, lod-churn"),
    layer("core.remigrations", "count", Lower, "live: EngineStats::remigrations", "explains client.cold_ops_per_s"),
    layer("core.revocations", "count", Lower, "live: EngineStats::revocations", "explains client.cold_ops_per_s"),
    layer("core.regenerations", "count", Lower, "live: EngineStats::regenerations", "explains client.p99_us on lod-churn"),
    layer("core.pulls_served", "count", Higher, "live: EngineStats::pulls_served", "explains client.cold_ops_per_s on lod-cluster"),
    layer("core.validations_refreshed", "count", Higher, "live: EngineStats::validations_refreshed", "explains client.p99_us on lod-churn"),
    layer("core.streamed_serves", "count", Higher, "live: EngineStats::streamed_serves", "explains sat_mb_per_s on seq-stream"),
    layer("core.stale_serves", "count", Lower, "live: EngineStats::stale_serves", "explains failures on lod-churn"),
    layer("core.redirect_share", "ratio", Lower, "live: EngineStats redirects / requests", "p50_us (extra hop) on lod-cluster"),
    layer("core.coop_serve_share", "ratio", Higher, "live, second half of the measured window: served_coop / (served_home + served_coop)", "sat_ops_per_s on lod-cluster"),
    layer("core.readpath_fallback_share", "ratio", Lower, "live: ReadPathStats::fallbacks / requests", "p50_us on lod-cluster"),
    layer("core.balance_s", "s", Lower, "client-side: end of the first 500-ms window in which co-ops answered at least half the ops (run length when never)", "client.cold_ops_per_s on lod-cluster"),
    layer("core.republish_applied_share", "ratio", Higher, "harness: scheduled republishes applied / scheduled (1 when none are scheduled)", "validity of lod-churn"),
    // dcws-net
    layer("net.inline_ratio", "ratio", Higher, "live: ReactorStats inline_served / (inline_served + spillover_jobs)", "p50_us on lod-warm; client.p99_us on lod-churn"),
    layer("net.spill_jobs_per_op", "1/op", Lower, "live: ReactorStats::spillover_jobs / ops", "client.p99_us on lod-churn; none on lod-warm"),
    layer("net.rejected_503", "count", Lower, "live: ReactorStats::spillover_rejected", "failures on lod-churn"),
    layer("net.queue_wait_p50_us", "us", Lower, "live: TransportMetrics::queue_wait histogram (factor-of-two buckets)", "client.p99_us on lod-churn"),
    layer("net.queue_wait_p99_us", "us", Lower, "live: TransportMetrics::queue_wait histogram", "client.p99_us on lod-churn"),
    layer("net.service_p50_us", "us", Lower, "live: TransportMetrics::service_time histogram", "p50_us on lod-warm"),
    layer("net.service_p99_us", "us", Lower, "live: TransportMetrics::service_time histogram", "client.p99_us on lod-warm"),
    layer("net.ready_batch_mean", "count", Higher, "live: ReactorStats batch_events / batches", "p50_us on lod-warm"),
    layer("net.accepted", "count", Lower, "live: ReactorStats::accepted (client and peer connections)", "client.cold_ops_per_s on lod-cluster"),
    layer("net.accept_errors", "count", Lower, "live: ReactorStats::accept_errors", "failures"),
    layer("net.writev_calls_per_op", "1/op", Lower, "live: ReactorStats::writev_calls / ops", "sat_mb_per_s, server_cpu_us_per_op on seq-stream"),
    layer("net.writev_segments_per_call", "count", Higher, "live: ReactorStats writev_segments / writev_calls", "sat_mb_per_s on seq-stream"),
    layer("net.body_copies", "count", Lower, "live: ReactorStats::body_copies", "sat_mb_per_s on seq-stream"),
    layer("net.cpu_reactor_share", "ratio", Higher, "procfs, measured window: dcws-reactor-* on-CPU time / all server threads", "server_cpu_us_per_op on every TCP workload"),
    layer("net.cpu_worker_share", "ratio", Lower, "procfs, measured window: dcws-worker-* share", "server_cpu_us_per_op on lod-churn"),
    layer("net.cpu_pinger_share", "ratio", Lower, "procfs, measured window: dcws-pinger share", "server_cpu_us_per_op on lod-cluster"),
    layer("net.ctx_switches_per_op", "1/op", Lower, "procfs, measured window: voluntary + involuntary switches of server threads / ops the engines served", "server_cpu_us_per_op on every TCP workload"),
    layer("net.pull_attempts", "count", Lower, "live: Transport IoSnapshot::attempts", "client.cold_ops_per_s on lod-cluster"),
    layer("net.retries", "count", Lower, "live: IoSnapshot::retries", "client.p99_us on lod-cluster"),
    layer("net.stale_reuse_retries", "count", Lower, "live: IoSnapshot::stale_retries", "client.p99_us on lod-cluster"),
    layer("net.pool_reuse_ratio", "ratio", Higher, "live: ConnPool hits / (hits + dials)", "client.cold_ops_per_s on lod-cluster"),
    layer("net.peer_rtt_us", "us", Lower, "live: /dcws/status transport.peer_rtt_ms, mean over peers", "client.cold_ops_per_s on lod-cluster"),
    layer("net.residual_us", "us", Lower, "derived: client.raw_p50_us - (http.parse + core.try_serve|handle_hit + http.head), all as the clock read them: sockets, reactor, scheduler", "p50_us on lod-warm"),
    // the harness itself
    layer("client.lateness_p99_us", "us", Lower, "paced blocks: p99 of send time - due time", "validity of p50_us, client.p99_us"),
    layer("client.cpu_us_per_op", "us", Lower, "procfs, sat blocks: bench-gen-* on-CPU time / ops, scaled like server_cpu_us_per_op; median block", "validity of sat_ops_per_s"),
    layer("client.hops_per_op", "count", Lower, "HTTP exchanges per verified op", "p50_us on lod-cluster"),
    layer("client.backoffs_per_op", "count", Lower, "503 back-offs per verified op", "client.p99_us"),
    layer("client.body_us", "us", Lower, "first to last byte of the final response, median of a 1-in-16 sample", "sat_mb_per_s on seq-stream"),
    layer("client.placement_tries", "count", Lower, "connections dialled before the timed phases, placement redials included", "setup_s"),
    layer("client.wrong_bytes", "count", Lower, "responses failing the length, range or byte comparison", "correctness"),
    layer("client.fail_share", "ratio", Lower, "failed ops / attempted ops, all phases", "correctness"),
    layer("client.partial_share", "ratio", Lower, "share of verified ops answered 206", "validity of seq-stream"),
    layer("client.sat_p50_us", "us", Lower, "sat blocks: median op latency of a 1-in-16 sample", "sat_ops_per_s"),
    layer("client.cold_ops_per_s", "op/s", Higher, "warm-up (closed loop from the first request after spawn, nothing primed): median 100-ms tick of verified ops, as a rate; follows the Fig. 8 warm-up curve", "what a cold start costs; on lod-cluster what the first migrations cost"),
    layer("client.sessions", "count", Higher, "Algorithm-2 sessions started", "validity of lod-cluster"),
    layer("client.raw_setup_s", "s", Lower, "set-up as the clock read it; median of the run's build-to-ready repeats", "setup_s before scaling by the reference"),
    layer("client.ref_work_us", "us", Lower, "the reference computation (reference::Work), run before and after every set-up; median", "machine drift, not program change; setup_s is client.raw_setup_s over this, times the nominal"),
    layer("client.ref_paced_us", "us", Lower, "paced blocks: median reference round trip of a thread in a block, timed from when it was due; median over threads and blocks (sim-lod: the reference computation)", "machine drift, not program change: when this moved between two runs, the machine did"),
    layer("client.ref_sat_us", "us", Lower, "sat blocks: mean reference round trip of a block, back to back; median over blocks (sim-lod: the reference computation)", "machine drift, not program change; sat_ops_per_s is client.raw_sat_ops_per_s times this, over the nominal"),
    layer("client.ref_sat_mb_per_s", "MB/s", Higher, "sat blocks: bytes the reference round trips of a block brought back over the time they took; median over blocks (sim-lod: 0)", "machine drift, not program change; sat_mb_per_s is what the clock read over this, times the nominal"),
    layer("client.raw_p50_us", "us", Lower, "paced blocks: median op latency of a thread in a block as the clock read it; median over threads and blocks", "p50_us before scaling by the reference"),
    layer("client.raw_sat_ops_per_s", "op/s", Higher, "sat blocks: ops over the time they took, summed over threads, as the clock read it; median over blocks", "sat_ops_per_s before scaling by the reference"),
    layer("client.p99_us", "us", Lower, "paced blocks: p99 of each block (>= 1000 ops each), the median block; pooled p99 when blocks hold fewer; the slowest op when the window holds fewer", "the tail; on the reference box it is the hypervisor's more often than the servers'"),
    layer("client.trace_overhead_share", "ratio", Lower, "traced run: (untraced - traced) / untraced sat_ops_per_s, alternate sat blocks", "validity of probe timings"),
    // dcws-sim
    layer("sim.wall_s", "s", Lower, "wall time of one SimCluster::new + run as the clock read it, median", "p50_us on sim-lod"),
    layer("sim.events_per_s", "1/s", Higher, "SimResult::events / wall time of SimCluster::run as the clock read it, median", "sat_ops_per_s on sim-lod"),
    layer("sim.events_per_session", "count", Lower, "SimResult events / totals.sessions", "sat_ops_per_s on sim-lod"),
    layer("sim.queue_ns_per_event", "ns", Lower, "probe: EventQueue push + pop at the run's standing length", "sat_ops_per_s on sim-lod"),
    layer("sim.sessions", "count", Higher, "SimResult totals.sessions", "validity of sim-lod"),
    layer("sim.migrations", "count", Higher, "SimResult::migrations", "validity of sim-lod"),
    layer("sim.drop_share", "ratio", Lower, "SimResult totals drops / (completed + drops)", "explains sat_ops_per_s on sim-lod"),
    layer("sim.digest_match", "count", Higher, "1 when every run's SimResult::digest equals the first", "correctness of sim-lod"),
    // dcws-workloads
    layer("workloads.generate_ms", "ms", Lower, "Dataset generator, timed in set-up", "setup_s"),
    layer("workloads.materialize_mb_per_s", "MB/s", Higher, "dcws_workloads::materialize over the corpus, timed in set-up", "setup_s"),
];

/// Values of one run, by metric name.
pub type Values = BTreeMap<&'static str, Summary>;

pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The whole of `BENCHMARK.json`, written from the tables in the code.
pub fn contract_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = crate::workload::WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound.expect("end-to-end metrics have bounds")
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// A markdown glossary of every metric, for the README.
pub fn glossary_markdown() -> String {
    let mut out =
        String::from("| metric | unit | better | bound | source |\n|---|---|---|---|---|\n");
    for d in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.map_or(String::new(), |b| b.to_string()),
            d.source
        ));
    }
    out.push_str("\n| metric | unit | source | should move |\n|---|---|---|---|\n");
    for d in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            d.name, d.unit, d.source, d.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn ok_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} twice", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for d in END_TO_END {
            let b = d.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is written from this table (`--emit-contract`);
    /// this holds the committed file to it.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = dcws_core::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_arr()).expect(key);
            let names: Vec<&str> = listed
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap())
                .collect();
            let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, want, "{key}");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some(d.unit));
                assert_eq!(
                    m.get("better").and_then(|v| v.as_str()),
                    Some(d.better.as_str())
                );
                assert_eq!(
                    m.get("bound").and_then(|v| v.as_f64()),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        }
    }
}
