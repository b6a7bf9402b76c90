//! Discrete-event cluster simulator for DCWS — the stand-in for the
//! paper's 64-workstation testbed (§5.2).
//!
//! The simulator runs **real** [`dcws_core::ServerEngine`]s (the same code
//! the TCP transport hosts, reached the same way: the read path first, the
//! engine for what it declines): documents really migrate, hyperlinks are
//! really rewritten, piggybacked gossip really flows. What's modeled is
//! hardware: per-server CPU and NIC, the switch's aggregate bandwidth,
//! socket-queue backlog with graceful 503 drops, and client workstation
//! overhead — all parameterized by [`CostModel`], calibrated to the 1998
//! testbed.
//!
//! Clients implement Algorithm 2 (Figure 5) faithfully: random-length
//! walks from well-known entry points, a per-session client-side cache,
//! four parallel image-fetch helpers, 301 following, and exponential
//! back-off on 503 drops. Each is a [`dcws_net::walker::Walker`] — the
//! state machine `dcws-walk` drives over TCP — under the adapter in
//! `client.rs`. They parse the *actual served bytes* with `dcws-html` to
//! pick the next link — so stale links, rewritten links, and redirect
//! chains behave exactly as they would against real servers.
//!
//! Baselines (round-robin DNS, central TCP router, single server) plug in
//! via [`dcws_baselines::Strategy`].
//!
//! # Example
//!
//! ```
//! use dcws_sim::{run_sim, SimConfig};
//! use dcws_workloads::Dataset;
//!
//! let mut cfg = SimConfig::paper(Dataset::lod(1), 2, 8);
//! cfg.duration_ms = 30_000;  // short demo run
//! let result = run_sim(cfg);
//! assert!(result.totals.completed > 0);
//! ```

#![warn(missing_docs)]

pub mod alloc;
mod client;
pub mod cluster;
pub mod config;
pub mod cost;
pub mod event;
mod fxhash;
pub mod metrics;
pub mod scenario;
pub mod seed;
pub mod trace;

pub use cluster::{run_sim, OwnershipAudit, SimCluster};
pub use config::{ClientModel, HotEntry, NetModel, SimConfig};
pub use cost::CostModel;
pub use metrics::{Counters, EventCounts, GossipCounts, LatencyHist, Sample, SimResult};
pub use scenario::{Scenario, ScenarioKind};
pub use trace::{Trace, TraceEvent};
