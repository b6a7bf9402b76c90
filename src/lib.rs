//! # DCWS — Distributed Cooperative Web Server
//!
//! A complete Rust implementation of *"Scalable Web Server Design for
//! Distributed Data Management"* (Scott M. Baker & Bongki Moon, Univ. of
//! Arizona TR 98-8 / ICDE 1999): application-level web-server load
//! balancing by **dynamic hyperlink rewriting** — no router, no custom
//! DNS, no shared filesystem.
//!
//! This crate is the facade over the workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`http`] | HTTP/1.x substrate: messages, incremental parser, `X-DCWS-Load` piggyback codec |
//! | [`html`] | HTML substrate: link extraction and hyperlink rewriting over one borrowed scan |
//! | [`graph`] | Local Document Graph, Global Load Table, load metrics, Algorithm 1 |
//! | [`core`] | The sans-IO DCWS engine: migration, regeneration, redirects, consistency timers |
//! | [`net`] | Real threaded TCP transport (front-end / workers / pinger) |
//! | [`sim`] | Discrete-event cluster simulator replacing the paper's 64-node testbed |
//! | [`workloads`] | Calibrated synthetic recreations of the four paper datasets |
//! | [`baselines`] | Round-robin DNS, central TCP router, and single-server comparators |
//!
//! ## Quickstart
//!
//! Run two cooperating servers on localhost and watch a document migrate:
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! Reproduce the paper's evaluation (§5), every figure and table over
//! five seeds, checked against the paper:
//!
//! ```bash
//! cargo run --release -p dcws-bench --bin reproduce
//! ```

#![warn(missing_docs)]

pub use dcws_baselines as baselines;
pub use dcws_core as core;
pub use dcws_graph as graph;
pub use dcws_html as html;
pub use dcws_http as http;
pub use dcws_net as net;
pub use dcws_sim as sim;
pub use dcws_workloads as workloads;

/// Version of the DCWS workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let _ = crate::VERSION;
        let _ = crate::core::ServerConfig::paper_defaults();
        let _ = crate::graph::LocalDocGraph::new();
    }
}
