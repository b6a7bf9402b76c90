//! The simulator's driver of Algorithm 2. Every client is a
//! [`dcws_net::walker::Walker`], the state machine `dcws-walk` drives too;
//! the walker decides what to fetch and when to wait, and this adapter
//! keeps what is the substrate's: routing and sending each fetch, wakes on
//! the event queue (plus `client_overhead_us`, but for a back-off),
//! [`Counters`](crate::Counters) and latency, the cluster-wide parse cache
//! in front of [`Links::parse`], and the scenario shapes that apply at a
//! session start (`client_stops`, `hot_entry`). Open-loop replay
//! (`cluster.rs`) sends through the same router without a walker.

use crate::cluster::{router_idx, SimCluster};
use crate::event::{Delivery, Event, Incoming, Origin};
use crate::fxhash::{FxHashMap, FxHasher};
use dcws_baselines::Strategy;
use dcws_http::{Body, Url};
use dcws_net::walker::{Heard, Links, Next, Walker};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// A simulated client. Its session cache holds URLs the simulator built,
/// never a peer's choice, hence the fixed hasher (see `fxhash`).
pub(crate) type SimWalker = Walker<BuildHasherDefault<FxHasher>>;

/// Page parses by final URL, valid for the body they were parsed from:
/// servers hand out one shared `Body` per document version, so the check
/// is a pointer compare nearly always (a byte compare otherwise), and a
/// regenerated document is re-parsed. Simulator-built keys, fixed hasher.
pub(crate) type ParseCache = FxHashMap<Arc<Url>, (Body, Arc<Links>)>;

impl SimCluster {
    /// A wake a client asked for is due.
    pub(crate) fn client_wake(&mut self, client: usize) {
        let (now, now_ms) = (self.now, self.now / 1_000);
        if self.clients[client].between_sessions() {
            // Retired client: the session that would start now never does
            // (diurnal ramp-down). No further wakes.
            let stops = self.cfg.client_stops.as_deref();
            if stops.is_some_and(|s| now_ms >= s[client]) {
                return;
            }
            let hot = match &self.cfg.hot_entry {
                Some(h) if now_ms >= h.from_ms && h.entry < self.entry_urls.len() => {
                    Some((h.entry, h.prob))
                }
                _ => None,
            };
            self.clients[client].begin_session(now, &self.entry_urls, hot);
        } else {
            self.clients[client].wake(now);
        }
        self.client_drive(client);
    }

    /// The reply to a client's fetch `token`, or its failure.
    pub(crate) fn client_deliver(&mut self, client: usize, token: u64, delivery: Delivery) {
        let (now, walker, cache) = (self.now, &mut self.clients[client], &mut self.parse_cache);
        let heard = match delivery.reply() {
            None => walker.on_failed(now, token),
            Some(reply) => walker.on_reply(now, token, reply, |url, body| {
                parsed_links(cache, url, body)
            }),
        };
        let bytes = delivery.body_len();
        let c = &mut self.counters;
        match heard {
            // E.g. a response after a crash reset: dropped, uncounted.
            Heard::Stale => return,
            Heard::Completed { issued_at } => {
                c.completed += 1;
                c.bytes += bytes as u64;
                self.latency_us_sum += now - issued_at;
                self.latency.record_us(now - issued_at);
            }
            Heard::Dropped => c.drops += 1,
            Heard::Redirected => c.redirects += 1,
            Heard::Failed => c.failures += 1,
        }
        self.client_drive(client);
    }

    /// Carry out what the walker asked for: its fetches in order, then
    /// its wake.
    fn client_drive(&mut self, client: usize) {
        while let Some(next) = self.clients[client].poll() {
            let wake_at = match next {
                Next::Fetch { token, url } => {
                    self.send_client_request(client, url, token);
                    continue;
                }
                Next::SessionEnd => {
                    self.counters.sessions += 1;
                    continue;
                }
                Next::Wake { think_us } => self.now + self.cfg.cost.client_overhead_us + think_us,
                Next::Backoff { delay_us } => self.now + delay_us,
            };
            self.queue.push(wake_at, Event::ClientWake { client });
        }
    }

    /// Resolve a simulator host name (`s<idx>`, port 80) to a server slab
    /// index without building a `ServerId` — this sits on every client
    /// request, and is what keeps routing allocation-free.
    pub(crate) fn host_to_idx(&self, host: &str, port: u16) -> Option<usize> {
        if port != 80 {
            return None;
        }
        let idx: usize = host.strip_prefix('s')?.parse().ok()?;
        (idx < self.servers.len()).then_some(idx)
    }

    /// Route a client request for `url` to a server index per strategy.
    fn route(&mut self, client: usize, url: &Url) -> Option<usize> {
        match &self.cfg.strategy {
            Strategy::Dcws => {
                let host = url.host()?;
                self.host_to_idx(host, url.port())
            }
            Strategy::Single => Some(0),
            Strategy::RoundRobinDns { .. } => {
                let dns = self.dns.as_mut().expect("dns strategy has resolver");
                let sid = dns.resolve(client, self.now / 1_000);
                self.id_to_idx.get(&sid).copied()
            }
            Strategy::CentralRouter { .. } => Some(router_idx(self.servers.len())),
        }
    }

    /// Send a client's `GET url`. It travels as the URL: the server builds
    /// a [`Request`](dcws_http::Request) only if its read path declines.
    pub(crate) fn send_client_request(&mut self, client: usize, url: Arc<Url>, token: u64) {
        if self.cfg.record_trace {
            self.trace_out.push(crate::trace::TraceEvent {
                t_ms: self.now / 1_000,
                client,
                url: url.to_string(),
            });
        }
        let Some(target) = self.route(client, &url) else {
            // Unroutable (e.g. absolute link to a host outside the group):
            // synthesize a failure.
            self.queue.push(
                self.now + 1,
                Event::Deliver {
                    origin: Origin::Client { id: client, token },
                    delivery: Delivery::Failed,
                },
            );
            return;
        };
        self.queue.push(
            self.now + self.cfg.cost.latency_us,
            Event::RequestArrive {
                server: target,
                req: Incoming::ClientGet(url),
                origin: Origin::Client { id: client, token },
            },
        );
    }
}

/// The links of the HTML page `body` fetched from `url`, from the parse
/// cache when it holds them for exactly these bytes.
fn parsed_links(cache: &mut ParseCache, url: &Arc<Url>, body: &Body) -> Arc<Links> {
    if let Some((parsed_from, links)) = cache.get_mut(&**url) {
        if parsed_from == body {
            // Equal bytes under a new allocation (a re-pulled copy):
            // remember it, so the next compare is by pointer again.
            *parsed_from = body.clone();
            return links.clone();
        }
    }
    let links = Arc::new(Links::parse(url, body));
    cache.insert(url.clone(), (body.clone(), links.clone()));
    links
}
