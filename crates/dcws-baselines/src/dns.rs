//! Round-robin DNS with client-side TTL caching (the NCSA scalable web
//! server model, reference 16 in the paper).

use dcws_graph::ServerId;
use std::collections::HashMap;

/// A round-robin DNS service plus the per-client resolver caches that make
/// its load distribution coarse-grained.
///
/// Each client resolves the (single) site hostname through this service;
/// the answer is cached for `ttl_ms`. The paper's critique (§1): a low TTL
/// gives fine control but makes the DNS server itself a bottleneck; a high
/// TTL is cheap but lets whole client populations pile onto one address.
#[derive(Debug, Clone)]
pub struct RoundRobinDns {
    servers: Vec<ServerId>,
    ttl_ms: u64,
    next: usize,
    /// Per-client cache: (answer, expires-at-ms).
    cache: HashMap<usize, (ServerId, u64)>,
    /// How many authoritative lookups the DNS server performed.
    pub lookups: u64,
}

impl RoundRobinDns {
    /// A DNS over `servers` with mapping TTL `ttl_ms`.
    ///
    /// # Panics
    /// Panics if `servers` is empty.
    pub fn new(servers: Vec<ServerId>, ttl_ms: u64) -> Self {
        assert!(!servers.is_empty(), "DNS needs at least one server");
        RoundRobinDns {
            servers,
            ttl_ms,
            next: 0,
            cache: HashMap::new(),
            lookups: 0,
        }
    }

    /// Resolve the site name for `client` at time `now_ms`.
    pub fn resolve(&mut self, client: usize, now_ms: u64) -> ServerId {
        if let Some((addr, expires)) = self.cache.get(&client) {
            if now_ms < *expires {
                return addr.clone();
            }
        }
        let addr = self.servers[self.next % self.servers.len()].clone();
        self.next = (self.next + 1) % self.servers.len();
        self.lookups += 1;
        self.cache
            .insert(client, (addr.clone(), now_ms + self.ttl_ms));
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: usize) -> Vec<ServerId> {
        (0..n).map(|i| ServerId::new(format!("s{i}:80"))).collect()
    }

    #[test]
    fn rotates_across_clients() {
        let mut dns = RoundRobinDns::new(servers(3), 1000);
        let a = dns.resolve(0, 0);
        let b = dns.resolve(1, 0);
        let c = dns.resolve(2, 0);
        let d = dns.resolve(3, 0);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, d, "wraps around");
        assert_eq!(dns.lookups, 4);
    }

    #[test]
    fn ttl_caches_per_client() {
        let mut dns = RoundRobinDns::new(servers(3), 1000);
        let a = dns.resolve(0, 0);
        assert_eq!(dns.resolve(0, 500), a, "within TTL: cached");
        assert_eq!(dns.lookups, 1);
        let b = dns.resolve(0, 1500);
        assert_eq!(dns.lookups, 2, "expired: authoritative lookup");
        assert_ne!(a, b, "rotation moved on");
    }

    #[test]
    fn zero_ttl_always_resolves() {
        let mut dns = RoundRobinDns::new(servers(2), 0);
        dns.resolve(0, 10);
        dns.resolve(0, 10);
        dns.resolve(0, 10);
        assert_eq!(dns.lookups, 3);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_server_list_panics() {
        RoundRobinDns::new(vec![], 1000);
    }
}
