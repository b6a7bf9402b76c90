//! The Global Load Table (GLT) of §3.3.
//!
//! Each server keeps a *local* copy of the whole group's load, one
//! `(Server, LoadMetric)` tuple per peer, refreshed best-effort from
//! piggybacked `X-DCWS-Load` reports. Merging is last-writer-wins on the
//! report timestamp, which makes it commutative and idempotent — gossip can
//! arrive duplicated and out of order through any transfer path.

use crate::metrics::BalanceMetric;
use crate::ServerId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One server's load measurement as stored in the GLT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadInfo {
    /// Connections per second over the measurement window.
    pub cps: f64,
    /// Bytes per second over the measurement window.
    pub bps: f64,
    /// Measurement timestamp in milliseconds.
    pub ts_ms: u64,
}

impl LoadInfo {
    /// A row for a server nothing has been heard from yet: zero load at
    /// timestamp 0, so any real report supersedes it.
    const UNHEARD: LoadInfo = LoadInfo {
        cps: 0.0,
        bps: 0.0,
        ts_ms: 0,
    };

    /// The value used for balancing decisions under `metric`.
    pub fn value(&self, metric: BalanceMetric) -> f64 {
        match metric {
            BalanceMetric::Cps => self.cps,
            BalanceMetric::Bps => self.bps,
        }
    }
}

/// One row: a server's measurement, and beside it the text the table's
/// owner last encoded it to (see [`GlobalLoadTable::encoded_peers`]).
///
/// The fields are private to this module and [`Row::set`] is the only way
/// the measurement changes, so the encoded text can never describe
/// anything but the measurement it sits beside.
#[derive(Debug, Clone)]
struct Row {
    info: LoadInfo,
    encoded: Option<Arc<str>>,
}

impl Row {
    fn new(info: LoadInfo) -> Row {
        Row {
            info,
            encoded: None,
        }
    }

    /// Replace the measurement, dropping the text encoded from the old one.
    fn set(&mut self, info: LoadInfo) {
        self.info = info;
        self.encoded = None;
    }
}

/// Best-effort global load table: this server's view of the group.
///
/// Rows are kept ordered by server id. Every reader that needs a
/// deterministic order — the piggyback prefix, the pinger's candidate
/// list, the co-op tie-break — gets it by walking the table, so none of
/// them sorts or copies ids, and a reader that wants only the first few
/// rows ([`Self::iter`]) pays for only those.
#[derive(Debug, Clone)]
pub struct GlobalLoadTable {
    self_id: ServerId,
    rows: BTreeMap<ServerId, Row>,
}

impl GlobalLoadTable {
    /// A table for server `self_id`, knowing only itself (at zero load).
    pub fn new(self_id: ServerId) -> Self {
        let mut rows = BTreeMap::new();
        rows.insert(self_id.clone(), Row::new(LoadInfo::UNHEARD));
        GlobalLoadTable { self_id, rows }
    }

    /// This server's identity.
    pub fn self_id(&self) -> &ServerId {
        &self.self_id
    }

    /// Register a peer with no load information yet (joins at ts 0, so any
    /// real report immediately supersedes it).
    pub fn add_peer(&mut self, peer: ServerId) {
        self.rows
            .entry(peer)
            .or_insert_with(|| Row::new(LoadInfo::UNHEARD));
    }

    /// Remove a peer entirely (it was declared dead by the pinger).
    pub fn remove_peer(&mut self, peer: &ServerId) {
        if peer != &self.self_id {
            self.rows.remove(peer);
        }
    }

    /// Merge one report: kept only if strictly newer than what we have
    /// (last-writer-wins). Returns whether the table changed.
    pub fn update(&mut self, server: ServerId, info: LoadInfo) -> bool {
        match self.rows.get_mut(&server) {
            Some(cur) if cur.info.ts_ms >= info.ts_ms => false,
            Some(cur) => {
                cur.set(info);
                true
            }
            None => {
                self.rows.insert(server, Row::new(info));
                true
            }
        }
    }

    /// Whether [`Self::update`] would keep a report about `server`
    /// measured at `ts_ms`: the server is unknown, or the report is
    /// strictly newer than its row. Takes the id as text, so a receiver
    /// can drop a stale report before building anything from it.
    pub fn would_accept(&self, server: &str, ts_ms: u64) -> bool {
        match self.rows.get(server) {
            Some(cur) => cur.info.ts_ms < ts_ms,
            None => true,
        }
    }

    /// Overwrite our own entry with a fresh local measurement.
    pub fn set_self(&mut self, cps: f64, bps: f64, ts_ms: u64) {
        self.rows
            .get_mut(&self.self_id)
            .expect("the self row is never removed")
            .set(LoadInfo { cps, bps, ts_ms });
    }

    /// Our own current entry.
    pub fn self_info(&self) -> LoadInfo {
        self.rows[&self.self_id].info
    }

    /// Look up a server's info.
    pub fn get(&self, server: &ServerId) -> Option<LoadInfo> {
        self.rows.get(server).map(|r| r.info)
    }

    /// Every row (self included) in id order, by reference.
    pub fn iter(&self) -> impl Iterator<Item = (&ServerId, &LoadInfo)> {
        self.rows.iter().map(|(s, r)| (s, &r.info))
    }

    /// Every peer's row (self excluded) in id order, as the text `encode`
    /// makes of it. The text is kept beside the row: `encode` runs for a
    /// row only if it has not run since the row was last written, and a
    /// reader that stops early encodes nothing past where it stopped.
    /// Every write to a row (`update`, `set_self`, removal) drops its
    /// text, so what this yields is always `encode` of the current row —
    /// provided the caller always passes the same pure `encode`.
    pub fn encoded_peers<'a>(
        &'a mut self,
        mut encode: impl FnMut(&ServerId, &LoadInfo) -> Arc<str> + 'a,
    ) -> impl Iterator<Item = &'a Arc<str>> + 'a {
        let self_id = &self.self_id;
        self.rows
            .iter_mut()
            .filter(move |(sid, _)| *sid != self_id)
            .map(move |(sid, row)| {
                let Row { info, encoded } = row;
                &*encoded.get_or_insert_with(|| encode(sid, info))
            })
    }

    /// All known servers (including self), in id order.
    pub fn servers(&self) -> Vec<ServerId> {
        self.rows.keys().cloned().collect()
    }

    /// Number of known servers including self.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether only this server is known.
    pub fn is_empty(&self) -> bool {
        self.rows.len() <= 1
    }

    /// The least-loaded server under `metric`, excluding self and any
    /// server in `exclude`. This is the §4.2 co-op selection: *"the server
    /// with the lowest LoadMetric value is selected from the global load
    /// table"*. Ties break on server id for determinism: the walk is in
    /// id order and `min_by` keeps the first of equal minima.
    pub fn least_loaded(&self, metric: BalanceMetric, exclude: &[ServerId]) -> Option<ServerId> {
        self.iter()
            .filter(|(s, _)| **s != self.self_id && !exclude.contains(s))
            .min_by(|(_, a), (_, b)| {
                a.value(metric)
                    .partial_cmp(&b.value(metric))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(s, _)| s.clone())
    }

    /// Peers whose information is older than `max_age_ms` at `now_ms` —
    /// candidates for an artificial pinger transfer (§4.5) — in id
    /// order, by reference.
    pub fn stale(&self, now_ms: u64, max_age_ms: u64) -> impl Iterator<Item = &ServerId> {
        self.iter()
            .filter(move |(s, i)| {
                **s != self.self_id && now_ms.saturating_sub(i.ts_ms) > max_age_ms
            })
            .map(|(s, _)| s)
    }

    /// [`Self::stale`], collected.
    pub fn stale_peers(&self, now_ms: u64, max_age_ms: u64) -> Vec<ServerId> {
        self.stale(now_ms, max_age_ms).cloned().collect()
    }

    /// Copy of every entry in id order.
    pub fn snapshot(&self) -> Vec<(ServerId, LoadInfo)> {
        self.iter().map(|(s, i)| (s.clone(), *i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(cps: f64, ts: u64) -> LoadInfo {
        LoadInfo {
            cps,
            bps: cps * 1000.0,
            ts_ms: ts,
        }
    }

    #[test]
    fn new_table_knows_self() {
        let t = GlobalLoadTable::new(ServerId::new("me:1"));
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.self_info().cps, 0.0);
    }

    #[test]
    fn update_is_last_writer_wins() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        let p = ServerId::new("p:1");
        assert!(t.update(p.clone(), info(5.0, 100)));
        assert!(!t.update(p.clone(), info(9.0, 50)), "older report ignored");
        assert_eq!(t.get(&p).unwrap().cps, 5.0);
        assert!(t.update(p.clone(), info(2.0, 200)));
        assert_eq!(t.get(&p).unwrap().cps, 2.0);
    }

    #[test]
    fn update_same_ts_ignored_for_idempotence() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        let p = ServerId::new("p:1");
        t.update(p.clone(), info(5.0, 100));
        assert!(!t.update(p.clone(), info(7.0, 100)));
        assert_eq!(t.get(&p).unwrap().cps, 5.0);
    }

    #[test]
    fn least_loaded_excludes_self_and_list() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        t.set_self(0.0, 0.0, 10); // self has the lowest load but is excluded
        t.update(ServerId::new("a:1"), info(5.0, 10));
        t.update(ServerId::new("b:1"), info(3.0, 10));
        t.update(ServerId::new("c:1"), info(9.0, 10));
        assert_eq!(
            t.least_loaded(BalanceMetric::Cps, &[]),
            Some(ServerId::new("b:1"))
        );
        assert_eq!(
            t.least_loaded(BalanceMetric::Cps, &[ServerId::new("b:1")]),
            Some(ServerId::new("a:1"))
        );
    }

    #[test]
    fn least_loaded_tie_breaks_on_id() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        t.update(ServerId::new("b:1"), info(1.0, 10));
        t.update(ServerId::new("a:1"), info(1.0, 10));
        assert_eq!(
            t.least_loaded(BalanceMetric::Cps, &[]),
            Some(ServerId::new("a:1"))
        );
    }

    #[test]
    fn least_loaded_none_when_alone() {
        let t = GlobalLoadTable::new(ServerId::new("me:1"));
        assert_eq!(t.least_loaded(BalanceMetric::Cps, &[]), None);
    }

    #[test]
    fn bps_metric_changes_choice() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        t.update(
            ServerId::new("a:1"),
            LoadInfo {
                cps: 1.0,
                bps: 9e6,
                ts_ms: 1,
            },
        );
        t.update(
            ServerId::new("b:1"),
            LoadInfo {
                cps: 9.0,
                bps: 1e3,
                ts_ms: 1,
            },
        );
        assert_eq!(
            t.least_loaded(BalanceMetric::Cps, &[]),
            Some(ServerId::new("a:1"))
        );
        assert_eq!(
            t.least_loaded(BalanceMetric::Bps, &[]),
            Some(ServerId::new("b:1"))
        );
    }

    #[test]
    fn stale_peers_detected() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        t.update(ServerId::new("old:1"), info(1.0, 1_000));
        t.update(ServerId::new("new:1"), info(1.0, 9_000));
        assert_eq!(t.stale_peers(10_000, 5_000), vec![ServerId::new("old:1")]);
        assert!(t.stale_peers(10_000, 60_000).is_empty());
    }

    #[test]
    fn add_peer_then_report_supersedes() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        t.add_peer(ServerId::new("p:1"));
        assert_eq!(t.get(&ServerId::new("p:1")).unwrap().ts_ms, 0);
        assert!(t.update(ServerId::new("p:1"), info(4.0, 1)));
        // add_peer never clobbers existing info.
        t.add_peer(ServerId::new("p:1"));
        assert_eq!(t.get(&ServerId::new("p:1")).unwrap().cps, 4.0);
    }

    #[test]
    fn remove_peer_protects_self() {
        let me = ServerId::new("me:1");
        let mut t = GlobalLoadTable::new(me.clone());
        t.add_peer(ServerId::new("p:1"));
        t.remove_peer(&ServerId::new("p:1"));
        assert_eq!(t.len(), 1);
        t.remove_peer(&me);
        assert_eq!(t.len(), 1, "self entry cannot be removed");
    }

    #[test]
    fn would_accept_is_updates_verdict() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        t.update(ServerId::new("p:1"), info(5.0, 100));
        for (server, ts) in [
            ("p:1", 99),
            ("p:1", 100),
            ("p:1", 101),
            ("q:1", 0),
            ("me:1", 0),
        ] {
            let mut probe = t.clone();
            assert_eq!(
                t.would_accept(server, ts),
                probe.update(ServerId::new(server), info(1.0, ts)),
                "{server} at {ts}"
            );
        }
    }

    /// The texts `encoded_peers` yields, with how often it had to encode.
    fn encoded(t: &mut GlobalLoadTable) -> (Vec<String>, usize) {
        let mut runs = 0;
        let texts = t
            .encoded_peers(|s, i| {
                runs += 1;
                format!("{s}@{}:{}", i.ts_ms, i.cps).into()
            })
            .map(|e| e.to_string())
            .collect();
        (texts, runs)
    }

    #[test]
    fn encoded_peers_encodes_a_row_once_per_write() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        t.update(ServerId::new("b:1"), info(1.0, 1));
        t.update(ServerId::new("a:1"), info(2.0, 1));
        // Id order, self excluded; everything encoded on first sight.
        assert_eq!(
            encoded(&mut t),
            (vec!["a:1@1:2".to_string(), "b:1@1:1".to_string()], 2)
        );
        assert_eq!(encoded(&mut t).1, 0, "unchanged rows are not re-encoded");
        // Writes that leave a row as it was keep its text.
        assert!(!t.update(ServerId::new("a:1"), info(9.0, 1)));
        t.add_peer(ServerId::new("a:1"));
        t.set_self(7.0, 7.0, 7);
        assert_eq!(encoded(&mut t).1, 0);
        // An accepted report drops that row's text, and only that row's.
        assert!(t.update(ServerId::new("a:1"), info(3.0, 2)));
        assert_eq!(
            encoded(&mut t),
            (vec!["a:1@2:3".to_string(), "b:1@1:1".to_string()], 1)
        );
        // A new row has none yet.
        t.add_peer(ServerId::new("0:1"));
        let (texts, runs) = encoded(&mut t);
        assert_eq!((texts[0].as_str(), runs), ("0:1@0:0", 1));
        // A removed row takes its text with it.
        t.remove_peer(&ServerId::new("a:1"));
        t.add_peer(ServerId::new("a:1"));
        let (texts, runs) = encoded(&mut t);
        assert_eq!((texts[1].as_str(), runs), ("a:1@0:0", 1));
    }

    #[test]
    fn encoded_peers_stops_encoding_where_the_reader_stops() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        for id in ["a:1", "b:1", "c:1"] {
            t.add_peer(ServerId::new(id));
        }
        let mut runs = 0;
        let first = t
            .encoded_peers(|s, _| {
                runs += 1;
                s.as_str().into()
            })
            .take(2)
            .count();
        assert_eq!((first, runs), (2, 2));
        assert_eq!(encoded(&mut t).1, 1, "only c:1 was still to encode");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut t = GlobalLoadTable::new(ServerId::new("me:1"));
        t.update(ServerId::new("b:1"), info(1.0, 1));
        t.update(ServerId::new("a:1"), info(2.0, 1));
        let snap = t.snapshot();
        let ids: Vec<String> = snap.iter().map(|(s, _)| s.to_string()).collect();
        assert_eq!(ids, vec!["a:1", "b:1", "me:1"]);
    }
}
