//! Algorithm 2 (Fig. 5, §5.2) as a sans-IO state machine: the paper's
//! benchmark client, one copy for every substrate.
//!
//! A [`Walker`] decides what one client fetches and when it waits; its
//! driver (the simulator, or [`crate::client::walk`]) does the I/O and
//! keeps the clock, passing `now` in µs with every input and draining
//! [`Walker::poll`] after each: fetches in order, then at most one wake.
//! A `503` backs off 1 s, 2 s, 4 s … `2^max_backoff_pow` s, each ±25 % (so
//! a population does not retry in synchronized waves); a `200` resets the
//! ladder; a refused connection ends the session after a back-off.
//!
//! The generator is drawn in a fixed order, which the simulator's seeded
//! per-client streams pin: at a session start the walk length, the
//! hot-entry coin (only when a hot entry applies), the entry point (unless
//! the coin chose the hot one); at each step the think time (only when
//! `think_time_ms > 0`), then the hyperlink; one draw per back-off
//! actually scheduled.

use dcws_core::Served;
use dcws_http::{Body, Response, StatusCode, Url};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::sync::Arc;

/// Client-benchmark parameters (Algorithm 2, Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientModel {
    /// Maximum random walk length per session: `no_steps ← random(1..max)`.
    pub max_steps: u32,
    /// Parallel image-fetch helper threads per client (the prototype
    /// benchmark used 4).
    pub helpers: usize,
    /// Whether the per-session client cache is enabled (the paper's
    /// benchmark builds one in; disabling it is an ablation).
    pub cache_enabled: bool,
    /// Maximum 301 redirects followed per fetch before giving up.
    pub max_redirects: u32,
    /// Cap on exponential back-off exponent (sleep = 2^k seconds).
    pub max_backoff_pow: u32,
    /// Mean user think time between walk steps, ms (drawn uniformly from
    /// `0..=2*mean` per step). The paper's benchmark used zero and lists
    /// think time as future work (§6); non-zero values model humans
    /// reading pages and lower each client's offered load accordingly.
    pub think_time_ms: u64,
}

impl Default for ClientModel {
    fn default() -> Self {
        ClientModel {
            max_steps: 25,
            helpers: 4,
            cache_enabled: true,
            max_redirects: 4,
            max_backoff_pow: 6,
            think_time_ms: 0,
        }
    }
}

/// The outgoing links of one fetched page, resolved against the URL it
/// was fetched from; shared (`Arc`) by every client that walks the page.
#[derive(Debug, PartialEq, Eq)]
pub struct Links {
    /// Hyperlinks, in document order (the walk draws from these).
    pub anchors: Vec<Arc<Url>>,
    /// Embedded objects, sorted by URL text and deduplicated.
    pub embeds: Vec<Arc<Url>>,
}

impl Links {
    /// The links of the HTML page `body` fetched from `base`; a link that
    /// does not resolve against `base` is skipped.
    pub fn parse(base: &Url, body: &[u8]) -> Links {
        let mut links = Links {
            anchors: Vec::new(),
            embeds: Vec::new(),
        };
        for l in dcws_html::extract_links(&String::from_utf8_lossy(body)) {
            let Ok(abs) = base.join(&l.url) else {
                continue;
            };
            match l.kind {
                dcws_html::LinkKind::Hyperlink => links.anchors.push(Arc::new(abs)),
                dcws_html::LinkKind::Embedded => links.embeds.push(Arc::new(abs)),
            }
        }
        links.embeds.sort_by_cached_key(|u| u.to_string());
        links.embeds.dedup();
        links
    }
}

/// A reply as the walker reads it: its status, whether it is an HTML
/// page, its body, and — asked of a `301` only — where it points. A driver
/// hands over whichever form it holds: a parsed [`Response`], or a
/// read-path answer still in wire form ([`Served`]).
pub trait Reply {
    /// The status code.
    fn status(&self) -> StatusCode;
    /// Whether `Content-Type` names an HTML page.
    fn is_html(&self) -> bool;
    /// The entity.
    fn body(&self) -> &Body;
    /// The `Location` header parsed as a URL, if present and valid.
    fn location(&self) -> Option<Url>;
}

impl Reply for Response {
    fn status(&self) -> StatusCode {
        self.status
    }

    fn is_html(&self) -> bool {
        is_html(self.headers.get("Content-Type"))
    }

    fn body(&self) -> &Body {
        &self.body
    }

    fn location(&self) -> Option<Url> {
        Response::location(self)
    }
}

impl Reply for Served {
    fn status(&self) -> StatusCode {
        Served::status(self)
    }

    fn is_html(&self) -> bool {
        is_html(self.header("Content-Type"))
    }

    fn body(&self) -> &Body {
        &self.body
    }

    fn location(&self) -> Option<Url> {
        Url::parse(self.header("Location")?).ok()
    }
}

fn is_html(content_type: Option<&str>) -> bool {
    content_type.is_some_and(|ct| ct.starts_with("text/html"))
}

/// What the walker asks its driver to do, as [`Walker::poll`] hands it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Next {
    /// Send `GET url`; hand its reply (or failure) back under `token`.
    Fetch {
        /// Names the fetch; its redirect hops reuse it.
        token: u64,
        /// An absolute URL.
        url: Arc<Url>,
    },
    /// A session ended (walk length reached, or a dead end); a
    /// [`Next::Wake`] follows.
    SessionEnd,
    /// Call [`Walker::wake`] after the client's own processing time plus
    /// `think_us` of user think time.
    Wake {
        /// Drawn think time, µs (0 unless `think_time_ms > 0`).
        think_us: u64,
    },
    /// Call [`Walker::wake`] (or [`Walker::begin_session`], when
    /// [`Walker::between_sessions`]) after exactly `delay_us`.
    Backoff {
        /// The jittered back-off, µs.
        delay_us: u64,
    },
}

/// What a reply or a failure meant to the walker: what a driver counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heard {
    /// The token names no fetch in flight: drop the reply uncounted.
    Stale,
    /// A `200`; the fetch's first request left at `issued_at` (redirect
    /// hops and waits fall inside its latency).
    Completed {
        /// The `now` the fetch was issued at.
        issued_at: u64,
    },
    /// A `503` from a front end.
    Dropped,
    /// A `301`, followed or (budget spent, no absolute target) given up.
    Redirected,
    /// A refused connection, or any status but 200, 301 and 503.
    Failed,
}

/// What a wake does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing: the driver calls `begin_session`.
    Start,
    /// Fetch the current URL, or find it in the cache.
    Doc,
    /// Nothing: the document fetch is in flight.
    AwaitDoc,
    /// Launch image fetches while a helper slot is free.
    Images,
    /// Pick the next hyperlink, or end the session.
    Step,
}

struct InFlight {
    /// Where the latest hop went.
    url: Arc<Url>,
    redirects_left: u32,
    issued_at: u64,
}

/// One Algorithm-2 client (see the module docs). `S` hashes the session
/// cache's URLs: a driver that builds every key from its own dataset may
/// choose a fixed hasher; the default is std's keyed one.
pub struct Walker<S = RandomState> {
    model: ClientModel,
    rng: StdRng,
    phase: Phase,
    /// Session cache: a page's links, or `None` for any other document.
    cache: HashMap<Arc<Url>, Option<Arc<Links>>, S>,
    steps_left: u32,
    url: Option<Arc<Url>>,
    /// The page being walked; `None` at a session start or a dead end.
    page: Option<Arc<Links>>,
    /// Fetches in flight: the document alone (`Phase::AwaitDoc`), or up
    /// to `helpers` images.
    fetches: Vec<(u64, InFlight)>,
    /// Images waiting for a helper slot.
    queue: VecDeque<Arc<Url>>,
    next_token: u64,
    backoff_pow: u32,
    out: VecDeque<Next>,
}

impl<S: BuildHasher + Default> Walker<S> {
    /// A client between sessions, drawing from `rng`.
    pub fn new(model: ClientModel, rng: StdRng) -> Self {
        Walker {
            model,
            rng,
            phase: Phase::Start,
            cache: HashMap::default(),
            steps_left: 0,
            url: None,
            page: None,
            fetches: Vec::new(),
            queue: VecDeque::new(),
            next_token: 0,
            backoff_pow: 0,
            out: VecDeque::new(),
        }
    }

    /// Whether the next wake starts a session.
    pub fn between_sessions(&self) -> bool {
        self.phase == Phase::Start
    }

    /// Start a session at one of `entries`. `hot = Some((entry, prob))`
    /// picks `entries[entry]` with probability `prob` (flash-crowd skew).
    pub fn begin_session(&mut self, now: u64, entries: &[Arc<Url>], hot: Option<(usize, f64)>) {
        self.cache.clear();
        self.steps_left = self.rng.gen_range(1..=self.model.max_steps);
        let e = match hot {
            Some((entry, prob)) if self.rng.gen_bool(prob) => entry,
            _ => self.rng.gen_range(0..entries.len()),
        };
        self.url = Some(entries[e].clone());
        self.page = None;
        self.issue_doc(now);
    }

    /// A wake it asked for is due.
    pub fn wake(&mut self, now: u64) {
        match self.phase {
            Phase::Doc => self.issue_doc(now),
            Phase::Images => self.launch_images(now),
            Phase::Step => self.next_step(),
            Phase::Start | Phase::AwaitDoc => {}
        }
    }

    /// What to do next, until `None`.
    pub fn poll(&mut self) -> Option<Next> {
        self.out.pop_front()
    }

    /// The reply to fetch `token`. `parse` gives the links of a `200` HTML
    /// document, fetched (after any redirects) from the URL it is passed.
    pub fn on_reply(
        &mut self,
        now: u64,
        token: u64,
        reply: &(impl Reply + ?Sized),
        parse: impl FnOnce(&Arc<Url>, &Body) -> Arc<Links>,
    ) -> Heard {
        let Some(i) = self.fetches.iter().position(|(t, _)| *t == token) else {
            return Heard::Stale;
        };
        let doc = self.phase == Phase::AwaitDoc;
        match reply.status() {
            StatusCode::Ok => {
                self.backoff_pow = 0;
                let InFlight { url, issued_at, .. } = self.fetches.remove(i).1;
                if !doc {
                    self.cache.insert(url, None);
                    self.launch_images(now);
                    return Heard::Completed { issued_at };
                }
                // Anything but HTML (an image reached by hyperlink, the
                // Sequoia pattern) is a dead end for the walk.
                self.page = reply.is_html().then(|| parse(&url, reply.body()));
                self.cache.insert(url, self.page.clone());
                if let Some(requested) = self.url.clone() {
                    self.cache.insert(requested, self.page.clone());
                }
                if self.page.is_some() {
                    self.queue_embeds();
                    self.phase = Phase::Images;
                    self.launch_images(now);
                } else {
                    self.step_done();
                }
                Heard::Completed { issued_at }
            }
            StatusCode::ServiceUnavailable => {
                // §5.2: "a client thread sleeps for a second at the first
                // drop, two at the second, four at the third, and so
                // forth", then retries. An image goes back on the queue,
                // and waits for the back-off only if no helper is busy.
                let done = self.fetches.remove(i).1;
                let pow = self.backoff_pow;
                self.backoff_pow += 1;
                if doc {
                    self.phase = Phase::Doc;
                } else {
                    self.queue.push_back(done.url);
                }
                if self.fetches.is_empty() {
                    self.back_off(pow);
                }
                Heard::Dropped
            }
            StatusCode::MovedPermanently => {
                let pending = &mut self.fetches[i].1;
                let target = reply.location().filter(Url::is_absolute);
                match (pending.redirects_left.checked_sub(1), target) {
                    (Some(left), Some(loc)) => {
                        pending.redirects_left = left;
                        pending.url = Arc::new(loc);
                        let url = pending.url.clone();
                        self.out.push_back(Next::Fetch { token, url });
                    }
                    // Budget spent, or no absolute target: give up.
                    _ => self.abandon(i, now),
                }
                Heard::Redirected
            }
            _ => {
                self.abandon(i, now);
                Heard::Failed
            }
        }
    }

    /// Fetch `token` failed without an HTTP exchange (connection refused):
    /// a document ends the session after a back-off, an image is skipped.
    pub fn on_failed(&mut self, now: u64, token: u64) -> Heard {
        let Some(i) = self.fetches.iter().position(|(t, _)| *t == token) else {
            return Heard::Stale;
        };
        if self.phase == Phase::AwaitDoc {
            self.fetches.clear();
            let pow = self.backoff_pow;
            self.backoff_pow = (pow + 1).min(self.model.max_backoff_pow);
            self.phase = Phase::Start;
            self.back_off(pow);
        } else {
            self.abandon(i, now);
        }
        Heard::Failed
    }

    /// Give up on fetch `i`: a document's step is over, an image's helper
    /// takes the next one.
    fn abandon(&mut self, i: usize, now: u64) {
        self.fetches.remove(i);
        if self.phase == Phase::AwaitDoc {
            self.step_done();
        } else {
            self.launch_images(now);
        }
    }

    fn issue_doc(&mut self, now: u64) {
        let url = self.url.clone().expect("a step has a current URL");
        if self.model.cache_enabled {
            if let Some(Some(page)) = self.cache.get(&url) {
                // A cache hit: no request, straight to the page's images.
                self.page = Some(page.clone());
                self.queue_embeds();
                self.phase = Phase::Images;
                self.out.push_back(Next::Wake { think_us: 0 });
                return;
            }
        }
        self.phase = Phase::AwaitDoc;
        self.launch(url, now);
    }

    /// Queue the page's embeds, but (with the cache on) those fetched.
    fn queue_embeds(&mut self) {
        self.queue.clear();
        let Some(page) = &self.page else {
            return;
        };
        let (cache, cache_enabled) = (&self.cache, self.model.cache_enabled);
        self.queue.extend(
            page.embeds
                .iter()
                .filter(|e| !cache_enabled || !cache.contains_key(*e))
                .cloned(),
        );
    }

    fn launch_images(&mut self, now: u64) {
        while self.fetches.len() < self.model.helpers {
            let Some(url) = self.queue.pop_front() else {
                break;
            };
            if !self.model.cache_enabled || !self.cache.contains_key(&url) {
                self.launch(url, now);
            }
        }
        if self.fetches.is_empty() && self.queue.is_empty() {
            self.step_done();
        }
    }

    fn launch(&mut self, url: Arc<Url>, now: u64) {
        let token = self.next_token;
        self.next_token += 1;
        let fetch = InFlight {
            url: url.clone(),
            redirects_left: self.model.max_redirects,
            issued_at: now,
        };
        self.fetches.push((token, fetch));
        self.out.push_back(Next::Fetch { token, url });
    }

    /// The step's fetching is over: the next wake picks a link.
    fn step_done(&mut self) {
        self.phase = Phase::Step;
        self.out.push_back(Next::Wake { think_us: 0 });
    }

    fn next_step(&mut self) {
        self.steps_left = self.steps_left.saturating_sub(1);
        let think = self.model.think_time_ms;
        let think_us = if think > 0 {
            self.rng.gen_range(0..=2 * think) * 1_000
        } else {
            0
        };
        let anchors = self.page.as_ref().map_or(&[][..], |p| &p.anchors);
        if self.steps_left == 0 || anchors.is_empty() {
            self.out.push_back(Next::SessionEnd);
            self.phase = Phase::Start;
        } else {
            self.url = Some(anchors[self.rng.gen_range(0..anchors.len())].clone());
            self.phase = Phase::Doc;
        }
        self.out.push_back(Next::Wake { think_us });
    }

    /// Back off for exponent `pow`: `2^pow` s (capped), ±25 %.
    fn back_off(&mut self, pow: u32) {
        let base = 1_000_000u64 << pow.min(self.model.max_backoff_pow);
        let delay_us = base * 3 / 4 + self.rng.gen_range(0..=base / 2);
        self.out.push_back(Next::Backoff { delay_us });
    }
}

#[cfg(test)]
mod tests {
    include!("../tests/unit/walker.rs");
}
