//! Where a generator thread's next request comes from: uniform random
//! documents, or the paper's Algorithm-2 walker.

use crate::client::{find, server_index, split_url, Fetched, Target};
use crate::verify::Corpus;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::hash_map::{Entry, HashMap};
use std::net::SocketAddr;
use std::rc::Rc;

pub trait Source {
    /// The next request of this thread.
    fn next(&mut self, rng: &mut StdRng) -> Target;
    /// The verified response to the request `next` last returned.
    fn observe(&mut self, _got: &Fetched, _body: &[u8]) {}
    /// Algorithm-2 sessions started so far.
    fn sessions(&self) -> u64 {
        0
    }
}

/// Uniform random GETs of a fixed document list on server 0; a share of
/// them carry a `Range`.
pub struct Flat {
    /// `(path, size)` of each candidate.
    docs: Vec<(String, u64)>,
    range_share: f64,
    range_len: (u64, u64),
}

impl Flat {
    pub fn all(corpus: &Corpus) -> Flat {
        Flat {
            docs: corpus
                .docs
                .iter()
                .map(|d| (d.spec.name.clone(), d.spec.size))
                .collect(),
            range_share: 0.0,
            range_len: (0, 0),
        }
    }

    /// Only the images, `range_share` of the requests asking for a slice
    /// of `range_len.0 ..= range_len.1` bytes.
    pub fn images(corpus: &Corpus, range_share: f64, range_len: (u64, u64)) -> Flat {
        Flat {
            docs: corpus
                .docs
                .iter()
                .filter(|d| !d.is_html())
                .map(|d| (d.spec.name.clone(), d.spec.size))
                .collect(),
            range_share,
            range_len,
        }
    }
}

impl Source for Flat {
    fn next(&mut self, rng: &mut StdRng) -> Target {
        let (path, size) = &self.docs[rng.gen_range(0..self.docs.len())];
        let range = (self.range_share > 0.0 && rng.gen_bool(self.range_share)).then(|| {
            let len = rng
                .gen_range(self.range_len.0..=self.range_len.1)
                .min(*size);
            let start = rng.gen_range(0..=size - len);
            (start, start + len - 1)
        });
        Target {
            server: 0,
            path: path.clone(),
            range,
        }
    }
}

/// Hyperlinks and embedded images of one page, resolved to targets.
#[derive(Debug, Default, PartialEq)]
pub struct Links {
    pub anchors: Vec<Target>,
    pub embeds: Vec<Target>,
}

/// Scan `html` for `href=` and `src=` attribute values. Hand-written for
/// the same reason as the response parser: the generator must not spend
/// the time of the crate under test. A unit test holds it to
/// `dcws_html::extract_links`.
pub fn scan_links(html: &[u8]) -> Vec<(bool, &str)> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(i) = find(&html[at..], b"=\"") {
        let eq = at + i;
        let value_start = eq + 2;
        let Some(len) = html[value_start..].iter().position(|&c| c == b'"') else {
            break;
        };
        let embed = if html[..eq].ends_with(b" href") {
            Some(false)
        } else if html[..eq].ends_with(b" src") {
            Some(true)
        } else {
            None
        };
        if let (Some(embed), Ok(url)) = (
            embed,
            std::str::from_utf8(&html[value_start..value_start + len]),
        ) {
            out.push((embed, url));
        }
        at = value_start + len + 1;
    }
    out
}

/// Algorithm 2 (Fig. 5): start a session at a random entry point with an
/// empty cache, follow 1–25 random hyperlinks parsed from the pages the
/// servers return, fetch each page's embedded images not yet cached.
///
/// The paper's four image helpers run in parallel threads; here they run
/// one after another inside the walker's thread, because the generator is
/// capped at one op in flight per thread.
pub struct Walker {
    addrs: Vec<SocketAddr>,
    entries: Vec<String>,
    max_steps: u32,
    steps_left: u32,
    /// Pages and images fetched this session; pages keep their links so a
    /// cached page can be walked through without a request.
    cache: HashMap<u64, Option<Rc<Links>>>,
    pending_images: Vec<Target>,
    page: Rc<Links>,
    last: Option<Target>,
    sessions: u64,
}

fn key(server: usize, path: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ server as u64;
    for b in path.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Walker {
    pub fn new(addrs: Vec<SocketAddr>, corpus: &Corpus) -> Walker {
        Walker {
            addrs,
            entries: corpus
                .docs
                .iter()
                .filter(|d| d.spec.entry_point)
                .map(|d| d.spec.name.clone())
                .collect(),
            max_steps: 25,
            steps_left: 0,
            cache: HashMap::new(),
            pending_images: Vec::new(),
            page: Rc::new(Links::default()),
            last: None,
            sessions: 0,
        }
    }

    fn resolve(&self, base_server: usize, url: &str) -> Option<Target> {
        let (server, path) = if url.starts_with('/') {
            (base_server, url)
        } else {
            let (host, port, path) = split_url(url)?;
            (server_index(&self.addrs, host, port)?, path)
        };
        Some(Target {
            server,
            path: path.to_string(),
            range: None,
        })
    }

    fn new_session(&mut self, rng: &mut StdRng) -> Target {
        self.sessions += 1;
        self.cache.clear();
        self.pending_images.clear();
        self.page = Rc::new(Links::default());
        self.steps_left = rng.gen_range(1..=self.max_steps);
        Target {
            server: 0,
            path: self.entries[rng.gen_range(0..self.entries.len())].clone(),
            range: None,
        }
    }
}

impl Source for Walker {
    fn next(&mut self, rng: &mut StdRng) -> Target {
        let target = 'pick: {
            if let Some(img) = self.pending_images.pop() {
                break 'pick img;
            }
            // Follow hyperlinks; a cached page costs a step but no request.
            while self.steps_left > 0 && !self.page.anchors.is_empty() {
                self.steps_left -= 1;
                let t = self.page.anchors[rng.gen_range(0..self.page.anchors.len())].clone();
                match self.cache.get(&key(t.server, &t.path)) {
                    Some(Some(links)) => self.page = links.clone(),
                    // A cached non-page is a dead end, as in `dcws-walk`.
                    Some(None) => break,
                    None => break 'pick t,
                }
            }
            self.new_session(rng)
        };
        self.last = Some(target.clone());
        target
    }

    fn sessions(&self) -> u64 {
        self.sessions
    }

    fn observe(&mut self, got: &Fetched, body: &[u8]) {
        let links = got.is_html.then(|| {
            let mut links = Links::default();
            for (embed, url) in scan_links(body) {
                if let Some(t) = self.resolve(got.server, url) {
                    if embed {
                        links.embeds.push(t);
                    } else {
                        links.anchors.push(t);
                    }
                }
            }
            Rc::new(links)
        });
        // Cache under the URL asked for and the URL that answered: after
        // a 301 they differ, and later pages may link to either.
        if let Some(asked) = self.last.take() {
            self.cache
                .insert(key(asked.server, &asked.path), links.clone());
        }
        self.cache.insert(key(got.server, &got.path), links.clone());
        if let Some(links) = links {
            for img in &links.embeds {
                if let Entry::Vacant(slot) = self.cache.entry(key(img.server, &img.path)) {
                    slot.insert(None);
                    self.pending_images.push(img.clone());
                }
            }
            self.page = links;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcws_workloads::{materialize::materialize, Dataset};
    use rand::SeedableRng;

    #[test]
    fn link_scanner_agrees_with_dcws_html_on_every_lod_page() {
        let ds = Dataset::lod(3);
        let mut pages = 0;
        for d in ds.docs.iter().filter(|d| !d.anchors.is_empty()) {
            let html = materialize(d);
            let text = String::from_utf8(html.clone()).unwrap();
            let want: Vec<(bool, String)> = dcws_html::extract_links(&text)
                .into_iter()
                .map(|l| (l.kind == dcws_html::LinkKind::Embedded, l.url))
                .collect();
            let got: Vec<(bool, String)> = scan_links(&html)
                .into_iter()
                .map(|(e, u)| (e, u.to_string()))
                .collect();
            assert_eq!(got, want, "{}", d.name);
            pages += 1;
        }
        assert!(pages > 100);
    }

    #[test]
    fn link_scanner_reads_rewritten_absolute_urls() {
        let html = br#"<a href="http://127.0.0.1:9/~migrate/127.0.0.1/8/a.html">x</a>
<img src="/i.gif" alt="embedded">"#;
        assert_eq!(
            scan_links(html),
            vec![
                (false, "http://127.0.0.1:9/~migrate/127.0.0.1/8/a.html"),
                (true, "/i.gif")
            ]
        );
    }

    fn page(got_path: &str, server: usize) -> Fetched {
        Fetched {
            status: 200,
            server,
            path: got_path.into(),
            is_html: true,
            content_range: None,
            hops: Vec::new(),
            backoffs: 0,
        }
    }

    #[test]
    fn walker_fetches_a_pages_images_once_then_follows_a_link() {
        let ds = Dataset::lod(3);
        let corpus = Corpus::new(&ds, 0);
        let addrs: Vec<SocketAddr> = vec![
            "127.0.0.1:8".parse().unwrap(),
            "127.0.0.1:9".parse().unwrap(),
        ];
        let mut w = Walker::new(addrs, &corpus);
        let mut rng = StdRng::seed_from_u64(1);
        let first = w.next(&mut rng);
        assert_eq!((first.server, first.path.as_str()), (0, "/index.html"));
        w.steps_left = 25;
        // The entry page answers with two images, one of them on the
        // co-op, and one hyperlink.
        let body = br#"<img src="/a.gif"><img src="http://127.0.0.1:9/~migrate/127.0.0.1/8/b.gif">
<img src="/a.gif"><a href="/next.html">n</a>"#;
        w.observe(&page("/index.html", 0), body);
        let mut imgs = [w.next(&mut rng), w.next(&mut rng)];
        imgs.sort_by(|a, b| a.path.cmp(&b.path));
        assert_eq!((imgs[0].server, imgs[0].path.as_str()), (0, "/a.gif"));
        assert_eq!(
            (imgs[1].server, imgs[1].path.as_str()),
            (1, "/~migrate/127.0.0.1/8/b.gif")
        );
        // Images done (the repeated one was fetched once): the link.
        let step = w.next(&mut rng);
        assert_eq!(step.path, "/next.html");
        // A page with no links ends the session.
        w.observe(&page("/next.html", 0), b"<p>nothing</p>");
        assert_eq!(w.next(&mut rng).path, "/index.html");
        assert_eq!(w.sessions(), 2);
    }
}
