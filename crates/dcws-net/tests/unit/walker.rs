// The rules of `src/walker.rs`, each driven by scripted replies with no
// I/O. Included into the library's unit tests as `walker::tests` by
// `walker.rs`, so they read its private state where a rule is about it.

use super::*;
use rand::SeedableRng;

const WAKE: Next = Next::Wake { think_us: 0 };

fn url(path: &str) -> Arc<Url> {
    Arc::new(Url::absolute("h", 80, path).unwrap())
}

fn drain(w: &mut Walker) -> Vec<Next> {
    std::iter::from_fn(|| w.poll()).collect()
}

fn wake(w: &mut Walker) -> Vec<Next> {
    w.wake(0);
    drain(w)
}

/// The fetches in `out`, as `(token, path)`.
fn fetches(out: &[Next]) -> Vec<(u64, String)> {
    out.iter()
        .map(|n| match n {
            Next::Fetch { token, url } => (*token, url.path().to_string()),
            other => panic!("expected fetches only, got {other:?}"),
        })
        .collect()
}

fn backoff(out: &[Next]) -> u64 {
    match out {
        [Next::Backoff { delay_us }] => *delay_us,
        other => panic!("expected one back-off, got {other:?}"),
    }
}

fn assert_jittered(delay_us: u64, pow: u32) {
    let base = 1_000_000u64 << pow;
    let ok = (base * 3 / 4..=base * 5 / 4).contains(&delay_us);
    assert!(ok, "{delay_us} µs is not 2^{pow} s ± 25 %");
}

fn html() -> Response {
    Response::ok(b"<html></html>".to_vec(), "text/html")
}

fn image() -> Response {
    Response::ok(b"GIF89a".to_vec(), "image/gif")
}

/// `(path, anchors, embeds)` rows of a site whose pages the test's
/// parser answers with.
type Site<'a> = &'a [(&'a str, &'a [&'a str], &'a [&'a str])];

/// The reply `resp` to `token`, and what the walker asks for next.
fn reply(w: &mut Walker, token: u64, resp: &Response, site: Site) -> (Heard, Vec<Next>) {
    let heard = w.on_reply(0, token, resp, |u, _| {
        let (_, anchors, embeds) = site.iter().find(|p| p.0 == u.path()).unwrap();
        let urls = |paths: &[&str]| paths.iter().map(|p| url(p)).collect();
        Arc::new(Links {
            anchors: urls(anchors),
            embeds: urls(embeds),
        })
    });
    (heard, drain(w))
}

/// A walker whose session at `/a.html` has its first fetch out.
fn started(model: ClientModel) -> (Walker, u64) {
    let mut w = Walker::new(model, StdRng::seed_from_u64(7));
    w.begin_session(0, &[url("/a.html")], None);
    let out = fetches(&drain(&mut w));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].1, "/a.html");
    (w, out[0].0)
}

#[test]
fn backoff_ladder_doubles_caps_jitters_and_resets() {
    let (mut w, mut token) = started(ClientModel::default());
    let drop = Response::service_unavailable(1);
    for k in 0..10 {
        let (heard, out) = reply(&mut w, token, &drop, &[]);
        assert_eq!(heard, Heard::Dropped);
        assert_jittered(backoff(&out), k.min(6));
        token = fetches(&wake(&mut w))[0].0;
    }
    // A 200 resets the ladder: an opaque document, a dead end, so the
    // session ends and the next one backs off from 1 s again.
    let (heard, out) = reply(&mut w, token, &image(), &[]);
    assert!(matches!(heard, Heard::Completed { .. }));
    assert_eq!(out, [WAKE]);
    assert_eq!(wake(&mut w), [Next::SessionEnd, WAKE]);
    assert!(w.between_sessions());
    w.begin_session(0, &[url("/a.html")], None);
    let token = fetches(&drain(&mut w))[0].0;
    assert_jittered(backoff(&reply(&mut w, token, &drop, &[]).1), 0);
}

#[test]
fn redirect_budget_then_the_step_is_abandoned() {
    let (mut w, token) = started(ClientModel::default());
    let moved = Response::moved_permanently(&url("/b.html"));
    for _ in 0..ClientModel::default().max_redirects {
        let (heard, out) = reply(&mut w, token, &moved, &[]);
        assert_eq!(heard, Heard::Redirected);
        assert_eq!(
            fetches(&out),
            [(token, "/b.html".to_string())],
            "a hop keeps its token"
        );
    }
    assert_eq!(
        reply(&mut w, token, &moved, &[]),
        (Heard::Redirected, vec![WAKE])
    );
    assert_eq!(reply(&mut w, token, &html(), &[]).0, Heard::Stale);
    assert_eq!(
        wake(&mut w),
        [Next::SessionEnd, WAKE],
        "no page: a dead end"
    );
}

#[test]
fn missing_or_relative_location_abandons_the_step() {
    let bare = Response::new(StatusCode::MovedPermanently);
    let relative = bare.clone().with_header("Location", "/b.html");
    for resp in [bare, relative] {
        let (mut w, token) = started(ClientModel::default());
        assert_eq!(
            reply(&mut w, token, &resp, &[]),
            (Heard::Redirected, vec![WAKE])
        );
        assert_eq!(reply(&mut w, token, &html(), &[]).0, Heard::Stale);
    }
}

#[test]
fn cache_hit_queues_uncached_embeds_and_keeps_walking() {
    let site: Site = &[
        ("/a.html", &["/b.html"], &["/1.gif", "/2.gif"]),
        ("/b.html", &["/a.html"], &[]),
    ];
    let (mut w, token) = started(ClientModel::default());
    w.steps_left = 10;
    let out = fetches(&reply(&mut w, token, &html(), site).1);
    assert_eq!(
        out.iter().map(|f| &f.1[..]).collect::<Vec<_>>(),
        ["/1.gif", "/2.gif"]
    );
    reply(&mut w, out[0].0, &image(), site);
    // /2.gif fails, so it stays out of the cache.
    let failed = reply(&mut w, out[1].0, &Response::not_found(), site);
    assert_eq!(failed, (Heard::Failed, vec![WAKE]));
    assert_eq!(wake(&mut w), [WAKE]);
    let b = fetches(&wake(&mut w));
    assert_eq!(b[0].1, "/b.html");
    assert_eq!(reply(&mut w, b[0].0, &html(), site).1, [WAKE]);
    assert_eq!(wake(&mut w), [WAKE]);
    // Back at /a.html: a cache hit, no document fetch, and only the
    // embed that failed is fetched.
    assert_eq!(wake(&mut w), [WAKE]);
    let again = fetches(&wake(&mut w));
    assert_eq!(
        again.iter().map(|f| &f.1[..]).collect::<Vec<_>>(),
        ["/2.gif"]
    );
    assert_eq!(reply(&mut w, again[0].0, &image(), site).1, [WAKE]);
    // The walk goes on along /a.html's anchors to a cached /b.html.
    assert_eq!(wake(&mut w), [WAKE]);
    assert_eq!(wake(&mut w), [WAKE]);
    assert_eq!(w.url.as_deref().map(Url::path), Some("/b.html"));
}

#[test]
fn image_503_requeues_and_backs_off_only_when_no_helper_is_busy() {
    let site: Site = &[("/a.html", &[], &["/1.gif", "/2.gif"])];
    let model = ClientModel {
        helpers: 2,
        ..ClientModel::default()
    };
    let (mut w, token) = started(model);
    let out = fetches(&reply(&mut w, token, &html(), site).1);
    let drop = Response::service_unavailable(1);
    let dropped = reply(&mut w, out[0].0, &drop, site);
    assert_eq!(
        dropped,
        (Heard::Dropped, vec![]),
        "/2.gif is in flight: no back-off"
    );
    let again = fetches(&reply(&mut w, out[1].0, &image(), site).1);
    assert_eq!(again.len(), 1);
    assert_eq!(again[0].1, "/1.gif");
    // The 200 reset the ladder; nothing is in flight now.
    let (heard, out) = reply(&mut w, again[0].0, &drop, site);
    assert_eq!(heard, Heard::Dropped);
    assert_jittered(backoff(&out), 0);
    assert_eq!(fetches(&wake(&mut w))[0].1, "/1.gif");
}

#[test]
fn stale_and_unknown_tokens_are_ignored() {
    let (mut w, token) = started(ClientModel::default());
    assert_eq!(
        reply(&mut w, token + 100, &html(), &[]),
        (Heard::Stale, vec![])
    );
    assert_eq!(w.on_failed(0, token + 100), Heard::Stale);
    assert!(matches!(
        reply(&mut w, token, &image(), &[]).0,
        Heard::Completed { .. }
    ));
    assert_eq!(
        reply(&mut w, token, &image(), &[]),
        (Heard::Stale, vec![]),
        "settled"
    );
    assert_eq!(w.on_failed(0, token), Heard::Stale);
    assert!(drain(&mut w).is_empty());
}

#[test]
fn refused_connection_ends_the_session_after_a_back_off() {
    let (mut w, token) = started(ClientModel::default());
    assert_eq!(w.on_failed(0, token), Heard::Failed);
    assert_jittered(backoff(&drain(&mut w)), 0);
    assert!(w.between_sessions());
    // The next session's refusal climbs the ladder.
    w.begin_session(0, &[url("/a.html")], None);
    let token = fetches(&drain(&mut w))[0].0;
    w.on_failed(0, token);
    assert_jittered(backoff(&drain(&mut w)), 1);
}

#[test]
fn completed_fetch_carries_its_issue_time_across_hops() {
    let mut w: Walker = Walker::new(ClientModel::default(), StdRng::seed_from_u64(7));
    w.begin_session(5, &[url("/a.html")], None);
    let token = fetches(&drain(&mut w))[0].0;
    let moved = Response::moved_permanently(&url("/b.html"));
    w.on_reply(9, token, &moved, |_, _| unreachable!());
    let done = w.on_reply(20, token, &image(), |_, _| unreachable!());
    assert_eq!(done, Heard::Completed { issued_at: 5 });
}

#[test]
fn links_keep_anchor_order_and_sort_and_dedup_embeds() {
    let base = Url::absolute("h", 80, "/dir/page.html").unwrap();
    let body = br#"<a href="z.html">z</a><img src="/b.gif"><a href="/a.html">a</a>
        <img src="a.gif"><img src="/b.gif">"#;
    let links = Links::parse(&base, body);
    let paths = |v: &[Arc<Url>]| v.iter().map(|u| u.path().to_string()).collect::<Vec<_>>();
    assert_eq!(paths(&links.anchors), ["/dir/z.html", "/a.html"]);
    assert_eq!(paths(&links.embeds), ["/b.gif", "/dir/a.gif"]);
}
