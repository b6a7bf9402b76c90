//! In-place hyperlink rewriting — the heart of DCWS document
//! reconstruction (§4.3).
//!
//! When a document's `Dirty` bit is set (one of its `LinkTo` targets
//! migrated), the server substitutes the affected URLs and serves the
//! regenerated document. Only the tags whose URL changed are written anew;
//! every other byte is copied from the source.

use crate::links::url_attr;
use crate::scan::{start_tags, Attr, Quote, StartTag};

/// Rewrite every recognized URL-bearing attribute with `map`.
///
/// `map` receives the raw attribute value and returns `Some(new)` to
/// substitute or `None` to leave it alone. Returns the regenerated document
/// and the number of substitutions performed.
///
/// A tag with a substitution is written in canonical form: its name and
/// attributes as written, separated by single spaces, each value quoted
/// as in the source unless the value needs other quotes, and ` /` before
/// the `>` of a self-closing tag.
pub fn rewrite_links(html: &str, mut map: impl FnMut(&str) -> Option<String>) -> (String, usize) {
    let mut out = String::with_capacity(html.len() + html.len() / 4);
    let mut copied = 0;
    let mut replaced = 0;
    // The attributes of the tag in hand, each with its new value if `map`
    // changed it.
    let mut attrs: Vec<(Attr, Option<String>)> = Vec::new();
    for tag in start_tags(html) {
        let Some((_, url, _)) = url_attr(tag.name) else {
            continue;
        };
        attrs.clear();
        let mut changed = 0;
        for attr in tag.attrs() {
            let new = attr
                .value
                .filter(|_| attr.name.eq_ignore_ascii_case(url))
                .and_then(|value| map(value).filter(|new| new != value));
            changed += usize::from(new.is_some());
            attrs.push((attr, new));
        }
        if changed == 0 {
            continue;
        }
        out.push_str(&html[copied..tag.span.start]);
        write_tag(&mut out, &tag, &attrs);
        copied = tag.span.end;
        replaced += changed;
    }
    out.push_str(&html[copied..]);
    (out, replaced)
}

/// Write `tag` in canonical form, with the new values in `attrs` in place.
fn write_tag(out: &mut String, tag: &StartTag, attrs: &[(Attr, Option<String>)]) {
    out.push('<');
    out.push_str(tag.name);
    for (attr, new) in attrs {
        out.push(' ');
        out.push_str(attr.name);
        if let Some(v) = new.as_deref().or(attr.value) {
            out.push('=');
            push_value(out, v, attr.quote);
        }
    }
    if tag.self_closing {
        out.push_str(" /");
    }
    out.push('>');
}

/// Append `v` quoted as in the source, or with quotes that can hold it.
fn push_value(out: &mut String, v: &str, quote: Quote) {
    let bare_ok = || {
        !v.is_empty()
            && !v
                .bytes()
                .any(|c| c.is_ascii_whitespace() || b"'\">".contains(&c))
    };
    let q = match quote {
        Quote::Double if v.contains('"') => "'",
        Quote::Single if !v.contains('\'') => "'",
        Quote::Bare if bare_ok() => "",
        _ => "\"",
    };
    for s in [q, v, q] {
        out.push_str(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<html><body>
<a href="/d.html">doc D</a>
<a href="/e.html">doc E</a>
<img src="/btn.gif">
<p>unrelated <b>text</b> with /d.html inline</p>
</body></html>"#;

    #[test]
    fn rewrites_only_matching_urls() {
        let (out, n) = rewrite_links(DOC, |u| {
            (u == "/d.html").then(|| "http://coop:8001/~migrate/home/80/d.html".into())
        });
        assert_eq!(n, 1);
        assert!(out.contains(r#"href="http://coop:8001/~migrate/home/80/d.html""#));
        assert!(out.contains(r#"href="/e.html""#), "other links untouched");
        assert!(
            out.contains("with /d.html inline"),
            "text content untouched"
        );
    }

    #[test]
    fn noop_rewrite_is_byte_identical() {
        let (out, n) = rewrite_links(DOC, |_| None);
        assert_eq!(n, 0);
        assert_eq!(out, DOC);
    }

    #[test]
    fn identity_mapping_counts_zero() {
        // Returning the same string must not dirty the tag.
        let (out, n) = rewrite_links(DOC, |u| Some(u.to_string()));
        assert_eq!(n, 0);
        assert_eq!(out, DOC);
    }

    #[test]
    fn rewrites_images() {
        let (out, n) = rewrite_links(DOC, |u| {
            u.ends_with(".gif")
                .then(|| format!("http://coop:9/{}", &u[1..]))
        });
        assert_eq!(n, 1);
        assert!(out.contains(r#"src="http://coop:9/btn.gif""#));
    }

    #[test]
    fn rewrite_back_restores_structure() {
        // Migrate then revoke: rewriting back yields the semantic original.
        let (migrated, _) = rewrite_links(DOC, |u| {
            (u == "/d.html").then(|| "http://coop:8001/~migrate/h/80/d.html".into())
        });
        let (restored, n) = rewrite_links(&migrated, |u| {
            (u == "http://coop:8001/~migrate/h/80/d.html").then(|| "/d.html".into())
        });
        assert_eq!(n, 1);
        assert_eq!(restored, DOC);
    }

    #[test]
    fn multiple_attrs_one_tag() {
        let html = r#"<a href="/x"><img src="/x"></a>"#;
        let (out, n) = rewrite_links(html, |_| Some("/y".into()));
        assert_eq!(n, 2);
        assert_eq!(out, r#"<a href="/y"><img src="/y"></a>"#);
    }

    #[test]
    fn preserves_quote_style_on_rewrite() {
        let html = "<a href='/x'>t</a>";
        let (out, _) = rewrite_links(html, |_| Some("/y".into()));
        assert_eq!(out, "<a href='/y'>t</a>");
    }

    #[test]
    fn unquoted_rewrite_keeps_unquoted() {
        let html = "<img src=/x.gif>";
        let (out, _) = rewrite_links(html, |_| Some("/y.gif".into()));
        assert_eq!(out, "<img src=/y.gif>");
    }

    #[test]
    fn non_url_attrs_never_passed_to_map() {
        let html = r#"<a href="/x" class="big" onclick="go()">t</a>"#;
        let mut seen = Vec::new();
        rewrite_links(html, |u| {
            seen.push(u.to_string());
            None
        });
        assert_eq!(seen, ["/x"]);
    }

    #[test]
    fn malformed_html_survives_rewrite() {
        let html = "before <a href=\"/x\">ok</a> <b>unclosed <a href=";
        let (out, n) = rewrite_links(html, |_| Some("/y".into()));
        assert_eq!(n, 1);
        assert!(out.contains("href=\"/y\""));
        assert!(out.ends_with("<a href="), "trailing junk preserved");
    }
}
