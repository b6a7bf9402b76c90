//! Hyperlink and embedded-reference extraction.
//!
//! The DCWS system distinguishes two reference classes because they behave
//! differently under load (§3.1):
//!
//! * **Hyperlinks** (`a href`, `area href`, `frame src`, …) — followed by a
//!   user action; these form the edges of the document graph that Algorithm
//!   1 reasons about.
//! * **Embedded** references (`img src`, `body background`, …) — fetched
//!   automatically with the page; their URLs are "seldom published", which
//!   is what makes images prime migration candidates (and, when shared by
//!   every page, the hot spots that cap SBLog/MAPUG scalability in Fig. 7).

use crate::scan::start_tags;

/// How a referenced URL is consumed by a browser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Followed on user action (graph edge).
    Hyperlink,
    /// Fetched automatically with the document (images etc.).
    Embedded,
}

/// One extracted reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkRef {
    /// The raw URL text from the attribute (not resolved).
    pub url: String,
    /// Reference class.
    pub kind: LinkKind,
    /// Lowercased element name the reference came from.
    pub tag: &'static str,
    /// Lowercased attribute name that held the URL.
    pub attr: &'static str,
}

/// `(tag, attr, kind)` table of URL-bearing attributes we recognize.
///
/// `frame`/`iframe` sources are classed as embedded: the browser fetches
/// them automatically with the frame template (§3.1's frame discussion).
const URL_ATTRS: &[(&str, &str, LinkKind)] = &[
    ("a", "href", LinkKind::Hyperlink),
    ("area", "href", LinkKind::Hyperlink),
    ("link", "href", LinkKind::Embedded),
    ("img", "src", LinkKind::Embedded),
    ("frame", "src", LinkKind::Embedded),
    ("iframe", "src", LinkKind::Embedded),
    ("script", "src", LinkKind::Embedded),
    ("body", "background", LinkKind::Embedded),
    ("input", "src", LinkKind::Embedded),
    ("embed", "src", LinkKind::Embedded),
];

/// The URL-bearing attribute of element `tag` (names match in any case):
/// `(tag, attr, kind)` in lower case. Each element has at most one.
pub(crate) fn url_attr(tag: &str) -> Option<(&'static str, &'static str, LinkKind)> {
    URL_ATTRS
        .iter()
        .find(|(t, _, _)| t.eq_ignore_ascii_case(tag))
        .copied()
}

/// URLs DCWS can never serve or rewrite (mail, anchors-only, other schemes).
fn is_non_http(url: &str) -> bool {
    url.starts_with('#')
        || url.starts_with("mailto:")
        || url.starts_with("ftp:")
        || url.starts_with("news:")
        || url.starts_with("javascript:")
        || url.starts_with("https://") // 1998 DCWS speaks plain http
}

/// Extract every recognized reference from an HTML document, in document
/// order. Duplicate URLs are preserved (hit accounting needs them).
///
/// A tag that names its URL attribute twice contributes the first; if
/// that one is bare (`<a href>`), the tag contributes nothing.
pub fn extract_links(html: &str) -> Vec<LinkRef> {
    let mut out = Vec::new();
    for tag in start_tags(html) {
        let Some((tag_name, attr, kind)) = url_attr(tag.name) else {
            continue;
        };
        let url = tag
            .attrs()
            .find(|a| a.name.eq_ignore_ascii_case(attr))
            .and_then(|a| a.value);
        if let Some(url) = url.filter(|u| !u.is_empty() && !is_non_http(u)) {
            out.push(LinkRef {
                url: url.to_string(),
                kind,
                tag: tag_name,
                attr,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_hyperlinks() {
        let l = extract_links(r#"<a href="/next.html">next</a>"#);
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].kind, LinkKind::Hyperlink);
        assert_eq!(l[0].url, "/next.html");
        assert_eq!(l[0].tag, "a");
        assert_eq!(l[0].attr, "href");
    }

    #[test]
    fn images_are_embedded() {
        let l = extract_links(r#"<img src="/buttons/next.gif" alt=next>"#);
        assert_eq!(l[0].kind, LinkKind::Embedded);
    }

    #[test]
    fn frames_are_embedded() {
        let l = extract_links(r#"<frameset><frame src="/menu.html"></frameset>"#);
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].kind, LinkKind::Embedded);
        assert_eq!(l[0].tag, "frame");
    }

    #[test]
    fn document_order_and_duplicates() {
        let html = r#"<a href="/a"></a><img src="/i.gif"><a href="/a"></a>"#;
        let l = extract_links(html);
        assert_eq!(l.len(), 3);
        assert_eq!(l[0].url, "/a");
        assert_eq!(l[1].url, "/i.gif");
        assert_eq!(l[2].url, "/a");
    }

    #[test]
    fn non_http_schemes_skipped() {
        let html = r##"<a href="mailto:x@y"></a><a href="#frag"></a>
                      <a href="javascript:void(0)"></a><a href="ftp://f/x"></a>
                      <a href="/real.html"></a>"##;
        let l = extract_links(html);
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].url, "/real.html");
    }

    #[test]
    fn empty_href_skipped() {
        assert!(extract_links(r#"<a href="">x</a>"#).is_empty());
    }

    #[test]
    fn absolute_urls_extracted() {
        let l = extract_links(r#"<a href="http://other.example/p.html">x</a>"#);
        assert_eq!(l[0].url, "http://other.example/p.html");
    }

    #[test]
    fn body_background_extracted() {
        let l = extract_links(r#"<body background="/tile.gif">"#);
        assert_eq!(l[0].kind, LinkKind::Embedded);
        assert_eq!(l[0].attr, "background");
    }

    #[test]
    fn end_tags_have_no_links() {
        assert!(extract_links("</a>").is_empty());
    }

    #[test]
    fn classify_table() {
        assert_eq!(url_attr("a"), Some(("a", "href", LinkKind::Hyperlink)));
        assert_eq!(url_attr("IMG"), Some(("img", "src", LinkKind::Embedded)));
        assert_eq!(url_attr("p"), None);
        // Only the element's own URL attribute counts.
        assert!(extract_links("<a src=/x.html><p href=/y.html>").is_empty());
    }

    #[test]
    fn href_inside_script_text_not_extracted() {
        let html = r#"<script>document.write('<a href="/fake.html">');</script>"#;
        assert!(extract_links(html).is_empty());
    }
}
