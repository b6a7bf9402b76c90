//! Property tests for the HTML substrate.

use dcws_html::{extract_links, rewrite_links};
use proptest::prelude::*;

/// Arbitrary "HTML-ish" soup: guaranteed to stress the scan's
/// error-recovery paths.
fn html_soup() -> impl Strategy<Value = String> {
    proptest::string::string_regex(r#"([a-z <>/='"!?-]|<a href=/[a-z]{1,8}>|<img src='/[a-z]{1,8}\.gif'>|</a>|<!-- [a-z]* -->){0,40}"#)
        .unwrap()
}

/// Well-formed documents from structured parts.
fn well_formed_doc() -> impl Strategy<Value = String> {
    fn link() -> proptest::string::RegexGeneratorStrategy<String> {
        proptest::string::string_regex("/[a-z]{1,10}(/[a-z]{1,8})?\\.html").unwrap()
    }
    fn img() -> proptest::string::RegexGeneratorStrategy<String> {
        proptest::string::string_regex("/[a-z]{1,10}\\.(gif|jpg)").unwrap()
    }
    fn text() -> proptest::string::RegexGeneratorStrategy<String> {
        proptest::string::string_regex("[a-zA-Z0-9 .,]{0,30}").unwrap()
    }
    proptest::collection::vec(
        prop_oneof![
            (link(), text()).prop_map(|(l, t)| format!("<a href=\"{l}\">{t}</a>")),
            img().prop_map(|i| format!("<img src=\"{i}\">")),
            text().prop_map(|t| format!("<p>{t}</p>")),
            text().prop_map(|t| format!("<!-- {t} -->")),
        ],
        0..20,
    )
    .prop_map(|parts| format!("<html><body>{}</body></html>", parts.concat()))
}

proptest! {
    #[test]
    fn identity_rewrite_is_identity(doc in html_soup()) {
        // Mapping every URL to itself changes no tag.
        prop_assert_eq!(rewrite_links(&doc, |u| Some(u.to_string())), (doc.clone(), 0));
    }

    #[test]
    fn noop_rewrite_identity_on_unicode(doc in "\\PC{0,200}") {
        // Arbitrary unicode text must survive (the scan slices at ASCII
        // delimiters only; this guards against char-boundary panics).
        prop_assert_eq!(rewrite_links(&doc, |_| None).0, doc);
    }

    #[test]
    fn noop_rewrite_is_identity(doc in html_soup()) {
        let (out, n) = rewrite_links(&doc, |_| None);
        prop_assert_eq!(n, 0);
        prop_assert_eq!(out, doc);
    }

    #[test]
    fn rewrite_is_idempotent(doc in well_formed_doc()) {
        let map = |u: &str| u.strip_prefix('/').map(|rest| format!("http://coop:1/~migrate/h/80/{rest}"));
        let (once, n1) = rewrite_links(&doc, map);
        let (twice, n2) = rewrite_links(&once, map);
        prop_assert_eq!(once, twice);
        // Second pass rewrites nothing: all URLs are already absolute.
        prop_assert_eq!(n2, 0);
        let _ = n1;
    }

    #[test]
    fn rewrite_count_matches_extracted_links(doc in well_formed_doc()) {
        let links = extract_links(&doc);
        let (_, n) = rewrite_links(&doc, |_| Some("/replaced.html".into()));
        // Every extracted link is rewriteable (none already equal the target).
        prop_assert_eq!(n, links.len());
    }

    #[test]
    fn extracted_links_survive_roundtrip(doc in well_formed_doc()) {
        let before = extract_links(&doc);
        let after = extract_links(&rewrite_links(&doc, |_| None).0);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn rewrite_preserves_link_structure(doc in well_formed_doc()) {
        // Rewriting every URL u -> u + suffix, then extracting, yields the
        // same multiset of URLs with the suffix applied, in the same order.
        let (out, _) = rewrite_links(&doc, |u| Some(format!("{u}.v2")));
        let before: Vec<String> = extract_links(&doc).into_iter().map(|l| l.url + ".v2").collect();
        let after: Vec<String> = extract_links(&out).into_iter().map(|l| l.url).collect();
        prop_assert_eq!(before, after);
    }
}
