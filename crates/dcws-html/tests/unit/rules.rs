// The rules of `src/scan.rs`, one case each, asserted through the two
// public functions. Included into the library's unit tests by `lib.rs`.
//
// They were written as the unit tests of a tokenizer and of its token
// type, which the scan replaced; they keep those module paths
// (`tokenizer::tests::…`, `token::tests::…`) so every test keeps its
// name. What each one checked of a token now shows as a link extracted or
// not, or as the bytes a rewrite writes.

mod tokenizer {
    mod tests {
        use crate::{extract_links, rewrite_links, LinkKind};

        /// A no-op rewrite returns `doc` byte for byte.
        fn roundtrip(doc: &str) {
            assert_eq!(rewrite_links(doc, |_| None), (doc.to_string(), 0), "{doc:?}");
            assert_eq!(rewrite_links(doc, |u| Some(u.to_string())).0, doc, "{doc:?}");
        }

        fn urls(doc: &str) -> Vec<String> {
            extract_links(doc).into_iter().map(|l| l.url).collect()
        }

        /// `doc` with every URL replaced by `to`.
        fn rewrite_all(doc: &str, to: &str) -> String {
            rewrite_links(doc, |_| Some(to.to_string())).0
        }

        #[test]
        fn plain_text() {
            assert!(extract_links("hello world").is_empty());
            roundtrip("hello world");
        }

        #[test]
        fn simple_tag_with_attrs() {
            let l = extract_links(r#"<a href="/x.html" class=big>"#);
            assert_eq!((l[0].url.as_str(), l[0].tag), ("/x.html", "a"));
            assert_eq!(
                rewrite_all(r#"<a href="/x.html" class=big>"#, "/y"),
                r#"<a href="/y" class=big>"#
            );
            // An `=` where a name should be is skipped.
            assert_eq!(urls("<img = src=/a.gif>"), ["/a.gif"]);
            assert_eq!(rewrite_all("<img = src=/a.gif>", "/b.gif"), "<img src=/b.gif>");
        }

        #[test]
        fn attr_quote_styles() {
            let doc = r#"<img src='/a.gif' alt=photo title="x y">"#;
            assert_eq!(urls(doc), ["/a.gif"]);
            // Every attribute of a rewritten tag keeps its quoting.
            assert_eq!(rewrite_all(doc, "/b.gif"), r#"<img src='/b.gif' alt=photo title="x y">"#);
        }

        #[test]
        fn gt_inside_quoted_value() {
            assert_eq!(urls(r#"<a href="/x?a>b">text</a>"#), ["/x?a>b"]);
            roundtrip(r#"<a href="/x?a>b">text</a>"#);
        }

        #[test]
        fn boolean_attribute() {
            let doc = "<input checked type=image src=/a.gif>";
            assert_eq!(urls(doc), ["/a.gif"]);
            assert_eq!(rewrite_all(doc, "/b.gif"), "<input checked type=image src=/b.gif>");
        }

        #[test]
        fn end_tag() {
            assert!(extract_links("<a></a>").is_empty());
            // An end tag's attributes are never links, and never rewritten.
            assert!(extract_links("</a href=/x>").is_empty());
            assert_eq!(rewrite_all("</a href=/x>", "/y"), "</a href=/x>");
        }

        #[test]
        fn self_closing() {
            assert_eq!(rewrite_all("<img src=/x/>", "/y"), "<img src=/y>");
            assert_eq!(urls("<img src=/x/>"), ["/x/"], "an unquoted value takes the /");
            assert_eq!(urls("<img src=x />"), ["x"]);
            assert_eq!(rewrite_all("<img src=x />", "/y"), "<img src=/y />");
            assert_eq!(rewrite_all("<img src='x'/>", "/y"), "<img src='/y' />");
        }

        #[test]
        fn comments_and_doctype() {
            let doc = "<!DOCTYPE html><!-- a <a href=/c> comment --><a href=/p>";
            assert_eq!(urls(doc), ["/p"]);
            roundtrip(doc);
            // `<!-->` does not close itself: the comment runs to the next `-->`.
            assert_eq!(urls("<!--><a href=/x>--><a href=/y>"), ["/y"]);
        }

        #[test]
        fn unterminated_comment_swallows_rest() {
            assert!(extract_links("a<!-- open <a href=/x>").is_empty());
            roundtrip("a<!-- open <a href=/x>");
        }

        #[test]
        fn stray_lt_is_text() {
            roundtrip("if a < b then");
            assert_eq!(urls("if a < b then <a href=/x> a <3 b </ c"), ["/x"]);
        }

        #[test]
        fn unterminated_tag_is_text() {
            roundtrip("before <a href=");
            assert!(extract_links("before <a href=").is_empty());
            // An unclosed quote fails its tag; the scan resumes after the `<`.
            assert_eq!(urls(r#"<a href="/x><img src=/y>"#), ["/y"]);
        }

        #[test]
        fn script_content_is_raw() {
            // Real HTML would end the script at the quoted "</div>" too —
            // but ours requires a matching name, so it survives.
            let doc = r#"<script>if (a<b && c>d) { x="<a href='/in'></div>"; }</script><a href=/out>"#;
            assert_eq!(urls(doc), ["/out"]);
            roundtrip(doc);
            // The close tag's name must end at whitespace, `>` or the end.
            assert_eq!(urls("<script></scripts><a href=/in></script ><a href=/out>"), ["/out"]);
        }

        #[test]
        fn style_content_is_raw() {
            let doc = "<style>a > b { color: red } <img src=/in.gif></STYLE><img src=/out.gif>";
            assert_eq!(urls(doc), ["/out.gif"]);
            roundtrip(doc);
        }

        #[test]
        fn unclosed_script_swallows_rest() {
            let doc = "<script>var x = 1;<a href=/x>";
            assert!(extract_links(doc).is_empty());
            roundtrip(doc);
            // A self-closing raw-text element has no raw text.
            assert_eq!(urls("<script src=/s.js /><a href=/x>"), ["/s.js", "/x"]);
        }

        #[test]
        fn case_preserved_in_raw() {
            let doc = "<A HREF='/X.HTML'>Link</A>";
            roundtrip(doc);
            let l = extract_links(doc);
            assert_eq!((l[0].url.as_str(), l[0].tag, l[0].attr), ("/X.HTML", "a", "href"));
            assert_eq!(rewrite_all(doc, "/Y"), "<A HREF='/Y'>Link</A>");
        }

        #[test]
        fn frames_parse() {
            let doc = r#"<frameset cols="20%,80%"><frame src="/menu.html"><frame src="/body.html"></frameset>"#;
            let l = extract_links(doc);
            assert_eq!(l[0].url, "/menu.html");
            assert_eq!(l[1].kind, LinkKind::Embedded);
            roundtrip(doc);
        }

        #[test]
        fn whitespace_inside_tag_preserved_via_raw() {
            let doc = "<a   href = \"/x\"  >t</a >";
            roundtrip(doc);
            assert_eq!(urls(doc), ["/x"]);
            assert_eq!(rewrite_all(doc, "/y"), "<a href=\"/y\">t</a >");
        }

        #[test]
        fn processing_instruction() {
            roundtrip("<?xml version=\"1.0\"?><p>");
            // A declaration runs to its first `>`, whatever it holds.
            assert_eq!(urls("<?php echo '<a href=/x>' ?><!x <a href=/y>><a href=/z>"), ["/z"]);
        }

        #[test]
        fn empty_input() {
            assert!(extract_links("").is_empty());
            roundtrip("");
        }

        #[test]
        fn realistic_document_roundtrip() {
            let doc = r##"<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 3.2//EN">
<html><head><title>MAPUG Archive - Message 42</title></head>
<body bgcolor="#ffffff">
<h1>Re: Telescope eyepieces</h1>
<a href="msg041.html"><img src="/buttons/prev.gif" alt="Previous"></a>
<a href="msg043.html"><img src="/buttons/next.gif" alt="Next"></a>
<a href="/index.html"><img src='/buttons/index.gif'></a>
<pre>Message body text with a < b comparisons and &amp; entities.</pre>
<!-- footer -->
</body></html>"##;
            roundtrip(doc);
            assert_eq!(extract_links(doc).len(), 6);
            let (out, n) = rewrite_links(doc, |u| Some(format!("http://coop:1/~migrate/h/80/{u}")));
            assert_eq!(n, 6);
            assert_eq!(out.len(), doc.len() + 6 * "http://coop:1/~migrate/h/80/".len());
        }
    }
}

mod token {
    mod tests {
        use crate::{extract_links, rewrite_links};

        fn rewrite_all(doc: &str, to: &str) -> (String, usize) {
            rewrite_links(doc, |_| Some(to.to_string()))
        }

        #[test]
        fn attr_lookup_is_lowercase() {
            // Element and attribute names match the table in any case.
            assert_eq!(extract_links(r#"<IMG Src="/x">"#)[0].attr, "src");
            assert_eq!(extract_links(r#"<IMG Src="/x">"#)[0].tag, "img");
            assert!(extract_links(r#"<a hrefs="/x">"#).is_empty());
            // The first of a duplicated attribute decides, even when bare.
            assert_eq!(extract_links("<a href=/1 HREF=/2>")[0].url, "/1");
            assert!(extract_links("<a href href=/2>").is_empty());
        }

        #[test]
        fn set_attr_marks_modified() {
            assert_eq!(rewrite_all("<a href=/old>", "/new"), ("<a href=/new>".into(), 1));
            // Only an element's own URL attribute is a link.
            assert_eq!(rewrite_all("<p href=/old>", "/new"), ("<p href=/old>".into(), 0));
            // Every copy of a duplicated URL attribute is rewritten.
            assert_eq!(
                rewrite_all("<a href=/1 HREF=/2>", "/n"),
                ("<a href=/n HREF=/n>".into(), 2)
            );
        }

        #[test]
        fn modified_tag_regenerates() {
            assert_eq!(
                rewrite_all("<a  href=\"/old\"\n title=t>", "/new").0,
                "<a href=\"/new\" title=t>"
            );
        }

        #[test]
        fn unmodified_tag_emits_raw() {
            let doc = "<A  Href = '/x' >";
            assert_eq!(rewrite_all(doc, "/x"), (doc.into(), 0));
            assert_eq!(rewrite_links(doc, |_| None), (doc.into(), 0));
        }

        #[test]
        fn quote_style_preserved_and_escaped() {
            assert_eq!(rewrite_all("<a href='/x'>", "/y").0, "<a href='/y'>");
            // A value containing the source's quote flips to the other.
            assert_eq!(rewrite_all("<a href='/x'>", "it's").0, "<a href=\"it's\">");
            assert_eq!(rewrite_all("<a href=\"/x\">", "a\"b").0, "<a href='a\"b'>");
            // An untouched attribute of a rewritten tag follows the same rules.
            assert_eq!(
                rewrite_all("<a alt=it's href=/x>", "/y").0,
                "<a alt=\"it's\" href=/y>"
            );
        }

        #[test]
        fn unquoted_value_with_space_gets_quoted() {
            assert_eq!(rewrite_all("<a href=/x>", "two words").0, "<a href=\"two words\">");
            assert_eq!(rewrite_all("<a href=/x>", "a>b").0, "<a href=\"a>b\">");
            assert_eq!(rewrite_all("<a href=/x>", "").0, "<a href=\"\">");
            assert_eq!(rewrite_all("<a href=''>", "/y").0, "<a href='/y'>");
        }

        #[test]
        fn boolean_attr_serializes_bare() {
            assert_eq!(
                rewrite_all("<input  checked src=/x>", "/y").0,
                "<input checked src=/y>"
            );
            // A bare URL attribute has no value to pass to the map.
            assert_eq!(rewrite_all("<a href>", "/y"), ("<a href>".into(), 0));
        }

        #[test]
        fn self_closing_regeneration() {
            assert_eq!(rewrite_all("<img src=\"/i.gif\"/>", "/j.gif").0, "<img src=\"/j.gif\" />");
            assert_eq!(rewrite_all("<img src=\"/i.gif\" / >", "/j.gif").0, "<img src=\"/j.gif\">");
        }

        #[test]
        fn end_tag_regeneration() {
            // End tags are copied as they are, whatever their attributes.
            let doc = "<a href=/x></a  href=/x>";
            assert_eq!(rewrite_all(doc, "/y").0, "<a href=/y></a  href=/x>");
        }
    }
}
