//! HTML parsing, hyperlink extraction, and hyperlink rewriting for DCWS.
//!
//! The DCWS paper (§4.3) describes the mechanism: *"a HTML parser builds a
//! simple parse tree from an HTML source file of the document. Any modified
//! links are then replaced in the parse tree, the parse tree is turned back
//! into a stream of HTML tokens, and then written back to its HTML source
//! file."*
//!
//! This crate provides that pipeline, built from scratch, without the
//! tree: a hyperlink is an attribute of one tag, so extraction and
//! replacement run over the token stream and nothing needs the nesting.
//!
//! * [`tokenizer`] — a forgiving HTML tokenizer that preserves the original
//!   source text of every token, so re-serializing an untouched document is
//!   **byte-identical** (verified by property tests),
//! * [`links`] — extraction of hyperlinks (`a href`, `area href`,
//!   `frame src`, …) and embedded references (`img src`, …), the two
//!   classes the paper's client benchmark treats differently,
//! * [`rewrite`] — in-place hyperlink replacement driven by a mapping
//!   closure; only tags that actually change are re-serialized.
//!
//! # Example
//!
//! ```
//! use dcws_html::{extract_links, rewrite_links, LinkKind};
//!
//! let html = r#"<html><body><a href="/d.html">D</a><img src="/btn.gif"></body></html>"#;
//! let links = extract_links(html);
//! assert_eq!(links.len(), 2);
//! assert_eq!(links[0].kind, LinkKind::Hyperlink);
//! assert_eq!(links[1].kind, LinkKind::Embedded);
//!
//! // Migrate /d.html to a co-op server: rewrite the link.
//! let (out, n) = rewrite_links(html, |url| {
//!     (url == "/d.html").then(|| "http://coop:8001/~migrate/home/80/d.html".to_string())
//! });
//! assert_eq!(n, 1);
//! assert!(out.contains("coop:8001"));
//! ```

#![warn(missing_docs)]

pub mod links;
pub mod rewrite;
pub mod token;
pub mod tokenizer;

pub use links::{extract_links, LinkKind, LinkRef};
pub use rewrite::rewrite_links;
pub use token::{Attr, Quote, Tag, Token};
pub use tokenizer::tokenize;

/// Serialize a token stream back to HTML text.
///
/// Untouched tokens emit their original source bytes, so
/// `serialize(tokenize(doc)) == doc` for any input document.
pub fn serialize(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        t.write_to(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_serialize_identity_smoke() {
        let doc = "<!DOCTYPE html>\n<html>\n<!-- c -->\n<body class=x>\
                   <a href='/a'>text</a><img src=/i.gif></body></html>";
        assert_eq!(serialize(&tokenize(doc)), doc);
    }
}
