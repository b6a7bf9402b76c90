//! Hyperlink extraction and hyperlink rewriting for DCWS.
//!
//! The DCWS paper (§4.3) describes the mechanism: *"a HTML parser builds a
//! simple parse tree from an HTML source file of the document. Any modified
//! links are then replaced in the parse tree, the parse tree is turned back
//! into a stream of HTML tokens, and then written back to its HTML source
//! file."*
//!
//! A hyperlink is one attribute of one tag, so this crate needs neither the
//! tree nor the token stream: one borrowed scan of the source finds every
//! start tag and its attributes. [`extract_links`] reads the URL-bearing
//! attributes off it (hyperlinks and embedded references, the two classes
//! the paper's client treats differently); [`rewrite_links`] copies the
//! source around the tags whose URL a mapping changed, so an untouched
//! document comes back **byte-identical**. Malformed markup degrades to
//! text; nothing fails.
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

mod links;
mod rewrite;
mod scan;

pub use links::{extract_links, LinkKind, LinkRef};
pub use rewrite::rewrite_links;

// Unit tests of the scan's rules, kept under the module paths of the
// pipeline they were first written for.
#[cfg(test)]
include!("../tests/unit/rules.rs");
