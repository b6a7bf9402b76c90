//! The borrowed scan against the pipeline it replaced.
//!
//! `extract_links` and `rewrite_links` used to tokenize the whole document
//! into owned tokens, read or rewrite attributes on them, and serialize the
//! tokens back. They are now one borrowed scan over the source (plus a
//! splice, for a rewrite). [`reference`] below is the earlier pipeline,
//! verbatim but for its module paths, kept as the oracle. On every HTML
//! page of the four generated datasets, on HTML soup, and on seeded
//! mutants of hand-written and generated pages, the two must agree on
//! every link extracted (url, kind, tag, attribute, order) and on every
//! rewrite (output bytes, count, and the sequence of values passed to
//! `map`), under mappings that leave everything alone, change nothing,
//! move every link, do what the engine's regeneration does, and force a
//! change of quotes.

use dcws_html::{extract_links, rewrite_links, LinkKind};
use dcws_http::Url;
use dcws_workloads::{materialize::materialize, Dataset, PageKind};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::cell::Cell;
use std::collections::HashMap;
use std::panic;
use std::sync::{Once, OnceLock};
use std::time::{Duration, Instant};

/// The pipeline before the scan: `tokenizer.rs`, `token.rs`,
/// `extract_links` and `rewrite_links` as they were, unit tests left out.
#[allow(dead_code)]
mod reference {
    pub mod token {
        //! HTML token types.
        //!
        //! Every token remembers its original source text (`raw`), so a document
        //! whose tokens are never modified serializes back byte-for-byte. Only tags
        //! whose attributes were rewritten are regenerated from structure.

        /// Quoting style of an attribute value in the source.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Quote {
            /// `name="value"`
            Double,
            /// `name='value'`
            Single,
            /// `name=value`
            None,
        }

        /// One attribute inside a tag.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Attr {
            /// Attribute name exactly as written in the source.
            pub raw_name: String,
            /// Lowercased name for matching.
            pub name: String,
            /// Attribute value, `None` for boolean attributes like `checked`.
            pub value: Option<String>,
            /// Source quoting style (used when regenerating the tag).
            pub quote: Quote,
        }

        impl Attr {
            /// Build an attribute with a double-quoted value.
            pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
                let raw_name = name.into();
                Attr {
                    name: raw_name.to_ascii_lowercase(),
                    raw_name,
                    value: Some(value.into()),
                    quote: Quote::Double,
                }
            }

            fn write_to(&self, out: &mut String) {
                out.push_str(&self.raw_name);
                if let Some(v) = &self.value {
                    out.push('=');
                    // Choose a quoting style that can represent the value. Rewritten
                    // URLs never contain quotes, but be defensive.
                    let quote = match self.quote {
                        Quote::None
                            if v.is_empty()
                                || v.contains(|c: char| {
                                    c.is_ascii_whitespace() || c == '>' || c == '"' || c == '\''
                                }) =>
                        {
                            Quote::Double
                        }
                        Quote::Double if v.contains('"') => Quote::Single,
                        Quote::Single if v.contains('\'') => Quote::Double,
                        q => q,
                    };
                    match quote {
                        Quote::Double => {
                            out.push('"');
                            out.push_str(v);
                            out.push('"');
                        }
                        Quote::Single => {
                            out.push('\'');
                            out.push_str(v);
                            out.push('\'');
                        }
                        Quote::None => out.push_str(v),
                    }
                }
            }
        }

        /// A start or end tag.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Tag {
            /// Original source text including the angle brackets.
            pub raw: String,
            /// Tag name exactly as written.
            pub raw_name: String,
            /// Lowercased tag name for matching.
            pub name: String,
            /// `true` for `</name>` end tags.
            pub is_end: bool,
            /// `true` for `<name ... />` self-closing syntax.
            pub self_closing: bool,
            /// Attributes (empty for end tags).
            pub attrs: Vec<Attr>,
            /// Set when an attribute was rewritten; forces regeneration.
            pub modified: bool,
        }

        impl Tag {
            /// First value of attribute `name` (lowercase), if present.
            pub fn attr(&self, name: &str) -> Option<&str> {
                self.attrs
                    .iter()
                    .find(|a| a.name == name)
                    .and_then(|a| a.value.as_deref())
            }

            /// Set attribute `name` to `value`, marking the tag modified.
            /// Returns `true` if the attribute existed.
            pub fn set_attr(&mut self, name: &str, value: impl Into<String>) -> bool {
                if let Some(a) = self.attrs.iter_mut().find(|a| a.name == name) {
                    a.value = Some(value.into());
                    self.modified = true;
                    true
                } else {
                    false
                }
            }

            /// Serialize: original bytes if untouched, regenerated otherwise.
            pub fn write_to(&self, out: &mut String) {
                if !self.modified {
                    out.push_str(&self.raw);
                    return;
                }
                out.push('<');
                if self.is_end {
                    out.push('/');
                }
                out.push_str(&self.raw_name);
                for a in &self.attrs {
                    out.push(' ');
                    a.write_to(out);
                }
                if self.self_closing {
                    out.push_str(" /");
                }
                out.push('>');
            }
        }

        /// One lexical token of an HTML document.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Token {
            /// Character data outside of tags (raw, entities not decoded).
            Text(String),
            /// A comment, including the `<!--` … `-->` delimiters.
            Comment(String),
            /// A markup declaration (`<!DOCTYPE …>`) or processing instruction
            /// (`<? … >`), raw.
            Decl(String),
            /// A start or end tag.
            Tag(Tag),
        }

        impl Token {
            /// Append this token's serialization to `out`.
            pub fn write_to(&self, out: &mut String) {
                match self {
                    Token::Text(s) | Token::Comment(s) | Token::Decl(s) => out.push_str(s),
                    Token::Tag(t) => t.write_to(out),
                }
            }

            /// The tag, if this token is one.
            pub fn as_tag(&self) -> Option<&Tag> {
                match self {
                    Token::Tag(t) => Some(t),
                    _ => None,
                }
            }
        }
    }

    pub mod tokenizer {
        //! A forgiving, source-preserving HTML tokenizer.
        //!
        //! Design constraints, in order:
        //!
        //! 1. **Never lose bytes.** Every input byte lands in exactly one token's
        //!    raw text, so `serialize(tokenize(doc)) == doc`. Malformed markup
        //!    (stray `<`, unterminated tags) degrades to text rather than erroring —
        //!    real 1998-era web pages are full of it.
        //! 2. **Good enough structure for link rewriting.** Attribute values with
        //!    all three quoting styles, self-closing tags, comments, declarations,
        //!    and raw-text elements (`<script>`, `<style>`, …) are recognized.
        //! 3. **Single pass, no backtracking** beyond one saved index, because the
        //!    paper budgets ~3 ms to parse a 6.5 KB document on 1999 hardware and
        //!    we benchmark this path.

        use super::token::{Attr, Quote, Tag, Token};

        /// Elements whose content is raw text up to the matching end tag.
        const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style", "textarea", "xmp"];

        /// Tokenize an HTML document.
        pub fn tokenize(input: &str) -> Vec<Token> {
            let bytes = input.as_bytes();
            let mut tokens = Vec::new();
            let mut pos = 0;
            // Pending text start: text accumulates until a structural token begins.
            let mut text_start = 0;

            macro_rules! flush_text {
                ($upto:expr) => {
                    if text_start < $upto {
                        tokens.push(Token::Text(input[text_start..$upto].to_string()));
                    }
                };
            }

            while pos < bytes.len() {
                if bytes[pos] != b'<' {
                    pos += 1;
                    continue;
                }
                // A '<' — decide what it opens.
                let rest = &bytes[pos + 1..];
                if rest.starts_with(b"!--") {
                    flush_text!(pos);
                    let end = find_sub(bytes, b"-->", pos + 4)
                        .map(|i| i + 3)
                        .unwrap_or(bytes.len());
                    tokens.push(Token::Comment(input[pos..end].to_string()));
                    pos = end;
                    text_start = pos;
                } else if rest.first().is_some_and(|&b| b == b'!' || b == b'?') {
                    flush_text!(pos);
                    let end = find_byte(bytes, b'>', pos + 1)
                        .map(|i| i + 1)
                        .unwrap_or(bytes.len());
                    tokens.push(Token::Decl(input[pos..end].to_string()));
                    pos = end;
                    text_start = pos;
                } else if rest.first().is_some_and(|&b| b == b'/') {
                    // End tag.
                    match parse_end_tag(input, pos) {
                        Some((tag, end)) => {
                            flush_text!(pos);
                            tokens.push(Token::Tag(tag));
                            pos = end;
                            text_start = pos;
                        }
                        None => pos += 1, // stray "</" — stays text
                    }
                } else if rest.first().is_some_and(|b| b.is_ascii_alphabetic()) {
                    match parse_start_tag(input, pos) {
                        Some((tag, end)) => {
                            flush_text!(pos);
                            let raw_text =
                                RAW_TEXT_ELEMENTS.contains(&tag.name.as_str()) && !tag.self_closing;
                            let name = tag.name.clone();
                            tokens.push(Token::Tag(tag));
                            pos = end;
                            text_start = pos;
                            if raw_text {
                                // Content up to `</name` is raw text.
                                let close =
                                    find_close_tag(input, pos, &name).unwrap_or(bytes.len());
                                if close > pos {
                                    tokens.push(Token::Text(input[pos..close].to_string()));
                                }
                                pos = close;
                                text_start = pos;
                            }
                        }
                        None => pos += 1, // unterminated tag — stays text
                    }
                } else {
                    pos += 1; // literal '<' in text
                }
            }
            flush_text!(bytes.len());
            tokens
        }

        fn find_byte(bytes: &[u8], needle: u8, from: usize) -> Option<usize> {
            bytes[from.min(bytes.len())..]
                .iter()
                .position(|&b| b == needle)
                .map(|i| i + from)
        }

        fn find_sub(bytes: &[u8], needle: &[u8], from: usize) -> Option<usize> {
            if from >= bytes.len() {
                return None;
            }
            bytes[from..]
                .windows(needle.len())
                .position(|w| w == needle)
                .map(|i| i + from)
        }

        /// Find `</name` (case-insensitive) at or after `from`.
        fn find_close_tag(input: &str, from: usize, name: &str) -> Option<usize> {
            let bytes = input.as_bytes();
            let mut i = from;
            while let Some(lt) = find_byte(bytes, b'<', i) {
                if bytes.get(lt + 1) == Some(&b'/') {
                    let after = &input[lt + 2..];
                    if after.len() >= name.len() && after[..name.len()].eq_ignore_ascii_case(name) {
                        let nb = after.as_bytes().get(name.len());
                        if nb.is_none_or(|&b| b.is_ascii_whitespace() || b == b'>') {
                            return Some(lt);
                        }
                    }
                }
                i = lt + 1;
            }
            None
        }

        /// Parse `</name ...>` starting at `lt`; returns the tag and end offset.
        fn parse_end_tag(input: &str, lt: usize) -> Option<(Tag, usize)> {
            let bytes = input.as_bytes();
            let name_start = lt + 2;
            let mut i = name_start;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || matches!(bytes[i], b'-' | b':'))
            {
                i += 1;
            }
            if i == name_start {
                return None;
            }
            let raw_name = &input[name_start..i];
            let gt = find_byte(bytes, b'>', i)?;
            let end = gt + 1;
            Some((
                Tag {
                    raw: input[lt..end].to_string(),
                    raw_name: raw_name.to_string(),
                    name: raw_name.to_ascii_lowercase(),
                    is_end: true,
                    self_closing: false,
                    attrs: Vec::new(),
                    modified: false,
                },
                end,
            ))
        }

        /// Parse `<name attrs...>` starting at `lt`; returns the tag and end offset.
        /// Honors quotes (a `>` inside a quoted value does not end the tag).
        fn parse_start_tag(input: &str, lt: usize) -> Option<(Tag, usize)> {
            let bytes = input.as_bytes();
            let name_start = lt + 1;
            let mut i = name_start;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || matches!(bytes[i], b'-' | b':'))
            {
                i += 1;
            }
            let raw_name = &input[name_start..i];
            let mut attrs = Vec::new();
            let mut self_closing = false;

            loop {
                // Skip whitespace.
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i >= bytes.len() {
                    return None; // unterminated tag
                }
                match bytes[i] {
                    b'>' => {
                        let end = i + 1;
                        return Some((
                            Tag {
                                raw: input[lt..end].to_string(),
                                raw_name: raw_name.to_string(),
                                name: raw_name.to_ascii_lowercase(),
                                is_end: false,
                                self_closing,
                                attrs,
                                modified: false,
                            },
                            end,
                        ));
                    }
                    b'/' => {
                        if bytes.get(i + 1) == Some(&b'>') {
                            self_closing = true;
                        }
                        i += 1;
                    }
                    _ => {
                        // Attribute name.
                        let an_start = i;
                        while i < bytes.len()
                            && !bytes[i].is_ascii_whitespace()
                            && !matches!(bytes[i], b'=' | b'>' | b'/')
                        {
                            i += 1;
                        }
                        if i == an_start {
                            i += 1; // junk byte; skip
                            continue;
                        }
                        let raw_attr_name = &input[an_start..i];
                        // Optional "= value".
                        let mut j = i;
                        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                            j += 1;
                        }
                        let (value, quote) = if bytes.get(j) == Some(&b'=') {
                            j += 1;
                            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                                j += 1;
                            }
                            match bytes.get(j) {
                                Some(&q @ (b'"' | b'\'')) => {
                                    let v_start = j + 1;
                                    let v_end = find_byte(bytes, q, v_start)?;
                                    i = v_end + 1;
                                    (
                                        Some(input[v_start..v_end].to_string()),
                                        if q == b'"' {
                                            Quote::Double
                                        } else {
                                            Quote::Single
                                        },
                                    )
                                }
                                Some(_) => {
                                    let v_start = j;
                                    let mut k = j;
                                    while k < bytes.len()
                                        && !bytes[k].is_ascii_whitespace()
                                        && bytes[k] != b'>'
                                    {
                                        k += 1;
                                    }
                                    i = k;
                                    (Some(input[v_start..k].to_string()), Quote::None)
                                }
                                None => return None,
                            }
                        } else {
                            (None, Quote::None)
                        };
                        attrs.push(Attr {
                            name: raw_attr_name.to_ascii_lowercase(),
                            raw_name: raw_attr_name.to_string(),
                            value,
                            quote,
                        });
                    }
                }
            }
        }
    }

    pub mod links {
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

        use super::token::Tag;
        use super::tokenizer::tokenize;

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
            pub tag: String,
            /// Lowercased attribute name that held the URL.
            pub attr: String,
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

        /// Whether `tag.attrs[attr]` is a URL-bearing attribute, and its class.
        pub fn classify(tag: &str, attr: &str) -> Option<LinkKind> {
            URL_ATTRS
                .iter()
                .find(|(t, a, _)| *t == tag && *a == attr)
                .map(|(_, _, k)| *k)
        }

        fn links_of_tag(tag: &Tag, out: &mut Vec<LinkRef>) {
            if tag.is_end {
                return;
            }
            for (t, a, kind) in URL_ATTRS {
                if tag.name == *t {
                    if let Some(url) = tag.attr(a) {
                        if !url.is_empty() && !is_non_http(url) {
                            out.push(LinkRef {
                                url: url.to_string(),
                                kind: *kind,
                                tag: tag.name.clone(),
                                attr: (*a).to_string(),
                            });
                        }
                    }
                }
            }
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
        pub fn extract_links(html: &str) -> Vec<LinkRef> {
            let mut out = Vec::new();
            for token in tokenize(html) {
                if let Some(tag) = token.as_tag() {
                    links_of_tag(tag, &mut out);
                }
            }
            out
        }
    }

    pub mod rewrite {
        //! In-place hyperlink rewriting — the heart of DCWS document
        //! reconstruction (§4.3).
        //!
        //! When a document's `Dirty` bit is set (one of its `LinkTo` targets
        //! migrated), the server re-parses the source, substitutes the affected
        //! URLs, and writes the regenerated document back. [`rewrite_links`] does
        //! the parse → substitute → serialize pipeline in one call; tags whose
        //! attributes didn't change are emitted from their original source bytes,
        //! so a no-op rewrite returns the document unchanged, byte for byte.

        use super::links::classify;
        use super::token::Token;
        use super::tokenizer::tokenize;

        /// Rewrite every recognized URL-bearing attribute with `map`.
        ///
        /// `map` receives the raw attribute value and returns `Some(new)` to
        /// substitute or `None` to leave it alone. Returns the regenerated document
        /// and the number of substitutions performed.
        pub fn rewrite_links(
            html: &str,
            mut map: impl FnMut(&str) -> Option<String>,
        ) -> (String, usize) {
            let mut tokens = tokenize(html);
            let mut replaced = 0;
            for token in &mut tokens {
                let Token::Tag(tag) = token else { continue };
                if tag.is_end {
                    continue;
                }
                // Collect (index, new value) first to appease the borrow checker.
                let mut updates: Vec<(usize, String)> = Vec::new();
                for (i, attr) in tag.attrs.iter().enumerate() {
                    if classify(&tag.name, &attr.name).is_none() {
                        continue;
                    }
                    let Some(value) = attr.value.as_deref() else {
                        continue;
                    };
                    if let Some(new) = map(value) {
                        if new != value {
                            updates.push((i, new));
                        }
                    }
                }
                for (i, new) in updates {
                    tag.attrs[i].value = Some(new);
                    tag.modified = true;
                    replaced += 1;
                }
            }
            (super::serialize(&tokens), replaced)
        }
    }

    use token::Token;

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
}

/// A URL mapping, as `rewrite_links` takes it.
type Map<'a> = Box<dyn Fn(&str) -> Option<String> + 'a>;

/// Which documents of a site exist, and which of them have migrated.
type Site = HashMap<String, bool>;

/// Hold `extract_links` and `rewrite_links` under `map` to the reference
/// on `doc`. Returns `false`, comparing nothing, where the reference
/// panics (see [`reference_panics_on_a_close_tag_name_split_mid_char`]).
fn check(doc: &str, map: &dyn Fn(&str) -> Option<String>) -> Result<bool, TestCaseError> {
    let reference = quietly(|| {
        let links: Vec<_> = reference::links::extract_links(doc)
            .into_iter()
            .map(|l| {
                let kind = match l.kind {
                    reference::links::LinkKind::Hyperlink => LinkKind::Hyperlink,
                    reference::links::LinkKind::Embedded => LinkKind::Embedded,
                };
                (l.url, kind, l.tag, l.attr)
            })
            .collect();
        let mut seen = Vec::new();
        let rewritten = reference::rewrite::rewrite_links(doc, |u| {
            seen.push(u.to_string());
            map(u)
        });
        (links, rewritten, seen)
    });
    let links: Vec<_> = extract_links(doc)
        .into_iter()
        .map(|l| (l.url, l.kind, l.tag.to_string(), l.attr.to_string()))
        .collect();
    let mut seen = Vec::new();
    let rewritten = rewrite_links(doc, |u| {
        seen.push(u.to_string());
        map(u)
    });
    let (want_links, want_rewritten, want_seen) = match reference {
        Ok(r) => r,
        Err(msg) => {
            prop_assert!(
                msg.contains("is not a char boundary"),
                "reference panicked: {msg}"
            );
            return Ok(false);
        }
    };
    prop_assert_eq!(links, want_links, "links of {:?}", doc);
    prop_assert_eq!(seen, want_seen, "values passed to map for {:?}", doc);
    prop_assert_eq!(rewritten, want_rewritten, "rewrite of {:?}", doc);
    Ok(true)
}

thread_local!(static QUIET: Cell<bool> = const { Cell::new(false) });

/// Run `f`; if it panics, return the panic's message instead of printing it.
fn quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                default(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = panic::catch_unwind(panic::AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    out.map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// The mapping `ServerEngine::regenerate` applies to the document `name`
/// on home server `home:80`: only site-local links are touched; a link to
/// a migrated document becomes its co-op's `~migrate` URL; a link to a
/// home document becomes its plain path (`AbsoluteHome = false`, serving
/// at home) or an absolute URL at home (`true`, a copy shipped to a co-op).
fn engine_map<'a>(name: &str, site: &'a Site, absolute_home: bool) -> Map<'a> {
    let base = Url::relative(name).ok();
    let coop = name.len() % 3;
    Box::new(move |raw| {
        let u = base.as_ref()?.join(raw).ok()?;
        if u.host().is_some_and(|h| h != "home") || (u.host().is_some() && u.port() != 80) {
            return None;
        }
        let path = u.path();
        if *site.get(path)? {
            Some(format!("http://coop{coop}:8001/~migrate/home/80{path}"))
        } else if absolute_home {
            Some(format!("http://home:80{path}"))
        } else {
            (raw != path).then(|| path.to_string())
        }
    })
}

/// Values that cannot keep every source quoting style: they hold a `"`,
/// a `'`, both, a space or a `>`, or are empty. Some URLs are left alone.
fn quote_forcing(u: &str) -> Option<String> {
    const VALUES: [&str; 6] = ["a\"b", "it's", "\"both'", "two words", "a>b", ""];
    VALUES.get(u.len() % 7).map(|v| v.to_string())
}

/// Every mapping a page is checked under.
fn mappings<'a>(name: &str, site: &'a Site) -> Vec<Map<'a>> {
    vec![
        Box::new(|_| None),
        Box::new(|u| Some(u.to_string())),
        Box::new(|u| Some(format!("http://coop:8001/~migrate/home/80{u}"))),
        engine_map(name, site, false),
        engine_map(name, site, true),
        Box::new(quote_forcing),
    ]
}

/// `doc` under every mapping, `name` being where it is published.
fn check_all(name: &str, doc: &str, site: &Site) -> Result<bool, TestCaseError> {
    let mut compared = true;
    for map in mappings(name, site) {
        compared &= check(doc, &map)?;
    }
    Ok(compared)
}

/// A site with every third document migrated.
fn partly_migrated<'a>(names: impl Iterator<Item = &'a str>) -> Site {
    names
        .enumerate()
        .map(|(i, n)| (n.to_string(), i % 3 == 0))
        .collect()
}

/// The HTML pages of dataset `name` on `seed`, as `(path, text)`.
fn pages(name: &str, seed: u64) -> (Vec<(String, String)>, Site) {
    let ds = Dataset::by_name(name, seed).expect("known dataset");
    let site = partly_migrated(ds.docs.iter().map(|d| d.name.as_str()));
    let pages = ds
        .docs
        .iter()
        .filter(|d| d.kind == PageKind::Html)
        .map(|d| {
            let text = String::from_utf8_lossy(&materialize(d)).into_owned();
            (d.name.clone(), text)
        })
        .collect();
    (pages, site)
}

/// Every HTML page of dataset `name`, on two seeds, under every mapping.
fn dataset_agrees(name: &str) {
    for seed in [1, 1999] {
        let (pages, site) = pages(name, seed);
        assert!(!pages.is_empty());
        let mut links = 0;
        for (path, text) in &pages {
            assert!(check_all(path, text, &site).unwrap(), "{name} {path}");
            links += extract_links(text).len();
        }
        assert!(links > 0, "{name} seed {seed}: no links to compare");
    }
}

#[test]
fn lod_pages_agree() {
    dataset_agrees("lod");
}

#[test]
fn sblog_pages_agree() {
    dataset_agrees("sblog");
}

#[test]
fn mapug_pages_agree() {
    dataset_agrees("mapug");
}

#[test]
fn sequoia_pages_agree() {
    dataset_agrees("sequoia");
}

/// Arbitrary "HTML-ish" soup (the strategy of `proptest_html.rs`).
fn html_soup() -> impl Strategy<Value = String> {
    proptest::string::string_regex(r#"([a-z <>/='"!?-]|<a href=/[a-z]{1,8}>|<img src='/[a-z]{1,8}\.gif'>|</a>|<!-- [a-z]* -->){0,40}"#)
        .unwrap()
}

/// A site holding every path `doc` links to from `/dir/page.html`, every
/// other one migrated.
fn site_of(doc: &str) -> Site {
    let base = Url::relative("/dir/page.html").unwrap();
    let paths: Vec<String> = quietly(|| reference::links::extract_links(doc))
        .unwrap_or_default()
        .iter()
        .filter_map(|l| base.join(&l.url).ok())
        .map(|u| u.path().to_string())
        .collect();
    partly_migrated(paths.iter().map(String::as_str))
}

/// Hand-written pages for the mutator to start from: every rule of the
/// scan at least once.
const SEEDS: [&str; 6] = [
    r##"<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 3.2//EN">
<html><head><title>MAPUG 42</title><link rel=stylesheet href="/s.css"></head>
<BODY BACKGROUND='/tile.gif' bgcolor="#ffffff">
<A HREF="msg041.html"><IMG SRC="/buttons/prev.gif" ALT="Previous"></A>
<a href='msg043.html' href="/dup.html"><img src=/buttons/next.gif alt=Next /></a>
<a href><area href=/map.html shape=rect coords="0,0,5,5"><input type=image src=/go.gif checked>
<pre>Message body with a < b and &amp; entities.</pre>
<!-- footer <a href="/hidden.html"> -->
</body></html>"##,
    r#"<script src="/a.js"></script><script>document.write('<a href="/fake.html">');</SCRIPT >
<style>a > b { color: red } <img src=/in.gif></style><a href=/after.html>ok</a>
<textarea><a href=/no.html></textarea><xmp><img src=/no.gif></xmp><iframe src=/f.html></iframe>"#,
    r##"<frameset cols="20%,80%"><frame src="/menu.html"><frame src='/body.html'/></frameset>
<embed src=/movie.mov><a href="mailto:x@y">m</a><a href="#top">t</a><a href="https://s/x">s</a>
<a href="http://home:80/abs.html">abs</a><a href="http://other:81/x.html">ext</a><a href="../up.html">up</a>"##,
    r#"<?xml version="1.0"?><!ENTITY x "<a href=/ent.html>"><p>a <3 b</p><a   href = "/sp.html"  >sp</a >
<?php echo '<a href=/php.html>' ?><!--><a href=/c.html>--><img = src=/eq.gif><img == src=/eq2.gif>
<a title=it's href=/q.html>q</a><a href="/x?a>b" title='say "hi"'>gt</a><br/><img src=x/>"#,
    "<a href=/one.html>1</a><a href=/two.html>2<a href=/three.html>3</A><IMG src=/i.gif>",
    "",
];

/// Bytes worth splicing in: tag, quote and comment structure, raw-text
/// delimiters, case, duplicate and bare URL attributes, invalid UTF-8.
const SPLICES: [&[u8]; 23] = [
    b"<",
    b">",
    b"\"",
    b"'",
    b"<!--",
    b"-->",
    b"<!-->",
    b"<?",
    b" = ",
    b"</script",
    b"<script>",
    b"</STYLE >",
    b"<A HREF=",
    b" href=/d.html",
    b" href href='/e.html'",
    b" SRC",
    b"/>",
    b"=",
    b"<!",
    b"\xff",
    b"\xe2\x80",
    b"\xc3\xa9",
    b" ",
];

/// Apply one seeded mutation to `buf`.
fn mutate(buf: &mut Vec<u8>, kind: u8, at: f64, byte: u8) {
    let pos = ((buf.len() as f64) * at) as usize;
    let last = buf.len().saturating_sub(1);
    match kind % 4 {
        0 if !buf.is_empty() => buf[pos.min(last)] ^= 1 << (byte % 8),
        1 => buf.truncate(pos),
        2 if !buf.is_empty() => buf[pos.min(last)] = byte,
        _ => {
            let s = SPLICES[byte as usize % SPLICES.len()];
            buf.splice(pos..pos, s.iter().copied());
        }
    }
}

/// The starts of mutants: the hand-written pages and up to three short
/// generated pages of each dataset.
fn corpus() -> &'static [(String, String)] {
    static CORPUS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut docs: Vec<(String, String)> = SEEDS
            .iter()
            .map(|s| ("/dir/page.html".to_string(), s.to_string()))
            .collect();
        for ds in ["lod", "sblog", "mapug", "sequoia"] {
            let short = pages(ds, 1)
                .0
                .into_iter()
                .filter(|(_, text)| text.len() <= 4096);
            docs.extend(short.take(3));
        }
        docs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn soup_agrees(doc in html_soup()) {
        check_all("/dir/page.html", &doc, &site_of(&doc))?;
    }

    #[test]
    fn mutants_agree(
        seed in 0usize..1_000,
        edits in proptest::collection::vec((any::<u8>(), 0.0f64..1.0, any::<u8>()), 1..6),
    ) {
        let docs = corpus();
        let (name, doc) = &docs[seed % docs.len()];
        let mut buf = doc.clone().into_bytes();
        for (kind, at, byte) in edits {
            mutate(&mut buf, kind, at, byte);
            // What the engine reads a published document as.
            let text = String::from_utf8_lossy(&buf);
            check_all(name, &text, &site_of(&text))?;
        }
    }
}

/// `<a` repeated, `</a` repeated and `<a href="x` repeated, each with no
/// `>` anywhere: every `<` opens a tag that can never close. Then `<a `
/// and `<a` repeated before one `x=">`: the document ends in a `>`, but
/// each tag's last value opens a quote that runs past it. Linear, and the
/// reference's answer on a 10 KB prefix.
#[test]
fn unclosed_tags_are_linear() {
    let doc = |unit: &str, tail: &str, len: usize| unit.repeat(len / unit.len()) + tail;
    for (unit, tail) in [
        ("<a", ""),
        ("</a", ""),
        ("<a href=\"x", ""),
        ("<a ", "x=\">"),
        ("<a", " x=\">"),
    ] {
        let small = doc(unit, tail, 10 * 1024);
        assert!(check(&small, &|_| Some("/y".into())).unwrap());
        let big = doc(unit, tail, 1 << 20);
        let t0 = Instant::now();
        assert!(extract_links(&big).is_empty());
        assert_eq!(rewrite_links(&big, |_| Some("/y".into())).1, 0);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "1 MB of {unit:?}: {took:?}");
    }
}

/// The reference compared the name after `</` to a raw-text element's
/// name by slicing the document's text at the name's length, which panics
/// when that offset falls inside a multi-byte character — a page holding
/// `<script>` and then `</scrip` + `é`, or an invalid byte there read
/// through `from_utf8_lossy` (U+FFFD is three bytes). The scan compares
/// bytes: no close tag there, and no panic.
#[test]
fn reference_panics_on_a_close_tag_name_split_mid_char() {
    let lossy = String::from_utf8_lossy(b"<script>x</scrip\xff><a href=/y>").into_owned();
    for doc in [
        "<script>x</scrip\u{e9}><a href=/y></script><a href=/z>",
        &lossy,
    ] {
        let msg = quietly(|| reference::links::extract_links(doc)).unwrap_err();
        assert!(msg.contains("is not a char boundary"), "{msg}");
        assert!(matches!(check(doc, &|_| None), Ok(false)));
    }
    let links = extract_links("<script>x</scrip\u{e9}><a href=/y></script><a href=/z>");
    assert_eq!(
        links.iter().map(|l| l.url.as_str()).collect::<Vec<_>>(),
        ["/z"]
    );
    assert!(extract_links(&lossy).is_empty());
    assert_eq!(
        rewrite_links(&lossy, |_| Some("/w".into())),
        (lossy.clone(), 0)
    );
}
