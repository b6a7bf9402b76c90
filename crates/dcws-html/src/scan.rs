//! The one pass over an HTML document that link extraction and link
//! rewriting share.
//!
//! [`start_tags`] walks the source bytes and yields every start tag as
//! slices of the source — its name, and on request its attributes —
//! allocating nothing. What is a tag and what is text:
//!
//! * `<!--` opens a comment that runs to the next `-->`; any other `<!`
//!   or `<?` opens a declaration that runs to the next `>` (either runs
//!   to the end of the document if the closer never comes);
//! * `</name …>` is an end tag;
//! * `<name attrs…>` is a start tag. Attribute values may be double-,
//!   single- or un-quoted, and a `>` inside a quoted value does not end
//!   the tag; an attribute may be bare (`checked`); a tag ending in `/>`
//!   is self-closing;
//! * after a `script`, `style`, `textarea` or `xmp` start tag, the
//!   content up to the matching `</name` is raw text;
//! * anything else — a stray `<`, a tag that never reaches its `>` — is
//!   text. Malformed markup degrades; it never fails.
//!
//! Every boundary the scan reports sits on an ASCII byte, so the slices it
//! hands out are always valid `&str`s of the source.

use std::ops::Range;

/// Elements whose content is raw text up to the matching end tag.
const RAW_TEXT_ELEMENTS: [&str; 4] = ["script", "style", "textarea", "xmp"];

/// How an attribute value was quoted in the source.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Quote {
    /// `name="value"`
    Double,
    /// `name='value'`
    Single,
    /// `name=value`, or a bare `name`
    Bare,
}

/// One attribute of a start tag, borrowed from the source.
#[derive(Clone, Copy)]
pub(crate) struct Attr<'a> {
    /// The name as written.
    pub name: &'a str,
    /// The value inside its quotes; `None` for a bare attribute.
    pub value: Option<&'a str>,
    /// How the value was quoted.
    pub quote: Quote,
}

/// A start tag, borrowed from the source.
pub(crate) struct StartTag<'a> {
    /// Byte range of the whole tag, `<` through `>`.
    pub span: Range<usize>,
    /// The name as written.
    pub name: &'a str,
    /// The tag ends in `/>`.
    pub self_closing: bool,
    src: &'a str,
}

impl<'a> StartTag<'a> {
    /// The attributes, in source order.
    pub fn attrs(&self) -> Attrs<'a> {
        Attrs::new(self.src, self.span.start + 1 + self.name.len())
    }
}

/// Every start tag of `html`, in document order.
pub(crate) fn start_tags(html: &str) -> StartTags<'_> {
    StartTags {
        src: html,
        pos: 0,
        last_gt: html.bytes().rposition(|b| b == b'>'),
        dead: Vec::new(),
    }
}

/// The iterator of [`start_tags`].
pub(crate) struct StartTags<'a> {
    src: &'a str,
    pos: usize,
    /// Where the document's last `>` is. A tag is accepted only at a `>`,
    /// so one opened after it is text at once — which keeps a document of
    /// unclosed `<a`s linear instead of a tag parse to the end per `<`.
    last_gt: Option<usize>,
    /// A bit per byte a failed tag's walk read between attributes or as a
    /// name. A later walk that lands on one goes on as that one did and
    /// fails the same way, so it stops there: `<a ` repeated before one
    /// unclosed quote stays linear too.
    dead: Vec<u64>,
}

impl<'a> Iterator for StartTags<'a> {
    type Item = StartTag<'a>;

    fn next(&mut self) -> Option<StartTag<'a>> {
        let b = self.src.as_bytes();
        while let Some(lt) = find_byte(b, b'<', self.pos) {
            let closable = self.last_gt.is_some_and(|gt| gt > lt);
            self.pos = lt + 1;
            match b.get(lt + 1) {
                Some(b'!') if b[lt + 1..].starts_with(b"!--") => {
                    // The search starts after the `<!--`: `<!-->` is open.
                    let rest = self.src[lt + 4..].find("-->");
                    self.pos = rest.map_or(b.len(), |i| lt + 4 + i + 3);
                }
                Some(b'!' | b'?') => {
                    self.pos = find_byte(b, b'>', lt + 1).map_or(b.len(), |i| i + 1);
                }
                Some(b'/') if closable && b.get(lt + 2).is_some_and(|&c| is_name_byte(c)) => {
                    self.pos = find_byte(b, b'>', lt + 2).map_or(b.len(), |i| i + 1);
                }
                Some(c) if c.is_ascii_alphabetic() && closable => {
                    if let Some(tag) = self.start_tag(lt) {
                        return Some(tag);
                    }
                }
                _ => {}
            }
        }
        self.pos = b.len();
        None
    }
}

impl<'a> StartTags<'a> {
    /// The start tag opened by the `<` at `lt`, if it reaches its `>`;
    /// moves past it, and past the raw text of a raw-text element.
    fn start_tag(&mut self, lt: usize) -> Option<StartTag<'a>> {
        let b = self.src.as_bytes();
        let name = &self.src[lt + 1..skip(b, lt + 1, is_name_byte)];
        let from = lt + 1 + name.len();
        if self.is_dead(from) {
            return None;
        }
        let attrs = self.walk(from, false);
        let Some(end) = attrs.end else {
            self.walk(from, true);
            return None;
        };
        self.pos = end;
        if !attrs.self_closing
            && RAW_TEXT_ELEMENTS
                .iter()
                .any(|r| r.eq_ignore_ascii_case(name))
        {
            self.pos = find_close_tag(b, end, name).unwrap_or(b.len());
        }
        Some(StartTag {
            span: lt..end,
            name,
            self_closing: attrs.self_closing,
            src: self.src,
        })
    }

    fn is_dead(&self, i: usize) -> bool {
        self.dead
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Walk the attributes from `from` to the tag's `>` (`end` set) or to
    /// where it cannot close; `bury` marks dead what the walk read between
    /// attributes and as their names.
    fn walk(&mut self, from: usize, bury: bool) -> Attrs<'a> {
        let b = self.src.as_bytes();
        let mut attrs = Attrs::new(self.src, from);
        loop {
            let between = attrs.i;
            let start = attrs.name_start();
            if bury {
                self.mark(between..start.unwrap_or(b.len()));
            }
            let Some(start) = start.filter(|&s| !self.is_dead(s)) else {
                return attrs;
            };
            let end = name_end(b, start);
            let joined = self.is_dead(end - 1);
            if bury {
                self.mark(start..end);
            }
            if joined || attrs.attr_at(start, end).is_none() {
                return attrs;
            }
        }
    }

    fn mark(&mut self, bytes: Range<usize>) {
        if self.dead.is_empty() {
            self.dead = vec![0; self.src.len() / 64 + 1];
        }
        for i in bytes {
            self.dead[i / 64] |= 1 << (i % 64);
        }
    }
}

/// The attributes of one start tag, parsed from just past its name.
pub(crate) struct Attrs<'a> {
    src: &'a str,
    i: usize,
    /// Set once the tag's `>` is reached: the offset just past it.
    end: Option<usize>,
    self_closing: bool,
}

impl<'a> Attrs<'a> {
    fn new(src: &'a str, i: usize) -> Self {
        Attrs {
            src,
            i,
            end: None,
            self_closing: false,
        }
    }

    /// Where the next attribute's name starts; `None` at the tag's `>`
    /// (which sets `end`) or at the end of the document.
    fn name_start(&mut self) -> Option<usize> {
        let b = self.src.as_bytes();
        loop {
            self.i = skip(b, self.i, |c| c.is_ascii_whitespace());
            match *b.get(self.i)? {
                b'>' => {
                    self.end = Some(self.i + 1);
                    return None;
                }
                b'/' => {
                    self.self_closing |= b.get(self.i + 1) == Some(&b'>');
                    self.i += 1;
                }
                // An attribute with no name: the `=` is junk, skipped.
                b'=' => self.i += 1,
                _ => return Some(self.i),
            }
        }
    }

    /// The attribute named by `start..name_end`, with its value; `None`
    /// where the value's quote never closes.
    fn attr_at(&mut self, start: usize, name_end: usize) -> Option<Attr<'a>> {
        let b = self.src.as_bytes();
        let eq = skip(b, name_end, |c| c.is_ascii_whitespace());
        let (value, quote, next) = if b.get(eq) != Some(&b'=') {
            (None, Quote::Bare, name_end)
        } else {
            let v = skip(b, eq + 1, |c| c.is_ascii_whitespace());
            let quote = match *b.get(v)? {
                b'"' => Quote::Double,
                b'\'' => Quote::Single,
                _ => Quote::Bare,
            };
            if quote == Quote::Bare {
                let end = skip(b, v, |c| !c.is_ascii_whitespace() && c != b'>');
                (Some(&self.src[v..end]), quote, end)
            } else {
                let close = find_byte(b, b[v], v + 1)?;
                (Some(&self.src[v + 1..close]), quote, close + 1)
            }
        };
        self.i = next;
        let name = &self.src[start..name_end];
        Some(Attr { name, value, quote })
    }
}

impl<'a> Iterator for Attrs<'a> {
    type Item = Attr<'a>;

    /// The next attribute; `None` at the tag's `>` (which sets `end`), or
    /// where the tag cannot close — an unclosed quote, or the document
    /// ending inside the tag (which leaves `end` unset).
    fn next(&mut self) -> Option<Attr<'a>> {
        let start = self.name_start()?;
        self.attr_at(start, name_end(self.src.as_bytes(), start))
    }
}

/// Where the attribute name starting at `start` ends.
fn name_end(b: &[u8], start: usize) -> usize {
    skip(b, start, |c| {
        !c.is_ascii_whitespace() && !matches!(c, b'=' | b'>' | b'/')
    })
}

fn is_name_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'-' | b':')
}

/// Offset of the first byte at or after `from` that `keep` rejects.
fn skip(b: &[u8], mut from: usize, keep: impl Fn(u8) -> bool) -> usize {
    while b.get(from).is_some_and(|&c| keep(c)) {
        from += 1;
    }
    from
}

/// Offset of the first `needle` at or after `from`, eight bytes at a time.
fn find_byte(b: &[u8], needle: u8, from: usize) -> Option<usize> {
    const LO: u64 = u64::from_ne_bytes([0x01; 8]);
    const HI: u64 = u64::from_ne_bytes([0x80; 8]);
    let pattern = LO * u64::from(needle);
    let mut chunks = b.get(from..)?.chunks_exact(8);
    let mut at = from;
    for chunk in &mut chunks {
        // A byte equal to `needle` is a zero byte of `x`; the lowest byte
        // flagged in `zero` is the first of them.
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes")) ^ pattern;
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(at + zero.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = chunks.remainder();
    tail.iter().position(|&c| c == needle).map(|k| at + k)
}

/// Offset of the first `</name` (any case) at or after `from` that is
/// followed by whitespace, `>` or the end of the document.
fn find_close_tag(b: &[u8], from: usize, name: &str) -> Option<usize> {
    let n = name.len();
    let mut i = from;
    while let Some(lt) = find_byte(b, b'<', i) {
        let after = lt + 2 + n;
        if b.get(lt + 1) == Some(&b'/')
            && b.get(lt + 2..after)
                .is_some_and(|s| s.eq_ignore_ascii_case(name.as_bytes()))
            && b.get(after)
                .is_none_or(|&c| c.is_ascii_whitespace() || c == b'>')
        {
            return Some(lt);
        }
        i = lt + 1;
    }
    None
}
