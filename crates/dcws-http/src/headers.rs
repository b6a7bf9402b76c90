//! Ordered, case-insensitive HTTP header map.

use crate::error::{HttpError, Result};
use std::borrow::Cow;

/// An ordered multimap of HTTP headers with case-insensitive name lookup.
///
/// Order is preserved because the DCWS piggyback mechanism may emit several
/// `X-DCWS-Load` entries per message (one per known server) and the gossip
/// merge is order-sensitive only for deterministic tests; RFC 2616 requires
/// preserving the relative order of same-named fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    /// `(name, value)` in insertion order. A name is borrowed when it is
    /// one of this crate's own constants ([`Self::push_static`]), owned
    /// otherwise.
    entries: Vec<(Cow<'static, str>, String)>,
}

/// Case-insensitive name equality. Names nearly always arrive in the
/// spelling they are asked for in, which a plain comparison settles.
fn name_eq(a: &str, b: &str) -> bool {
    a == b || a.eq_ignore_ascii_case(b)
}

/// Returns true if `name` is a valid RFC 2616 token.
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| {
            b.is_ascii_alphanumeric()
                || matches!(
                    b,
                    b'!' | b'#'
                        | b'$'
                        | b'%'
                        | b'&'
                        | b'\''
                        | b'*'
                        | b'+'
                        | b'-'
                        | b'.'
                        | b'^'
                        | b'_'
                        | b'`'
                        | b'|'
                        | b'~'
                )
        })
}

/// Returns true if `value` contains no CR/LF (header injection guard).
pub(crate) fn valid_value(value: &str) -> bool {
    !value.bytes().any(|b| b == b'\r' || b == b'\n')
}

impl Headers {
    /// Create an empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of header fields (counting duplicates).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a field, validating name and value.
    ///
    /// Returns an error for invalid header names or values containing
    /// CR/LF (which would permit response-splitting attacks).
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) -> Result<()> {
        let name = name.into();
        if !valid_name(&name) {
            return Err(HttpError::BadHeader(name));
        }
        self.push_checking_value(name.into(), value.into())
    }

    /// Append a field named by one of this crate's own constants: the
    /// name is known to be a token and is kept by reference, so only the
    /// value is checked and nothing is allocated for the name.
    pub(crate) fn push_static(&mut self, name: &'static str, value: String) -> Result<()> {
        debug_assert!(valid_name(name));
        self.push_checking_value(Cow::Borrowed(name), value)
    }

    fn push_checking_value(&mut self, name: Cow<'static, str>, value: String) -> Result<()> {
        if !valid_value(&value) {
            return Err(HttpError::BadHeader(format!("{name}: {value}")));
        }
        self.entries.push((name, value));
        Ok(())
    }

    /// Append a field that [`valid_name`] and [`valid_value`] have
    /// already passed (the head parser checks while it scans).
    pub(crate) fn push_validated(&mut self, name: &str, value: &str) {
        debug_assert!(valid_name(name) && valid_value(value));
        self.entries
            .push((name.to_string().into(), value.to_string()));
    }

    /// Make room for `additional` more fields at once.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Replace all fields named `name` with a single field.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) -> Result<()> {
        let name = name.into();
        self.remove(&name);
        self.insert(name, value)
    }

    /// First value for `name`, if any (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| name_eq(n, name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| name_eq(n, name))
            .map(|(_, v)| v.as_str())
    }

    /// Remove every field named `name`; returns how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !name_eq(n, name));
        before - self.entries.len()
    }

    /// Whether a field named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Iterate `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        self.entries.iter().map(|(n, v)| (&**n, v.as_str()))
    }

    /// Parsed `Content-Length`, if present.
    pub fn content_length(&self) -> Result<Option<usize>> {
        match self.get("Content-Length") {
            None => Ok(None),
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map(Some)
                .map_err(|_| HttpError::BadContentLength(v.to_string())),
        }
    }

    /// Exact number of bytes [`Self::write_to`] will emit: each field is
    /// `name + ": " + value + "\r\n"`. Lets serializers size their buffer
    /// once instead of reallocating as fields append.
    pub fn wire_len(&self) -> usize {
        self.entries
            .iter()
            .map(|(n, v)| n.len() + v.len() + 4)
            .sum()
    }

    /// Serialize all fields as `Name: value\r\n` lines.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        for (n, v) in &self.entries {
            out.extend_from_slice(n.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// Day names for the RFC 1123 HTTP-date format, indexed by days since
/// the epoch modulo 7 (1970-01-01 was a Thursday).
const DAY_NAMES: [&str; 7] = ["Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"];

/// Month names for the RFC 1123 HTTP-date format.
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Civil date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days`, limited to non-negative days).
fn civil_from_days(days: u64) -> (u64, u64, u64) {
    let z = days + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Days since 1970-01-01 for a civil date (`days_from_civil`); `None`
/// for pre-epoch dates.
fn days_from_civil(y: u64, m: u64, d: u64) -> Option<u64> {
    let y = if m <= 2 { y.checked_sub(1)? } else { y };
    let era = y / 400;
    let yoe = y - era * 400;
    let mp = if m > 2 { m - 3 } else { m + 9 };
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146_097 + doe).checked_sub(719_468)
}

/// Format `ms` (milliseconds since the Unix epoch on whatever clock
/// the engine is driven by) as an RFC 1123 HTTP-date, e.g.
/// `Sun, 06 Nov 1994 08:49:37 GMT` — the fixed-length format RFC 2616
/// requires for generated `Last-Modified` values. Sub-second precision
/// is truncated, matching the one-second wire resolution.
pub fn http_date(ms: u64) -> String {
    let secs = ms / 1000;
    let days = secs / 86_400;
    let (y, m, d) = civil_from_days(days);
    let tod = secs % 86_400;
    format!(
        "{}, {:02} {} {:04} {:02}:{:02}:{:02} GMT",
        DAY_NAMES[(days % 7) as usize],
        d,
        MONTH_NAMES[(m - 1) as usize],
        y,
        tod / 3600,
        (tod / 60) % 60,
        tod % 60,
    )
}

/// Parse an RFC 1123 HTTP-date back to milliseconds since the epoch.
/// Returns `None` for malformed dates, unknown month names, non-GMT
/// zones, or pre-epoch dates (which HTTP conditional logic treats the
/// same as an absent header). The weekday field is not verified — it
/// is redundant, and being lenient there follows the robustness
/// principle.
pub fn parse_http_date(s: &str) -> Option<u64> {
    // "Sun, 06 Nov 1994 08:49:37 GMT"
    let rest = s.trim();
    let (_weekday, rest) = rest.split_once(", ")?;
    let mut parts = rest.split_ascii_whitespace();
    let day: u64 = parts.next()?.parse().ok()?;
    let month = parts.next()?;
    let month = MONTH_NAMES.iter().position(|m| *m == month)? as u64 + 1;
    let year: u64 = parts.next()?.parse().ok()?;
    let time = parts.next()?;
    let zone = parts.next()?;
    if zone != "GMT" || parts.next().is_some() {
        return None;
    }
    let mut hms = time.split(':');
    let h: u64 = hms.next()?.parse().ok()?;
    let min: u64 = hms.next()?.parse().ok()?;
    let sec: u64 = hms.next()?.parse().ok()?;
    if day == 0 || day > 31 || h > 23 || min > 59 || sec > 60 {
        return None;
    }
    let days = days_from_civil(year, month, day)?;
    Some((days * 86_400 + h * 3600 + min * 60 + sec) * 1000)
}

impl<'a> IntoIterator for &'a Headers {
    type Item = (&'a str, &'a str);
    type IntoIter = Box<dyn Iterator<Item = (&'a str, &'a str)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_case_insensitive() {
        let mut h = Headers::new();
        h.insert("Content-Type", "text/html").unwrap();
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert_eq!(h.get("X-Missing"), None);
    }

    #[test]
    fn duplicates_preserved_in_order() {
        let mut h = Headers::new();
        h.insert("X-DCWS-Load", "a").unwrap();
        h.insert("X-DCWS-Load", "b").unwrap();
        let vals: Vec<_> = h.get_all("x-dcws-load").collect();
        assert_eq!(vals, ["a", "b"]);
        assert_eq!(h.get("X-DCWS-Load"), Some("a"));
    }

    #[test]
    fn set_replaces_all() {
        let mut h = Headers::new();
        h.insert("X", "1").unwrap();
        h.insert("x", "2").unwrap();
        h.set("X", "3").unwrap();
        assert_eq!(h.get_all("X").collect::<Vec<_>>(), ["3"]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn remove_counts() {
        let mut h = Headers::new();
        h.insert("A", "1").unwrap();
        h.insert("a", "2").unwrap();
        h.insert("B", "3").unwrap();
        assert_eq!(h.remove("A"), 2);
        assert_eq!(h.len(), 1);
        assert!(h.contains("B"));
    }

    #[test]
    fn rejects_invalid_names() {
        let mut h = Headers::new();
        assert!(h.insert("", "v").is_err());
        assert!(h.insert("Bad Name", "v").is_err());
        assert!(h.insert("Bad:Name", "v").is_err());
        assert!(h.insert("Héader", "v").is_err());
    }

    #[test]
    fn rejects_crlf_injection() {
        let mut h = Headers::new();
        assert!(h.insert("X", "ok\r\nEvil: yes").is_err());
        assert!(h.insert("X", "ok\nEvil").is_err());
        assert!(h.insert("X", "plain value with spaces").is_ok());
    }

    #[test]
    fn content_length_parsing() {
        let mut h = Headers::new();
        assert_eq!(h.content_length().unwrap(), None);
        h.insert("Content-Length", "42").unwrap();
        assert_eq!(h.content_length().unwrap(), Some(42));
        h.set("Content-Length", " 7 ").unwrap();
        assert_eq!(h.content_length().unwrap(), Some(7));
        h.set("Content-Length", "abc").unwrap();
        assert!(h.content_length().is_err());
    }

    #[test]
    fn http_date_formats_rfc1123() {
        // The RFC 2616 example date.
        assert_eq!(http_date(784_111_777_000), "Sun, 06 Nov 1994 08:49:37 GMT");
        assert_eq!(http_date(0), "Thu, 01 Jan 1970 00:00:00 GMT");
        // Sub-second precision truncates.
        assert_eq!(http_date(999), "Thu, 01 Jan 1970 00:00:00 GMT");
    }

    #[test]
    fn http_date_round_trips() {
        for ms in [
            0,
            784_111_777_000,
            1_000,
            86_400_000,
            951_827_696_000,   // leap year, Feb 29 2000
            4_102_444_799_000, // end of 2099
        ] {
            let s = http_date(ms);
            assert_eq!(parse_http_date(&s), Some(ms), "round-trip failed for {s}");
        }
    }

    #[test]
    fn parse_http_date_rejects_garbage() {
        assert_eq!(parse_http_date(""), None);
        assert_eq!(parse_http_date("not a date"), None);
        assert_eq!(parse_http_date("Sun, 06 Nov 1994 08:49:37 PST"), None);
        assert_eq!(parse_http_date("Sun, 06 Zzz 1994 08:49:37 GMT"), None);
        assert_eq!(parse_http_date("Sun, 00 Nov 1994 08:49:37 GMT"), None);
        assert_eq!(parse_http_date("Sun, 06 Nov 1994 25:49:37 GMT"), None);
        assert_eq!(parse_http_date("Sun, 06 Nov 1969 08:49:37 GMT"), None);
        assert_eq!(parse_http_date("Sun, 06 Nov 1994 08:49:37 GMT extra"), None);
        // Wrong weekday is tolerated (redundant field).
        assert_eq!(
            parse_http_date("Mon, 06 Nov 1994 08:49:37 GMT"),
            Some(784_111_777_000)
        );
    }

    #[test]
    fn serialization_format() {
        let mut h = Headers::new();
        h.insert("Host", "example.com").unwrap();
        h.insert("X-Test", "1").unwrap();
        let mut out = Vec::new();
        h.write_to(&mut out);
        assert_eq!(out, b"Host: example.com\r\nX-Test: 1\r\n");
    }
}
