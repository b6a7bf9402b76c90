//! The `~migrate` path is a co-op copy's key in the store, so its decoding
//! is pinned: [`decode_migrate_path`] inverts [`migrate_url`] for every
//! `host:port` home and document path, and never panics on a mangled
//! path — seeded mutations of canonical ones, byte by byte.

use dcws_core::{decode_migrate_path, migrate_url};
use dcws_graph::ServerId;
use proptest::prelude::*;

proptest! {
    #[test]
    fn decode_inverts_migrate_url(
        host in "[a-z0-9][a-z0-9.-]{0,15}",
        port in any::<u16>(),
        path in "(/[A-Za-z0-9._~-]{1,8}){1,4}",
    ) {
        let home = ServerId::new(format!("{host}:{port}"));
        let url = migrate_url(&ServerId::new("coop:81"), &home, &path).unwrap();
        let target = decode_migrate_path(url.path()).unwrap().expect("a ~migrate path");
        prop_assert_eq!(target.home, home);
        prop_assert_eq!(target.path, path);
    }
}

/// A tiny seeded generator (SplitMix64), so every run mangles the same way.
struct Mutator(u64);

impl Mutator {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `path` with one to four characters replaced, inserted or deleted,
    /// drawn from the ones the decoder splits and parses on.
    fn mangle(&mut self, path: &str) -> String {
        const ALPHABET: &[char] = &['/', '~', ':', '0', '9', '-', '+', 'a', '%', ' ', 'é', '\0'];
        let mut chars: Vec<char> = path.chars().collect();
        for _ in 0..=self.below(4) {
            let at = self.below(chars.len() + 1);
            let c = ALPHABET[self.below(ALPHABET.len())];
            match self.below(3) {
                0 if at < chars.len() => chars[at] = c,
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.insert(at, c),
            }
        }
        chars.into_iter().collect()
    }
}

#[test]
fn decode_never_panics_on_seeded_mutants() {
    let canonical = [
        "/~migrate/home/8000/d.html",
        "/~migrate/h_name/80/dir1/dir2/foo.html",
        "/~migrate/127.0.0.1/65535/~migrate/x.gif",
    ];
    let mut rng = Mutator(1999);
    let (mut decoded, mut errors) = (0, 0);
    for _ in 0..20_000 {
        let base = canonical[rng.below(canonical.len())];
        let mutant = rng.mangle(base);
        match decode_migrate_path(&mutant) {
            // Whatever decodes has a canonical spelling — the store's key
            // for its copy — that decodes alike.
            Ok(Some(t)) => {
                let (host, port) = t.home.host_port();
                let key = format!("/~migrate/{host}/{port}{}", t.path);
                assert_eq!(decode_migrate_path(&key).unwrap(), Some(t), "{mutant}");
                decoded += 1;
            }
            Ok(None) => {}
            Err(_) => errors += 1,
        }
    }
    assert!(
        decoded > 1_000 && errors > 1_000,
        "{decoded} decoded, {errors} refused"
    );
}
