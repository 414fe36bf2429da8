//! Shared on-disk format plumbing for every `remedy-*` artifact family.
//!
//! Four persisted formats live in this workspace — dataset text
//! (`remedy-dataset v1`, [`crate::persist`]), the binary columnar store
//! (`remedy-columnar v1`, [`crate::store`]), identification output
//! (`remedy-ibs v1`, `core::persist`), and model files
//! (`remedy-model v1`, `classifiers::persist`). All of them open with
//! the same shape of header: an ASCII magic line naming the format
//! family and version. Each module used to hand-roll that check (and
//! two of them the percent-escaping for embedded names); this module
//! owns both, so version negotiation and escaping behave identically
//! everywhere.
//!
//! It also owns the workspace's one FNV-1a/128 implementation
//! ([`Fnv128`]): binary headers, WAL and snapshot records digest with
//! it directly, and `remedy_core::hash::StableHasher` frames pipeline
//! cache keys on top of it. This crate is the lowest one that needs a
//! content digest, so the others call down into it.

/// A format family plus the version this build reads and writes.
///
/// Rendered as the artifact's first line, e.g. `remedy-dataset v1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Magic {
    family: &'static str,
    version: u32,
}

/// Why a header line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// The input ended before any header line.
    Missing {
        /// The magic line that was expected.
        expected: String,
    },
    /// The first line does not belong to this format family at all.
    WrongFamily {
        /// The magic line that was expected.
        expected: String,
        /// What the first line actually was.
        found: String,
    },
    /// The family matched but the version is one this build cannot read.
    WrongVersion {
        /// The format family.
        family: String,
        /// The version this build supports.
        supported: u32,
        /// The version tag found in the file.
        found: String,
    },
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::Missing { expected } => write!(f, "missing `{expected}` header"),
            HeaderError::WrongFamily { expected, found } => {
                write!(f, "expected `{expected}` header, found `{found}`")
            }
            HeaderError::WrongVersion {
                family,
                supported,
                found,
            } => write!(
                f,
                "`{family}` version `{found}` is not supported (this build reads v{supported})"
            ),
        }
    }
}

impl std::error::Error for HeaderError {}

impl Magic {
    /// A magic for `family` at `version`.
    pub const fn new(family: &'static str, version: u32) -> Self {
        Magic { family, version }
    }

    /// The header line, without a trailing newline.
    pub fn line(&self) -> String {
        format!("{} v{}", self.family, self.version)
    }

    /// Checks an artifact's first line (as produced by `str::lines`),
    /// distinguishing a foreign format from an unsupported version of
    /// this one.
    pub fn expect(&self, first: Option<&str>) -> Result<(), HeaderError> {
        let line = first.ok_or_else(|| HeaderError::Missing {
            expected: self.line(),
        })?;
        if line == self.line() {
            return Ok(());
        }
        if let Some(tag) = line
            .strip_prefix(self.family)
            .and_then(|r| r.strip_prefix(" v"))
        {
            return Err(HeaderError::WrongVersion {
                family: self.family.to_string(),
                supported: self.version,
                found: tag.to_string(),
            });
        }
        Err(HeaderError::WrongFamily {
            expected: self.line(),
            found: line.chars().take(64).collect(),
        })
    }

    /// Whether a raw buffer starts with this magic line. Used to sniff a
    /// file's format before committing to a decoder; safe on non-UTF-8
    /// input.
    pub fn sniff(&self, bytes: &[u8]) -> bool {
        let line = self.line();
        let head = line.as_bytes();
        bytes.len() > head.len() && &bytes[..head.len()] == head && bytes[head.len()] == b'\n'
    }
}

/// Percent-encodes `%`, ASCII whitespace, ASCII control characters, and
/// every non-ASCII byte, so the result is a single space-free ASCII
/// token that can sit in a line-oriented format.
///
/// Non-ASCII bytes must be escaped: pushing a `u8 >= 0x80` through
/// `char` re-encodes it as a two-byte UTF-8 sequence, so unescaping
/// (which reconstructs raw bytes) would yield mojibake instead of the
/// original string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b == b'%' || b.is_ascii_whitespace() || b.is_ascii_control() || !b.is_ascii() {
            out.push_str(&format!("%{b:02x}"));
        } else {
            out.push(b as char);
        }
    }
    out
}

/// Why [`unescape`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscapeError {
    /// A `%` escape ran off the end of the token.
    Truncated(String),
    /// A `%` escape held non-hex digits.
    BadHex(String),
    /// The unescaped bytes were not valid UTF-8.
    NotUtf8(String),
}

impl std::fmt::Display for EscapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EscapeError::Truncated(s) => write!(f, "truncated escape in `{s}`"),
            EscapeError::BadHex(s) => write!(f, "bad escape in `{s}`"),
            EscapeError::NotUtf8(s) => write!(f, "non-UTF8 data in `{s}`"),
        }
    }
}

impl std::error::Error for EscapeError {}

/// Reverses [`escape`].
pub fn unescape(s: &str) -> Result<String, EscapeError> {
    let mut bytes = Vec::with_capacity(s.len());
    let raw = s.as_bytes();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex = raw
                .get(i + 1..i + 3)
                .ok_or_else(|| EscapeError::Truncated(s.to_string()))?;
            let code = u8::from_str_radix(std::str::from_utf8(hex).unwrap_or("zz"), 16)
                .map_err(|_| EscapeError::BadHex(s.to_string()))?;
            bytes.push(code);
            i += 3;
        } else {
            bytes.push(raw[i]);
            i += 1;
        }
    }
    String::from_utf8(bytes).map_err(|_| EscapeError::NotUtf8(s.to_string()))
}

/// FNV-1a offset basis, 128-bit variant.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a prime, 128-bit variant.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Streaming FNV-1a/128, starting at the offset basis (`default`): the
/// digest depends only on the bytes fed in, in order, so it is stable
/// across runs, machines, and releases.
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128(FNV128_OFFSET)
    }
}

impl Fnv128 {
    /// Absorbs raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

/// One-shot FNV-1a/128 digest of a byte slice — the same function the
/// pipeline cache uses for artifact hashes (`core::hash::stable_hash`).
/// The binary columnar header stores this digest of the canonical text
/// form, which is what makes a converted file replay against caches
/// keyed on the text bytes.
pub fn content_digest(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: Magic = Magic::new("remedy-test", 3);

    #[test]
    fn magic_line_renders() {
        assert_eq!(M.line(), "remedy-test v3");
    }

    #[test]
    fn expect_accepts_exact_header() {
        assert_eq!(M.expect(Some("remedy-test v3")), Ok(()));
    }

    #[test]
    fn expect_distinguishes_version_from_family() {
        assert!(matches!(M.expect(None), Err(HeaderError::Missing { .. })));
        match M.expect(Some("remedy-test v4")) {
            Err(HeaderError::WrongVersion {
                supported, found, ..
            }) => {
                assert_eq!(supported, 3);
                assert_eq!(found, "4");
            }
            other => panic!("expected WrongVersion, got {other:?}"),
        }
        assert!(matches!(
            M.expect(Some("remedy-other v3")),
            Err(HeaderError::WrongFamily { .. })
        ));
        let err = M.expect(Some("junk")).unwrap_err();
        assert!(err.to_string().contains("remedy-test v3"), "{err}");
    }

    #[test]
    fn sniff_requires_full_magic_line() {
        assert!(M.sniff(b"remedy-test v3\nrest"));
        assert!(!M.sniff(b"remedy-test v3"));
        assert!(!M.sniff(b"remedy-test v30\n"));
        assert!(!M.sniff(b"\x00\x01\x02"));
    }

    #[test]
    fn escape_covers_non_ascii_bytes() {
        // "é" is 0xc3 0xa9 in UTF-8: both bytes must be escaped, or the
        // byte-level unescape would reconstruct a double-encoded string.
        assert_eq!(escape("é"), "%c3%a9");
        assert_eq!(escape("a b%c\td\n"), "a%20b%25c%09d%0a");
        assert_eq!(escape("plain"), "plain");
        assert!(escape("日本語").is_ascii());
    }

    #[test]
    fn unescape_reverses_escape() {
        for s in ["é", "日本語", "a b%c\td\n", "plain", "mixé ça"] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "round trip of {s:?}");
        }
    }

    #[test]
    fn unescape_rejects_malformed_tokens() {
        assert!(matches!(unescape("abc%2"), Err(EscapeError::Truncated(_))));
        assert!(matches!(unescape("abc%zz"), Err(EscapeError::BadHex(_))));
        // 0xff alone is not valid UTF-8
        assert!(matches!(unescape("%ff"), Err(EscapeError::NotUtf8(_))));
    }

    #[test]
    fn digest_matches_fnv_reference_vectors() {
        // FNV-1a/128 reference digests (spec test vectors)
        assert_eq!(content_digest(b""), FNV128_OFFSET);
        assert_eq!(
            content_digest(b"a"),
            0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964
        );
    }
}
