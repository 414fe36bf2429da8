//! Text (de)serialization of identification results.
//!
//! The pipeline caches each stage's output on disk; identification
//! produces a `Vec<BiasedRegion>`, stored in the same line-oriented
//! versioned style as `remedy-classifiers::persist` model files:
//!
//! ```text
//! remedy-ibs v1
//! regions <n>
//! region <mask> <key:hex> <pos> <neg> <ratio:bits> <nratio:bits> [col:val ...]
//! ```
//!
//! Floats are stored as `f64::to_bits` hex so a round trip is exact —
//! a cache hit must reproduce the original run bit for bit.

use crate::identify::BiasedRegion;
use crate::score::Counts;
use remedy_dataset::format::Magic;
use remedy_dataset::Pattern;

const MAGIC: Magic = Magic::new("remedy-ibs", 1);

/// Errors from reading an IBS artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IbsPersistError {
    /// Missing or wrong magic header.
    BadHeader,
    /// Structurally invalid body.
    Malformed(String),
}

impl std::fmt::Display for IbsPersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IbsPersistError::BadHeader => write!(f, "not a {} file", MAGIC.line()),
            IbsPersistError::Malformed(msg) => write!(f, "malformed IBS file: {msg}"),
        }
    }
}

impl std::error::Error for IbsPersistError {}

/// Serializes identification output.
pub fn regions_to_text(regions: &[BiasedRegion]) -> String {
    let mut out = format!("{}\nregions {}\n", MAGIC.line(), regions.len());
    for r in regions {
        out.push_str(&format!(
            "region {} {:x} {} {} {:016x} {:016x}",
            r.mask,
            r.key,
            r.counts.pos,
            r.counts.neg,
            r.ratio.to_bits(),
            r.neighbor_ratio.to_bits()
        ));
        for (col, val) in r.pattern.terms() {
            out.push_str(&format!(" {col}:{val}"));
        }
        out.push('\n');
    }
    out
}

/// Parses identification output written by [`regions_to_text`].
pub fn regions_from_text(text: &str) -> Result<Vec<BiasedRegion>, IbsPersistError> {
    let mut lines = text.lines();
    MAGIC
        .expect(lines.next())
        .map_err(|_| IbsPersistError::BadHeader)?;
    let count_line = lines
        .next()
        .ok_or_else(|| IbsPersistError::Malformed("missing regions count".into()))?;
    let count: usize = count_line
        .strip_prefix("regions ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| IbsPersistError::Malformed(format!("bad count line `{count_line}`")))?;
    let mut regions = Vec::with_capacity(count);
    for line in lines.take(count) {
        let mut fields = line.split_whitespace();
        if fields.next() != Some("region") {
            return Err(IbsPersistError::Malformed(format!("bad line `{line}`")));
        }
        let mut next = |what: &str| {
            fields
                .next()
                .ok_or_else(|| IbsPersistError::Malformed(format!("missing {what}")))
        };
        let mask: u32 = parse(next("mask")?, "mask")?;
        let key = u128::from_str_radix(next("key")?, 16)
            .map_err(|_| IbsPersistError::Malformed("bad key".into()))?;
        let pos: u64 = parse(next("pos")?, "pos")?;
        let neg: u64 = parse(next("neg")?, "neg")?;
        let ratio = f64::from_bits(
            u64::from_str_radix(next("ratio")?, 16)
                .map_err(|_| IbsPersistError::Malformed("bad ratio".into()))?,
        );
        let neighbor_ratio = f64::from_bits(
            u64::from_str_radix(next("nratio")?, 16)
                .map_err(|_| IbsPersistError::Malformed("bad nratio".into()))?,
        );
        let mut pattern = Pattern::empty();
        for term in fields {
            let (col, val) = term
                .split_once(':')
                .ok_or_else(|| IbsPersistError::Malformed(format!("bad term `{term}`")))?;
            pattern.set(parse(col, "term column")?, parse(val, "term value")?);
        }
        regions.push(BiasedRegion {
            pattern,
            mask,
            key,
            counts: Counts::new(pos, neg),
            ratio,
            neighbor_ratio,
        });
    }
    if regions.len() != count {
        return Err(IbsPersistError::Malformed(format!(
            "expected {count} regions, found {}",
            regions.len()
        )));
    }
    Ok(regions)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, IbsPersistError> {
    s.parse()
        .map_err(|_| IbsPersistError::Malformed(format!("bad {what} `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{identify, Algorithm, IbsParams};
    use remedy_dataset::synth;

    #[test]
    fn roundtrip_is_exact() {
        let data = synth::compas_n(1_500, 7);
        let regions = identify(&data, &IbsParams::default(), Algorithm::Optimized);
        assert!(!regions.is_empty(), "fixture should find biased regions");
        let text = regions_to_text(&regions);
        let back = regions_from_text(&text).unwrap();
        assert_eq!(regions, back);
        // serialization itself is deterministic
        assert_eq!(text, regions_to_text(&back));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            regions_from_text("nope").unwrap_err(),
            IbsPersistError::BadHeader
        );
        let err = regions_from_text("remedy-ibs v1\nregions 1\n").unwrap_err();
        assert!(matches!(err, IbsPersistError::Malformed(_)));
        let err = regions_from_text("remedy-ibs v1\nregions 1\nregion x\n").unwrap_err();
        assert!(matches!(err, IbsPersistError::Malformed(_)));
    }
}
