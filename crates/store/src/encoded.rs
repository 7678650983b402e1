//! Dictionary-encoded triples and match patterns, plus the *one* set of
//! byte-layout helpers every serialized form of a term id or triple key
//! derives from.
//!
//! Term ids are `u32` ([`wodex_rdf::TermId`]); a raw triple is therefore
//! [`TRIPLE_BYTES`] bytes and a serialized id at most [`MAX_VARINT_BYTES`]
//! varint bytes. The segment store (`wodex-seg`) and the on-disk
//! dictionary both encode through [`write_varint`] /
//! [`read_varint`] and [`encode_key_run`] / [`decode_key_run`] so the
//! width assumption lives in exactly one place.

use wodex_rdf::TermId;

/// A triple encoded as three dictionary ids: `[subject, predicate, object]`.
pub type EncodedTriple = [u32; 3];

/// Bytes of one fixed-width term id (`u32` little-endian).
pub const TERM_ID_BYTES: usize = 4;

/// Bytes of one fixed-width encoded triple (three term ids).
pub const TRIPLE_BYTES: usize = 3 * TERM_ID_BYTES;

/// Maximum bytes one LEB128 varint can occupy for a `u64`.
pub const MAX_VARINT_BYTES: usize = 10;

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation). Small deltas — the common case in sorted key runs —
/// cost one byte.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint at `*pos`, advancing it. Returns `None` on a
/// truncated or over-long (> [`MAX_VARINT_BYTES`]) encoding — corrupt
/// input is a value, never a panic.
pub fn read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// [`read_varint`] narrowed to the term-id width; rejects values that do
/// not fit a `u32` so a corrupt stream cannot silently truncate an id.
pub fn read_varint_u32(data: &[u8], pos: &mut usize) -> Option<u32> {
    u32::try_from(read_varint(data, pos)?).ok()
}

/// Delta-encodes a sorted, deduplicated run of 3-component index keys.
///
/// Per key, relative to its predecessor (the run starts from `[0,0,0]`):
/// the first-component delta is always written; while a higher component's
/// delta is zero the next component is written as a delta too, and once a
/// component moved, the lower components are written raw. Sorted runs make
/// every delta non-negative, so the varints stay short and the layout
/// needs no tag bytes.
pub fn encode_key_run(keys: &[[u32; 3]], out: &mut Vec<u8>) {
    debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "run not sorted");
    let mut prev = [0u32; 3];
    for k in keys {
        let d0 = k[0] - prev[0];
        write_varint(out, u64::from(d0));
        if d0 == 0 {
            let d1 = k[1] - prev[1];
            write_varint(out, u64::from(d1));
            if d1 == 0 {
                write_varint(out, u64::from(k[2] - prev[2]));
            } else {
                write_varint(out, u64::from(k[2]));
            }
        } else {
            write_varint(out, u64::from(k[1]));
            write_varint(out, u64::from(k[2]));
        }
        prev = *k;
    }
}

/// Decodes `count` keys written by [`encode_key_run`], appending to
/// `out`. Returns `None` (leaving `out` in an unspecified state) on
/// truncated input, varint overflow, or a component overflowing `u32` —
/// the typed-corruption path for block decoders.
pub fn decode_key_run(
    data: &[u8],
    pos: &mut usize,
    count: usize,
    out: &mut Vec<[u32; 3]>,
) -> Option<()> {
    let mut prev = [0u32; 3];
    out.reserve(count);
    for _ in 0..count {
        let d0 = read_varint_u32(data, pos)?;
        let k = if d0 == 0 {
            let d1 = read_varint_u32(data, pos)?;
            if d1 == 0 {
                let d2 = read_varint_u32(data, pos)?;
                [prev[0], prev[1], prev[2].checked_add(d2)?]
            } else {
                [
                    prev[0],
                    prev[1].checked_add(d1)?,
                    read_varint_u32(data, pos)?,
                ]
            }
        } else {
            [
                prev[0].checked_add(d0)?,
                read_varint_u32(data, pos)?,
                read_varint_u32(data, pos)?,
            ]
        };
        out.push(k);
        prev = k;
    }
    Some(())
}

/// Subject position in an [`EncodedTriple`].
pub const S: usize = 0;
/// Predicate position in an [`EncodedTriple`].
pub const P: usize = 1;
/// Object position in an [`EncodedTriple`].
pub const O: usize = 2;

/// A triple pattern: each position is either bound to a term id or a
/// wildcard. This is the access-path primitive of the store; SPARQL BGPs
/// compile down to sequences of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pattern {
    /// Bound subject, or `None` for a wildcard.
    pub s: Option<TermId>,
    /// Bound predicate, or `None` for a wildcard.
    pub p: Option<TermId>,
    /// Bound object, or `None` for a wildcard.
    pub o: Option<TermId>,
}

impl Pattern {
    /// The fully-unbound pattern (matches everything).
    pub fn any() -> Pattern {
        Pattern::default()
    }

    /// Pattern with a bound subject.
    pub fn with_s(mut self, s: TermId) -> Pattern {
        self.s = Some(s);
        self
    }

    /// Pattern with a bound predicate.
    pub fn with_p(mut self, p: TermId) -> Pattern {
        self.p = Some(p);
        self
    }

    /// Pattern with a bound object.
    pub fn with_o(mut self, o: TermId) -> Pattern {
        self.o = Some(o);
        self
    }

    /// True if the encoded triple matches this pattern.
    pub fn matches(&self, t: &EncodedTriple) -> bool {
        self.s.is_none_or(|v| v.0 == t[S])
            && self.p.is_none_or(|v| v.0 == t[P])
            && self.o.is_none_or(|v| v.0 == t[O])
    }

    /// Number of bound positions (0–3); higher is more selective.
    pub fn bound_count(&self) -> usize {
        usize::from(self.s.is_some())
            + usize::from(self.p.is_some())
            + usize::from(self.o.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_respects_bound_positions() {
        let t: EncodedTriple = [1, 2, 3];
        assert!(Pattern::any().matches(&t));
        assert!(Pattern::any().with_s(TermId(1)).matches(&t));
        assert!(!Pattern::any().with_s(TermId(9)).matches(&t));
        assert!(Pattern::any()
            .with_p(TermId(2))
            .with_o(TermId(3))
            .matches(&t));
        assert!(!Pattern::any()
            .with_p(TermId(2))
            .with_o(TermId(4))
            .matches(&t));
    }

    #[test]
    fn varint_roundtrip_and_boundaries() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        // One-byte values really are one byte.
        let mut one = Vec::new();
        write_varint(&mut one, 127);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        // Truncated: continuation bit set, then nothing.
        assert_eq!(read_varint(&[0x80], &mut 0), None);
        // Over-long: 10 continuation bytes overflow u64.
        let overlong = [0xffu8; 11];
        assert_eq!(read_varint(&overlong, &mut 0), None);
        // u32 narrowing rejects wider values.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::from(u32::MAX) + 1);
        assert_eq!(read_varint_u32(&buf, &mut 0), None);
    }

    #[test]
    fn key_run_roundtrip_compresses_shared_prefixes() {
        let keys: Vec<[u32; 3]> = vec![
            [0, 0, 0],
            [0, 0, 5],
            [0, 3, 1],
            [7, 1, 9],
            [7, 1, 10],
            [7, 2, 0],
            [u32::MAX, u32::MAX, u32::MAX],
        ];
        let mut buf = Vec::new();
        encode_key_run(&keys, &mut buf);
        let mut out = Vec::new();
        let mut pos = 0;
        decode_key_run(&buf, &mut pos, keys.len(), &mut out).expect("clean decode");
        assert_eq!(out, keys);
        assert_eq!(pos, buf.len());
        // Dense shared-prefix runs beat the raw 12-byte layout.
        let dense: Vec<[u32; 3]> = (0..1000u32).map(|i| [42, 7, i]).collect();
        let mut dense_buf = Vec::new();
        encode_key_run(&dense, &mut dense_buf);
        assert!(
            dense_buf.len() <= dense.len() * TRIPLE_BYTES / 3,
            "delta run should be ≤⅓ of raw: {} vs {}",
            dense_buf.len(),
            dense.len() * TRIPLE_BYTES
        );
    }

    #[test]
    fn key_run_decode_rejects_truncated_input() {
        let keys: Vec<[u32; 3]> = (0..10u32).map(|i| [i, 0, 0]).collect();
        let mut buf = Vec::new();
        encode_key_run(&keys, &mut buf);
        let mut out = Vec::new();
        assert!(decode_key_run(&buf[..buf.len() - 1], &mut 0, keys.len(), &mut out).is_none());
        // Asking for more keys than were encoded also fails cleanly.
        let mut out2 = Vec::new();
        assert!(decode_key_run(&buf, &mut 0, keys.len() + 1, &mut out2).is_none());
    }

    #[test]
    fn bound_count() {
        assert_eq!(Pattern::any().bound_count(), 0);
        assert_eq!(Pattern::any().with_p(TermId(0)).bound_count(), 1);
        assert_eq!(
            Pattern::any()
                .with_s(TermId(0))
                .with_p(TermId(0))
                .with_o(TermId(0))
                .bound_count(),
            3
        );
    }
}
