//! Byte-level helpers for fitted-model snapshots.
//!
//! Snapshots are a small hand-rolled little-endian binary format (the
//! environment has no real serde backend — the vendored `serde` derives are
//! no-ops): `u32`/`u64` little-endian integers, `f64` stored as raw bits
//! (so restored models are **bit-identical**, not merely value-equal), and
//! length-prefixed strings/vectors. Every read returns
//! `Option` and fails closed: a truncated or corrupt snapshot can never
//! panic or produce a half-restored model, it simply reads as `None` and the
//! caller falls back to refitting.

use crate::traits::Classifier;

/// Dispatch tag for a serialised [`crate::gbt::GradientBoosting`].
pub const TAG_GBT: u8 = 1;

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw IEEE-754 bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `u32`-length-prefixed vector of raw `f64` bits.
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    put_u32(out, values.len() as u32);
    for &v in values {
        put_f64(out, v);
    }
}

/// Appends a `u32`-length-prefixed opaque byte blob.
pub fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Cursor over snapshot bytes; every accessor fails closed with `None` on
/// truncation, so corrupt input can never panic a reader.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(bytes)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| {
            let mut a = [0u8; 4];
            a.copy_from_slice(b);
            u32::from_le_bytes(a)
        })
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_le_bytes(a)
        })
    }

    /// Reads an `f64` from raw bits (bit-exact round-trip, `-0.0` and NaN
    /// payloads included).
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Reads a `u32`-length-prefixed opaque byte blob.
    pub fn blob(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed vector of `f64`s. The pre-allocation is
    /// capped so a corrupt length field cannot trigger a huge allocation
    /// before the reads fail at end-of-buffer.
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        let len = self.u32()? as usize;
        let mut values = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            values.push(self.f64()?);
        }
        Some(values)
    }
}

/// Restores a boxed classifier from tag-dispatched snapshot bytes (the
/// counterpart of [`Classifier::snapshot_state`]). `None` when the tag is
/// unknown, the body is corrupt, or trailing bytes remain.
pub fn restore_classifier(bytes: &[u8]) -> Option<Box<dyn Classifier>> {
    let mut r = SnapReader::new(bytes);
    let model: Box<dyn Classifier> = match r.u8()? {
        TAG_GBT => Box::new(crate::gbt::GradientBoosting::from_snapshot(&mut r)?),
        _ => return None,
    };
    if !r.is_empty() {
        return None; // trailing garbage: treat as corrupt
    }
    Some(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_bit_exact() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_str(&mut out, "naïve");
        put_f64s(&mut out, &[1.5, f64::MIN_POSITIVE, f64::NAN]);
        let mut r = SnapReader::new(&out);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.str().as_deref(), Some("naïve"));
        let vs = r.f64s().unwrap();
        assert_eq!(vs[0], 1.5);
        assert_eq!(vs[1], f64::MIN_POSITIVE);
        assert!(vs[2].is_nan());
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_fails_closed_everywhere() {
        let mut out = Vec::new();
        put_str(&mut out, "hello");
        put_f64s(&mut out, &[1.0, 2.0]);
        for cut in 0..out.len() {
            let mut r = SnapReader::new(&out[..cut]);
            // either the string or the vector must fail; no panic, no partial
            if r.str().is_some() {
                assert!(r.f64s().is_none(), "cut at {cut} read a full vector");
            }
        }
    }

    #[test]
    fn corrupt_length_fields_do_not_overallocate_or_panic() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX); // absurd length, no payload
        assert!(SnapReader::new(&out).str().is_none());
        assert!(SnapReader::new(&out).f64s().is_none());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(restore_classifier(&[0xFF, 1, 2, 3]).is_none());
        assert!(restore_classifier(&[]).is_none());
    }
}
