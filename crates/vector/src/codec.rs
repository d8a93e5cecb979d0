//! Minimal binary codec for index and segment persistence.
//!
//! Index blobs are written to the (simulated) remote object store and their
//! byte size drives both cache accounting and transfer-latency charges, so a
//! compact binary layout matters — JSON would inflate float payloads ~4x and
//! distort every I/O-sensitive experiment. The format is little-endian,
//! length-prefixed, with a magic+version header per blob.

use crate::Metric;
use bh_common::{BhError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Writer over a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a blob with a 4-byte magic and a u16 version.
    pub fn with_header(magic: &[u8; 4], version: u16) -> Self {
        let mut w = Self::new();
        w.buf.put_slice(magic);
        w.buf.put_u16_le(version);
        w
    }

    /// Append one little-endian `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Append one little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Append one little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Append one little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Append one little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    /// Append one little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.put_u64_le(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Length-prefixed `f32` slice (raw little-endian).
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.buf.put_u64_le(v.len() as u64);
        for &x in v {
            self.buf.put_f32_le(x);
        }
    }

    /// Length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.buf.put_u64_le(v.len() as u64);
        for &x in v {
            self.buf.put_u32_le(x);
        }
    }

    /// Length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.buf.put_u64_le(v.len() as u64);
        for &x in v {
            self.buf.put_u64_le(x);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Freeze the buffer into an immutable blob.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Reader over a byte slice with checked extraction.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Validate and consume a magic+version header; returns the version.
    pub fn expect_header(&mut self, magic: &[u8; 4]) -> Result<u16> {
        if self.buf.len() < 6 {
            return Err(BhError::Serde("blob too short for header".into()));
        }
        if &self.buf[..4] != magic {
            return Err(BhError::Serde(format!(
                "bad magic: expected {:?}, got {:?}",
                magic,
                &self.buf[..4]
            )));
        }
        self.buf.advance(4);
        Ok(self.buf.get_u16_le())
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.buf.remaining() < n {
            return Err(BhError::Serde(format!(
                "truncated blob: need {n} bytes, have {}",
                self.buf.remaining()
            )));
        }
        Ok(())
    }

    /// Read one little-endian `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Read one little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Read one little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read one little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read one little-endian `f32`.
    pub fn get_f32(&mut self) -> Result<f32> {
        self.need(4)?;
        Ok(self.buf.get_f32_le())
    }

    /// Read one little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    fn get_len(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.get_u64()? as usize;
        // Guard against corrupt lengths before allocating.
        if n.saturating_mul(elem_size) > self.buf.remaining() {
            return Err(BhError::Serde(format!(
                "corrupt length {n} (remaining {} bytes)",
                self.buf.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed byte vector.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_len(1)?;
        let mut v = vec![0u8; n];
        self.buf.copy_to_slice(&mut v);
        Ok(v)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b).map_err(|e| BhError::Serde(format!("invalid utf8: {e}")))
    }

    /// Read a length-prefixed `f32` vector.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>> {
        let n = self.get_len(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.buf.get_f32_le());
        }
        Ok(v)
    }

    /// Read a length-prefixed `u32` vector.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>> {
        let n = self.get_len(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.buf.get_u32_le());
        }
        Ok(v)
    }

    /// Read a length-prefixed `u64` vector.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>> {
        let n = self.get_len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.buf.get_u64_le());
        }
        Ok(v)
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

pub(crate) fn metric_to_u8(m: Metric) -> u8 {
    match m {
        Metric::L2 => 0,
        Metric::InnerProduct => 1,
        Metric::Cosine => 2,
    }
}

pub(crate) fn metric_from_u8(v: u8) -> Result<Metric> {
    match v {
        0 => Ok(Metric::L2),
        1 => Ok(Metric::InnerProduct),
        2 => Ok(Metric::Cosine),
        x => Err(bh_common::BhError::Serde(format!("bad metric byte {x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn header_roundtrip() {
        let w = Writer::with_header(b"BHIX", 3);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.expect_header(b"BHIX").unwrap(), 3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let w = Writer::with_header(b"AAAA", 1);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert!(r.expect_header(b"BBBB").is_err());
    }

    #[test]
    fn truncated_blob_rejected() {
        let mut w = Writer::new();
        w.put_u64(5); // claims 5 bytes follow but none do
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn short_header_rejected() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.expect_header(b"BHIX").is_err());
    }

    #[test]
    fn mixed_scalar_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        w.put_str("héllo");
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -2.25);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
    }

    proptest! {
        #[test]
        fn prop_slice_roundtrips(
            f in proptest::collection::vec(-1e6f32..1e6, 0..100),
            u in proptest::collection::vec(any::<u32>(), 0..100),
            l in proptest::collection::vec(any::<u64>(), 0..100),
            b in proptest::collection::vec(any::<u8>(), 0..100),
        ) {
            let mut w = Writer::new();
            w.put_f32_slice(&f);
            w.put_u32_slice(&u);
            w.put_u64_slice(&l);
            w.put_bytes(&b);
            let blob = w.finish();
            let mut r = Reader::new(&blob);
            prop_assert_eq!(r.get_f32_vec().unwrap(), f);
            prop_assert_eq!(r.get_u32_vec().unwrap(), u);
            prop_assert_eq!(r.get_u64_vec().unwrap(), l);
            prop_assert_eq!(r.get_bytes().unwrap(), b);
            prop_assert_eq!(r.remaining(), 0);
        }
    }
}
