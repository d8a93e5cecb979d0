//! Offline stand-in for the `bytes` crate, covering what the BlendHouse
//! library crates use: a cheaply cloneable immutable [`Bytes`] (shared
//! buffer plus a window, so `clone` and `slice` copy nothing — the property
//! the caches and object store rely on), a growable [`BytesMut`], and the
//! little-endian readers and writers of [`Buf`] / [`BufMut`].

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// Immutable, reference-counted byte buffer.
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    start: usize,
    len: usize,
}

impl Bytes {
    /// The empty buffer.
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// A buffer over static data (no allocation).
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes { storage: Storage::Static(data), start: 0, len: data.len() }
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-window sharing this buffer's storage. Panics when the range is
    /// out of bounds, like the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(begin <= end, "slice range starts at {begin} but ends at {end}");
        assert!(end <= self.len, "slice range end {end} out of bounds of {}", self.len);
        Bytes { storage: self.storage.clone(), start: self.start + begin, len: end - begin }
    }

    /// Keep the first `len` bytes; no effect when already shorter.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Split at `at`: `self` keeps `[0, at)`, the return value is `[at, len)`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        self.len = at;
        tail
    }

    /// Split at `at`: `self` keeps `[at, len)`, the return value is `[0, at)`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        self.len -= at;
        head
    }

    fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.storage {
            Storage::Static(s) => s,
            Storage::Shared(v) => v.as_slice(),
        };
        &all[self.start..self.start + self.len]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes { storage: Storage::Shared(Arc::new(v)), start: 0, len }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.as_slice().to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

/// Growable byte buffer; [`BytesMut::freeze`] turns it into [`Bytes`]
/// without copying.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

macro_rules! buf_get_le {
    ($($name:ident -> $t:ty),*) => {$(
        /// Read one little-endian value and advance. Panics when fewer
        /// bytes remain than the value needs, like the real crate.
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// Read cursor over a contiguous byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `cnt` bytes. Panics when `cnt > remaining()`.
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fill `dst` from the front and advance. Panics when too few remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "buffer underflow: need {} bytes, have {}",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    buf_get_le!(
        get_u16_le -> u16, get_u32_le -> u32, get_u64_le -> u64, get_f32_le -> f32, get_f64_le -> f64
    );
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "cannot advance {cnt} past {} remaining", self.len());
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len, "cannot advance {cnt} past {} remaining", self.len);
        self.start += cnt;
        self.len -= cnt;
    }
}

macro_rules! buf_put_le {
    ($($name:ident($t:ty)),*) => {$(
        /// Append one little-endian value.
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append-only writer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    buf_put_le!(
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_f32_le(f32),
        put_f64_le(f64)
    );
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}
