//! `Bytes`, `Buf` and `BufMut` against what the standard library says the
//! same bytes mean.

use bytes::{Buf, BufMut, Bytes, BytesMut};

#[test]
fn little_endian_put_and_get_match_std() {
    let mut w = BytesMut::new();
    w.put_u8(0xAB);
    w.put_u16_le(0xBEEF);
    w.put_u32_le(0xDEAD_BEEF);
    w.put_u64_le(0x0123_4567_89AB_CDEF);
    w.put_f32_le(-1.5e-3);
    w.put_f64_le(std::f64::consts::PI);
    w.put_slice(b"tail");

    let mut expect = vec![0xAB];
    expect.extend_from_slice(&0xBEEFu16.to_le_bytes());
    expect.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    expect.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
    expect.extend_from_slice(&(-1.5e-3f32).to_le_bytes());
    expect.extend_from_slice(&std::f64::consts::PI.to_le_bytes());
    expect.extend_from_slice(b"tail");
    assert_eq!(&w[..], &expect[..]);

    let frozen = w.freeze();
    let mut r: &[u8] = &frozen;
    assert_eq!(r.remaining(), expect.len());
    assert_eq!(r.get_u8(), 0xAB);
    assert_eq!(r.get_u16_le(), 0xBEEF);
    assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
    assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
    assert_eq!(r.get_f32_le(), -1.5e-3);
    assert_eq!(r.get_f64_le(), std::f64::consts::PI);
    let mut tail = [0u8; 4];
    r.copy_to_slice(&mut tail);
    assert_eq!(&tail, b"tail");
    assert_eq!(r.remaining(), 0);
    assert!(!r.has_remaining());
}

#[test]
fn advance_moves_the_window_like_slicing() {
    let data: Vec<u8> = (0..=255).collect();
    let mut r: &[u8] = &data;
    r.advance(10);
    assert_eq!(r.chunk(), &data[10..]);
    r.advance(246);
    assert_eq!(r.remaining(), 0);

    let mut b = Bytes::from(data.clone());
    b.advance(100);
    assert_eq!(&b[..], &data[100..]);
    assert_eq!(b.get_u8(), 100);
    assert_eq!(b.len(), 155);
}

#[test]
#[should_panic(expected = "cannot advance")]
fn advancing_past_the_end_panics() {
    let mut r: &[u8] = &[1, 2, 3];
    r.advance(4);
}

#[test]
#[should_panic(expected = "buffer underflow")]
fn reading_past_the_end_panics() {
    let mut r: &[u8] = &[1, 2, 3];
    r.get_u32_le();
}

#[test]
fn slices_share_storage_and_match_std_ranges() {
    let data: Vec<u8> = (0..100).collect();
    let b = Bytes::from(data.clone());
    assert_eq!(&b.slice(10..20)[..], &data[10..20]);
    assert_eq!(&b.slice(..5)[..], &data[..5]);
    assert_eq!(&b.slice(95..)[..], &data[95..]);
    assert_eq!(&b.slice(3..=4)[..], &data[3..=4]);
    assert_eq!(b.slice(7..7).len(), 0);
    // A slice of a slice addresses the original bytes.
    let inner = b.slice(10..50).slice(5..10);
    assert_eq!(&inner[..], &data[15..20]);
    // Clones and slices see the same memory: no copy was made.
    assert_eq!(b.clone().as_ref().as_ptr(), b.as_ref().as_ptr());
    assert_eq!(b.slice(10..).as_ref().as_ptr(), b.as_ref()[10..].as_ptr());
}

#[test]
#[should_panic(expected = "out of bounds")]
fn slicing_past_the_end_panics() {
    Bytes::from(vec![1u8, 2, 3]).slice(1..5);
}

#[test]
fn split_truncate_and_conversions() {
    let mut b = Bytes::from(b"hello world".to_vec());
    let tail = b.split_off(5);
    assert_eq!(&b[..], b"hello");
    assert_eq!(&tail[..], b" world");
    let mut t = tail.clone();
    let head = t.split_to(1);
    assert_eq!(&head[..], b" ");
    assert_eq!(&t[..], b"world");
    t.truncate(3);
    assert_eq!(&t[..], b"wor");
    t.truncate(10);
    assert_eq!(t.len(), 3);

    assert_eq!(Bytes::from_static(b"abc"), Bytes::copy_from_slice(b"abc"));
    assert_eq!(Bytes::from("abc"), Bytes::from(String::from("abc")));
    assert!(Bytes::new().is_empty());
    assert_eq!(Vec::<u8>::from(Bytes::from_static(b"xyz")), b"xyz".to_vec());
    assert_eq!(Bytes::from_static(b"xyz").to_vec(), b"xyz".to_vec());
}
