//! `ChaCha8Rng::seed_from_u64` must give the same stream in every process
//! on every platform: index builds (k-means, HNSW levels) are seeded from
//! it, and the benchmark's count metrics are only comparable across runs
//! if those builds repeat exactly.

use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[test]
fn same_seed_same_stream_across_instances() {
    let mut a = ChaCha8Rng::seed_from_u64(42);
    let mut b = ChaCha8Rng::seed_from_u64(42);
    for _ in 0..1000 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
    let mut c = ChaCha8Rng::seed_from_u64(43);
    let (x, y): (Vec<u32>, Vec<u32>) = (0..8).map(|_| (a.next_u32(), c.next_u32())).unzip();
    assert_ne!(x, y);
}

/// Pinned outputs: a change here means every seeded index build changed.
#[test]
fn stream_is_pinned_across_runs() {
    let mut r = ChaCha8Rng::seed_from_u64(0);
    let first: Vec<u32> = (0..4).map(|_| r.next_u32()).collect();
    assert_eq!(first, PINNED_SEED0_U32);
    let mut r = ChaCha8Rng::seed_from_u64(0xB1E7D);
    assert_eq!(r.next_u64(), PINNED_SEED_B1E7D_U64);
    // Words are consumed in block order: a u64 is the next two u32s.
    let mut a = ChaCha8Rng::seed_from_u64(7);
    let mut b = ChaCha8Rng::seed_from_u64(7);
    let (lo, hi) = (u64::from(a.next_u32()), u64::from(a.next_u32()));
    assert_eq!(b.next_u64(), (hi << 32) | lo);
}

#[test]
fn consecutive_blocks_differ() {
    let mut r = ChaCha8Rng::from_seed([0u8; 32]);
    let block0: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
    let block1: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
    assert_ne!(block0, block1);
    assert!(block0.iter().any(|&w| w != 0));
}

#[test]
fn derived_draws_are_in_range_and_repeatable() {
    let mut r = ChaCha8Rng::seed_from_u64(9);
    for _ in 0..10_000 {
        let i = r.gen_range(0..17usize);
        assert!(i < 17);
        let f: f64 = r.gen();
        assert!((0.0..1.0).contains(&f));
        let g: f32 = r.gen();
        assert!((0.0..1.0).contains(&g));
    }
    let mut v1: Vec<u32> = (0..100).collect();
    let mut v2 = v1.clone();
    v1.shuffle(&mut ChaCha8Rng::seed_from_u64(5));
    v2.shuffle(&mut ChaCha8Rng::seed_from_u64(5));
    assert_eq!(v1, v2);
    let mut sorted = v1.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    assert_ne!(v1, sorted);
    assert!([1, 2, 3].choose(&mut r).is_some());
    assert!(<[u8]>::choose(&[], &mut r).is_none());
}

const PINNED_SEED0_U32: [u32; 4] = [2811902828, 3045455719, 3134767159, 2001118559];
const PINNED_SEED_B1E7D_U64: u64 = 534444651451001219;
