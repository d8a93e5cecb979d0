//! Offline stand-in for `rand_chacha`: [`ChaCha8Rng`], the ChaCha stream
//! cipher reduced to 8 rounds, keyed by a 32-byte seed with a 64-bit block
//! counter and a zero stream id. Words are handed out in block order;
//! `next_u64` joins two consecutive words low-first.

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;

/// Deterministic, portable generator (no word-size-dependent output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    /// Next unread word of `block`; 16 means "generate a new block".
    index: usize,
}

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = self.counter as u32;
        init[13] = (self.counter >> 32) as u32;
        let mut s = init;
        for _ in 0..ROUNDS / 2 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (out, start) in s.iter_mut().zip(init) {
            *out = out.wrapping_add(start);
        }
        self.block = s;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng { key, counter: 0, block: [0; 16], index: 16 }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::quarter;

    /// RFC 7539 §2.1.1 quarter-round test vector.
    #[test]
    fn quarter_round_matches_rfc7539() {
        let mut s = [0u32; 16];
        (s[0], s[1], s[2], s[3]) = (0x1111_1111, 0x0102_0304, 0x9b8d_6f43, 0x0123_4567);
        quarter(&mut s, 0, 1, 2, 3);
        assert_eq!([s[0], s[1], s[2], s[3]], [0xea2a_92f4, 0xcb1c_f8ce, 0x4581_472e, 0x5881_c4bb]);
    }
}
