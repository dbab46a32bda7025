//! The buffered generator and its sampling helpers.

use crate::chacha::{init_state, next_block, State};
use std::fmt;

/// One part per million; probabilities in CSOD are expressed in ppm so
/// the paper's percentages stay exact integers (0.001 % = 10 ppm).
pub const PPM_SCALE: u32 = 1_000_000;

/// A buffered ChaCha8 pseudo-random generator in the style of OpenBSD's
/// `arc4random(3)`, but with *owned* state so each thread can have its
/// own instance — the paper's fix for glibc's globally locked `rand`
/// (Section III-A1, "Random number generator").
///
/// # Examples
///
/// ```
/// use csod_rng::Arc4Random;
///
/// let mut rng = Arc4Random::from_seed(1234, 0);
/// // The paper's acceptance test: "if a random number modulo 100 is
/// // less than 10", generalized to parts-per-million.
/// let watched = rng.chance_ppm(100_000); // 10%
/// let _ = watched;
/// // Deterministic: the same seed replays the same stream.
/// let mut replay = Arc4Random::from_seed(1234, 0);
/// assert_eq!(replay.next_u32(), Arc4Random::from_seed(1234, 0).next_u32());
/// ```
#[derive(Clone)]
pub struct Arc4Random {
    state: State,
    buffer: [u32; 16],
    /// Next unread index in `buffer`; 16 means empty.
    cursor: usize,
    draws: u64,
}

impl fmt::Debug for Arc4Random {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arc4Random")
            .field("draws", &self.draws)
            .finish_non_exhaustive()
    }
}

impl Arc4Random {
    /// Creates a generator from a 64-bit seed and a stream id.
    ///
    /// The stream id keeps per-thread generators statistically
    /// independent while deriving from one process-level seed: CSOD
    /// seeds thread *t* with `(process_seed, t)`.
    pub fn from_seed(seed: u64, stream: u64) -> Self {
        let mut key = [0u8; 32];
        // Spread the seed through the key with splitmix64 so nearby
        // seeds do not produce nearby keys.
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        for chunk in key.chunks_exact_mut(8) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        Arc4Random {
            state: init_state(&key, stream),
            buffer: [0; 16],
            cursor: 16,
            draws: 0,
        }
    }

    /// Returns the next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.cursor == 16 {
            self.refill();
        }
        let v = self.buffer[self.cursor];
        self.cursor += 1;
        self.draws += 1;
        v
    }

    /// Generates the next 16-word block: one draw in 16, kept out of
    /// line so [`Arc4Random::next_u32`] inlines into its callers.
    #[cold]
    fn refill(&mut self) {
        self.buffer = next_block(&mut self.state);
        self.cursor = 0;
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        u64::from(self.next_u32()) | (u64::from(self.next_u32()) << 32)
    }

    /// Returns a uniform value in `[0, bound)` without modulo bias
    /// (`arc4random_uniform(3)`).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn uniform(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "uniform bound must be positive");
        // Rejection sampling: discard the low `2^32 % bound` values.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            if r >= threshold {
                return r % bound;
            }
        }
    }

    /// Bernoulli trial: returns `true` with probability `ppm` parts per
    /// million. Values at or above [`PPM_SCALE`] always return `true`.
    #[inline]
    pub fn chance_ppm(&mut self, ppm: u32) -> bool {
        if ppm >= PPM_SCALE {
            return true;
        }
        if ppm == 0 {
            return false;
        }
        self.uniform(PPM_SCALE) < ppm
    }

    /// Fills `buf` with random bytes (`arc4random_buf(3)`).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let word = self.next_u32().to_le_bytes();
            rest.copy_from_slice(&word[..rest.len()]);
        }
    }

    /// Returns a uniform value in `[lo, hi]` (inclusive bounds).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        let span = hi - lo;
        if span == u32::MAX {
            return self.next_u32();
        }
        lo + self.uniform(span + 1)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// Returns `None` for an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            return None;
        }
        let index = self.uniform(u32::try_from(items.len()).expect("slice fits u32"));
        items.get(index as usize)
    }

    /// Number of 32-bit draws made so far (fast-path cost accounting).
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers: the first 32 words (two ChaCha blocks, so one
    /// refill) of two `(seed, stream)` pairs. Every sampling decision,
    /// and through them every pinned run digest, derives from this
    /// keystream; a change here is a change to every seeded outcome.
    #[test]
    fn keystream_known_answers() {
        #[rustfmt::skip]
        let cases: [((u64, u64), [u32; 32]); 2] = [
            (
                (0xC50D, 0),
                [
                    0x8B55_91AC, 0xD99B_C940, 0x3DDA_339C, 0x2C36_303D, 0xB412_54FB, 0xC338_5BF0,
                    0x31CA_54C6, 0x0946_587A, 0x93DD_3B70, 0xBE05_7995, 0x5EF8_CE87, 0x949B_FC60,
                    0x74DC_B31C, 0x9284_B14D, 0x76D1_F1BD, 0x5348_4F22, 0x622F_553F, 0x8F4D_D2BE,
                    0x6F4E_558F, 0x05B2_F04E, 0x389B_D7AF, 0x0C37_631B, 0x4708_4E1A, 0xA67A_4C13,
                    0x768F_1C54, 0x55E3_5A58, 0x979C_F24B, 0xD434_74BC, 0x13F0_ACBC, 0x04D7_2D15,
                    0x7DAB_8B6F, 0x3792_774E,
                ],
            ),
            (
                (42, 7),
                [
                    0x1E8F_C4D1, 0xE22B_C538, 0x0340_AC5A, 0x0D58_0D8B, 0x1A83_BE26, 0xFE0D_4C9D,
                    0x08D1_3815, 0xD2B1_30DB, 0xBC65_628D, 0x5ACF_EFA2, 0x16C1_EF05, 0x5228_97BB,
                    0xC745_420B, 0xC3A7_A3BB, 0x968A_8C26, 0xABF6_1BDB, 0x33C4_456D, 0x5076_2DD1,
                    0xEA03_C73F, 0x0978_79FB, 0xFB60_7C78, 0x2F05_8F98, 0x7636_B134, 0x25D0_6FDB,
                    0x0D72_2A87, 0x3A57_4DB9, 0xC4E4_FCCE, 0x7BA0_DBB3, 0x1B0D_56EC, 0x5DE1_6BC4,
                    0xD61C_B1A9, 0x9893_9104,
                ],
            ),
        ];
        for ((seed, stream), expected) in cases {
            let mut rng = Arc4Random::from_seed(seed, stream);
            let words: Vec<u32> = (0..32).map(|_| rng.next_u32()).collect();
            assert_eq!(words, expected, "seed {seed:#x}, stream {stream}");
            assert_eq!(rng.draws(), 32);
        }
    }

    /// Known answers for the sampling helpers on one stream: a bounded
    /// draw sequence, then Bernoulli trials at 50 % and 10 %.
    #[test]
    fn sampling_helpers_known_answers() {
        let mut rng = Arc4Random::from_seed(1, 0);
        let uniform: Vec<u32> = (0..8).map(|_| rng.uniform(1000)).collect();
        assert_eq!(uniform, [681, 726, 238, 570, 510, 996, 203, 488]);
        let half: Vec<bool> = (0..8).map(|_| rng.chance_ppm(500_000)).collect();
        assert_eq!(half, [true, true, true, true, false, true, false, true]);
        let tenth: Vec<bool> = (0..8).map(|_| rng.chance_ppm(100_000)).collect();
        assert_eq!(
            tenth,
            [false, false, true, false, false, false, false, false]
        );
        assert_eq!(rng.draws(), 24, "no draw was rejected");
    }

    #[test]
    fn determinism_per_seed_and_stream() {
        let mut a = Arc4Random::from_seed(42, 0);
        let mut b = Arc4Random::from_seed(42, 0);
        let mut c = Arc4Random::from_seed(42, 1);
        let mut d = Arc4Random::from_seed(43, 0);
        let va: Vec<u32> = (0..40).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..40).map(|_| b.next_u32()).collect();
        let vc: Vec<u32> = (0..40).map(|_| c.next_u32()).collect();
        let vd: Vec<u32> = (0..40).map(|_| d.next_u32()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
        assert_ne!(va, vd);
    }

    #[test]
    fn uniform_respects_bound() {
        let mut rng = Arc4Random::from_seed(7, 0);
        for _ in 0..10_000 {
            assert!(rng.uniform(100) < 100);
        }
        // Bound of one is always zero.
        assert_eq!(rng.uniform(1), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn uniform_zero_bound_panics() {
        Arc4Random::from_seed(1, 0).uniform(0);
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut rng = Arc4Random::from_seed(99, 0);
        let mut buckets = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[rng.uniform(10) as usize] += 1;
        }
        for &b in &buckets {
            let expected = n / 10;
            assert!(
                (b as i64 - expected as i64).unsigned_abs() < expected as u64 / 10,
                "bucket count {b} too far from {expected}"
            );
        }
    }

    #[test]
    fn chance_ppm_extremes() {
        let mut rng = Arc4Random::from_seed(5, 0);
        assert!(rng.chance_ppm(PPM_SCALE));
        assert!(rng.chance_ppm(PPM_SCALE + 1));
        assert!(!rng.chance_ppm(0));
    }

    #[test]
    fn chance_ppm_statistics() {
        let mut rng = Arc4Random::from_seed(11, 3);
        let trials = 200_000;
        let hits = (0..trials)
            .filter(|_| rng.chance_ppm(500_000)) // 50%
            .count();
        let ratio = hits as f64 / f64::from(trials);
        assert!((0.49..0.51).contains(&ratio), "ratio {ratio}");

        let rare_hits = (0..trials)
            .filter(|_| rng.chance_ppm(10)) // 0.001%
            .count();
        assert!(rare_hits < 20, "0.001% fired {rare_hits} times in 200k");
    }

    #[test]
    fn next_u64_combines_two_words() {
        let mut a = Arc4Random::from_seed(1, 0);
        let mut b = Arc4Random::from_seed(1, 0);
        let lo = u64::from(b.next_u32());
        let hi = u64::from(b.next_u32());
        assert_eq!(a.next_u64(), lo | (hi << 32));
    }

    #[test]
    fn fill_bytes_covers_every_length() {
        let mut rng = Arc4Random::from_seed(8, 0);
        for len in 0..40 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                // All-zero output of 8+ bytes is astronomically unlikely.
                assert!(buf.iter().any(|&b| b != 0), "len {len}");
            }
        }
    }

    #[test]
    fn range_inclusive_bounds_hold() {
        let mut rng = Arc4Random::from_seed(9, 0);
        for _ in 0..1000 {
            let v = rng.range_inclusive(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(rng.range_inclusive(7, 7), 7);
        // The full span does not overflow.
        let _ = rng.range_inclusive(0, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn range_inclusive_rejects_inverted_bounds() {
        Arc4Random::from_seed(1, 0).range_inclusive(5, 4);
    }

    #[test]
    fn pick_selects_members() {
        let mut rng = Arc4Random::from_seed(10, 0);
        let items = [1, 2, 3];
        for _ in 0..50 {
            assert!(items.contains(rng.pick(&items).unwrap()));
        }
        assert_eq!(rng.pick::<u8>(&[]), None);
    }

    #[test]
    fn draws_counts_words() {
        let mut rng = Arc4Random::from_seed(2, 0);
        let _ = rng.next_u64();
        assert_eq!(rng.draws(), 2);
    }

    #[test]
    fn debug_does_not_leak_state() {
        let rng = Arc4Random::from_seed(3, 0);
        let dbg = format!("{rng:?}");
        assert!(dbg.contains("draws"));
        assert!(!dbg.contains("state"));
    }
}
