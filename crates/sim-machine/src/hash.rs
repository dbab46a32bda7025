//! A multiply-shift hasher for tables keyed by addresses and descriptors.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One fxhash round per `u64`. The default SipHash hasher costs more
/// than the rest of a simulated `malloc`/`free` or perf syscall put
/// together; addresses and descriptors are already high-entropy in the
/// low bits, so a single multiply mixes plenty.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddrHasher(u64);

/// The 64-bit `fxhash` multiplier (golden-ratio based).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; tolerate other widths anyway.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(FX_SEED);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by `u64` addresses or descriptors, hashed with
/// [`AddrHasher`].
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_writes_hash_like_the_word() {
        let mut word = AddrHasher::default();
        word.write_u64(0x1234_5678_9abc_def0);
        let mut bytes = AddrHasher::default();
        bytes.write(&0x1234_5678_9abc_def0u64.to_le_bytes());
        assert_eq!(word.finish(), bytes.finish());
    }

    #[test]
    fn map_round_trips() {
        let mut m: AddrMap<u32> = AddrMap::default();
        for i in 0..1_000u32 {
            m.insert(u64::from(i) * 64, i);
        }
        assert!((0..1_000u32).all(|i| m.get(&(u64::from(i) * 64)) == Some(&i)));
    }
}
