//! A toy Feistel block cipher for functional-mode encryption modelling.
//!
//! Path ORAM stores every bucket slot encrypted so that real and dummy blocks
//! are indistinguishable. The timing simulators only need to *count* the
//! crypto work, but the functional protocol model carries payloads through
//! the tree; encrypting them with an invertible permutation lets tests assert
//! that (a) data round-trips and (b) stored payloads differ from cleartext.
//!
//! This is explicitly **not** a secure cipher — four rounds of a mixed
//! Feistel network over 64-bit blocks — but it is a permutation, which is the
//! property the model needs.

use crate::mixers::mix64;

/// A keyed, invertible 64-bit block permutation (4-round Feistel network).
///
/// # Examples
///
/// ```
/// use iroram_hash::FeistelCipher;
/// let c = FeistelCipher::new(0xfeed_f00d);
/// let pt = 123_456_789u64;
/// assert_eq!(c.decrypt(c.encrypt(pt)), pt);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeistelCipher {
    round_keys: [u64; 4],
}

impl FeistelCipher {
    /// Derives round keys from `key`.
    pub fn new(key: u64) -> Self {
        let mut round_keys = [0u64; 4];
        let mut k = key;
        for rk in &mut round_keys {
            k = mix64(k ^ 0x9E37_79B9_7F4A_7C15);
            *rk = k;
        }
        FeistelCipher { round_keys }
    }

    #[inline]
    fn round(half: u32, key: u64) -> u32 {
        mix64(half as u64 ^ key) as u32
    }

    /// Encrypts one 64-bit block.
    #[inline]
    pub fn encrypt(&self, block: u64) -> u64 {
        let mut l = (block >> 32) as u32;
        let mut r = block as u32;
        for &rk in &self.round_keys {
            let next_r = l ^ Self::round(r, rk);
            l = r;
            r = next_r;
        }
        ((l as u64) << 32) | r as u64
    }

    /// Decrypts one 64-bit block.
    #[inline]
    pub fn decrypt(&self, block: u64) -> u64 {
        let mut l = (block >> 32) as u32;
        let mut r = block as u32;
        for &rk in self.round_keys.iter().rev() {
            let next_l = r ^ Self::round(l, rk);
            r = l;
            l = next_l;
        }
        ((l as u64) << 32) | r as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_sample() {
        let c = FeistelCipher::new(42);
        for pt in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_BABE] {
            let ct = c.encrypt(pt);
            assert_ne!(ct, pt, "ciphertext equals plaintext for {pt:#x}");
            assert_eq!(c.decrypt(ct), pt);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = FeistelCipher::new(1);
        let b = FeistelCipher::new(2);
        assert_ne!(a.encrypt(7), b.encrypt(7));
    }

    proptest! {
        #[test]
        fn prop_bijective(pt in any::<u64>(), key in any::<u64>()) {
            let c = FeistelCipher::new(key);
            prop_assert_eq!(c.decrypt(c.encrypt(pt)), pt);
            prop_assert_eq!(c.encrypt(c.decrypt(pt)), pt);
        }
    }
}
