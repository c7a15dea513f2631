//! A QARMA-inspired 64-bit tweakable block cipher.
//!
//! ARM PA computes a Pointer Authentication Code as
//! `PAC = truncate(QARMA64(key, pointer, modifier))`. Real QARMA is a
//! hardware-oriented reflection cipher; what Pythia's security argument
//! needs from it is only that the PAC is a *pseudo-random function* of
//! `(key, value, tweak)` so that forging a b-bit PAC succeeds with
//! probability `2^-b` (paper Eq. 6). This module implements a small
//! ARX-style tweakable cipher with the same interface: 128-bit key,
//! 64-bit tweak (the modifier), 64-bit block.
//!
//! The design is a 10-round ARX permutation with the tweak and round
//! constants injected every round — structurally similar to reduced-round
//! QARMA / SPECK hybrids. It is **not** intended as production
//! cryptography; it is a faithful stand-in for the hardware primitive with
//! good statistical diffusion (see the avalanche tests below).

/// A 128-bit cipher key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key128 {
    /// Low 64 bits.
    pub lo: u64,
    /// High 64 bits.
    pub hi: u64,
}

impl Key128 {
    /// Construct a key from two 64-bit halves.
    pub fn new(lo: u64, hi: u64) -> Self {
        Key128 { lo, hi }
    }

    /// Derive a key deterministically from a seed (used for reproducible
    /// experiments; real systems generate keys at exec time).
    pub fn from_seed(seed: u64) -> Self {
        let lo = splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let hi = splitmix64(lo ^ 0xbf58_476d_1ce4_e5b9);
        Key128 { lo, hi }
    }
}

/// The `splitmix64` finalizer, used for key derivation and round constants.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const ROUNDS: usize = 10;

/// Round constants (first 10 odd constants derived from the golden ratio).
const RC: [u64; ROUNDS] = [
    0x9e37_79b9_7f4a_7c15,
    0xf39c_c060_5ced_c835,
    0x2a9d_3c5c_819f_5e4b,
    0x8c44_f1d9_0d38_7ae1,
    0xd1b5_4a32_d192_ed03,
    0x5851_f42d_4c95_7f2d,
    0x1405_7b7e_f767_814f,
    0x8e45_1043_f5c9_76a3,
    0x6c62_2729_1f6f_d5b7,
    0xa529_2ab1_75e1_b2cd,
];

#[inline]
fn mix(mut x: u64, k: u64) -> u64 {
    x = x.wrapping_add(k);
    x ^= x.rotate_left(13);
    x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    x ^= x.rotate_right(7);
    x
}

/// Encrypt one 64-bit block under `key` with `tweak`.
///
/// The function is a permutation of the block for each `(key, tweak)` pair
/// (every round step is invertible), though Pythia only ever needs the
/// forward direction (PAC computation is compare-on-auth, not decrypt).
pub fn encrypt(key: Key128, tweak: u64, block: u64) -> u64 {
    let mut x = block ^ key.lo;
    let mut t = tweak;
    for (r, rc) in RC.iter().enumerate() {
        x = mix(x, t ^ rc.wrapping_add(r as u64));
        // tweak schedule: LFSR-ish update so each round sees fresh tweak bits
        t = t.rotate_left(23) ^ key.hi.wrapping_add(*rc);
        x ^= x >> 29;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    x ^ key.hi
}

/// Compute a `bits`-wide MAC of `(value, modifier)` — the PAC.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 32.
pub fn mac(key: Key128, modifier: u64, value: u64, bits: u32) -> u64 {
    assert!(bits > 0 && bits <= 32, "PAC width must be in 1..=32");
    let full = encrypt(key, modifier, value);
    // Fold the full block down so every input bit influences the PAC.
    let folded = full ^ (full >> 32);
    folded & ((1u64 << bits) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let k = Key128::from_seed(42);
        assert_eq!(encrypt(k, 1, 2), encrypt(k, 1, 2));
        assert_eq!(mac(k, 1, 2, 24), mac(k, 1, 2, 24));
    }

    #[test]
    fn key_sensitivity() {
        let k1 = Key128::from_seed(1);
        let k2 = Key128::from_seed(2);
        assert_ne!(encrypt(k1, 7, 99), encrypt(k2, 7, 99));
    }

    #[test]
    fn tweak_sensitivity() {
        let k = Key128::from_seed(3);
        assert_ne!(encrypt(k, 1, 99), encrypt(k, 2, 99));
    }

    #[test]
    fn mac_width() {
        let k = Key128::from_seed(4);
        for bits in [8, 16, 24, 32] {
            let m = mac(k, 5, 6, bits);
            assert!(m < (1 << bits));
        }
    }

    #[test]
    #[should_panic(expected = "PAC width")]
    fn mac_width_zero_panics() {
        mac(Key128::from_seed(0), 0, 0, 0);
    }

    /// Flipping any single input bit should flip ~half the output bits.
    #[test]
    fn avalanche_on_block() {
        let k = Key128::from_seed(1234);
        let mut total = 0u32;
        let mut count = 0u32;
        for bit in 0..64 {
            for base in [0u64, 0xdead_beef_cafe_f00d, u64::MAX / 3] {
                let a = encrypt(k, 99, base);
                let b = encrypt(k, 99, base ^ (1 << bit));
                total += (a ^ b).count_ones();
                count += 1;
            }
        }
        let avg = f64::from(total) / f64::from(count);
        assert!(
            (24.0..40.0).contains(&avg),
            "poor avalanche: average {avg} differing bits"
        );
    }

    /// Distinct (value, modifier) pairs should essentially never collide on
    /// a 24-bit PAC in a tiny sample (collision expectation ~ n^2/2^25).
    #[test]
    fn macs_look_uniform() {
        let k = Key128::from_seed(77);
        let mut seen = std::collections::HashSet::new();
        let n = 512u64;
        for v in 0..n {
            seen.insert(mac(k, 0xabcd, v, 24));
        }
        // With 512 samples in 2^24 buckets, expected collisions ≈ 0.008.
        assert!(seen.len() as u64 >= n - 1, "too many PAC collisions");
    }

    #[test]
    fn splitmix_reference_values() {
        // splitmix64(0) is the first output of the reference SplitMix64
        // generator seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0x9e37_79b9), 0x90fb_d5f4_9acf_76ef);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }
}

/// Statistical quality checks for the cipher, promoted to library code so
/// downstream users (and the test suite) can re-validate after changing
/// round counts or constants.
pub mod quality {
    use super::{encrypt, mac, Key128};

    /// Mean output-bit flips over single-bit input flips (ideal: 32.0).
    pub fn avalanche_score(key: Key128, samples: u64) -> f64 {
        let mut total_flips = 0u64;
        let mut trials = 0u64;
        for s in 0..samples {
            let base = super::splitmix64(s);
            let reference = encrypt(key, 0x1234, base);
            for bit in 0..64 {
                let flipped = encrypt(key, 0x1234, base ^ (1u64 << bit));
                total_flips += u64::from((reference ^ flipped).count_ones());
                trials += 1;
            }
        }
        total_flips as f64 / trials as f64
    }

    /// Chi-square statistic of the 24-bit MAC distribution bucketed into
    /// 256 bins over `n` sequential inputs. For a uniform distribution the
    /// expected value is ~255 (the degrees of freedom); values far above
    /// (say > 400) indicate structure.
    pub fn mac_chi_square(key: Key128, n: u64) -> f64 {
        let bins = 256usize;
        let mut counts = vec![0u64; bins];
        for v in 0..n {
            let m = mac(key, 0xABCD, v, 24);
            counts[(m % bins as u64) as usize] += 1;
        }
        let expected = n as f64 / bins as f64;
        counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    /// Per-output-bit bias of the MAC over `n` sequential inputs: the
    /// maximum |P(bit=1) - 0.5| across the 24 PAC bits (ideal: ~0).
    pub fn mac_max_bit_bias(key: Key128, n: u64) -> f64 {
        let mut ones = [0u64; 24];
        for v in 0..n {
            let m = mac(key, 0x77, v, 24);
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += (m >> bit) & 1;
            }
        }
        ones.iter()
            .map(|&c| (c as f64 / n as f64 - 0.5).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod quality_tests {
    use super::*;

    #[test]
    fn avalanche_near_half() {
        let score = quality::avalanche_score(Key128::from_seed(3), 8);
        assert!(
            (28.0..36.0).contains(&score),
            "avalanche score {score} out of range"
        );
    }

    #[test]
    fn mac_distribution_is_flat() {
        let chi = quality::mac_chi_square(Key128::from_seed(4), 65_536);
        assert!(chi < 400.0, "chi-square {chi} suggests structured MACs");
        assert!(chi > 100.0, "chi-square {chi} suspiciously perfect");
    }

    #[test]
    fn mac_bits_are_unbiased() {
        let bias = quality::mac_max_bit_bias(Key128::from_seed(5), 32_768);
        assert!(bias < 0.02, "bit bias {bias} too large");
    }
}
