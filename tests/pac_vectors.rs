//! Golden PAC vectors: literal `sign` outputs for fixed seeds, keys,
//! values, modifiers and PAC widths. Every PAC the VM computes, and so
//! every detection result and digest, rests on these values; a change to
//! the cipher, the key derivation or `PaContext`'s PAC memo that alters
//! any PAC fails here, and so does a PAC cache that answers one
//! context with another's PAC.

use pythia::pa::{cipher, Key128, PaContext, PaKey, PacConfig};

const KEYS: [PaKey; 5] = [PaKey::Ia, PaKey::Ib, PaKey::Da, PaKey::Db, PaKey::Ga];

fn geometry(va_bits: u32, pac_bits: u32) -> PacConfig {
    PacConfig { va_bits, pac_bits }
}

/// `PaContext::from_seed(seed).with_config(geometry).sign(key, v, md)` for
/// each key in `KEYS` order.
#[test]
fn sign_matches_golden_vectors() {
    #[rustfmt::skip]
    let cases: [(u64, PacConfig, u64, u64, [u64; 5]); 7] = [
        (1, geometry(40, 24), 0, 0,
         [0x7eab_3100_0000_0000, 0xee58_8d00_0000_0000, 0xd9c1_2700_0000_0000, 0xd32a_2000_0000_0000, 0xd0c0_0300_0000_0000]),
        (1, geometry(40, 24), 0xdead_beef, 0x7fff_0040,
         [0xd115_3f00_dead_beef, 0x198d_6200_dead_beef, 0xcdbd_1700_dead_beef, 0x01ac_7a00_dead_beef, 0x3288_2d00_dead_beef]),
        (7, geometry(40, 24), (1 << 40) - 1, u64::MAX,
         [0x3b37_50ff_ffff_ffff, 0xe04a_47ff_ffff_ffff, 0xba02_6eff_ffff_ffff, 0x4f10_84ff_ffff_ffff, 0xfaa3_e6ff_ffff_ffff]),
        (42, geometry(40, 8), 0x1234, 0x10,
         [0x3100_0000_0000_1234, 0xfc00_0000_0000_1234, 0x0200_0000_0000_1234, 0x1900_0000_0000_1234, 0xdd00_0000_0000_1234]),
        (42, geometry(40, 12), 0xab_0000_1234, 0x7fff_fff0,
         [0x68d0_00ab_0000_1234, 0xf570_00ab_0000_1234, 0x93a0_00ab_0000_1234, 0xbe90_00ab_0000_1234, 0xd550_00ab_0000_1234]),
        (42, geometry(40, 16), 0xc0_ffee, 0,
         [0x7b39_0000_00c0_ffee, 0xdf1d_0000_00c0_ffee, 0xd2ad_0000_00c0_ffee, 0xebd9_0000_00c0_ffee, 0xb833_0000_00c0_ffee]),
        (3, geometry(32, 32), 0xffff_ffff, 0x55,
         [0x9cc0_93f6_ffff_ffff, 0xc290_a585_ffff_ffff, 0xa3b1_d0a2_ffff_ffff, 0x1291_8509_ffff_ffff, 0x1be8_0be6_ffff_ffff]),
    ];
    for (seed, cfg, v, md, expected) in cases {
        let c = PaContext::from_seed(seed).with_config(cfg);
        for (key, want) in KEYS.into_iter().zip(expected) {
            // Twice: the first call fills the PAC memo, the second hits it.
            assert_eq!(c.sign(key, v, md), want, "seed {seed} {cfg:?} {key:?}");
            assert_eq!(
                c.sign(key, v, md),
                want,
                "seed {seed} {cfg:?} {key:?} (memo)"
            );
            assert_eq!(c.auth(key, want, md), Ok(v));
        }
    }
}

/// Many contexts interleaved on one thread, as a server's request VMs
/// are: every `sign` and `auth` must give the cipher's own answer,
/// whichever context computed a PAC first and whatever its geometry. The
/// values and modifiers come from small pools, so contexts ask for one
/// another's PACs and each context's memo evicts its own.
#[test]
fn interleaved_contexts_agree_with_the_cipher() {
    let geometries = [
        geometry(40, 8),
        geometry(40, 12),
        geometry(40, 16),
        geometry(40, 24),
        geometry(32, 32),
    ];
    let seeds = [1u64, 2, 7, 42];
    // Two contexts per seed and geometry, like two requests of one epoch.
    let contexts: Vec<(u64, PacConfig, PaContext)> = seeds
        .iter()
        .flat_map(|&seed| geometries.map(|g| (seed, g)))
        .flat_map(|(seed, g)| [0, 1].map(|_| (seed, g, PaContext::from_seed(seed).with_config(g))))
        .collect();
    let values: Vec<u64> = (0..48)
        .map(|i| cipher::splitmix64(i) & 0xffff_ffff)
        .collect();
    let modifiers: Vec<u64> = (0..12)
        .map(|i| 0x7fff_0000 + 8 * (cipher::splitmix64(i ^ 0x55) % 4096))
        .collect();
    let mut x = 0u64;
    for round in 0..40_000u64 {
        x = cipher::splitmix64(x ^ round);
        let (seed, cfg, c) = &contexts[x as usize % contexts.len()];
        let k = (x >> 8) as usize % KEYS.len();
        let v = values[(x >> 16) as usize % values.len()] & cfg.va_mask();
        let md = modifiers[(x >> 32) as usize % modifiers.len()];
        // `PaContext::from_seed` derives key `k` from `seed + k * 0x1000`.
        let key = Key128::from_seed(seed.wrapping_add(k as u64 * 0x1000));
        let want = cfg.pack(v, cipher::mac(key, md, v, cfg.pac_bits));
        assert_eq!(
            c.sign(KEYS[k], v, md),
            want,
            "seed {seed} {cfg:?} {:?} {v:#x} {md:#x}",
            KEYS[k]
        );
        assert_eq!(c.auth(KEYS[k], want, md), Ok(v));
        // A wrong modifier passes exactly when the cipher gives it the
        // same PAC (about 2^-bits of the time).
        let forged = cipher::mac(key, md ^ 8, v, cfg.pac_bits) == cfg.unpack(want).1;
        assert_eq!(c.auth(KEYS[k], want, md ^ 8).is_ok(), forged);
    }
}
