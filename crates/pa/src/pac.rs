//! PAC packing and the per-process PA context (key registers).
//!
//! Modern 64-bit machines do not use the full virtual address width; ARM PA
//! stores a *Pointer Authentication Code* in the unused top bits (paper
//! §2.3). The workspace-wide machine model uses a 40-bit VA space, leaving
//! 24 bits of PAC — the width the paper's Eq. 6 assumes for Linux.

use crate::cipher::{self, Key128};
use pythia_ir::PaKey;
use std::cell::Cell;
use std::fmt;

/// Geometry of the PAC field inside a 64-bit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacConfig {
    /// Virtual-address bits actually used by pointers (low bits).
    pub va_bits: u32,
    /// PAC width in bits (stored at `64 - pac_bits ..`).
    pub pac_bits: u32,
}

impl PacConfig {
    /// The paper's configuration: 40-bit VA, 24-bit PAC.
    pub const PAPER: PacConfig = PacConfig {
        va_bits: 40,
        pac_bits: 24,
    };

    /// Mask selecting the raw (addressable) bits.
    pub fn va_mask(self) -> u64 {
        (1u64 << self.va_bits) - 1
    }

    /// Mask selecting the PAC field.
    pub fn pac_mask(self) -> u64 {
        !0u64 << (64 - self.pac_bits)
    }

    /// Insert `pac` into the top bits of `raw`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `raw` fits in the VA bits and `pac` in the PAC
    /// bits.
    pub fn pack(self, raw: u64, pac: u64) -> u64 {
        debug_assert_eq!(raw & !self.va_mask(), 0, "value exceeds VA width");
        debug_assert!(pac < (1 << self.pac_bits));
        raw | (pac << (64 - self.pac_bits))
    }

    /// Split a signed value into `(raw, pac)`.
    pub fn unpack(self, value: u64) -> (u64, u64) {
        (value & self.va_mask(), value >> (64 - self.pac_bits))
    }

    /// Remove any PAC bits (the `xpac` instruction).
    pub fn strip(self, value: u64) -> u64 {
        value & self.va_mask()
    }
}

impl Default for PacConfig {
    fn default() -> Self {
        PacConfig::PAPER
    }
}

/// Authentication failure: the PAC did not match.
///
/// On real hardware the `aut*` instruction poisons the pointer so the next
/// dereference faults; our VM turns this error into an immediate trap,
/// which is behaviourally equivalent for the paper's detection claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError {
    /// The key that was used.
    pub key: PaKey,
    /// The (stripped) value whose PAC mismatched.
    pub value: u64,
    /// The expected PAC.
    pub expected: u64,
    /// The PAC found in the top bits.
    pub found: u64,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PAC authentication failure ({} key): value {:#x}, expected PAC {:#x}, found {:#x}",
            self.key.mnemonic(),
            self.value,
            self.expected,
            self.found
        )
    }
}

impl std::error::Error for AuthError {}

/// The per-process PA state: one 128-bit key per key register, plus the
/// PAC geometry.
///
/// It also keeps a small memo of recently computed PACs (DESIGN.md §2),
/// backed by a per-thread cache shared by every context on the thread.
/// The memo uses interior mutability, so a `PaContext` is `Send` but not
/// `Sync`: each VM owns its own.
#[derive(Debug, Clone)]
pub struct PaContext {
    keys: [Key128; 5],
    config: PacConfig,
    memo: PacMemo,
}

/// Slots in the PAC memo. CPA signs a value and authenticates it again a
/// few instructions later with the same modifier, so few slots already
/// hit often: 67% of CPA's PACs in the server scenario with 4 slots, 74%
/// with 64, which also keep most store→load slot pairs.
const MEMO_SLOTS: usize = 64;
// `PacMemo::slot_of` keeps the top `log2(MEMO_SLOTS)` bits of a 64-bit hash.
const _: () = assert!(MEMO_SLOTS.is_power_of_two() && MEMO_SLOTS >= 2);

/// One memo slot: the PAC of `(key, raw, modifier)` under the context's
/// keys and geometry. `key == MemoSlot::EMPTY.key` marks a slot never
/// filled (no key index is that large).
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    raw: u64,
    modifier: u64,
    key: u32,
    pac: u32,
}

impl MemoSlot {
    const EMPTY: MemoSlot = MemoSlot {
        raw: 0,
        modifier: 0,
        key: u32::MAX,
        pac: 0,
    };
}

/// A direct-mapped, exact cache of [`cipher::mac`] for one context. A hit
/// needs the whole `(key, raw, modifier)` tuple to match, so it returns
/// exactly what the cipher would.
#[derive(Debug, Clone)]
struct PacMemo([Cell<MemoSlot>; MEMO_SLOTS]);

impl PacMemo {
    fn new() -> Self {
        PacMemo([const { Cell::new(MemoSlot::EMPTY) }; MEMO_SLOTS])
    }

    /// The slot that holds `(raw, modifier)` under every key: the five
    /// keys share it, and the tag tells them apart.
    #[inline]
    fn slot_of(raw: u64, modifier: u64) -> usize {
        let h = (raw ^ modifier.rotate_left(29)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// The PAC of `(key, raw, modifier)`: from the memo, or from `mac`,
    /// which then replaces the slot's previous entry.
    #[inline]
    fn get_or_compute(&self, key: u32, raw: u64, modifier: u64, mac: impl FnOnce() -> u64) -> u64 {
        let slot = &self.0[Self::slot_of(raw, modifier)];
        let s = slot.get();
        if s.key == key && s.raw == raw && s.modifier == modifier {
            return u64::from(s.pac);
        }
        let pac = mac();
        slot.set(MemoSlot {
            raw,
            modifier,
            key,
            // PAC widths are at most 32 bits (`with_config` checks).
            pac: pac as u32,
        });
        pac
    }
}

/// Slots in the per-thread PAC cache behind every context's memo. Server
/// request VMs run one after another on one thread under the same keys,
/// so a PAC one request computed is usually asked for again by a later
/// one, or by the same VM after its memo evicted it. Of the 464k memo
/// misses of a 600-request CPA loop only 80k are tuples the thread never
/// computed before; 4096 slots of 40 bytes (160 KiB) leave 93k cipher
/// calls, 2048 slots 123k and 1024 slots 145k.
const CACHE_SLOTS: usize = 4096;
// `cached_mac` keeps the top `log2(CACHE_SLOTS)` bits of a 64-bit hash.
const _: () = assert!(CACHE_SLOTS.is_power_of_two() && CACHE_SLOTS >= 2);

/// One per-thread cache slot: `pac = cipher::mac(key, modifier, raw,
/// bits)`, tagged by the whole cipher input. `bits == 0` marks a slot never
/// filled (PAC widths are `1..=32`), so an all-zero slot is empty.
#[derive(Debug, Clone, Copy, Default)]
struct CacheSlot {
    key_lo: u64,
    key_hi: u64,
    raw: u64,
    modifier: u64,
    bits: u32,
    pac: u32,
}

thread_local! {
    /// A direct-mapped, exact cache of [`cipher::mac`] shared by every
    /// context on the thread, allocated by the thread's first memo miss.
    static PAC_CACHE: Box<[Cell<CacheSlot>]> =
        vec![Cell::new(CacheSlot::default()); CACHE_SLOTS].into_boxed_slice();
}

/// The slot of the per-thread cache that holds `(key, raw, modifier)`
/// under every PAC width.
#[inline]
fn cache_slot_of(key: Key128, raw: u64, modifier: u64) -> usize {
    let h = (raw ^ modifier.rotate_left(29) ^ key.lo).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
}

/// [`cipher::mac`], from this thread's cache when any context on the
/// thread computed the same PAC before. A hit needs the whole cipher
/// input to match, so it returns exactly what the cipher would, whatever
/// context, keys or geometry asked first.
#[inline]
fn cached_mac(key: Key128, modifier: u64, raw: u64, bits: u32) -> u64 {
    PAC_CACHE.with(|cache| {
        let slot = &cache[cache_slot_of(key, raw, modifier)];
        let s = slot.get();
        if s.bits == bits
            && s.raw == raw
            && s.modifier == modifier
            && s.key_lo == key.lo
            && s.key_hi == key.hi
        {
            return u64::from(s.pac);
        }
        let pac = cipher::mac(key, modifier, raw, bits);
        slot.set(CacheSlot {
            key_lo: key.lo,
            key_hi: key.hi,
            raw,
            modifier,
            bits,
            // `cipher::mac` returns at most 32 bits.
            pac: pac as u32,
        });
        pac
    })
}

fn key_index(key: PaKey) -> usize {
    match key {
        PaKey::Ia => 0,
        PaKey::Ib => 1,
        PaKey::Da => 2,
        PaKey::Db => 3,
        PaKey::Ga => 4,
    }
}

impl PaContext {
    /// Deterministic keys for reproducible experiments.
    pub fn from_seed(seed: u64) -> Self {
        let mut keys = [Key128::new(0, 0); 5];
        for (i, k) in keys.iter_mut().enumerate() {
            *k = Key128::from_seed(seed.wrapping_add(i as u64 * 0x1000));
        }
        PaContext {
            keys,
            config: PacConfig::default(),
            memo: PacMemo::new(),
        }
    }

    /// Override the PAC geometry. The memo is cleared: its PACs were
    /// computed for the old geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `pac_bits` is in `1..=32`, `va_bits` is at least 1
    /// and the two fields fit in 64 bits together.
    pub fn with_config(mut self, config: PacConfig) -> Self {
        let PacConfig { va_bits, pac_bits } = config;
        assert!(
            (1..=32).contains(&pac_bits) && va_bits >= 1 && va_bits.saturating_add(pac_bits) <= 64,
            "invalid PAC geometry: va_bits {va_bits}, pac_bits {pac_bits} \
             (need pac_bits in 1..=32, va_bits >= 1, va_bits + pac_bits <= 64)"
        );
        self.config = config;
        self.memo = PacMemo::new();
        self
    }

    /// The PAC geometry in use.
    pub fn config(&self) -> PacConfig {
        self.config
    }

    /// Compute the PAC for `(value, modifier)` under `key`: from the memo
    /// when this context computed the same PAC recently, else from the
    /// thread's cache when any context on the thread did.
    pub fn compute_pac(&self, key: PaKey, value: u64, modifier: u64) -> u64 {
        let k = key_index(key);
        let raw = value & self.config.va_mask();
        self.memo.get_or_compute(k as u32, raw, modifier, || {
            cached_mac(self.keys[k], modifier, raw, self.config.pac_bits)
        })
    }

    /// Sign: place the PAC into the top bits (the `pac*` instructions).
    ///
    /// Any existing PAC/top bits are cleared first, matching hardware
    /// behaviour for canonical pointers.
    pub fn sign(&self, key: PaKey, value: u64, modifier: u64) -> u64 {
        let raw = self.config.strip(value);
        let pac = self.compute_pac(key, raw, modifier);
        self.config.pack(raw, pac)
    }

    /// Authenticate: verify the PAC and return the stripped value
    /// (the `aut*` instructions).
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] when the PAC does not match — e.g. after an
    /// attacker overwrote the signed slot with raw bytes.
    pub fn auth(&self, key: PaKey, value: u64, modifier: u64) -> Result<u64, AuthError> {
        let (raw, found) = self.config.unpack(value);
        let expected = self.compute_pac(key, raw, modifier);
        if expected == found {
            Ok(raw)
        } else {
            Err(AuthError {
                key,
                value: raw,
                expected,
                found,
            })
        }
    }

    /// Strip without authenticating (the `xpac` instruction).
    pub fn strip(&self, value: u64) -> u64 {
        self.config.strip(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn ctx() -> PaContext {
        PaContext::from_seed(1)
    }

    #[test]
    fn sign_then_auth_round_trips() {
        // The paper's 24-bit PAC and the reduced widths eq6 plays at.
        for bits in [24, 8, 12, 16] {
            let c = ctx().with_config(geometry(40, bits));
            for v in [0u64, 1, 0xdead_beef, 0xab_0000_1234, (1 << 40) - 1] {
                let signed = c.sign(PaKey::Da, v, 0x7fff_0010);
                assert_eq!(c.strip(signed), v);
                assert_eq!(c.auth(PaKey::Da, signed, 0x7fff_0010).unwrap(), v);
            }
        }
    }

    #[test]
    fn auth_with_wrong_modifier_fails() {
        let c = ctx();
        let signed = c.sign(PaKey::Da, 42, 100);
        assert!(c.auth(PaKey::Da, signed, 101).is_err());
    }

    #[test]
    fn auth_with_wrong_key_fails() {
        let c = ctx();
        let signed = c.sign(PaKey::Da, 42, 100);
        assert!(c.auth(PaKey::Db, signed, 100).is_err());
    }

    #[test]
    fn tampered_value_fails_auth() {
        let c = ctx();
        let signed = c.sign(PaKey::Ga, 42, 7);
        // attacker overwrote the slot with a raw value (no/garbage PAC)
        let tampered = (signed & c.config().pac_mask()) | 43;
        let err = c.auth(PaKey::Ga, tampered, 7).unwrap_err();
        assert_eq!(err.value, 43);
        assert_ne!(err.expected, err.found);
    }

    #[test]
    fn plain_value_without_pac_fails_with_high_probability() {
        // A raw (unsigned) nonzero value has PAC field 0; the expected PAC is
        // essentially never 0.
        let c = ctx();
        let mut failures = 0;
        for v in 1..200u64 {
            if c.auth(PaKey::Da, v, 0x1000).is_err() {
                failures += 1;
            }
        }
        assert!(failures >= 198, "only {failures}/199 tampered loads caught");
    }

    #[test]
    fn strip_removes_pac() {
        let c = ctx();
        let signed = c.sign(PaKey::Ia, 0x1234, 0);
        assert_ne!(signed, 0x1234);
        assert_eq!(c.strip(signed), 0x1234);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let cfg = PacConfig::PAPER;
        let (raw, pac) = cfg.unpack(cfg.pack(0xabc, 0xdef));
        assert_eq!(raw, 0xabc);
        assert_eq!(pac, 0xdef);
        assert_eq!(cfg.va_mask().count_ones(), 40);
        assert_eq!(cfg.pac_mask().count_ones(), 24);
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = PaContext::from_seed(1).sign(PaKey::Da, 5, 5);
        let b = PaContext::from_seed(2).sign(PaKey::Da, 5, 5);
        assert_ne!(a, b);
    }

    const KEYS: [PaKey; 5] = [PaKey::Ia, PaKey::Ib, PaKey::Da, PaKey::Db, PaKey::Ga];

    fn geometry(va_bits: u32, pac_bits: u32) -> PacConfig {
        PacConfig { va_bits, pac_bits }
    }

    /// `sign` recomputed straight from the cipher, bypassing the memo.
    fn reference_sign(c: &PaContext, key: PaKey, value: u64, modifier: u64) -> u64 {
        let cfg = c.config();
        let raw = cfg.strip(value);
        let pac = cipher::mac(c.keys[key_index(key)], modifier, raw, cfg.pac_bits);
        cfg.pack(raw, pac)
    }

    /// Sign through the memo, check the result against the cipher, and
    /// authenticate it back (a hit for the pair just signed).
    fn sign_checked(c: &PaContext, key: PaKey, value: u64, modifier: u64) -> u64 {
        let signed = c.sign(key, value, modifier);
        assert_eq!(
            signed,
            reference_sign(c, key, value, modifier),
            "{key:?} {value:#x} {modifier:#x} under {:?}",
            c.config()
        );
        assert_eq!(c.auth(key, signed, modifier), Ok(c.strip(value)));
        signed
    }

    /// Two `(key, raw, modifier)` tuples that differ only in the field
    /// chosen by `field` (0 key, 1 raw, 2 modifier) and share a memo slot.
    fn colliding_pair(field: u32, rng: &mut SmallRng) -> [(PaKey, u64, u64); 2] {
        let va_mask = PacConfig::PAPER.va_mask();
        loop {
            let a = (
                KEYS[rng.gen_range(0..5usize)],
                rng.gen::<u64>() & va_mask,
                rng.gen(),
            );
            let b = match field {
                0 => (KEYS[rng.gen_range(0..5usize)], a.1, a.2),
                1 => (a.0, rng.gen::<u64>() & va_mask, a.2),
                _ => (a.0, a.1, rng.gen()),
            };
            let slot = |(_, raw, md): (PaKey, u64, u64)| PacMemo::slot_of(raw, md);
            if a != b && slot(a) == slot(b) {
                return [a, b];
            }
        }
    }

    #[test]
    fn memo_matches_the_cipher_under_slot_collisions() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let c = ctx();
        for round in 0..600u32 {
            let [(key, raw, md), (k2, r2, m2)] = colliding_pair(round % 3, &mut rng);
            let signed = sign_checked(&c, key, raw, md);
            // Evict the pair with a tuple that shares its slot, then
            // check both again: each must recompute, not reuse the other.
            let other = sign_checked(&c, k2, r2, m2);
            assert_eq!(c.auth(key, signed, md), Ok(raw));
            assert_eq!(c.auth(k2, other, m2), Ok(r2));
            // With the genuine pair warm, tampering still fails.
            let tampered = (signed & c.config().pac_mask()) | (raw ^ 1);
            assert!(c.auth(key, tampered, md).is_err());
            assert!(c.auth(key, signed, md ^ 1).is_err());
        }
    }

    #[test]
    fn memo_is_cleared_by_with_config_and_kept_by_clone() {
        let mut rng = SmallRng::seed_from_u64(0xc0de);
        let tuples: Vec<(PaKey, u64, u64)> = (0..200)
            .map(|i| (KEYS[i % 5], rng.gen::<u64>() & 0xff_ffff_ffff, rng.gen()))
            .collect();
        let warm = ctx();
        for &(k, v, md) in &tuples {
            sign_checked(&warm, k, v, md);
        }
        let copy = warm.clone();
        for &(k, v, md) in &tuples {
            assert_eq!(copy.sign(k, v, md), warm.sign(k, v, md));
            sign_checked(&copy, k, v, md);
        }
        for bits in [8, 12, 16] {
            let reduced = copy.clone().with_config(geometry(40, bits));
            for &(k, v, md) in &tuples {
                sign_checked(&reduced, k, v, md);
            }
        }
    }

    /// Which part of the cipher input two colliding cache tuples differ in.
    #[derive(Debug, Clone, Copy)]
    enum Field {
        KeyLo,
        KeyHi,
        Raw,
        Modifier,
        Bits,
    }

    /// A cipher input `(key, modifier, raw, bits)`.
    type MacInput = (Key128, u64, u64, u32);

    /// Two cipher inputs that differ only in `field` and share a slot of
    /// the per-thread cache (`key.hi` and the width never pick the slot).
    fn colliding_inputs(field: Field, rng: &mut SmallRng) -> [MacInput; 2] {
        let a: MacInput = (
            Key128::new(rng.gen(), rng.gen()),
            rng.gen(),
            rng.gen::<u64>() & PacConfig::PAPER.va_mask(),
            [8, 12, 16, 24, 32][rng.gen_range(0..5usize)],
        );
        loop {
            let mut b = a;
            match field {
                Field::KeyLo => b.0.lo = rng.gen(),
                Field::KeyHi => b.0.hi = rng.gen(),
                Field::Raw => b.2 = rng.gen::<u64>() & PacConfig::PAPER.va_mask(),
                Field::Modifier => b.1 = rng.gen(),
                Field::Bits => b.3 = if a.3 == 24 { 16 } else { 24 },
            }
            let slot = |(key, md, raw, _): MacInput| cache_slot_of(key, raw, md);
            if a != b && slot(a) == slot(b) {
                return [a, b];
            }
        }
    }

    #[test]
    fn thread_cache_matches_the_cipher_under_slot_collisions() {
        let mut rng = SmallRng::seed_from_u64(0xcac4e);
        let fields = [
            Field::KeyLo,
            Field::KeyHi,
            Field::Raw,
            Field::Modifier,
            Field::Bits,
        ];
        for round in 0..1000usize {
            let field = fields[round % fields.len()];
            let pair = colliding_inputs(field, &mut rng);
            // A fills the slot, B evicts it, A refills it: every answer,
            // hit or miss, is the cipher's.
            for (key, md, raw, bits) in [pair[0], pair[1], pair[0], pair[0]] {
                assert_eq!(
                    cached_mac(key, md, raw, bits),
                    cipher::mac(key, md, raw, bits),
                    "{field:?}: {key:?} {md:#x} {raw:#x} {bits}"
                );
            }
        }
    }

    /// A context whose five keys are all `key`.
    fn context_with_key(key: Key128) -> PaContext {
        PaContext {
            keys: [key; 5],
            config: PacConfig::PAPER,
            memo: PacMemo::new(),
        }
    }

    #[test]
    fn a_thread_cache_hit_does_not_forgive_tampering() {
        let mut rng = SmallRng::seed_from_u64(0x7a3b);
        for round in 0..300u32 {
            let (key, md, raw) = (
                Key128::new(rng.gen(), rng.gen()),
                rng.gen::<u64>(),
                rng.gen::<u64>() & PacConfig::PAPER.va_mask(),
            );
            let signed = context_with_key(key).sign(PaKey::Da, raw, md);
            // A fresh context (cold memo) under the same key hits the
            // thread's cache for the genuine pair only.
            let c = context_with_key(key);
            assert_eq!(c.auth(PaKey::Da, signed, md), Ok(raw));
            let tampered = (signed & c.config().pac_mask()) | (raw ^ 1);
            assert!(c.auth(PaKey::Da, tampered, md).is_err(), "round {round}");
            assert!(c.auth(PaKey::Da, signed, md ^ 1).is_err(), "round {round}");
            // Same `key.lo` and slot, other `key.hi`: another key.
            let other = context_with_key(Key128::new(key.lo, !key.hi));
            assert!(other.auth(PaKey::Da, signed, md).is_err(), "round {round}");
            assert_eq!(
                other.sign(PaKey::Da, raw, md),
                reference_sign(&other, PaKey::Da, raw, md)
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid PAC geometry: va_bits 40, pac_bits 0")]
    fn zero_pac_bits_are_rejected() {
        let _ = ctx().with_config(geometry(40, 0));
    }

    #[test]
    #[should_panic(expected = "invalid PAC geometry: va_bits 16, pac_bits 33")]
    fn pac_wider_than_32_bits_is_rejected() {
        let _ = ctx().with_config(geometry(16, 33));
    }

    #[test]
    #[should_panic(expected = "invalid PAC geometry: va_bits 0, pac_bits 24")]
    fn zero_va_bits_are_rejected() {
        let _ = ctx().with_config(geometry(0, 24));
    }

    #[test]
    #[should_panic(expected = "invalid PAC geometry: va_bits 40, pac_bits 32")]
    fn overlapping_fields_are_rejected() {
        let _ = ctx().with_config(geometry(40, 32));
    }
}
