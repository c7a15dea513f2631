//! The input and attacker model.
//!
//! Input channels pull bytes from an [`InputPlan`]. A benign plan produces
//! seeded random inputs that always fit the destination object. An attack
//! plan designates one (or more) dynamic input-channel executions whose
//! payload the attacker controls — including its *length*, which is what
//! turns a channel into a buffer overflow (threat model §2.5: the attacker
//! can attempt corruption at any time, with any content).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Upper bound on one benign string input, in bytes. Benign traffic fills
/// up to `capacity - 1` bytes of the destination, but a pathological
/// multi-megabyte buffer must not make every benign run quadratic — this
/// named cap bounds the draw while still exercising large vulnerable
/// buffers far beyond the 32 bytes an earlier hard-coded clamp allowed.
pub const MAX_BENIGN_STRING: u64 = 4096;

/// One attacker-controlled channel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSpec {
    /// Which dynamic execution of a *memory-writing* input channel to
    /// hijack (0-based, counted across the whole run).
    pub ic_execution: u64,
    /// The bytes delivered. May exceed the destination capacity; the VM
    /// writes them all, faithfully corrupting whatever lies above.
    pub payload: Vec<u8>,
}

impl AttackSpec {
    /// Convenience: a payload of `len` copies of `0x41` ('A'), the classic
    /// smash pattern.
    pub fn smash(ic_execution: u64, len: usize) -> Self {
        AttackSpec {
            ic_execution,
            payload: vec![0x41; len],
        }
    }

    /// A payload that overflows with a chosen 8-byte value repeated — used
    /// to *aim* at a branch variable rather than just crash.
    pub fn aimed(ic_execution: u64, len: usize, value: u64) -> Self {
        let mut payload = Vec::with_capacity(len);
        while payload.len() < len {
            payload.extend_from_slice(&value.to_le_bytes());
        }
        payload.truncate(len);
        AttackSpec {
            ic_execution,
            payload,
        }
    }
}

/// Plan answering "what does channel execution #n deliver?".
#[derive(Debug, Clone)]
pub struct InputPlan {
    rng: SmallRng,
    attacks: Vec<AttackSpec>,
    scan_range: (i64, i64),
}

impl InputPlan {
    /// A benign plan: all inputs fit their destinations.
    pub fn benign(seed: u64) -> Self {
        InputPlan {
            rng: SmallRng::seed_from_u64(seed),
            attacks: Vec::new(),
            scan_range: (0, 100),
        }
    }

    /// A plan with one attack.
    pub fn with_attack(seed: u64, attack: AttackSpec) -> Self {
        let mut p = InputPlan::benign(seed);
        p.arm(attack);
        p
    }

    /// Add an attack to the plan. Every answer is keyed by the channel
    /// execution it is for, so arming a plan partway through a run
    /// changes nothing before `attack.ic_execution`.
    pub fn arm(&mut self, attack: AttackSpec) {
        self.attacks.push(attack);
    }

    /// Set the value range benign `scanf`-class inputs draw from.
    pub fn set_scan_range(&mut self, lo: i64, hi: i64) {
        self.scan_range = (lo, hi);
    }

    /// The attack aimed at channel execution `n`, if any.
    pub fn attack_for(&self, n: u64) -> Option<&AttackSpec> {
        self.attacks.iter().find(|a| a.ic_execution == n)
    }

    /// Bytes for string-ish channel execution `n` with destination
    /// `capacity` (total bytes available at the destination pointer).
    ///
    /// Benign executions return at most `capacity - 1` bytes (leaving
    /// room for a NUL), bounded above by [`MAX_BENIGN_STRING`]; attacked
    /// executions return the raw payload.
    pub fn string_input(&mut self, n: u64, capacity: u64) -> Vec<u8> {
        if let Some(a) = self.attack_for(n) {
            return a.payload.clone();
        }
        let cap = capacity.saturating_sub(1).min(MAX_BENIGN_STRING);
        if cap == 0 {
            return Vec::new();
        }
        let len = self.rng.gen_range(1..=cap);
        (0..len).map(|_| self.rng.gen_range(b'a'..=b'z')).collect()
    }

    /// An integer for `scanf`-class channel execution `n`.
    pub fn int_input(&mut self, n: u64) -> IntOrPayload {
        if let Some(a) = self.attack_for(n) {
            return IntOrPayload::Payload(a.payload.clone());
        }
        let (lo, hi) = self.scan_range;
        IntOrPayload::Int(self.rng.gen_range(lo..=hi))
    }
}

/// Result of an integer-channel read: a well-formed integer or an
/// attacker-shaped byte payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntOrPayload {
    /// Benign parsed integer.
    Int(i64),
    /// Attack payload (written raw at the destination).
    Payload(Vec<u8>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_strings_fit_capacity() {
        let mut p = InputPlan::benign(7);
        for n in 0..50 {
            let bytes = p.string_input(n, 16);
            assert!(bytes.len() <= 15, "benign input must leave NUL room");
            assert!(!bytes.contains(&0));
        }
    }

    #[test]
    fn attack_payload_ignores_capacity() {
        let p0 = AttackSpec::smash(3, 100);
        let mut p = InputPlan::with_attack(1, p0);
        assert_eq!(p.string_input(3, 16).len(), 100);
        assert!(p.string_input(2, 16).len() <= 15);
    }

    #[test]
    fn aimed_payload_repeats_value() {
        let a = AttackSpec::aimed(0, 24, 0x4142434445464748);
        assert_eq!(a.payload.len(), 24);
        assert_eq!(&a.payload[0..8], &0x4142434445464748u64.to_le_bytes());
        assert_eq!(&a.payload[8..16], &a.payload[0..8]);
    }

    #[test]
    fn int_inputs_respect_range() {
        let mut p = InputPlan::benign(9);
        p.set_scan_range(5, 10);
        for n in 0..20 {
            let IntOrPayload::Int(v) = p.int_input(n) else {
                unreachable!("benign plan produced payload")
            };
            assert!((5..=10).contains(&v));
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = InputPlan::benign(42);
        let mut b = InputPlan::benign(42);
        for n in 0..10 {
            assert_eq!(a.string_input(n, 20), b.string_input(n, 20));
        }
    }

    #[test]
    fn benign_strings_use_large_capacities() {
        // Regression: a hard-coded `.min(32)` used to clamp every benign
        // input to 32 bytes, so big vulnerable buffers were never filled.
        let mut p = InputPlan::benign(11);
        let longest = (0..200)
            .map(|n| p.string_input(n, 512).len())
            .max()
            .unwrap();
        assert!(
            longest > 32,
            "benign inputs must exercise capacities beyond 32 bytes (got {longest})"
        );
        assert!(longest <= 511, "still leaves NUL room");
    }

    #[test]
    fn benign_strings_bounded_by_named_cap() {
        let mut p = InputPlan::benign(13);
        for n in 0..50 {
            let len = p.string_input(n, u64::MAX).len() as u64;
            assert!(len <= MAX_BENIGN_STRING);
        }
    }

    #[test]
    fn zero_capacity_yields_empty() {
        let mut p = InputPlan::benign(1);
        assert!(p.string_input(0, 0).is_empty());
        assert!(p.string_input(1, 1).is_empty());
    }
}
