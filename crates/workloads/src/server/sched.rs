//! Deterministic scheduling primitives for the event-loop server.
//!
//! Everything the event loop needs to stay byte-reproducible lives here:
//! splitmix64 stream derivation (so per-request / per-worker RNG streams
//! never overlap for adjacent seeds), the re-randomization epoch clock,
//! the round-robin service order and the attack injector's timetable.

/// The splitmix64 finalizer (Steele et al.): a full-avalanche bijection
/// on `u64`. Identical constants to `FastKeyHasher` in the VM's memory
/// radix — kept in one exported place so stream derivation everywhere in
/// the workspace agrees.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive the seed of logical stream `stream` from `base`.
///
/// `base + index`-style derivation makes adjacent base seeds produce
/// almost entirely overlapping stream sets (base 7 worker 1 == base 8
/// worker 0); pushing the pair through splitmix64's avalanche makes every
/// `(base, stream)` pair an independent-looking seed.
pub fn stream_seed(base: u64, stream: u64) -> u64 {
    splitmix64(base ^ splitmix64(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// The canary re-randomization epoch clock: event time is sliced into
/// epochs of `epoch_len` events, and every epoch `e` re-keys the canary
/// RNG stream to [`EpochClock::epoch_seed`]. Request VMs admitted during
/// epoch `e` draw their canaries from that epoch's stream, so a canary
/// value leaked in epoch `e` replays successfully only until the next
/// boundary — the window the injector races (DESIGN.md §5i).
#[derive(Debug, Clone, Copy)]
pub struct EpochClock {
    /// Events per epoch.
    pub epoch_len: u64,
    /// Base seed the per-epoch seeds derive from.
    pub base_seed: u64,
}

impl EpochClock {
    /// Epoch containing event `event`.
    pub fn epoch_of(&self, event: u64) -> u64 {
        event / self.epoch_len
    }

    /// The canary-stream seed of epoch `epoch`.
    pub fn epoch_seed(&self, epoch: u64) -> u64 {
        stream_seed(self.base_seed, 0xE90C_0000_0000_0000 | epoch)
    }
}

/// Round-robin service order: the slot out of `n` that event `event` serves.
pub fn round_robin(event: u64, n: usize) -> usize {
    (event % n as u64) as usize
}

/// One scheduled attack: a corruption payload delivered at a controlled
/// offset after a re-randomization epoch boundary.
#[derive(Debug, Clone, Copy)]
pub struct AttackSlot {
    /// Index into the offset sweep (which detection-curve row this
    /// delivery accrues to).
    pub offset_index: usize,
    /// Event at which the payload is delivered.
    pub delivery_event: u64,
    /// Recon-to-delivery delay in events: the canary leak happened at
    /// `delivery_event - jitter`. Drawn per repetition and *shared across
    /// offsets* (common random numbers), so the empirical detection curve
    /// is exactly `#{jitter > offset} / reps` — monotone in the offset by
    /// construction, not just in expectation.
    pub jitter: u64,
}

/// Cap on attack repetitions per window offset.
const MAX_ATTACK_REPS: u64 = 64;

/// The injector's timetable: for each window offset in `offsets`
/// (events after an epoch boundary), up to `MAX_ATTACK_REPS` deliveries
/// in distinct epochs, interleaved k-major so every offset samples the
/// same epochs range. All deliveries land strictly before event `horizon`.
pub fn attack_timetable(clock: &EpochClock, offsets: &[u64], horizon: u64) -> Vec<AttackSlot> {
    let epochs = horizon / clock.epoch_len;
    // Epoch 0 has no preceding boundary to race; keep it attack-free.
    let usable = epochs.saturating_sub(1);
    let reps = (usable / offsets.len() as u64).clamp(1, MAX_ATTACK_REPS);
    let jmax = (clock.epoch_len / 2).max(1);
    let mut slots = Vec::new();
    for k in 0..reps {
        let jitter = 1 + splitmix64(stream_seed(clock.base_seed, 0xA77C_0000 | k)) % jmax;
        for (o, &off) in offsets.iter().enumerate() {
            let epoch = 1 + k * offsets.len() as u64 + o as u64;
            if epoch > usable {
                continue;
            }
            let delivery = epoch * clock.epoch_len + off;
            if delivery >= horizon {
                continue;
            }
            slots.push(AttackSlot {
                offset_index: o,
                delivery_event: delivery,
                jitter,
            });
        }
    }
    slots.sort_by_key(|s| s.delivery_event);
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_do_not_overlap_for_adjacent_bases() {
        // The old `seed + index` derivation failed exactly this: base 7
        // stream 1 equals base 8 stream 0.
        let mut seen = std::collections::HashSet::new();
        for base in 0..32u64 {
            for stream in 0..32u64 {
                assert!(seen.insert(stream_seed(base, stream)));
            }
        }
    }

    #[test]
    fn ring_is_fair_round_robin() {
        let order: Vec<usize> = (0..7).map(|e| round_robin(e, 3)).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn timetable_is_sorted_epoch_unique_and_inside_horizon() {
        let clock = EpochClock {
            epoch_len: 128,
            base_seed: 9,
        };
        let offsets = [0, 8, 16, 32, 64, 96];
        let slots = attack_timetable(&clock, &offsets, 4096);
        assert!(!slots.is_empty());
        let mut epochs = std::collections::HashSet::new();
        for w in slots.windows(2) {
            assert!(w[0].delivery_event < w[1].delivery_event);
        }
        for s in &slots {
            assert!(s.delivery_event < 4096);
            assert!(
                epochs.insert(s.delivery_event / 128),
                "one attack per epoch"
            );
            assert!(s.jitter >= 1 && s.jitter <= 64);
        }
    }

    #[test]
    fn shared_jitter_makes_detection_counts_monotone() {
        let clock = EpochClock {
            epoch_len: 256,
            base_seed: 1234,
        };
        let offsets = [0u64, 16, 32, 64, 128, 192];
        let slots = attack_timetable(&clock, &offsets, 1 << 16);
        // detection model: cross-epoch leak iff jitter > offset.
        let mut detected = vec![0u64; offsets.len()];
        for s in &slots {
            if s.jitter > offsets[s.offset_index] {
                detected[s.offset_index] += 1;
            }
        }
        for w in detected.windows(2) {
            assert!(w[0] >= w[1], "detection curve must be non-increasing");
        }
    }
}
