//! A two-level set-associative data-cache simulator (L1D + LLC) with LRU
//! replacement, sized like the paper's Apple M1 Pro testbed (24 MB LLC).
//!
//! The evaluation only needs *relative* miss behaviour — e.g. Pythia's heap
//! sectioning fragments the heap and can add LLC misses for benchmarks
//! with interleaved shared/isolated accesses (§6.1, `510.parest_r`) — so a
//! straightforward LRU model suffices.

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Hit in L1D.
    L1Hit,
    /// Missed L1, hit LLC.
    LlcHit,
    /// Missed both levels (memory access).
    Miss,
}

/// Sets per lazily allocated chunk of a [`Level`].
const CHUNK_SETS: usize = 64;

/// One set-associative level with LRU replacement.
///
/// Sets are grouped in chunks of [`CHUNK_SETS`], each allocated on the
/// first access that maps into it. A level is built fresh for every VM
/// run, and a short run touches few of an LLC's 32k sets, so the level
/// costs what the run touches rather than its `sets × ways` geometry. Inside a chunk each set is one contiguous `1 + ways` word
/// stripe: the live way count, then the tags (LRU first, MRU last
/// within the live prefix).
#[derive(Debug, Clone)]
struct Level {
    chunks: Vec<Option<Box<[u64]>>>,
    ways: usize,
    set_shift: u32,
    set_mask: u64,
}

/// `(sets, ways)` for a level of `capacity` bytes in `line`-byte lines.
fn geometry(capacity: u64, line: u64, ways_hint: usize) -> (usize, usize) {
    let lines = (capacity / line).max(1) as usize;
    // Round the set count down to a power of two and absorb the
    // remainder into the associativity, so any capacity works.
    let mut sets = (lines / ways_hint).max(1);
    while !sets.is_power_of_two() {
        sets &= sets - 1; // drop lowest set bit -> previous power of two
    }
    (sets, (lines / sets).max(1))
}

impl Level {
    fn new(capacity: u64, line: u64, ways_hint: usize) -> Self {
        let (sets, ways) = geometry(capacity, line, ways_hint);
        Level {
            chunks: vec![None; sets.div_ceil(CHUNK_SETS)],
            ways,
            set_shift: line.trailing_zeros(),
            set_mask: sets as u64 - 1,
        }
    }

    /// Access a line; returns `true` on hit.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let stride = 1 + self.ways;
        let chunk = self.chunks[set / CHUNK_SETS]
            .get_or_insert_with(|| vec![0; CHUNK_SETS * stride].into_boxed_slice());
        let (live, tags) = chunk[(set % CHUNK_SETS) * stride..][..stride]
            .split_first_mut()
            .expect("a set stripe starts with its live way count");
        let len = *live as usize;
        // MRU fast path: repeated hits on the hottest line (the common
        // case for consecutive accesses) skip the scan and the rotate.
        if len > 0 && tags[len - 1] == line {
            return true;
        }
        if let Some(pos) = tags[..len].iter().position(|&t| t == line) {
            // Refresh to MRU (end of the live prefix).
            tags[pos..len].rotate_left(1);
            tags[len - 1] = line;
            true
        } else {
            if len == self.ways {
                // Evict the LRU tag at the front.
                tags.rotate_left(1);
                tags[len - 1] = line;
            } else {
                tags[len] = line;
                *live += 1;
            }
            false
        }
    }

    /// Chunks allocated so far.
    #[cfg(test)]
    fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }
}

/// Per-level hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// L1D hits.
    pub l1_hits: u64,
    /// LLC hits (L1 misses that hit LLC).
    pub llc_hits: u64,
    /// Full misses.
    pub misses: u64,
}

impl CacheStats {
    /// LLC miss rate over all accesses.
    pub fn llc_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The two-level cache hierarchy.
///
/// `l1_mru` mirrors the MRU tag of every L1 set as `line + 1` (0: none
/// yet). Every access leaves its line at the MRU end of its L1 set, hit
/// or miss, so a repeat access that finds its line in the mirror is an
/// L1 hit that changes no LRU state: it is counted and answered without
/// touching the level. A line whose `+ 1` wraps to 0 never matches and
/// always takes the full path.
#[derive(Debug, Clone)]
pub struct CacheSim {
    l1: Level,
    llc: Level,
    l1_mru: Box<[u64]>,
    line: u64,
    stats: CacheStats,
}

impl CacheSim {
    /// M1-Pro-like geometry: 64 KiB L1D (8-way), 24 MiB LLC (12-way),
    /// 64-byte lines. (The LLC way count is rounded to keep sets a power
    /// of two.)
    pub fn m1_like() -> Self {
        CacheSim::new(64 << 10, 24 << 20, 64)
    }

    /// Custom geometry (capacities in bytes). Way counts are fixed at 8
    /// (L1) and 12 (LLC), adjusted if needed to keep set counts a power of
    /// two.
    ///
    /// # Panics
    ///
    /// Panics if `capacity / line / ways` is not a power of two after
    /// adjustment.
    pub fn new(l1_capacity: u64, llc_capacity: u64, line: u64) -> Self {
        let l1 = Level::new(l1_capacity, line, 8);
        CacheSim {
            l1_mru: vec![0; l1.set_mask as usize + 1].into_boxed_slice(),
            l1,
            llc: Level::new(llc_capacity, line, 12),
            line,
            stats: CacheStats::default(),
        }
    }

    /// Cache line size.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Access one address.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.stats.accesses += 1;
        let line = addr >> self.l1.set_shift;
        let mru = &mut self.l1_mru[(line & self.l1.set_mask) as usize];
        if *mru == line.wrapping_add(1) {
            self.stats.l1_hits += 1;
            return CacheOutcome::L1Hit;
        }
        *mru = line.wrapping_add(1);
        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
            return CacheOutcome::L1Hit;
        }
        if self.llc.access(addr) {
            self.stats.llc_hits += 1;
            return CacheOutcome::LlcHit;
        }
        self.stats.misses += 1;
        CacheOutcome::Miss
    }

    /// Access a byte range, touching every line it covers; returns the
    /// worst outcome (used for bulk intrinsics like `memcpy`). A range
    /// that wraps past `u64::MAX` touches no line: the bulk access it
    /// models faults before it reaches memory.
    pub fn access_range(&mut self, addr: u64, len: u64) -> CacheOutcome {
        let mut worst = CacheOutcome::L1Hit;
        let Some(end) = addr.checked_add(len.max(1) - 1) else {
            return worst;
        };
        let first = addr / self.line;
        let last = end / self.line;
        for l in first..=last {
            let o = self.access(l * self.line);
            worst = match (worst, o) {
                (_, CacheOutcome::Miss) | (CacheOutcome::Miss, _) => CacheOutcome::Miss,
                (_, CacheOutcome::LlcHit) | (CacheOutcome::LlcHit, _) => CacheOutcome::LlcHit,
                _ => CacheOutcome::L1Hit,
            };
        }
        worst
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl Default for CacheSim {
    fn default() -> Self {
        CacheSim::m1_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = CacheSim::m1_like();
        assert_eq!(c.access(0x1000), CacheOutcome::Miss);
        assert_eq!(c.access(0x1000), CacheOutcome::L1Hit);
        assert_eq!(c.access(0x1038), CacheOutcome::L1Hit, "same 64B line");
        assert_eq!(c.access(0x1040), CacheOutcome::Miss, "next line");
    }

    #[test]
    fn l1_eviction_falls_back_to_llc() {
        let mut c = CacheSim::new(1024, 1 << 20, 64); // tiny L1: 16 lines, 2 sets
                                                      // Fill one set beyond its 8 ways: lines mapping to set 0.
        let stride = 2 * 64; // set count = 2 -> same set every 2 lines
        for i in 0..9 {
            c.access(i * stride);
        }
        // line 0 evicted from L1 but still in LLC
        assert_eq!(c.access(0), CacheOutcome::LlcHit);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = CacheSim::new(1024, 1 << 20, 64);
        let stride = 2 * 64;
        for i in 0..8 {
            c.access(i * stride); // fill set
        }
        c.access(0); // refresh line 0 -> MRU
        c.access(8 * stride); // evicts line 1 (LRU), not line 0
        assert_eq!(c.access(0), CacheOutcome::L1Hit);
        assert_eq!(c.access(stride), CacheOutcome::LlcHit);
    }

    #[test]
    fn range_access_touches_every_line() {
        let mut c = CacheSim::m1_like();
        assert_eq!(c.access_range(0x2000, 200), CacheOutcome::Miss);
        assert_eq!(c.stats().accesses, 4); // 200 bytes over 64B lines, aligned
        assert_eq!(c.access_range(0x2000, 200), CacheOutcome::L1Hit);
    }

    #[test]
    fn wrapping_range_touches_no_line() {
        let mut c = CacheSim::m1_like();
        for (addr, len) in [(u64::MAX - 15, 64), (u64::MAX, 2), (u64::MAX - 8, u64::MAX)] {
            assert_eq!(c.access_range(addr, len), CacheOutcome::L1Hit);
        }
        assert_eq!(c.stats().accesses, 0);
        // Ending exactly at the top of the address space does not wrap.
        assert_eq!(c.access_range(u64::MAX - 63, 64), CacheOutcome::Miss);
        assert_eq!(c.stats().accesses, 1);
    }

    #[test]
    fn fresh_sim_allocates_no_chunk() {
        let mut c = CacheSim::m1_like();
        assert_eq!((c.l1.allocated_chunks(), c.llc.allocated_chunks()), (0, 0));
        c.access(0x10_0000);
        c.access(0x10_0008);
        assert_eq!((c.l1.allocated_chunks(), c.llc.allocated_chunks()), (1, 1));
        // Far-apart lines land in different chunks; nothing else appears.
        c.access(0x70_0000_0000 + 0x40 * CHUNK_SETS as u64);
        assert_eq!((c.l1.allocated_chunks(), c.llc.allocated_chunks()), (2, 2));
    }

    /// The flat `sets × ways` level the chunked [`Level`] replaced, kept
    /// as the reference the differential test compares against.
    struct FlatLevel {
        tags: Vec<u64>,
        lens: Vec<u32>,
        ways: usize,
        set_shift: u32,
        set_mask: u64,
    }

    impl FlatLevel {
        fn new(capacity: u64, line: u64, ways_hint: usize) -> Self {
            let (sets, ways) = geometry(capacity, line, ways_hint);
            FlatLevel {
                tags: vec![0; sets * ways],
                lens: vec![0; sets],
                ways,
                set_shift: line.trailing_zeros(),
                set_mask: sets as u64 - 1,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr >> self.set_shift;
            let set = (line & self.set_mask) as usize;
            let len = self.lens[set] as usize;
            let tags = &mut self.tags[set * self.ways..set * self.ways + len];
            if len > 0 && tags[len - 1] == line {
                return true;
            }
            if let Some(pos) = tags.iter().position(|&t| t == line) {
                tags[pos..].rotate_left(1);
                tags[len - 1] = line;
                true
            } else {
                if len == self.ways {
                    tags.rotate_left(1);
                    tags[len - 1] = line;
                } else {
                    self.tags[set * self.ways + len] = line;
                    self.lens[set] = (len + 1) as u32;
                }
                false
            }
        }
    }

    /// [`CacheSim`]'s hierarchy over [`FlatLevel`]s, with no MRU mirror.
    struct FlatSim {
        l1: FlatLevel,
        llc: FlatLevel,
        line: u64,
        stats: CacheStats,
    }

    impl FlatSim {
        fn new(l1_capacity: u64, llc_capacity: u64, line: u64) -> Self {
            FlatSim {
                l1: FlatLevel::new(l1_capacity, line, 8),
                llc: FlatLevel::new(llc_capacity, line, 12),
                line,
                stats: CacheStats::default(),
            }
        }

        /// Every line of the range in order; the worst outcome wins.
        fn access_range(&mut self, addr: u64, len: u64) -> CacheOutcome {
            let end = addr + len.max(1) - 1;
            let rank = |o| match o {
                CacheOutcome::L1Hit => 0,
                CacheOutcome::LlcHit => 1,
                CacheOutcome::Miss => 2,
            };
            (addr / self.line..=end / self.line)
                .map(|l| self.access(l * self.line))
                .max_by_key(|&o| rank(o))
                .expect("a range covers at least one line")
        }

        fn access(&mut self, addr: u64) -> CacheOutcome {
            self.stats.accesses += 1;
            if self.l1.access(addr) {
                self.stats.l1_hits += 1;
                CacheOutcome::L1Hit
            } else if self.llc.access(addr) {
                self.stats.llc_hits += 1;
                CacheOutcome::LlcHit
            } else {
                self.stats.misses += 1;
                CacheOutcome::Miss
            }
        }
    }

    #[test]
    fn chunked_levels_match_the_flat_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // (l1, llc, line): the M1 geometry, a tiny L1 over a 1 MiB LLC,
        // and capacities whose line counts are not powers of two.
        let geometries = [
            (64 << 10, 24 << 20, 64),
            (1024, 1 << 20, 64),
            (48 << 10, 20 << 20, 64),
        ];
        let bases = [0x10_0000u64, 0x10_0000_0000, 0x70_0000_0000];
        for (l1, llc, line) in geometries {
            for seed in 0..4 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut chunked = CacheSim::new(l1, llc, line);
                let mut flat = FlatSim::new(l1, llc, line);
                // Strides of one L1 or one LLC set span map every access
                // to the same set, so sets overflow their ways and evict.
                let strides = [
                    line * (chunked.l1.set_mask + 1),
                    line * (chunked.llc.set_mask + 1),
                ];
                // The last two addresses, for repeated-line and ping-pong
                // streams (which the L1 MRU mirror answers).
                let (mut prev, mut last) = (bases[0], bases[0]);
                for _ in 0..20_000 {
                    let base = bases[rng.gen_range(0..bases.len())];
                    let addr = match rng.gen_range(0u32..6) {
                        0 => base + rng.gen_range(0u64..1 << 20),
                        1 => {
                            base + strides[0] * rng.gen_range(0u64..24) + rng.gen_range(0u64..line)
                        }
                        2 => base + strides[1] * rng.gen_range(0u64..32),
                        // The same line again.
                        3 => last - last % line + rng.gen_range(0u64..line),
                        // Back to the line before: a ping-pong between two
                        // lines, often of one L1 set.
                        4 => prev,
                        _ => {
                            let len = rng.gen_range(1u64..4 * line);
                            assert_eq!(
                                chunked.access_range(base, len),
                                flat.access_range(base, len),
                                "range {base:#x}+{len} seed {seed}"
                            );
                            (prev, last) = (last, base + len - 1);
                            continue;
                        }
                    };
                    assert_eq!(
                        chunked.access(addr),
                        flat.access(addr),
                        "{addr:#x} seed {seed}"
                    );
                    (prev, last) = (last, addr);
                }
                assert_eq!(chunked.stats(), flat.stats);
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut c = CacheSim::m1_like();
        c.access(0x100);
        c.access(0x100);
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
        assert!(s.llc_miss_rate() > 0.0);
    }
}
