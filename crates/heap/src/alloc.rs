//! A bin-based free-list allocator over a simulated address range.
//!
//! The design is glibc-`malloc`-flavoured, matching the paper's statement
//! that "Pythia's custom memory allocation is based on glibc's malloc
//! implementation" (§4.3): requests are rounded to 16-byte granules,
//! small sizes are served from segregated *fastbins* (exact-size LIFO
//! caches, no coalescing on the fast path), everything else goes through a
//! sorted free map with first-fit, splitting and immediate coalescing, and
//! the wilderness (top) chunk is bumped when no free chunk fits.
//!
//! One deliberate deviation: chunk metadata lives *out-of-band* (in Rust
//! structures) rather than in headers inside the simulated memory. In-band
//! headers are exactly what heap attacks corrupt; keeping them external
//! models an uncorruptible allocator, which is the property the paper's
//! heap sectioning relies on (the *addresses* are what matter for
//! isolation, and those are faithfully reproduced).

use std::collections::BTreeMap;
use std::fmt;

/// Allocation granularity (bytes). glibc uses 2*SIZE_SZ = 16 on 64-bit.
pub const GRANULE: u64 = 16;

/// Largest size class served by a fastbin.
pub const FASTBIN_MAX: u64 = 512;

/// Errors from [`Allocator::free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// The address was never returned by this allocator (or already freed).
    UnknownAddress(u64),
}

impl fmt::Display for FreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeError::UnknownAddress(a) => write!(f, "free of unknown address {a:#x}"),
        }
    }
}

impl std::error::Error for FreeError {}

/// Usage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Bytes currently handed out.
    pub bytes_in_use: u64,
    /// High-water mark of `bytes_in_use`.
    pub peak_bytes: u64,
    /// Allocations served from a fastbin.
    pub fastbin_hits: u64,
    /// Allocations served by splitting a sorted free chunk.
    pub freelist_hits: u64,
    /// Allocations served by bumping the wilderness.
    pub wilderness_hits: u64,
    /// Allocation failures (address space exhausted).
    pub failures: u64,
    /// Free-chunk merges performed (predecessor, successor, or give-back
    /// into the wilderness), counting each merge individually.
    pub coalesces: u64,
}

/// The allocator. Addresses it returns are always `GRANULE`-aligned and lie
/// within `[base, base + capacity)`.
#[derive(Debug, Clone)]
pub struct Allocator {
    base: u64,
    capacity: u64,
    /// Bump frontier: everything at/above this (up to base+capacity) is
    /// virgin wilderness.
    top: u64,
    /// Live allocations: address -> rounded size.
    live: BTreeMap<u64, u64>,
    /// Sorted free chunks: address -> size (coalesced, never adjacent).
    free: BTreeMap<u64, u64>,
    /// Fastbins: exact-size LIFO stacks, index = size/GRANULE - 1.
    fastbins: Vec<Vec<u64>>,
    stats: AllocStats,
}

impl Allocator {
    /// Create an allocator over `[base, base + capacity)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not granule-aligned, `capacity` is zero, or
    /// the range wraps the address space.
    pub fn new(base: u64, capacity: u64) -> Self {
        assert!(
            base.is_multiple_of(GRANULE),
            "heap base {base:#x} is not {GRANULE}-byte aligned"
        );
        assert!(capacity > 0, "heap section capacity is zero");
        assert!(
            base.checked_add(capacity).is_some(),
            "heap range wraps the address space"
        );
        Allocator {
            base,
            capacity,
            top: base,
            live: BTreeMap::new(),
            free: BTreeMap::new(),
            fastbins: vec![Vec::new(); (FASTBIN_MAX / GRANULE) as usize],
            stats: AllocStats::default(),
        }
    }

    /// Lowest managed address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the highest managed address.
    pub fn end(&self) -> u64 {
        self.base + self.capacity
    }

    /// Whether `addr` lies in this allocator's range.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Usage counters.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Rounded size of the live allocation at `addr`, if any.
    pub fn allocated_size(&self, addr: u64) -> Option<u64> {
        self.live.get(&addr).copied()
    }

    /// The live allocation containing `addr`, as `(base, size)`.
    pub fn find_containing(&self, addr: u64) -> Option<(u64, u64)> {
        let (&a, &sz) = self.live.range(..=addr).next_back()?;
        (addr < a + sz).then_some((a, sz))
    }

    fn round(size: u64) -> u64 {
        size.max(1).div_ceil(GRANULE).saturating_mul(GRANULE)
    }

    /// Allocate `size` bytes; returns the address or `None` when the range
    /// is exhausted.
    pub fn alloc(&mut self, size: u64) -> Option<u64> {
        let size = Self::round(size);

        // 1. Fastbin exact fit.
        if size <= FASTBIN_MAX {
            let idx = (size / GRANULE - 1) as usize;
            if let Some(addr) = self.fastbins[idx].pop() {
                self.live.insert(addr, size);
                self.stats.fastbin_hits += 1;
                return Some(self.finish_alloc(addr, size));
            }
        }

        // 2. First fit in the sorted free map, with splitting.
        let candidate = self
            .free
            .iter()
            .find(|(_, &sz)| sz >= size)
            .map(|(&a, &sz)| (a, sz));
        if let Some((addr, chunk_size)) = candidate {
            self.free.remove(&addr);
            if chunk_size > size {
                self.free.insert(addr + size, chunk_size - size);
            }
            self.live.insert(addr, size);
            self.stats.freelist_hits += 1;
            return Some(self.finish_alloc(addr, size));
        }

        // 3. Bump the wilderness.
        if self.top.checked_add(size).is_some_and(|e| e <= self.end()) {
            let addr = self.top;
            self.top += size;
            self.live.insert(addr, size);
            self.stats.wilderness_hits += 1;
            return Some(self.finish_alloc(addr, size));
        }

        // 4. Last resort: flush fastbins into the free map (consolidation,
        // like glibc's malloc_consolidate) and retry the free map and
        // wilderness once.
        self.consolidate();
        let candidate = self
            .free
            .iter()
            .find(|(_, &sz)| sz >= size)
            .map(|(&a, &sz)| (a, sz));
        if let Some((addr, chunk_size)) = candidate {
            self.free.remove(&addr);
            if chunk_size > size {
                self.free.insert(addr + size, chunk_size - size);
            }
            self.live.insert(addr, size);
            self.stats.freelist_hits += 1;
            return Some(self.finish_alloc(addr, size));
        }
        if self.top.checked_add(size).is_some_and(|e| e <= self.end()) {
            let addr = self.top;
            self.top += size;
            self.live.insert(addr, size);
            self.stats.wilderness_hits += 1;
            return Some(self.finish_alloc(addr, size));
        }

        self.stats.failures += 1;
        None
    }

    fn finish_alloc(&mut self, addr: u64, size: u64) -> u64 {
        self.stats.allocs += 1;
        self.stats.bytes_in_use += size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes_in_use);
        addr
    }

    /// Free a previous allocation; returns its rounded size.
    ///
    /// # Errors
    ///
    /// [`FreeError::UnknownAddress`] on double free or foreign pointers.
    pub fn free(&mut self, addr: u64) -> Result<u64, FreeError> {
        let size = self
            .live
            .remove(&addr)
            .ok_or(FreeError::UnknownAddress(addr))?;
        self.stats.frees += 1;
        self.stats.bytes_in_use -= size;
        if size <= FASTBIN_MAX {
            let idx = (size / GRANULE - 1) as usize;
            self.fastbins[idx].push(addr);
        } else {
            self.insert_free(addr, size);
        }
        Ok(size)
    }

    /// Move all fastbin entries into the coalescing free map.
    pub fn consolidate(&mut self) {
        let granule = GRANULE;
        let bins = std::mem::take(&mut self.fastbins);
        for (i, bin) in bins.iter().enumerate() {
            let size = (i as u64 + 1) * granule;
            for &addr in bin {
                self.insert_free(addr, size);
            }
        }
        self.fastbins = vec![Vec::new(); (FASTBIN_MAX / GRANULE) as usize];
    }

    /// Insert into the free map, coalescing with both neighbours and the
    /// wilderness.
    fn insert_free(&mut self, mut addr: u64, mut size: u64) {
        // Coalesce with the predecessor.
        if let Some((&prev_addr, &prev_size)) = self.free.range(..addr).next_back() {
            if prev_addr + prev_size == addr {
                self.free.remove(&prev_addr);
                addr = prev_addr;
                size += prev_size;
                self.stats.coalesces += 1;
            }
        }
        // Coalesce with the successor.
        if let Some(&next_size) = self.free.get(&(addr + size)) {
            self.free.remove(&(addr + size));
            size += next_size;
            self.stats.coalesces += 1;
        }
        // Give back to the wilderness when adjacent to the top.
        if addr + size == self.top {
            self.top = addr;
            self.stats.coalesces += 1;
        } else {
            self.free.insert(addr, size);
        }
    }

    /// Internal invariant checks, used by tests: free chunks are disjoint,
    /// never adjacent (fully coalesced), and disjoint from live chunks.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<u64> = None;
        for (&a, &sz) in &self.free {
            if a + sz > self.top {
                return Err(format!("free chunk {a:#x}+{sz} beyond top {:#x}", self.top));
            }
            if let Some(pe) = prev_end {
                if a < pe {
                    return Err(format!("overlapping free chunks at {a:#x}"));
                }
                if a == pe {
                    return Err(format!("uncoalesced adjacent free chunks at {a:#x}"));
                }
            }
            prev_end = Some(a + sz);
        }
        let mut regions: Vec<(u64, u64, bool)> = self
            .live
            .iter()
            .map(|(&a, &s)| (a, s, true))
            .chain(self.free.iter().map(|(&a, &s)| (a, s, false)))
            .collect();
        for (i, bin) in self.fastbins.iter().enumerate() {
            let size = (i as u64 + 1) * GRANULE;
            for &a in bin {
                regions.push((a, size, false));
            }
        }
        regions.sort();
        for w in regions.windows(2) {
            let (a0, s0, _) = w[0];
            let (a1, _, _) = w[1];
            if a0 + s0 > a1 {
                return Err(format!("overlap between chunks at {a0:#x} and {a1:#x}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "is not 16-byte aligned")]
    fn unaligned_base_panics() {
        Allocator::new(0x1001, 4096);
    }

    #[test]
    #[should_panic(expected = "capacity is zero")]
    fn zero_capacity_panics() {
        Allocator::new(0x1000, 0);
    }

    #[test]
    #[should_panic(expected = "wraps the address space")]
    fn wrapping_range_panics() {
        Allocator::new(u64::MAX - 0xf, 1 << 20);
    }

    #[test]
    fn alloc_returns_aligned_in_range() {
        let mut a = Allocator::new(0x1000, 4096);
        for _ in 0..10 {
            let p = a.alloc(24).unwrap();
            assert_eq!(p % GRANULE, 0);
            assert!(a.contains(p));
        }
    }

    #[test]
    fn distinct_live_allocations_do_not_overlap() {
        let mut a = Allocator::new(0x1000, 65536);
        let mut ptrs = Vec::new();
        for i in 1..50u64 {
            ptrs.push((a.alloc(i * 7 % 300 + 1).unwrap(), (i * 7 % 300 + 1)));
        }
        ptrs.sort();
        for w in ptrs.windows(2) {
            assert!(w[0].0 + Allocator::round(w[0].1) <= w[1].0);
        }
        a.check_invariants().unwrap();
    }

    #[test]
    fn fastbin_reuses_exact_size() {
        let mut a = Allocator::new(0, 4096);
        let p = a.alloc(32).unwrap();
        a.free(p).unwrap();
        let q = a.alloc(32).unwrap();
        assert_eq!(p, q, "fastbin should hand back the same chunk");
        assert_eq!(a.stats().fastbin_hits, 1);
    }

    #[test]
    fn double_free_rejected() {
        let mut a = Allocator::new(0, 4096);
        let p = a.alloc(64).unwrap();
        a.free(p).unwrap();
        assert_eq!(a.free(p), Err(FreeError::UnknownAddress(p)));
        assert_eq!(a.free(0xbad0), Err(FreeError::UnknownAddress(0xbad0)));
    }

    #[test]
    fn large_chunks_coalesce() {
        let mut a = Allocator::new(0, 1 << 20);
        let p1 = a.alloc(1024).unwrap();
        let p2 = a.alloc(1024).unwrap();
        let p3 = a.alloc(1024).unwrap();
        // keep p3 live so the frees below can't fall into the wilderness
        let _keep = a.alloc(64).unwrap();
        a.free(p1).unwrap();
        a.free(p3).unwrap();
        a.free(p2).unwrap(); // middle free must bridge p1..p3
        a.check_invariants().unwrap();
        // Bridging p1..p3 merged with both neighbours: two coalesces.
        assert_eq!(a.stats().coalesces, 2);
        // Now a 3KiB allocation must fit into the coalesced hole.
        let big = a.alloc(3072).unwrap();
        assert_eq!(big, p1);
        assert_eq!(a.stats().freelist_hits, 1);
    }

    #[test]
    fn exhaustion_returns_none_and_counts_failures() {
        let mut a = Allocator::new(0, 64);
        assert!(a.alloc(48).is_some());
        assert!(a.alloc(48).is_none());
        assert_eq!(a.stats().failures, 1);
    }

    #[test]
    fn consolidation_allows_large_alloc_after_small_frees() {
        let mut a = Allocator::new(0, 512);
        let mut ptrs = Vec::new();
        for _ in 0..16 {
            ptrs.push(a.alloc(32).unwrap());
        }
        assert!(a.alloc(32).is_none());
        for p in ptrs {
            a.free(p).unwrap(); // all go to fastbins
        }
        // 256 > FASTBIN entries individually; needs consolidation.
        let big = a.alloc(256);
        assert!(big.is_some(), "consolidation should enable this");
        a.check_invariants().unwrap();
    }

    #[test]
    fn wilderness_reclaims_top_free() {
        let mut a = Allocator::new(0, 4096);
        let p = a.alloc(2048).unwrap();
        a.free(p).unwrap();
        a.consolidate();
        // top returned to base: full capacity available again
        let q = a.alloc(4000).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn find_containing_locates_interior_pointers() {
        let mut a = Allocator::new(0x1000, 4096);
        let p = a.alloc(100).unwrap();
        assert_eq!(a.find_containing(p + 50), Some((p, Allocator::round(100))));
        assert_eq!(a.find_containing(p + 200), None);
    }

    #[test]
    fn stats_track_usage() {
        let mut a = Allocator::new(0, 4096);
        let p = a.alloc(100).unwrap();
        assert_eq!(a.stats().bytes_in_use, Allocator::round(100));
        let q = a.alloc(60).unwrap();
        let peak = a.stats().bytes_in_use;
        a.free(p).unwrap();
        a.free(q).unwrap();
        assert_eq!(a.stats().bytes_in_use, 0);
        assert_eq!(a.stats().peak_bytes, peak);
        assert_eq!(a.stats().allocs, 2);
        assert_eq!(a.stats().frees, 2);
    }

    proptest! {
        /// Random alloc/free interleavings keep all invariants.
        #[test]
        fn random_workload_maintains_invariants(ops in proptest::collection::vec((0u8..2, 1u64..600), 1..200)) {
            let mut a = Allocator::new(0x4000, 1 << 16);
            let mut live: Vec<u64> = Vec::new();
            for (op, n) in ops {
                if op == 0 || live.is_empty() {
                    if let Some(p) = a.alloc(n) {
                        prop_assert!(a.contains(p));
                        live.push(p);
                    }
                } else {
                    let idx = (n as usize) % live.len();
                    let p = live.swap_remove(idx);
                    prop_assert!(a.free(p).is_ok());
                }
            }
            prop_assert!(a.check_invariants().is_ok(), "{:?}", a.check_invariants());
            // Every live pointer is still resolvable.
            for p in live {
                prop_assert!(a.allocated_size(p).is_some());
            }
        }

        /// Allocations never overlap, under any interleaving.
        #[test]
        fn no_overlap_property(sizes in proptest::collection::vec(1u64..300, 1..60)) {
            let mut a = Allocator::new(0, 1 << 16);
            let mut spans: Vec<(u64, u64)> = Vec::new();
            for s in sizes {
                if let Some(p) = a.alloc(s) {
                    spans.push((p, Allocator::round(s)));
                }
            }
            spans.sort();
            for w in spans.windows(2) {
                prop_assert!(w[0].0 + w[0].1 <= w[1].0);
            }
        }
    }
}
