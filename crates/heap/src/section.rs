//! The Pythia *sectioned heap* (paper §4.3, Algorithm 4).
//!
//! The program heap is split into a **shared** section (ordinary
//! allocations) and an **isolated** section (vulnerable allocations), with
//! a guard gap between them. Because the sections are disjoint address
//! ranges, an overflow that starts inside a shared object can never run
//! into an isolated object — the paper's core heap-defense property.

use crate::alloc::{AllocStats, Allocator, FreeError, GRANULE};

/// Which section an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Ordinary allocations.
    Shared,
    /// Vulnerable allocations (Pythia's `secure_malloc`).
    Isolated,
}

// The heap's one geometry: 16 MiB shared + 64 KiB guard + 4 MiB
// isolated, matching the paper's note that the isolated share is sized by
// the (small) number of vulnerable heap variables and "is scalable".
const HEAP_BASE: u64 = 0x10_0000_0000;
/// Capacity of the shared section in bytes.
pub const SHARED_CAPACITY: u64 = 16 << 20;
/// Guard gap between the sections in bytes (never mapped).
const GUARD_GAP: u64 = 64 << 10;
/// Capacity of the isolated section in bytes.
pub const ISOLATED_CAPACITY: u64 = 4 << 20;

const _: () = {
    assert!(HEAP_BASE.is_multiple_of(GRANULE) && GUARD_GAP.is_multiple_of(GRANULE));
    assert!(SHARED_CAPACITY.is_multiple_of(GRANULE));
    assert!(SHARED_CAPACITY > 0 && ISOLATED_CAPACITY > 0);
    assert!(HEAP_BASE
        .checked_add(SHARED_CAPACITY + GUARD_GAP + ISOLATED_CAPACITY)
        .is_some());
};

/// A heap split into shared and isolated sections.
#[derive(Debug, Clone)]
pub struct SectionedHeap {
    shared: Allocator,
    isolated: Allocator,
    /// Count of `heap_section_init`-style setup calls (each costs time in
    /// the VM even for programs with no vulnerable heap variables, see
    /// §6.2 "lbm/mcf incur overheads because of heap sectioning").
    init_calls: u64,
}

impl SectionedHeap {
    /// The sections `[base, base + shared)` and, after a `gap`,
    /// `isolated` bytes.
    fn with_geometry(base: u64, shared: u64, gap: u64, isolated: u64) -> Self {
        SectionedHeap {
            shared: Allocator::new(base, shared),
            isolated: Allocator::new(base + shared + gap, isolated),
            init_calls: 0,
        }
    }

    /// Record a sectioning setup call (the linked-library initialization).
    pub fn record_init_call(&mut self) {
        self.init_calls += 1;
    }

    /// Number of setup calls so far.
    pub fn init_calls(&self) -> u64 {
        self.init_calls
    }

    /// Allocate in the given section.
    pub fn alloc(&mut self, section: Section, size: u64) -> Option<u64> {
        match section {
            Section::Shared => self.shared.alloc(size),
            Section::Isolated => self.isolated.alloc(size),
        }
    }

    /// Free an allocation (the owning section is inferred from the address).
    ///
    /// # Errors
    ///
    /// [`FreeError::UnknownAddress`] for foreign/double frees.
    pub fn free(&mut self, addr: u64) -> Result<u64, FreeError> {
        match self.section_of(addr) {
            Some(Section::Shared) => self.shared.free(addr),
            Some(Section::Isolated) => self.isolated.free(addr),
            None => Err(FreeError::UnknownAddress(addr)),
        }
    }

    /// Which section an address belongs to, if any.
    pub fn section_of(&self, addr: u64) -> Option<Section> {
        if self.shared.contains(addr) {
            Some(Section::Shared)
        } else if self.isolated.contains(addr) {
            Some(Section::Isolated)
        } else {
            None
        }
    }

    /// The live allocation containing `addr` (either section).
    pub fn find_containing(&self, addr: u64) -> Option<(u64, u64)> {
        self.shared
            .find_containing(addr)
            .or_else(|| self.isolated.find_containing(addr))
    }

    /// Size of the live allocation starting at `addr`.
    pub fn allocated_size(&self, addr: u64) -> Option<u64> {
        self.shared
            .allocated_size(addr)
            .or_else(|| self.isolated.allocated_size(addr))
    }

    /// Stats for one section.
    pub fn stats(&self, section: Section) -> AllocStats {
        match section {
            Section::Shared => self.shared.stats(),
            Section::Isolated => self.isolated.stats(),
        }
    }

    /// Can an overflow of `len` bytes starting inside the allocation at
    /// `addr` reach any *isolated* allocation? Always `false` for shared
    /// addresses — that is the sectioning guarantee (the guard gap is
    /// larger than any realistic overflow; we still check).
    pub fn overflow_reaches_isolated(&self, addr: u64, len: u64) -> bool {
        match self.section_of(addr) {
            Some(Section::Isolated) => true, // already inside
            Some(Section::Shared) => addr.saturating_add(len) >= self.isolated.base(),
            None => false,
        }
    }
}

impl Default for SectionedHeap {
    fn default() -> Self {
        SectionedHeap::with_geometry(HEAP_BASE, SHARED_CAPACITY, GUARD_GAP, ISOLATED_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 KiB sections with a 4 KiB guard gap.
    fn small() -> SectionedHeap {
        SectionedHeap::with_geometry(0x1_0000, 4096, 4096, 4096)
    }

    #[test]
    fn sections_are_disjoint_ranges() {
        let mut h = small();
        let s = h.alloc(Section::Shared, 64).unwrap();
        let i = h.alloc(Section::Isolated, 64).unwrap();
        assert_eq!(h.section_of(s), Some(Section::Shared));
        assert_eq!(h.section_of(i), Some(Section::Isolated));
        assert!(i >= s + 4096 + 4096, "guard gap must separate sections");
    }

    #[test]
    fn free_routes_by_address() {
        let mut h = small();
        let s = h.alloc(Section::Shared, 64).unwrap();
        let i = h.alloc(Section::Isolated, 64).unwrap();
        assert!(h.free(s).is_ok());
        assert!(h.free(i).is_ok());
        assert!(h.free(0xdead_0000).is_err());
        assert_eq!(h.stats(Section::Shared).frees, 1);
        assert_eq!(h.stats(Section::Isolated).frees, 1);
    }

    #[test]
    fn shared_overflow_cannot_reach_isolated() {
        let mut h = small();
        let s = h.alloc(Section::Shared, 64).unwrap();
        let _v = h.alloc(Section::Isolated, 64).unwrap();
        // Even a 4 KiB overflow from the shared chunk stays short of the
        // isolated base thanks to the guard gap.
        assert!(!h.overflow_reaches_isolated(s, 4096));
        // An absurdly long write eventually would — the predicate reports it.
        assert!(h.overflow_reaches_isolated(s, 1 << 20));
    }

    #[test]
    fn isolated_exhaustion_does_not_touch_shared() {
        let mut h = small();
        while h.alloc(Section::Isolated, 512).is_some() {}
        // Shared still serves.
        assert!(h.alloc(Section::Shared, 512).is_some());
        assert!(h.stats(Section::Isolated).failures > 0);
        assert_eq!(h.stats(Section::Shared).failures, 0);
    }

    #[test]
    fn init_calls_counted() {
        let mut h = small();
        assert_eq!(h.init_calls(), 0);
        h.record_init_call();
        h.record_init_call();
        assert_eq!(h.init_calls(), 2);
    }

    #[test]
    fn huge_alloc_requests_fail_cleanly() {
        let mut h = small();
        assert_eq!(h.alloc(Section::Shared, u64::MAX), None);
        assert_eq!(h.alloc(Section::Isolated, u64::MAX - 7), None);
        assert!(h.stats(Section::Shared).failures > 0);
    }

    #[test]
    fn find_containing_spans_sections() {
        let mut h = small();
        let s = h.alloc(Section::Shared, 100).unwrap();
        let i = h.alloc(Section::Isolated, 100).unwrap();
        assert_eq!(h.find_containing(s + 10).map(|(a, _)| a), Some(s));
        assert_eq!(h.find_containing(i + 10).map(|(a, _)| a), Some(i));
        assert_eq!(h.find_containing(s + 2048), None);
    }
}
