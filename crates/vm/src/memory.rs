//! Sparse, page-backed simulated memory with a 40-bit virtual address
//! space (little-endian, matching the workspace machine model).

use std::collections::HashMap;
use std::fmt;

/// Page size for the sparse backing store.
pub const PAGE_SIZE: u64 = 4096;

/// Virtual address width in bits (the PAC lives above this).
pub const VA_BITS: u32 = 40;

/// Lowest mappable address — the null page always faults.
pub const NULL_GUARD: u64 = 0x1000;

/// Memory layout constants shared by the whole VM.
pub mod layout {
    /// Base address where module globals are placed.
    pub const GLOBALS_BASE: u64 = 0x0010_0000;
    /// Base of the (upward-growing) stack region.
    pub const STACK_BASE: u64 = 0x0070_0000_0000;
    /// Stack region capacity.
    pub const STACK_SIZE: u64 = 64 << 20;
    /// Base of the heap region (the sectioned heap carves this up).
    pub const HEAP_BASE: u64 = 0x0010_0000_0000;
}

/// A faulting memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFault {
    /// The offending address.
    pub addr: u64,
    /// Whether the access was a write.
    pub write: bool,
}

impl fmt::Display for MemoryFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault: {} at {:#x}",
            if self.write { "write" } else { "read" },
            self.addr
        )
    }
}

impl std::error::Error for MemoryFault {}

/// A failed scalar access: either an ordinary [`MemoryFault`] or a request
/// for an access width the machine model does not support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// The access faulted (null page, beyond the VA width, address-space
    /// wrap-around).
    Fault(MemoryFault),
    /// The requested scalar width is not one of 1, 2, 4 or 8 bytes.
    UnsupportedScalarSize {
        /// The address of the rejected access.
        addr: u64,
        /// The unsupported width.
        size: u64,
    },
}

impl From<MemoryFault> for MemoryError {
    fn from(f: MemoryFault) -> Self {
        MemoryError::Fault(f)
    }
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::Fault(fault) => fault.fmt(f),
            MemoryError::UnsupportedScalarSize { addr, size } => {
                write!(f, "unsupported scalar size {size} at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// Deterministic single-`u64`-key hasher (splitmix64 finalizer). The
/// interpreter does one shadow-granule lookup per DFI-checked access;
/// SipHash would dominate that cost. Maps keyed with it are only ever
/// point-queried or counted — never iterated — so hash order is
/// unobservable.
#[derive(Default)]
pub struct FastKeyHasher(u64);

impl std::hash::Hasher for FastKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-u64 keys (unused by the VM's maps).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

/// A `u64`-keyed hash map using [`FastKeyHasher`].
pub type FastMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<FastKeyHasher>>;

/// One 4 KiB backing page.
type Page = Box<[u8; PAGE_SIZE as usize]>;

/// Index bits of a radix node below the root: 512 slots of 8 bytes make
/// each node 4 KiB.
const NODE_BITS: u32 = 9;
const NODE_LEN: usize = 1 << NODE_BITS;
/// Root slots: the rest of the 28-bit page number indexes the root.
const ROOT_LEN: usize = 1 << (VA_BITS - PAGE_SIZE.trailing_zeros() - 2 * NODE_BITS);

/// A radix node below the root.
type Node<T> = Box<[Option<T>; NODE_LEN]>;
/// 512 pages: 2 MiB of VA.
type Leaf = Node<Page>;
/// 512 leaves: 1 GiB of VA.
type Mid = Node<Leaf>;

fn empty_node<T>() -> Node<T> {
    Box::new([const { None }; NODE_LEN])
}

/// Sparse byte-addressable memory.
///
/// Pages hang off a three-level radix table (10/9/9 bits of the page
/// number) indexed directly by page number: the interpreter does one
/// page translation per load/store, and three dependent indexed loads
/// beat any hash. Only the 8 KiB root is built with the memory; every
/// other node is allocated on first touch, so a fresh `Memory` costs
/// what its run touches: two 4 KiB nodes per touched region.
#[derive(Debug, Clone)]
pub struct Memory {
    root: Box<[Option<Mid>; ROOT_LEN]>,
    resident: u64,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            root: Box::new([const { None }; ROOT_LEN]),
            resident: 0,
        }
    }
}

impl Memory {
    /// Fresh, fully-unmapped memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// The page backing `pn`, if it has been written.
    #[inline]
    fn page(&self, pn: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        let pn = pn as usize;
        let mid = self.root[pn >> (2 * NODE_BITS)].as_ref()?;
        let leaf = mid[(pn >> NODE_BITS) & (NODE_LEN - 1)].as_ref()?;
        leaf[pn & (NODE_LEN - 1)].as_deref()
    }

    /// The page backing `pn`, mapped in (zeroed) on first touch.
    #[inline]
    fn page_mut(&mut self, pn: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let pn = pn as usize;
        let mid = self.root[pn >> (2 * NODE_BITS)].get_or_insert_with(empty_node);
        let leaf = mid[(pn >> NODE_BITS) & (NODE_LEN - 1)].get_or_insert_with(empty_node);
        let slot = &mut leaf[pn & (NODE_LEN - 1)];
        if slot.is_none() {
            *slot = Some(Box::new([0u8; PAGE_SIZE as usize]));
            self.resident += 1;
        }
        slot.as_deref_mut().expect("page just mapped")
    }

    /// Radix nodes allocated below the root.
    #[cfg(test)]
    fn allocated_nodes(&self) -> usize {
        self.root
            .iter()
            .flatten()
            .map(|mid| 1 + mid.iter().flatten().count())
            .sum()
    }

    fn check(addr: u64, write: bool) -> Result<(), MemoryFault> {
        if !(NULL_GUARD..(1 << VA_BITS)).contains(&addr) {
            Err(MemoryFault { addr, write })
        } else {
            Ok(())
        }
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// Faults on the null page or beyond the VA width. Unwritten (but
    /// valid) addresses read as zero.
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemoryFault> {
        Self::check(addr, false)?;
        Ok(self
            .page(addr / PAGE_SIZE)
            .map(|p| p[(addr % PAGE_SIZE) as usize])
            .unwrap_or(0))
    }

    /// Write one byte.
    ///
    /// # Errors
    ///
    /// Faults on the null page or beyond the VA width.
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), MemoryFault> {
        Self::check(addr, true)?;
        self.page_mut(addr / PAGE_SIZE)[(addr % PAGE_SIZE) as usize] = value;
        Ok(())
    }

    /// Read `n` bytes.
    ///
    /// # Errors
    ///
    /// Faults if any byte faults; an address-space wrap-around faults at the
    /// wrapping byte instead of overflowing.
    pub fn read_bytes(&self, addr: u64, n: u64) -> Result<Vec<u8>, MemoryFault> {
        // Page-chunked: one map lookup per page instead of per byte. The
        // valid address range is contiguous, so the byte-wise semantics
        // — bytes up to the first invalid address are produced, then the
        // fault carries that address — reduce to a prefix copy. (The
        // fault address never overflows: it is at most `1 << VA_BITS`.)
        let valid = if (NULL_GUARD..(1 << VA_BITS)).contains(&addr) {
            n.min((1 << VA_BITS) - addr)
        } else {
            0
        };
        let mut out = Vec::with_capacity(valid.min(PAGE_SIZE) as usize);
        let mut i = 0u64;
        while i < valid {
            let a = addr + i;
            let off = (a % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min((valid - i) as usize);
            match self.page(a / PAGE_SIZE) {
                Some(p) => out.extend_from_slice(&p[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
            i += take as u64;
        }
        if valid < n {
            return Err(MemoryFault {
                addr: addr + valid,
                write: false,
            });
        }
        Ok(out)
    }

    /// Write a byte slice.
    ///
    /// # Errors
    ///
    /// Faults if any byte faults; bytes before the fault stay written
    /// (overflows really corrupt memory up to the fault point).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemoryFault> {
        // Page-chunked mirror of [`Memory::read_bytes`]: the valid
        // prefix really lands (overflows corrupt memory up to the fault
        // point), then the first invalid address faults.
        let n = bytes.len() as u64;
        let valid = if (NULL_GUARD..(1 << VA_BITS)).contains(&addr) {
            n.min((1 << VA_BITS) - addr)
        } else {
            0
        };
        let mut i = 0u64;
        while i < valid {
            let a = addr + i;
            let off = (a % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min((valid - i) as usize);
            let slot = self.page_mut(a / PAGE_SIZE);
            slot[off..off + take].copy_from_slice(&bytes[i as usize..i as usize + take]);
            i += take as u64;
        }
        if valid < n {
            return Err(MemoryFault {
                addr: addr + valid,
                write: true,
            });
        }
        Ok(())
    }

    /// Read a little-endian scalar of `size` bytes (1/2/4/8), sign-preserved
    /// into an `i64`.
    ///
    /// # Errors
    ///
    /// Rejects unsupported sizes *before* touching memory (symmetric with
    /// [`Memory::write_scalar`]), then faults like [`Memory::read_u8`].
    pub fn read_scalar(&self, addr: u64, size: u64) -> Result<i64, MemoryError> {
        if !matches!(size, 1 | 2 | 4 | 8) {
            return Err(MemoryError::UnsupportedScalarSize { addr, size });
        }
        // Fast path (the interpreter's per-load route): in-range and
        // within one page — a single lookup, no intermediate Vec.
        let off = addr % PAGE_SIZE;
        if (NULL_GUARD..(1 << VA_BITS) - 8).contains(&addr) && off + size <= PAGE_SIZE {
            let Some(p) = self.page(addr / PAGE_SIZE) else {
                return Ok(0);
            };
            // One fixed-width load per size: a copy of `size` bytes
            // would be a `memcpy` call on every interpreted load.
            let o = off as usize;
            return Ok(match size {
                1 => i64::from(p[o] as i8),
                2 => i64::from(i16::from_le_bytes([p[o], p[o + 1]])),
                4 => i64::from(i32::from_le_bytes(p[o..o + 4].try_into().expect("4 bytes"))),
                _ => i64::from_le_bytes(p[o..o + 8].try_into().expect("8 bytes")),
            });
        }
        let bytes = self.read_bytes(addr, size)?;
        let mut v: u64 = 0;
        for (i, b) in bytes.iter().enumerate() {
            v |= (*b as u64) << (8 * i);
        }
        Ok(Self::sign_extend(v, size))
    }

    /// Sign-preserve a `size`-byte little-endian value into an `i64`.
    fn sign_extend(v: u64, size: u64) -> i64 {
        match size {
            1 => v as u8 as i8 as i64,
            2 => v as u16 as i16 as i64,
            4 => v as u32 as i32 as i64,
            _ => v as i64,
        }
    }

    /// Write a little-endian scalar of `size` bytes.
    ///
    /// # Errors
    ///
    /// Rejects unsupported sizes *before* touching memory (symmetric with
    /// [`Memory::read_scalar`]), then faults like [`Memory::write_u8`].
    pub fn write_scalar(&mut self, addr: u64, size: u64, value: i64) -> Result<(), MemoryError> {
        if !matches!(size, 1 | 2 | 4 | 8) {
            return Err(MemoryError::UnsupportedScalarSize { addr, size });
        }
        let v = value as u64;
        // Fast path mirror of [`Memory::read_scalar`]: one map entry.
        let off = addr % PAGE_SIZE;
        if (NULL_GUARD..(1 << VA_BITS) - 8).contains(&addr) && off + size <= PAGE_SIZE {
            let p = self.page_mut(addr / PAGE_SIZE);
            // Fixed-width stores, for the same reason as in `read_scalar`.
            let o = off as usize;
            match size {
                1 => p[o] = v as u8,
                2 => p[o..o + 2].copy_from_slice(&(v as u16).to_le_bytes()),
                4 => p[o..o + 4].copy_from_slice(&(v as u32).to_le_bytes()),
                _ => p[o..o + 8].copy_from_slice(&v.to_le_bytes()),
            }
            return Ok(());
        }
        self.write_bytes(addr, &v.to_le_bytes()[..size as usize])?;
        Ok(())
    }

    /// Read a NUL-terminated C string starting at `addr`, capped at `max`.
    ///
    /// # Errors
    ///
    /// Faults like [`Memory::read_u8`].
    pub fn read_cstr(&self, addr: u64, max: u64) -> Result<Vec<u8>, MemoryFault> {
        let mut out = Vec::new();
        for i in 0..max {
            let a = addr.checked_add(i).ok_or(MemoryFault {
                addr: u64::MAX,
                write: false,
            })?;
            let b = self.read_u8(a)?;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(out)
    }

    /// Number of resident pages (for memory accounting in tests).
    pub fn resident_pages(&self) -> usize {
        self.resident as usize
    }

    /// Bytes of simulated memory touched so far (page granularity) — the
    /// run's resident footprint, reported by the execution profile.
    pub fn resident_bytes(&self) -> u64 {
        self.resident * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0x5000).unwrap(), 0);
        assert_eq!(m.read_scalar(0x5000, 8).unwrap(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = Memory::new();
        m.write_scalar(0x5000, 8, -42).unwrap();
        assert_eq!(m.read_scalar(0x5000, 8).unwrap(), -42);
        m.write_scalar(0x5010, 1, 0xff).unwrap();
        assert_eq!(m.read_scalar(0x5010, 1).unwrap(), -1);
        m.write_scalar(0x5020, 4, i64::from(i32::MIN)).unwrap();
        assert_eq!(m.read_scalar(0x5020, 4).unwrap(), i64::from(i32::MIN));
    }

    #[test]
    fn null_page_faults() {
        let mut m = Memory::new();
        assert!(m.read_u8(0).is_err());
        assert!(m.read_u8(0xfff).is_err());
        assert!(m.write_u8(0x10, 1).is_err());
        assert!(m.read_u8(0x1000).is_ok());
    }

    #[test]
    fn beyond_va_faults() {
        let mut m = Memory::new();
        let too_high = 1u64 << VA_BITS;
        assert!(m.read_u8(too_high).is_err());
        assert!(m.write_u8(too_high, 1).is_err());
        assert!(m.write_u8(too_high - 1, 1).is_ok());
    }

    #[test]
    fn cross_page_bytes() {
        let mut m = Memory::new();
        let addr = 2 * PAGE_SIZE - 3;
        m.write_bytes(addr, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(m.read_bytes(addr, 6).unwrap(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn cstr_stops_at_nul_or_cap() {
        let mut m = Memory::new();
        m.write_bytes(0x6000, b"admin\0junk").unwrap();
        assert_eq!(m.read_cstr(0x6000, 64).unwrap(), b"admin");
        assert_eq!(m.read_cstr(0x6000, 3).unwrap(), b"adm");
    }

    #[test]
    fn partial_write_before_fault_persists() {
        let mut m = Memory::new();
        let edge = (1u64 << VA_BITS) - 2;
        // two bytes fit, the third faults
        assert!(m.write_bytes(edge, &[7, 8, 9]).is_err());
        assert_eq!(m.read_u8(edge).unwrap(), 7);
        assert_eq!(m.read_u8(edge + 1).unwrap(), 8);
    }

    #[test]
    fn unsupported_sizes_rejected_before_any_access() {
        let mut m = Memory::new();
        for size in [0, 3, 5, 6, 7, 9, 16] {
            assert_eq!(
                m.read_scalar(0x5000, size),
                Err(MemoryError::UnsupportedScalarSize { addr: 0x5000, size })
            );
            assert_eq!(
                m.write_scalar(0x5000, size, 0x77),
                Err(MemoryError::UnsupportedScalarSize { addr: 0x5000, size })
            );
        }
        // Symmetry: the rejected write touched nothing.
        assert_eq!(m.read_bytes(0x5000, 8).unwrap(), vec![0; 8]);
        assert_eq!(m.resident_pages(), 0);
        // Even a faulting address reports the size problem first, both ways.
        assert_eq!(
            m.read_scalar(0, 3),
            Err(MemoryError::UnsupportedScalarSize { addr: 0, size: 3 })
        );
        assert_eq!(
            m.write_scalar(0, 3, 1),
            Err(MemoryError::UnsupportedScalarSize { addr: 0, size: 3 })
        );
    }

    #[test]
    fn address_space_wraparound_faults_cleanly() {
        // Near u64::MAX the `addr + i` arithmetic used to overflow in debug
        // builds; now every path faults with a typed error instead.
        let mut m = Memory::new();
        let top = u64::MAX - 2;
        assert_eq!(
            m.read_bytes(top, 8),
            Err(MemoryFault {
                addr: top,
                write: false
            })
        );
        assert!(m.write_bytes(top, &[1; 8]).is_err());
        assert!(m.read_scalar(top, 8).is_err());
        assert!(m.write_scalar(top, 8, -1).is_err());
        assert!(m.read_cstr(top, 16).is_err());
        // And at the very top, the wrap itself is the fault.
        assert!(m.read_bytes(u64::MAX, 2).is_err());
    }

    #[test]
    fn fresh_memory_allocates_no_node() {
        let mut m = Memory::new();
        assert_eq!(m.allocated_nodes(), 0);
        // One page in each VM region: a mid node and a leaf apiece.
        for base in [layout::GLOBALS_BASE, layout::STACK_BASE, layout::HEAP_BASE] {
            m.write_scalar(base, 8, 1).unwrap();
        }
        assert_eq!(m.allocated_nodes(), 6);
        assert_eq!(m.resident_pages(), 3);
        // Reads never allocate.
        assert_eq!(m.read_scalar(layout::HEAP_BASE + (1 << 30), 8).unwrap(), 0);
        assert_eq!(m.allocated_nodes(), 6);
    }

    #[test]
    fn accesses_straddle_radix_node_boundaries() {
        // A leaf spans 2 MiB of VA and a mid node 1 GiB.
        for edge in [2u64 << 20, 6 << 20, 1 << 30, 5 << 30] {
            let mut m = Memory::new();
            m.write_scalar(edge - 4, 8, 0x0807_0605_0403_0201).unwrap();
            assert_eq!(m.read_scalar(edge - 4, 8).unwrap(), 0x0807_0605_0403_0201);
            assert_eq!(m.read_u8(edge - 1).unwrap(), 4);
            assert_eq!(m.read_u8(edge).unwrap(), 5);
            assert_eq!(m.read_scalar(edge, 4).unwrap(), 0x0807_0605);
            assert_eq!(m.resident_pages(), 2, "edge {edge:#x}");
            let bytes: Vec<u8> = (0..=255).collect();
            m.write_bytes(edge - 100, &bytes).unwrap();
            assert_eq!(m.read_bytes(edge - 100, 256).unwrap(), bytes);
            assert_eq!(m.resident_pages(), 2, "edge {edge:#x}");
        }
    }

    #[test]
    fn accesses_at_the_ends_of_the_address_space() {
        let mut m = Memory::new();
        m.write_scalar(NULL_GUARD, 8, -7).unwrap();
        assert_eq!(m.read_scalar(NULL_GUARD, 8).unwrap(), -7);
        m.write_bytes(NULL_GUARD + 8, b"low").unwrap();
        assert_eq!(
            m.read_bytes(NULL_GUARD + 5, 6).unwrap(),
            [255, 255, 255, b'l', b'o', b'w']
        );
        assert!(m.write_bytes(NULL_GUARD - 4, &[1; 8]).is_err());
        assert_eq!(m.read_scalar(NULL_GUARD, 4).unwrap(), -7);
        assert_eq!(m.resident_pages(), 1);

        let top = 1u64 << VA_BITS;
        m.write_scalar(top - 8, 8, i64::MIN + 3).unwrap();
        assert_eq!(m.read_scalar(top - 8, 8).unwrap(), i64::MIN + 3);
        m.write_scalar(top - 1, 1, 0x5a).unwrap();
        assert_eq!(m.read_scalar(top - 1, 1).unwrap(), 0x5a);
        assert_eq!(m.read_bytes(top - 2, 2).unwrap(), [0, 0x5a]);
        assert_eq!(
            m.write_bytes(top - 1, b"xy"),
            Err(MemoryFault {
                addr: top,
                write: true
            })
        );
        assert_eq!(m.read_u8(top - 1).unwrap(), b'x');
        assert!(m.read_scalar(top - 1, 2).is_err());
        assert_eq!(m.resident_pages(), 2);
    }

    mod scalar_roundtrip_props {
        use super::*;
        use proptest::prelude::*;

        fn size_strategy() -> impl Strategy<Value = u64> {
            (0u32..4).prop_map(|i| 1u64 << i)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Round-trips in the last valid page below the VA_BITS edge:
            // any in-bounds scalar survives, any scalar crossing the edge
            // faults without panicking.
            #[test]
            fn va_edge_roundtrip(off in 0u64..2 * PAGE_SIZE, size in size_strategy(), val in i64::MIN..i64::MAX) {
                let edge = 1u64 << VA_BITS;
                let addr = edge - 2 * PAGE_SIZE + off;
                let mut m = Memory::new();
                if addr + size <= edge {
                    m.write_scalar(addr, size, val).unwrap();
                    let bits = 8 * size as u32;
                    let expect = if bits == 64 { val } else { (val << (64 - bits)) >> (64 - bits) };
                    prop_assert_eq!(m.read_scalar(addr, size).unwrap(), expect);
                } else {
                    prop_assert!(m.write_scalar(addr, size, val).is_err());
                    prop_assert!(m.read_scalar(addr, size).is_err());
                }
            }
        }
    }
}
