//! Regression tests pinning [`Memory`]'s resident-page accounting.
//!
//! `resident_bytes` feeds the execution profile's peak-footprint numbers
//! and the server scenario's `peak_resident_bytes`; the audit invariant
//! is that a page is counted exactly once — when it is first mapped in
//! `page_mut` — no matter how many times or through which write path
//! (scalar, bulk, or overlapping mixes of both) it is touched again.

use pythia_vm::{Memory, NULL_GUARD, PAGE_SIZE};

/// A convenient mapped base away from the null guard, page-aligned.
fn base() -> u64 {
    (NULL_GUARD / PAGE_SIZE + 4) * PAGE_SIZE
}

#[test]
fn repeated_scalar_writes_count_a_page_once() {
    let mut m = Memory::new();
    assert_eq!(m.resident_pages(), 0);
    assert_eq!(m.resident_bytes(), 0);
    for i in 0..100 {
        m.write_scalar(base() + (i % 16) * 8, 8, i as i64).unwrap();
    }
    assert_eq!(m.resident_pages(), 1);
    assert_eq!(m.resident_bytes(), PAGE_SIZE);
}

#[test]
fn bulk_write_then_overlapping_scalars_do_not_double_count() {
    let mut m = Memory::new();
    // A bulk write spanning three pages, starting mid-page.
    let a = base() + PAGE_SIZE / 2;
    let blob = vec![0xA5u8; 2 * PAGE_SIZE as usize];
    m.write_bytes(a, &blob).unwrap();
    assert_eq!(m.resident_pages(), 3, "bulk write maps 3 pages");
    // Scalar stores over every page the bulk write already mapped, plus
    // re-running the identical bulk write, must not move the count.
    for p in 0..3 {
        m.write_scalar(base() + p * PAGE_SIZE + 8, 8, -1).unwrap();
    }
    m.write_bytes(a, &blob).unwrap();
    assert_eq!(m.resident_pages(), 3, "re-touching mapped pages is free");
    assert_eq!(m.resident_bytes(), 3 * PAGE_SIZE);
}

#[test]
fn reads_never_map_pages() {
    let mut m = Memory::new();
    // Reads of unwritten-but-valid memory return zeroes without mapping.
    assert_eq!(m.read_scalar(base(), 8).unwrap(), 0);
    assert_eq!(
        m.read_bytes(base(), 3 * PAGE_SIZE).unwrap(),
        vec![0u8; 3 * PAGE_SIZE as usize]
    );
    assert_eq!(m.resident_pages(), 0);
    // One byte written: exactly one page, and reading it back (plus its
    // unmapped neighbours) still maps nothing new.
    m.write_u8(base() + PAGE_SIZE - 1, 7).unwrap();
    assert_eq!(m.read_u8(base() + PAGE_SIZE - 1).unwrap(), 7);
    assert_eq!(
        m.read_bytes(base() - PAGE_SIZE, 3 * PAGE_SIZE)
            .unwrap()
            .len(),
        3 * PAGE_SIZE as usize
    );
    assert_eq!(m.resident_pages(), 1);
}

#[test]
fn resident_matches_distinct_pages_touched_under_mixed_churn() {
    let mut m = Memory::new();
    // Deterministic pseudo-random mixed write pattern; recount the truth
    // independently as the set of distinct page numbers touched.
    let mut touched = std::collections::HashSet::new();
    let mut x = 0x9E37_79B9u64;
    for _ in 0..500 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = base() + (x >> 33) % (64 * PAGE_SIZE);
        if x & 1 == 0 {
            let len = 1 + (x >> 8) % 300;
            m.write_bytes(addr, &vec![x as u8; len as usize]).unwrap();
            for a in (addr..addr + len).step_by(1) {
                touched.insert(a / PAGE_SIZE);
            }
        } else {
            m.write_scalar(addr & !7, 8, x as i64).unwrap();
            touched.insert((addr & !7) / PAGE_SIZE);
        }
    }
    assert_eq!(m.resident_pages(), touched.len());
    assert_eq!(m.resident_bytes(), touched.len() as u64 * PAGE_SIZE);
}
