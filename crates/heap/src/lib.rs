//! # pythia-heap — allocation substrate
//!
//! The paper's heap defense (§4.3, Alg. 4) needs two allocators: a
//! glibc-flavoured `malloc` ([`Allocator`]) and Pythia's *sectioned*
//! variant ([`SectionedHeap`]) that places vulnerable allocations in an
//! isolated address range which shared-section overflows cannot reach.
//!
//! # Examples
//!
//! ```
//! use pythia_heap::{SectionedHeap, Section};
//!
//! let mut heap = SectionedHeap::default();
//! let ordinary = heap.alloc(Section::Shared, 256).unwrap();
//! let vulnerable = heap.alloc(Section::Isolated, 64).unwrap();
//!
//! // The sectioning guarantee: a shared-object overflow cannot reach the
//! // isolated section.
//! assert!(!heap.overflow_reaches_isolated(ordinary, 4096));
//! assert_eq!(heap.section_of(vulnerable), Some(Section::Isolated));
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod section;

pub use alloc::{AllocStats, Allocator, FreeError, FASTBIN_MAX, GRANULE};
pub use section::{Section, SectionedHeap, ISOLATED_CAPACITY, SHARED_CAPACITY};
