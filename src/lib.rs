//! # pythia — reproduction of "Pythia: Compiler-Guided Defense Against
//! Non-Control Data Attacks" (ASPLOS 2024)
//!
//! This umbrella crate re-exports the whole workspace so that examples and
//! downstream users need a single dependency:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`ir`] | `pythia-ir` | the PIR intermediate representation |
//! | [`analysis`] | `pythia-analysis` | slicing, points-to, vulnerability classification |
//! | [`pa`] | `pythia-pa` | software ARM Pointer Authentication |
//! | [`heap`] | `pythia-heap` | glibc-style allocator + sectioned heap |
//! | [`vm`] | `pythia-vm` | the executable machine & attacker model |
//! | [`passes`] | `pythia-passes` | CPA / Pythia / DFI instrumentation |
//! | [`lint`] | `pythia-lint` | static certification of instrumented modules |
//! | [`workloads`] | `pythia-workloads` | SPEC-like benchmarks, Listings 1–3, nginx-sim |
//! | [`core`] | `pythia-core` | the analyze→instrument→execute pipeline |
//! | [`profile`] | `pythia-vm` | execution observability: opcode/PA/heap profiles |
//!
//! # Examples
//!
//! Protect a vulnerable program and watch the attack get caught:
//!
//! ```
//! use pythia::core::{adjudicate, RunConfig, Scheme};
//! use pythia::workloads::all_scenarios;
//!
//! let scenario = &all_scenarios()[0]; // paper Listing 1
//! let cfg = RunConfig::default();
//!
//! let unprotected = adjudicate(scenario, Scheme::Vanilla, &cfg).unwrap();
//! assert!(unprotected.bent, "the attack bends the unprotected branch");
//!
//! let protected = adjudicate(scenario, Scheme::Pythia, &cfg).unwrap();
//! assert!(protected.defense_succeeded(), "Pythia detects it");
//! ```

#![warn(missing_docs)]

pub use pythia_analysis as analysis;
pub use pythia_core as core;
pub use pythia_heap as heap;
pub use pythia_ir as ir;
pub use pythia_lint as lint;
pub use pythia_pa as pa;
pub use pythia_passes as passes;
pub use pythia_vm as vm;
pub use pythia_vm::profile;
pub use pythia_workloads as workloads;
