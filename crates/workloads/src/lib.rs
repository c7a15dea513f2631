//! # pythia-workloads — the programs under evaluation
//!
//! The paper evaluates on SPEC CPU2017 C/C++ benchmarks, real-world attack
//! examples, and nginx. This crate provides executable PIR stand-ins
//! (DESIGN.md §2 records the substitution):
//!
//! - [`profiles`] + [`generator`] — 15 seeded, SPEC-shaped synthetic
//!   benchmarks whose branch/pointer/channel mixes are tuned per program;
//! - [`examples`] — the paper's Listings 1–3 as runnable attack scenarios
//!   (privilege escalation, the ProFTPd bound corruption, pointer/array
//!   dualism);
//! - [`realworld`] — the extended suite (heap-to-heap overflow,
//!   interprocedural overflow) in the spirit of Chen et al. \[15\];
//! - [`nginx`] — a request-serving server module with nginx's
//!   copy-channel-dominated profile and a multi-worker driver.
//!
//! # Examples
//!
//! ```
//! use pythia_workloads::{generator, profiles};
//! use pythia_vm::{Vm, VmConfig, InputPlan};
//!
//! let profile = profiles::profile_by_name("lbm").unwrap();
//! let module = generator::generate(profile);
//! let mut vm = Vm::new(&module, VmConfig::default(), InputPlan::benign(1));
//! let result = vm.run("main", &[]).unwrap();
//! assert!(result.exit.value().is_some());
//! ```

#![warn(missing_docs)]

pub mod examples;
pub mod generator;
pub mod nginx;
pub mod profiles;
pub mod realworld;
pub mod server;

pub use examples::{all as all_scenarios, Scenario};
pub use generator::{generate, generate_all, generate_scaled};
pub use nginx::{nginx_module, run_worker, run_workers, NginxRun};
pub use profiles::{profile_by_name, BenchProfile, SizeTier, SPEC_PROFILES};
pub use realworld::extended as extended_scenarios;
pub use server::{
    run_event_loop, server_module, EventLoopConfig, OffsetStats, ServerRunStats, ADMIN_EXIT,
    ADMIN_MAGIC, WINDOW_OFFSETS,
};
