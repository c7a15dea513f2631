//! # pythia-bench — the evaluation harness
//!
//! [`experiments`] regenerates every table and figure of the paper's
//! evaluation section (the mapping is DESIGN.md §4); [`table`] is the tiny
//! text-table renderer it prints with, and [`pool`] is the one worker pool
//! every multi-threaded section runs on. The `reproduce` binary drives it:
//!
//! ```text
//! cargo run -p pythia-bench --release --bin reproduce            # everything
//! cargo run -p pythia-bench --release --bin reproduce -- fig4a   # one section
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod pool;
pub mod server;
pub mod table;

pub use server::{run_server_scenario, SchemeServerRun, ServerScenarioRun, ServerScenarioSpec};
