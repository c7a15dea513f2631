//! # pythia-core — the library façade
//!
//! One entry point for the whole reproduction of *"Pythia: Compiler-Guided
//! Defense Against Non-Control Data Attacks"* (ASPLOS 2024):
//!
//! - [`pipeline::evaluate`] — analyze a module, instrument it with each
//!   scheme (CPA / Pythia / DFI), execute the variants, and report
//!   overheads, IPC, binary growth and the analysis facts behind
//!   Figs. 4–7;
//! - [`security::adjudicate`] — run an attack
//!   [`Scenario`](pythia_workloads::Scenario) under a scheme and classify
//!   the outcome (bent vs detected vs benign-broken);
//! - [`campaign::run_campaign`] — smash *every* input channel of a
//!   benchmark in turn and histogram what each scheme does about it.
//!
//! # Examples
//!
//! ```
//! use pythia_core::{evaluate, Scheme, VmConfig};
//! use pythia_workloads::{generate, profile_by_name};
//!
//! let module = generate(profile_by_name("lbm").unwrap());
//! let ev = evaluate(&module, &[Scheme::Pythia], 1, &VmConfig::default()).unwrap();
//! // Pythia costs something, but the program still computes the same thing.
//! assert!(ev.overhead(Scheme::Pythia) >= 0.0);
//! ```
//!
//! Every fallible entry point returns the workspace error taxonomy
//! [`PythiaError`] (`Setup` / `Fault` / `Detection` / `Internal`) instead
//! of panicking — see DESIGN.md for the classification rules.

#![warn(missing_docs)]

pub mod campaign;
pub mod pipeline;
pub mod security;

pub use campaign::{run_campaign, run_campaign_with, AttackOutcome, CampaignResult};
pub use pipeline::{
    evaluate, evaluate_with, AnalysisSummary, BenchEvaluation, Phase, PhaseSpan, RunConfig,
    SchemeResult, Timings,
};
pub use pythia_analysis::CtxPolicy;
pub use pythia_ir::{DetectionKind, ErrorContext, PythiaError};
pub use pythia_lint::{Certifier, VariantBuilder};
pub use pythia_passes::{instrument, instrument_with, InstrumentationStats, Scheme};
pub use pythia_vm::{
    DecodedModule, DetectionMechanism, Engine, ExitReason, InputPlan, Profile, RunMetrics, Vm,
    VmConfig,
};
pub use security::{adjudicate, adjudicate_all, ScenarioOutcome};
