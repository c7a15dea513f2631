//! One bad benchmark must not take the suite down with it.
//!
//! The worker pool isolates each evaluation's panics and records a
//! typed [`PythiaError`] per failed slot, so a module that fails
//! verification (or a worker that panics) yields exactly one error entry
//! while every other benchmark still evaluates — in the same order, with
//! the same results, as a clean run.

use pythia_bench::experiments as exp;
use pythia_core::{Engine, RunConfig};
use pythia_ir::{FunctionBuilder, Module, Ty};
use pythia_workloads::{generate_scaled, SPEC_PROFILES};

/// A module whose entry block is empty: verification rejects it before
/// the VM ever sees it.
fn unverifiable(name: &str) -> Module {
    let mut m = Module::new(name);
    let b = FunctionBuilder::new("main", vec![], Ty::I64);
    m.add_function(b.finish());
    m
}

/// The default run configuration on `threads` workers.
fn on(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        ..RunConfig::default()
    }
}

/// The full SPEC-like suite, scaled down for test speed, with the module
/// in slot `poison` (if any) replaced by an unverifiable one.
fn suite_modules(poison: Option<usize>) -> Vec<(String, Module, u64)> {
    SPEC_PROFILES
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let module = if poison == Some(i) {
                unverifiable(p.name)
            } else {
                generate_scaled(p, 0.25)
            };
            (p.name.to_owned(), module, p.seed)
        })
        .collect()
}

#[test]
fn suite_survives_one_bad_benchmark() {
    let poison = SPEC_PROFILES.len() / 2;
    let suite = exp::evaluate_modules(suite_modules(Some(poison)), &on(4));
    assert_eq!(suite.len(), SPEC_PROFILES.len(), "no slot may vanish");

    // Slot order is byte-identical to the profile table, failure or not.
    for (entry, p) in suite.iter().zip(SPEC_PROFILES.iter()) {
        assert_eq!(entry.name, p.name);
    }

    // Exactly the poisoned slot failed, with a typed setup error —
    // never a panic, never an internal error.
    for (i, entry) in suite.iter().enumerate() {
        if i == poison {
            let err = entry.error().expect("poisoned slot must fail");
            assert_eq!(err.variant(), "setup", "verification failure: {err}");
            assert!(!err.is_internal());
        } else {
            assert!(
                entry.evaluation().is_some(),
                "`{}` must survive the bad benchmark: {:?}",
                entry.name,
                entry.error()
            );
        }
    }
    assert_eq!(exp::ok_evaluations(&suite).len(), SPEC_PROFILES.len() - 1);
}

#[test]
fn failure_slots_are_deterministic_across_worker_counts() {
    let poison = 2;
    let serial = exp::evaluate_modules(suite_modules(Some(poison)), &on(1));
    let parallel = exp::evaluate_modules(suite_modules(Some(poison)), &on(4));
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.name, b.name, "slot order must not depend on workers");
        assert_eq!(
            a.outcome.is_ok(),
            b.outcome.is_ok(),
            "{}: health must not depend on workers",
            a.name
        );
    }
    // The survivors' evaluations are identical too.
    let ea = exp::ok_evaluations(&serial);
    let eb = exp::ok_evaluations(&parallel);
    assert_eq!(ea.len(), eb.len());
    for (a, b) in ea.iter().zip(&eb) {
        assert_eq!(a.analysis, b.analysis, "{}: analysis differs", a.name);
    }
}

#[test]
fn report_renders_around_the_failure() {
    let suite = exp::evaluate_modules(suite_modules(Some(0)), &on(4));
    let errors = exp::errors_section(&suite);
    assert!(
        errors.contains("1 of") && errors.contains(SPEC_PROFILES[0].name),
        "error section must name the failed benchmark:\n{errors}"
    );
    // The figure still renders from the survivors.
    let evals = exp::ok_evaluations(&suite);
    let fig = exp::fig4a(&evals);
    assert!(!fig.contains(SPEC_PROFILES[0].name));
    assert!(fig.contains(SPEC_PROFILES[1].name));

    // A clean suite renders no error section at all.
    let clean = exp::evaluate_modules(suite_modules(None), &on(4));
    assert!(exp::errors_section(&clean).is_empty());
}

#[test]
fn bench_json_carries_per_benchmark_status() {
    let suite = exp::evaluate_modules(suite_modules(Some(1)), &on(2));
    let timing = exp::SuiteTiming {
        threads: 2,
        total_secs: 0.0,
    };
    let json = exp::bench_json(&suite, &timing, Engine::Block, false, false);
    assert!(json.contains("\"status\": \"ok\""));
    assert!(json.contains("\"status\": \"setup\""));
    assert!(!json.contains("\"status\": \"internal\""));
    assert!(json.contains("\"error\": "));
    // Without --lint, no lint *status* fields appear (the per-phase
    // rollup always carries the numeric lint timing).
    assert!(!json.contains("\"lint\": \""));
    assert!(!json.contains("\"lint_checks\""));
    // Without --profile, no profile block appears.
    assert!(!json.contains("\"profile\""));
}

#[test]
fn bench_json_profile_mode_embeds_scheme_profiles() {
    let suite = exp::evaluate_modules(suite_modules(Some(1)), &on(2));
    let timing = exp::SuiteTiming {
        threads: 2,
        total_secs: 0.0,
    };
    let json = exp::bench_json(&suite, &timing, Engine::Block, false, true);
    // Every ok benchmark carries the profile block with one line per
    // scheme, and the dynamic-vs-static PA cross-check holds everywhere.
    assert!(json.contains("\"profile\": {"));
    assert!(json.contains("\"memo\": {"));
    for scheme in ["vanilla", "cpa", "pythia", "dfi"] {
        assert!(
            json.contains(&format!("\"scheme\": \"{scheme}\"")),
            "missing scheme `{scheme}` in profile block"
        );
    }
    assert!(json.contains("\"pa_static_match\": true"));
    assert!(!json.contains("\"pa_static_match\": false"));
    // The lint phase is part of the per-phase rollup now.
    assert!(json.contains("\"lint\": "));
    // The human renderer agrees with the JSON and covers all 4 phases.
    let section = exp::profile_section(&suite, Engine::Block);
    for phase in ["analysis", "instrument", "lint", "execute"] {
        assert!(section.contains(phase), "profile section lacks `{phase}`");
    }
    assert!(section.contains("memo"));
}

#[test]
fn bench_json_lint_mode_records_certification_status() {
    let suite = exp::evaluate_modules(suite_modules(Some(1)), &on(2));
    let timing = exp::SuiteTiming {
        threads: 2,
        total_secs: 0.0,
    };
    let json = exp::bench_json(&suite, &timing, Engine::Block, true, false);
    // Healthy benchmarks carry their certified obligation counts; the
    // sabotaged one never reached instrumentation.
    assert!(json.contains("\"lint\": \"certified\""));
    assert!(json.contains("\"lint_checks\": "));
    assert!(json.contains("\"lint\": \"not-reached\""));
}
