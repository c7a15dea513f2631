//! One bad benchmark must not take the suite down with it.
//!
//! The worker pool isolates each evaluation's panics and records a
//! typed [`PythiaError`] per failed slot, so a module that fails
//! verification (or a worker that panics) yields exactly one error entry
//! while every other benchmark still evaluates — in the same order, with
//! the same results, as a clean run. The poisoned suites go through the
//! one suite entry point, [`exp::run_suite`].

use pythia_bench::experiments as exp;
use pythia_core::RunConfig;
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

/// Run the suite (slot `poison` sabotaged, if any) on `threads` workers.
fn run(poison: Option<usize>, threads: usize) -> exp::SuiteRun {
    exp::run_suite(&exp::SuiteSpec {
        selection: exp::Selection::Modules(suite_modules(poison)),
        run: on(threads),
        ..Default::default()
    })
}

#[test]
fn suite_survives_one_bad_benchmark() {
    let poison = SPEC_PROFILES.len() / 2;
    let suite = run(Some(poison), 4).entries;
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
    let serial = run(Some(poison), 1).entries;
    let parallel = run(Some(poison), 4).entries;
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
    let suite = run(Some(0), 4).entries;
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
    let clean = run(None, 4).entries;
    assert!(exp::errors_section(&clean).is_empty());
}

#[test]
fn bench_json_records_status_lint_and_profile() {
    let suite = run(Some(1), 2);
    let json = &suite.json;
    assert!(
        json.starts_with(&format!("{{\n  \"schema\": {},\n", exp::SUITE_SCHEMA)),
        "the schema version leads the document:\n{json}"
    );
    assert!(!json.contains("}}"), "each object closes once:\n{json}");
    // Per-benchmark status: the sabotaged slot is a typed setup error.
    assert!(json.contains("\"status\": \"ok\""));
    assert!(json.contains("\"status\": \"setup\""));
    assert!(!json.contains("\"status\": \"internal\""));
    assert!(json.contains("\"error\": "));
    // Healthy benchmarks carry their certified obligation counts; the
    // sabotaged one never reached instrumentation.
    assert!(json.contains("\"lint\": \"certified\""));
    assert!(json.contains("\"lint_checks\": "));
    assert!(json.contains("\"lint\": \"not-reached\""));
    // Every ok benchmark carries the profile block with one line per
    // scheme, and the dynamic-vs-static PA cross-check holds everywhere.
    let evals = exp::ok_evaluations(&suite.entries);
    let ok = evals.len();
    assert_eq!(ok, SPEC_PROFILES.len() - 1);
    assert_eq!(json.matches("\"profile\": {").count(), ok);
    assert_eq!(json.matches("\"profile\": { \"slices\": ").count(), ok);
    for ev in &evals {
        assert!(
            json.contains(&format!(
                "\"profile\": {{ \"slices\": {},",
                ev.analysis.slices
            )),
            "{} lacks its slice count",
            ev.name
        );
    }
    for scheme in ["vanilla", "cpa", "pythia", "dfi"] {
        assert_eq!(
            json.matches(&format!("\"scheme\": \"{scheme}\"")).count(),
            ok,
            "scheme `{scheme}` missing from a profile block"
        );
    }
    assert_eq!(json.matches("\"pa_static_match\": true").count(), 4 * ok);
    assert!(!json.contains("\"pa_static_match\": false"));
    // The human renderer has a row for each of the five phases and the
    // backward-slice table.
    for phase in ["analysis", "instrument", "lint", "decode", "execute"] {
        assert!(
            suite
                .profile_md
                .lines()
                .any(|l| l.split_whitespace().next() == Some(phase)),
            "profile section lacks `{phase}`:\n{}",
            suite.profile_md
        );
    }
    assert!(suite.profile_md.contains("### backward slices"));
}
