//! The parallel suite harness must be a pure speedup: 1 worker and N
//! workers produce identical evaluations and byte-identical report text.

use pythia_bench::experiments as exp;
use pythia_core::{RunConfig, VmConfig};

const NAMES: [&str; 2] = ["519.lbm_r", "505.mcf_r"];

/// `names` at the standard tier on `threads` workers under `vm`.
fn suite_on(names: &[&str], threads: usize, vm: VmConfig) -> Vec<exp::SuiteEntry> {
    let spec = exp::SuiteSpec {
        selection: exp::Selection::Only(names.iter().map(|n| (*n).to_owned()).collect()),
        run: RunConfig {
            vm,
            threads,
            ..RunConfig::default()
        },
        ..Default::default()
    };
    exp::run_suite(&spec).entries
}

fn suite(names: &[&str], threads: usize) -> Vec<exp::SuiteEntry> {
    suite_on(names, threads, VmConfig::default())
}

#[test]
fn serial_and_parallel_evaluations_are_identical() {
    let serial = exp::ok_evaluations(&suite(&NAMES, 1));
    let parallel = exp::ok_evaluations(&suite(&NAMES, 4));
    assert_eq!(serial.len(), NAMES.len(), "every benchmark must evaluate");
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.name, b.name, "output order must be deterministic");
        assert_eq!(
            a.analysis, b.analysis,
            "{}: analysis summary differs",
            a.name
        );
        assert_eq!(a.results.len(), b.results.len());
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.scheme, rb.scheme, "{}: scheme order differs", a.name);
            assert_eq!(ra.stats, rb.stats, "{}: instrumentation differs", a.name);
            assert_eq!(ra.exit, rb.exit, "{}: exit differs", a.name);
            assert_eq!(ra.metrics, rb.metrics, "{}: metrics differ", a.name);
            assert_eq!(ra.profile, rb.profile, "{}: profile differs", a.name);
        }
    }
}

#[test]
fn profiling_toggle_never_changes_results() {
    // The profiler is observational: turning it off must leave metrics,
    // exits, entry ordering, and report bytes untouched — at 1 worker
    // and at 4.
    use pythia_core::evaluate;
    use pythia_workloads::{generate, profile_by_name};

    let render = |suite: &[exp::SuiteEntry]| {
        let evals = exp::ok_evaluations(suite);
        exp::fig4a(&evals) + &exp::fig4b(&evals)
    };
    for threads in [1, 4] {
        let on = suite(&NAMES, threads);
        assert_eq!(
            on.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            NAMES.to_vec(),
            "entry ordering must be stable"
        );
        // The default config profiles; re-evaluate with profiling off.
        let p = profile_by_name(NAMES[0]).unwrap();
        let module = generate(p);
        let mut cfg = VmConfig::default();
        assert!(cfg.profile, "profiling is on by default");
        cfg.profile = false;
        let off = evaluate(&module, &exp::SCHEMES, p.seed, &cfg).unwrap();
        let ev_on = on[0].evaluation().unwrap();
        assert_eq!(ev_on.results.len(), off.results.len());
        for (ra, rb) in ev_on.results.iter().zip(&off.results) {
            assert_eq!(ra.scheme, rb.scheme);
            assert_eq!(ra.exit, rb.exit, "exit must not depend on profiling");
            assert_eq!(
                ra.metrics, rb.metrics,
                "metrics must not depend on profiling"
            );
            // With profiling off the dynamic counters stay zero.
            assert_eq!(rb.profile.pa.executed(), 0);
            assert_eq!(rb.profile.total_ops(), 0);
        }
        assert_eq!(ev_on.analysis, off.analysis);
        let report_on = render(&on);
        assert_eq!(
            report_on,
            render(&suite(&NAMES, threads)),
            "report bytes must be reproducible with profiling enabled"
        );
    }
}

#[test]
fn serial_and_parallel_report_text_is_byte_identical() {
    let serial = exp::ok_evaluations(&suite(&NAMES, 1));
    let parallel = exp::ok_evaluations(&suite(&NAMES, 4));
    let render = |suite: &[pythia_core::BenchEvaluation]| {
        let mut out = String::new();
        out.push_str(&exp::fig4a(suite));
        out.push_str(&exp::fig4b(suite));
        out.push_str(&exp::fig5a(suite));
        out.push_str(&exp::fig6a(suite));
        out.push_str(&exp::fig6b(suite));
        out.push_str(&exp::fig7a(suite));
        out.push_str(&exp::fig7b(suite));
        out.push_str(&exp::dist(suite));
        out
    };
    assert_eq!(render(&serial), render(&parallel));
}

#[test]
fn legacy_and_block_engines_are_observationally_identical() {
    // The block-cached engine is a pure speedup: every observable — exit,
    // metered metrics, profile counters, and the report text rendered
    // from them — must be byte-for-byte what the legacy per-instruction
    // interpreter produces, at 1 and 4 workers, profiling on and off.
    use pythia_core::Engine;

    let render = |suite: &[pythia_core::BenchEvaluation]| {
        let mut out = String::new();
        out.push_str(&exp::fig4a(suite));
        out.push_str(&exp::fig4b(suite));
        out.push_str(&exp::fig5a(suite));
        out.push_str(&exp::fig6a(suite));
        out.push_str(&exp::fig6b(suite));
        out.push_str(&exp::fig7a(suite));
        out.push_str(&exp::fig7b(suite));
        out.push_str(&exp::dist(suite));
        out
    };
    for threads in [1usize, 4] {
        for profile in [true, false] {
            let run = |engine: Engine| {
                let cfg = VmConfig {
                    engine,
                    profile,
                    ..VmConfig::default()
                };
                exp::ok_evaluations(&suite_on(&NAMES, threads, cfg))
            };
            let legacy = run(Engine::Legacy);
            let block = run(Engine::Block);
            assert_eq!(legacy.len(), NAMES.len(), "every benchmark must evaluate");
            assert_eq!(legacy.len(), block.len());
            for (l, b) in legacy.iter().zip(&block) {
                let ctx = format!("{} (threads={threads}, profile={profile})", l.name);
                assert_eq!(l.name, b.name, "{ctx}: order differs");
                assert_eq!(l.analysis, b.analysis, "{ctx}: analysis differs");
                assert_eq!(l.results.len(), b.results.len());
                for (rl, rb) in l.results.iter().zip(&b.results) {
                    assert_eq!(rl.scheme, rb.scheme, "{ctx}: scheme order differs");
                    assert_eq!(rl.stats, rb.stats, "{ctx}: instrumentation differs");
                    assert_eq!(rl.exit, rb.exit, "{ctx}: exit differs");
                    assert_eq!(rl.metrics, rb.metrics, "{ctx}: metrics differ");
                    assert_eq!(rl.profile, rb.profile, "{ctx}: profile differs");
                }
            }
            assert_eq!(
                render(&legacy),
                render(&block),
                "report text must be byte-identical across engines (threads={threads}, profile={profile})"
            );
        }
    }
}

#[test]
fn rerunning_the_same_profile_is_reproducible() {
    // Same seed, same machine state → same evaluation, run to run.
    let a = exp::ok_evaluations(&suite(&["519.lbm_r"], 2));
    let b = exp::ok_evaluations(&suite(&["519.lbm_r"], 2));
    assert_eq!(a[0].analysis, b[0].analysis);
    assert_eq!(exp::fig4a(&a), exp::fig4a(&b));
}

/// `json` with every timing value replaced by `#`: wall-clock seconds,
/// phase shares, retirement rates and the worker count. Everything else
/// in `BENCH_suite.json` is deterministic.
fn mask_timing(json: &str) -> String {
    let timing = |key: &str| {
        key.ends_with("_secs")
            || key.ends_with("_share")
            || ["threads", "retirement_minsts_per_sec"].contains(&key)
            || ["analysis", "instrument", "lint", "decode", "execute"].contains(&key)
    };
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(i) = rest.find("\": ") {
        let key = rest[..i].rsplit('"').next().unwrap_or_default();
        let (head, tail) = rest.split_at(i + 3);
        out.push_str(head);
        let n = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        if n > 0 && timing(key) {
            out.push('#');
            rest = &tail[n..];
        } else {
            rest = tail;
        }
    }
    out.push_str(rest);
    out
}

#[test]
fn bench_json_is_byte_identical_across_worker_counts_once_timing_is_masked() {
    let json = |threads| {
        let spec = exp::SuiteSpec {
            selection: exp::Selection::Smoke,
            run: RunConfig {
                threads,
                ..RunConfig::default()
            },
            ..Default::default()
        };
        let run = exp::run_suite(&spec);
        assert_eq!(run.entries.len(), 3, "smoke suite is lbm + mcf + nginx");
        run.json
    };
    let (serial, parallel) = (json(1), json(4));
    assert!(serial.contains("\"threads\": 1,") && parallel.contains("\"threads\": 4,"));
    let masked = mask_timing(&serial);
    assert!(!masked.contains("\"total_secs\": 0") && masked.contains("\"total_secs\": #"));
    assert!(masked.contains("\"lint\": #") && masked.contains("\"lint\": \"certified\""));
    assert_eq!(masked, mask_timing(&parallel));
}
