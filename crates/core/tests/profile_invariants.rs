//! The VM profiler must agree with the static instrumentation passes.
//!
//! Dynamic PA executions differ from static insertion counts (loops
//! re-execute a site), so the profiler carries its own static module
//! scan — and that scan must land on exactly the numbers
//! `pythia-passes` reports for each scheme. Vanilla executes zero PA
//! ops; DFI inserts none (its mechanism is shadow memory).
//!
//! Every invariant is checked under *both* execution engines — the
//! legacy per-instruction interpreter and the block-cached translated
//! engine. Each engine keeps its own per-op-class and per-PA-key counts,
//! from which the VM fills the profile once at run end, so the engines'
//! profiles must agree counter for counter.

use pythia_core::{evaluate, Engine, Scheme, VmConfig};
use pythia_workloads::{generate, profile_by_name};

const NAMES: [&str; 3] = ["519.lbm_r", "505.mcf_r", "525.x264_r"];
const SCHEMES: [Scheme; 3] = [Scheme::Cpa, Scheme::Pythia, Scheme::Dfi];

/// The default config pinned to `engine`.
fn cfg_for(engine: Engine) -> VmConfig {
    VmConfig {
        engine,
        ..VmConfig::default()
    }
}

#[test]
fn profiler_static_pa_counts_match_pass_stats() {
    for engine in [Engine::Legacy, Engine::Block] {
        for name in NAMES {
            let p = profile_by_name(name).expect("profile");
            let module = generate(p);
            let ev = evaluate(&module, &SCHEMES, p.seed, &cfg_for(engine)).expect(name);
            for r in &ev.results {
                assert_eq!(
                    r.profile.pa.static_sign_auth(),
                    r.stats.pa_total() as u64,
                    "{name}/{}/{}: profiler's static PA scan disagrees with passes::stats",
                    r.scheme.name(),
                    engine.name()
                );
                assert_eq!(
                    r.profile.pa.static_strips,
                    0,
                    "{name}/{}/{}: no pass inserts PacStrip",
                    r.scheme.name(),
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn pa_execution_counters_match_metrics_per_scheme() {
    let p = profile_by_name("519.lbm_r").expect("profile");
    let module = generate(p);
    for engine in [Engine::Legacy, Engine::Block] {
        let ev = evaluate(&module, &SCHEMES, p.seed, &cfg_for(engine)).expect("lbm");
        for r in &ev.results {
            match r.scheme {
                Scheme::Vanilla => {
                    assert_eq!(r.profile.pa.executed(), 0, "vanilla executes no PA ops");
                    assert_eq!(
                        r.profile.pa.static_sign_auth(),
                        0,
                        "vanilla contains no PA ops"
                    );
                }
                Scheme::Dfi => {
                    assert_eq!(r.profile.pa.executed(), 0, "DFI uses shadow memory, not PA");
                    assert!(
                        r.profile.shadow.updates() > 0,
                        "DFI must record shadow-memory updates"
                    );
                }
                Scheme::Cpa | Scheme::Pythia => {
                    assert!(
                        r.profile.pa.executed() > 0,
                        "{}/{}: instrumented scheme must execute PA ops",
                        r.scheme.name(),
                        engine.name()
                    );
                    assert_eq!(
                        r.profile.pa.executed(),
                        r.metrics.pa_insts,
                        "{}/{}: profiler and RunMetrics disagree on PA executions",
                        r.scheme.name(),
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn opcode_histogram_accounts_for_every_retired_inst() {
    let p = profile_by_name("505.mcf_r").expect("profile");
    let module = generate(p);
    for engine in [Engine::Legacy, Engine::Block] {
        let ev = evaluate(&module, &SCHEMES, p.seed, &cfg_for(engine)).expect("mcf");
        for r in &ev.results {
            assert_eq!(
                r.profile.total_ops(),
                r.metrics.insts,
                "{}/{}: opcode histogram must sum to executed instructions",
                r.scheme.name(),
                engine.name()
            );
        }
    }
}

#[test]
fn engines_produce_identical_profiles() {
    // The decisive differential: every profile field — opcode histogram,
    // attributed cycles, PA key breakdown, shadow/heap counters — must be
    // equal between engines, not merely each self-consistent.
    for name in NAMES {
        let p = profile_by_name(name).expect("profile");
        let module = generate(p);
        let legacy = evaluate(&module, &SCHEMES, p.seed, &cfg_for(Engine::Legacy)).expect(name);
        let block = evaluate(&module, &SCHEMES, p.seed, &cfg_for(Engine::Block)).expect(name);
        assert_eq!(legacy.results.len(), block.results.len());
        for (l, b) in legacy.results.iter().zip(&block.results) {
            assert_eq!(l.scheme, b.scheme);
            assert_eq!(l.exit, b.exit, "{name}/{}: exit differs", l.scheme.name());
            assert_eq!(
                l.metrics,
                b.metrics,
                "{name}/{}: metrics differ between engines",
                l.scheme.name()
            );
            assert_eq!(
                l.profile,
                b.profile,
                "{name}/{}: profile differs between engines",
                l.scheme.name()
            );
        }
    }
}

#[test]
fn engines_count_the_same_executed_pa_sites_on_cpa_gcc() {
    // gcc under CPA has the suite's most PA sites, spread over many
    // functions: both engines number them through the decode cache's
    // per-function site bases, and must count the same distinct set.
    let p = profile_by_name("502.gcc_r").expect("profile");
    let module = generate(p);
    let sites = [Engine::Legacy, Engine::Block].map(|engine| {
        let ev = evaluate(&module, &[Scheme::Cpa], p.seed, &cfg_for(engine)).expect("gcc");
        let cpa = ev.results.iter().find(|r| r.scheme == Scheme::Cpa);
        cpa.expect("a CPA result").metrics.pa_sites
    });
    assert!(sites[0] > 0, "CPA gcc executed no PA site");
    assert_eq!(sites[0], sites[1], "legacy vs block executed PA sites");
}
