//! Determinism and detection-model tests for `reproduce --scenario server`.
//!
//! `BENCH_server.json` must be byte-identical across repeated runs and
//! across VM engines, and the per-scheme detection counts must follow the
//! window-offset attack model: CPA and DFI detect regardless of timing,
//! vanilla never detects, and pythia's detection probability is 1.0 at the
//! epoch boundary and decays monotonically as the delivery offset grows.

use pythia_bench::{run_server_scenario, ServerScenarioSpec};
use pythia_core::{RunConfig, VmConfig};
use pythia_vm::Engine;

fn small_spec(engine: Engine, threads: usize) -> ServerScenarioSpec {
    ServerScenarioSpec {
        connections: 8,
        requests: 1536,
        seed: 0x5EB0_517E,
        run: RunConfig {
            vm: VmConfig {
                engine,
                ..VmConfig::default()
            },
            threads,
            ..RunConfig::default()
        },
    }
}

#[test]
fn server_json_is_byte_identical_across_runs_and_engines() {
    let a = run_server_scenario(&small_spec(Engine::Legacy, 1)).unwrap();
    let b = run_server_scenario(&small_spec(Engine::Legacy, 1)).unwrap();
    let c = run_server_scenario(&small_spec(Engine::Block, 1)).unwrap();
    assert_eq!(a.json, b.json, "repeated runs must emit identical JSON");
    assert_eq!(
        a.json, c.json,
        "legacy and block engines must emit identical JSON"
    );
    assert_eq!(a.table, c.table);
    assert_eq!(a.internal_errors, 0);
    // 4 schemes x `requests` each, all retired.
    assert_eq!(a.total_requests, 4 * 1536);
}

#[test]
fn server_json_is_byte_identical_across_pool_widths() {
    let serial = run_server_scenario(&small_spec(Engine::Block, 1)).unwrap();
    let pooled = run_server_scenario(&small_spec(Engine::Block, 4)).unwrap();
    assert_eq!(serial.json, pooled.json, "pool widths 1 and 4 must agree");
    assert_eq!(serial.table, pooled.table);
}

#[test]
fn scheme_detection_matches_window_model() {
    let run = run_server_scenario(&small_spec(Engine::Legacy, 1)).unwrap();
    assert_eq!(run.internal_errors, 0);
    for r in &run.runs {
        let s = &r.stats;
        assert!(s.attacks > 0, "{}: no attacks fired", r.scheme);
        assert!(
            s.cancelled > 0,
            "{}: cancellation path never exercised",
            r.scheme
        );
        assert!(
            s.multi_slice > 0,
            "{}: budget slicing never exercised",
            r.scheme
        );
        for o in &s.offsets {
            assert!(
                o.attacks > 0,
                "{}: empty offset bucket {}",
                r.scheme,
                o.label
            );
            match r.scheme.name() {
                // No defense: every attack escalates to the DOP exit.
                "vanilla" => {
                    assert_eq!(o.detected(), 0, "vanilla detected at {}", o.label);
                    assert_eq!(o.dop, o.attacks, "vanilla dop at {}", o.label);
                }
                // Da-signed role slot: timing-independent detection.
                "cpa" => {
                    assert_eq!(o.datapac, o.attacks, "cpa datapac at {}", o.label);
                    assert_eq!(o.rate(), 1.0);
                }
                // Def-use tags: timing-independent detection.
                "dfi" => {
                    assert_eq!(o.dfi, o.attacks, "dfi at {}", o.label);
                    assert_eq!(o.rate(), 1.0);
                }
                _ => {}
            }
        }
        if r.scheme.name() == "pythia" {
            // At the boundary every leak is stale: certain detection.
            assert_eq!(
                s.offsets[0].canary, s.offsets[0].attacks,
                "pythia must always detect at offset 0"
            );
            // Deep in the window the leak is fresh: the DOP goes through.
            let last = s.offsets.last().unwrap();
            assert!(last.dop > 0, "pythia should miss at 3/4-epoch offset");
            // Shared jitter across offsets makes the empirical curve
            // exactly monotone non-increasing.
            for w in s.offsets.windows(2) {
                assert!(
                    w[0].detected() >= w[1].detected(),
                    "detection curve not monotone: {} -> {}",
                    w[0].label,
                    w[1].label
                );
            }
        }
    }
}
