//! Forked attack runs equal replayed ones.
//!
//! A campaign smash forks from the benign run: the driver VM pauses
//! before the target channel execution, and a clone armed with the smash
//! resumes from there (`pythia_core::run_campaign_with`). These tests
//! hold the fork to the replay it stands for, on lbm and mcf at smoke
//! tier and on the server module, under every scheme and at every
//! campaign target:
//!
//! - a paused, cloned, armed and resumed VM returns the [`RunResult`] of
//!   a fresh run planned with the same attack: exit, every
//!   [`RunMetrics`] field (cache and heap counters included) and the
//!   [`Profile`](pythia::vm::Profile);
//! - resuming a paused VM without an attack gives the uninterrupted run;
//! - a target past the last channel execution runs to completion.
//!
//! A last test runs a guest recursion to `max_call_depth` on the block
//! engine from a small host thread: guest frames live on the VM's own
//! stack.

use pythia::core::{instrument, Scheme};
use pythia::ir::parser::parse_module;
use pythia::ir::Module;
use pythia::vm::{
    AttackSpec, DecodedModule, Engine, ExitReason, InputPlan, RunResult, Trap, Vm, VmConfig,
};
use pythia::workloads::{generate, profile_by_name, server_module, SizeTier};
use std::sync::Arc;

/// The campaign's payload length and smash count
/// (`reproduce`'s campaign section).
const PAYLOAD: usize = 64;
const SMASHES: u64 = 32;

/// One module to attack: its entry call and input seed.
struct Subject {
    name: &'static str,
    module: Module,
    entry: &'static str,
    args: Vec<i64>,
    seed: u64,
}

fn subjects() -> Vec<Subject> {
    let spec = |name: &'static str| {
        let p = profile_by_name(name)
            .expect("profile exists")
            .at_tier(SizeTier::Smoke);
        Subject {
            name,
            module: generate(&p),
            entry: "main",
            args: Vec::new(),
            seed: p.seed,
        }
    };
    vec![
        spec("519.lbm_r"),
        spec("505.mcf_r"),
        Subject {
            name: "server",
            module: server_module(),
            entry: "handle_request",
            args: vec![3, 17],
            seed: 11,
        },
    ]
}

fn assert_same(what: &str, got: &RunResult, want: &RunResult) {
    assert_eq!(got.exit, want.exit, "{what}: exit");
    assert_eq!(got.metrics, want.metrics, "{what}: metrics");
    assert_eq!(got.profile, want.profile, "{what}: profile");
}

/// Drive `s` under `scheme` the way the campaign does and compare every
/// fork against its replay. Returns the number of targets checked.
fn check_forks(s: &Subject, scheme: Scheme, engine: Engine) -> u64 {
    let inst = instrument(&s.module, scheme).module;
    let decoded = DecodedModule::eager(&inst);
    let cfg = VmConfig {
        engine,
        ..VmConfig::default()
    };
    let vm = |plan| Vm::with_decoded(&inst, Arc::clone(&decoded), cfg.clone(), plan);
    let fresh = |plan| vm(plan).run(s.entry, &s.args).expect("run");
    let what = |t: u64| {
        format!(
            "{} {} target {t} ({})",
            s.name,
            scheme.name(),
            engine.name()
        )
    };

    let benign = fresh(InputPlan::benign(s.seed));
    let total = benign.metrics.ic_writes;
    assert!(total > 0, "{}: no channel execution to attack", s.name);
    let step = (total / SMASHES).max(1);

    let mut driver = vm(InputPlan::benign(s.seed));
    driver.start(s.entry, &s.args).expect("start");
    let mut target = 0;
    let mut checked = 0;
    while target < total && checked < SMASHES {
        assert!(
            driver.run_to_channel(target).expect("pause").is_none(),
            "{}: the run ended before its channel execution",
            what(target)
        );
        let resumed = driver.clone().resume().expect("resume");
        assert_same(&format!("{} unarmed", what(target)), &resumed, &benign);

        let attack = AttackSpec::smash(target, PAYLOAD);
        let mut smash = driver.clone();
        smash.arm(attack.clone());
        let forked = smash.resume().expect("forked run");
        let replayed = fresh(InputPlan::with_attack(s.seed, attack));
        assert_same(&what(target), &forked, &replayed);
        checked += 1;
        target += step;
    }

    // Past the last channel execution there is nothing to pause before:
    // the driver runs to the benign end. (A legacy driver never leaves
    // the start.)
    if engine == Engine::Block {
        let end = driver
            .run_to_channel(total + 1)
            .expect("run to end")
            .expect("a target past the last channel execution ends the run");
        assert_same(&format!("{} past the end", what(total + 1)), &end, &benign);
    }
    checked
}

#[test]
fn forked_smashes_equal_replayed_smashes_under_every_scheme() {
    for s in subjects() {
        for scheme in Scheme::ALL {
            let n = check_forks(&s, scheme, Engine::Block);
            assert!(n > 0, "{} {}: no target checked", s.name, scheme.name());
        }
    }
}

#[test]
fn legacy_clones_replay_from_the_start() {
    // The legacy engine cannot pause mid-run: its driver stays at the
    // start, so each armed clone is a fresh attacked run.
    let s = subjects().swap_remove(0);
    for scheme in [Scheme::Vanilla, Scheme::Pythia] {
        check_forks(&s, scheme, Engine::Legacy);
    }
}

#[test]
fn a_paused_run_pauses_again_at_the_same_point() {
    let s = subjects().swap_remove(1);
    let inst = instrument(&s.module, Scheme::Dfi).module;
    let mut a = Vm::new(&inst, VmConfig::default(), InputPlan::benign(s.seed));
    a.start(s.entry, &s.args).unwrap();
    assert!(a.run_to_channel(2).unwrap().is_none());
    let mut b = a.clone();
    assert!(
        b.run_to_channel(2).unwrap().is_none(),
        "no progress past the pause"
    );
    assert!(
        b.run_to_channel(1).unwrap().is_none(),
        "an earlier target pauses at once"
    );
    assert_same("re-paused", &b.resume().unwrap(), &a.resume().unwrap());
    let err = a.resume().unwrap_err();
    assert!(err.to_string().contains("no run to resume"), "{err}");
}

/// `main` calls `down(frames - 2)`, which recurses to zero: `frames` live
/// guest frames at the bottom, the deepest at call depth `frames - 1`.
fn recursion(frames: u64) -> Module {
    parse_module(&format!(
        r#"
module "deep"

func @down(i64) -> i64 {{
bb0:
  %1 = icmp eq %0, 0:i64
  br %1, bb1, bb2
bb1:
  ret 0:i64
bb2:
  %2 = sub %0, 1:i64 : i64
  %3 = call @down(%2) : i64
  %4 = add %3, 1:i64 : i64
  ret %4
}}

func @main() -> i64 {{
bb0:
  %0 = call @down({}:i64) : i64
  ret %0
}}
"#,
        frames - 2
    ))
    .expect("recursion module parses")
}

#[test]
fn guest_recursion_to_the_depth_limit_runs_on_a_small_host_stack() {
    let cfg = VmConfig::default();
    let limit = cfg.max_call_depth as u64;
    let (deepest, too_deep) = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || {
            let run = |frames| {
                let m = recursion(frames);
                Vm::new(&m, cfg.clone(), InputPlan::benign(1))
                    .run("main", &[])
                    .expect("run")
                    .exit
            };
            (run(limit), run(limit + 1))
        })
        .expect("spawn")
        .join()
        .expect("the block engine must not overflow a 256 KiB host stack");
    assert_eq!(deepest, ExitReason::Returned(limit as i64 - 2));
    assert_eq!(too_deep, ExitReason::Trapped(Trap::CallDepthExceeded));
}
