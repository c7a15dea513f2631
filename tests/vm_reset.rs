//! A VM reset in place equals a freshly built one.
//!
//! The server event loop runs every request on one VM that
//! [`Vm::reset`] returns to the state [`Vm::with_decoded`] would build.
//! These tests hold the reset to that on the server module, on lbm and
//! mcf at smoke tier and on a small module whose smashed pointer faults,
//! under every scheme and on both engines: one
//! VM is reset before each step of a seeded sequence, a fresh VM is
//! built for the same step, and both are driven alike. The steps vary
//!
//! - the config: seed, an instruction budget that runs out (or is 0),
//!   `profile`, `trace_limit` and `record_witness`;
//! - what ran before the reset: benign runs, attacked runs that end in
//!   PA, canary or DFI traps or memory faults, runs paused by
//!   [`Vm::run_to_channel`] and never resumed, and failed starts.
//!
//! After the reset and again after the step, the two VMs must agree on
//! the exit, every [`RunMetrics`](pythia::vm::RunMetrics) field, the
//! [`Profile`](pythia::vm::Profile), the trace, the witness, the
//! resident bytes and every global's bytes. The `#[ignore]`d variant
//! runs more seeds (`cargo test --test vm_reset -- --ignored`).

use pythia::core::{instrument, Scheme};
use pythia::ir::parser::parse_module;
use pythia::ir::Module;
use pythia::vm::{
    layout, AttackSpec, DecodedModule, DetectionMechanism, Engine, ExitReason, InputPlan,
    RunResult, Trap, Vm, VmConfig,
};
use pythia::workloads::{generate, profile_by_name, server_module, SizeTier};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One module to run: its entry call and input seed.
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
        Subject {
            name: "server",
            module: server_module(),
            entry: "handle_request",
            args: vec![3, 17],
            seed: 11,
        },
        spec("519.lbm_r"),
        spec("505.mcf_r"),
        Subject {
            name: "deref",
            module: parse_module(DEREF).expect("deref module parses"),
            entry: "main",
            args: Vec::new(),
            seed: 1,
        },
    ]
}

/// A pointer stored just above a `gets` buffer and dereferenced after
/// it: an overflow that rewrites the pointer makes the load fault.
const DEREF: &str = r#"
module "deref"

func @main() -> i64 {
bb0:
  %0 = alloca [16 x i8] x 1
  %1 = alloca i64* x 1
  %2 = alloca i64 x 1
  store 5:i64, %2
  store %2, %1
  %3 = call! gets(%0) : i8*
  %4 = load %1 : i64*
  %5 = load %4 : i64
  ret %5
}
"#;

/// splitmix64: the step draws.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// How a step drives its VM.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// Run the entry to its end.
    Run,
    /// Start the entry and pause before channel execution `n`, never
    /// resuming.
    Pause(u64),
    /// Run a function the module does not have (a setup error).
    NoEntry,
}

/// What a drive returned, comparable across the two VMs.
#[derive(Debug)]
enum Outcome {
    Ran(RunResult),
    Paused(Option<RunResult>),
    Failed(String),
}

/// One step: the config and plan both VMs get, and how they are driven.
#[derive(Debug)]
struct Step {
    cfg: VmConfig,
    plan: InputPlan,
    drive: Drive,
}

/// A seeded step for `s`, whose benign run executes `insts`
/// instructions and `channels` channel writes.
fn step(d: &mut Draw, s: &Subject, engine: Engine, insts: u64, channels: u64) -> Step {
    let cfg = VmConfig {
        seed: s.seed ^ d.next(),
        max_insts: match d.below(6) {
            0 => d.below(insts),
            1 => 0,
            _ => VmConfig::default().max_insts,
        },
        profile: d.below(2) == 0,
        trace_limit: [0, 0, 17, 1 << 20][d.below(4) as usize],
        record_witness: d.below(2) == 0,
        engine,
        inline_exec: true,
        ..VmConfig::default()
    };
    let input = s.seed + d.below(4);
    let n = d.below(channels);
    let plan = match d.below(6) {
        0 | 1 => InputPlan::benign(input),
        2 => InputPlan::with_attack(input, AttackSpec::smash(n, 64)),
        3 => InputPlan::with_attack(input, AttackSpec::smash(n, 600)),
        // A pointer into the null page, and a non-canonical one.
        4 => InputPlan::with_attack(input, AttackSpec::aimed(n, 256, 0x10)),
        _ => InputPlan::with_attack(input, AttackSpec::aimed(n, 256, 0xdead << 48)),
    };
    let drive = match d.below(8) {
        0 | 1 => Drive::Pause(d.below(channels + 1)),
        2 => Drive::NoEntry,
        _ => Drive::Run,
    };
    Step { cfg, plan, drive }
}

fn drive(vm: &mut Vm<'_>, s: &Subject, how: Drive) -> Outcome {
    let failed = |e: pythia::ir::PythiaError| Outcome::Failed(e.to_string());
    match how {
        Drive::Run => vm.run(s.entry, &s.args).map_or_else(failed, Outcome::Ran),
        Drive::Pause(n) => match vm.start(s.entry, &s.args) {
            Ok(()) => vm.run_to_channel(n).map_or_else(failed, Outcome::Paused),
            Err(e) => failed(e),
        },
        Drive::NoEntry => vm
            .run("no_such_entry", &[])
            .map_or_else(failed, Outcome::Ran),
    }
}

/// The kind of `outcome`, for the coverage check.
fn kind(outcome: &Outcome) -> &'static str {
    let exit = match outcome {
        Outcome::Ran(r) | Outcome::Paused(Some(r)) => r.exit,
        Outcome::Paused(None) => return "paused",
        Outcome::Failed(_) => return "failed",
    };
    match exit {
        ExitReason::Returned(_) | ExitReason::Exited(_) => "ended",
        ExitReason::Trapped(t) => match (t, t.detection()) {
            (_, Some(DetectionMechanism::DataPac)) => "pac trap",
            (_, Some(DetectionMechanism::Canary)) => "canary trap",
            (_, Some(DetectionMechanism::Dfi)) => "dfi trap",
            (Trap::MemoryFault { .. }, _) => "memory fault",
            (Trap::InstBudgetExhausted, _) => "budget",
            _ => "other trap",
        },
    }
}

fn assert_same_outcome(what: &str, got: &Outcome, want: &Outcome) {
    match (got, want) {
        (Outcome::Ran(a), Outcome::Ran(b))
        | (Outcome::Paused(Some(a)), Outcome::Paused(Some(b))) => {
            assert_eq!(a.exit, b.exit, "{what}: exit");
            assert_eq!(a.metrics, b.metrics, "{what}: metrics");
            assert_eq!(a.profile, b.profile, "{what}: profile");
        }
        (Outcome::Paused(None), Outcome::Paused(None)) => {}
        (Outcome::Failed(a), Outcome::Failed(b)) => assert_eq!(a, b, "{what}: error"),
        _ => panic!("{what}: {got:?} vs {want:?}"),
    }
}

/// Everything of the two VMs' state a caller can read.
fn assert_same_state(what: &str, got: &Vm<'_>, want: &Vm<'_>, module: &Module) {
    assert_eq!(got.trace(), want.trace(), "{what}: trace");
    let (gw, ww) = (got.witness(), want.witness());
    assert_eq!(gw.ga_signs, ww.ga_signs, "{what}: witness canary signs");
    assert_eq!(gw.ic_writes, ww.ic_writes, "{what}: witness channel writes");
    assert_eq!(
        got.memory().resident_bytes(),
        want.memory().resident_bytes(),
        "{what}: resident bytes"
    );
    let slots = pythia::ir::layout::global_slots(module, layout::GLOBALS_BASE);
    for (gid, slot) in module.global_ids().zip(slots) {
        assert_eq!(
            got.global_addr(gid),
            want.global_addr(gid),
            "{what}: global address"
        );
        let read = |vm: &Vm<'_>| vm.memory().read_bytes(slot.start, slot.size.min(1 << 16));
        assert_eq!(
            read(got),
            read(want),
            "{what}: bytes of global {}",
            module.global(gid).name
        );
    }
}

/// Reset one VM through `steps` seeded steps of `s` under `scheme` on
/// `engine`, each checked against a fresh VM. Returns the kinds of the
/// outcomes the reset VM had when it was reset.
fn check_resets(
    s: &Subject,
    scheme: Scheme,
    engine: Engine,
    seed: u64,
    steps: usize,
) -> BTreeSet<&'static str> {
    let inst = instrument(&s.module, scheme).module;
    let decoded = DecodedModule::eager(&inst);
    let benign = Vm::with_decoded(
        &inst,
        Arc::clone(&decoded),
        VmConfig::default(),
        InputPlan::benign(s.seed),
    )
    .run(s.entry, &s.args)
    .expect("benign run");
    let (insts, channels) = (benign.metrics.insts, benign.metrics.ic_writes);
    let mut d = Draw(seed ^ s.seed);
    let mut reused = Vm::with_decoded(
        &inst,
        Arc::clone(&decoded),
        VmConfig::default(),
        InputPlan::benign(0),
    );
    let mut before = BTreeSet::new();
    let mut last = "built";
    for k in 0..steps {
        let st = step(&mut d, s, engine, insts, channels);
        let what = format!(
            "{} {} {} seed {seed} step {k} after {last}: {st:?}",
            s.name,
            scheme.name(),
            engine.name()
        );
        before.insert(last);
        reused.reset(st.cfg.clone(), st.plan.clone());
        let mut fresh = Vm::with_decoded(&inst, Arc::clone(&decoded), st.cfg, st.plan);
        assert_same_state(&format!("{what} (reset)"), &reused, &fresh, &inst);
        let got = drive(&mut reused, s, st.drive);
        let want = drive(&mut fresh, s, st.drive);
        assert_same_outcome(&what, &got, &want);
        assert_same_state(&what, &reused, &fresh, &inst);
        last = kind(&got);
    }
    before
}

fn check_all(seeds: std::ops::Range<u64>, steps: usize) {
    let mut before = BTreeSet::new();
    for s in subjects() {
        for scheme in Scheme::ALL {
            for engine in [Engine::Legacy, Engine::Block] {
                for seed in seeds.clone() {
                    before.extend(check_resets(&s, scheme, engine, seed, steps));
                }
            }
        }
    }
    // The resets started from every kind of previous run.
    for k in [
        "built",
        "ended",
        "budget",
        "pac trap",
        "canary trap",
        "dfi trap",
        "memory fault",
        "paused",
        "failed",
    ] {
        assert!(
            before.contains(k),
            "no reset after a run that {k}: {before:?}"
        );
    }
}

#[test]
fn a_reset_vm_equals_a_fresh_one() {
    check_all(0..2, 16);
}

#[test]
#[ignore = "long variant: more seeds (scripts/check.sh runs it)"]
fn a_reset_vm_equals_a_fresh_one_over_many_seeds() {
    check_all(2..18, 32);
}
