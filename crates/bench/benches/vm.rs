//! VM engine micro-benchmarks: retirement rate of the legacy
//! per-instruction interpreter vs the block-cached translated engine,
//! per scheme, on three suite benchmarks — plus the one-time decode
//! (block-lowering) cost the block engine amortizes across runs.
//!
//! Both engines execute through a shared pre-decoded module so the
//! per-iteration numbers compare steady-state execution, which is what
//! the suite pays: the pipeline and campaigns decode once per
//! instrumented module and share the cache across every run.
//!
//! `vm_construct` times the request VM of the server scenario per
//! scheme: building a fresh `Vm` over the server module alone, building
//! one and running one `handle_request`, and what the event loop pays
//! per request — resetting its one VM in place (`Vm::reset`) and
//! running one `handle_request` on it.
//!
//! `vm_fork` prices what a campaign smash no longer pays: cloning a
//! block-engine VM paused halfway through mcf under Pythia, against
//! building a fresh VM and re-running it to the same pause. Its
//! `run_campaign` cases time a whole Pythia campaign on mcf (analysis
//! included), forked on the block engine and replayed on the legacy one.
//!
//! `vm_ops` runs op-class micro-kernels written in textual PIR, each a
//! loop dominated by one class of operation: an ALU chain, calls and
//! returns, a load/store stream over two arrays, a phi-heavy loop, a
//! CPA-style sign/store/load/auth pair, CPA's SSA sign→auth pair (which
//! the block engine runs as one fused op) and a DFI-style
//! store/setdef/chkdef/load. Each kernel prints its retired
//! instructions per run once, so time per run over that count is its
//! ns/op on each engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pythia_core::{instrument, run_campaign, Scheme};
use pythia_ir::parser::parse_module;
use pythia_vm::{DecodedModule, Engine, InputPlan, Vm, VmConfig};
use pythia_workloads::{generate, profile_by_name, server_module};
use std::sync::Arc;

const NAMES: [&str; 3] = ["519.lbm_r", "505.mcf_r", "525.x264_r"];

/// The default config pinned to `engine`.
fn cfg_for(engine: Engine) -> VmConfig {
    VmConfig {
        engine,
        ..VmConfig::default()
    }
}

/// Calls and returns: a leaf with two stack objects, called 20,000
/// times.
const CALLRET: &str = r#"
module "vm_ops_callret"

func @leaf(i64) -> i64 {
bb0:
  %1 = alloca i64 x 1
  %2 = alloca [16 x i8] x 1
  store %0, %1
  %3 = load %1 : i64
  %4 = add %3, 1:i64 : i64
  ret %4
}

func @main() -> i64 {
bb0:
  jmp bb1
bb1:
  %0 = phi i64 [bb0: 0:i64], [bb1: %1]
  %1 = call @leaf(%0) : i64
  %2 = icmp slt %1, 20000:i64
  br %2, bb1, bb2
bb2:
  ret %1
}
"#;

/// A load/store stream: `b[i] = a[i] + i` over two 4 KiB arrays, 32
/// passes.
const STREAM: &str = r#"
module "vm_ops_stream"

func @main() -> i64 {
bb0:
  %0 = alloca [512 x i64] x 1
  %1 = alloca [512 x i64] x 1
  jmp bb1
bb1:
  %2 = phi i64 [bb0: 0:i64], [bb3: %9]
  jmp bb2
bb2:
  %3 = phi i64 [bb1: 0:i64], [bb2: %8]
  %4 = gep %0, %3 : i64
  %5 = load %4 : i64
  %6 = gep %1, %3 : i64
  %7 = add %5, %3 : i64
  store %7, %6
  %8 = add %3, 1:i64 : i64
  %10 = icmp slt %8, 512:i64
  br %10, bb2, bb3
bb3:
  %9 = add %2, 1:i64 : i64
  %11 = icmp slt %9, 32:i64
  br %11, bb1, bb4
bb4:
  ret %9
}
"#;

/// A phi-heavy loop: four loop-carried phis per three-op body, 20,000
/// iterations.
const PHI: &str = r#"
module "vm_ops_phi"

func @main() -> i64 {
bb0:
  jmp bb1
bb1:
  %0 = phi i64 [bb0: 1:i64], [bb1: %1]
  %1 = phi i64 [bb0: 2:i64], [bb1: %2]
  %2 = phi i64 [bb0: 3:i64], [bb1: %4]
  %3 = phi i64 [bb0: 0:i64], [bb1: %5]
  %4 = xor %0, %1 : i64
  %5 = add %3, 1:i64 : i64
  %6 = icmp slt %5, 20000:i64
  br %6, bb1, bb2
bb2:
  ret %2
}
"#;

/// CPA's pattern on one slot: sign, store, load, authenticate, 20,000
/// times with a fresh value each time.
const PAC: &str = r#"
module "vm_ops_pac"

func @main() -> i64 {
bb0:
  %0 = alloca i64 x 1
  %1 = ptrtoint %0 to i64
  jmp bb1
bb1:
  %2 = phi i64 [bb0: 0:i64], [bb1: %6]
  %3 = pacsign %2, da, %1 : i64
  store %3, %0
  %4 = load %0 : i64
  %5 = pacauth %4, da, %1 : i64
  %6 = add %5, 1:i64 : i64
  %7 = icmp slt %6, 20000:i64
  br %7, bb1, bb2
bb2:
  ret %6
}
"#;

/// CPA's signed SSA value: each value is signed and at once
/// authenticated again under the same key and modifier, 20,000 times.
const PAC_PAIR: &str = r#"
module "vm_ops_pac_pair"

func @main() -> i64 {
bb0:
  %0 = alloca i64 x 1
  %1 = ptrtoint %0 to i64
  jmp bb1
bb1:
  %2 = phi i64 [bb0: 0:i64], [bb1: %5]
  %3 = pacsign %2, da, %1 : i64
  %4 = pacauth %3, da, %1 : i64
  %5 = add %4, 1:i64 : i64
  %6 = icmp slt %5, 20000:i64
  br %6, bb1, bb2
bb2:
  ret %5
}
"#;

/// An ALU chain: four dependent ops per iteration, 20,000 iterations.
const ALU: &str = r#"
module "vm_ops_alu"

func @main() -> i64 {
bb0:
  jmp bb1
bb1:
  %0 = phi i64 [bb0: 0:i64], [bb1: %6]
  %1 = phi i64 [bb0: 7:i64], [bb1: %5]
  %2 = add %1, %0 : i64
  %3 = xor %2, 12345:i64 : i64
  %4 = mul %3, 3:i64 : i64
  %5 = lshr %4, 1:i64 : i64
  %6 = add %0, 1:i64 : i64
  %7 = icmp slt %6, 20000:i64
  br %7, bb1, bb2
bb2:
  ret %5
}
"#;

/// DFI's pattern on one slot: store, setdef, chkdef, load, 20,000
/// times.
const DFI: &str = r#"
module "vm_ops_dfi"

func @main() -> i64 {
bb0:
  %0 = alloca i64 x 1
  jmp bb1
bb1:
  %1 = phi i64 [bb0: 0:i64], [bb1: %3]
  store %1, %0
  setdef %0, 7
  chkdef %0, [7]
  %2 = load %0 : i64
  %3 = add %2, 1:i64 : i64
  %4 = icmp slt %3, 20000:i64
  br %4, bb1, bb2
bb2:
  ret %3
}
"#;

const KERNELS: [(&str, &str); 7] = [
    ("alu", ALU),
    ("callret", CALLRET),
    ("stream", STREAM),
    ("phi", PHI),
    ("pac", PAC),
    ("pac_pair", PAC_PAIR),
    ("dfi", DFI),
];

fn bench_vm_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm_ops");
    for (name, src) in KERNELS {
        let m = parse_module(src).expect("kernel parses");
        let decoded = DecodedModule::eager(&m);
        for engine in [Engine::Legacy, Engine::Block] {
            // Both engines on the calling thread (the block engine always
            // is): a legacy per-run interpreter thread spawn would be
            // timed with every run.
            let cfg = VmConfig {
                inline_exec: true,
                ..cfg_for(engine)
            };
            let run = || {
                Vm::with_decoded(&m, Arc::clone(&decoded), cfg.clone(), InputPlan::benign(1))
                    .run("main", &[])
                    .unwrap()
                    .metrics
                    .insts
            };
            let label = format!("{name}_{}", engine.name());
            g.bench_function(&label, |b| {
                println!("vm_ops/{label}: {} insts/run", run());
                b.iter(run)
            });
        }
    }
    g.finish();
}

fn bench_retirement(c: &mut Criterion) {
    for name in NAMES {
        let p = profile_by_name(name).expect("profile");
        let m = generate(p);
        let mut g = c.benchmark_group(format!("retire_{}", p.name));
        g.sample_size(10);
        for scheme in Scheme::ALL {
            let inst = instrument(&m, scheme);
            let decoded = DecodedModule::eager(&inst.module);
            for engine in [Engine::Legacy, Engine::Block] {
                g.bench_with_input(
                    BenchmarkId::from_parameter(format!("{}_{}", scheme.name(), engine.name())),
                    &inst,
                    |b, inst| {
                        b.iter(|| {
                            let mut vm = Vm::with_decoded(
                                &inst.module,
                                Arc::clone(&decoded),
                                cfg_for(engine),
                                InputPlan::benign(p.seed),
                            );
                            std::hint::black_box(vm.run("main", &[]).unwrap().metrics.insts)
                        })
                    },
                );
            }
        }
        g.finish();
    }
}

fn bench_decode(c: &mut Criterion) {
    // The cost the block engine pays exactly once per instrumented
    // module — compare against the per-run execute time above to see
    // the amortization margin. mcf is the suite's smallest case; gcc is
    // its largest, under every scheme (instrumentation grows the blocks
    // decode lowers).
    let mut g = c.benchmark_group("decode");
    let mcf = generate(profile_by_name("505.mcf_r").expect("profile"));
    let gcc = generate(profile_by_name("502.gcc_r").expect("profile"));
    let cases = std::iter::once(("mcf", &mcf, Scheme::Pythia))
        .chain(Scheme::ALL.into_iter().map(|s| ("gcc", &gcc, s)));
    for (name, m, scheme) in cases {
        let inst = instrument(m, scheme);
        g.bench_function(format!("{name}_{}", scheme.name()), |b| {
            b.iter(|| std::hint::black_box(DecodedModule::eager(&inst.module)))
        });
    }
    g.finish();
}

fn bench_vm_construct(c: &mut Criterion) {
    // The request VM's config in the server scenario: no profile, inline
    // execution, a budget the benign handler never reaches.
    let cfg = VmConfig {
        seed: 7,
        max_insts: 10_000_000,
        max_call_depth: 64,
        profile: false,
        inline_exec: true,
        ..VmConfig::default()
    };
    let m = server_module();
    let mut g = c.benchmark_group("vm_construct");
    g.sample_size(20);
    for scheme in Scheme::ALL {
        let inst = instrument(&m, scheme);
        let decoded = DecodedModule::eager(&inst.module);
        let new_vm = || {
            Vm::with_decoded(
                &inst.module,
                Arc::clone(&decoded),
                cfg.clone(),
                InputPlan::benign(7),
            )
        };
        g.bench_function(format!("new_{}", scheme.name()), |b| b.iter(new_vm));
        g.bench_function(format!("request_{}", scheme.name()), |b| {
            b.iter(|| {
                let mut vm = new_vm();
                vm.run("handle_request", &[3, 1]).unwrap().metrics.insts
            })
        });
        let mut vm = new_vm();
        g.bench_function(format!("reset_{}", scheme.name()), |b| {
            b.iter(|| {
                vm.reset(cfg.clone(), InputPlan::benign(7));
                vm.run("handle_request", &[3, 1]).unwrap().metrics.insts
            })
        });
    }
    g.finish();
}

fn bench_vm_fork(c: &mut Criterion) {
    let p = profile_by_name("505.mcf_r").expect("profile");
    let m = generate(p);
    let inst = instrument(&m, Scheme::Pythia);
    let decoded = DecodedModule::eager(&inst.module);
    let cfg = cfg_for(Engine::Block);
    let channels = Vm::with_decoded(
        &inst.module,
        Arc::clone(&decoded),
        cfg.clone(),
        InputPlan::benign(p.seed),
    )
    .run("main", &[])
    .unwrap()
    .metrics
    .ic_writes;
    let paused_at = |n| {
        let mut vm = Vm::with_decoded(
            &inst.module,
            Arc::clone(&decoded),
            cfg.clone(),
            InputPlan::benign(p.seed),
        );
        vm.start("main", &[]).unwrap();
        assert!(vm.run_to_channel(n).unwrap().is_none(), "mcf pauses");
        vm
    };
    let paused = paused_at(channels / 2);
    let mut g = c.benchmark_group("vm_fork");
    g.bench_function("clone_paused", |b| b.iter(|| paused.clone()));
    g.bench_function("replay_to_pause", |b| b.iter(|| paused_at(channels / 2)));
    for engine in [Engine::Legacy, Engine::Block] {
        g.bench_function(format!("run_campaign_mcf_{}", engine.name()), |b| {
            b.iter(|| run_campaign(&m, Scheme::Pythia, p.seed, 64, 32, &cfg_for(engine)).unwrap())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_retirement, bench_decode, bench_vm_construct, bench_vm_ops, bench_vm_fork
}
criterion_main!(benches);
