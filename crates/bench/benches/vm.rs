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
//! `vm_construct` times what the server scenario pays per request on
//! one thread: building a fresh `Vm` over the server module alone, and
//! building it plus running one `handle_request`, per scheme.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pythia_core::{instrument, Scheme};
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
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_retirement, bench_decode, bench_vm_construct
}
criterion_main!(benches);
