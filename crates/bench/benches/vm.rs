//! VM engine micro-benchmarks: retirement rate of the legacy
//! per-instruction interpreter vs the block-cached translated engine,
//! per scheme, on three suite benchmarks — plus the one-time decode
//! (block-lowering) cost the block engine amortizes across runs.
//!
//! Both engines execute through a shared pre-decoded module so the
//! per-iteration numbers compare steady-state execution, which is what
//! the suite pays: the pipeline and campaigns decode once per
//! instrumented module and share the cache across every run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pythia_core::{instrument, Scheme};
use pythia_vm::{DecodedModule, Engine, InputPlan, Vm, VmConfig};
use pythia_workloads::{generate, profile_by_name};
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
            let decoded = Arc::new(DecodedModule::new(&inst.module));
            decoded.decode_all(&inst.module);
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
    // the amortization margin (ISSUE 6: decode < 10% of execute saved).
    let m = generate(profile_by_name("505.mcf_r").expect("profile"));
    let inst = instrument(&m, Scheme::Pythia);
    c.bench_function("decode_mcf_pythia", |b| {
        b.iter(|| {
            let decoded = DecodedModule::new(&inst.module);
            decoded.decode_all(&inst.module);
            std::hint::black_box(decoded)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_retirement, bench_decode
}
criterion_main!(benches);
