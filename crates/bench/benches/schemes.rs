//! End-to-end scheme benchmarks: wall-clock cost of instrumenting and of
//! executing each protected variant — the harness behind Fig. 4(a), here
//! measured as host time rather than simulated cycles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pythia_core::{instrument, CtxPolicy, Scheme, VariantBuilder};
use pythia_vm::{InputPlan, Vm, VmConfig};
use pythia_workloads::{generate, profile_by_name};

/// Instrumentation alone, from one prebuilt analysis of 502.gcc_r: each
/// scheme's variant (derive its obligation plan, apply it to a module
/// clone), and the unpruned PA count the precision tables report (derive
/// only). The analysis is built once, outside the timed region, so an
/// edit that scales super-linearly or a module built only to be counted
/// shows up here.
fn bench_instrumentation(c: &mut Criterion) {
    let m = generate(profile_by_name("gcc").unwrap());
    let build = VariantBuilder::new(&m, CtxPolicy::default());
    let mut g = c.benchmark_group("instrument_gcc");
    for scheme in Scheme::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(scheme.name()),
            &scheme,
            |b, &s| b.iter(|| build.instrument(s)),
        );
    }
    for scheme in [Scheme::Cpa, Scheme::Pythia] {
        g.bench_with_input(
            BenchmarkId::new("unpruned_pa", scheme.name()),
            &scheme,
            |b, &s| b.iter(|| build.unpruned_pa(s)),
        );
    }
    g.finish();
}

fn bench_execution(c: &mut Criterion) {
    let m = generate(profile_by_name("lbm").unwrap());
    let mut g = c.benchmark_group("execute_lbm");
    g.sample_size(10);
    for scheme in Scheme::ALL {
        let inst = instrument(&m, scheme);
        g.bench_with_input(
            BenchmarkId::from_parameter(scheme.name()),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let mut vm = Vm::new(&inst.module, VmConfig::default(), InputPlan::benign(1));
                    std::hint::black_box(vm.run("main", &[]).unwrap().metrics.cycles())
                })
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_instrumentation, bench_execution
}
criterion_main!(benches);
