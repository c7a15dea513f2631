//! Context-policy solver benchmarks: every selectable policy
//! (insensitive, summary-based 1-CFA and 2-CFA) over the gcc profile and
//! a short nginx event-loop module.

use criterion::{criterion_group, criterion_main, Criterion};
use pythia_analysis::{CtxPolicy, CtxSolve, PointsTo};
use pythia_workloads::{generate, nginx_module, profile_by_name};

fn bench_alias(c: &mut Criterion) {
    let modules = [
        ("gcc", generate(profile_by_name("gcc").unwrap())),
        ("nginx", nginx_module(20)),
    ];
    for (mname, m) in &modules {
        let base = PointsTo::analyze(m);
        for policy in CtxPolicy::ALL {
            c.bench_function(&format!("alias/{}_{mname}", policy.name()), |b| {
                b.iter(|| std::hint::black_box(CtxSolve::analyze(m, &base, policy)))
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_alias
}
criterion_main!(benches);
