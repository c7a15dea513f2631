//! Analysis-pipeline benchmarks: points-to, branch decomposition, the
//! full vulnerability report and the overflow-reach fixpoint over a large
//! generated benchmark.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pythia_analysis::{OverflowReach, PointsTo, SliceContext, SliceMode, VulnerabilityReport};
use pythia_workloads::{generate, profile_by_name};

fn bench_analysis(c: &mut Criterion) {
    let m = generate(profile_by_name("gcc").unwrap());

    c.bench_function("analysis/points_to_gcc", |b| {
        b.iter(|| std::hint::black_box(PointsTo::analyze(&m)))
    });

    c.bench_function("analysis/slice_context_gcc", |b| {
        b.iter(|| std::hint::black_box(SliceContext::new(&m)))
    });

    let ctx = SliceContext::new(&m);
    let fid = m.func_by_name("work_0").unwrap();
    let branches = ctx.branches_in(fid);
    c.bench_function("analysis/backward_slice_pythia", |b| {
        b.iter(|| {
            for &br in &branches {
                std::hint::black_box(ctx.backward_slice(fid, br, SliceMode::Pythia));
            }
        })
    });
    c.bench_function("analysis/backward_slice_dfi", |b| {
        b.iter(|| {
            for &br in &branches {
                std::hint::black_box(ctx.backward_slice(fid, br, SliceMode::Dfi));
            }
        })
    });

    c.bench_function("analysis/full_report_gcc", |b| {
        b.iter(|| std::hint::black_box(VulnerabilityReport::analyze(&ctx)))
    });
}

/// The first `OverflowReach::compute` on a context (the pruner's) solves
/// every in-bounds proof; the second (the certifier's) finds each answer
/// in the context's proof memo and pays only its own taint/reach
/// fixpoint. Both start from a context whose context-sensitive solve is
/// already forced, so neither pays for it.
fn bench_reach(c: &mut Criterion) {
    let m = generate(profile_by_name("gcc").unwrap());
    let solved = || {
        let ctx = SliceContext::new(&m);
        ctx.ctx_points_to();
        ctx
    };
    let mut g = c.benchmark_group("reach");
    g.bench_function("first_gcc", |b| {
        b.iter_batched(
            solved,
            |ctx| OverflowReach::compute(&ctx),
            BatchSize::LargeInput,
        )
    });
    let warm = solved();
    OverflowReach::compute(&warm);
    g.bench_function("second_gcc", |b| b.iter(|| OverflowReach::compute(&warm)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_analysis, bench_reach
}
criterion_main!(benches);
