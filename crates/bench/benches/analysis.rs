//! Analysis-pipeline benchmarks: points-to, branch decomposition, the
//! full vulnerability report, the overflow-reach fixpoint and the two
//! per-function dataflow solves (intervals, reaching stores) over a large
//! generated benchmark.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pythia_analysis::{
    value_ranges, value_ranges_seeded, Interval, OverflowReach, PointsTo, ReachingStores,
    SliceContext, SliceMode, VulnerabilityReport,
};
use pythia_ir::{FuncId, ValueId};
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

/// The interval fixpoint over every gcc function: unseeded, and under
/// each distinct seed list the pruner's in-bounds proofs solve with.
fn bench_intervals(c: &mut Criterion) {
    let m = generate(profile_by_name("gcc").unwrap());
    let ctx = SliceContext::new(&m);
    OverflowReach::compute(&ctx);
    let mut seeded: Vec<(FuncId, Vec<(ValueId, Interval)>)> = Vec::new();
    for a in ctx.proof_answers() {
        let key = (a.func, a.seeds);
        if !seeded.contains(&key) {
            seeded.push(key);
        }
    }
    seeded.sort_by_key(|(fid, _)| *fid);
    let mut g = c.benchmark_group("intervals");
    g.bench_function("value_ranges_gcc", |b| {
        b.iter(|| {
            for f in m.functions() {
                std::hint::black_box(value_ranges(f));
            }
        })
    });
    g.bench_function("value_ranges_seeded_gcc", |b| {
        b.iter(|| {
            for (fid, seeds) in &seeded {
                std::hint::black_box(value_ranges_seeded(m.func(*fid), seeds));
            }
        })
    });
    g.finish();
}

/// Reaching stores over every gcc function, with the points-to sets as
/// the store-to-object map (the dead-store pass's question).
fn bench_reaching(c: &mut Criterion) {
    let m = generate(profile_by_name("gcc").unwrap());
    let pt = PointsTo::analyze(&m);
    let mut g = c.benchmark_group("reaching");
    g.bench_function("compute_gcc", |b| {
        b.iter(|| {
            for (i, f) in m.functions().iter().enumerate() {
                let fid = FuncId(i as u32);
                std::hint::black_box(ReachingStores::compute(f, |v| {
                    let p = pt.points_to(fid, v);
                    if p.unknown {
                        Vec::new()
                    } else {
                        p.objects.iter().copied().collect()
                    }
                }));
            }
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_analysis, bench_reach, bench_intervals, bench_reaching
}
criterion_main!(benches);
