//! Backward-slicing benchmark: every Pythia-mode branch slice of the
//! nginx module, each query a full traversal on a fresh `SliceContext`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pythia_analysis::{SliceContext, SliceMode};
use pythia_workloads::nginx_module;

fn bench_slicing(c: &mut Criterion) {
    let m = nginx_module(60);
    let ctx = SliceContext::new(&m);
    let targets: Vec<_> = m
        .func_ids()
        .flat_map(|fid| ctx.branches_in(fid).into_iter().map(move |br| (fid, br)))
        .collect();
    assert!(!targets.is_empty());

    let mut group = c.benchmark_group("slicing");
    group.sample_size(10);

    group.bench_function("backward_slice_cold", |b| {
        b.iter_batched(
            || SliceContext::new(&m),
            |fresh| {
                for &(fid, br) in &targets {
                    std::hint::black_box(fresh.backward_slice(fid, br, SliceMode::Pythia));
                }
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_slicing);
criterion_main!(benches);
