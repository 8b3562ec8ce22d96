//! Criterion counterpart of the **route_bench** experiment: per-stage
//! micro-benchmarks of the route-engine hot path (CSR + pooled arena A*,
//! in-place RDP, end-to-end `impute`) against the naive oracle
//! (`habit_core::reference`) on the KIEL corridor.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use eval::experiments::Bench;
use geo_kernel::{
    rdp_indices_reference, rdp_timed_in_place, resample_timed_max_spacing, GeoPoint, RdpScratch,
    TimedPoint,
};
use habit_core::{reference::Reference, HabitConfig, HabitModel};
use std::hint::black_box;

fn bench_route_stages(c: &mut Criterion) {
    std::env::set_var("HABIT_EVAL_SCALE", "0.3");
    let bench = Bench::kiel(42);
    let cases = bench.gap_cases(3600, 42);
    assert!(!cases.is_empty(), "need gap cases");

    let config = HabitConfig::with_r_t(9, 100.0);
    let train_table = ais::trips_to_table(&bench.train);
    let model = HabitModel::fit(&train_table, config).expect("fit");
    let reference = Reference::thaw(&model);

    // Snapped endpoint cells: stage benches isolate the search itself.
    let pairs: Vec<_> = cases
        .iter()
        .filter_map(|case| {
            let (s, _) = model.snap(&case.query.start.pos).ok()?;
            let (g, _) = model.snap(&case.query.end.pos).ok()?;
            Some((s, g))
        })
        .collect();
    assert!(!pairs.is_empty(), "need snappable cell pairs");

    let mut group = c.benchmark_group("route_search");
    group.bench_function("naive_digraph", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (s, g) = pairs[i % pairs.len()];
            i += 1;
            black_box(reference.route_between(s, g).ok())
        })
    });
    group.bench_function("csr_arena", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (s, g) = pairs[i % pairs.len()];
            i += 1;
            black_box(model.route_between(s, g).ok())
        })
    });
    group.finish();

    // Dense, realistic polylines for the simplification stage.
    let dense: Vec<Vec<TimedPoint>> = cases
        .iter()
        .map(|case| resample_timed_max_spacing(&case.truth, 25.0))
        .filter(|p| p.len() >= 3)
        .collect();
    assert!(!dense.is_empty(), "need dense polylines");
    let tol_m = config.rdp_tolerance_m;

    let mut group = c.benchmark_group("rdp_simplify");
    group.bench_function("recursive_reference", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let path = &dense[i % dense.len()];
            i += 1;
            let positions: Vec<GeoPoint> = path.iter().map(|p| p.pos).collect();
            black_box(rdp_indices_reference(&positions, tol_m))
        })
    });
    group.bench_function("in_place_kernel", |b| {
        let mut i = 0usize;
        let mut scratch = RdpScratch::new();
        b.iter_batched(
            || {
                let path = dense[i % dense.len()].clone();
                i += 1;
                path
            },
            |mut path| {
                rdp_timed_in_place(&mut path, tol_m, &mut scratch);
                black_box(path)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();

    let mut group = c.benchmark_group("impute_end_to_end");
    group.bench_function("naive", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let case = &cases[i % cases.len()];
            i += 1;
            black_box(reference.impute(&case.query).ok())
        })
    });
    group.bench_function("hot_path", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let case = &cases[i % cases.len()];
            i += 1;
            black_box(model.impute(&case.query).ok())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_route_stages
}
criterion_main!(benches);
