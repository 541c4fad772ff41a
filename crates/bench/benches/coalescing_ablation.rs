//! Ablation bench for the Sec. 6 line-coalescing rewrite and the exact
//! (`TotalRows`) vs. paper (`TotalDelay`) objective: compile-time cost of
//! each design choice DESIGN.md calls out.

use criterion::{criterion_group, criterion_main, Criterion};
use imagen_algos::Algorithm;
use imagen_core::Session;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_schedule::{ScheduleOptions, SizeObjective};

fn bench_coalescing(c: &mut Criterion) {
    let geom = ImageGeometry::p320();
    let mut group = c.benchmark_group("coalescing_ablation");
    group.sample_size(20);
    let dag = Algorithm::CannyS.build();
    let plain = MemorySpec::new(MemBackend::asic_default(), 2);
    let lc = MemorySpec::new(MemBackend::asic_default(), 2).with_coalescing();

    group.bench_function("canny_s_plain", |b| {
        b.iter(|| {
            Session::new(std::hint::black_box(&dag), geom)
                .compile(&plain, None)
                .unwrap()
        })
    });
    group.bench_function("canny_s_coalesced", |b| {
        b.iter(|| {
            Session::new(std::hint::black_box(&dag), geom)
                .compile(&lc, None)
                .unwrap()
        })
    });
    group.bench_function("canny_s_exact_rows_objective", |b| {
        b.iter(|| {
            Session::new(std::hint::black_box(&dag), geom)
                .with_options(ScheduleOptions {
                    objective: SizeObjective::TotalRows,
                    ..Default::default()
                })
                .compile(&plain, None)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_coalescing);
criterion_main!(benches);
