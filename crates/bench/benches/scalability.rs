//! Criterion bench for the Sec. 8.2 scalability sweep: compile time vs.
//! pipeline length on synthetic pipelines (a third multi-consumer).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imagen_algos::synthetic_pipeline;
use imagen_core::Session;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};

fn bench_scalability(c: &mut Criterion) {
    let geom = ImageGeometry::p320();
    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(6));
    for stages in [9usize, 18, 30] {
        let dag = synthetic_pipeline(stages, 2023);
        let spec = MemorySpec::new(MemBackend::asic_default(), 2);
        group.bench_with_input(BenchmarkId::from_parameter(stages), &dag, |b, dag| {
            b.iter(|| {
                Session::new(std::hint::black_box(dag), geom)
                    .compile(&spec, None)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
