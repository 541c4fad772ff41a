//! Criterion bench for Sec. 8.2: end-to-end compile time (formulation +
//! ILP + planning + RTL) per evaluation algorithm at 320p.

use criterion::{criterion_group, criterion_main, Criterion};
use imagen_algos::Algorithm;
use imagen_core::Session;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};

fn bench_compile(c: &mut Criterion) {
    let geom = ImageGeometry::p320();
    let mut group = c.benchmark_group("compile_speed");
    for alg in Algorithm::all() {
        let dag = alg.build();
        let spec = MemorySpec::new(MemBackend::asic_default(), 2);
        group.bench_function(alg.name(), |b| {
            b.iter(|| {
                Session::new(std::hint::black_box(&dag), geom)
                    .compile(&spec, None)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);
