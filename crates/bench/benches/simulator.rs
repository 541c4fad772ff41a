//! Criterion bench for the cycle-level simulator (the paper's ASIC
//! evaluation backend): cycles per second on a representative pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use imagen_algos::{sample_pattern, Algorithm, TestPattern};
use imagen_core::Session;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_sim::{simulate, Image};

fn bench_sim(c: &mut Criterion) {
    let geom = ImageGeometry {
        width: 120,
        height: 80,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(6));
    for alg in [Algorithm::UnsharpM, Algorithm::CannyM] {
        let out = Session::new(&alg.build(), geom)
            .compile(&spec, None)
            .unwrap();
        let input = Image::from_fn(geom.width, geom.height, |x, y| {
            sample_pattern(TestPattern::Noise, 1, x, y)
        });
        group.bench_function(alg.name(), |b| {
            b.iter(|| {
                simulate(
                    std::hint::black_box(&out.plan.dag),
                    std::hint::black_box(&out.plan.design),
                    std::hint::black_box(std::slice::from_ref(&input)),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
