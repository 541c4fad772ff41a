//! Criterion bench for the RTL backend's netlist path: elaboration
//! (`build_netlist`), Verilog rendering (`emit_verilog`) and the
//! executable-netlist interpreter (`interpret`) on a representative
//! pipeline — the costs the compile and verification loops pay per
//! design.

use criterion::{criterion_group, criterion_main, Criterion};
use imagen_algos::{sample_pattern, Algorithm, TestPattern};
use imagen_core::Session;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_rtl::{build_netlist, emit_verilog, interpret, BitWidths};
use imagen_sim::Image;

fn bench_netlist(c: &mut Criterion) {
    let geom = ImageGeometry {
        width: 120,
        height: 80,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let out = Session::new(&Algorithm::UnsharpM.build(), geom)
        .compile(&spec, None)
        .unwrap();
    let input = Image::from_fn(geom.width, geom.height, |x, y| {
        sample_pattern(TestPattern::Noise, 3, x, y)
    });
    let net = build_netlist(&out.plan.dag, &out.plan.design, &BitWidths::default());

    let mut group = c.benchmark_group("netlist");
    group.sample_size(10);
    group.bench_function("build", |b| {
        b.iter(|| {
            build_netlist(
                std::hint::black_box(&out.plan.dag),
                std::hint::black_box(&out.plan.design),
                &BitWidths::default(),
            )
        })
    });
    group.bench_function("emit", |b| {
        b.iter(|| emit_verilog(std::hint::black_box(&net)))
    });
    group.bench_function("interpret", |b| {
        b.iter(|| {
            interpret(
                std::hint::black_box(&net),
                std::hint::black_box(std::slice::from_ref(&input)),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_netlist);
criterion_main!(benches);
