//! Camera pipeline: compile the paper's Canny-m edge detector, run the
//! cycle-level simulator on a synthetic frame, and verify the design
//! sustains one pixel per cycle with bit-exact output — the Sec. 8.1
//! experiment in miniature, plus a side-by-side with the baselines.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example camera_pipeline
//! ```

use imagen::algos::{sample_pattern, Algorithm, TestPattern};
use imagen::baselines::{generate_darkroom, generate_fixynn, generate_soda};
use imagen::sim::{simulate, Image};
use imagen::{ImageGeometry, MemBackend, MemorySpec, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geom = ImageGeometry::p320();
    let backend = MemBackend::asic_default();
    let alg = Algorithm::CannyM;
    let dag = alg.build();

    println!("Compiling {} ({} stages)...", alg.name(), dag.num_stages());
    let ours = Session::new(&dag, geom).compile(&MemorySpec::new(backend, 2), None)?;

    // A deterministic synthetic frame: bars with impulse noise, the kind
    // of content an edge detector actually responds to.
    let frame = Image::from_fn(geom.width, geom.height, |x, y| {
        sample_pattern(TestPattern::Bars, 2023, x, y)
    });

    println!("Simulating {} cycles...", geom.pixels() + 2000);
    let report = simulate(&ours.plan.dag, &ours.plan.design, &[frame])?;
    println!(
        "  throughput        : {} px/cycle",
        report.throughput_px_per_cycle
    );
    println!("  port violations   : {}", report.port_violations.len());
    println!(
        "  residency faults  : {}",
        report.residency_violations.len()
    );
    println!("  bit-exact output  : {}", report.outputs_match_golden);
    println!("  frame latency     : {} cycles", report.latency);
    println!("  memory accesses   : {}", report.total_accesses);
    assert!(report.is_clean(), "the generated design must not stall");

    println!("\nBaseline comparison (same algorithm, same frame size):\n");
    println!(
        "{:10} {:>10} {:>8} {:>12}",
        "design", "SRAM KB", "blocks", "mem mW"
    );
    let fx = generate_fixynn(&dag, &geom, backend)?;
    let dk = generate_darkroom(&dag, &geom, backend)?;
    let soda = generate_soda(&dag, &geom, backend)?;
    for plan in [&fx, &dk, &soda, &ours.plan] {
        println!(
            "{:10} {:>10.1} {:>8} {:>12.2}",
            plan.design.style.label(),
            plan.design.sram_kb(),
            plan.design.block_count(),
            plan.design.memory_power_mw()
        );
    }
    Ok(())
}
