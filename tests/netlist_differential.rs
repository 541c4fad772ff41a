//! The differential verification loop: for every Tbl. 3 pipeline, the
//! netlist interpreter — executing the very structure the Verilog is
//! printed from — must be bit-exact against both the golden executor
//! (`imagen::sim::execute`) and the cycle-level simulator
//! (`imagen::sim::simulate`) on random frames.
//!
//! Two width regimes are exercised:
//!
//! * **wide** (`BitWidths::wide()`, 64/64): datapath arithmetic coincides
//!   with the software model's `i64` semantics, so equality is exact on
//!   full-range 8-bit inputs for every pipeline;
//! * **default** (16/32): the real truncating hardware; inputs are kept
//!   to 4 bits so no kernel intermediate leaves the 16-bit pixel
//!   datapath, making the hardware-width run comparable against the
//!   untruncated software model.
//!
//! `IMAGEN_SMOKE=1` shrinks frames and case counts for CI.

use imagen::algos::Algorithm;
use imagen::rtl::{build_netlist, interpret, BitWidths};
use imagen::sim::{execute, simulate, Image};
use imagen::{ImageGeometry, MemBackend, MemorySpec, Session};
use proptest::prelude::*;

fn smoke() -> bool {
    matches!(
        std::env::var("IMAGEN_SMOKE").ok().as_deref(),
        Some(v) if !v.is_empty() && v != "0" && v != "false" && v != "off"
    )
}

fn geom() -> ImageGeometry {
    // Height clears the tallest stencil (Xcorr-m's 18 rows) plus slack.
    if smoke() {
        ImageGeometry {
            width: 26,
            height: 22,
            pixel_bits: 16,
        }
    } else {
        ImageGeometry {
            width: 36,
            height: 26,
            pixel_bits: 16,
        }
    }
}

fn backend() -> MemBackend {
    MemBackend::Asic {
        block_bits: 2 * geom().row_bits(),
    }
}

/// Deterministic pseudo-random frame with `bits`-bit pixels.
fn noise_frame(seed: u64, bits: u32) -> Image {
    let g = geom();
    let mask = (1u64 << bits) - 1;
    Image::from_fn(g.width, g.height, |x, y| {
        let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(
            (u64::from(y) * u64::from(g.width) + u64::from(x)).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & mask) as i64
    })
}

/// Compiles `alg`, interprets its netlist at `widths` on `input`, and
/// checks the streamed frames bit-exact against golden and cycle model.
fn differential(alg: Algorithm, widths: &BitWidths, input: Image, label: &str) {
    let out = Session::new(&alg.build(), geom())
        .compile(&MemorySpec::new(backend(), 2).with_coalescing(), None)
        .unwrap_or_else(|e| panic!("{} ({label}): {e}", alg.name()));
    let golden = execute(&out.plan.dag, std::slice::from_ref(&input)).unwrap();
    let sim = simulate(
        &out.plan.dag,
        &out.plan.design,
        std::slice::from_ref(&input),
    )
    .unwrap();
    assert!(
        sim.is_clean(),
        "{} ({label}): cycle model unclean",
        alg.name()
    );

    let net = build_netlist(&out.plan.dag, &out.plan.design, widths);
    let run = interpret(&net, std::slice::from_ref(&input))
        .unwrap_or_else(|e| panic!("{} ({label}): {e}", alg.name()));

    assert_eq!(
        run.output_images.len(),
        sim.output_images.len(),
        "{} ({label})",
        alg.name()
    );
    for (stage, img) in &run.output_images {
        let gold = golden.stage(imagen::ir::StageId::from_index(*stage));
        assert_eq!(
            img,
            gold,
            "{} ({label}): netlist vs golden executor on stage {stage}",
            alg.name()
        );
        let (_, simg) = sim
            .output_images
            .iter()
            .find(|(i, _)| i == stage)
            .expect("stream present in the cycle model");
        assert_eq!(
            img,
            simg,
            "{} ({label}): netlist vs cycle simulator on stage {stage}",
            alg.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Wide widths, full-range 8-bit noise: every pipeline, bit-exact.
    #[test]
    fn wide_widths_bit_exact_on_full_range(seed in 0u64..1_000_000) {
        let algs = Algorithm::all();
        let algs: &[Algorithm] = if smoke() { &algs[..3] } else { &algs };
        for &alg in algs {
            differential(alg, &BitWidths::wide(), noise_frame(seed, 8), "wide");
        }
    }

    /// Default hardware widths, 4-bit inputs: no kernel intermediate
    /// escapes the 16-bit pixel datapath, so the truncating hardware
    /// agrees with the untruncated software model.
    #[test]
    fn default_widths_bit_exact_in_range(seed in 0u64..1_000_000) {
        let algs = Algorithm::all();
        let algs: &[Algorithm] = if smoke() { &algs[..3] } else { &algs };
        for &alg in algs {
            differential(alg, &BitWidths::default(), noise_frame(seed ^ 0xD1F7, 4), "default");
        }
    }
}

/// One deterministic non-proptest pass over all seven pipelines in both
/// regimes, so a plain `cargo test` exercises every algorithm even under
/// `IMAGEN_SMOKE=1` (the proptest cases subset for speed).
#[test]
fn all_pipelines_once_both_regimes() {
    for alg in Algorithm::all() {
        differential(alg, &BitWidths::wide(), noise_frame(1, 8), "wide-once");
        differential(
            alg,
            &BitWidths::default(),
            noise_frame(2, 4),
            "default-once",
        );
    }
}
