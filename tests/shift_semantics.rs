//! Pins the reconciled out-of-range shift semantics across every
//! executable layer.
//!
//! History: `Expr::eval` (golden executor, cycle simulator) and the
//! netlist interpreter used to *clamp* shift amounts to `0..=62`, while
//! the emitted Verilog's `<<<`/`>>>` treat the amount as unsigned — a
//! negative or `>= 64` amount shifts everything out (`0` for `<<<`, the
//! sign fill for `>>>`). Constant kernel shifts never hit the divergent
//! region, but a *data-dependent* amount (`a(x,y) >> b(x,y)`) silently
//! meant different hardware than the model claimed.
//!
//! The resolution adopts the hardware semantics everywhere. This test
//! compiles a pipeline whose shift amounts are pixel data sweeping far
//! out of range in both directions and requires the golden executor,
//! the cycle-level simulator and the netlist interpreter (the executable
//! form of the emitted Verilog) to agree bit for bit at wide widths —
//! where datapath arithmetic coincides with the `i64` model and any
//! clamp-vs-Verilog difference would show up verbatim.

use imagen::ir::BinOp;
use imagen::rtl::{build_netlist, interpret, BitWidths};
use imagen::sim::{execute, simulate, Image};
use imagen::{ImageGeometry, MemBackend, MemorySpec, Session};

const SRC: &str = "
    input a;
    // Both shift directions with data-dependent amounts drawn from the
    // neighboring pixels.
    output s = im(x,y) (a(x-1,y) << a(x,y)) + (a(x,y-1) >> a(x,y)) end
";

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 24,
        height: 18,
        pixel_bits: 16,
    }
}

/// Pixel stream containing in-range, boundary, and far out-of-range shift
/// amounts, positive and negative operand values.
fn amounts_frame() -> Image {
    let g = geom();
    let probes: [i64; 12] = [0, 1, 5, 62, 63, 64, 65, 100, -1, -2, -63, -4096];
    Image::from_fn(g.width, g.height, |x, y| {
        let i = (y * g.width + x) as usize;
        // Interleave probe amounts with signed values to shift.
        if i.is_multiple_of(2) {
            probes[(i / 2) % probes.len()]
        } else {
            let v = (i as i64).wrapping_mul(2654435761) % 1000;
            if i.is_multiple_of(3) {
                -v
            } else {
                v
            }
        }
    })
}

#[test]
fn data_dependent_shifts_agree_everywhere() {
    let dag = imagen::dsl::compile("shifts", SRC).unwrap();
    // The kernel really contains both shift operators.
    let kernel = dag
        .stages()
        .find_map(|(_, s)| s.kernel())
        .expect("compute stage")
        .clone();
    let mut ops = Vec::new();
    fn walk(e: &imagen::ir::Expr, ops: &mut Vec<BinOp>) {
        if let imagen::ir::Expr::Bin(op, a, b) = e {
            ops.push(*op);
            walk(a, ops);
            walk(b, ops);
        }
    }
    walk(&kernel, &mut ops);
    assert!(ops.contains(&BinOp::Shl) && ops.contains(&BinOp::Shr));

    let spec = MemorySpec::new(
        MemBackend::Asic {
            block_bits: 2 * geom().row_bits(),
        },
        2,
    );
    let out = Session::new(&dag, geom()).compile(&spec, None).unwrap();
    let input = amounts_frame();

    let golden = execute(&out.plan.dag, std::slice::from_ref(&input)).unwrap();
    let sim = simulate(
        &out.plan.dag,
        &out.plan.design,
        std::slice::from_ref(&input),
    )
    .unwrap();
    assert!(sim.is_clean());

    let net = build_netlist(&out.plan.dag, &out.plan.design, &BitWidths::wide());
    let run = interpret(&net, std::slice::from_ref(&input)).unwrap();

    assert!(!run.output_images.is_empty());
    for (stage, img) in &run.output_images {
        let gold = golden.stage(imagen::ir::StageId::from_index(*stage));
        assert_eq!(img, gold, "netlist vs golden executor on stage {stage}");
        let (_, simg) = sim
            .output_images
            .iter()
            .find(|(i, _)| i == stage)
            .expect("stream present in the cycle model");
        assert_eq!(img, simg, "netlist vs cycle simulator on stage {stage}");
    }

    // And the divergent region was actually exercised: some amount in the
    // frame is out of range on both sides.
    let vals: Vec<i64> = input.data().to_vec();
    assert!(vals.iter().any(|&v| v > 63));
    assert!(vals.iter().any(|&v| v < 0));
}

/// The emitted text renders shifts as plain Verilog shifts — the very
/// semantics the model now implements. Pin the rendering so a future
/// emitter change cannot silently reopen the gap.
#[test]
fn emitted_text_uses_plain_verilog_shifts() {
    let dag = imagen::dsl::compile("shifts", SRC).unwrap();
    let spec = MemorySpec::new(
        MemBackend::Asic {
            block_bits: 2 * geom().row_bits(),
        },
        2,
    );
    let out = Session::new(&dag, geom()).compile(&spec, None).unwrap();
    let shift_lines: Vec<&str> = out
        .verilog
        .lines()
        .filter(|l| l.contains("<<<") || l.contains(">>>"))
        .collect();
    assert!(
        shift_lines.iter().any(|l| l.contains("<<<")),
        "arithmetic shift left rendered"
    );
    assert!(
        shift_lines.iter().any(|l| l.contains(">>>")),
        "arithmetic shift right rendered"
    );
    for line in shift_lines {
        assert!(
            !line.contains('?'),
            "shift rendered with a guarding ternary — the emitted semantics \
             changed; update the model and this pin together: {line}"
        );
    }
}
