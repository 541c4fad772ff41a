//! Seeded workload inputs. Everything a run feeds the program is built
//! here from `--seed`, so one seed always yields byte-identical inputs
//! (see [`CompileInputs::bytes`] and friends, pinned by the determinism
//! self-test).

use crate::stats::Rng;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_sim::Image;

/// The hand-written example corpus (`examples/*.imagen`), compiled in.
pub const EXAMPLES: [(&str, &str); 10] = [
    ("canny_m", include_str!("../../examples/canny_m.imagen")),
    ("canny_s", include_str!("../../examples/canny_s.imagen")),
    ("denoise_m", include_str!("../../examples/denoise_m.imagen")),
    (
        "gaussian_pyramid",
        include_str!("../../examples/gaussian_pyramid.imagen"),
    ),
    ("harris_m", include_str!("../../examples/harris_m.imagen")),
    ("harris_s", include_str!("../../examples/harris_s.imagen")),
    (
        "laplacian_pyramid",
        include_str!("../../examples/laplacian_pyramid.imagen"),
    ),
    ("sobel", include_str!("../../examples/sobel.imagen")),
    ("unsharp_m", include_str!("../../examples/unsharp_m.imagen")),
    ("xcorr_m", include_str!("../../examples/xcorr_m.imagen")),
];

/// One pipeline as DSL text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Row label and DSL pipeline name.
    pub name: String,
    /// DSL source.
    pub source: String,
    /// True for `examples/*.imagen`, false for seeded synthetic ones.
    pub example: bool,
}

/// The example corpus as [`Program`]s.
pub fn examples() -> Vec<Program> {
    EXAMPLES
        .iter()
        .map(|(name, src)| Program {
            name: name.to_string(),
            source: src.to_string(),
            example: true,
        })
        .collect()
}

/// A seeded Sec. 8.2-style synthetic pipeline of `stages` stages,
/// printed back to DSL text so it enters through the front end like any
/// user program.
pub fn synthetic(label: &str, stages: usize, seed: u64) -> Program {
    let dag = imagen_algos::synthetic_pipeline(stages, seed);
    Program {
        name: label.to_string(),
        source: imagen_dsl::to_dsl(&dag),
        example: false,
    }
}

/// A 16-bit frame geometry.
pub fn geom(width: u32, height: u32) -> ImageGeometry {
    ImageGeometry {
        width,
        height,
        pixel_bits: 16,
    }
}

/// The memory spec every compile uses: the CLI's defaults (32 Kbit ASIC
/// macros, dual-port, no coalescing), so in-process compiles and server
/// compiles price identical designs.
pub fn default_spec() -> MemorySpec {
    MemorySpec::new(MemBackend::Asic { block_bits: 32768 }, 2)
}

/// Seeded noise frames, one per input stream, with `bits`-bit pixels.
pub fn noise_frames(n_inputs: usize, g: &ImageGeometry, seed: u64, bits: u32) -> Vec<Image> {
    (0..n_inputs)
        .map(|i| {
            let s = seed.wrapping_add(i as u64);
            Image::from_fn(g.width, g.height, move |x, y| {
                imagen_algos::noise_bits(s, x, y, bits)
            })
        })
        .collect()
}

fn push_program(out: &mut Vec<u8>, p: &Program) {
    out.extend_from_slice(p.name.as_bytes());
    out.push(0);
    out.extend_from_slice(p.source.as_bytes());
    out.push(0);
}

fn push_geom(out: &mut Vec<u8>, g: &ImageGeometry) {
    out.extend_from_slice(format!("{}x{}x{};", g.width, g.height, g.pixel_bits).as_bytes());
}

/// Synthetic sizes of `compile_corpus`: the Sec. 8.2 scalability range.
pub const COMPILE_SYNTHETIC_STAGES: [usize; 6] = [9, 18, 27, 36, 48, 60];

/// Fixed-seed variants per synthetic size in the timed corpus.
pub const COMPILE_SYNTHETIC_VARIANTS: u64 = 2;

/// The timed synthetic set: [`COMPILE_SYNTHETIC_VARIANTS`] fixed-seed
/// pipelines per size. Compile cost varies several-fold between random
/// pipelines of one size, so the timed set stays the same for every
/// `--seed` and run-to-run figures compare like with like; the seed
/// draws fresh pipelines of every size for the correctness gates
/// instead ([`CompileInputs::seeded`]).
fn fixed_synthetics() -> Vec<Program> {
    COMPILE_SYNTHETIC_STAGES
        .iter()
        .flat_map(|&stages| {
            (0..COMPILE_SYNTHETIC_VARIANTS).map(move |v| {
                let label = format!("synthetic{stages}{}", (b'a' + v as u8) as char);
                synthetic(&label, stages, v + 1)
            })
        })
        .collect()
}

/// `compile_corpus` inputs: programs × geometries, visited in seeded
/// rounds (every pair once per round).
#[derive(Clone, Debug)]
pub struct CompileInputs {
    /// The timed corpus: examples, then the fixed synthetic set.
    pub programs: Vec<Program>,
    /// Seed-drawn synthetic pipelines, one per size: compiled and gated
    /// during set-up, not timed.
    pub seeded: Vec<Program>,
    /// Geometries, smallest first.
    pub geoms: Vec<ImageGeometry>,
    seed: u64,
}

impl CompileInputs {
    /// Builds the inputs of `seed`.
    pub fn generate(seed: u64) -> CompileInputs {
        let mut rng = Rng::new(seed, 1);
        let mut programs = examples();
        programs.extend(fixed_synthetics());
        let seeded = COMPILE_SYNTHETIC_STAGES
            .iter()
            .map(|&stages| synthetic(&format!("seeded{stages}"), stages, rng.next_u64()))
            .collect();
        CompileInputs {
            programs,
            seeded,
            geoms: vec![geom(160, 120), geom(1920, 1080)],
            seed,
        }
    }

    /// The `(program, geometry)` visiting order of round `round`.
    pub fn round(&self, round: u64) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = (0..self.programs.len())
            .flat_map(|p| (0..self.geoms.len()).map(move |g| (p, g)))
            .collect();
        Rng::new(self.seed, 1000 + round).shuffle(&mut pairs);
        pairs
    }

    /// Canonical bytes of everything the program is fed (the first
    /// rounds' order included).
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.programs.iter().for_each(|p| push_program(&mut out, p));
        self.seeded.iter().for_each(|p| push_program(&mut out, p));
        self.geoms.iter().for_each(|g| push_geom(&mut out, g));
        for r in 0..4 {
            for (p, g) in self.round(r) {
                out.extend_from_slice(format!("{p},{g};").as_bytes());
            }
        }
        out
    }
}

/// Stages of the seeded synthetic pipeline `dse_sweep` adds to the
/// example corpus (at most 9 buffered stages, like every swept one).
pub const DSE_SYNTHETIC_STAGES: usize = 9;

/// Most buffered stages a `dse_sweep` pipeline may have (2^9 points).
pub const DSE_MAX_BUFFERED: usize = 9;

/// `dse_sweep` inputs: every example with at most
/// [`DSE_MAX_BUFFERED`] buffered stages plus one fixed-seed synthetic
/// pipeline, swept at one small geometry in seeded rounds, and one
/// seed-drawn synthetic pipeline swept and gated during set-up.
#[derive(Clone, Debug)]
pub struct DseInputs {
    /// The timed pipelines.
    pub programs: Vec<Program>,
    /// The seed-drawn pipeline (set-up gates only).
    pub seeded: Program,
    /// Sweep geometry.
    pub geom: ImageGeometry,
    seed: u64,
}

impl DseInputs {
    /// Builds the inputs of `seed`.
    pub fn generate(seed: u64) -> DseInputs {
        let mut rng = Rng::new(seed, 2);
        let mut programs: Vec<Program> = examples()
            .into_iter()
            .filter(|p| {
                imagen_dsl::compile(&p.name, &p.source)
                    .map(|d| d.buffered_stages().len() <= DSE_MAX_BUFFERED)
                    .unwrap_or(false)
            })
            .collect();
        programs.push(synthetic("synthetic9", DSE_SYNTHETIC_STAGES, 1));
        DseInputs {
            programs,
            seeded: synthetic("seeded9", DSE_SYNTHETIC_STAGES, rng.next_u64()),
            geom: geom(64, 48),
            seed,
        }
    }

    /// Pipeline order of round `round`; each pipeline's measured and
    /// priced sweeps run back to back, the measured one first on odd
    /// draws.
    pub fn round(&self, round: u64) -> Vec<(usize, bool)> {
        let mut rng = Rng::new(self.seed, 2000 + round);
        let mut order: Vec<usize> = (0..self.programs.len()).collect();
        rng.shuffle(&mut order);
        order
            .into_iter()
            .map(|p| (p, rng.next_u64() & 1 == 1))
            .collect()
    }

    /// Canonical bytes of everything the program is fed.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.programs.iter().for_each(|p| push_program(&mut out, p));
        push_program(&mut out, &self.seeded);
        push_geom(&mut out, &self.geom);
        for r in 0..4 {
            for (p, m) in self.round(r) {
                out.extend_from_slice(format!("{p},{m};").as_bytes());
            }
        }
        out
    }
}
