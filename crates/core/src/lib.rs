//! # imagen-core
//!
//! The [ImaGen] compiler (the full Fig. 5 flow): IR DAG in, schedule +
//! line-buffer configuration + synthesizable Verilog out.
//!
//! ```text
//! DSL ──front end──▶ DAG ──(line coalescing)──▶ constraints ──ILP──▶
//!   schedule ──▶ line-buffer config ──▶ RTL
//! ```
//!
//! The heavy lifting lives in the subsystem crates (`imagen-dsl`,
//! `imagen-schedule`, `imagen-mem`, `imagen-rtl`); this crate wires them
//! into one compile path, the memoizing [`Session`]: one DAG at one
//! geometry, compiled under any number of memory configurations. Every
//! phase emits an `imagen_obs` span (`plan.formulate`, `ilp.solve`,
//! `plan.realize`, `netlist.build`, `emit`, and `frontend.parse` /
//! `frontend.lower` from the front end) — the measurements behind the
//! paper's Sec. 8.2 compilation-speed results, shown by
//! `imagen compile --profile`.
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352
//!
//! # Examples
//!
//! ```
//! use imagen_core::Session;
//! use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
//!
//! let geom = ImageGeometry { width: 64, height: 48, pixel_bits: 16 };
//! let spec = MemorySpec::new(MemBackend::Asic { block_bits: 4096 }, 2);
//! let dag = imagen_dsl::compile("blur", "
//!     input raw;
//!     output blur = im(x,y)
//!         (raw(x-1,y) + 2*raw(x,y) + raw(x+1,y)) >> 2
//!     end
//! ")?;
//! let out = Session::new(&dag, geom).compile(&spec, None)?;
//! assert!(out.plan.design.sram_kb() > 0.0);
//! assert!(out.verilog.contains("module imagen_top_blur"));
//! # Ok::<(), imagen_core::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod session;

pub use session::{CompileCache, Session};

use imagen_dsl::DslError;
use imagen_schedule::{Plan, PlanError};
use std::fmt;

pub use imagen_schedule::SizeObjective;

/// Compilation failure: front end or optimizer.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// DSL parsing/lowering failed.
    Dsl(DslError),
    /// Scheduling/planning failed.
    Plan(PlanError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Dsl(e) => write!(f, "{e}"),
            CompileError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<DslError> for CompileError {
    fn from(e: DslError) -> Self {
        CompileError::Dsl(e)
    }
}

impl From<PlanError> for CompileError {
    fn from(e: PlanError) -> Self {
        CompileError::Plan(e)
    }
}

/// The result of a compilation.
#[derive(Clone, Debug)]
pub struct CompileOutput {
    /// The plan: working DAG, schedule, priced design.
    pub plan: Plan,
    /// The elaborated netlist the Verilog is printed from (shared with
    /// the session cache; also the input to `imagen_rtl::interpret` and
    /// `imagen_rtl::verify_all`).
    pub netlist: std::sync::Arc<imagen_rtl::Netlist>,
    /// Synthesizable Verilog for the design.
    pub verilog: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_algos::Algorithm;
    use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};

    fn small() -> (ImageGeometry, MemorySpec) {
        let geom = ImageGeometry {
            width: 48,
            height: 32,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            2,
        );
        (geom, spec)
    }

    #[test]
    fn all_algorithms_compile() {
        let (geom, spec) = small();
        for alg in Algorithm::all() {
            let out = Session::new(&alg.build(), geom)
                .compile(&spec, None)
                .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
            assert!(out.plan.design.sram_kb() > 0.0, "{}", alg.name());
            let report = imagen_rtl::verify_all(&out.netlist);
            assert!(report.is_clean(), "{} RTL: {:?}", alg.name(), report.errors);
        }
    }

    #[test]
    fn dsl_errors_surface() {
        let (geom, spec) = small();
        let err = imagen_dsl::compile("bad", "input a; output b = im(x,y) c(x,y) end")
            .map_err(CompileError::from)
            .and_then(|dag| Session::new(&dag, geom).compile(&spec, None));
        assert!(matches!(err, Err(CompileError::Dsl(_))));
    }
}
