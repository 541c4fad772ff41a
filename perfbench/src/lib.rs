//! The ImaGen benchmark: seeded workloads over the compiler
//! (`compile_corpus`), the design-space explorer (`dse_sweep`) and the
//! compile server (`serve_mix`), each with a traced per-layer variant.

pub mod calib;
pub mod compile;
pub mod dse;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod stats;
