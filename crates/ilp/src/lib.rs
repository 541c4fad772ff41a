//! # imagen-ilp
//!
//! Exact integer linear programming for the [ImaGen] accelerator generator.
//!
//! The ImaGen optimizer (ISCA 2023, Sec. 5.5) formulates line-buffer
//! scheduling as an ILP and hands it to a solver; the original system used
//! Google OR-Tools. This crate provides the solving substrate built from
//! scratch in Rust:
//!
//! * [`Rational`] — exact rational arithmetic on `i128`;
//! * [`Model`] — a mixed-integer model builder with [`LinExpr`] expressions;
//! * a two-phase primal **simplex** ([`Model::solve_lp`]) over one dense
//!   tableau and Bland's rule, exact either way: over checked `i64` when
//!   the model is an integral network model (every row at most one `+1`
//!   and one `−1`, as all of ImaGen's schedule ILPs are), whose totally
//!   unimodular matrix keeps every tableau entry in {−1, 0, 1}, and over
//!   [`Rational`] otherwise — both take the same pivots;
//! * **branch and bound** on top ([`Model::solve`]) — for the
//!   totally-unimodular difference systems ImaGen emits, the relaxation is
//!   already integral and the search terminates at the root node;
//! * [`DiffSystem`] — a specialized longest-path solver for pure
//!   difference-constraint systems, used for fast feasibility checks,
//!   ASAP schedules, and as an independent cross-check of the simplex.
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352
//!
//! # Examples
//!
//! A miniature scheduling problem (two consumers of one producer, image
//! width 480, stencil height 3, à la the paper's Fig. 6):
//!
//! ```
//! use imagen_ilp::{LinExpr, Model, Sense};
//!
//! let mut m = Model::new("fig6");
//! let s0 = m.add_int_var("S_K0");
//! let s1 = m.add_int_var("S_K1");
//! let s2 = m.add_int_var("S_K2");
//! let w = 480i64;
//! // Data dependencies (Equ. 1b): S_c - S_p >= (SH-1)*W + 1.
//! m.add_diff_ge(s1, s0, 2 * w + 1, "dep_K0_K1");
//! m.add_diff_ge(s2, s1, 2 * w + 1, "dep_K1_K2");
//! // Contention (Equ. 12): the surviving pruned pair constraint.
//! m.add_diff_ge(s2, s0, 3 * w, "port_K0_K2");
//! // Minimize total buffering: here simply S_1 + S_2 - 2*S_0.
//! m.set_objective(
//!     Sense::Minimize,
//!     LinExpr::from(s1) + LinExpr::from(s2) - LinExpr::from(s0) * 2,
//! );
//! let sol = m.solve()?;
//! assert_eq!(sol.int_value(s1), 961);
//! assert_eq!(sol.int_value(s2), 1922);
//! # Ok::<(), imagen_ilp::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod diff;
mod model;
mod rational;
mod simplex;
pub mod stats;

pub use branch_bound::{SolveStats, DEFAULT_NODE_LIMIT};
pub use diff::{DiffSystem, PositiveCycle};
pub use model::{Cmp, Constraint, LinExpr, Model, Sense, VarId};
pub use rational::Rational;
pub use simplex::{Solution, SolveError};
