//! Two-phase primal simplex, exact over rationals — or over `i64` when
//! the model is a network model.
//!
//! The solver is deliberately straightforward: one dense row-major
//! tableau and Bland's rule, which guarantees termination under
//! degeneracy. The ImaGen scheduling problems are small (tens of
//! variables, a few hundred constraints) and every optimality and
//! integrality decision must be exact, so there is no floating point.
//!
//! The tableau is generic over a private scalar trait with two
//! instantiations, and [`solve_lp`] picks one per model:
//!
//! * **`i64`** when the model proves it safe: every constraint row has at
//!   most one `+1` and at most one `−1` coefficient and no other nonzero,
//!   every (bound-shifted) right-hand side and every cost is integral, and
//!   `max(n_art, Σ|c|) · (1 + Σ|b|) < 2^62`. The constraint matrix is then
//!   the transpose of a graph incidence matrix plus unit bound rows and
//!   slack/artificial identity columns — totally unimodular — so every
//!   basis has determinant ±1. By Cramer's rule every tableau entry and
//!   every pivot element is −1, 0 or 1, every right-hand side is bounded
//!   by `Σ|b|`, every reduced cost by `Σ|c|`, and the objective value by
//!   their product: the rational tableau would hold exactly these
//!   integers with denominator 1, so the `i64` one takes the same pivots
//!   and returns the same solution. Its arithmetic stays checked; a
//!   non-unit pivot or an overflow panics, as a rational overflow does.
//!   Every schedule ILP of the default `TotalDelay` objective is such a
//!   difference system.
//! * **[`Rational`]** for everything else (the exact-rows objective,
//!   general branch and bound).
//!
//! The tableau is built straight from the model's sparse constraints,
//! and a pivot updates the other rows over the pivot row's nonzero
//! columns only.

use crate::model::{Cmp, Model, Sense};
use crate::Rational;
use std::cmp::Ordering;
use std::fmt;

/// Errors produced by the LP/ILP solvers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SolveError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// Branch-and-bound exceeded its node budget.
    NodeLimit(usize),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
            SolveError::NodeLimit(n) => {
                write!(f, "branch-and-bound node limit of {n} exceeded")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal assignment returned by the solvers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Solution {
    pub(crate) values: Vec<Rational>,
    pub(crate) objective: Rational,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, v: crate::VarId) -> Rational {
        self.values[v.index()]
    }

    /// Integer value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the value is not integral (cannot happen for solutions
    /// returned by [`Model::solve`] on integer variables) or does not fit
    /// in an `i64` — a silent wrapping cast here would hand the scheduler
    /// garbage start cycles.
    #[track_caller]
    pub fn int_value(&self, v: crate::VarId) -> i64 {
        let value = self.values[v.index()]
            .to_integer()
            .expect("variable value is not integral");
        i64::try_from(value)
            .unwrap_or_else(|_| panic!("variable value {value} does not fit in an i64"))
    }

    /// The optimal objective value.
    pub fn objective_value(&self) -> Rational {
        self.objective
    }

    /// All variable values, indexed by [`crate::VarId::index`].
    pub fn values(&self) -> &[Rational] {
        &self.values
    }
}

/// The tableau's number type: exact, with panicking overflow.
trait Scalar: Copy + PartialEq + fmt::Debug {
    const ZERO: Self;
    const ONE: Self;
    fn from_rational(r: Rational) -> Self;
    fn to_rational(self) -> Rational;
    fn is_zero(self) -> bool;
    fn is_positive(self) -> bool;
    fn is_negative(self) -> bool;
    fn neg(self) -> Self;
    fn add(self, rhs: Self) -> Self;
    fn mul(self, rhs: Self) -> Self;
    /// `self − a·b`.
    fn sub_mul(self, a: Self, b: Self) -> Self;
    /// Reciprocal of a (nonzero) pivot element.
    fn recip(self) -> Self;
    /// Compares the ratios `n1 / d1` and `n2 / d2` (`d1, d2 > 0`).
    fn ratio_cmp(n1: Self, d1: Self, n2: Self, d2: Self) -> Ordering;
}

impl Scalar for Rational {
    const ZERO: Self = Rational::ZERO;
    const ONE: Self = Rational::ONE;
    fn from_rational(r: Rational) -> Self {
        r
    }
    fn to_rational(self) -> Rational {
        self
    }
    fn is_zero(self) -> bool {
        Rational::is_zero(&self)
    }
    fn is_positive(self) -> bool {
        Rational::is_positive(&self)
    }
    fn is_negative(self) -> bool {
        Rational::is_negative(&self)
    }
    fn neg(self) -> Self {
        -self
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    fn sub_mul(self, a: Self, b: Self) -> Self {
        self - a * b
    }
    fn recip(self) -> Self {
        Rational::recip(&self)
    }
    fn ratio_cmp(n1: Self, d1: Self, n2: Self, d2: Self) -> Ordering {
        (n1 / d1).cmp(&(n2 / d2))
    }
}

#[cold]
#[track_caller]
fn int_overflow(op: &str, a: i64, b: i64) -> ! {
    panic!("integer simplex overflow: {a} {op} {b}")
}

impl Scalar for i64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    fn from_rational(r: Rational) -> Self {
        let v = r
            .to_integer()
            .unwrap_or_else(|| panic!("integer tableau fed the fraction {r}"));
        i64::try_from(v)
            .unwrap_or_else(|_| panic!("integer tableau value {v} does not fit in an i64"))
    }
    fn to_rational(self) -> Rational {
        Rational::from(self)
    }
    fn is_zero(self) -> bool {
        self == 0
    }
    fn is_positive(self) -> bool {
        self > 0
    }
    fn is_negative(self) -> bool {
        self < 0
    }
    fn neg(self) -> Self {
        self.checked_neg()
            .unwrap_or_else(|| int_overflow("negated", self, -1))
    }
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs)
            .unwrap_or_else(|| int_overflow("+", self, rhs))
    }
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul(rhs)
            .unwrap_or_else(|| int_overflow("*", self, rhs))
    }
    fn sub_mul(self, a: Self, b: Self) -> Self {
        self.checked_sub(a.mul(b))
            .unwrap_or_else(|| int_overflow("-", self, a.saturating_mul(b)))
    }
    fn recip(self) -> Self {
        match self {
            1 | -1 => self,
            _ => panic!(
                "integer tableau pivot {self} is not a unit: the model is not totally unimodular"
            ),
        }
    }
    fn ratio_cmp(n1: Self, d1: Self, n2: Self, d2: Self) -> Ordering {
        (i128::from(n1) * i128::from(d2)).cmp(&(i128::from(n2) * i128::from(d1)))
    }
}

/// Which scalar [`solve_lp`] runs a model's tableau over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ScalarKind {
    /// Checked `i64`: a network model within the overflow bound.
    Int,
    /// Exact rationals: any model.
    Rational,
}

/// Where a tableau row comes from.
#[derive(Clone, Copy, Debug)]
enum RowSource {
    /// The model constraint with this index.
    Constraint(usize),
    /// The upper bound of the variable with this index.
    Upper(usize),
}

/// One tableau row before it is laid out: its source, and its
/// comparison and right-hand side after the lower-bound shift and the
/// sign normalization (`rhs ≥ 0`; `negate` flips the coefficients).
#[derive(Clone, Copy, Debug)]
struct RowSpec {
    source: RowSource,
    cmp: Cmp,
    rhs: Rational,
    negate: bool,
}

impl RowSpec {
    fn normalized(source: RowSource, cmp: Cmp, rhs: Rational) -> RowSpec {
        if rhs.is_negative() {
            let cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
            RowSpec {
                source,
                cmp,
                rhs: -rhs,
                negate: true,
            }
        } else {
            RowSpec {
                source,
                cmp,
                rhs,
                negate: false,
            }
        }
    }

    fn has_slack(&self) -> bool {
        matches!(self.cmp, Cmp::Le | Cmp::Ge)
    }

    fn has_artificial(&self) -> bool {
        matches!(self.cmp, Cmp::Ge | Cmp::Eq)
    }
}

/// The model's rows: constraints (right-hand sides shifted so every
/// structural column is `≥ 0`), then one row per finite upper bound.
fn row_specs(model: &Model) -> Vec<RowSpec> {
    let mut rows = Vec::with_capacity(model.constraints.len());
    for (k, c) in model.constraints.iter().enumerate() {
        let mut shift = Rational::ZERO;
        for (v, coef) in c.expr.iter() {
            shift += coef * model.vars[v.index()].lower;
        }
        rows.push(RowSpec::normalized(
            RowSource::Constraint(k),
            c.cmp,
            c.rhs - shift,
        ));
    }
    for (i, def) in model.vars.iter().enumerate() {
        if let Some(u) = def.upper {
            rows.push(RowSpec::normalized(
                RowSource::Upper(i),
                Cmp::Le,
                u - def.lower,
            ));
        }
    }
    rows
}

/// Phase-2 costs of the structural columns (the objective as a
/// minimization).
fn structural_costs(model: &Model) -> Vec<Rational> {
    let mut costs = vec![Rational::ZERO; model.vars.len()];
    for (v, k) in model.objective.iter() {
        costs[v.index()] += match model.sense {
            Sense::Minimize => k,
            Sense::Maximize => -k,
        };
    }
    costs
}

/// `Σ|x|` when every value is an integer and the sum fits an `i128`.
fn integral_abs_sum(xs: impl IntoIterator<Item = Rational>) -> Option<i128> {
    xs.into_iter().try_fold(0i128, |acc, x| {
        acc.checked_add(x.to_integer()?.checked_abs()?)
    })
}

/// Picks the tableau scalar from the model's own structure (see the
/// module docs): `i64` for an integral network model within the overflow
/// bound, `Rational` otherwise.
fn select_scalar(model: &Model, rows: &[RowSpec], costs: &[Rational]) -> ScalarKind {
    let network = model.constraints.iter().all(|c| {
        let (mut plus, mut minus) = (0, 0);
        c.expr.iter().all(|(_, k)| {
            if k == Rational::ONE {
                plus += 1;
            } else if k == -Rational::ONE {
                minus += 1;
            } else {
                return false;
            }
            plus <= 1 && minus <= 1
        })
    });
    if !network {
        return ScalarKind::Rational;
    }
    let n_art = rows.iter().filter(|r| r.has_artificial()).count() as i128;
    let bound = integral_abs_sum(rows.iter().map(|r| r.rhs)).and_then(|sum_b| {
        let sum_c = integral_abs_sum(costs.iter().copied())?;
        sum_c.max(n_art).checked_mul(sum_b.checked_add(1)?)
    });
    match bound {
        Some(b) if b < 1 << 62 => ScalarKind::Int,
        _ => ScalarKind::Rational,
    }
}

/// The scalar [`solve_lp`] would use for `model`.
#[cfg(test)]
pub(crate) fn scalar_for(model: &Model) -> ScalarKind {
    select_scalar(model, &row_specs(model), &structural_costs(model))
}

/// Dense row-major simplex tableau in canonical form (basis columns are
/// identity). Columns are laid out `[structural | slack | artificial]`.
struct Tableau<S> {
    /// `m × width` coefficients, row-major.
    a: Vec<S>,
    /// Row length (total column count).
    width: usize,
    /// Right-hand sides (always nonnegative in canonical form).
    rhs: Vec<S>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Reduced-cost row.
    obj: Vec<S>,
    /// Current objective value `c_B * x_B`.
    obj_val: S,
    /// Number of structural columns (shifted original variables).
    n_struct: usize,
    /// First artificial column index (columns >= this are artificial).
    art_start: usize,
    /// Scratch for [`Tableau::pivot`]: the pivot row's nonzeros.
    pivot_row: Vec<(usize, S)>,
    /// Pivots taken by this tableau.
    pivots: u64,
}

enum RunOutcome {
    Optimal,
    Unbounded,
}

impl<S: Scalar> Tableau<S> {
    /// Lays the rows out straight from the model's sparse constraints.
    fn build(model: &Model, specs: &[RowSpec]) -> Tableau<S> {
        let n = model.vars.len();
        let m = specs.len();
        let n_slack = specs.iter().filter(|r| r.has_slack()).count();
        let n_art = specs.iter().filter(|r| r.has_artificial()).count();
        let art_start = n + n_slack;
        let width = art_start + n_art;

        let mut a = vec![S::ZERO; m * width];
        let mut rhs = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut next_slack = n;
        let mut next_art = art_start;
        for (spec, row) in specs.iter().zip(a.chunks_exact_mut(width)) {
            let signed = |k: Rational| S::from_rational(if spec.negate { -k } else { k });
            match spec.source {
                RowSource::Constraint(k) => {
                    for (v, coef) in model.constraints[k].expr.iter() {
                        row[v.index()] = row[v.index()].add(signed(coef));
                    }
                }
                RowSource::Upper(v) => row[v] = signed(Rational::ONE),
            }
            rhs.push(S::from_rational(spec.rhs));
            match spec.cmp {
                Cmp::Le => {
                    row[next_slack] = S::ONE;
                    basis.push(next_slack);
                    next_slack += 1;
                }
                Cmp::Ge => {
                    row[next_slack] = S::ONE.neg();
                    next_slack += 1;
                    row[next_art] = S::ONE;
                    basis.push(next_art);
                    next_art += 1;
                }
                Cmp::Eq => {
                    row[next_art] = S::ONE;
                    basis.push(next_art);
                    next_art += 1;
                }
            }
        }

        Tableau {
            a,
            width,
            rhs,
            basis,
            obj: vec![S::ZERO; width],
            obj_val: S::ZERO,
            n_struct: n,
            art_start,
            pivot_row: Vec::new(),
            pivots: 0,
        }
    }

    fn rows(&self) -> usize {
        self.rhs.len()
    }

    fn at(&self, i: usize, j: usize) -> S {
        self.a[i * self.width + j]
    }

    fn pivot(&mut self, r: usize, c: usize) {
        crate::stats::record_pivot();
        self.pivots += 1;
        let w = self.width;
        let piv = self.at(r, c);
        debug_assert!(!piv.is_zero());
        let inv = piv.recip();
        // Normalize the pivot row and collect its nonzero columns once:
        // every other row changes only there.
        let mut nz = std::mem::take(&mut self.pivot_row);
        nz.clear();
        for (j, x) in self.a[r * w..(r + 1) * w].iter_mut().enumerate() {
            if !x.is_zero() {
                *x = x.mul(inv);
                nz.push((j, *x));
            }
        }
        self.rhs[r] = self.rhs[r].mul(inv);
        let rhs_r = self.rhs[r];
        for (i, row) in self.a.chunks_exact_mut(w).enumerate() {
            if i == r {
                continue;
            }
            let f = row[c];
            if f.is_zero() {
                continue;
            }
            for &(j, x) in &nz {
                row[j] = row[j].sub_mul(x, f);
            }
            self.rhs[i] = self.rhs[i].sub_mul(rhs_r, f);
        }
        let f = self.obj[c];
        if !f.is_zero() {
            for &(j, x) in &nz {
                self.obj[j] = self.obj[j].sub_mul(x, f);
            }
            // Entering variable takes value rhs[r] (already normalized), so
            // the objective moves by its reduced cost times that amount.
            self.obj_val = self.obj_val.add(rhs_r.mul(f));
        }
        self.basis[r] = c;
        self.pivot_row = nz;
    }

    /// Rebuilds the reduced-cost row for cost vector `costs` given the basis.
    fn canonicalize_objective(&mut self, costs: &[S]) {
        self.obj.clear();
        self.obj.extend_from_slice(costs);
        self.obj_val = S::ZERO;
        for (i, row) in self.a.chunks_exact(self.width).enumerate() {
            let cb = costs[self.basis[i]];
            if cb.is_zero() {
                continue;
            }
            for (o, &x) in self.obj.iter_mut().zip(row) {
                if !x.is_zero() {
                    *o = o.sub_mul(x, cb);
                }
            }
            self.obj_val = self.obj_val.add(self.rhs[i].mul(cb));
        }
    }

    /// Runs simplex iterations with Bland's rule until optimal or unbounded.
    /// `allowed` limits the entering columns (used to freeze artificials).
    fn run(&mut self, allowed: usize) -> RunOutcome {
        loop {
            // Bland: entering column = smallest index with negative reduced cost.
            let Some(c) = self.obj[..allowed].iter().position(|x| x.is_negative()) else {
                return RunOutcome::Optimal;
            };
            // Ratio test; Bland tie-break on smallest basic variable index.
            let mut leave: Option<usize> = None;
            for i in 0..self.rows() {
                let a = self.at(i, c);
                if !a.is_positive() {
                    continue;
                }
                let better = match leave {
                    None => true,
                    Some(l) => match S::ratio_cmp(self.rhs[i], a, self.rhs[l], self.at(l, c)) {
                        Ordering::Less => true,
                        Ordering::Equal => self.basis[i] < self.basis[l],
                        Ordering::Greater => false,
                    },
                };
                if better {
                    leave = Some(i);
                }
            }
            let Some(r) = leave else {
                return RunOutcome::Unbounded;
            };
            self.pivot(r, c);
        }
    }
}

/// Solves the LP relaxation of `model` (integrality dropped).
///
/// Returns variable values in original (unshifted) space.
pub(crate) fn solve_lp(model: &Model) -> Result<Solution, SolveError> {
    let rows = row_specs(model);
    let costs = structural_costs(model);
    match select_scalar(model, &rows, &costs) {
        ScalarKind::Int => Tableau::<i64>::build(model, &rows).solve(model, &costs),
        ScalarKind::Rational => Tableau::<Rational>::build(model, &rows).solve(model, &costs),
    }
}

impl<S: Scalar> Tableau<S> {
    /// Runs both phases on a freshly built tableau.
    fn solve(
        &mut self,
        model: &Model,
        structural_costs: &[Rational],
    ) -> Result<Solution, SolveError> {
        let total = self.width;

        // Phase 1: minimize the sum of artificials.
        if self.art_start < total {
            let mut costs = vec![S::ZERO; total];
            for c in costs.iter_mut().skip(self.art_start) {
                *c = S::ONE;
            }
            self.canonicalize_objective(&costs);
            match self.run(total) {
                RunOutcome::Optimal => {}
                RunOutcome::Unbounded => unreachable!("phase-1 objective is bounded below by 0"),
            }
            if self.obj_val.is_positive() {
                return Err(SolveError::Infeasible);
            }
            // Drive any (degenerate) artificial out of the basis.
            for i in 0..self.rows() {
                if self.basis[i] >= self.art_start {
                    if let Some(c) = (0..self.art_start).find(|&j| !self.at(i, j).is_zero()) {
                        self.pivot(i, c);
                    }
                    // Rows with no structural support are redundant; the
                    // artificial stays basic at value zero, which is harmless
                    // as long as it never re-enters (phase 2 freezes it).
                }
            }
        }

        // Phase 2: original objective (converted to minimization).
        let mut costs = vec![S::ZERO; total];
        for (c, &k) in costs.iter_mut().zip(structural_costs) {
            *c = S::from_rational(k);
        }
        self.canonicalize_objective(&costs);
        match self.run(self.art_start) {
            RunOutcome::Optimal => {}
            RunOutcome::Unbounded => return Err(SolveError::Unbounded),
        }

        // Extract values (shift back by lower bounds).
        let mut values: Vec<Rational> = model.vars.iter().map(|v| v.lower).collect();
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                values[b] += self.rhs[i].to_rational();
            }
        }

        let mut objective = model.objective.constant();
        for (v, k) in model.objective.iter() {
            objective += values[v.index()] * k;
        }

        Ok(Solution { values, objective })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, LinExpr, Model, Rational, Sense, SolveError};

    #[test]
    fn basic_maximize() {
        // max 3x + 2y s.t. x + y <= 4; x + 3y <= 6 -> x=4, y=0, obj=12.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Cmp::Le, 4, "c1");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y) * 3, Cmp::Le, 6, "c2");
        m.set_objective(Sense::Maximize, LinExpr::from(x) * 3 + LinExpr::from(y) * 2);
        let s = m.solve_lp().unwrap();
        assert_eq!(s.objective_value(), Rational::from(12));
        assert_eq!(s.value(x), Rational::from(4));
        assert_eq!(s.value(y), Rational::from(0));
    }

    #[test]
    fn basic_minimize_with_ge() {
        // min x + y s.t. x + 2y >= 4; 3x + y >= 6 -> x=8/5, y=6/5, obj=14/5.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y) * 2, Cmp::Ge, 4, "c1");
        m.add_constraint(LinExpr::from(x) * 3 + LinExpr::from(y), Cmp::Ge, 6, "c2");
        m.set_objective(Sense::Minimize, LinExpr::from(x) + LinExpr::from(y));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.objective_value(), Rational::new(14, 5));
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        m.add_constraint(LinExpr::from(x), Cmp::Le, 1, "c1");
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 2, "c2");
        assert_eq!(m.solve_lp().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        assert_eq!(m.solve_lp().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y == 10, x - y == 2 -> x=6, y=4.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Cmp::Eq, 10, "sum");
        m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Cmp::Eq, 2, "diff");
        m.set_objective(Sense::Minimize, LinExpr::from(x) + LinExpr::from(y));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(x), Rational::from(6));
        assert_eq!(s.value(y), Rational::from(4));
    }

    #[test]
    fn lower_bounds_shifted_correctly() {
        // min x with x >= 5 (bound) and x >= 3 (constraint) -> 5.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        m.set_bounds(x, 5, None);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 3, "c");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(x), Rational::from(5));
    }

    #[test]
    fn upper_bounds_respected() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        m.set_bounds(x, 0, Some(7));
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(x), Rational::from(7));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-flavored degeneracy; Bland's rule must terminate.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        let z = m.add_var("z");
        m.add_constraint(LinExpr::from(x), Cmp::Le, 1, "c1");
        m.add_constraint(LinExpr::from(x) * 4 + LinExpr::from(y), Cmp::Le, 8, "c2");
        m.add_constraint(
            LinExpr::from(x) * 8 + LinExpr::from(y) * 4 + LinExpr::from(z),
            Cmp::Le,
            64,
            "c3",
        );
        m.set_objective(
            Sense::Maximize,
            LinExpr::from(x) * 4 + LinExpr::from(y) * 2 + LinExpr::from(z),
        );
        let s = m.solve_lp().unwrap();
        assert_eq!(s.objective_value(), Rational::from(64));
    }

    #[test]
    fn redundant_equalities_ok() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Cmp::Eq, 4, "c1");
        m.add_constraint(
            LinExpr::from(x) * 2 + LinExpr::from(y) * 2,
            Cmp::Eq,
            8,
            "c2-redundant",
        );
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(x), Rational::ZERO);
        assert_eq!(s.value(y), Rational::from(4));
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -2 means y >= x + 2.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Cmp::Le, -2, "c");
        m.set_objective(Sense::Minimize, LinExpr::from(y));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(y), Rational::from(2));
    }

    mod scalars {
        use super::super::{row_specs, scalar_for, structural_costs, ScalarKind, Tableau};
        use crate::{Cmp, LinExpr, Model, Rational, Sense, Solution, SolveError, VarId};
        use proptest::prelude::*;

        /// Solves `model` over the scalar `S`, returning the result and the
        /// pivots this tableau took (the global counter is shared with
        /// concurrently running tests).
        fn solve_as<S: super::super::Scalar>(model: &Model) -> (Result<Solution, SolveError>, u64) {
            let rows = row_specs(model);
            let mut t = Tableau::<S>::build(model, &rows);
            let result = t.solve(model, &structural_costs(model));
            (result, t.pivots)
        }

        fn cmp_of(k: u8) -> Cmp {
            match k % 6 {
                0 | 1 => Cmp::Le,
                2..=4 => Cmp::Ge,
                _ => Cmp::Eq,
            }
        }

        /// A random network-matrix model: difference rows `x_a − x_b cmp k`
        /// (single `±x_a cmp k` bounds when `a == b`), integer lower and
        /// optional upper bounds, a mixed-sign integer objective. A row
        /// with `k ≥ 0` holds at the hidden point `lo + span/2` with slack
        /// `k`; a row with `k < 0` takes `k` itself as its constant, so
        /// feasible, infeasible and unbounded models all occur.
        fn network_model(
            vars: &[(i64, i64, bool)],
            rows: &[(usize, usize, i64, u8)],
            costs: &[i64],
            maximize: bool,
        ) -> Model {
            let mut m = Model::new("net");
            let mut hidden = Vec::new();
            let xs: Vec<VarId> = vars
                .iter()
                .enumerate()
                .map(|(i, &(lo, span, bounded))| {
                    let x = m.add_var(format!("x{i}"));
                    m.set_bounds(x, lo, bounded.then_some(lo + span));
                    hidden.push(Rational::from(lo + span / 2));
                    x
                })
                .collect();
            for &(a, b, k, cmp) in rows {
                let (a, b) = (xs[a % xs.len()], xs[b % xs.len()]);
                let expr = if a == b {
                    if k % 2 == 0 {
                        LinExpr::from(a)
                    } else {
                        -LinExpr::from(a)
                    }
                } else {
                    LinExpr::from(a) - LinExpr::from(b)
                };
                let cmp = cmp_of(cmp);
                let at = expr.eval(&hidden);
                let rhs = match cmp {
                    _ if k < 0 => Rational::from(k),
                    Cmp::Le => at + Rational::from(k),
                    Cmp::Ge => at - Rational::from(k),
                    Cmp::Eq => at,
                };
                m.add_constraint(expr, cmp, rhs, "r");
            }
            let mut obj = LinExpr::zero();
            for (&x, &c) in xs.iter().zip(costs) {
                obj.add_term(x, c);
            }
            let sense = if maximize {
                Sense::Maximize
            } else {
                Sense::Minimize
            };
            m.set_objective(sense, obj);
            m
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Both scalars take the same number of pivots and return the
            /// same result on every network model.
            #[test]
            fn int_tableau_matches_rational(
                vars in proptest::collection::vec((-6i64..6, 0i64..20, 0u8..2), 1..9),
                rows in proptest::collection::vec((0usize..9, 0usize..9, -8i64..40, 0u8..6), 0..20),
                costs in proptest::collection::vec(-5i64..6, 9..10),
                maximize in 0u8..2,
            ) {
                let vars: Vec<_> = vars.into_iter().map(|(lo, span, b)| (lo, span, b == 1)).collect();
                let m = network_model(&vars, &rows, &costs, maximize == 1);
                prop_assert_eq!(scalar_for(&m), ScalarKind::Int);
                let (exact, exact_pivots) = solve_as::<Rational>(&m);
                let (int, int_pivots) = solve_as::<i64>(&m);
                prop_assert_eq!(&int, &exact);
                prop_assert_eq!(int_pivots, exact_pivots);
                prop_assert_eq!(&m.solve_lp(), &exact);
                if let Ok(s) = &exact {
                    prop_assert!(m.is_feasible(s.values()));
                }
            }
        }

        fn diff_model() -> (Model, VarId, VarId) {
            let mut m = Model::new("d");
            let x = m.add_int_var("x");
            let y = m.add_int_var("y");
            m.add_diff_ge(y, x, 7, "dep");
            m.set_objective(Sense::Minimize, LinExpr::from(y) - LinExpr::from(x));
            (m, x, y)
        }

        #[test]
        fn difference_systems_take_the_int_tableau() {
            let (m, _, _) = diff_model();
            assert_eq!(scalar_for(&m), ScalarKind::Int);
        }

        #[test]
        fn non_unit_coefficient_takes_rational() {
            let (mut m, x, y) = diff_model();
            m.add_constraint(LinExpr::from(x) * 2 - LinExpr::from(y), Cmp::Le, 4, "two");
            assert_eq!(scalar_for(&m), ScalarKind::Rational);
            let (mut m, x, y) = diff_model();
            m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Cmp::Le, 40, "two-plus");
            assert_eq!(scalar_for(&m), ScalarKind::Rational);
        }

        #[test]
        fn fractional_data_takes_rational() {
            let (mut m, x, _) = diff_model();
            m.add_constraint(LinExpr::from(x), Cmp::Ge, Rational::new(1, 2), "half");
            assert_eq!(scalar_for(&m), ScalarKind::Rational);
            let (mut m, x, y) = diff_model();
            let mut obj = LinExpr::from(y);
            obj.add_term(x, Rational::new(-1, 3));
            m.set_objective(Sense::Minimize, obj);
            assert_eq!(scalar_for(&m), ScalarKind::Rational);
        }

        #[test]
        fn total_rows_shaped_row_takes_rational() {
            // P·R + S − T ≥ 0, the exact-rows objective's row count link.
            let (mut m, s, t) = diff_model();
            let r = m.add_int_var("R");
            m.add_constraint(
                LinExpr::from(r) * 160 + LinExpr::from(s) - LinExpr::from(t),
                Cmp::Ge,
                0,
                "rows",
            );
            m.set_objective(Sense::Minimize, LinExpr::from(r));
            assert_eq!(scalar_for(&m), ScalarKind::Rational);
        }

        #[test]
        fn overflow_bound_routes_large_models_to_rational() {
            // Σ|c| = 2, n_art = 1: the bound is 2 · (1 + Σ|b|) < 2^62.
            let at = |b: i64| {
                let (mut m, _, _) = diff_model();
                m.constraints[0].rhs = Rational::from(b);
                scalar_for(&m)
            };
            assert_eq!(at((1 << 61) - 2), ScalarKind::Int);
            assert_eq!(at((1 << 61) - 1), ScalarKind::Rational);
            assert_eq!(at(i64::MAX), ScalarKind::Rational);
            let (mut m, x, y) = diff_model();
            m.set_objective(
                Sense::Minimize,
                LinExpr::from(y) * (1 << 61) - LinExpr::from(x),
            );
            assert_eq!(scalar_for(&m), ScalarKind::Rational);
        }

        #[test]
        #[should_panic(expected = "not a unit")]
        fn int_tableau_rejects_non_unit_pivots() {
            let mut m = Model::new("t");
            let x = m.add_var("x");
            m.add_constraint(LinExpr::from(x) * 2, Cmp::Ge, 4, "two");
            m.set_objective(Sense::Minimize, LinExpr::from(x));
            let _ = solve_as::<i64>(&m);
        }
    }
}
