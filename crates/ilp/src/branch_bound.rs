//! Branch-and-bound integer optimization on top of the exact simplex.
//!
//! For the scheduling ILPs generated by ImaGen the constraint matrix is a
//! difference system (totally unimodular), so the LP relaxation is already
//! integral and branch-and-bound terminates at the root node, which solves
//! the model itself (no clone) over the `i64` tableau. The general
//! machinery is still exercised by the exact-rows objective
//! (`imagen-schedule`'s `Objective::TotalRows`) and by the test suite.

use crate::model::{Model, Sense, VarId};
use crate::simplex::{solve_lp, Solution, SolveError};
use crate::Rational;

/// A branching bound: variable, optional new lower, optional new upper.
type NodeBound = (VarId, Option<i64>, Option<i64>);

/// Default node budget for [`Model::solve`].
pub const DEFAULT_NODE_LIMIT: usize = 200_000;

/// Statistics from a branch-and-bound run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveStats {
    /// LP relaxations solved.
    pub nodes: usize,
    /// Nodes pruned by the incumbent bound.
    pub pruned: usize,
}

impl Model {
    /// Solves the LP relaxation (integrality constraints ignored).
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] or [`SolveError::Unbounded`].
    pub fn solve_lp(&self) -> Result<Solution, SolveError> {
        solve_lp(self)
    }

    /// Solves the mixed-integer model by branch and bound.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`], [`SolveError::Unbounded`] (relaxation
    /// unbounded), or [`SolveError::NodeLimit`].
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with_limit(DEFAULT_NODE_LIMIT).map(|(s, _)| s)
    }

    /// Like [`Model::solve`] but with an explicit node budget, returning
    /// search statistics alongside the solution.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with_limit(
        &self,
        node_limit: usize,
    ) -> Result<(Solution, SolveStats), SolveError> {
        let minimize = matches!(self.sense, Sense::Minimize);

        // A node is a set of additional variable bounds.
        #[derive(Clone)]
        struct Node {
            bounds: Vec<NodeBound>,
        }

        let mut stack = vec![Node { bounds: Vec::new() }];
        let mut incumbent: Option<Solution> = None;
        let mut stats = SolveStats::default();

        while let Some(node) = stack.pop() {
            if stats.nodes >= node_limit {
                return Err(SolveError::NodeLimit(node_limit));
            }
            stats.nodes += 1;

            // The root solves the model itself; every other node a clone
            // with its branching bounds tightened.
            let tightened;
            let sub = if node.bounds.is_empty() {
                self
            } else {
                match self.with_node_bounds(&node.bounds) {
                    Some(m) => {
                        tightened = m;
                        &tightened
                    }
                    None => continue,
                }
            };

            let relax = match solve_lp(sub) {
                Ok(s) => s,
                Err(SolveError::Infeasible) => continue,
                Err(e) => return Err(e),
            };

            // Bound pruning: an integer solution in this subtree cannot beat
            // the incumbent.
            if let Some(inc) = &incumbent {
                let worse = if minimize {
                    relax.objective >= inc.objective
                } else {
                    relax.objective <= inc.objective
                };
                if worse {
                    stats.pruned += 1;
                    continue;
                }
            }

            // Find a fractional integer variable.
            let frac = (0..self.vars.len())
                .find(|&i| self.vars[i].integer && !relax.values[i].is_integer());

            match frac {
                None => {
                    // Integral: new incumbent (strictly better, by the bound
                    // check above).
                    incumbent = Some(relax);
                }
                Some(i) => {
                    let v = VarId(i);
                    let val = relax.values[i];
                    // Node bounds are i64; a wrapping cast here would
                    // branch on a garbage bound.
                    let floor = val.floor();
                    let (fl, ceil) = i64::try_from(floor)
                        .ok()
                        .and_then(|fl| Some((fl, fl.checked_add(1)?)))
                        .unwrap_or_else(|| {
                            panic!("branching value {val} (floor {floor}) does not fit in an i64")
                        });
                    // Explore "round down" first (DFS): push "up" below it.
                    let mut up = node.clone();
                    up.bounds.push((v, Some(ceil), None));
                    let mut down = node;
                    down.bounds.push((v, None, Some(fl)));
                    stack.push(up);
                    stack.push(down);
                }
            }
        }

        match incumbent {
            Some(s) => Ok((s, stats)),
            None => Err(SolveError::Infeasible),
        }
    }

    /// A clone with the branching `bounds` tightened onto its variables,
    /// or `None` when they leave some variable an empty range.
    fn with_node_bounds(&self, bounds: &[NodeBound]) -> Option<Model> {
        let mut sub = self.clone();
        for &(v, lo, hi) in bounds {
            let cur_lo = sub.vars[v.index()].lower;
            let cur_hi = sub.vars[v.index()].upper;
            let new_lo = match lo {
                Some(l) => {
                    let l = Rational::from(l);
                    if l > cur_lo {
                        l
                    } else {
                        cur_lo
                    }
                }
                None => cur_lo,
            };
            let new_hi = match (hi, cur_hi) {
                (Some(h), Some(c)) => Some(if Rational::from(h) < c {
                    Rational::from(h)
                } else {
                    c
                }),
                (Some(h), None) => Some(Rational::from(h)),
                (None, c) => c,
            };
            if let Some(h) = new_hi {
                if new_lo > h {
                    return None;
                }
            }
            sub.vars[v.index()].lower = new_lo;
            sub.vars[v.index()].upper = new_hi;
        }
        Some(sub)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, LinExpr, Model, Rational, Sense, SolveError};

    #[test]
    fn fractional_lp_rounds_via_branching() {
        // max x + y s.t. 2x + 3y <= 12, 2x + y <= 6.
        // LP opt is fractional (x=3/2, y=3, obj 9/2); ILP opt is 4
        // (e.g. x=0, y=4 or x=1, y=3).
        let mut m = Model::new("t");
        let x = m.add_int_var("x");
        let y = m.add_int_var("y");
        m.add_constraint(
            LinExpr::from(x) * 2 + LinExpr::from(y) * 3,
            Cmp::Le,
            12,
            "a",
        );
        m.add_constraint(LinExpr::from(x) * 2 + LinExpr::from(y), Cmp::Le, 6, "b");
        m.set_objective(Sense::Maximize, LinExpr::from(x) + LinExpr::from(y));
        let lp = m.solve_lp().unwrap();
        assert!(!lp.values().iter().all(|v| v.is_integer()));
        let s = m.solve().unwrap();
        assert_eq!(s.objective_value(), Rational::from(4));
        assert!(s.values().iter().all(|v| v.is_integer()));
    }

    #[test]
    fn knapsack_small() {
        // Classic 0/1 knapsack as ILP: weights 3,4,5; values 4,5,6; cap 10.
        // Optimum: items 2+3 (weight 9, value 11).
        let mut m = Model::new("knap");
        let xs: Vec<_> = (0..3)
            .map(|i| {
                let v = m.add_int_var(format!("x{i}"));
                m.set_bounds(v, 0, Some(1));
                v
            })
            .collect();
        let w = [3i64, 4, 5];
        let val = [4i64, 5, 6];
        let mut cap = LinExpr::zero();
        let mut obj = LinExpr::zero();
        for i in 0..3 {
            cap.add_term(xs[i], w[i]);
            obj.add_term(xs[i], val[i]);
        }
        m.add_constraint(cap, Cmp::Le, 10, "cap");
        m.set_objective(Sense::Maximize, obj);
        let s = m.solve().unwrap();
        assert_eq!(s.objective_value(), Rational::from(11));
        assert_eq!(s.int_value(xs[0]), 0);
        assert_eq!(s.int_value(xs[1]), 1);
        assert_eq!(s.int_value(xs[2]), 1);
    }

    #[test]
    fn integer_infeasible() {
        // 2x == 3 has an LP solution but no integer one.
        let mut m = Model::new("t");
        let x = m.add_int_var("x");
        m.add_constraint(LinExpr::from(x) * 2, Cmp::Eq, 3, "odd");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn difference_system_solves_at_root() {
        // A pure difference system: LP relaxation must already be integral.
        let mut m = Model::new("sched");
        let s0 = m.add_int_var("s0");
        let s1 = m.add_int_var("s1");
        let s2 = m.add_int_var("s2");
        m.add_diff_ge(s1, s0, 641, "dep01");
        m.add_diff_ge(s2, s1, 641, "dep12");
        m.add_diff_ge(s2, s0, 960, "contention02");
        m.set_objective(Sense::Minimize, LinExpr::from(s1) + LinExpr::from(s2));
        let (s, stats) = m.solve_with_limit(1000).unwrap();
        assert_eq!(stats.nodes, 1, "TU system must solve at the root node");
        assert_eq!(s.int_value(s0), 0);
        assert_eq!(s.int_value(s1), 641);
        assert_eq!(s.int_value(s2), 1282);
    }

    #[test]
    fn node_limit_enforced() {
        let mut m = Model::new("t");
        let x = m.add_int_var("x");
        let y = m.add_int_var("y");
        m.add_constraint(LinExpr::from(x) * 2 + LinExpr::from(y) * 2, Cmp::Eq, 5, "c");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        // Infeasible in integers; must finish (no infinite branching) and
        // a limit of zero must trip immediately on any search.
        assert!(matches!(
            m.solve_with_limit(0),
            Err(SolveError::NodeLimit(0))
        ));
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    #[should_panic(expected = "does not fit in an i64")]
    fn branching_past_i64_panics() {
        // 2x == 2^65 + 1: the relaxation puts x at 2^64 + 1/2, whose
        // floor has no i64 bound to branch on.
        let mut m = Model::new("t");
        let x = m.add_int_var("x");
        m.add_constraint(LinExpr::from(x) * 2, Cmp::Eq, (1i128 << 65) + 1, "big");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        let _ = m.solve();
    }

    #[test]
    fn solution_matches_feasibility_check() {
        let mut m = Model::new("t");
        let x = m.add_int_var("x");
        let y = m.add_int_var("y");
        m.add_constraint(
            LinExpr::from(x) * 7 + LinExpr::from(y) * 5,
            Cmp::Le,
            36,
            "c",
        );
        m.set_objective(Sense::Maximize, LinExpr::from(x) * 9 + LinExpr::from(y) * 6);
        let s = m.solve().unwrap();
        assert!(m.is_feasible(s.values()));
    }
}
