//! Depth-first branch & bound on top of the simplex relaxation.

use crate::model::{Constraint, Model, Op, Sense, Solution};
use crate::simplex::{phase1, Phase1};
use crate::{IlpError, INT_EPS};

/// Default node budget; IPET and knapsack instances in this workspace stay
/// far below it (their relaxations are nearly integral).
pub const DEFAULT_NODE_LIMIT: usize = 200_000;

/// Solves `model` to integer optimality (integer variables only; continuous
/// variables remain fractional).
///
/// # Errors
///
/// [`IlpError::Infeasible`] when no integer point exists,
/// [`IlpError::Unbounded`] when the relaxation is unbounded (for IPET:
/// a loop is missing its bound), [`IlpError::NodeLimit`] when the search
/// exceeds [`DEFAULT_NODE_LIMIT`] nodes.
pub fn solve(model: &Model) -> Result<Solution, IlpError> {
    solve_with_limit(model, DEFAULT_NODE_LIMIT)
}

/// Like [`solve`], with an explicit node budget.
pub fn solve_with_limit(model: &Model, node_limit: usize) -> Result<Solution, IlpError> {
    solve_from(model, &model.objective, &phase1(model, &[])?, node_limit)
}

/// Branch & bound on `model`'s rows under `objective` (one coefficient
/// per variable, replacing the model's own), starting from `root`, the
/// [`phase1`] state of `model` with no extra rows. A caller that keeps
/// `root` solves the same rows under many objectives without repeating
/// phase 1; the arithmetic is that of [`solve_with_limit`] on the model
/// with `objective` set.
///
/// # Errors
///
/// As for [`solve`].
pub fn solve_from(
    model: &Model,
    objective: &[f64],
    root: &Phase1,
    node_limit: usize,
) -> Result<Solution, IlpError> {
    let int_vars = model.integer_vars();
    let root = root.optimise(objective)?;
    if int_vars.is_empty() || integral(&root, &int_vars) {
        return Ok(round_solution(root, &int_vars));
    }

    let better = |a: f64, b: f64| match model.sense {
        Sense::Maximize => a > b + 1e-9,
        Sense::Minimize => a < b - 1e-9,
    };

    let mut incumbent: Option<Solution> = None;
    // DFS over (extra-bound-constraints, relaxation) nodes.
    let mut stack: Vec<(Vec<Constraint>, Solution)> = vec![(Vec::new(), root)];
    let mut explored = 0usize;

    while let Some((bounds, relax)) = stack.pop() {
        explored += 1;
        if explored > node_limit {
            return Err(IlpError::NodeLimit { explored });
        }
        if let Some(inc) = &incumbent {
            if !better(relax.objective, inc.objective) {
                continue; // Bound: relaxation can't beat the incumbent.
            }
        }
        match pick_branch_var(&relax, &int_vars) {
            None => {
                let cand = round_solution(relax, &int_vars);
                let accept = incumbent
                    .as_ref()
                    .is_none_or(|inc| better(cand.objective, inc.objective));
                if accept {
                    incumbent = Some(cand);
                }
            }
            Some(v) => {
                let x = relax.values[v];
                let floor = x.floor();
                // Explore the "down" branch last (popped first) so counts
                // bias small — helps IPET instances prove optimality fast.
                for (op, rhs) in [(Op::Ge, floor + 1.0), (Op::Le, floor)] {
                    let mut b = bounds.clone();
                    b.push(Constraint {
                        terms: vec![(v, 1.0)],
                        op,
                        rhs,
                    });
                    match phase1(model, &b).and_then(|p| p.optimise(objective)) {
                        Ok(r) => stack.push((b, r)),
                        Err(IlpError::Infeasible) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    incumbent.ok_or(IlpError::Infeasible)
}

fn integral(sol: &Solution, int_vars: &[usize]) -> bool {
    int_vars
        .iter()
        .all(|&v| (sol.values[v] - sol.values[v].round()).abs() <= INT_EPS)
}

fn pick_branch_var(sol: &Solution, int_vars: &[usize]) -> Option<usize> {
    int_vars
        .iter()
        .copied()
        .filter(|&v| (sol.values[v] - sol.values[v].round()).abs() > INT_EPS)
        .max_by(|&a, &b| {
            let fa = frac_distance(sol.values[a]);
            let fb = frac_distance(sol.values[b]);
            fa.partial_cmp(&fb).unwrap_or(std::cmp::Ordering::Equal)
        })
}

fn frac_distance(x: f64) -> f64 {
    let f = x - x.floor();
    f.min(1.0 - f)
}

fn round_solution(mut sol: Solution, int_vars: &[usize]) -> Solution {
    for &v in int_vars {
        sol.values[v] = sol.values[v].round();
    }
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, VarKind};

    #[test]
    fn fractional_lp_optimum_forces_branching() {
        // max x + y st 2x + y <= 5, x + 2y <= 5 → LP (5/3,5/3); ILP obj 3.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, None);
        let y = m.add_var("y", VarKind::Integer, None);
        m.add_le(&[(x, 2.0), (y, 1.0)], 5.0);
        m.add_le(&[(x, 1.0), (y, 2.0)], 5.0);
        m.set_objective(&[(x, 1.0), (y, 1.0)]);
        let s = solve(&m).unwrap();
        assert!(
            (s.objective - 3.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        let xv = s.int_value(x);
        let yv = s.int_value(y);
        assert!(2 * xv + yv <= 5 && xv + 2 * yv <= 5);
    }

    #[test]
    fn knapsack_as_ilp() {
        // weights 3,4,5; values 4,5,6; capacity 7 → take {3,4} value 9.
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..3)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Integer, Some(1.0)))
            .collect();
        m.add_le(&[(xs[0], 3.0), (xs[1], 4.0), (xs[2], 5.0)], 7.0);
        m.set_objective(&[(xs[0], 4.0), (xs[1], 5.0), (xs[2], 6.0)]);
        let s = solve(&m).unwrap();
        assert!((s.objective - 9.0).abs() < 1e-6);
        assert_eq!(s.int_value(xs[0]), 1);
        assert_eq!(s.int_value(xs[1]), 1);
        assert_eq!(s.int_value(xs[2]), 0);
    }

    #[test]
    fn integer_infeasible() {
        // 0.4 <= x <= 0.6 has no integer point.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, Some(0.6));
        m.add_ge(&[(x, 1.0)], 0.4);
        m.set_objective(&[(x, 1.0)]);
        assert_eq!(solve(&m), Err(IlpError::Infeasible));
    }

    #[test]
    fn already_integral_lp_needs_no_branching() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, Some(3.0));
        m.set_objective(&[(x, 1.0)]);
        let s = solve(&m).unwrap();
        assert_eq!(s.int_value(x), 3);
    }

    #[test]
    fn minimize_integer() {
        // min 3x + 2y st x + y >= 3.5, integers → obj min is 7 at (0,4)?
        // candidates: (0,4)=8, (1,3)=9, (2,2)=10, (3,1)=11, (4,0)=12 → 8.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Integer, None);
        let y = m.add_var("y", VarKind::Integer, None);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 3.5);
        m.set_objective(&[(x, 3.0), (y, 2.0)]);
        let s = solve(&m).unwrap();
        assert!(
            (s.objective - 8.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y, x integer, y continuous; x + y <= 3.7, x <= 2.2.
        // x=2, y=1.7 → 5.7.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, Some(2.2));
        let y = m.add_var("y", VarKind::Continuous, None);
        m.add_le(&[(x, 1.0), (y, 1.0)], 3.7);
        m.set_objective(&[(x, 2.0), (y, 1.0)]);
        let s = solve(&m).unwrap();
        assert!(
            (s.objective - 5.7).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert_eq!(s.int_value(x), 2);
    }
}
