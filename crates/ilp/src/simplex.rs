//! Dense two-phase primal simplex.
//!
//! Sized for this workspace's problems (IPET systems with a few hundred
//! variables, knapsacks with a few dozen): a dense tableau with Dantzig
//! pricing, switching permanently to Bland's rule after a fixed number of
//! iterations to guarantee termination on degenerate problems.

use crate::model::{Constraint, Model, Op, Sense, Solution};
use crate::{IlpError, EPS};

/// Solves the LP relaxation of `model` (integrality ignored), with
/// `extra` appended as additional constraints (used by branch & bound for
/// branching bounds): [`phase1`], then [`Phase1::optimise`] with the
/// model's own objective.
pub fn solve_relaxation(model: &Model, extra: &[Constraint]) -> Result<Solution, IlpError> {
    phase1(model, extra)?.optimise(&model.objective)
}

/// Solves the LP (relaxation) of `model` directly.
pub fn solve_lp(model: &Model) -> Result<Solution, IlpError> {
    solve_relaxation(model, &[])
}

/// A dense row-major tableau: each row holds `stride - 1` coefficient
/// columns followed by its right-hand side.
#[derive(Debug, Clone)]
struct Tableau {
    a: Vec<f64>,
    stride: usize,
}

impl Tableau {
    fn rows(&self) -> usize {
        self.a.len() / self.stride
    }

    /// The coefficient columns, not counting the right-hand side.
    fn cols(&self) -> usize {
        self.stride - 1
    }

    fn at(&self, r: usize, j: usize) -> f64 {
        self.a[r * self.stride + j]
    }

    fn row(&self, r: usize) -> &[f64] {
        &self.a[r * self.stride..(r + 1) * self.stride]
    }

    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.a[r * self.stride..(r + 1) * self.stride]
    }
}

/// The objective-free half of a simplex solve: the tableau of a model's
/// rows (constraints, then `extra`, then upper bounds, normalised to a
/// non-negative right-hand side) after phase 1 has found a feasible basis
/// and driven the artificials out of it. Phase 1 never reads the
/// objective, so one `Phase1` serves any number of
/// [`optimise`](Phase1::optimise) calls with different objectives, each
/// doing exactly the arithmetic a fresh [`solve_relaxation`] would.
///
/// Phase 2 never prices an artificial in and never reads an artificial
/// column, so the kept tableau drops those columns. An artificial left
/// basic in a redundant row keeps its column index, past the kept ones,
/// and costs zero.
#[derive(Debug, Clone)]
pub struct Phase1 {
    /// Columns: structural | slacks/surpluses | rhs.
    t: Tableau,
    basis: Vec<usize>,
    /// Structural variables.
    n: usize,
    sense: Sense,
    iter_limit: usize,
}

/// Runs phase 1 on the rows of `model` plus `extra`.
///
/// # Errors
///
/// [`IlpError::BadVariable`] for a term outside the model,
/// [`IlpError::Infeasible`] when the rows admit no point, and
/// [`IlpError::IterationLimit`] on numerical trouble.
pub fn phase1(model: &Model, extra: &[Constraint]) -> Result<Phase1, IlpError> {
    let n = model.num_vars();

    // Collect rows: model constraints, upper bounds, extra constraints.
    let mut rows: Vec<(Vec<f64>, Op, f64)> = Vec::new();
    for c in model.constraints.iter().chain(extra.iter()) {
        let mut coeffs = vec![0.0; n];
        for &(i, v) in &c.terms {
            if i >= n {
                return Err(IlpError::BadVariable(i));
            }
            coeffs[i] += v;
        }
        rows.push((coeffs, c.op, c.rhs));
    }
    for (i, def) in model.vars.iter().enumerate() {
        if let Some(ub) = def.upper {
            let mut coeffs = vec![0.0; n];
            coeffs[i] = 1.0;
            rows.push((coeffs, Op::Le, ub));
        }
    }

    // Normalise to rhs >= 0.
    for (coeffs, op, rhs) in &mut rows {
        if *rhs < 0.0 {
            for c in coeffs.iter_mut() {
                *c = -*c;
            }
            *rhs = -*rhs;
            *op = match *op {
                Op::Le => Op::Ge,
                Op::Ge => Op::Le,
                Op::Eq => Op::Eq,
            };
        }
    }

    let m = rows.len();
    // Column layout: structural | slacks/surpluses | artificials | rhs.
    let n_slack = rows
        .iter()
        .filter(|(_, op, _)| !matches!(op, Op::Eq))
        .count();
    let n_art = rows
        .iter()
        .filter(|(_, op, _)| !matches!(op, Op::Le))
        .count();
    let ncols = n + n_slack + n_art;

    let mut t = Tableau {
        a: vec![0.0f64; m * (ncols + 1)],
        stride: ncols + 1,
    };
    let mut basis = vec![0usize; m];
    let mut is_artificial = vec![false; ncols];
    {
        let mut slack_at = n;
        let mut art_at = n + n_slack;
        for (r, (coeffs, op, rhs)) in rows.iter().enumerate() {
            let row = t.row_mut(r);
            row[..n].copy_from_slice(coeffs);
            row[ncols] = *rhs;
            match op {
                Op::Le => {
                    row[slack_at] = 1.0;
                    basis[r] = slack_at;
                    slack_at += 1;
                }
                Op::Ge => {
                    row[slack_at] = -1.0;
                    slack_at += 1;
                    row[art_at] = 1.0;
                    is_artificial[art_at] = true;
                    basis[r] = art_at;
                    art_at += 1;
                }
                Op::Eq => {
                    row[art_at] = 1.0;
                    is_artificial[art_at] = true;
                    basis[r] = art_at;
                    art_at += 1;
                }
            }
        }
    }

    let iter_limit = 20_000 + 200 * (m + n);

    // Phase 1: minimise the sum of artificials.
    if n_art > 0 {
        let mut obj = vec![0.0f64; ncols + 1];
        for (j, flag) in is_artificial.iter().enumerate() {
            if *flag {
                obj[j] = 1.0;
            }
        }
        // Zero out reduced costs of basic artificials.
        for r in 0..m {
            if is_artificial[basis[r]] {
                for (o, &x) in obj.iter_mut().zip(t.row(r)) {
                    *o -= x;
                }
            }
        }
        run_pivots(&mut t, &mut obj, &mut basis, iter_limit)?;
        // Phase-1 objective value = -obj[ncols].
        if -obj[ncols] > 1e-6 {
            return Err(IlpError::Infeasible);
        }
        // Drive remaining basic artificials out of the basis.
        for r in 0..m {
            if is_artificial[basis[r]] {
                let pivot_col = (0..n + n_slack).find(|&j| t.at(r, j).abs() > EPS);
                if let Some(j) = pivot_col {
                    pivot(&mut t, &mut obj, &mut basis, r, j);
                }
                // Otherwise the row is redundant; the artificial stays basic
                // at value zero and is barred from re-entering below.
            }
        }
    }

    // Keep the structural and slack columns and the right-hand side.
    let width = n + n_slack;
    let mut kept = Tableau {
        a: Vec::with_capacity(m * (width + 1)),
        stride: width + 1,
    };
    for r in 0..m {
        let row = t.row(r);
        kept.a.extend_from_slice(&row[..width]);
        kept.a.push(row[ncols]);
    }
    Ok(Phase1 {
        t: kept,
        basis,
        n,
        sense: model.sense,
        iter_limit,
    })
}

impl Phase1 {
    /// Phase 2 on a copy of this feasible tableau: optimises `objective`
    /// (one coefficient per structural variable, in the model's sense),
    /// never pricing artificials in, and extracts the solution.
    ///
    /// # Panics
    ///
    /// When `objective` does not have one entry per model variable.
    ///
    /// # Errors
    ///
    /// [`IlpError::Unbounded`] or [`IlpError::IterationLimit`].
    pub fn optimise(&self, objective: &[f64]) -> Result<Solution, IlpError> {
        let n = self.n;
        assert_eq!(objective.len(), n, "one objective coefficient per variable");
        let mut t = self.t.clone();
        let mut basis = self.basis.clone();
        let width = t.cols();

        let mut obj = vec![0.0f64; width + 1];
        let flip = match self.sense {
            Sense::Maximize => -1.0,
            Sense::Minimize => 1.0,
        };
        for (o, &c) in obj.iter_mut().take(n).zip(objective) {
            *o = flip * c;
        }
        for (r, &b) in basis.iter().enumerate() {
            // A basic artificial (past `width`) costs zero.
            let cb = obj.get(b).copied().unwrap_or(0.0);
            if cb != 0.0 {
                for (o, &x) in obj.iter_mut().zip(t.row(r)) {
                    *o -= cb * x;
                }
            }
        }
        run_pivots(&mut t, &mut obj, &mut basis, self.iter_limit)?;

        // Extract the solution.
        let mut values = vec![0.0f64; n];
        for (r, &b) in basis.iter().enumerate() {
            if b < n {
                values[b] = t.at(r, width);
            }
        }
        let objective: f64 = values.iter().zip(objective).map(|(x, c)| x * c).sum();
        Ok(Solution { values, objective })
    }
}

/// Pivots until no column of `t` has a negative reduced cost.
fn run_pivots(
    t: &mut Tableau,
    obj: &mut [f64],
    basis: &mut [usize],
    iter_limit: usize,
) -> Result<(), IlpError> {
    let m = t.rows();
    if m == 0 {
        return Ok(());
    }
    let ncols = t.cols();
    let bland_after = iter_limit / 2;
    for iter in 0..iter_limit {
        let bland = iter >= bland_after;
        // Entering column: negative reduced cost.
        let mut enter: Option<usize> = None;
        let mut best = -EPS;
        for (j, &c) in obj.iter().enumerate().take(ncols) {
            if c < -EPS {
                if bland {
                    enter = Some(j);
                    break;
                }
                if c < best {
                    best = c;
                    enter = Some(j);
                }
            }
        }
        let Some(j) = enter else { return Ok(()) };
        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..m {
            let a = t.at(r, j);
            if a > EPS {
                let ratio = t.at(r, ncols) / a;
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leave.is_some_and(|l| basis[r] < basis[l]));
                if leave.is_none() || better {
                    best_ratio = ratio;
                    leave = Some(r);
                }
            }
        }
        let Some(r) = leave else {
            return Err(IlpError::Unbounded);
        };
        pivot(t, obj, basis, r, j);
    }
    Err(IlpError::IterationLimit)
}

fn pivot(t: &mut Tableau, obj: &mut [f64], basis: &mut [usize], r: usize, j: usize) {
    let stride = t.stride;
    let p = t.at(r, j);
    for v in t.row_mut(r).iter_mut() {
        *v /= p;
    }
    let (above, rest) = t.a.split_at_mut(r * stride);
    let (row_r, below) = rest.split_at_mut(stride);
    for row_i in above
        .chunks_exact_mut(stride)
        .chain(below.chunks_exact_mut(stride))
    {
        if row_i[j].abs() == 0.0 {
            continue;
        }
        let f = row_i[j];
        for (x, &p) in row_i.iter_mut().zip(row_r.iter()) {
            *x -= f * p;
        }
        row_i[j] = 0.0;
    }
    if obj[j].abs() > 0.0 {
        let f = obj[j];
        for (o, &p) in obj.iter_mut().zip(row_r.iter()) {
            *o -= f * p;
        }
        obj[j] = 0.0;
    }
    basis[r] = j;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarKind};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), obj 36.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, None);
        let y = m.add_var("y", VarKind::Continuous, None);
        m.add_le(&[(x, 1.0)], 4.0);
        m.add_le(&[(y, 2.0)], 12.0);
        m.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        m.set_objective(&[(x, 3.0), (y, 5.0)]);
        let s = solve_lp(&m).unwrap();
        assert!(close(s.objective, 36.0), "objective {}", s.objective);
        assert!(close(s.value(x), 2.0));
        assert!(close(s.value(y), 6.0));
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y st x + y >= 4, x >= 1 → (4, 0)? obj candidates:
        // x=4,y=0 → 8; y cheaper per unit? 2 < 3, so all x: obj 8.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, None);
        let y = m.add_var("y", VarKind::Continuous, None);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        m.add_ge(&[(x, 1.0)], 1.0);
        m.set_objective(&[(x, 2.0), (y, 3.0)]);
        let s = solve_lp(&m).unwrap();
        assert!(close(s.objective, 8.0), "objective {}", s.objective);
    }

    #[test]
    fn equality_constraints() {
        // max x + y st x + 2y == 6, x <= 2 → x=2, y=2, obj 4.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, Some(2.0));
        let y = m.add_var("y", VarKind::Continuous, None);
        m.add_eq(&[(x, 1.0), (y, 2.0)], 6.0);
        m.set_objective(&[(x, 1.0), (y, 1.0)]);
        let s = solve_lp(&m).unwrap();
        assert!(close(s.objective, 4.0), "objective {}", s.objective);
        assert!(close(s.value(x), 2.0));
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, None);
        m.add_le(&[(x, 1.0)], 1.0);
        m.add_ge(&[(x, 1.0)], 2.0);
        m.set_objective(&[(x, 1.0)]);
        assert_eq!(solve_lp(&m), Err(IlpError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, None);
        m.add_ge(&[(x, 1.0)], 1.0);
        m.set_objective(&[(x, 1.0)]);
        assert_eq!(solve_lp(&m), Err(IlpError::Unbounded));
    }

    #[test]
    fn negative_rhs_normalised() {
        // x - y <= -2  ≡  y - x >= 2; max x st also y <= 5 → x = 3.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, None);
        let y = m.add_var("y", VarKind::Continuous, Some(5.0));
        m.add_le(&[(x, 1.0), (y, -1.0)], -2.0);
        m.set_objective(&[(x, 1.0)]);
        let s = solve_lp(&m).unwrap();
        assert!(close(s.objective, 3.0), "objective {}", s.objective);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the optimum.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, None);
        let y = m.add_var("y", VarKind::Continuous, None);
        m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        m.add_le(&[(x, 2.0), (y, 2.0)], 8.0);
        m.add_le(&[(x, 1.0)], 4.0);
        m.add_le(&[(x, 3.0), (y, 3.0)], 12.0);
        m.set_objective(&[(x, 1.0), (y, 1.0)]);
        let s = solve_lp(&m).unwrap();
        assert!(close(s.objective, 4.0));
    }

    #[test]
    fn zero_objective_is_fine() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, Some(1.0));
        m.add_le(&[(x, 1.0)], 1.0);
        let s = solve_lp(&m).unwrap();
        assert!(close(s.objective, 0.0));
    }

    #[test]
    fn one_phase1_serves_every_objective() {
        // Phase 1 never reads the objective: re-optimising its state gives
        // a fresh solve's solution bit for bit, objective after objective.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, None);
        let y = m.add_var("y", VarKind::Continuous, Some(5.0));
        let z = m.add_var("z", VarKind::Continuous, None);
        m.add_eq(&[(x, 1.0), (y, 1.0), (z, 1.0)], 7.0);
        m.add_ge(&[(x, 1.0), (z, -1.0)], -2.0);
        m.add_le(&[(x, 2.0), (y, 1.0)], 9.0);
        let root = phase1(&m, &[]).unwrap();
        for objective in [[1.0, 0.0, 0.0], [0.0, 3.0, 1.0], [2.0, -1.0, 5.0], [0.0; 3]] {
            m.set_objective(&[(x, objective[0]), (y, objective[1]), (z, objective[2])]);
            assert_eq!(root.optimise(&objective), solve_lp(&m), "{objective:?}");
        }
        // An infeasible system fails in phase 1, before any objective.
        m.add_ge(&[(x, 1.0), (y, 1.0), (z, 1.0)], 8.0);
        assert_eq!(phase1(&m, &[]).unwrap_err(), IlpError::Infeasible);
    }

    #[test]
    fn redundant_equalities() {
        // Same equality twice leaves a basic artificial in a redundant row.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, None);
        let y = m.add_var("y", VarKind::Continuous, None);
        m.add_eq(&[(x, 1.0), (y, 1.0)], 3.0);
        m.add_eq(&[(x, 2.0), (y, 2.0)], 6.0);
        m.set_objective(&[(x, 1.0)]);
        let s = solve_lp(&m).unwrap();
        assert!(close(s.objective, 3.0), "objective {}", s.objective);
    }
}
