//! # spmlab-ilp — linear and integer linear programming
//!
//! The paper solves two optimisation problems with a commercial ILP solver
//! (CPLEX): the knapsack formulation of static scratchpad allocation, and —
//! inside the aiT-style WCET analyzer — the implicit path enumeration
//! technique (IPET) maximum over basic-block execution counts. This crate
//! replaces CPLEX with:
//!
//! * [`model::Model`] — a small modelling API (variables, linear
//!   constraints, objective),
//! * [`simplex`] — a dense two-phase primal simplex solver whose
//!   objective-free phase-1 state ([`simplex::Phase1`]) can be kept and
//!   re-optimised under any number of objectives,
//! * [`branch`] — depth-first branch & bound for integrality, from a fresh
//!   model ([`branch::solve`]) or from a kept phase-1 state
//!   ([`branch::solve_from`]),
//! * [`knapsack`] — an exact dynamic program for 0/1 knapsacks, used both
//!   directly and as a cross-check of the ILP path.
//!
//! ```
//! use spmlab_ilp::model::{Model, Sense, VarKind};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2.5, x,y integer >= 0
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", VarKind::Integer, Some(2.5));
//! let y = m.add_var("y", VarKind::Integer, None);
//! m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! m.set_objective(&[(x, 3.0), (y, 2.0)]);
//! let sol = spmlab_ilp::branch::solve(&m)?;
//! assert_eq!(sol.value(x), 2.0);
//! assert_eq!(sol.value(y), 2.0);
//! assert!((sol.objective - 10.0).abs() < 1e-6);
//! # Ok::<(), spmlab_ilp::IlpError>(())
//! ```

pub mod branch;
pub mod knapsack;
pub mod model;
pub mod simplex;

/// Numerical tolerance used across the solvers.
pub const EPS: f64 = 1e-7;

/// Tolerance for accepting a relaxation value as integral.
pub const INT_EPS: f64 = 1e-6;

/// Errors from the LP/ILP solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region (for IPET this
    /// means a loop without a bound constraint).
    Unbounded,
    /// Branch & bound exceeded its node budget without proving optimality.
    NodeLimit { explored: usize },
    /// A variable index was used that does not belong to the model.
    BadVariable(usize),
    /// The simplex iteration limit was hit (numerical trouble).
    IterationLimit,
}

impl std::fmt::Display for IlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IlpError::Infeasible => write!(f, "model is infeasible"),
            IlpError::Unbounded => write!(f, "objective is unbounded"),
            IlpError::NodeLimit { explored } => {
                write!(
                    f,
                    "branch & bound node limit reached after {explored} nodes"
                )
            }
            IlpError::BadVariable(i) => write!(f, "unknown variable index {i}"),
            IlpError::IterationLimit => write!(f, "simplex iteration limit reached"),
        }
    }
}

impl std::error::Error for IlpError {}
