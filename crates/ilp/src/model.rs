//! Linear-program model building.

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximise the objective (IPET, knapsack benefit).
    Maximize,
    /// Minimise the objective.
    Minimize,
}

/// Continuous or integer variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Continuous, non-negative.
    Continuous,
    /// Integer, non-negative (branch & bound enforces integrality).
    Integer,
}

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The variable's index within its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub kind: VarKind,
    pub upper: Option<f64>,
}

/// A raw linear constraint over variable indices (rarely constructed by
/// hand; used by branch & bound to inject branching bounds).
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs.
    pub terms: Vec<(usize, f64)>,
    /// Comparison operator.
    pub op: Op,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: non-negative variables, linear constraints, linear
/// objective. Integer variables are relaxed by [`crate::simplex`] and
/// enforced by [`crate::branch`].
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: Vec<f64>,
}

impl Model {
    /// Creates an empty model with the given optimisation direction.
    pub fn new(sense: Sense) -> Model {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
        }
    }

    /// Adds a variable with lower bound 0 and optional upper bound.
    pub fn add_var(&mut self, name: impl Into<String>, kind: VarKind, upper: Option<f64>) -> Var {
        let idx = self.vars.len();
        self.vars.push(VarDef {
            name: name.into(),
            kind,
            upper,
        });
        self.objective.push(0.0);
        Var(idx)
    }

    /// Sets the objective coefficients (unmentioned variables keep 0).
    pub fn set_objective(&mut self, terms: &[(Var, f64)]) {
        for (v, c) in terms {
            self.objective[v.0] = *c;
        }
    }

    /// Adds `Σ terms <= rhs`.
    pub fn add_le(&mut self, terms: &[(Var, f64)], rhs: f64) {
        self.add_constraint(terms, Op::Le, rhs);
    }

    /// Adds `Σ terms >= rhs`.
    pub fn add_ge(&mut self, terms: &[(Var, f64)], rhs: f64) {
        self.add_constraint(terms, Op::Ge, rhs);
    }

    /// Adds `Σ terms == rhs`.
    pub fn add_eq(&mut self, terms: &[(Var, f64)], rhs: f64) {
        self.add_constraint(terms, Op::Eq, rhs);
    }

    /// Adds a constraint with an explicit operator.
    pub fn add_constraint(&mut self, terms: &[(Var, f64)], op: Op, rhs: f64) {
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            debug_assert!(v.0 < self.vars.len(), "variable from another model");
            match merged.iter_mut().find(|(i, _)| *i == v.0) {
                Some((_, acc)) => *acc += *c,
                None => merged.push((v.0, *c)),
            }
        }
        self.constraints.push(Constraint {
            terms: merged,
            op,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The name given to a variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.vars[v.0].name
    }

    /// Indices of integer variables.
    pub(crate) fn integer_vars(&self) -> Vec<usize> {
        self.vars
            .iter()
            .enumerate()
            .filter_map(|(i, d)| matches!(d.kind, VarKind::Integer).then_some(i))
            .collect()
    }
}

/// A solution: value per variable plus the objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value of each variable, indexed like the model's variables.
    pub values: Vec<f64>,
    /// Objective value in the model's own sense.
    pub objective: f64,
}

impl Solution {
    /// Value of `v`.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.0]
    }

    /// Value of `v` rounded to the nearest integer (for integer variables).
    pub fn int_value(&self, v: Var) -> i64 {
        self.values[v.0].round() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_model() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, Some(10.0));
        let y = m.add_var("y", VarKind::Integer, None);
        m.set_objective(&[(x, 1.0), (y, 2.0)]);
        m.add_le(&[(x, 1.0), (y, 1.0)], 5.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.var_name(x), "x");
        assert_eq!(m.integer_vars(), vec![1]);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, None);
        m.add_le(&[(x, 1.0), (x, 2.0)], 3.0);
        assert_eq!(m.constraints[0].terms, vec![(0, 3.0)]);
    }
}
