//! Problem construction: variables, constraints, and objective.

use std::fmt;

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the objective function.
    Minimize,
    /// Maximize the objective function.
    Maximize,
}

/// Comparison relating a linear expression to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// One linear constraint `Σ coeffs[j]·x[j]  (≤ | ≥ | =)  rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficient per decision variable; length equals the LP's variable count.
    pub coeffs: Vec<f64>,
    /// The comparison relating the expression to `rhs`.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// Errors detectable at construction / validation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// A constraint's coefficient vector length differs from the variable count.
    DimensionMismatch {
        /// Index of the offending constraint.
        constraint: usize,
        /// Length the coefficient vector was expected to have.
        expected: usize,
        /// Length it actually had.
        actual: usize,
    },
    /// A coefficient, objective entry, or right-hand side is NaN or infinite.
    NonFiniteInput,
    /// A variable index was out of range.
    VariableOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of variables in the program.
        variables: usize,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::DimensionMismatch {
                constraint,
                expected,
                actual,
            } => write!(
                f,
                "constraint {constraint}: expected {expected} coefficients, got {actual}"
            ),
            ProblemError::NonFiniteInput => write!(f, "non-finite coefficient in program"),
            ProblemError::VariableOutOfRange { index, variables } => {
                write!(f, "variable index {index} out of range (n = {variables})")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// A linear program over non-negative decision variables.
///
/// See the [crate-level documentation](crate) for the accepted form and an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) n_vars: usize,
    pub(crate) objective: Vec<f64>,
    pub(crate) sense: Objective,
    pub(crate) constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates a program with `n_vars` non-negative variables and a zero
    /// objective of the given `sense`.
    pub fn new(n_vars: usize, sense: Objective) -> Self {
        LinearProgram {
            n_vars,
            objective: vec![0.0; n_vars],
            sense,
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of constraints added so far.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Direction of optimization.
    pub fn sense(&self) -> Objective {
        self.sense
    }

    /// Sets the objective coefficient of variable `var`.
    ///
    /// # Panics
    /// Panics if `var` is out of range; the builder is used with literal
    /// indices so this is a programming error, not a data error.
    pub fn set_objective_coefficient(&mut self, var: usize, coeff: f64) {
        assert!(var < self.n_vars, "variable index out of range");
        self.objective[var] = coeff;
    }

    /// Replaces the whole objective vector.
    ///
    /// # Panics
    /// Panics if the length differs from the variable count.
    pub fn set_objective(&mut self, coeffs: Vec<f64>) {
        assert_eq!(coeffs.len(), self.n_vars, "objective length mismatch");
        self.objective = coeffs;
    }

    /// Appends the constraint `Σ coeffs[j]·x[j] (relation) rhs`.
    pub fn add_constraint(&mut self, coeffs: Vec<f64>, relation: Relation, rhs: f64) {
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
    }

    /// Adds two fresh non-negative variables `(plus, minus)` whose difference
    /// `x[plus] − x[minus]` models one *free* (sign-unrestricted) variable,
    /// and returns their indices.
    ///
    /// Existing constraints are padded with zero coefficients for the new
    /// variables, so the helper may be called after constraints were added.
    pub fn add_free_variable_pair(&mut self) -> (usize, usize) {
        let plus = self.n_vars;
        let minus = self.n_vars + 1;
        self.n_vars += 2;
        self.objective.extend_from_slice(&[0.0, 0.0]);
        for c in &mut self.constraints {
            c.coeffs.extend_from_slice(&[0.0, 0.0]);
        }
        (plus, minus)
    }

    /// Validates dimensions and finiteness of all inputs.
    ///
    /// # Errors
    /// [`ProblemError::DimensionMismatch`] for a constraint row of the wrong
    /// width, [`ProblemError::NonFiniteInput`] for NaN or infinite
    /// coefficients, and [`ProblemError::VariableOutOfRange`] for a bad free-
    /// variable index.
    pub fn validate(&self) -> Result<(), ProblemError> {
        if !self.objective.iter().all(|c| c.is_finite()) {
            return Err(ProblemError::NonFiniteInput);
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if c.coeffs.len() != self.n_vars {
                return Err(ProblemError::DimensionMismatch {
                    constraint: i,
                    expected: self.n_vars,
                    actual: c.coeffs.len(),
                });
            }
            if !c.rhs.is_finite() || !c.coeffs.iter().all(|v| v.is_finite()) {
                return Err(ProblemError::NonFiniteInput);
            }
        }
        Ok(())
    }

    /// Evaluates the objective at point `x`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks whether `x ≥ 0` satisfies every constraint within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.n_vars || x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_dimensions() {
        let mut lp = LinearProgram::new(3, Objective::Minimize);
        lp.add_constraint(vec![1.0, 0.0, 2.0], Relation::Eq, 5.0);
        assert_eq!(lp.n_vars(), 3);
        assert_eq!(lp.n_constraints(), 1);
        assert!(lp.validate().is_ok());
    }

    #[test]
    fn validate_rejects_dimension_mismatch() {
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.add_constraint(vec![1.0], Relation::Le, 1.0);
        assert_eq!(
            lp.validate(),
            Err(ProblemError::DimensionMismatch {
                constraint: 0,
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn validate_rejects_nan() {
        let mut lp = LinearProgram::new(1, Objective::Maximize);
        lp.add_constraint(vec![f64::NAN], Relation::Le, 1.0);
        assert_eq!(lp.validate(), Err(ProblemError::NonFiniteInput));
    }

    #[test]
    fn free_pair_expands_existing_constraints() {
        let mut lp = LinearProgram::new(1, Objective::Maximize);
        lp.add_constraint(vec![1.0], Relation::Le, 1.0);
        let (p, m) = lp.add_free_variable_pair();
        assert_eq!((p, m), (1, 2));
        assert_eq!(lp.constraints[0].coeffs.len(), 3);
        let x: Vec<f64> = vec![0.0, 2.0, 5.0];
        assert!((x[p] - x[m] + 3.0).abs() < 1e-12);
    }

    #[test]
    fn feasibility_checker_honours_relations() {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.add_constraint(vec![1.0, 1.0], Relation::Le, 4.0);
        lp.add_constraint(vec![1.0, -1.0], Relation::Ge, 0.0);
        lp.add_constraint(vec![0.0, 1.0], Relation::Eq, 1.0);
        assert!(lp.is_feasible(&[2.0, 1.0], 1e-9));
        assert!(!lp.is_feasible(&[0.5, 1.0], 1e-9)); // violates Ge
        assert!(!lp.is_feasible(&[2.0, 0.0], 1e-9)); // violates Eq
        assert!(!lp.is_feasible(&[-1.0, 1.0], 1e-9)); // negative variable
    }
}
