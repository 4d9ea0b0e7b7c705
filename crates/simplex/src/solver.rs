//! Two-phase simplex driver.

use crate::problem::{LinearProgram, Objective, ProblemError, Relation};
use crate::tableau::{PivotOutcome, Tableau};
use crate::EPSILON;

/// Resolution status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The pivot loop hit its iteration cap without converging. Bland's rule
    /// precludes genuine cycling, so this flags numerical degeneracy; callers
    /// should treat the solve as failed rather than trust partial values.
    Stalled,
}

/// Result of [`LinearProgram::solve`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Why the solver stopped.
    pub status: Status,
    /// Optimal objective value in the *original* sense (only meaningful for
    /// [`Status::Optimal`]).
    pub objective: f64,
    /// Optimal values of the decision variables (zeros unless `Optimal`).
    pub x: Vec<f64>,
    /// One dual value per constraint, in the caller's sense and row order:
    /// at the optimum `objective = Σ duals[r] · rhs[r]` (strong duality),
    /// and a row with slack has dual 0 (complementary slackness). Empty
    /// unless `Optimal`.
    pub duals: Vec<f64>,
}

impl LinearProgram {
    /// Solves the program with the two-phase primal simplex method.
    ///
    /// Returns `Err` only for malformed input (see
    /// [`LinearProgram::validate`]); infeasibility and unboundedness are
    /// reported through [`Solution::status`].
    ///
    /// # Errors
    /// Only malformed input, via [`LinearProgram::validate`]; infeasibility
    /// and unboundedness are values of [`Solution::status`], not errors.
    pub fn solve(&self) -> Result<Solution, ProblemError> {
        if !fedval_obs::is_enabled() {
            return self.solve_counted().map(|(s, _)| s);
        }
        let start = fedval_obs::now_ns();
        let result = self.solve_counted();
        let dur_ns = fedval_obs::now_ns().saturating_sub(start);
        if let Ok((solution, pivots)) = &result {
            fedval_obs::counter_add("simplex.solver.solves", 1);
            fedval_obs::counter_add("simplex.solver.pivots", *pivots as u64);
            match solution.status {
                Status::Optimal => {}
                Status::Infeasible => fedval_obs::counter_add("simplex.solver.infeasible", 1),
                Status::Unbounded => fedval_obs::counter_add("simplex.solver.unbounded", 1),
                Status::Stalled => fedval_obs::counter_add("simplex.solver.stalls", 1),
            }
            fedval_obs::observe_ns("simplex.solver.solve_ns", dur_ns);
        }
        result.map(|(s, _)| s)
    }

    /// The actual two-phase solve, additionally reporting the total number
    /// of pivots performed (phase 1 + drive-out + phase 2).
    fn solve_counted(&self) -> Result<(Solution, usize), ProblemError> {
        self.validate()?;

        let n = self.n_vars;
        let m = self.constraints.len();

        // Column layout: [structural 0..n | slack/surplus | artificial].
        let mut n_slack = 0usize;
        for c in &self.constraints {
            if matches!(c.relation, Relation::Le | Relation::Ge) {
                n_slack += 1;
            }
        }

        // Normalize rows to rhs ≥ 0, then decide which rows need an
        // artificial: rows whose slack cannot serve as the initial basic
        // variable (Ge's surplus enters with −1, Eq has no slack at all).
        enum BasisSource {
            Slack(usize),
            Artificial,
        }
        struct RowPlan {
            coeffs: Vec<f64>,
            rhs: f64,
            negated: bool,
            slack: Option<(usize, f64)>, // (column offset among slacks, sign)
            basis: BasisSource,
        }
        let mut plans = Vec::with_capacity(m);
        let mut slack_idx = 0usize;
        for c in &self.constraints {
            let mut coeffs = c.coeffs.clone();
            let mut rhs = c.rhs;
            let mut relation = c.relation;
            let negated = rhs < 0.0;
            if negated {
                for v in &mut coeffs {
                    *v = -*v;
                }
                rhs = -rhs;
                relation = match relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
            let (slack, basis) = match relation {
                Relation::Le => {
                    let s = slack_idx;
                    slack_idx += 1;
                    (Some((s, 1.0)), BasisSource::Slack(s))
                }
                Relation::Ge => {
                    let s = slack_idx;
                    slack_idx += 1;
                    (Some((s, -1.0)), BasisSource::Artificial)
                }
                Relation::Eq => (None, BasisSource::Artificial),
            };
            plans.push(RowPlan {
                coeffs,
                rhs,
                negated,
                slack,
                basis,
            });
        }
        let n_artificial = plans
            .iter()
            .filter(|p| matches!(p.basis, BasisSource::Artificial))
            .count();
        let n_cols = n + n_slack + n_artificial;

        let mut rows = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut art_col = n + n_slack;
        for p in &plans {
            let mut row = vec![0.0; n_cols + 1];
            row[..n].copy_from_slice(&p.coeffs);
            if let Some((s, sign)) = p.slack {
                row[n + s] = sign;
            }
            row[n_cols] = p.rhs;
            match p.basis {
                BasisSource::Artificial => {
                    row[art_col] = 1.0;
                    basis.push(art_col);
                    art_col += 1;
                }
                // The ≤-slack is the initial basic variable.
                BasisSource::Slack(s) => basis.push(n + s),
            }
            rows.push(row);
        }
        // Each row's initial basic column is a unit column, so its reduced
        // cost at the optimum is minus the row's dual (of the normalized,
        // minimizing program).
        let initial_basis = basis.clone();
        let max_iters = Tableau::iteration_cap(m, n_cols);
        let stalled = |n: usize| Solution {
            status: Status::Stalled,
            objective: 0.0,
            x: vec![0.0; n],
            duals: Vec::new(),
        };

        let mut phase1_pivots = 0usize;

        // --- Phase 1: minimize the sum of artificials. ---
        if n_artificial > 0 {
            let mut cost = vec![0.0; n_cols];
            #[expect(
                clippy::needless_range_loop,
                reason = "the artificial-column range (n + n_slack)..n_cols is the point; an iterator over a subslice would hide the offsets"
            )]
            for j in (n + n_slack)..n_cols {
                cost[j] = 1.0;
            }
            let mut t = Tableau::new(rows, cost, basis, n_cols);
            t.price_out_basis();
            match t.run(&|_| true, max_iters) {
                PivotOutcome::Optimal => {}
                // Sum of non-negative artificials cannot be unbounded below,
                // so "unbounded" here — like an exhausted pivot budget — means
                // the arithmetic went numerically bad. Surface that as a
                // stalled solve instead of trusting the tableau.
                PivotOutcome::Unbounded | PivotOutcome::Stalled => {
                    return Ok((stalled(n), t.pivots));
                }
            }
            // cost_rhs holds −(Σ artificials); feasible iff ~0.
            if t.cost_rhs < -EPSILON {
                return Ok((
                    Solution {
                        status: Status::Infeasible,
                        objective: 0.0,
                        x: vec![0.0; n],
                        duals: Vec::new(),
                    },
                    t.pivots,
                ));
            }
            // Drive any artificial still basic (at value 0) out of the basis
            // by pivoting on some nonzero non-artificial entry in its row. A
            // row with no such entry is redundant and may keep its artificial
            // (it stays at zero; phase 2 forbids artificials from entering).
            for r in 0..t.rows.len() {
                if t.basis[r] >= n + n_slack {
                    if let Some(j) = (0..n + n_slack).find(|&j| t.rows[r][j].abs() > EPSILON) {
                        t.pivot(r, j);
                    }
                }
            }
            phase1_pivots = t.pivots;
            rows = t.rows;
            basis = t.basis;
        }

        // --- Phase 2: minimize the (sign-adjusted) real objective. ---
        let sign = match self.sense {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let mut cost = vec![0.0; n_cols];
        #[expect(
            clippy::needless_range_loop,
            reason = "only the first n of n_cols entries are structural; the explicit bound documents that slack/artificial costs stay zero"
        )]
        for j in 0..n {
            cost[j] = sign * self.objective[j];
        }
        let mut t = Tableau::new(rows, cost, basis, n_cols);
        t.price_out_basis();
        let structural_limit = n + n_slack;
        let outcome = t.run(&|j| j < structural_limit, max_iters);
        let total_pivots = phase1_pivots + t.pivots;
        let solution = match outcome {
            PivotOutcome::Optimal => {
                let x: Vec<f64> = (0..n).map(|j| t.value_of(j)).collect();
                let objective = self.objective_value(&x);
                let duals = plans
                    .iter()
                    .zip(&initial_basis)
                    .map(|(p, &col)| {
                        let row_sign = if p.negated { -1.0 } else { 1.0 };
                        -sign * row_sign * t.cost[col]
                    })
                    .collect();
                Solution {
                    status: Status::Optimal,
                    objective,
                    x,
                    duals,
                }
            }
            PivotOutcome::Unbounded => Solution {
                status: Status::Unbounded,
                objective: 0.0,
                x: vec![0.0; n],
                duals: Vec::new(),
            },
            PivotOutcome::Stalled => stalled(n),
        };
        Ok((solution, total_pivots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearProgram, Objective, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// Strong duality (`objective = Σ dualᵣ·rhsᵣ`), complementary
    /// slackness (a row with slack has dual 0) and the dual's sign for
    /// each inequality, all within 1e-9.
    fn assert_duality(lp: &LinearProgram, s: &Solution) {
        assert_eq!(s.duals.len(), lp.constraints.len());
        let dual_objective: f64 = lp
            .constraints
            .iter()
            .zip(&s.duals)
            .map(|(c, d)| c.rhs * d)
            .sum();
        assert!(
            (dual_objective - s.objective).abs() < 1e-9,
            "Σ dual·rhs = {dual_objective}, objective {}",
            s.objective
        );
        // A binding ≤ row raises a maximum (dual ≥ 0) and lowers a minimum.
        let sense = match lp.sense {
            Objective::Maximize => 1.0,
            Objective::Minimize => -1.0,
        };
        for (c, &d) in lp.constraints.iter().zip(&s.duals) {
            let lhs: f64 = c.coeffs.iter().zip(&s.x).map(|(a, v)| a * v).sum();
            if (lhs - c.rhs).abs() > 1e-9 {
                assert!(
                    d.abs() < 1e-9,
                    "row with slack {} has dual {d}",
                    lhs - c.rhs
                );
            }
            match c.relation {
                Relation::Le => assert!(sense * d > -1e-9, "≤ row dual {d}"),
                Relation::Ge => assert!(sense * d < 1e-9, "≥ row dual {d}"),
                Relation::Eq => {}
            }
        }
    }

    #[test]
    fn maximize_with_le_constraints() {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(vec![3.0, 5.0]);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 4.0);
        lp.add_constraint(vec![0.0, 2.0], Relation::Le, 12.0);
        lp.add_constraint(vec![3.0, 2.0], Relation::Le, 18.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
        assert_duality(&lp, &s);
        // The textbook shadow prices of the three rows.
        assert_close(s.duals[0], 0.0);
        assert_close(s.duals[1], 1.5);
        assert_close(s.duals[2], 1.0);
    }

    #[test]
    fn minimize_with_ge_constraints_needs_phase1() {
        // Classic diet-style LP: min 0.2x + 0.3y, x+y ≥ 10, 2x+y ≥ 12.
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective(vec![0.2, 0.3]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Ge, 10.0);
        lp.add_constraint(vec![2.0, 1.0], Relation::Ge, 12.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        // x+y ≥ 10 binds with cheapest mix: all x (0.2/unit) once 2x+y ok.
        assert_close(s.objective, 2.0);
        assert_close(s.x[0], 10.0);
        assert_close(s.x[1], 0.0);
        assert_duality(&lp, &s);
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y s.t. x + y = 3, x − y = 1 → x=2, y=1, obj=4.
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(vec![1.0, 2.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Eq, 3.0);
        lp.add_constraint(vec![1.0, -1.0], Relation::Eq, 1.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 4.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 1.0);
        assert_duality(&lp, &s);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LinearProgram::new(1, Objective::Maximize);
        lp.set_objective(vec![1.0]);
        lp.add_constraint(vec![1.0], Relation::Ge, 5.0);
        lp.add_constraint(vec![1.0], Relation::Le, 3.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Infeasible);
        assert!(s.duals.is_empty());
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(vec![1.0, 0.0]);
        lp.add_constraint(vec![-1.0, 1.0], Relation::Le, 1.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Unbounded);
        assert!(s.duals.is_empty());
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x ≤ −1 is infeasible for x ≥ 0; expressed as −x ≥ 1 internally.
        let mut lp = LinearProgram::new(1, Objective::Maximize);
        lp.set_objective(vec![1.0]);
        lp.add_constraint(vec![1.0], Relation::Le, -1.0);
        assert_eq!(lp.solve().unwrap().status, Status::Infeasible);

        // −x ≥ −5 ⇔ x ≤ 5 is feasible and bounds the objective.
        let mut lp = LinearProgram::new(1, Objective::Maximize);
        lp.set_objective(vec![1.0]);
        lp.add_constraint(vec![-1.0], Relation::Ge, -5.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 5.0);
        assert_duality(&lp, &s);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Highly degenerate: many constraints intersecting at the origin.
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 0.0);
        lp.add_constraint(vec![0.0, 1.0], Relation::Le, 0.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::Le, 0.0);
        lp.add_constraint(vec![2.0, 1.0], Relation::Le, 0.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 0.0);
        assert_duality(&lp, &s);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice plus its double: rank-deficient system.
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(vec![1.0, 0.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Eq, 2.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::Eq, 2.0);
        lp.add_constraint(vec![2.0, 2.0], Relation::Eq, 4.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 2.0);
        assert_close(s.x[0], 2.0);
        assert_duality(&lp, &s);
    }

    #[test]
    fn free_variable_pair_round_trip() {
        // max t s.t. t ≤ 3 − x, t ≤ x − 1 with t free: optimum t=1 at x=2.
        let mut lp = LinearProgram::new(1, Objective::Maximize);
        let (tp, tm) = lp.add_free_variable_pair();
        lp.set_objective_coefficient(tp, 1.0);
        lp.set_objective_coefficient(tm, -1.0);
        // x + t ≤ 3 ; −x + t ≤ −1
        lp.add_constraint(vec![1.0, 1.0, -1.0], Relation::Le, 3.0);
        lp.add_constraint(vec![-1.0, 1.0, -1.0], Relation::Le, -1.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.x[tp] - s.x[tm], 1.0);
        assert_duality(&lp, &s);
    }

    #[test]
    fn solution_is_feasible_for_original_program() {
        let mut lp = LinearProgram::new(3, Objective::Minimize);
        lp.set_objective(vec![1.0, 2.0, 3.0]);
        lp.add_constraint(vec![1.0, 1.0, 1.0], Relation::Ge, 6.0);
        lp.add_constraint(vec![1.0, -1.0, 0.0], Relation::Eq, 1.0);
        lp.add_constraint(vec![0.0, 1.0, 2.0], Relation::Le, 8.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!(lp.is_feasible(&s.x, 1e-7));
        assert_duality(&lp, &s);
    }
}
