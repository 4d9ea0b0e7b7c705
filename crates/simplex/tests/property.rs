//! Property tests for the simplex solver: feasibility of returned points,
//! optimality against brute-force vertex enumeration on random small
//! LPs, and row duals that certify the optimum.

use fedval_simplex::{LinearProgram, Objective, Relation, Status};
use proptest::prelude::*;

/// Enumerate all basic solutions of `max c·x, Ax ≤ b, x ≥ 0` (n ≤ 3) by
/// intersecting every choice of n active constraints (from rows and
/// axes) and keeping the feasible ones; returns the best objective.
fn brute_force_max(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> Option<f64> {
    let n = c.len();
    // Build the full constraint list: rows (aᵢ·x = bᵢ) and axes (xⱼ = 0).
    let mut planes: Vec<(Vec<f64>, f64)> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| (row.clone(), rhs))
        .collect();
    for j in 0..n {
        let mut axis = vec![0.0; n];
        axis[j] = 1.0;
        planes.push((axis, 0.0));
    }
    let m = planes.len();
    let mut best: Option<f64> = None;

    // All n-subsets of planes (n ≤ 3, m small: fine).
    let mut index = vec![0usize; n];
    fn combos(m: usize, k: usize, start: usize, index: &mut Vec<usize>, pos: usize, out: &mut Vec<Vec<usize>>) {
        if pos == k {
            out.push(index.clone());
            return;
        }
        for i in start..m {
            index[pos] = i;
            combos(m, k, i + 1, index, pos + 1, out);
        }
    }
    let mut subsets = Vec::new();
    combos(m, n, 0, &mut index, 0, &mut subsets);

    for subset in subsets {
        // Solve the n×n system by Gaussian elimination.
        let mut mat: Vec<Vec<f64>> = subset
            .iter()
            .map(|&i| {
                let mut row = planes[i].0.clone();
                row.push(planes[i].1);
                row
            })
            .collect();
        let mut singular = false;
        for col in 0..n {
            let Some(pivot) =
                (col..n).max_by(|&r1, &r2| mat[r1][col].abs().total_cmp(&mat[r2][col].abs()))
            else {
                singular = true;
                break;
            };
            if mat[pivot][col].abs() < 1e-9 {
                singular = true;
                break;
            }
            mat.swap(col, pivot);
            let pv = mat[col][col];
            for r in 0..n {
                if r != col {
                    let f = mat[r][col] / pv;
                    #[expect(
                        clippy::needless_range_loop,
                        reason = "Gauss-Jordan elimination reads row/col indices off the math"
                    )]
                    for cc in col..=n {
                        let delta = f * mat[col][cc];
                        mat[r][cc] -= delta;
                    }
                }
            }
        }
        if singular {
            continue;
        }
        let x: Vec<f64> = (0..n).map(|r| mat[r][n] / mat[r][r]).collect();
        // Feasible?
        if x.iter().any(|&v| v < -1e-7) {
            continue;
        }
        let ok = a.iter().zip(b).all(|(row, &rhs)| {
            row.iter().zip(&x).map(|(ai, xi)| ai * xi).sum::<f64>() <= rhs + 1e-7
        });
        if !ok {
            continue;
        }
        let obj: f64 = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
        best = Some(best.map_or(obj, |b: f64| b.max(obj)));
    }
    best
}

fn coeff() -> impl Strategy<Value = f64> {
    // Small integers keep the vertex arithmetic exact enough.
    (-4i32..=6).prop_map(f64::from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solver_matches_vertex_enumeration(
        n in 2usize..=3,
        rows in prop::collection::vec(prop::collection::vec(0i32..=5, 3), 2..=5),
        rhs in prop::collection::vec(1i32..=20, 2..=5),
        obj in prop::collection::vec(1i32..=5, 3),
    ) {
        let m = rows.len().min(rhs.len());
        let a: Vec<Vec<f64>> = rows[..m]
            .iter()
            .map(|r| r[..n].iter().map(|&v| f64::from(v)).collect())
            .collect();
        let b: Vec<f64> = rhs[..m].iter().map(|&v| f64::from(v)).collect();
        let c: Vec<f64> = obj[..n].iter().map(|&v| f64::from(v)).collect();

        // Skip unbounded instances: some variable has no binding row.
        let bounded = (0..n).all(|j| a.iter().any(|row| row[j] > 0.0));
        prop_assume!(bounded);

        let mut lp = LinearProgram::new(n, Objective::Maximize);
        lp.set_objective(c.clone());
        for (row, &rhs) in a.iter().zip(&b) {
            lp.add_constraint(row.clone(), Relation::Le, rhs);
        }
        let sol = lp.solve().unwrap();
        prop_assert_eq!(sol.status, Status::Optimal);
        prop_assert!(lp.is_feasible(&sol.x, 1e-6));

        let brute = brute_force_max(&c, &a, &b).expect("origin is feasible");
        prop_assert!(
            (sol.objective - brute).abs() < 1e-6,
            "simplex {} vs brute force {}",
            sol.objective, brute
        );
    }

    #[test]
    fn returned_point_is_always_feasible(
        coeffs in prop::collection::vec(coeff(), 6),
        rhs in prop::collection::vec(0i32..=15, 3),
    ) {
        let a: Vec<Vec<f64>> = coeffs.chunks(2).map(|c| c.to_vec()).collect();
        let b: Vec<f64> = rhs.iter().map(|&v| f64::from(v)).collect();
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(vec![1.0, 1.0]);
        for (row, &rhs) in a.iter().zip(&b) {
            lp.add_constraint(row.clone(), Relation::Le, rhs);
        }
        let sol = lp.solve().unwrap();
        match sol.status {
            Status::Optimal => prop_assert!(lp.is_feasible(&sol.x, 1e-6)),
            Status::Unbounded => {} // fine: some direction escapes
            Status::Infeasible => {
                // x ≥ 0 with b ≥ 0 and Le rows: origin is feasible, so
                // infeasible must never happen here.
                prop_assert!(false, "origin was feasible");
            }
            Status::Stalled => {
                // The anti-cycling cap is generous; tiny random instances
                // must never exhaust it.
                prop_assert!(false, "pivot loop stalled on a tiny instance");
            }
        }
    }

    #[test]
    fn minimize_ge_instances_agree_with_negated_max(
        obj in prop::collection::vec(1i32..=5, 2),
        rows in prop::collection::vec(prop::collection::vec(1i32..=4, 2), 2..=3),
        rhs in prop::collection::vec(1i32..=10, 2..=3),
    ) {
        // min c·x s.t. Ax ≥ b, x ≥ 0 always has an optimum (c ≥ 0 bounds
        // below; A ≥ 1 entries make it feasible for large x).
        let m = rows.len().min(rhs.len());
        let c: Vec<f64> = obj.iter().map(|&v| f64::from(v)).collect();
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective(c.clone());
        for k in 0..m {
            let row: Vec<f64> = rows[k].iter().map(|&v| f64::from(v)).collect();
            lp.add_constraint(row, Relation::Ge, f64::from(rhs[k]));
        }
        let sol = lp.solve().unwrap();
        prop_assert_eq!(sol.status, Status::Optimal);
        prop_assert!(lp.is_feasible(&sol.x, 1e-6));
        // Optimal value is ≥ the LP bound from any single constraint:
        // c·x ≥ (min_j c_j / max a_kj)·b_k is weak; instead verify local
        // optimality: perturbing x down in any coordinate violates
        // feasibility or was already 0.
        for j in 0..2 {
            if sol.x[j] > 1e-6 {
                let mut down = sol.x.clone();
                down[j] -= 1e-3;
                let still_feasible = lp.is_feasible(&down, 0.0);
                let improves = c[j] > 0.0;
                prop_assert!(
                    !(still_feasible && improves),
                    "could cheapen x[{j}] at {:?}",
                    sol.x
                );
            }
        }
    }

    #[test]
    fn duals_certify_optimality(
        n in 1usize..=4,
        m in 1usize..=5,
        coeffs in prop::collection::vec(coeff(), 20),
        point in prop::collection::vec(0i32..=5, 4),
        gaps in prop::collection::vec(0i32..=3, 5),
        relations in prop::collection::vec(0u8..3, 5),
        obj in prop::collection::vec(-5i32..=5, 4),
        maximize in prop::bool::ANY,
    ) {
        // Every row passes through or around `point` ≥ 0, so the program is
        // feasible; one more row Σx ≤ Σpoint + 5 bounds it.
        let point: Vec<f64> = point[..n].iter().map(|&v| f64::from(v)).collect();
        let mut rows: Vec<(Vec<f64>, Relation, f64)> = (0..m)
            .map(|r| {
                let row = coeffs[r * 4..r * 4 + n].to_vec();
                let at: f64 = row.iter().zip(&point).map(|(a, x)| a * x).sum();
                let gap = f64::from(gaps[r]);
                match relations[r] {
                    0 => (row, Relation::Le, at + gap),
                    1 => (row, Relation::Ge, at - gap),
                    _ => (row, Relation::Eq, at),
                }
            })
            .collect();
        rows.push((vec![1.0; n], Relation::Le, point.iter().sum::<f64>() + 5.0));
        let c: Vec<f64> = obj[..n].iter().map(|&v| f64::from(v)).collect();
        let sense = if maximize { Objective::Maximize } else { Objective::Minimize };
        let mut lp = LinearProgram::new(n, sense);
        lp.set_objective(c.clone());
        for (row, relation, rhs) in &rows {
            lp.add_constraint(row.clone(), *relation, *rhs);
        }
        let sol = lp.solve().unwrap();
        prop_assert_eq!(sol.status, Status::Optimal);
        prop_assert_eq!(sol.duals.len(), rows.len());

        // Strong duality.
        let dual_objective: f64 = rows.iter().zip(&sol.duals).map(|((_, _, b), d)| b * d).sum();
        prop_assert!(
            (dual_objective - sol.objective).abs() < 1e-6,
            "Σ dual·rhs = {} but objective = {}", dual_objective, sol.objective
        );
        // Complementary slackness and sign on the rows: in a maximum a
        // binding ≤ row has dual ≥ 0 and a binding ≥ row dual ≤ 0.
        let up = if maximize { 1.0 } else { -1.0 };
        for ((row, relation, rhs), &d) in rows.iter().zip(&sol.duals) {
            let lhs: f64 = row.iter().zip(&sol.x).map(|(a, x)| a * x).sum();
            if (lhs - rhs).abs() > 1e-6 {
                prop_assert!(d.abs() < 1e-6, "row with slack {} has dual {}", lhs - rhs, d);
            }
            match relation {
                Relation::Le => prop_assert!(up * d > -1e-6, "≤ row dual {}", d),
                Relation::Ge => prop_assert!(up * d < 1e-6, "≥ row dual {}", d),
                Relation::Eq => {}
            }
        }
        // Dual feasibility: no variable's reduced cost improves the
        // objective, and a positive variable's reduced cost is 0.
        for j in 0..n {
            let priced: f64 = rows.iter().zip(&sol.duals).map(|((row, _, _), d)| row[j] * d).sum();
            let reduced = up * (c[j] - priced);
            prop_assert!(reduced < 1e-6, "x{} could still improve: reduced cost {}", j, reduced);
            if sol.x[j] > 1e-6 {
                prop_assert!(reduced.abs() < 1e-6, "basic x{} has reduced cost {}", j, reduced);
            }
        }
    }
}
