//! Criterion benchmarks of the underlying engines, including the
//! design-choice ablations called out in DESIGN.md §5:
//!
//! * exact vs sampled (permutation) Shapley (error/time trade-off),
//! * analytic vs exact-search allocation,
//! * optimal vs greedy allocation (the efficiency-loss baseline),
//! * simplex / nucleolus scaling,
//! * DES throughput and the empirical-game pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedval_coalition::{
    shapley, try_approx_shapley_wide, try_least_core, try_nucleolus, ApproxConfig, Coalition,
    FnGame, TableGame,
};
use fedval_core::allocation::{solve, solve_exact, solve_greedy, GreedyPolicy};
use fedval_core::{paper_facilities, CapacityProfile, Demand, ExperimentClass, Volume};
use fedval_simplex::{LinearProgram, Objective, Relation};
use fedval_testbed::{
    run_coalition_faulted, synthetic_authority, FaultPlan, Federation, SimConfig, Workload,
};
use std::hint::black_box;
use std::time::Duration;

/// A deterministic synthetic superadditive game for scaling benches.
#[expect(clippy::expect_used, reason = "the benches ask for at most 16 players")]
fn synthetic_game(n: usize) -> TableGame {
    let game = FnGame::new(n, |c: Coalition| {
        let s = c.len() as f64;
        let spice = (c.0.wrapping_mul(0x9E3779B97F4A7C15) >> 48) as f64 / 65536.0;
        s * s + spice
    });
    TableGame::try_from_walk(&game, 1).expect("fits a table")
}

fn bench_shapley(c: &mut Criterion) {
    let mut group = c.benchmark_group("shapley");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    for n in [8usize, 12, 16] {
        let game = synthetic_game(n);
        group.bench_with_input(BenchmarkId::new("exact", n), &game, |b, g| {
            b.iter(|| black_box(shapley(g)))
        });
        let sampled = ApproxConfig {
            samples: 1000,
            seed: 7,
            force: true,
            ..ApproxConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("permutation_1k", n), &game, |b, g| {
            b.iter(|| black_box(try_approx_shapley_wide(g, &sampled)))
        });
    }
    group.finish();
}

fn bench_core_concepts(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_concepts");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    for n in [4usize, 6] {
        let game = synthetic_game(n);
        group.bench_with_input(BenchmarkId::new("least_core", n), &game, |b, g| {
            b.iter(|| black_box(try_least_core(g)))
        });
        group.bench_with_input(BenchmarkId::new("nucleolus", n), &game, |b, g| {
            b.iter(|| black_box(try_nucleolus(g)))
        });
    }
    group.finish();
}

#[expect(
    clippy::unwrap_used,
    reason = "a benchmarked LP that fails to solve has no time worth reporting"
)]
fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    for m in [32usize, 128, 512] {
        // Dense random-ish LP: maximize Σx s.t. m band constraints.
        group.bench_with_input(BenchmarkId::new("rows", m), &m, |b, &m| {
            b.iter(|| {
                let n = 16;
                let mut lp = LinearProgram::new(n, Objective::Maximize);
                for j in 0..n {
                    lp.set_objective_coefficient(j, 1.0 + (j % 3) as f64);
                }
                for i in 0..m {
                    let coeffs: Vec<f64> = (0..n)
                        .map(|j| 1.0 + ((i * 7 + j * 13) % 5) as f64)
                        .collect();
                    lp.add_constraint(coeffs, Relation::Le, 100.0 + (i % 11) as f64);
                }
                black_box(lp.solve().unwrap())
            })
        });
    }
    group.finish();
}

#[expect(
    clippy::unwrap_used,
    reason = "a benchmarked allocation that fails to solve has no time worth reporting"
)]
fn bench_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));

    // Fig. 6 grand-coalition instance.
    let profile = CapacityProfile::from_groups(vec![(80, 100), (20, 400), (10, 800)]);
    let demand = Demand::capacity_filling(ExperimentClass::simple("e", 299.0, 1.0));
    group.bench_function("analytic_fig6", |b| {
        b.iter(|| black_box(solve(&profile, &demand).unwrap()))
    });
    group.bench_function("greedy_max_diversity_fig6", |b| {
        b.iter(|| black_box(solve_greedy(&profile, &demand, GreedyPolicy::MaxDiversity)))
    });

    // Tiny instance where the exact solver is tractable (ablation:
    // analytic vs exhaustive).
    let tiny = CapacityProfile::from_groups(vec![(3, 4), (1, 4)]);
    let tiny_demand = Demand::single(ExperimentClass::simple("e", 2.0, 1.0), Volume::Count(4));
    group.bench_function("analytic_tiny", |b| {
        b.iter(|| black_box(solve(&tiny, &tiny_demand).unwrap()))
    });
    group.bench_function("exact_tiny", |b| {
        b.iter(|| black_box(solve_exact(&tiny, &tiny_demand)))
    });

    // Two-class mixture (Fig. 7 grand coalition at sigma = 0.5).
    let fig7 = CapacityProfile::from_groups(vec![(80, 100), (50, 400), (30, 800)]);
    let mix = Demand::mixture(
        ExperimentClass::simple("bulk", 0.0, 1.0),
        ExperimentClass::simple("diverse", 700.0, 1.0),
        60,
        0.5,
    );
    group.bench_function("analytic_fig7_mixture", |b| {
        b.iter(|| black_box(solve(&fig7, &mix).unwrap()))
    });
    group.finish();
}

fn bench_testbed(c: &mut Criterion) {
    let mut group = c.benchmark_group("testbed");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(2000));
    let federation = Federation::new(vec![
        synthetic_authority("PLC", 0, 40, 2, 4, 100),
        synthetic_authority("PLE", 40, 30, 2, 4, 80),
        synthetic_authority("PLJ", 70, 20, 2, 4, 60),
    ]);
    let workload = Workload::planetlab_mix(5.0, 2.0);
    let config = SimConfig {
        horizon: 500.0,
        warmup: 50.0,
        seed: 7,
        churn: None,
    };
    group.bench_function("slice_sim_grand_coalition", |b| {
        b.iter(|| {
            black_box(run_coalition_faulted(
                &federation,
                Coalition::grand(3),
                &workload,
                &config,
                &FaultPlan::new(),
            ))
        })
    });
    group.finish();
}

fn bench_static_vs_measured(c: &mut Criterion) {
    // Ablation 4: closed-form V(S) vs DES-measured V(S) for a 3-player
    // federation (full game tables).
    let mut group = c.benchmark_group("game_table");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(2000));
    group.bench_function("closed_form_table", |b| {
        b.iter(|| {
            let facilities = paper_facilities([80, 60, 20]);
            let demand = Demand::capacity_filling(ExperimentClass::simple("e", 250.0, 1.0));
            let game = fedval_core::FederationGame::new(&facilities, &demand);
            black_box(TableGame::try_from_walk(&game, 1))
        })
    });
    let federation = Federation::new(vec![
        synthetic_authority("PLC", 0, 10, 2, 4, 100),
        synthetic_authority("PLE", 10, 8, 2, 4, 80),
        synthetic_authority("PLJ", 18, 6, 2, 4, 60),
    ]);
    let workload = Workload::planetlab_mix(2.0, 1.0);
    let config = SimConfig {
        horizon: 200.0,
        warmup: 20.0,
        seed: 11,
        churn: None,
    };
    group.bench_function("measured_table", |b| {
        b.iter(|| {
            black_box(fedval_testbed::empirical_game_diagnosed(
                &federation,
                &workload,
                &config,
                &FaultPlan::new(),
            ))
        })
    });
    group.finish();
}

fn bench_extended_values(c: &mut Criterion) {
    use fedval_coalition::{owen_value, try_balancedness, weighted_shapley};
    let mut group = c.benchmark_group("extended_values");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    for n in [8usize, 12] {
        let game = synthetic_game(n);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        group.bench_with_input(BenchmarkId::new("weighted_shapley", n), &game, |b, g| {
            b.iter(|| black_box(weighted_shapley(g, &weights)))
        });
        // Unions: pairs of players.
        let unions: Vec<Coalition> = (0..n / 2)
            .map(|k| Coalition::from_players([2 * k, 2 * k + 1]))
            .collect();
        group.bench_with_input(BenchmarkId::new("owen_value", n), &game, |b, g| {
            b.iter(|| black_box(owen_value(g, &unions)))
        });
    }
    let game6 = synthetic_game(6);
    group.bench_function("balancedness_6", |b| {
        b.iter(|| black_box(try_balancedness(&game6)))
    });
    group.finish();
}

fn bench_market(c: &mut Criterion) {
    use fedval_market::{clear_double_auction, run_combinatorial_auction, Ask, Bid, Order};
    let mut group = c.benchmark_group("market");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    let facilities = paper_facilities([4, 4, 4]);
    let bids: Vec<Bid> = (0..200)
        .map(|i| Bid::new(format!("b{i}"), 1 + (i * 13) % 700, 10.0 + (i * 7 % 90) as f64))
        .collect();
    group.bench_function("combinatorial_200_bids", |b| {
        b.iter(|| black_box(run_combinatorial_auction(&facilities, &bids)))
    });
    let asks: Vec<Ask> = (0..100)
        .map(|i| Ask {
            quantity: 50 + (i % 7),
            reserve: (i % 5) as f64 * 0.2,
        })
        .collect();
    let orders: Vec<Order> = (0..100)
        .map(|i| Order {
            quantity: 40 + (i % 11),
            limit: 0.5 + (i % 9) as f64 * 0.3,
        })
        .collect();
    group.bench_function("double_auction_100x100", |b| {
        b.iter(|| black_box(clear_double_auction(&asks, &orders)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shapley,
    bench_core_concepts,
    bench_simplex,
    bench_allocation,
    bench_testbed,
    bench_static_vs_measured,
    bench_extended_values,
    bench_market
);
criterion_main!(benches);
