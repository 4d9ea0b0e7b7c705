//! Sampled Shapley estimation with certified error bounds — the layer that
//! breaks the `2^n` wall.
//!
//! Exact solution concepts in this crate enumerate coalitions and therefore
//! hard-cap the player count (see [`GameError::TooManyPlayers`]). Real
//! federations (PlanetLab-scale, hundreds of authorities) need sharing
//! weights anyway. This module supplies them:
//!
//! * [`ApproxShapley`] — estimated ϕ with a per-player confidence interval
//!   at a configurable level, plus the sample budget and seed that produced
//!   it (the certificate, in the sense of arXiv:1709.04176 *"Computing the
//!   Shapley Value in Allocation Problems: Approximations and Bounds"*).
//! * [`shapley_auto_wide`] — the solver-selection layer: exact enumeration
//!   below [`EXACT_SHAPLEY_MAX_PLAYERS`], seeded sampling above it (or
//!   always, under [`ApproxConfig::force`]).
//!
//! Both run on any [`WideGame`]: the characteristic function is read over
//! member slices, so games are not bounded by the
//! [`Coalition`](crate::Coalition) bitset width.
//!
//! # Determinism contract
//!
//! The permutation estimator is **byte-identical for a fixed `(seed,
//! samples)` at any thread count**. It draws whole player orderings in
//! fixed-size blocks of [`PERMUTATION_BLOCK`]; block `b` owns the RNG
//! stream `derive_seed(seed, b)` and its partial sums are folded in block
//! order after the workers join, so the f64 addition order never depends
//! on scheduling. This mirrors the sweep engine's capture/replay model
//! (DESIGN.md §9); obs counters are folded by the sharded registry and
//! never feed back into results.
//!
//! # Error bounds
//!
//! `std_error[i]` is the sample standard deviation of player `i`'s marginal
//! contributions divided by `√samples`. `ci_half_width[i] = z ·
//! std_error[i]` where `z` is the two-sided normal quantile for the
//! configured confidence level — the CLT interval. [`hoeffding_samples`] /
//! [`hoeffding_epsilon`] expose the distribution-free a-priori bound
//! `m ≥ ln(2/δ)·Δ²/(2ε²)` from arXiv:1709.04176 for callers that need a
//! guarantee before sampling.

use crate::coalition::PlayerId;
use crate::error::GameError;
use crate::game::{TableGame, WideGame};
use crate::shapley::{normalize, player_sums};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Largest player count for which the solver-selection layer picks exact
/// enumeration: `2^n` characteristic-function evaluations at 16 players
/// is ~65k, comfortably interactive, held in a 512 KiB table. It
/// deliberately matches the least-core LP cap so "exact everything" and
/// "sampled Shapley" switch at one boundary.
pub const EXACT_SHAPLEY_MAX_PLAYERS: usize = 16;

/// Upper bound on the player count the sampled path accepts. This is a
/// sanity cap, not an algorithmic wall: permutation sampling is
/// `samples · n` evaluations, and 512 authorities at the default budget is
/// already ~10⁵ allocation solves per estimate.
pub const MAX_SAMPLED_PLAYERS: usize = 512;

/// Permutations per RNG block in the parallel permutation estimator. Fixed
/// forever (changing it changes every seeded result): partial sums are
/// accumulated per block and folded in block order, which is what makes the
/// estimate independent of the thread count.
pub const PERMUTATION_BLOCK: usize = 16;

/// Budget, seed, and confidence level for the permutation estimator, plus
/// the solver-selection override.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Sample budget: sampled permutations.
    pub samples: usize,
    /// RNG seed; fixes the result bytes together with `samples`.
    pub seed: u64,
    /// Two-sided confidence level for the reported intervals, in (0, 1).
    pub confidence: f64,
    /// Worker threads for sampling (results are thread-count invariant).
    pub threads: usize,
    /// When set, sample even below [`EXACT_SHAPLEY_MAX_PLAYERS`] — the
    /// `--approx` override.
    pub force: bool,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            samples: 256,
            seed: 42,
            confidence: 0.95,
            threads: 1,
            force: false,
        }
    }
}

impl ApproxConfig {
    /// Validates the sampling parameters.
    ///
    /// # Errors
    /// [`GameError::NoSamples`] when `samples == 0`,
    /// [`GameError::BadConfidence`] when the level is not strictly inside
    /// (0, 1).
    pub fn validate(&self) -> Result<(), GameError> {
        if self.samples == 0 {
            return Err(GameError::NoSamples {
                solver: "approx_shapley",
            });
        }
        z_for_confidence(self.confidence)?;
        Ok(())
    }

    /// The solver-selection rule: an `n`-player game is sampled when it
    /// is past [`EXACT_SHAPLEY_MAX_PLAYERS`] or [`ApproxConfig::force`]
    /// is set, and enumerated exactly otherwise.
    pub fn selects_sampling(&self, n: usize) -> bool {
        self.force || n > EXACT_SHAPLEY_MAX_PLAYERS
    }
}

/// A sampled Shapley estimate with its error certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxShapley {
    /// Estimated Shapley value per player (unbiased).
    pub phi: Vec<f64>,
    /// Standard error of `phi[i]`.
    pub std_error: Vec<f64>,
    /// Half-width of the two-sided CI: `z(confidence) · std_error[i]`.
    pub ci_half_width: Vec<f64>,
    /// Confidence level the half-widths certify.
    pub confidence: f64,
    /// Sample budget actually drawn (permutations).
    pub samples: usize,
    /// Seed that reproduces these exact bytes.
    pub seed: u64,
    /// `V(N)`, evaluated exactly once — the normalization denominator.
    pub grand_value: f64,
}

impl ApproxShapley {
    /// Normalized sharing weights ϕ̂ᵢ = ϕᵢ / V(N) (eq. 5 of the paper);
    /// all zeros when `V(N) ≈ 0`.
    pub fn shares(&self) -> Vec<f64> {
        normalize(self.phi.clone(), self.grand_value)
    }

    /// CI half-widths on the normalized shares (scaled by `1/|V(N)|`; all
    /// zeros when `V(N) ≈ 0`).
    pub fn ci_shares(&self) -> Vec<f64> {
        if self.grand_value.abs() < 1e-12 {
            vec![0.0; self.ci_half_width.len()]
        } else {
            let scale = self.grand_value.abs();
            self.ci_half_width.iter().map(|h| h / scale).collect()
        }
    }

    /// Whether every `exact[i]` lies inside `phi[i] ± ci_half_width[i]`
    /// (used by the validation gates; `tol` absorbs f64 noise on
    /// zero-variance players).
    pub fn contains(&self, exact: &[f64], tol: f64) -> bool {
        exact.len() == self.phi.len()
            && exact.iter().enumerate().all(|(i, &e)| {
                (e - self.phi[i]).abs() <= self.ci_half_width[i] + tol
            })
    }

    /// Largest per-player CI half-width — the headline error number.
    pub fn max_ci_half_width(&self) -> f64 {
        self.ci_half_width.iter().copied().fold(0.0, f64::max)
    }
}

/// What the solver-selection layer returned: exact values below the cap,
/// a certified estimate above it.
#[derive(Debug, Clone, PartialEq)]
pub enum ShapleyEstimate {
    /// Exact enumeration ran (`n ≤` [`EXACT_SHAPLEY_MAX_PLAYERS`] and not
    /// forced).
    Exact(Vec<f64>),
    /// The sampled estimator ran.
    Approx(ApproxShapley),
}

impl ShapleyEstimate {
    /// The (estimated or exact) Shapley values.
    pub fn phi(&self) -> &[f64] {
        match self {
            ShapleyEstimate::Exact(phi) => phi,
            ShapleyEstimate::Approx(a) => &a.phi,
        }
    }

    /// Whether this is a sampled estimate.
    pub fn is_approx(&self) -> bool {
        matches!(self, ShapleyEstimate::Approx(_))
    }

    /// The certificate, when sampled.
    pub fn as_approx(&self) -> Option<&ApproxShapley> {
        match self {
            ShapleyEstimate::Approx(a) => Some(a),
            ShapleyEstimate::Exact(_) => None,
        }
    }
}

/// SplitMix64 finalizer — the stream mixer behind [`derive_seed`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the RNG seed for stream `stream` of master seed `seed`. Streams
/// are statistically independent; the mapping is fixed forever (results are
/// seeded by it). Public so downstream deterministic-parallel consumers
/// (the formation engine's per-round rule streams, for one) share the same
/// stream discipline instead of inventing incompatible mixers.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// Two-sided normal quantile `z` such that `P(|Z| ≤ z) = confidence`.
///
/// Uses Acklam's rational approximation of the inverse normal CDF
/// (|relative error| < 1.15e-9 over the full open interval), which is pure
/// f64 arithmetic and therefore deterministic across platforms.
///
/// # Errors
/// [`GameError::BadConfidence`] unless `0 < confidence < 1`.
pub fn z_for_confidence(confidence: f64) -> Result<f64, GameError> {
    if !confidence.is_finite() || confidence <= 0.0 || confidence >= 1.0 {
        return Err(GameError::BadConfidence { value: confidence });
    }
    Ok(inverse_normal_cdf(0.5 + confidence / 2.0))
}

/// Acklam's inverse normal CDF approximation; `p` must be in (0, 1).
fn inverse_normal_cdf(p: f64) -> f64 {
    #[expect(
        clippy::excessive_precision,
        reason = "Acklam's published coefficients, kept digit for digit"
    )]
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// A-priori permutation budget from Hoeffding's inequality
/// (arXiv:1709.04176): with marginal contributions confined to an interval
/// of width `range`, `m` sampled permutations put each `|ϕ̂ᵢ − ϕᵢ| ≤
/// epsilon` with probability ≥ `1 − delta` as soon as
/// `m ≥ ln(2/δ)·range²/(2ε²)`. Returns that minimal `m` (rounded up);
/// degenerate inputs (`epsilon ≤ 0`, `delta` outside (0, 1), non-positive
/// `range`) yield `usize::MAX` as an explicit "no finite budget certifies
/// this" sentinel.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "m is a positive ceil() checked below usize::MAX before the cast"
)]
pub fn hoeffding_samples(range: f64, epsilon: f64, delta: f64) -> usize {
    // Every comparison with NaN is false, so NaN inputs get the sentinel.
    let certifiable = range > 0.0 && epsilon > 0.0 && delta > 0.0 && delta < 1.0;
    if !certifiable {
        return usize::MAX;
    }
    let m = ((2.0 / delta).ln() * range * range / (2.0 * epsilon * epsilon)).ceil();
    if m >= usize::MAX as f64 {
        usize::MAX
    } else {
        m as usize
    }
}

/// The dual of [`hoeffding_samples`]: the distribution-free error radius
/// `ε = range·√(ln(2/δ)/(2m))` certified by `m` sampled permutations at
/// failure probability `delta`. Degenerate inputs yield `f64::INFINITY`.
pub fn hoeffding_epsilon(range: f64, samples: usize, delta: f64) -> f64 {
    // Every comparison with NaN is false, so NaN inputs get the sentinel.
    let certifiable = range > 0.0 && samples > 0 && delta > 0.0 && delta < 1.0;
    if !certifiable {
        return f64::INFINITY;
    }
    range * ((2.0 / delta).ln() / (2.0 * samples as f64)).sqrt()
}

/// Runs one permutation block: `count` whole orderings drawn from the
/// block's own RNG stream, marginal contributions accumulated into the
/// block-local `sum`/`sum_sq`.
fn permutation_block<G: WideGame + ?Sized>(
    game: &G,
    n: usize,
    seed: u64,
    block: usize,
    count: usize,
    sum: &mut [f64],
    sum_sq: &mut [f64],
) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, block as u64));
    let mut order: Vec<PlayerId> = (0..n).collect();
    let v_empty = game.value_members(&[]);
    for _ in 0..count {
        order.shuffle(&mut rng);
        let mut prev = v_empty;
        for (&p, cur) in order.iter().zip(game.value_prefixes(&order)) {
            let delta = cur - prev;
            sum[p] += delta;
            sum_sq[p] += delta * delta;
            prev = cur;
        }
    }
    fedval_obs::counter_add("coalition.approx.permutations", count as u64);
    fedval_obs::counter_add("coalition.approx.evals", (count * n) as u64);
}

/// Permutation estimator over a [`WideGame`], block-parallel and
/// thread-count invariant (see the module docs for the contract).
fn permutation_estimate<G: WideGame + ?Sized>(
    game: &G,
    cfg: &ApproxConfig,
    z: f64,
) -> ApproxShapley {
    let n = game.n_players();
    let samples = cfg.samples;
    let blocks = samples.div_ceil(PERMUTATION_BLOCK);
    let threads = cfg.threads.clamp(1, blocks);
    let _span = fedval_obs::span_with("coalition.shapley.approx", || {
        format!(
            "method=permutation n={n} samples={samples} seed={} threads={threads}",
            cfg.seed
        )
    });

    // One partial-sum pair per block, folded in block order below — the
    // fold order (hence the f64 result) is a function of `blocks` alone.
    let mut partials: Vec<(Vec<f64>, Vec<f64>)> =
        (0..blocks).map(|_| (vec![0.0; n], vec![0.0; n])).collect();
    let count_of = |b: usize| {
        if b + 1 == blocks {
            samples - (blocks - 1) * PERMUTATION_BLOCK
        } else {
            PERMUTATION_BLOCK
        }
    };
    let outcome = crossbeam::thread::scope(|scope| {
        let per = blocks.div_ceil(threads);
        let mut base = 0usize;
        for chunk in partials.chunks_mut(per) {
            let start = base;
            base += chunk.len();
            scope.spawn(move |_| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    let b = start + k;
                    permutation_block(game, n, cfg.seed, b, count_of(b), &mut slot.0, &mut slot.1);
                }
            });
        }
    });
    if let Err(payload) = outcome {
        // A worker panicked (characteristic function blew up): propagate
        // the original panic rather than masking it with a new one.
        std::panic::resume_unwind(payload);
    }

    let mut sum = vec![0.0; n];
    let mut sum_sq = vec![0.0; n];
    for (s, q) in &partials {
        for i in 0..n {
            sum[i] += s[i];
            sum_sq[i] += q[i];
        }
    }
    let m = samples as f64;
    let phi: Vec<f64> = sum.iter().map(|s| s / m).collect();
    let std_error: Vec<f64> = (0..n)
        .map(|i| {
            if samples < 2 {
                f64::INFINITY
            } else {
                let var = (sum_sq[i] - sum[i] * sum[i] / m) / (m - 1.0);
                (var.max(0.0) / m).sqrt()
            }
        })
        .collect();
    let ci_half_width: Vec<f64> = std_error.iter().map(|e| z * e).collect();
    let members: Vec<PlayerId> = (0..n).collect();
    ApproxShapley {
        phi,
        std_error,
        ci_half_width,
        confidence: cfg.confidence,
        samples,
        seed: cfg.seed,
        grand_value: game.value_members(&members),
    }
}

/// Runs the permutation estimator on a [`WideGame`],
/// unconditionally (no exact fallback — see [`shapley_auto_wide`] for the
/// selection layer).
///
/// # Errors
/// [`GameError::NoPlayers`] for an empty game, [`GameError::NoSamples`] /
/// [`GameError::BadConfidence`] for a malformed config, and
/// [`GameError::TooManyPlayers`] above [`MAX_SAMPLED_PLAYERS`].
pub fn try_approx_shapley_wide<G: WideGame + ?Sized>(
    game: &G,
    cfg: &ApproxConfig,
) -> Result<ApproxShapley, GameError> {
    let n = game.n_players();
    if n == 0 {
        return Err(GameError::NoPlayers);
    }
    if n > MAX_SAMPLED_PLAYERS {
        return Err(GameError::TooManyPlayers {
            n,
            max: MAX_SAMPLED_PLAYERS,
            solver: "approx_shapley",
        });
    }
    cfg.validate()?;
    let z = z_for_confidence(cfg.confidence)?;
    Ok(permutation_estimate(game, cfg, z))
}

/// The solver-selection layer over a [`WideGame`], by
/// [`ApproxConfig::selects_sampling`]: the sampled estimator, or exact
/// enumeration — the game's table filled by [`TableGame::try_from_walk`]
/// on `cfg.threads` walkers, then each player's sum, all under one
/// `coalition.shapley.exact` span.
///
/// # Errors
/// [`GameError::NoPlayers`] for an empty game, [`GameError::NoSamples`] /
/// [`GameError::BadConfidence`] for a malformed config,
/// [`GameError::TooManyPlayers`] above [`MAX_SAMPLED_PLAYERS`], and
/// [`GameError::NonFiniteValue`] when an enumerated coalition value is
/// NaN or infinite.
pub fn shapley_auto_wide<G: WideGame + ?Sized>(
    game: &G,
    cfg: &ApproxConfig,
) -> Result<ShapleyEstimate, GameError> {
    let n = game.n_players();
    if n == 0 {
        return Err(GameError::NoPlayers);
    }
    cfg.validate()?;
    if cfg.selects_sampling(n) {
        fedval_obs::counter_add("coalition.approx.sampled_selected", 1);
        return Ok(ShapleyEstimate::Approx(try_approx_shapley_wide(game, cfg)?));
    }
    fedval_obs::counter_add("coalition.approx.exact_selected", 1);
    let _span = fedval_obs::span_with("coalition.shapley.exact", || {
        format!("n={n} threads={}", cfg.threads)
    });
    let table = TableGame::try_from_walk(game, cfg.threads)?;
    Ok(ShapleyEstimate::Exact(player_sums(&table)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::Coalition;
    use crate::game::tests::table_of;
    use crate::game::FnGame;
    use crate::shapley::shapley;

    fn threshold_game() -> FnGame<impl Fn(Coalition) -> f64 + Sync> {
        let contrib = [3.0, 5.0, 7.0, 11.0, 13.0, 17.0];
        FnGame::new(6, move |c: Coalition| {
            let total: f64 = c.players().map(|p| contrib[p]).sum();
            if total > 20.0 {
                total
            } else {
                0.0
            }
        })
    }

    /// A wide additive game usable at any n: V(S) = Σ_{i∈S} (i+1).
    struct WideAdditive(usize);
    impl WideGame for WideAdditive {
        fn n_players(&self) -> usize {
            self.0
        }
        fn value_members(&self, members: &[PlayerId]) -> f64 {
            members.iter().map(|&p| (p + 1) as f64).sum()
        }
    }

    #[test]
    fn z_quantile_matches_known_values() {
        // Standard two-sided z values.
        let z95 = z_for_confidence(0.95).unwrap();
        assert!((z95 - 1.959964).abs() < 1e-4, "{z95}");
        let z99 = z_for_confidence(0.99).unwrap();
        assert!((z99 - 2.575829).abs() < 1e-4, "{z99}");
        let z50 = z_for_confidence(0.5).unwrap();
        assert!((z50 - 0.674490).abs() < 1e-4, "{z50}");
    }

    #[test]
    fn bad_confidence_is_typed() {
        for c in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
            assert!(matches!(
                z_for_confidence(c),
                Err(GameError::BadConfidence { .. })
            ));
        }
    }

    #[test]
    fn hoeffding_bounds_roundtrip() {
        // ε(m(ε)) ≤ ε by construction.
        let m = hoeffding_samples(10.0, 0.5, 0.05);
        assert!(m > 0 && m < usize::MAX);
        let eps = hoeffding_epsilon(10.0, m, 0.05);
        assert!(eps <= 0.5 + 1e-12, "{eps}");
        // Degenerate inputs are sentinels, not panics.
        assert_eq!(hoeffding_samples(10.0, 0.0, 0.05), usize::MAX);
        assert_eq!(hoeffding_epsilon(0.0, 100, 0.05), f64::INFINITY);
        // NaN in any argument is rejected, not propagated.
        assert_eq!(hoeffding_samples(f64::NAN, 0.5, 0.05), usize::MAX);
        assert_eq!(hoeffding_samples(10.0, f64::NAN, 0.05), usize::MAX);
        assert_eq!(hoeffding_samples(10.0, 0.5, f64::NAN), usize::MAX);
        assert_eq!(hoeffding_epsilon(f64::NAN, 100, 0.05), f64::INFINITY);
        assert_eq!(hoeffding_epsilon(10.0, 100, f64::NAN), f64::INFINITY);
    }

    #[test]
    fn permutation_estimate_is_unbiased_on_threshold_game() {
        let g = threshold_game();
        let exact = shapley(&table_of(&g));
        let cfg = ApproxConfig {
            samples: 4000,
            seed: 9,
            force: true,
            ..ApproxConfig::default()
        };
        let est = try_approx_shapley_wide(&g, &cfg).unwrap();
        #[expect(
            clippy::needless_range_loop,
            reason = "the loop reads three per-player vectors (phi, std_error, exact) at i"
        )]
        for i in 0..6 {
            let tol = 5.0 * est.std_error[i] + 1e-9;
            assert!(
                (est.phi[i] - exact[i]).abs() < tol,
                "player {i}: {} vs {}",
                est.phi[i],
                exact[i]
            );
        }
        // Efficiency holds exactly per permutation, hence in the average.
        let total: f64 = est.phi.iter().sum();
        assert!((total - est.grand_value).abs() < 1e-9);
        let shares: f64 = est.shares().iter().sum();
        assert!((shares - 1.0).abs() < 1e-9);
    }

    #[test]
    fn thread_count_never_changes_bytes() {
        let g = threshold_game();
        let mut baseline: Option<ApproxShapley> = None;
        for threads in [1usize, 2, 3, 8, 64] {
            let cfg = ApproxConfig {
                samples: 100,
                seed: 31,
                threads,
                force: true,
                ..ApproxConfig::default()
            };
            let est = try_approx_shapley_wide(&g, &cfg).unwrap();
            match &baseline {
                None => baseline = Some(est),
                Some(b) => {
                    // Bit-exact, not approximately equal.
                    let same = b
                        .phi
                        .iter()
                        .zip(&est.phi)
                        .all(|(a, c)| a.to_bits() == c.to_bits())
                        && b.std_error
                            .iter()
                            .zip(&est.std_error)
                            .all(|(a, c)| a.to_bits() == c.to_bits());
                    assert!(same, "{threads} threads diverged");
                }
            }
        }
    }

    #[test]
    fn auto_selects_exact_below_cap_and_sampling_above() {
        let g = threshold_game();
        let cfg = ApproxConfig::default();
        match shapley_auto_wide(&g, &cfg).unwrap() {
            ShapleyEstimate::Exact(phi) => {
                let exact = shapley(&table_of(&g));
                assert_eq!(phi, exact);
            }
            ShapleyEstimate::Approx(_) => panic!("n=6 must select exact"),
        }
        // force flips the selection.
        let forced = shapley_auto_wide(&g, &ApproxConfig { force: true, ..cfg }).unwrap();
        assert!(forced.is_approx());
        assert!(!cfg.selects_sampling(EXACT_SHAPLEY_MAX_PLAYERS));
        assert!(cfg.selects_sampling(EXACT_SHAPLEY_MAX_PLAYERS + 1));
        assert!(ApproxConfig { force: true, ..cfg }.selects_sampling(1));
        // A 200-player wide game selects sampling.
        let wide = WideAdditive(200);
        let est = shapley_auto_wide(&wide, &cfg).unwrap();
        let approx = est.as_approx().expect("n=200 must sample");
        // Additive game: marginals are constant, so the estimate is exact
        // with zero variance.
        for (i, &phi) in approx.phi.iter().enumerate() {
            assert!((phi - (i + 1) as f64).abs() < 1e-9, "player {i}: {phi}");
            assert!(approx.ci_half_width[i] < 1e-9);
        }
    }

    #[test]
    fn malformed_configs_are_typed_errors() {
        let g = threshold_game();
        assert!(matches!(
            try_approx_shapley_wide(
                &g,
                &ApproxConfig {
                    samples: 0,
                    ..ApproxConfig::default()
                }
            ),
            Err(GameError::NoSamples { .. })
        ));
        assert!(matches!(
            try_approx_shapley_wide(
                &g,
                &ApproxConfig {
                    confidence: 1.5,
                    ..ApproxConfig::default()
                }
            ),
            Err(GameError::BadConfidence { .. })
        ));
        let empty = WideAdditive(0);
        assert!(matches!(
            shapley_auto_wide(&empty, &ApproxConfig::default()),
            Err(GameError::NoPlayers)
        ));
        let oversized = WideAdditive(MAX_SAMPLED_PLAYERS + 1);
        assert!(matches!(
            try_approx_shapley_wide(&oversized, &ApproxConfig::default()),
            Err(GameError::TooManyPlayers { solver: "approx_shapley", .. })
        ));
    }

    #[test]
    fn wider_budget_tightens_the_interval() {
        let g = threshold_game();
        let narrow = try_approx_shapley_wide(
            &g,
            &ApproxConfig {
                samples: 32,
                seed: 5,
                force: true,
                ..ApproxConfig::default()
            },
        )
        .unwrap();
        let wide = try_approx_shapley_wide(
            &g,
            &ApproxConfig {
                samples: 2048,
                seed: 5,
                force: true,
                ..ApproxConfig::default()
            },
        )
        .unwrap();
        assert!(wide.max_ci_half_width() < narrow.max_ci_half_width());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::coalition::Coalition;
    use crate::game::tests::table_of;
    use crate::game::FnGame;
    use crate::shapley::shapley;
    use proptest::prelude::*;

    /// A random threshold game small enough for the 2^n solver: integer
    /// contributions (exact in f64) and a threshold strictly below the
    /// grand total, so `V(N) > 0` and marginals are position-dependent.
    fn game_strategy() -> impl Strategy<Value = (Vec<f64>, f64)> {
        (prop::collection::vec(1u32..=20, 2..=12), 0.0f64..0.9).prop_map(|(contrib, frac)| {
            let contrib: Vec<f64> = contrib.into_iter().map(f64::from).collect();
            let total: f64 = contrib.iter().sum();
            (contrib, total * frac)
        })
    }

    fn build(contrib: Vec<f64>, threshold: f64) -> FnGame<impl Fn(Coalition) -> f64 + Sync> {
        FnGame::new(contrib.len(), move |c: Coalition| {
            let total: f64 = c.players().map(|p| contrib[p]).sum();
            if total > threshold {
                total
            } else {
                0.0
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The certificate tracks the truth: against the 2^n solver every
        /// player sits within 6 std errors (a hard cap a correct
        /// estimator essentially never crosses), and the standardized
        /// error stays within 3 std errors in the root-mean-square sense.
        /// (A strict per-player 3σ bound would flake on the one-in-370
        /// excursions the certificate itself predicts.)
        #[test]
        fn sampled_phi_tracks_exact_within_certified_error(
            (contrib, threshold) in game_strategy(),
            seed in 0u64..1024,
        ) {
            let n = contrib.len();
            let g = build(contrib, threshold);
            let exact = shapley(&table_of(&g));
            let cfg = ApproxConfig {
                samples: 512,
                seed,
                force: true,
                ..ApproxConfig::default()
            };
            let est = try_approx_shapley_wide(&g, &cfg).expect("valid config");
            let mut sum_sq = 0.0;
            #[expect(
                clippy::needless_range_loop,
                reason = "the loop reads three per-player vectors (phi, std_error, exact) at i"
            )]
            for i in 0..n {
                let err = (est.phi[i] - exact[i]).abs();
                prop_assert!(
                    err <= 6.0 * est.std_error[i] + 1e-9,
                    "player {i}: |{} - {}| > 6·{}",
                    est.phi[i], exact[i], est.std_error[i]
                );
                if est.std_error[i] > 0.0 {
                    sum_sq += (err / est.std_error[i]).powi(2);
                }
            }
            let rms = (sum_sq / n as f64).sqrt();
            prop_assert!(rms <= 3.0, "rms standardized error {rms} > 3");
        }

        /// Identical seeds are byte-identical at any thread count — the
        /// determinism contract behind the serve-payload cache.
        #[test]
        fn identical_seeds_are_byte_identical_at_any_thread_count(
            (contrib, threshold) in game_strategy(),
            seed in any::<u64>(),
            samples in 1usize..200,
            threads in 2usize..16,
        ) {
            let g = build(contrib, threshold);
            let base = ApproxConfig {
                samples,
                seed,
                threads: 1,
                force: true,
                ..ApproxConfig::default()
            };
            let a = try_approx_shapley_wide(&g, &base).expect("valid config");
            let b = try_approx_shapley_wide(&g, &ApproxConfig { threads, ..base })
                .expect("valid config");
            for i in 0..a.phi.len() {
                prop_assert_eq!(a.phi[i].to_bits(), b.phi[i].to_bits());
                prop_assert_eq!(a.std_error[i].to_bits(), b.std_error[i].to_bits());
                prop_assert_eq!(a.ci_half_width[i].to_bits(), b.ci_half_width[i].to_bits());
            }
            prop_assert_eq!(a.grand_value.to_bits(), b.grand_value.to_bits());
        }

        /// Efficiency survives sampling and normalization: permutation
        /// marginals telescope, so Σϕ = V(N) to rounding and the
        /// normalized shares sum to exactly 1.
        #[test]
        fn permutation_shares_are_efficient_after_normalization(
            (contrib, threshold) in game_strategy(),
            seed in any::<u64>(),
            samples in 1usize..300,
        ) {
            let g = build(contrib, threshold);
            let cfg = ApproxConfig {
                samples,
                seed,
                force: true,
                ..ApproxConfig::default()
            };
            let est = try_approx_shapley_wide(&g, &cfg).expect("valid config");
            let total: f64 = est.phi.iter().sum();
            let scale = est.grand_value.abs().max(1.0);
            prop_assert!(
                (total - est.grand_value).abs() <= 1e-9 * scale,
                "Σφ = {total} but V(N) = {}", est.grand_value
            );
            if est.grand_value.abs() > 1e-12 {
                let shares: f64 = est.shares().iter().sum();
                prop_assert!((shares - 1.0).abs() <= 1e-9, "Σ shares = {shares}");
            }
        }
    }
}
