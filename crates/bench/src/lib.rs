#![deny(missing_docs)]

//! Reproduction harness: regenerates every table and figure of the paper's
//! evaluation and checks the paper's qualitative claims against them.
//!
//! * [`figures`] — one generator per table/figure (Fig. 2, Table E1,
//!   Figs. 4–9), returning typed [`Series`] data.
//! * [`sweep`] — the deterministic parallel sweep engine the figure
//!   generators run on (`--threads N`, byte-identical output at every
//!   thread count; DESIGN.md §9).
//! * [`checks`] — the acceptance criteria extracted from §4's prose.
//! * `src/bin/repro.rs` — prints everything; `cargo run -p fedval-bench
//!   --bin repro`.
//! * `benches/` — criterion benchmarks of both the figure pipelines and
//!   the underlying engines.

pub mod checks;
pub mod extras;
pub mod figures;
pub mod series;
pub mod svg;
pub mod sweep;

pub use checks::{check_all, CheckResult};
pub use extras::{
    all_extras, ext1_overlap, ext2_availability, ext3_dynamic_multiplexing, ext4_greedy_loss,
    ext5_static_vs_measured,
};
pub use figures::{
    all_figures, fig2_utility, fig4_threshold, fig5_shape, fig6_resources, fig7_mixture,
    fig8_volume, fig9_incentives, table_e1, WorkedExample, FIG7_TOTAL_DEMAND,
};
pub use series::{Figure, Series};
pub use sweep::{run_sweep, set_sweep_threads, sweep_threads};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_check_passes() {
        for result in check_all() {
            for (desc, ok) in &result.assertions {
                assert!(*ok, "{}: FAILED — {}", result.id, desc);
            }
        }
    }

    #[test]
    fn figures_have_expected_shapes() {
        let figs = all_figures();
        assert_eq!(figs.len(), 7);
        let fig4 = figs.iter().find(|f| f.id == "fig4").unwrap();
        assert_eq!(fig4.series.len(), 6); // phi × 3 + pi × 3
        assert_eq!(fig4.series[0].points.len(), 29); // l = 0..=1400 step 50
        let fig8 = figs.iter().find(|f| f.id == "fig8").unwrap();
        assert_eq!(fig8.series.len(), 9); // + rho × 3
    }
}
