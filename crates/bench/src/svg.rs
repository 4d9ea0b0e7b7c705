//! Dependency-free SVG rendering for reproduced figures.
//!
//! `repro --svg DIR` writes one `<figure id>.svg` per figure: axes, tick
//! labels, one polyline per series, and a legend — enough to eyeball the
//! reproduced curves against the paper's plots.

use crate::series::{Figure, Series};
use std::fmt::Write as _;

/// Canvas and margin geometry.
const WIDTH: f64 = 860.0;
const HEIGHT: f64 = 520.0;
const MARGIN_LEFT: f64 = 70.0;
const MARGIN_RIGHT: f64 = 180.0; // room for the legend
const MARGIN_TOP: f64 = 40.0;
const MARGIN_BOTTOM: f64 = 50.0;

/// A qualitative palette (cycled) distinguishable on white.
const PALETTE: [&str; 9] = [
    "#1b6ca8", "#d1495b", "#66a182", "#edae49", "#8d5a97", "#00798c", "#c17c74", "#3d5a80",
    "#9a8c98",
];

fn data_bounds(series: &[Series]) -> Option<(f64, f64, f64, f64)> {
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for s in series {
        for &(x, y) in &s.points {
            if x.is_finite() && y.is_finite() {
                xs.push(x);
                ys.push(y);
            }
        }
    }
    if xs.is_empty() {
        return None;
    }
    let (xmin, xmax) = xs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (ymin, ymax) = ys
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    // Pad degenerate ranges.
    let (ymin, ymax) = if (ymax - ymin).abs() < 1e-12 {
        (ymin - 1.0, ymax + 1.0)
    } else {
        (ymin, ymax)
    };
    let (xmin, xmax) = if (xmax - xmin).abs() < 1e-12 {
        (xmin - 1.0, xmax + 1.0)
    } else {
        (xmin, xmax)
    };
    Some((xmin, xmax, ymin, ymax))
}

impl Figure {
    /// Renders the figure as a standalone SVG document.
    pub fn to_svg(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">"#
        );
        let _ = writeln!(
            out,
            r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
        );
        let _ = writeln!(
            out,
            r#"<text x="{}" y="24" font-family="sans-serif" font-size="16" font-weight="bold">{} — {}</text>"#,
            MARGIN_LEFT,
            self.id,
            xml_escape(self.title)
        );

        let plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT;
        let plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM;
        let Some((xmin, xmax, ymin, ymax)) = data_bounds(&self.series) else {
            let _ = writeln!(out, "</svg>");
            return out;
        };
        let sx = |x: f64| MARGIN_LEFT + (x - xmin) / (xmax - xmin) * plot_w;
        let sy = |y: f64| MARGIN_TOP + plot_h - (y - ymin) / (ymax - ymin) * plot_h;

        // Axes.
        let _ = writeln!(
            out,
            r#"<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/><line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>"#,
            x0 = MARGIN_LEFT,
            x1 = MARGIN_LEFT + plot_w,
            y0 = MARGIN_TOP,
            y1 = MARGIN_TOP + plot_h,
        );
        // Ticks: 5 per axis.
        for i in 0..=4 {
            let fx = xmin + (xmax - xmin) * f64::from(i) / 4.0;
            let fy = ymin + (ymax - ymin) * f64::from(i) / 4.0;
            let _ = writeln!(
                out,
                r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="11" text-anchor="middle">{}</text>"#,
                sx(fx),
                MARGIN_TOP + plot_h + 18.0,
                format_tick(fx)
            );
            let _ = writeln!(
                out,
                r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="11" text-anchor="end">{}</text>"#,
                MARGIN_LEFT - 6.0,
                sy(fy) + 4.0,
                format_tick(fy)
            );
            let _ = writeln!(
                out,
                r##"<line x1="{x0}" y1="{y:.1}" x2="{x1}" y2="{y:.1}" stroke="#dddddd" stroke-width="0.6"/>"##,
                x0 = MARGIN_LEFT,
                x1 = MARGIN_LEFT + plot_w,
                y = sy(fy),
            );
        }
        // X-axis label.
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="13" text-anchor="middle">{}</text>"#,
            MARGIN_LEFT + plot_w / 2.0,
            HEIGHT - 12.0,
            xml_escape(self.x_label)
        );

        // Series polylines + legend.
        for (k, s) in self.series.iter().enumerate() {
            let color = PALETTE[k % PALETTE.len()];
            let points: String = s
                .points
                .iter()
                .filter(|(x, y)| x.is_finite() && y.is_finite())
                .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                r#"<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{points}"/>"#
            );
            let ly = MARGIN_TOP + 14.0 + k as f64 * 18.0;
            let lx = MARGIN_LEFT + plot_w + 14.0;
            let _ = writeln!(
                out,
                r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2.5"/>"#,
                lx + 18.0
            );
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" font-family="sans-serif" font-size="12">{}</text>"#,
                lx + 24.0,
                ly + 4.0,
                xml_escape(&s.label)
            );
        }
        let _ = writeln!(out, "</svg>");
        out
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn format_tick(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Figure {
        let mut a = Series::new("alpha");
        a.push(0.0, 1.0);
        a.push(10.0, 4.0);
        a.push(20.0, 2.0);
        let mut b = Series::new("beta<1>");
        b.push(0.0, 0.0);
        b.push(10.0, 3.0);
        b.push(20.0, 6.0);
        Figure {
            id: "figT",
            title: "toy & test",
            x_label: "x",
            series: vec![a, b],
        }
    }

    #[test]
    fn svg_has_document_structure() {
        let svg = toy().to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("figT"));
    }

    #[test]
    fn svg_escapes_markup() {
        let svg = toy().to_svg();
        assert!(svg.contains("beta&lt;1&gt;"));
        assert!(svg.contains("toy &amp; test"));
        assert!(!svg.contains("beta<1>"));
    }

    #[test]
    fn empty_figure_is_still_valid() {
        let fig = Figure {
            id: "empty",
            title: "nothing",
            x_label: "x",
            series: vec![],
        };
        let svg = fig.to_svg();
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn coordinates_stay_on_canvas() {
        let svg = toy().to_svg();
        for cap in svg.split("points=\"").skip(1) {
            let pts = cap.split('"').next().unwrap();
            for pair in pts.split_whitespace() {
                let (x, y) = pair.split_once(',').unwrap();
                let x: f64 = x.parse().unwrap();
                let y: f64 = y.parse().unwrap();
                assert!((0.0..=WIDTH).contains(&x));
                assert!((0.0..=HEIGHT).contains(&y));
            }
        }
    }

    #[test]
    fn real_figures_render() {
        for fig in crate::figures::all_figures() {
            let svg = fig.to_svg();
            assert!(svg.contains("<polyline"), "{} has no curves", fig.id);
        }
    }
}
