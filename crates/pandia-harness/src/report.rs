//! Plain-text and CSV emission of experiment results.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use pandia_core::PandiaError;

use crate::{
    metrics::{ErrorStats, MachineSummary},
    runner::PlacementCurve,
};

/// Where result files are written (`results/` under the workspace root by
/// default, overridable with the `PANDIA_RESULTS_DIR` environment
/// variable).
pub fn results_dir() -> PathBuf {
    std::env::var_os("PANDIA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes a string to `results_dir()/name`, creating directories.
pub fn write_result(name: &str, contents: &str) -> Result<PathBuf, PandiaError> {
    let dir = results_dir();
    let path = dir.join(name);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(io_err)?;
    }
    fs::write(&path, contents).map_err(io_err)?;
    Ok(path)
}

fn io_err(e: std::io::Error) -> PandiaError {
    PandiaError::Serde { message: format!("io error: {e}") }
}

/// Renders a curve as CSV: placement, threads, measured, predicted, and
/// both normalized performance columns.
pub fn curve_csv(curve: &PlacementCurve) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "index,placement,threads,measured_time,predicted_time,normalized_measured,normalized_predicted"
    );
    let nm = curve.normalized_measured();
    let np = curve.normalized_predicted();
    for (i, p) in curve.points.iter().enumerate() {
        let _ = writeln!(
            out,
            "{i},\"{}\",{},{:.6},{:.6},{:.6},{:.6}",
            p.placement, p.n_threads, p.measured, p.predicted, nm[i], np[i]
        );
    }
    out
}

/// Renders per-workload error statistics as an aligned text table
/// (the content of Figure 11's bars).
pub fn error_table(title: &str, stats: &[ErrorStats]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "workload", "mean%", "median%", "offset-mean%", "offset-med%", "points"
    );
    for s in stats {
        let _ = writeln!(
            out,
            "{:<12} {:>10.2} {:>10.2} {:>12.2} {:>12.2} {:>8}",
            s.workload,
            s.mean_error_pct,
            s.median_error_pct,
            s.mean_offset_error_pct,
            s.median_offset_error_pct,
            s.placements
        );
    }
    out
}

/// Renders error statistics as CSV.
pub fn error_csv(stats: &[ErrorStats]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workload,mean_pct,median_pct,offset_mean_pct,offset_median_pct,placements");
    for s in stats {
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{:.4},{:.4},{}",
            s.workload,
            s.mean_error_pct,
            s.median_error_pct,
            s.mean_offset_error_pct,
            s.median_offset_error_pct,
            s.placements
        );
    }
    out
}

/// Renders machine summaries (the §6.1 headline numbers).
pub fn summary_table(summaries: &[MachineSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>16} {:>12} {:>14} {:>18}",
        "machine", "best-gap mean%", "best-gap median%", "median err%", "median off%", "peak<max threads"
    );
    for s in summaries {
        let _ = writeln!(
            out,
            "{:<22} {:>14.2} {:>16.2} {:>12.2} {:>14.2} {:>17.0}%",
            s.machine,
            s.mean_best_gap_pct,
            s.median_best_gap_pct,
            s.median_error_pct,
            s.median_offset_error_pct,
            100.0 * s.frac_peak_below_max_threads
        );
    }
    out
}

/// Renders an ASCII scatter of normalized measured vs predicted
/// performance over the placement index — a terminal rendition of the
/// Figure 1/10 panels.
pub fn ascii_curve(curve: &PlacementCurve, width: usize, height: usize) -> String {
    let nm = curve.normalized_measured();
    let np = curve.normalized_predicted();
    let n = nm.len();
    if n == 0 {
        return String::from("(empty curve)\n");
    }
    let mut grid = vec![vec![b' '; width]; height];
    let place = |grid: &mut Vec<Vec<u8>>, i: usize, v: f64, ch: u8| {
        let x = i * (width - 1) / n.max(1);
        let y = ((1.0 - v.clamp(0.0, 1.0)) * (height - 1) as f64).round() as usize;
        let cell = &mut grid[y.min(height - 1)][x.min(width - 1)];
        // Overlap of measured and predicted renders as '#'.
        *cell = match (*cell, ch) {
            (b' ', c) => c,
            (a, c) if a == c => c,
            _ => b'#',
        };
    };
    for (i, &v) in nm.iter().enumerate() {
        place(&mut grid, i, v, b'.');
    }
    for (i, &v) in np.iter().enumerate() {
        place(&mut grid, i, v, b'o');
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} — normalized performance ('.' measured, 'o' predicted, '#' both)",
        curve.workload, curve.machine
    );
    for row in grid {
        let _ = writeln!(out, "|{}", String::from_utf8_lossy(&row));
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CurvePoint;
    use pandia_topology::CanonicalPlacement;

    fn small_curve() -> PlacementCurve {
        PlacementCurve {
            workload: "w".into(),
            machine: "m".into(),
            points: (1..=4)
                .map(|n| CurvePoint {
                    placement: CanonicalPlacement::new(vec![vec![1; n]]),
                    n_threads: n,
                    measured: 10.0 / n as f64,
                    predicted: 11.0 / n as f64,
                })
                .collect(),
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = curve_csv(&small_curve());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("index,placement"));
        assert!(lines[1].contains("\"[1]\""));
    }

    #[test]
    fn ascii_curve_renders_fixed_dimensions() {
        let art = ascii_curve(&small_curve(), 40, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 12); // title + 10 rows + axis
        assert!(lines[11].starts_with('+'));
        // Perfect relative predictions overlay: expect '#' marks.
        assert!(art.contains('#'));
    }

    #[test]
    fn tables_render_every_row() {
        let stats = vec![
            crate::metrics::error_stats(&small_curve()),
            crate::metrics::error_stats(&small_curve()),
        ];
        let table = error_table("test", &stats);
        assert_eq!(table.lines().count(), 4);
        let csv = error_csv(&stats);
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn write_result_respects_env_override() {
        let dir = std::env::temp_dir().join(format!("pandia-test-{}", std::process::id()));
        std::env::set_var("PANDIA_RESULTS_DIR", &dir);
        let path = write_result("sub/test.txt", "hello").unwrap();
        assert!(path.starts_with(&dir));
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello");
        std::env::remove_var("PANDIA_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
