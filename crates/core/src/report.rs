//! Plain-text rendering of experiment results.

use crate::figures::{Figure3, Table2Row, Tightness};
use crate::pipeline::ConfigResult;
use spmlab_isa::mem::AccessWidth;

/// Renders a simple aligned table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders Table 1.
pub fn render_table1(rows: &[(AccessWidth, u64, u64)]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(w, main, spm)| {
            vec![
                format!("{w} ({} bit)", w.bytes() * 8),
                main.to_string(),
                spm.to_string(),
            ]
        })
        .collect();
    format!(
        "Table 1: cycles per memory access (access + waitstates)\n{}",
        render_table(&["access width", "main memory", "scratchpad"], &body)
    )
}

/// Renders Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.code_bytes.to_string(),
                r.data_bytes.to_string(),
                r.objects.to_string(),
                r.description.clone(),
            ]
        })
        .collect();
    format!(
        "Table 2: benchmarks\n{}",
        render_table(
            &["name", "code B", "data B", "objects", "description"],
            &body
        )
    )
}

/// Renders one capacity sweep as `size, sim, wcet, ratio` rows.
pub fn render_sweep(title: &str, sizes: &[u32], results: &[ConfigResult]) -> String {
    let body: Vec<Vec<String>> = sizes
        .iter()
        .zip(results)
        .map(|(size, r)| {
            vec![
                size.to_string(),
                r.sim_cycles.to_string(),
                r.wcet_cycles.to_string(),
                format!("{:.3}", r.ratio()),
            ]
        })
        .collect();
    format!(
        "{title}\n{}",
        render_table(&["bytes", "sim cycles", "wcet cycles", "ratio"], &body)
    )
}

/// Renders a Figure 3/6-style two-panel result.
pub fn render_figure3(fig: &Figure3, figure_name: &str) -> String {
    format!(
        "{figure_name} — {} benchmark\n{}\n{}",
        fig.benchmark,
        render_sweep("a) using a scratchpad", &fig.sizes, &fig.spm),
        render_sweep("b) using a cache", &fig.sizes, &fig.cache),
    )
}

/// Renders a Figure 4/5-style ratio comparison.
pub fn render_ratios(
    figure_name: &str,
    benchmark: &str,
    spm: &[(u32, f64)],
    cache: &[(u32, f64)],
) -> String {
    let body: Vec<Vec<String>> = spm
        .iter()
        .zip(cache)
        .map(|((size, rs), (_, rc))| vec![size.to_string(), format!("{rs:.3}"), format!("{rc:.3}")])
        .collect();
    format!(
        "{figure_name} — {benchmark}: WCET / simulated cycles (sim ≡ 1)\n{}",
        render_table(&["bytes", "scratchpad", "cache"], &body)
    )
}

/// Renders the hierarchy comparison: one row per memory configuration
/// with the per-level classification statistics that explain the bound —
/// L1 always-hit proofs (MUST), L1 always-miss proofs (MAY, the
/// Hardy–Puaut `A` filter), guaranteed L2 hits, and the remaining
/// not-classified accesses that must be charged the worst path.
pub fn render_hierarchy(fig: &crate::figures::FigureHierarchy) -> String {
    let body: Vec<Vec<String>> = fig
        .points
        .iter()
        .filter_map(|p| Some((p, p.outcome.result()?)))
        .map(|(p, r)| {
            // A widened-but-sound bound from a fixpoint that hit its
            // structural cap is flagged in place, never passed off as a
            // precise result.
            let label = if r.degraded {
                format!("{} [degraded]", r.label)
            } else {
                r.label.clone()
            };
            let mut row = vec![
                label,
                r.sim_cycles.to_string(),
                r.wcet_cycles.to_string(),
                format!("{:.3}", r.ratio()),
            ];
            // Classification columns for the cache-hierarchy points (the
            // SPM rows need no microarchitectural analysis — that is the
            // point).
            let c = &r.classify;
            row.extend(if p.spec.spm.is_some() {
                vec![String::new(); 4]
            } else {
                vec![
                    (c.fetch_hits + c.data_hits).to_string(),
                    (c.fetch_always_miss + c.data_always_miss).to_string(),
                    c.l2_hits.to_string(),
                    (c.fetch_unclassified + c.data_unclassified).to_string(),
                ]
            });
            row
        })
        .collect();
    let mut out = format!(
        "Hierarchy comparison — {} benchmark\n{}",
        fig.benchmark,
        render_table(
            &[
                "configuration",
                "sim cycles",
                "wcet cycles",
                "ratio",
                "L1 AH",
                "L1 AM",
                "L2 AH",
                "NC"
            ],
            &body
        )
    );
    // Failed points are part of the report, never silently dropped.
    let failed: Vec<_> = fig
        .points
        .iter()
        .filter_map(|p| p.outcome.failure())
        .collect();
    if !failed.is_empty() {
        out.push_str(&format!(
            "{} of {} points FAILED:\n",
            failed.len(),
            fig.points.len()
        ));
        for fp in failed {
            out.push_str(&format!("  {fp}\n"));
        }
    }
    out
}

/// Renders the SPM×hierarchy allocator comparison: one row per
/// `(capacity, machine)` point with the WCET bound under both allocation
/// objectives and the hierarchy-aware gain.
pub fn render_spm_hierarchy(fig: &crate::figures::FigureSpmHierarchy) -> String {
    let body: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|p| {
            let gain =
                (1.0 - p.aware.wcet_cycles as f64 / p.region.wcet_cycles.max(1) as f64) * 100.0;
            vec![
                p.machine.label(),
                p.spm_size.to_string(),
                p.region.wcet_cycles.to_string(),
                p.aware.wcet_cycles.to_string(),
                format!("{gain:.1}%"),
                p.aware.sim_cycles.to_string(),
                p.aware.spm_objects.join(","),
            ]
        })
        .collect();
    format!(
        "SPM×hierarchy: WCET-aware allocation against the multi-level critical path — {} \
         benchmark\n{}",
        fig.benchmark,
        render_table(
            &[
                "machine",
                "spm B",
                "region-obj wcet",
                "hier-obj wcet",
                "gain",
                "hier-obj sim",
                "hier-obj placement"
            ],
            &body
        )
    )
}

/// Renders the tightness experiment.
pub fn render_tightness(t: &Tightness) -> String {
    format!(
        "Tightness ({}, worst-case input): sim {} cycles, wcet {} cycles, overestimate {:.2}%\n",
        t.benchmark,
        t.sim_cycles,
        t.wcet_cycles,
        t.overestimate_pct()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let s = render_table(
            &["a", "bbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a') && lines[0].contains("bbb"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn table1_render_contains_paper_values() {
        let s = render_table1(&crate::figures::table1());
        assert!(s.contains("4"), "word access = 4 cycles");
        assert!(s.contains("scratchpad"));
    }
}
