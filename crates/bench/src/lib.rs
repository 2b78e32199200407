//! # spmlab-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section.
//! The `experiments` binary prints the same rows/series the paper reports:
//!
//! ```text
//! cargo run --release -p spmlab-bench --bin experiments -- all
//! cargo run --release -p spmlab-bench --bin experiments -- fig4
//! cargo run --release -p spmlab-bench --bin experiments -- --quick fig5
//! ```
//!
//! Every single-benchmark sweep figure is one [`GridSpec`] whose `points`
//! are an axis of `spmlab::config`, plus a renderer over that grid's
//! per-point outcomes ([`Experiment`]). `experiments <id>` sweeps the grid
//! through the code `experiments sweep` runs and renders it; `experiments
//! render <id> <stream>` renders a checkpoint stream of the same grid.
//! Full `hierarchy` and `write-policy` runs also rewrite their tracked
//! `BENCH_*.json` artifact through one writer, [`artifact_json`].
//!
//! Nothing here times anything for a claim: speed is measured by the
//! separate `perfbench` package.

pub mod dse;
pub mod fuzz;
pub mod jsonl;

use spmlab::checkpoint::axis_hash;
use spmlab::dse::{merge_texts, GridSpec};
use spmlab::figures::{table1, table2, Figure3, FigureHierarchy, FigureSpmHierarchy, Tightness};
use spmlab::pipeline::{ConfigResult, Pipeline};
use spmlab::report;
use spmlab::sweep::{collect_points, spec_sweep, PointOutcome, SpecOutcome, SweepSession};
use spmlab::{
    assoc_axis, figure3_axis, hierarchy_axis, hierarchy_figure_axis, hierarchy_spm_axis,
    hierarchy_spm_machines, icache_axis, persistence_axis, spm_axis, write_policy_axis, CoreError,
    MemArchSpec, Shard, SpmAllocation, PAPER_SIZES,
};
use spmlab_isa::archspec::json::escape;
use spmlab_workloads::{paper_benchmarks, Benchmark, ADPCM, G721, INSERTSORT, MULTISORT};

/// Experiment sizes: the paper's 64 B … 8 KiB, or a reduced set for quick
/// runs and benches.
pub fn sizes(quick: bool) -> &'static [u32] {
    if quick {
        &spmlab::config::QUICK_SIZES
    } else {
        &PAPER_SIZES
    }
}

/// The L1 capacity the hierarchy scenario builds its axis around.
pub fn hierarchy_l1_size(quick: bool) -> u32 {
    if quick {
        512
    } else {
        1024
    }
}

/// The benchmark behind the hierarchy scenario.
pub fn hierarchy_benchmark(quick: bool) -> &'static Benchmark {
    if quick {
        &ADPCM
    } else {
        &G721
    }
}

/// The SPM×hierarchy scenario parameters: scratchpad capacities and the
/// multi-level machines of [`hierarchy_spm_machines`].
pub fn hierarchy_spm_params(quick: bool) -> (&'static Benchmark, Vec<u32>, u32) {
    if quick {
        (&ADPCM, vec![512], 512)
    } else {
        (&G721, vec![1024, 4096], 1024)
    }
}

/// The unified cache size of the associativity ablation.
fn assoc_size(quick: bool) -> u32 {
    if quick {
        1024
    } else {
        4096
    }
}

/// The results of a grid figure in axis order; any failed point fails the
/// figure, as [`spec_sweep`] does.
fn results(outcomes: Vec<SpecOutcome>) -> Result<Vec<ConfigResult>, CoreError> {
    let points = collect_points(outcomes)?;
    Ok(points.into_iter().map(|p| p.result).collect())
}

/// A two-series figure's results, split into its halves.
fn halves(outcomes: Vec<SpecOutcome>) -> Result<(Vec<ConfigResult>, Vec<ConfigResult>), CoreError> {
    let mut first = results(outcomes)?;
    let second = first.split_off(first.len() / 2);
    Ok((first, second))
}

/// A Figure 3-shaped report: both panels, then the ratio plot.
fn render_two_panel(
    quick: bool,
    benchmark: &str,
    outcomes: Vec<SpecOutcome>,
    figure: &str,
    ratios: &str,
) -> Result<String, CoreError> {
    let fig = Figure3::new(benchmark, sizes(quick), results(outcomes)?);
    let (spm_r, cache_r) = fig.ratio_series();
    Ok(format!(
        "{}\n{}",
        report::render_figure3(&fig, figure),
        report::render_ratios(ratios, &fig.benchmark, &spm_r, &cache_r)
    ))
}

/// A two-series ablation as a table: one row per capacity, `row` filling
/// the columns from the first and second half of the axis.
fn render_ablation(
    quick: bool,
    outcomes: Vec<SpecOutcome>,
    title: &str,
    headers: &[&str],
    row: fn(&ConfigResult, &ConfigResult) -> Vec<String>,
) -> Result<String, CoreError> {
    let (first, second) = halves(outcomes)?;
    let rows: Vec<Vec<String>> = sizes(quick)
        .iter()
        .zip(first.iter().zip(&second))
        .map(|(size, (a, b))| [vec![size.to_string()], row(a, b)].concat())
        .collect();
    Ok(format!("{title}\n{}", report::render_table(headers, &rows)))
}

/// Whether every point of a grid was measured and is sound (WCET ≥
/// simulation); a failed point fails it, since its bound was never
/// checked.
fn all_sound(outcomes: &[SpecOutcome]) -> bool {
    outcomes.iter().all(|o| {
        o.outcome
            .result()
            .is_some_and(|r| r.wcet_cycles >= r.sim_cycles)
    })
}

/// The write-policy table: one row per `[write-through, write-back]`
/// pair of [`write_policy_axis`], with the twin's change in simulated
/// cycles and in the bound.
fn render_write_policy(outcomes: Vec<SpecOutcome>) -> Result<String, CoreError> {
    let sound = all_sound(&outcomes);
    let points = results(outcomes)?;
    let delta = |wt: u64, wb: u64| format!("{:+.1}%", (wb as f64 / wt.max(1) as f64 - 1.0) * 100.0);
    let rows: Vec<Vec<String>> = points
        .chunks(2)
        .map(|pair| {
            let (wt, wb) = (&pair[0], &pair[1]);
            vec![
                wb.label.clone(),
                wt.sim_cycles.to_string(),
                wt.wcet_cycles.to_string(),
                wb.sim_cycles.to_string(),
                wb.wcet_cycles.to_string(),
                delta(wt.sim_cycles, wb.sim_cycles),
                delta(wt.wcet_cycles, wb.wcet_cycles),
            ]
        })
        .collect();
    Ok(format!(
        "Write policies: write-through (paper's machine) vs write-back / store buffer\n{}\
         sound (wcet >= sim) at every point, both policies: {}\n",
        report::render_table(
            &[
                "write-back twin",
                "wt sim",
                "wt wcet",
                "wb sim",
                "wb wcet",
                "sim Δ",
                "wcet Δ"
            ],
            &rows
        ),
        yes(sound)
    ))
}

/// The tracked artifact a full run of grid figure `id` rewrites in the
/// workspace root.
fn artifact_file(id: &str) -> Option<&'static str> {
    match id {
        "hierarchy" => Some("BENCH_hierarchy.json"),
        "write-policy" => Some("BENCH_write_policy.json"),
        _ => None,
    }
}

/// "yes", or a loud marker for a violated invariant.
fn yes(holds: bool) -> &'static str {
    if holds {
        "yes"
    } else {
        "NO — BUG"
    }
}

/// One experiment of the report, found by [`experiment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Its id in [`EXPERIMENTS`].
    pub id: &'static str,
}

/// Ids that name `fig3`: Figure 3's two panels and Figure 4 print with it.
const FIG3_ALIASES: [&str; 3] = ["fig3a", "fig3b", "fig4"];

/// The experiment `id` names, if any.
pub fn experiment(id: &str) -> Option<Experiment> {
    let id = if FIG3_ALIASES.contains(&id) {
        "fig3"
    } else {
        id
    };
    EXPERIMENTS
        .iter()
        .find(|e| **e == id)
        .map(|&id| Experiment { id })
}

/// Sweeps a figure's grid unsharded and without a checkpoint, through the
/// code `experiments sweep` runs ([`dse::sweep_axis`]).
fn sweep_grid(grid: &GridSpec) -> Result<Vec<SpecOutcome>, CoreError> {
    let (axis, _) = grid.axis().expect("figure grids are valid");
    let bench = dse::grid_benchmark(grid).expect("figure grids name built-in benchmarks");
    dse::sweep_axis(bench, &axis, Shard::single(), &SweepSession::none())
}

/// Sweeps grid figure `id`, returning its grid and per-point outcomes.
fn figure_outcomes(
    id: &'static str,
    quick: bool,
) -> Result<(GridSpec, Vec<SpecOutcome>), CoreError> {
    let grid = Experiment { id }.grid(quick).expect("a grid figure");
    let outcomes = sweep_grid(&grid)?;
    Ok((grid, outcomes))
}

impl Experiment {
    /// The grid a sweep figure is: its `spmlab::config` axis as an
    /// explicit `points` list, on its benchmark. `None` for experiments
    /// that are not one grid.
    pub fn grid(self, quick: bool) -> Option<GridSpec> {
        let szs = sizes(quick);
        let (bench, points) = match self.id {
            "fig3" => (&G721, figure3_axis(szs)),
            "fig5" => (&MULTISORT, figure3_axis(szs)),
            "fig6" => (&ADPCM, figure3_axis(szs)),
            "hierarchy" => (
                hierarchy_benchmark(quick),
                hierarchy_figure_axis(hierarchy_l1_size(quick)),
            ),
            "hierarchy-spm" => {
                let (bench, spm_sizes, l1) = hierarchy_spm_params(quick);
                let machines = hierarchy_spm_machines(l1);
                (bench, hierarchy_spm_axis(&spm_sizes, &machines))
            }
            "write-policy" => (
                hierarchy_benchmark(quick),
                write_policy_axis(hierarchy_l1_size(quick)),
            ),
            "ablation-persistence" => (&G721, persistence_axis(szs)),
            "ablation-icache" => (&G721, icache_axis(szs)),
            "ablation-assoc" => {
                let axis = assoc_axis(assoc_size(quick)).into_iter();
                (&G721, axis.map(|(_, spec)| spec).collect())
            }
            _ => return None,
        };
        Some(GridSpec {
            benchmark: bench.name.to_string(),
            points: Some(points),
            ..GridSpec::default()
        })
    }

    /// Runs the experiment and renders its report. A grid figure sweeps
    /// its grid unsharded through [`dse::sweep_axis`]; a full `hierarchy`
    /// or `write-policy` run also rewrites its tracked `BENCH_*.json` in
    /// the workspace root.
    ///
    /// # Errors
    ///
    /// Pipeline failures, and for grid figures other than `hierarchy` a
    /// failed point. Artifact IO errors are reported inline, not fatal.
    pub fn run(self, quick: bool) -> Result<String, CoreError> {
        let Some(grid) = self.grid(quick) else {
            return match self.id {
                "table1" => Ok(report::render_table1(&table1())),
                "table2" => Ok(report::render_table2(&table2(&paper_benchmarks())?)),
                // §4 tightness: insertion sort with worst-case input.
                "tightness" => Ok(report::render_tightness(&Tightness::run(&INSERTSORT, 0)?)),
                "multilevel-precision" => exp_multilevel_precision(quick),
                _ => exp_ablation_wcet_alloc(quick),
            };
        };
        let outcomes = sweep_grid(&grid)?;
        let Some(file) = artifact_file(self.id).filter(|_| !quick) else {
            return self.render_outcomes(quick, &grid.benchmark, outcomes);
        };
        // The spec hash is the `axis_hash` of the swept axis, so the
        // artifact matches the header of any checkpoint stream of it.
        let provenance = Provenance {
            spec_hash: axis_hash(grid.points.as_deref().unwrap_or_default()),
        };
        let json = artifact_json(&grid.benchmark, &outcomes, Some(&provenance));
        let mut out = self.render_outcomes(quick, &grid.benchmark, outcomes)?;
        let path = workspace_root().join(file);
        out.push_str(&match std::fs::write(&path, json) {
            Ok(()) => format!("wrote {}\n", path.display()),
            Err(e) => format!("could not write {}: {e}\n", path.display()),
        });
        Ok(out)
    }

    /// Renders a merged or unsharded checkpoint stream of this
    /// experiment's grid exactly as [`Experiment::run`] renders a direct
    /// sweep (minus the artifact a full `hierarchy` run writes).
    ///
    /// # Errors
    ///
    /// Not a grid figure; a stream that does not parse, belongs to another
    /// benchmark or axis, or misses a point; a failed point where the
    /// figure does not list failures.
    pub fn render(self, quick: bool, stream: &str) -> Result<String, String> {
        let grid = self
            .grid(quick)
            .ok_or_else(|| format!("`{}` is not a grid figure", self.id))?;
        let (axis, _) = grid.axis()?;
        let outcomes = merge_texts(&[stream])?.outcomes(&grid.benchmark, &axis)?;
        let text = self.render_outcomes(quick, &grid.benchmark, outcomes);
        text.map_err(|e| e.to_string())
    }

    /// Renders this grid figure from its per-point outcomes in axis order.
    fn render_outcomes(
        self,
        quick: bool,
        benchmark: &str,
        outcomes: Vec<SpecOutcome>,
    ) -> Result<String, CoreError> {
        let mut out = match self.id {
            "fig3" => render_two_panel(quick, benchmark, outcomes, "Figure 3", "Figure 4"),
            // Figure 5: MultiSort WCET/sim ratios.
            "fig5" => render_two_panel(
                quick,
                benchmark,
                outcomes,
                "Figure 5 (underlying sweeps)",
                "Figure 5",
            ),
            // Figure 6: ADPCM absolute cycles and WCET for both branches.
            "fig6" => render_two_panel(quick, benchmark, outcomes, "Figure 6", "Figure 6 (ratios)"),
            // The WCET-vs-simulation comparison across memory hierarchies;
            // failed points are listed, not fatal.
            "hierarchy" => {
                let fig = FigureHierarchy::new(benchmark, outcomes);
                Ok(format!(
                    "{}sound (wcet >= sim) at every point: {}\n",
                    report::render_hierarchy(&fig),
                    yes(fig.all_sound())
                ))
            }
            // Scratchpad and multi-level hierarchy in one machine, with the
            // WCET-aware allocator optimising against the multi-level
            // critical path instead of flat region timing.
            "hierarchy-spm" => {
                let fig = FigureSpmHierarchy::new(benchmark, &collect_points(outcomes)?);
                Ok(format!(
                    "{}hierarchy-aware wcet <= region-objective wcet at every point: {}\n\
                     sound (wcet >= sim) at every point: {}\n",
                    report::render_spm_hierarchy(&fig),
                    yes(fig.aware_never_worse()),
                    yes(fig.all_sound())
                ))
            }
            // The paper's machine writes through; its write-back twins
            // and a store buffer, on the same shapes.
            "write-policy" => render_write_policy(outcomes),
            // Paper §5: "the full scale of cache analysis techniques …
            // would probably lead to improved cache results".
            "ablation-persistence" => render_ablation(
                quick,
                outcomes,
                "Ablation: cache WCET, MUST-only vs +persistence (G.721)",
                &["bytes", "must-only", "+persistence", "gain"],
                |m, p| {
                    let gain = (1.0 - p.wcet_cycles as f64 / m.wcet_cycles as f64) * 100.0;
                    vec![
                        m.wcet_cycles.to_string(),
                        p.wcet_cycles.to_string(),
                        format!("{gain:.1}%"),
                    ]
                },
            ),
            // Paper §5 future work: "other cache configurations, e.g.
            // instruction caches instead of unified caches".
            "ablation-icache" => render_ablation(
                quick,
                outcomes,
                "Ablation: unified vs instruction-only cache (G.721)",
                &["bytes", "uni sim", "uni wcet", "icache sim", "icache wcet"],
                |u, i| {
                    [u.sim_cycles, u.wcet_cycles, i.sim_cycles, i.wcet_cycles]
                        .map(|c| c.to_string())
                        .to_vec()
                },
            ),
            // Paper §5 future work: "set associative caches".
            _ => {
                let size = assoc_size(quick);
                let rows: Vec<Vec<String>> = assoc_axis(size)
                    .iter()
                    .zip(results(outcomes)?)
                    .map(|((name, _), r)| {
                        let ratio = format!("{:.3}", r.ratio());
                        vec![
                            name.to_string(),
                            r.sim_cycles.to_string(),
                            r.wcet_cycles.to_string(),
                            ratio,
                        ]
                    })
                    .collect();
                Ok(format!(
                    "Ablation: associativity/replacement at {size} B (G.721)\n{}",
                    report::render_table(&["configuration", "sim", "wcet", "ratio"], &rows)
                ))
            }
        }?;
        // Only full runs refresh a tracked artifact.
        if let Some(file) = artifact_file(self.id).filter(|_| quick) {
            out.push_str(&format!("quick axis: {file} left untouched\n"));
        }
        Ok(out)
    }
}

/// All experiment ids in report order.
pub const EXPERIMENTS: [&str; 14] = [
    "table1",
    "table2",
    "fig3",
    "fig5",
    "fig6",
    "tightness",
    "hierarchy",
    "hierarchy-spm",
    "multilevel-precision",
    "write-policy",
    "ablation-persistence",
    "ablation-icache",
    "ablation-assoc",
    "ablation-wcet-alloc",
];

/// Where a `BENCH_*.json` artifact's numbers came from: the canonical
/// hash of the swept spec axis, stamped with the git revision that wrote
/// it. A profiled run writes the same artifact; its counters and phase
/// times go to the profile stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Provenance {
    /// FNV-1a 64 hash (hex) of the canonical spec axis swept.
    pub spec_hash: String,
}

impl Provenance {
    /// The artifact's `"provenance"` member (leading comma included),
    /// stamped with the current git revision.
    fn json_block(&self) -> String {
        format!(
            ",\n  \"provenance\": {{\n    \"rev\": \"{}\",\n    \"spec_hash\": \"{}\"\n  }}",
            escape(&git_revision()),
            escape(&self.spec_hash),
        )
    }
}

/// The current short git revision, suffixed `-dirty` when tracked files
/// have uncommitted changes, or `unknown` outside a checkout.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

/// Serialises a grid figure's outcomes as its `BENCH_*.json` artifact
/// (hand-rolled JSON: the build environment has no serde_json): one row
/// per measured point, the failed points, and an optional `"provenance"`
/// block recording the git revision and the swept axis's `axis_hash`.
pub fn artifact_json(
    benchmark: &str,
    outcomes: &[SpecOutcome],
    provenance: Option<&Provenance>,
) -> String {
    let (mut rows, mut failed) = (Vec::new(), Vec::new());
    for o in outcomes {
        match &o.outcome {
            // A widened-but-sound bound is marked, never passed off as
            // precise.
            PointOutcome::Ok(r) | PointOutcome::Degraded(r) => rows.push(format!(
                "\n    {{\"config\": \"{}\", \"sim_cycles\": {}, \"wcet_cycles\": {}, \
                 \"ratio\": {:.4}, \"degraded\": {}}}",
                escape(&r.label),
                r.sim_cycles,
                r.wcet_cycles,
                r.ratio(),
                r.degraded
            )),
            PointOutcome::Failed(fp) => failed.push(format!(
                "\n    {{\"index\": {}, \"config\": \"{}\", \"error\": \"{}\", \
                 \"panicked\": {}}}",
                fp.index,
                escape(&fp.label),
                escape(&fp.error),
                fp.panicked
            )),
        }
    }
    // Failed points are part of the artifact, never silently dropped.
    let failed = if failed.is_empty() {
        String::new()
    } else {
        format!(",\n  \"failed\": [{}\n  ]", failed.join(","))
    };
    let prov = provenance.map_or_else(String::new, Provenance::json_block);
    format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"sound\": {}{prov}{failed},\n  \"points\": [{}\n  ]\n}}\n",
        escape(benchmark),
        all_sound(outcomes),
        rows.join(",")
    )
}

/// One point of the `multilevel-precision` experiment: the same machine
/// analyzed by the pre-MAY baseline (per-function TOP entries, no
/// Always-Miss filter) and by the interprocedural MAY/CAC analysis.
#[derive(Debug, Clone)]
pub struct PrecisionPoint {
    /// Machine label.
    pub label: String,
    /// Simulated cycles (soundness reference).
    pub sim_cycles: u64,
    /// WCET bound of the pre-MAY baseline analysis.
    pub baseline_wcet: u64,
    /// WCET bound of the interprocedural MAY/CAC analysis.
    pub wcet: u64,
    /// Accesses proven Always-Miss at their L1 (the `A` filter).
    pub l1_always_miss: u64,
    /// Accesses guaranteed to hit the L2.
    pub l2_hits: u64,
    /// Whether every cached access sits behind an L1 (split or fully
    /// unified L1) *and* an L2 exists — the configurations whose L2 hits
    /// the baseline could never classify.
    pub behind_l1: bool,
}

impl PrecisionPoint {
    /// Relative WCET tightening over the baseline (positive = tighter).
    pub fn tightening_pct(&self) -> f64 {
        (1.0 - self.wcet as f64 / self.baseline_wcet.max(1) as f64) * 100.0
    }
}

/// Measures the `multilevel-precision` points over the standard hierarchy
/// axis: one link + one simulation per machine, two analyses.
///
/// # Errors
///
/// Compile, link, simulation or analysis failures.
pub fn multilevel_precision_points(quick: bool) -> Result<Vec<PrecisionPoint>, CoreError> {
    use spmlab_cc::SpmAssignment;
    use spmlab_isa::mem::MemoryMap;
    use spmlab_sim::{simulate, MachineConfig, SimOptions};
    use spmlab_wcet::{analyze, WcetConfig};

    let l1 = hierarchy_l1_size(quick);
    let bench = if quick { &ADPCM } else { &G721 };
    let module = bench.compile().map_err(CoreError::Cc)?;
    let input = bench.typical_input();
    let linked = bench
        .link_with_input(
            &module,
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
            &input,
        )
        .map_err(CoreError::Cc)?;
    let sim_options = SimOptions {
        insn_stats: false,
        profile: false,
        ..SimOptions::default()
    };
    hierarchy_axis(l1)
        .into_iter()
        .map(|h| {
            let sim = simulate(
                &linked.exe,
                &MachineConfig::with_hierarchy(h.clone()),
                &sim_options,
            )
            .map_err(CoreError::Sim)?;
            let new = analyze(
                &linked.exe,
                &WcetConfig::with_hierarchy(h.clone()),
                &linked.annotations,
            )
            .map_err(CoreError::Wcet)?;
            let base = analyze(
                &linked.exe,
                &WcetConfig::with_hierarchy_baseline(h.clone()),
                &linked.annotations,
            )
            .map_err(CoreError::Wcet)?;
            let c = new.total_classify();
            Ok(PrecisionPoint {
                label: h.label(),
                sim_cycles: sim.cycles,
                baseline_wcet: base.wcet_cycles,
                wcet: new.wcet_cycles,
                l1_always_miss: c.fetch_always_miss + c.data_always_miss,
                l2_hits: c.l2_hits,
                behind_l1: h.l2.is_some() && h.cached(true) && h.cached(false),
            })
        })
        .collect()
}

/// The `multilevel-precision` experiment: quantifies what the
/// interprocedural MAY analysis and the full Hardy–Puaut CAC buy over the
/// pre-MAY baseline, per machine of the hierarchy axis.
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_multilevel_precision(quick: bool) -> Result<String, CoreError> {
    let points = multilevel_precision_points(quick)?;
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                p.sim_cycles.to_string(),
                p.baseline_wcet.to_string(),
                p.wcet.to_string(),
                format!("{:.2}%", p.tightening_pct()),
                p.l1_always_miss.to_string(),
                p.l2_hits.to_string(),
            ]
        })
        .collect();
    let mut out = format!(
        "Multi-level precision: pre-MAY baseline vs interprocedural MAY/CAC analysis\n{}",
        report::render_table(
            &[
                "machine",
                "sim",
                "baseline wcet",
                "may/cac wcet",
                "gain",
                "L1 AM",
                "L2 AH"
            ],
            &rows
        )
    );
    out.push_str(&format!(
        "never looser than the baseline: {}\n",
        yes(points.iter().all(|p| p.wcet <= p.baseline_wcet))
    ));
    out.push_str(&format!(
        "L2 hits classified behind an L1: {}\n",
        yes(points.iter().any(|p| p.behind_l1 && p.l2_hits > 0))
    ));
    Ok(out)
}

/// Serializes the G.721 (ADPCM for quick runs) baseline's ordered memory
/// trace in its wire format (version byte 2) to `path` — the CI artifact
/// proving the recorded stream decodes and replays. The bytes are
/// round-trip-verified (decode + uncached replay) before writing.
///
/// # Errors
///
/// Pipeline failures; IO errors are reported in the returned text.
pub fn dump_trace(quick: bool, path: &std::path::Path) -> Result<String, CoreError> {
    let bench = if quick { &ADPCM } else { &G721 };
    let pipeline = Pipeline::new(bench)?;
    let bytes = pipeline.trace_bytes();
    let decoded =
        spmlab_sim::MemTrace::from_bytes(&bytes).expect("a freshly serialized trace must decode");
    decoded
        .replay(&spmlab::MemHierarchyConfig::uncached())
        .expect("a decoded trace must replay");
    match std::fs::write(path, &bytes) {
        Ok(()) => Ok(format!(
            "wrote {} ({} bytes, v2, {} events) for benchmark {}\n",
            path.display(),
            bytes.len(),
            decoded.events(),
            bench.name,
        )),
        Err(e) => Ok(format!("could not write {}: {e}\n", path.display())),
    }
}

/// Ablation: energy-optimal vs WCET-aware allocation (paper §5 future
/// work: place "objects … that lie on the critical path").
///
/// # Errors
///
/// Pipeline or allocation failures.
pub fn exp_ablation_wcet_alloc(quick: bool) -> Result<String, CoreError> {
    let szs: &[u32] = if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 4096]
    };
    let mut rows = Vec::new();
    for bench in [&INSERTSORT, &MULTISORT] {
        // Energy-optimal allocations first, then the WCET-aware ones.
        let mut axis = spm_axis(szs);
        axis.extend(
            szs.iter()
                .map(|&size| MemArchSpec::spm_with(size, SpmAllocation::WcetRegion)),
        );
        let points = spec_sweep(&Pipeline::new(bench)?, &axis)?;
        let (energy, wcet) = points.split_at(szs.len());
        for (size, (e, w)) in szs.iter().zip(energy.iter().zip(wcet)) {
            rows.push(vec![
                bench.name.to_string(),
                size.to_string(),
                e.result.wcet_cycles.to_string(),
                w.result.wcet_cycles.to_string(),
            ]);
        }
    }
    Ok(format!(
        "Ablation: energy-optimal vs WCET-aware allocation (WCET bound)\n{}",
        report::render_table(
            &[
                "benchmark",
                "spm bytes",
                "energy-opt wcet",
                "wcet-aware wcet"
            ],
            &rows
        )
    ))
}

/// Runs one spec on one benchmark and renders the result row plus the
/// spec's canonical JSON (so the output is itself reproducible).
///
/// # Errors
///
/// Unknown benchmark, JSON/validation failures, pipeline failures — all
/// rendered as strings for the CLI.
pub fn run_spec_on(bench_name: &str, spec_json: &str) -> Result<String, String> {
    let bench = spmlab_workloads::benchmark(bench_name).ok_or_else(|| {
        format!(
            "unknown benchmark `{bench_name}`; try one of: {}",
            spmlab_workloads::all_benchmarks()
                .iter()
                .map(|b| b.name.as_ref())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let spec = MemArchSpec::from_json(spec_json).map_err(|e| e.to_string())?;
    let pipeline = Pipeline::new(bench).map_err(|e| e.to_string())?;
    let r = pipeline.run(&spec).map_err(|e| e.to_string())?;
    let row = vec![vec![
        r.label.clone(),
        r.sim_cycles.to_string(),
        r.wcet_cycles.to_string(),
        format!("{:.3}", r.ratio()),
        format!("{:.0}", r.energy_nj / 1000.0),
        r.spm_used.to_string(),
    ]];
    Ok(format!(
        "spec point on `{}`\n{}\nspec (canonical):\n{}\n",
        bench.name,
        report::render_table(
            &["configuration", "sim", "wcet", "ratio", "µJ", "spm used B"],
            &row
        ),
        spec.canonical().to_json()
    ))
}

/// The workspace root (where the tracked bench artifacts live).
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Spot checks of the paper's qualitative claims, used by tests and the
/// `verify` subcommand. Returns a list of `(claim, holds)` pairs.
///
/// # Errors
///
/// Pipeline failures.
pub fn verify_claims(quick: bool) -> Result<Vec<(String, bool)>, CoreError> {
    let szs = sizes(quick);
    let mut claims = Vec::new();
    let (grid, outcomes) = figure_outcomes("fig3", quick)?;
    let fig = Figure3::new(&grid.benchmark, szs, results(outcomes)?);
    let (spm_r, cache_r) = fig.ratio_series();

    // Claim 1: scratchpad WCET decreases as capacity grows.
    let spm_wcets: Vec<u64> = fig.spm.iter().map(|p| p.wcet_cycles).collect();
    claims.push((
        "G.721: scratchpad WCET decreases with capacity".into(),
        spm_wcets.first() > spm_wcets.last(),
    ));
    // Claim 2: scratchpad ratio roughly constant (max/min < 1.5).
    let rmax = spm_r.iter().map(|(_, r)| *r).fold(f64::MIN, f64::max);
    let rmin = spm_r.iter().map(|(_, r)| *r).fold(f64::MAX, f64::min);
    claims.push((
        "G.721: scratchpad WCET/sim ratio ~constant".into(),
        rmax / rmin < 1.5,
    ));
    // Claim 3: cache WCET stays at a high level — it falls by less than 2×
    // across the whole sweep while the simulated cycles fall by more than
    // 2×, and even the best cache WCET stays above the *worst* scratchpad
    // WCET ("it is doubtful that the results achieved by an inherently
    // predictable scratchpad can be reached").
    let cache_wcets: Vec<u64> = fig.cache.iter().map(|p| p.wcet_cycles).collect();
    let cache_sims: Vec<u64> = fig.cache.iter().map(|p| p.sim_cycles).collect();
    let wmax = *cache_wcets.iter().max().unwrap() as f64;
    let wmin = *cache_wcets.iter().min().unwrap() as f64;
    let sim_drop = cache_sims[0] as f64 / *cache_sims.last().unwrap() as f64;
    let spm_worst_wcet = fig.spm.iter().map(|p| p.wcet_cycles).max().unwrap();
    claims.push((
        "G.721: cache WCET stays at a high level".into(),
        wmax / wmin < 2.0 && sim_drop > 2.0 && wmin > spm_worst_wcet as f64,
    ));
    // Claim 4: cache ratio grows with size.
    claims.push((
        "G.721: cache WCET/sim ratio grows with cache size".into(),
        cache_r.last().unwrap().1 > cache_r.first().unwrap().1 * 1.5,
    ));
    // Claim 5: spm beats cache on WCET at every size.
    let spm_beats = fig
        .spm
        .iter()
        .zip(&fig.cache)
        .all(|(s, c)| s.wcet_cycles <= c.wcet_cycles);
    claims.push((
        "G.721: scratchpad WCET ≤ cache WCET at every size".into(),
        spm_beats,
    ));
    // Claim 6: soundness everywhere.
    let sound = fig
        .spm
        .iter()
        .chain(&fig.cache)
        .all(|p| p.wcet_cycles >= p.sim_cycles);
    claims.push(("G.721: WCET ≥ simulation at every point".into(), sound));

    // Claim 7 (beyond the paper): the invariant extends to multi-level
    // hierarchies, and the scratchpad bound stays tighter than every
    // cached configuration's.
    let (grid, outcomes) = figure_outcomes("hierarchy", quick)?;
    let hier = FigureHierarchy::new(&grid.benchmark, outcomes);
    claims.push((
        "hierarchy: WCET ≥ simulation at every configuration".into(),
        hier.all_sound(),
    ));
    let (spm, cached): (Vec<_>, Vec<_>) = hier.points.iter().partition(|p| p.spec.spm.is_some());
    let spm_ratio = spm
        .iter()
        .map(|p| p.result.ratio())
        .fold(f64::MIN, f64::max);
    let cached_best = cached
        .iter()
        .map(|p| p.result.ratio())
        .fold(f64::MAX, f64::min);
    claims.push((
        "hierarchy: scratchpad WCET/sim ratio beats every cache hierarchy".into(),
        spm_ratio < cached_best,
    ));

    // Claim 10 (the interprocedural MAY/CAC result): the upgraded
    // multi-level analysis is never looser than the pre-MAY baseline on
    // the hierarchy axis, stays sound, and — what the baseline could
    // never do — classifies L2 hits *behind* an L1 on at least one
    // split-L1+L2 machine.
    let precision = multilevel_precision_points(quick)?;
    claims.push((
        "multilevel-precision: MAY/CAC analysis never looser, sound, classifies L2 hits behind an L1"
            .into(),
        precision
            .iter()
            .all(|p| p.wcet <= p.baseline_wcet && p.wcet >= p.sim_cycles)
            && precision.iter().any(|p| p.behind_l1 && p.l2_hits > 0),
    ));

    // Claim 9 (the composable-spec result): under SPM×hierarchy machines,
    // allocating against the multi-level critical path never yields a
    // worse bound than the seed's region-timing allocation, and every
    // point stays sound.
    let (grid, outcomes) = figure_outcomes("hierarchy-spm", quick)?;
    let spm_hier = FigureSpmHierarchy::new(&grid.benchmark, &collect_points(outcomes)?);
    claims.push((
        format!(
            "{}: hierarchy-aware allocation WCET ≤ region-timing allocation at every \
             SPM×hierarchy point",
            spm_hier.benchmark
        ),
        spm_hier.aware_never_worse() && spm_hier.all_sound(),
    ));

    // Claim 11 (the write-policy axis): the charge-at-store write-back
    // rule keeps the bound sound when levels turn write-back and a store
    // buffer appears — sim ≤ bound at every point, both policies.
    let (_, outcomes) = figure_outcomes("write-policy", quick)?;
    claims.push((
        "write-policy: WCET ≥ simulation at every write-through AND write-back point".into(),
        all_sound(&outcomes),
    ));

    // Claim 12 (the persistence ablation): first-miss persistence only
    // ever tightens the MUST-only bound, and stays sound.
    let (must, pers) = halves(figure_outcomes("ablation-persistence", quick)?.1)?;
    claims.push((
        "ablation-persistence: +persistence ≤ MUST-only and ≥ sim at every size".into(),
        must.iter()
            .zip(&pers)
            .all(|(m, p)| p.wcet_cycles <= m.wcet_cycles && p.wcet_cycles >= p.sim_cycles),
    ));

    Ok(claims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_grids_round_trip_and_keep_their_config_axes() {
        for quick in [true, false] {
            let (spm_bench, spm_sizes, spm_l1) = hierarchy_spm_params(quick);
            let expected: Vec<(&str, String, Vec<MemArchSpec>)> = vec![
                ("fig3", "g721".into(), figure3_axis(sizes(quick))),
                ("fig5", "multisort".into(), figure3_axis(sizes(quick))),
                ("fig6", "adpcm".into(), figure3_axis(sizes(quick))),
                (
                    "hierarchy",
                    hierarchy_benchmark(quick).name.to_string(),
                    hierarchy_figure_axis(hierarchy_l1_size(quick)),
                ),
                (
                    "hierarchy-spm",
                    spm_bench.name.to_string(),
                    hierarchy_spm_axis(&spm_sizes, &hierarchy_spm_machines(spm_l1)),
                ),
                (
                    "write-policy",
                    hierarchy_benchmark(quick).name.to_string(),
                    write_policy_axis(hierarchy_l1_size(quick)),
                ),
                (
                    "ablation-persistence",
                    "g721".into(),
                    persistence_axis(sizes(quick)),
                ),
                ("ablation-icache", "g721".into(), icache_axis(sizes(quick))),
                (
                    "ablation-assoc",
                    "g721".into(),
                    assoc_axis(assoc_size(quick))
                        .into_iter()
                        .map(|(_, s)| s)
                        .collect(),
                ),
            ];
            let grid_ids: Vec<&str> = EXPERIMENTS
                .into_iter()
                .filter(|id| experiment(id).unwrap().grid(quick).is_some())
                .collect();
            let expected_ids: Vec<&str> = expected.iter().map(|e| e.0).collect();
            assert_eq!(grid_ids, expected_ids);
            for (id, bench, axis) in expected {
                let grid = experiment(id).unwrap().grid(quick).unwrap();
                assert_eq!(GridSpec::from_json(&grid.to_json()).unwrap(), grid, "{id}");
                assert_eq!(grid.benchmark, bench, "{id}");
                assert_eq!(grid.axis().unwrap().0, axis, "{id}: axis as written");
            }
        }
    }

    #[test]
    fn hierarchy_grid_streams_keep_their_axis_hash() {
        // The hashes the hierarchy figure's checkpoint headers carried
        // before the figure became a grid: its streams stay resumable.
        for (quick, hash) in [(true, "fe618877c985f45f"), (false, "9ac907570a62f685")] {
            let grid = experiment("hierarchy").unwrap().grid(quick).unwrap();
            let (axis, _) = grid.axis().unwrap();
            assert_eq!(axis.len(), 8);
            assert_eq!(axis_hash(&axis), hash);
        }
    }

    #[test]
    fn artifact_reads_back_failed_point_text_exactly() {
        use spmlab_isa::archspec::json::{parse, Value};
        let error = "bad \"bound\"\nat line 2";
        let outcomes = [SpecOutcome {
            spec: MemArchSpec::uncached(),
            outcome: PointOutcome::Failed(spmlab::FailedPoint {
                index: 0,
                label: "l1 \"512\"".into(),
                error: error.into(),
                panicked: false,
            }),
        }];
        let json = artifact_json("g721", &outcomes, None);
        let doc = parse(&json).expect("the artifact parses");
        let first = |v: Option<&Value>| match v {
            Some(Value::Arr(items)) => items[0].clone(),
            _ => panic!("not a list in {json}"),
        };
        let failed = first(doc.get("failed"));
        assert_eq!(failed.get("error").and_then(Value::as_str), Some(error));
        assert_eq!(
            failed.get("config").and_then(Value::as_str),
            Some("l1 \"512\"")
        );
        assert_eq!(doc.get("sound"), Some(&Value::Bool(false)));
    }

    #[test]
    fn unknown_and_non_grid_ids() {
        assert!(experiment("nosuch").is_none());
        assert_eq!(experiment("fig4").map(|e| e.id), Some("fig3"));
        let table1 = experiment("table1").unwrap();
        assert!(table1.grid(true).is_none());
        assert!(table1.render(true, "").is_err());
    }
}
