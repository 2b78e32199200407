//! # spmlab-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (see DESIGN.md §4 for the index). The `experiments` binary prints the
//! same rows/series the paper reports:
//!
//! ```text
//! cargo run --release -p spmlab-bench --bin experiments -- all
//! cargo run --release -p spmlab-bench --bin experiments -- fig4
//! cargo run --release -p spmlab-bench --bin experiments -- --quick fig5
//! ```
//!
//! The Criterion benches in `benches/` time the same artefact generators
//! on reduced inputs, one group per paper artefact.

pub mod dse;
pub mod fuzz;
pub mod jsonl;

pub use spmlab::checkpoint::fnv1a64;

use spmlab::figures::{table1, table2, Figure3, FigureHierarchy, FigureSpmHierarchy, Tightness};
use spmlab::pipeline::Pipeline;
use spmlab::report;
use spmlab::sweep::{cache_sweep_with, spec_sweep, SweepPoint, SweepSession};
use spmlab::{
    cache_axis, hierarchy_axis, hierarchy_spec_axis, hierarchy_spm_axis, hierarchy_spm_machines,
    spm_axis, write_policy_axis, CheckpointHeader, CoreError, MemArchSpec, SpmAllocation,
    PAPER_SIZES,
};
use spmlab_isa::cachecfg::{CacheConfig, Replacement};
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

/// Table 1: memory access cycles.
pub fn exp_table1() -> String {
    report::render_table1(&table1())
}

/// Table 2: benchmark inventory.
///
/// # Errors
///
/// Compiler failures.
pub fn exp_table2() -> Result<String, CoreError> {
    Ok(report::render_table2(&table2(&paper_benchmarks())?))
}

/// Figures 3 (G.721, panels a+b) and 4 (its ratio plot).
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_fig3_fig4(quick: bool) -> Result<String, CoreError> {
    let fig = Figure3::run(&G721, sizes(quick))?;
    let (spm_r, cache_r) = fig.ratio_series();
    Ok(format!(
        "{}\n{}",
        report::render_figure3(&fig, "Figure 3"),
        report::render_ratios("Figure 4", &fig.benchmark, &spm_r, &cache_r)
    ))
}

/// Figure 5: MultiSort WCET/sim ratios.
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_fig5(quick: bool) -> Result<String, CoreError> {
    let fig = Figure3::run(&MULTISORT, sizes(quick))?;
    let (spm_r, cache_r) = fig.ratio_series();
    Ok(format!(
        "{}\n{}",
        report::render_figure3(&fig, "Figure 5 (underlying sweeps)"),
        report::render_ratios("Figure 5", &fig.benchmark, &spm_r, &cache_r)
    ))
}

/// Figure 6: ADPCM absolute cycles and WCET for both branches.
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_fig6(quick: bool) -> Result<String, CoreError> {
    let fig = Figure3::run(&ADPCM, sizes(quick))?;
    let (spm_r, cache_r) = fig.ratio_series();
    Ok(format!(
        "{}\n{}",
        report::render_figure3(&fig, "Figure 6"),
        report::render_ratios("Figure 6 (ratios)", &fig.benchmark, &spm_r, &cache_r)
    ))
}

/// §4 tightness experiment: insertion sort with worst-case input.
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_tightness() -> Result<String, CoreError> {
    let t = Tightness::run(&INSERTSORT, 0)?;
    Ok(report::render_tightness(&t))
}

/// The L1 capacity the hierarchy scenario builds its axis around.
pub fn hierarchy_l1_size(quick: bool) -> u32 {
    if quick {
        512
    } else {
        1024
    }
}

/// The hierarchy comparison data (shared by the report experiment, the
/// criterion bench and the `BENCH_hierarchy.json` artifact).
///
/// # Errors
///
/// Pipeline failures.
pub fn hierarchy_figure(quick: bool) -> Result<FigureHierarchy, CoreError> {
    let l1 = hierarchy_l1_size(quick);
    let bench = if quick { &ADPCM } else { &G721 };
    FigureHierarchy::run(bench, l1, &hierarchy_axis(l1))
}

/// The benchmark behind the hierarchy scenario.
pub fn hierarchy_benchmark(quick: bool) -> &'static Benchmark {
    if quick {
        &ADPCM
    } else {
        &G721
    }
}

/// The checkpoint header binding a hierarchy-scenario checkpoint to this
/// build (git revision) and the scenario's exact spec axis — a resume with
/// a different revision, benchmark, or axis is rejected up front.
pub fn hierarchy_checkpoint_header(quick: bool) -> CheckpointHeader {
    let l1 = hierarchy_l1_size(quick);
    let axis = FigureHierarchy::spec_axis(l1, &hierarchy_axis(l1));
    CheckpointHeader::new(&git_revision(), &hierarchy_benchmark(quick).name, &axis)
}

/// How (or whether) a hierarchy run persists per-point checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointMode {
    /// No checkpointing (the default).
    Off,
    /// Stream a fresh checkpoint to the path (`--checkpoint`), truncating
    /// any existing file.
    Fresh(std::path::PathBuf),
    /// Resume from the path (`--resume`): reuse completed points and
    /// re-measure only the missing ones. A missing file starts a fresh
    /// checkpoint, so one flag serves a retry loop end to end.
    Resume(std::path::PathBuf),
}

/// Builds the [`SweepSession`] for a hierarchy run under `mode`.
///
/// # Errors
///
/// Checkpoint I/O failures; header mismatches on resume.
pub fn hierarchy_session(quick: bool, mode: &CheckpointMode) -> Result<SweepSession, CoreError> {
    match mode {
        CheckpointMode::Off => Ok(SweepSession::none()),
        CheckpointMode::Fresh(path) => {
            SweepSession::checkpoint_to(path, &hierarchy_checkpoint_header(quick))
        }
        CheckpointMode::Resume(path) => {
            let header = hierarchy_checkpoint_header(quick);
            if path.exists() {
                SweepSession::resume_from(path, &header)
            } else {
                SweepSession::checkpoint_to(path, &header)
            }
        }
    }
}

/// Fault-isolated hierarchy comparison: failures are contained per point
/// (reported in [`FigureHierarchy::failed`]) and `session` can checkpoint
/// and resume the whole figure.
///
/// # Errors
///
/// Pipeline construction and checkpoint I/O failures.
pub fn hierarchy_figure_with_session(
    quick: bool,
    session: &SweepSession,
) -> Result<FigureHierarchy, CoreError> {
    let l1 = hierarchy_l1_size(quick);
    FigureHierarchy::run_with_session(hierarchy_benchmark(quick), l1, &hierarchy_axis(l1), session)
}

/// Hierarchy scenario: the WCET-vs-simulation comparison across memory
/// hierarchies — scratchpad (both main-memory timings), unified/split L1,
/// and split L1 backed by a unified L2 at two capacities and two
/// main-memory timings.
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_hierarchy(quick: bool) -> Result<String, CoreError> {
    let fig = hierarchy_figure(quick)?;
    let mut out = report::render_hierarchy(&fig);
    out.push_str(&format!(
        "sound (wcet >= sim) at every point: {}\n",
        if fig.all_sound() { "yes" } else { "NO — BUG" }
    ));
    Ok(out)
}

/// Runs the hierarchy scenario and emits its tracked artifact into the
/// workspace root: full runs rewrite `BENCH_hierarchy.json` with this
/// run's sweep (quick smoke runs leave it untouched).
///
/// # Errors
///
/// Pipeline failures; artifact IO errors are reported inline, not fatal.
pub fn exp_hierarchy_with_artifacts(
    quick: bool,
    root: &std::path::Path,
) -> Result<String, CoreError> {
    exp_hierarchy_with_artifacts_ckpt(quick, root, &CheckpointMode::Off)
}

/// [`exp_hierarchy_with_artifacts`] with per-point checkpointing: under
/// [`CheckpointMode::Fresh`]/[`CheckpointMode::Resume`] every completed
/// point streams to the checkpoint file as it finishes, and a resumed run
/// reuses the stored points bit-identically, re-measuring only the missing
/// ones. Per-point failures are contained and reported (in the table, the
/// JSON artifact, and the checkpoint) instead of aborting the run.
///
/// # Errors
///
/// Pipeline construction and checkpoint I/O failures; artifact IO errors
/// are reported inline, not fatal.
pub fn exp_hierarchy_with_artifacts_ckpt(
    quick: bool,
    root: &std::path::Path,
    mode: &CheckpointMode,
) -> Result<String, CoreError> {
    // The spec hash fingerprints the canonical sweep axis, so two
    // artifacts with the same hash measured the same configurations even
    // across axis-definition refactors. Cheap enough to compute on every run.
    let spec_hash = fnv1a64(
        &hierarchy_axis(hierarchy_l1_size(quick))
            .iter()
            .map(|h| MemArchSpec::from_hierarchy(h).label())
            .collect::<Vec<_>>()
            .join("|"),
    );
    // Counter/phase provenance needs a collector listening during the run.
    // Only ride along when profiling is already active: installing a sink
    // unconditionally would flip `spmlab_obs::enabled()` and serialise the
    // sweep, costing far more than the provenance is worth on plain runs.
    let collector = if spmlab_obs::enabled() {
        let sink = std::sync::Arc::new(spmlab_obs::collector::MemorySink::default());
        Some((spmlab_obs::add_sink(sink.clone()), sink))
    } else {
        None
    };
    let session = hierarchy_session(quick, mode)?;
    let start = std::time::Instant::now();
    let fig = hierarchy_figure_with_session(quick, &session)?;
    let wall = start.elapsed().as_secs_f64();
    let mut provenance = Provenance {
        spec_hash,
        replay_points: None,
        full_sim_points: None,
        memo_hits: None,
        memo_misses: None,
        phase_ns: Vec::new(),
    };
    if let Some((guard, sink)) = collector {
        // Stop recording before reading the totals back. Replay-eligible =
        // served from a recorded trace (replayed, or the recording machine
        // itself); full-sim = fell back to the interpreter.
        drop(guard);
        provenance.replay_points =
            Some(sink.counter_total("sweep_replay") + sink.counter_total("sweep_recorded_reuse"));
        provenance.full_sim_points = Some(sink.counter_total("sweep_full_sim"));
        provenance.memo_hits = Some(sink.counter_total("sweep_memo_hit"));
        provenance.memo_misses = Some(sink.counter_total("sweep_memo_miss"));
        provenance.phase_ns = sink
            .flat_profile()
            .into_iter()
            .map(|row| (row.name.to_string(), row.self_ns))
            .collect();
    }
    let mut out = report::render_hierarchy(&fig);
    out.push_str(&format!(
        "sound (wcet >= sim) at every point: {}\n",
        if fig.all_sound() { "yes" } else { "NO — BUG" }
    ));
    match mode {
        CheckpointMode::Off => {}
        CheckpointMode::Fresh(p) => {
            out.push_str(&format!("checkpoint streamed to {}\n", p.display()));
        }
        CheckpointMode::Resume(p) => {
            out.push_str(&format!(
                "resume: reused {} completed points from {}\n",
                session.resumed_points(),
                p.display()
            ));
        }
    }
    // Only full runs refresh the tracked sweep artifact — a --quick smoke
    // run must not clobber the committed full-axis numbers.
    if quick {
        out.push_str("quick axis: BENCH_hierarchy.json left untouched\n");
    } else {
        let json_path = root.join("BENCH_hierarchy.json");
        match std::fs::write(
            &json_path,
            hierarchy_json_with_provenance(&fig, wall, Some(&provenance)),
        ) {
            Ok(()) => out.push_str(&format!("wrote {}\n", json_path.display())),
            Err(e) => out.push_str(&format!("could not write {}: {e}\n", json_path.display())),
        }
    }
    Ok(out)
}

/// Where a `BENCH_*.json` artifact's numbers came from: the canonical
/// hash of the swept spec axis plus — when the run was profiled — the
/// replay/full-sim split, the sweep memo hit rate, and per-phase self
/// times.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Provenance {
    /// FNV-1a 64 hash (hex) of the canonical spec axis swept.
    pub spec_hash: String,
    /// Points priced by trace replay (profiled runs only).
    pub replay_points: Option<u64>,
    /// Points that fell back to full simulation (profiled runs only).
    pub full_sim_points: Option<u64>,
    /// Sweep points served from the effective-spec memo.
    pub memo_hits: Option<u64>,
    /// Sweep points actually measured.
    pub memo_misses: Option<u64>,
    /// Per-phase self time `(name, ns)`, largest first (profiled runs
    /// only; empty otherwise).
    pub phase_ns: Vec<(String, u64)>,
}

impl Provenance {
    /// The artifact's `"provenance"` member (leading comma included),
    /// stamped with the current git revision.
    fn json_block(&self) -> String {
        let opt = |name: &str, v: Option<u64>| {
            v.map_or_else(String::new, |v| format!(",\n    \"{name}\": {v}"))
        };
        let mut phases = String::new();
        for (i, (name, ns)) in self.phase_ns.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            phases.push_str(&format!(
                "\n      {{\"phase\": \"{}\", \"self_ns\": {ns}}}",
                name.replace('"', "'")
            ));
        }
        let phases = if phases.is_empty() {
            String::new()
        } else {
            format!(",\n    \"phases\": [{phases}\n    ]")
        };
        format!(
            ",\n  \"provenance\": {{\n    \"rev\": \"{}\",\n    \"spec_hash\": \"{}\"{}{}{}{}{}\n  }}",
            git_revision().replace('"', "'"),
            self.spec_hash.replace('"', "'"),
            opt("replay_points", self.replay_points),
            opt("full_sim_points", self.full_sim_points),
            opt("memo_hits", self.memo_hits),
            opt("memo_misses", self.memo_misses),
            phases
        )
    }
}

/// The current short git revision, or `unknown` outside a checkout.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

/// Serialises the hierarchy comparison as the `BENCH_hierarchy.json`
/// artifact (hand-rolled JSON: the build environment has no serde_json).
pub fn hierarchy_json(fig: &FigureHierarchy, wall_seconds: f64) -> String {
    hierarchy_json_with_provenance(fig, wall_seconds, None)
}

/// [`hierarchy_json`] plus an optional `"provenance"` block recording the
/// git revision, canonical spec-axis hash and — when the run was profiled —
/// replay/memo counters and per-phase self times.
pub fn hierarchy_json_with_provenance(
    fig: &FigureHierarchy,
    wall_seconds: f64,
    provenance: Option<&Provenance>,
) -> String {
    // Degraded flags in `rows()` order (SPM pairs first, then hierarchy
    // points) — a widened-but-sound bound is marked, never passed off as
    // precise.
    let mut degraded: Vec<bool> = Vec::new();
    for p in &fig.spm {
        degraded.push(p.table1.degraded);
        degraded.push(p.dram.degraded);
    }
    degraded.extend(fig.points.iter().map(|p| p.result.degraded));
    let mut rows = String::new();
    for (i, (label, sim, wcet)) in fig.rows().into_iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    {{\"config\": \"{}\", \"sim_cycles\": {sim}, \"wcet_cycles\": {wcet}, \
             \"ratio\": {:.4}, \"degraded\": {}}}",
            label.replace('"', "'"),
            wcet as f64 / sim.max(1) as f64,
            degraded.get(i).copied().unwrap_or(false)
        ));
    }
    // Failed points are part of the artifact, never silently dropped.
    let failed = if fig.failed.is_empty() {
        String::new()
    } else {
        let mut entries = String::new();
        for (i, fp) in fig.failed.iter().enumerate() {
            if i > 0 {
                entries.push(',');
            }
            entries.push_str(&format!(
                "\n    {{\"index\": {}, \"config\": \"{}\", \"error\": \"{}\", \
                 \"panicked\": {}}}",
                fp.index,
                fp.label.replace('"', "'"),
                fp.error.replace('"', "'").replace('\n', " "),
                fp.panicked
            ));
        }
        format!(",\n  \"failed\": [{entries}\n  ]")
    };
    let prov = provenance.map_or_else(String::new, Provenance::json_block);
    format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"wall_seconds\": {wall_seconds:.3},\n  \
         \"sound\": {}{prov}{failed},\n  \"points\": [{rows}\n  ]\n}}\n",
        fig.benchmark,
        fig.all_sound()
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
        if points.iter().all(|p| p.wcet <= p.baseline_wcet) {
            "yes"
        } else {
            "NO — BUG"
        }
    ));
    out.push_str(&format!(
        "L2 hits classified behind an L1: {}\n",
        if points.iter().any(|p| p.behind_l1 && p.l2_hits > 0) {
            "yes"
        } else {
            "NO — BUG"
        }
    ));
    Ok(out)
}

/// One write-through/write-back pair of the `write-policy` experiment.
#[derive(Debug, Clone)]
pub struct WritePolicyPoint {
    /// Label of the write-through reference machine.
    pub wt_label: String,
    /// Label of the write-back (or store-buffered) twin.
    pub wb_label: String,
    /// Simulated cycles, write-through.
    pub wt_sim: u64,
    /// WCET bound, write-through.
    pub wt_wcet: u64,
    /// Simulated cycles, write-back twin.
    pub wb_sim: u64,
    /// WCET bound, write-back twin.
    pub wb_wcet: u64,
}

impl WritePolicyPoint {
    /// Simulated-cycle change of the write-back twin vs write-through
    /// (negative = faster).
    pub fn sim_delta_pct(&self) -> f64 {
        (self.wb_sim as f64 / self.wt_sim.max(1) as f64 - 1.0) * 100.0
    }

    /// WCET-bound change of the write-back twin vs write-through.
    pub fn wcet_delta_pct(&self) -> f64 {
        (self.wb_wcet as f64 / self.wt_wcet.max(1) as f64 - 1.0) * 100.0
    }
}

/// A measured write-policy axis: the paired points plus the
/// replay-vs-full-sim provenance the run demonstrated.
#[derive(Debug, Clone)]
pub struct WritePolicySweep {
    /// Write-through/write-back pairs, axis order.
    pub points: Vec<WritePolicyPoint>,
    /// Replay/memo counters (from the replay-mode sweep) and the two
    /// timed phases (`sweep-replay` / `sweep-full-sim`, nanoseconds).
    pub provenance: Provenance,
    /// Wall time of the replay-mode sweep, seconds.
    pub replay_wall: f64,
    /// Wall time of the full-simulation reference sweep, seconds.
    pub full_sim_wall: f64,
}

impl WritePolicySweep {
    /// Full-simulation wall time over replay wall time (> 1 means
    /// replay was faster).
    pub fn speedup(&self) -> f64 {
        self.full_sim_wall / self.replay_wall.max(1e-9)
    }
}

/// Measures the write-policy axis ([`write_policy_axis`]) on the G.721
/// benchmark (ADPCM for quick runs) **twice**: once with the baseline's
/// ordered (v2) trace replayed at every point — write-back and
/// store-buffered machines included — and once with the trace disabled
/// as the full-simulation reference. The two sweeps must agree
/// bit-identically on cycles, bounds, checksums and (stats-derived)
/// energy at every point; the replay sweep's counters and both phase
/// times land in the returned provenance.
///
/// # Errors
///
/// Pipeline failures, or [`CoreError::ChecksumMismatch`]-style
/// divergence mapped to a panic — replay/full-sim disagreement is a
/// simulator bug, not a reportable measurement.
pub fn write_policy_sweep(quick: bool) -> Result<WritePolicySweep, CoreError> {
    let bench = if quick { &ADPCM } else { &G721 };
    let l1 = hierarchy_l1_size(quick);
    let specs = write_policy_axis(l1);
    let spec_hash = fnv1a64(
        &specs
            .iter()
            .map(MemArchSpec::label)
            .collect::<Vec<_>>()
            .join("|"),
    );

    // Full-simulation reference: same pipeline, trace dropped. A sink
    // listens here too so both timed phases carry identical
    // instrumentation overhead — the speedup compares like with like.
    let mut full_pipeline = Pipeline::new(bench)?;
    full_pipeline.disable_trace();
    let full_sink = std::sync::Arc::new(spmlab_obs::collector::MemorySink::default());
    let full_guard = spmlab_obs::add_sink(full_sink.clone());
    let start = std::time::Instant::now();
    let full = spec_sweep(&full_pipeline, &specs)?;
    let full_sim_wall = start.elapsed().as_secs_f64();
    drop(full_guard);
    assert_eq!(
        full_sink.counter_total("sweep_replay"),
        0,
        "trace-disabled reference must not replay"
    );

    // Replay mode, with a collector listening so the provenance can
    // prove the flip (every point replayed, zero full-sim fallbacks).
    let pipeline = Pipeline::new(bench)?;
    let sink = std::sync::Arc::new(spmlab_obs::collector::MemorySink::default());
    let guard = spmlab_obs::add_sink(sink.clone());
    let start = std::time::Instant::now();
    let results = spec_sweep(&pipeline, &specs)?;
    let replay_wall = start.elapsed().as_secs_f64();
    drop(guard);

    // The differential: replay must be indistinguishable from full
    // simulation at every point (energy is a pure function of the
    // per-level memory statistics, so equal energy ⇒ equal stats
    // weighting on top of the cycle/bound/checksum identity).
    for (r, f) in results.iter().zip(&full) {
        assert_eq!(
            (r.result.sim_cycles, r.result.wcet_cycles, r.result.checksum),
            (f.result.sim_cycles, f.result.wcet_cycles, f.result.checksum),
            "replay diverged from full simulation at {}",
            r.result.label
        );
        assert_eq!(
            r.result.energy_nj.to_bits(),
            f.result.energy_nj.to_bits(),
            "replayed memory statistics diverged at {}",
            r.result.label
        );
    }

    let provenance = Provenance {
        spec_hash,
        replay_points: Some(
            sink.counter_total("sweep_replay") + sink.counter_total("sweep_recorded_reuse"),
        ),
        full_sim_points: Some(sink.counter_total("sweep_full_sim")),
        memo_hits: Some(sink.counter_total("sweep_memo_hit")),
        memo_misses: Some(sink.counter_total("sweep_memo_miss")),
        phase_ns: vec![
            ("sweep-replay".into(), (replay_wall * 1e9).round() as u64),
            (
                "sweep-full-sim".into(),
                (full_sim_wall * 1e9).round() as u64,
            ),
        ],
    };
    let points = results
        .chunks(2)
        .map(|pair| WritePolicyPoint {
            wt_label: pair[0].result.label.clone(),
            wb_label: pair[1].result.label.clone(),
            wt_sim: pair[0].result.sim_cycles,
            wt_wcet: pair[0].result.wcet_cycles,
            wb_sim: pair[1].result.sim_cycles,
            wb_wcet: pair[1].result.wcet_cycles,
        })
        .collect();
    Ok(WritePolicySweep {
        points,
        provenance,
        replay_wall,
        full_sim_wall,
    })
}

/// The paired points of the write-policy axis (see
/// [`write_policy_sweep`] for the full replay-vs-full-sim measurement).
///
/// # Errors
///
/// Pipeline failures.
pub fn write_policy_points(quick: bool) -> Result<Vec<WritePolicyPoint>, CoreError> {
    Ok(write_policy_sweep(quick)?.points)
}

/// Whether every point of the write-policy comparison is sound
/// (WCET ≥ simulation on both sides of every pair) — the acceptance
/// criterion `verify` checks as a claim.
pub fn write_policy_sound(points: &[WritePolicyPoint]) -> bool {
    points
        .iter()
        .all(|p| p.wt_wcet >= p.wt_sim && p.wb_wcet >= p.wb_sim)
}

/// Serialises the write-policy comparison as the
/// `BENCH_write_policy.json` artifact (hand-rolled JSON; the build
/// environment has no serde_json).
pub fn write_policy_json(points: &[WritePolicyPoint], quick: bool) -> String {
    write_policy_json_with_provenance(points, quick, None)
}

/// [`write_policy_json`] plus an optional `"provenance"` block: git
/// revision, canonical axis hash, the replay/full-sim/memo counters of
/// the replay-mode sweep, and the timed `sweep-replay` /
/// `sweep-full-sim` phases that demonstrate the replay speedup.
pub fn write_policy_json_with_provenance(
    points: &[WritePolicyPoint],
    quick: bool,
    provenance: Option<&Provenance>,
) -> String {
    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    {{\"write_through\": \"{}\", \"write_back\": \"{}\", \
             \"wt_sim\": {}, \"wt_wcet\": {}, \"wb_sim\": {}, \"wb_wcet\": {}}}",
            p.wt_label.replace('"', "'"),
            p.wb_label.replace('"', "'"),
            p.wt_sim,
            p.wt_wcet,
            p.wb_sim,
            p.wb_wcet,
        ));
    }
    let prov = provenance.map_or_else(String::new, Provenance::json_block);
    format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"quick\": {quick},\n  \"sound\": {}{prov},\n  \
         \"points\": [{rows}\n  ]\n}}\n",
        if quick { &ADPCM.name } else { &G721.name },
        write_policy_sound(points)
    )
}

/// Write-policy scenario: write-through vs write-back (and a store
/// buffer) across the standard machine shapes — simulated cycles, WCET
/// bounds, and the per-pair deltas. The axis is measured twice (trace
/// replay vs full simulation, bit-identical by construction); the
/// report shows the replay speedup and the counter flip, and full runs
/// rewrite the tracked `BENCH_write_policy.json` artifact in the
/// workspace root (quick smoke runs leave it untouched).
///
/// # Errors
///
/// Pipeline failures; artifact IO errors are reported inline, not fatal.
pub fn exp_write_policy(quick: bool) -> Result<String, CoreError> {
    exp_write_policy_with_artifacts(quick, &workspace_root())
}

/// [`exp_write_policy`] against an explicit artifact root (tests point
/// this at a temp directory).
///
/// # Errors
///
/// Pipeline failures; artifact IO errors are reported inline, not fatal.
pub fn exp_write_policy_with_artifacts(
    quick: bool,
    root: &std::path::Path,
) -> Result<String, CoreError> {
    let sweep = write_policy_sweep(quick)?;
    let points = sweep.points.clone();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.wb_label.clone(),
                p.wt_sim.to_string(),
                p.wt_wcet.to_string(),
                p.wb_sim.to_string(),
                p.wb_wcet.to_string(),
                format!("{:+.1}%", p.sim_delta_pct()),
                format!("{:+.1}%", p.wcet_delta_pct()),
            ]
        })
        .collect();
    let mut out = format!(
        "Write policies: write-through (paper's machine) vs write-back / store buffer\n{}",
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
        )
    );
    out.push_str(&format!(
        "sound (wcet >= sim) at every point, both policies: {}\n",
        if write_policy_sound(&points) {
            "yes"
        } else {
            "NO — BUG"
        }
    ));
    out.push_str(&format!(
        "replay vs full simulation: bit-identical at every point; \
         {} replayed, {} full-sim fallbacks, {} memo hits; \
         replay sweep {:.3}s vs full-sim sweep {:.3}s ({:.1}x)\n",
        sweep.provenance.replay_points.unwrap_or(0),
        sweep.provenance.full_sim_points.unwrap_or(0),
        sweep.provenance.memo_hits.unwrap_or(0),
        sweep.replay_wall,
        sweep.full_sim_wall,
        sweep.speedup(),
    ));
    // Only full runs refresh the tracked artifact — a --quick smoke run
    // (CI) must not clobber the committed full-axis numbers, mirroring
    // the hierarchy experiment's convention.
    if quick {
        out.push_str("quick axis: BENCH_write_policy.json left untouched\n");
    } else {
        let path = root.join("BENCH_write_policy.json");
        match std::fs::write(
            &path,
            write_policy_json_with_provenance(&points, quick, Some(&sweep.provenance)),
        ) {
            Ok(()) => out.push_str(&format!("wrote {}\n", path.display())),
            Err(e) => out.push_str(&format!("could not write {}: {e}\n", path.display())),
        }
    }
    Ok(out)
}

/// Ablation: MUST-only vs MUST+persistence cache analysis (paper §5:
/// "the full scale of cache analysis techniques … would probably lead to
/// improved cache results").
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_ablation_persistence(quick: bool) -> Result<String, CoreError> {
    let (must, pers) = persistence_ablation_points(quick)?;
    let rows: Vec<Vec<String>> = must
        .iter()
        .zip(&pers)
        .map(|(m, p)| {
            vec![
                m.size.to_string(),
                m.result.wcet_cycles.to_string(),
                p.result.wcet_cycles.to_string(),
                format!(
                    "{:.1}%",
                    (1.0 - p.result.wcet_cycles as f64 / m.result.wcet_cycles as f64) * 100.0
                ),
            ]
        })
        .collect();
    Ok(format!(
        "Ablation: cache WCET, MUST-only vs +persistence (G.721)\n{}",
        report::render_table(&["bytes", "must-only", "+persistence", "gain"], &rows)
    ))
}

/// The G.721 unified-cache sweeps behind [`exp_ablation_persistence`]:
/// MUST-only, then MUST+persistence.
fn persistence_ablation_points(
    quick: bool,
) -> Result<(Vec<SweepPoint>, Vec<SweepPoint>), CoreError> {
    let pipeline = Pipeline::new(&G721)?;
    let szs = sizes(quick);
    Ok((
        cache_sweep_with(&pipeline, szs, false, CacheConfig::unified)?,
        cache_sweep_with(&pipeline, szs, true, CacheConfig::unified)?,
    ))
}

/// Ablation: unified vs instruction-only cache analysis (paper §5 future
/// work: "other cache configurations, e.g. instruction caches instead of
/// unified caches").
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_ablation_icache(quick: bool) -> Result<String, CoreError> {
    let pipeline = Pipeline::new(&G721)?;
    let szs = sizes(quick);
    let unified = cache_sweep_with(&pipeline, szs, false, CacheConfig::unified)?;
    let icache = cache_sweep_with(&pipeline, szs, false, CacheConfig::instr_only)?;
    let rows: Vec<Vec<String>> = unified
        .iter()
        .zip(&icache)
        .map(|(u, i)| {
            vec![
                u.size.to_string(),
                u.result.sim_cycles.to_string(),
                u.result.wcet_cycles.to_string(),
                i.result.sim_cycles.to_string(),
                i.result.wcet_cycles.to_string(),
            ]
        })
        .collect();
    Ok(format!(
        "Ablation: unified vs instruction-only cache (G.721)\n{}",
        report::render_table(
            &["bytes", "uni sim", "uni wcet", "icache sim", "icache wcet"],
            &rows
        )
    ))
}

/// Ablation: associativity and replacement policy (paper §5 future work:
/// "set associative caches").
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_ablation_assoc(quick: bool) -> Result<String, CoreError> {
    let pipeline = Pipeline::new(&G721)?;
    let size = if quick { 1024 } else { 4096 };
    let configs: Vec<(&str, CacheConfig)> = vec![
        ("direct-mapped", CacheConfig::unified(size)),
        (
            "2-way LRU",
            CacheConfig::set_assoc(size, 2, Replacement::Lru),
        ),
        (
            "4-way LRU",
            CacheConfig::set_assoc(size, 4, Replacement::Lru),
        ),
        (
            "4-way random",
            CacheConfig::set_assoc(size, 4, Replacement::Random { seed: 7 }),
        ),
        (
            "4-way round-robin",
            CacheConfig::set_assoc(size, 4, Replacement::RoundRobin),
        ),
    ];
    let specs: Vec<MemArchSpec> = configs
        .iter()
        .map(|(_, cfg)| MemArchSpec::single_cache(cfg.clone()))
        .collect();
    let points = spec_sweep(&pipeline, &specs)?;
    let rows: Vec<Vec<String>> = configs
        .iter()
        .zip(&points)
        .map(|((name, _), p)| {
            vec![
                (*name).to_string(),
                p.result.sim_cycles.to_string(),
                p.result.wcet_cycles.to_string(),
                format!("{:.3}", p.result.ratio()),
            ]
        })
        .collect();
    Ok(format!(
        "Ablation: associativity/replacement at {size} B (G.721)\n{}",
        report::render_table(&["configuration", "sim", "wcet", "ratio"], &rows)
    ))
}

/// Serializes the G.721 (ADPCM for quick runs) baseline's ordered (v2)
/// memory trace in its versioned wire format to `path` — the CI
/// artifact proving the recorded stream decodes and replays. The bytes
/// are round-trip-verified (decode + uncached replay) before writing.
///
/// # Errors
///
/// Pipeline failures; IO errors are reported in the returned text.
pub fn dump_trace(quick: bool, path: &std::path::Path) -> Result<String, CoreError> {
    let bench = if quick { &ADPCM } else { &G721 };
    let pipeline = Pipeline::new(bench)?;
    let bytes = pipeline
        .trace_bytes()
        .expect("the uncached baseline always records a replayable v2 trace");
    let decoded =
        spmlab_sim::MemTrace::from_bytes(&bytes).expect("a freshly serialized trace must decode");
    assert_eq!(decoded.version(), 2, "the recorder emits ordered traces");
    decoded
        .replay(&spmlab::MemHierarchyConfig::uncached())
        .expect("a decoded v2 trace must replay");
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
        let pipeline = Pipeline::new(bench)?;
        let specs: Vec<MemArchSpec> = szs
            .iter()
            .flat_map(|&size| {
                [
                    MemArchSpec::spm(size),
                    MemArchSpec::spm_with(size, SpmAllocation::WcetRegion),
                ]
            })
            .collect();
        let points = spec_sweep(&pipeline, &specs)?;
        for (i, &size) in szs.iter().enumerate() {
            rows.push(vec![
                bench.name.to_string(),
                size.to_string(),
                points[2 * i].result.wcet_cycles.to_string(),
                points[2 * i + 1].result.wcet_cycles.to_string(),
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

/// The SPM×hierarchy scenario parameters: scratchpad capacities and the
/// multi-level machines of [`hierarchy_spm_machines`].
pub fn hierarchy_spm_params(quick: bool) -> (&'static Benchmark, Vec<u32>, u32) {
    if quick {
        (&ADPCM, vec![512], 512)
    } else {
        (&G721, vec![1024, 4096], 1024)
    }
}

/// The SPM×hierarchy comparison data (shared by the report experiment and
/// the claims).
///
/// # Errors
///
/// Pipeline failures.
pub fn hierarchy_spm_figure(quick: bool) -> Result<FigureSpmHierarchy, CoreError> {
    let (bench, spm_sizes, l1) = hierarchy_spm_params(quick);
    FigureSpmHierarchy::run(bench, &spm_sizes, &hierarchy_spm_machines(l1))
}

/// SPM×hierarchy scenario: the first result the composable spec unlocks —
/// scratchpad and multi-level hierarchy in one machine, with the
/// WCET-aware allocator optimising against the multi-level critical path
/// instead of flat region timing.
///
/// # Errors
///
/// Pipeline failures.
pub fn exp_hierarchy_spm(quick: bool) -> Result<String, CoreError> {
    let fig = hierarchy_spm_figure(quick)?;
    let mut out = report::render_spm_hierarchy(&fig);
    out.push_str(&format!(
        "hierarchy-aware wcet <= region-objective wcet at every point: {}\n",
        if fig.aware_never_worse() {
            "yes"
        } else {
            "NO — BUG"
        }
    ));
    out.push_str(&format!(
        "sound (wcet >= sim) at every point: {}\n",
        if fig.all_sound() { "yes" } else { "NO — BUG" }
    ));
    Ok(out)
}

/// Every spec of the standard experiment axes, labelled — the
/// `--dump-spec` inventory. Any line's JSON can be fed back through
/// `--spec` to reproduce that sweep point.
pub fn dump_specs(quick: bool) -> Vec<(String, MemArchSpec)> {
    let szs = sizes(quick);
    let l1 = hierarchy_l1_size(quick);
    let (_, spm_sizes, spm_l1) = hierarchy_spm_params(quick);
    spm_axis(szs)
        .into_iter()
        .chain(cache_axis(szs))
        .chain(hierarchy_spec_axis(l1))
        .chain(hierarchy_spm_axis(
            &spm_sizes,
            &hierarchy_spm_machines(spm_l1),
        ))
        .chain(write_policy_axis(l1))
        .map(|s| (s.label(), s))
        .collect()
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

/// Runs one experiment by id; `all` runs everything in order.
///
/// # Errors
///
/// Unknown ids or pipeline failures.
pub fn run_experiment(id: &str, quick: bool) -> Result<String, CoreError> {
    match id {
        "table1" => Ok(exp_table1()),
        "table2" => exp_table2(),
        "fig3" | "fig3a" | "fig3b" | "fig4" => exp_fig3_fig4(quick),
        "fig5" => exp_fig5(quick),
        "fig6" => exp_fig6(quick),
        "tightness" => exp_tightness(),
        "hierarchy" => exp_hierarchy(quick),
        "hierarchy-spm" => exp_hierarchy_spm(quick),
        "multilevel-precision" => exp_multilevel_precision(quick),
        "write-policy" => exp_write_policy(quick),
        "ablation-persistence" => exp_ablation_persistence(quick),
        "ablation-icache" => exp_ablation_icache(quick),
        "ablation-assoc" => exp_ablation_assoc(quick),
        "ablation-wcet-alloc" => exp_ablation_wcet_alloc(quick),
        other => Err(CoreError::Cc(spmlab_cc::CcError::Sema {
            pos: spmlab_cc::Pos::default(),
            msg: format!("unknown experiment `{other}`"),
        })),
    }
}

/// The workspace root (where the tracked bench artifacts live).
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
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

/// Spot checks of the paper's qualitative claims, used by tests and the
/// `verify` subcommand. Returns a list of `(claim, holds)` pairs.
///
/// # Errors
///
/// Pipeline failures.
pub fn verify_claims(quick: bool) -> Result<Vec<(String, bool)>, CoreError> {
    let szs = sizes(quick);
    let mut claims = Vec::new();
    let fig = Figure3::run(&G721, szs)?;
    let (spm_r, cache_r) = fig.ratio_series();

    // Claim 1: scratchpad WCET decreases as capacity grows.
    let spm_wcets: Vec<u64> = fig.spm.iter().map(|p| p.result.wcet_cycles).collect();
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
    let cache_wcets: Vec<u64> = fig.cache.iter().map(|p| p.result.wcet_cycles).collect();
    let cache_sims: Vec<u64> = fig.cache.iter().map(|p| p.result.sim_cycles).collect();
    let wmax = *cache_wcets.iter().max().unwrap() as f64;
    let wmin = *cache_wcets.iter().min().unwrap() as f64;
    let sim_drop = cache_sims[0] as f64 / *cache_sims.last().unwrap() as f64;
    let spm_worst_wcet = fig.spm.iter().map(|p| p.result.wcet_cycles).max().unwrap();
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
        .all(|(s, c)| s.result.wcet_cycles <= c.result.wcet_cycles);
    claims.push((
        "G.721: scratchpad WCET ≤ cache WCET at every size".into(),
        spm_beats,
    ));
    // Claim 6: soundness everywhere.
    let sound = fig
        .spm
        .iter()
        .chain(&fig.cache)
        .all(|p| p.result.wcet_cycles >= p.result.sim_cycles);
    claims.push(("G.721: WCET ≥ simulation at every point".into(), sound));

    // Claim 7 (beyond the paper): the invariant extends to multi-level
    // hierarchies, and the scratchpad bound stays tighter than every
    // cached configuration's.
    let hier = hierarchy_figure(quick)?;
    claims.push((
        "hierarchy: WCET ≥ simulation at every configuration".into(),
        hier.all_sound(),
    ));
    let spm_ratio = hier
        .spm
        .iter()
        .map(|p| p.table1.ratio())
        .fold(f64::MIN, f64::max);
    let cached_best = hier
        .points
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
    let spm_hier = hierarchy_spm_figure(quick)?;
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
    let wp = write_policy_points(quick)?;
    claims.push((
        "write-policy: WCET ≥ simulation at every write-through AND write-back point".into(),
        write_policy_sound(&wp),
    ));

    // Claim 12 (the persistence ablation): first-miss persistence only
    // ever tightens the MUST-only bound, and stays sound.
    let (must, pers) = persistence_ablation_points(quick)?;
    claims.push((
        "ablation-persistence: +persistence ≤ MUST-only and ≥ sim at every size".into(),
        must.iter().zip(&pers).all(|(m, p)| {
            p.result.wcet_cycles <= m.result.wcet_cycles
                && p.result.wcet_cycles >= p.result.sim_cycles
        }),
    ));

    Ok(claims)
}
