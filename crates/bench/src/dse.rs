//! CLI surface of the design-space-exploration engine: `experiments
//! sweep` runs one shard of a grid, `experiments merge-shards`
//! reassembles shard streams into one run and reports its Pareto
//! frontier.
//!
//! A shard run is an ordinary checkpointed sweep (the PR 7 engine) over
//! the shard's stride of the grid axis; `--checkpoint <dir>` places each
//! stream at `<dir>/shard-<k>-of-<n>.jsonl` and resumes it when the file
//! already exists ([`SweepSession::open`]), so a retry loop needs no
//! extra flags. `--dry-run`
//! prints the enumerated grid size, what dedup collapsed, and every
//! shard's point count without building a pipeline — the guard between a
//! typo and a million-point launch.

use crate::git_revision;
use spmlab::dse::{merge_texts, shard_header, GridSpec, MergedSweep, Shard};
use spmlab::sweep::{spec_sweep_with_session, SpecOutcome, SweepSession};
use spmlab::{CoreError, MemArchSpec};
use spmlab_workloads::Benchmark;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The built-in benchmark a grid is evaluated on.
///
/// # Errors
///
/// The grid names no built-in benchmark.
pub fn grid_benchmark(grid: &GridSpec) -> Result<&'static Benchmark, String> {
    spmlab_workloads::benchmark(&grid.benchmark)
        .ok_or_else(|| format!("unknown benchmark `{}`", grid.benchmark))
}

/// Measures `shard` of `axis` on `bench` under `session`: the one sweep
/// path behind `experiments sweep` and every grid figure.
///
/// # Errors
///
/// Pipeline construction and checkpoint failures; failed points are
/// outcomes, not errors.
pub fn sweep_axis(
    bench: &Benchmark,
    axis: &[MemArchSpec],
    shard: Shard,
    session: &SweepSession,
) -> Result<Vec<SpecOutcome>, CoreError> {
    let _span = spmlab_obs::span_with("dse_shard", || shard.to_string());
    let pipeline = spmlab::pipeline::Pipeline::new(bench)?;
    spec_sweep_with_session(&pipeline, &shard.take(axis), session)
}

/// Runs (or dry-runs) one shard of the grid in `grid_json`.
///
/// # Errors
///
/// A rendered description: grid parse/validation failures, an unknown
/// benchmark, pipeline construction errors, checkpoint I/O failures.
pub fn run_sweep(
    grid_json: &str,
    shard: Shard,
    checkpoint_dir: Option<&Path>,
    dry_run: bool,
) -> Result<String, String> {
    let started = std::time::Instant::now();
    let grid = GridSpec::from_json(grid_json)?;
    let (axis, stats) = grid.axis()?;
    if spmlab_obs::enabled() {
        spmlab_obs::counter("dse_grid_raw", stats.raw as u64);
        spmlab_obs::counter("dse_grid_points", stats.points as u64);
        spmlab_obs::counter("dse_shard_points", shard.points(axis.len()) as u64);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "grid `{}`: {} raw points -> {} invalid skipped, {} duplicates collapsed, \
         {} distinct points",
        grid.benchmark, stats.raw, stats.invalid, stats.duplicates, stats.points
    );
    if dry_run {
        for k in 0..shard.count {
            let s = Shard {
                index: k,
                count: shard.count,
            };
            let _ = writeln!(out, "  shard {s}: {} points", s.points(axis.len()));
        }
        let _ = writeln!(out, "dry run: nothing measured");
        return Ok(out);
    }

    let bench = grid_benchmark(&grid)?;
    let header = shard_header(&git_revision(), &grid.benchmark, &axis, shard);
    let (session, ckpt_path) = match checkpoint_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("shard-{}-of-{}.jsonl", shard.index, shard.count));
            let session = SweepSession::open(&path, &header).map_err(|e| e.to_string())?;
            (session, Some(path))
        }
        None => (SweepSession::none(), None),
    };

    let resumed = session.resumed_points();
    let outcomes = sweep_axis(bench, &axis, shard, &session).map_err(|e| e.to_string())?;

    let ok = outcomes
        .iter()
        .filter(|o| o.outcome.result().is_some() && !o.outcome.is_degraded())
        .count();
    let degraded = outcomes.iter().filter(|o| o.outcome.is_degraded()).count();
    let failed = outcomes.iter().filter(|o| o.outcome.is_failed()).count();
    let secs = started.elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "shard {shard}: {} points ({resumed} resumed) -> {ok} ok, {degraded} degraded, \
         {failed} failed in {secs:.1}s ({:.2} points/s)",
        outcomes.len(),
        outcomes.len() as f64 / secs.max(1e-9),
    );
    if let Some(path) = ckpt_path {
        let _ = writeln!(out, "checkpoint stream: {}", path.display());
    }
    if failed > 0 {
        let _ = writeln!(
            out,
            "WARNING: {failed} failed points are recorded in the stream; resume re-runs them"
        );
    }
    Ok(out)
}

/// Merges shard streams into `out_path` and reports coverage, soundness,
/// and the Pareto frontier. The boolean is the CI gate: `true` only when
/// the merged run covers every point without failures, the frontier is
/// non-empty, and the WCET bound is sound (`sim <= bound`) at every
/// frontier point.
///
/// # Errors
///
/// Unreadable inputs, inconsistent streams (see
/// [`merge_texts`]), or an unwritable output path.
pub fn run_merge(out_path: &Path, inputs: &[PathBuf]) -> Result<(String, bool), String> {
    let mut texts = Vec::with_capacity(inputs.len());
    for path in inputs {
        texts.push(std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let merged = merge_texts(&refs)?;
    std::fs::write(out_path, merged.to_jsonl())
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    let (report, ok) = merge_report(&merged, inputs.len());
    if spmlab_obs::enabled() {
        spmlab_obs::counter("dse_merge_streams", inputs.len() as u64);
        spmlab_obs::counter("dse_frontier_points", merged.frontier().len() as u64);
    }
    Ok((
        format!("merged stream: {}\n{report}", out_path.display()),
        ok,
    ))
}

/// The human-readable merge report plus the pass/fail verdict.
pub fn merge_report(merged: &MergedSweep, streams: usize) -> (String, bool) {
    let frontier = merged.frontier();
    let covered = merged.covered();
    let failed = merged.failed();
    let complete = covered == merged.header.points && failed == 0;
    let unsound: Vec<&spmlab::FrontierPoint> = frontier
        .points()
        .iter()
        .filter(|p| p.wcet_cycles < p.sim_cycles)
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} stream(s) -> rev {} benchmark `{}`: {covered}/{} points covered, {failed} failed",
        streams, merged.header.rev, merged.header.benchmark, merged.header.points
    );
    let _ = writeln!(
        out,
        "pareto frontier: {} of {covered} covered points",
        frontier.len()
    );
    out.push_str(&frontier.render());
    let ok = complete && !frontier.is_empty() && unsound.is_empty();
    if !complete {
        let _ = writeln!(out, "INCOMPLETE: resume the missing shards and re-merge");
    }
    if frontier.is_empty() {
        let _ = writeln!(out, "EMPTY FRONTIER: no completed points");
    }
    for p in &unsound {
        let _ = writeln!(
            out,
            "UNSOUND: point {} ({}) simulates {} cycles above its bound {}",
            p.index, p.label, p.sim_cycles, p.wcet_cycles
        );
    }
    if ok {
        let _ = writeln!(
            out,
            "OK: frontier non-empty, sim <= bound at every frontier point"
        );
    }
    (out, ok)
}
