//! The timed run: the end-to-end metrics, measured with no `spmlab-obs`
//! sink installed so the sweep executor runs on every available thread.
//!
//! One pass builds a fresh [`Pipeline`] per program (set-up), then sweeps
//! every program over the workload's grid with checkpoint streaming, and
//! reassembles each stream into its DSE result and Pareto frontier. Fresh
//! pipelines matter: their allocation and link memos would make a repeated
//! sweep nearly free. Passes repeat until the run's time is used; the
//! host-time metrics are sums of per-program medians over passes, the
//! modelled-design metrics must repeat exactly on every pass.

use crate::stats::{geomean, Summary};
use crate::workloads::Workload;
use spmlab::dse::{merge_texts, shard_header, Shard};
use spmlab::pipeline::Pipeline;
use spmlab::sweep::{spec_sweep_with_session, SweepSession};
use spmlab::MemArchSpec;
use spmlab_workloads::Benchmark;
use std::path::Path;
use std::time::Instant;

/// Set-up repetitions a run makes at least, so `setup_s` is a median even
/// when a pass is long.
const MIN_SETUPS: usize = 11;
/// Sweep passes a run makes at least.
const MIN_PASSES: usize = 3;

/// One measured point, reduced to what the checks and metrics read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointFigures {
    /// Simulated cycles.
    pub sim: u64,
    /// WCET bound in cycles.
    pub wcet: u64,
}

/// Everything the timed run reports.
#[derive(Debug)]
pub struct TimedRun {
    /// Points attempted over all passes.
    pub attempted: u64,
    /// Points that failed or broke a check, over all passes.
    pub failed: u64,
    /// Check violations, rendered (empty when every check passed).
    pub problems: Vec<String>,
    /// Sweep passes made.
    pub passes: usize,
    /// Points per host second: all points of a pass over the sum of the
    /// per-program median sweep times.
    pub points_per_s: f64,
    /// Per-pass throughput, for the spread inside the run.
    pub pass_rates: Summary,
    /// Set-up host seconds: the sum of the per-program median
    /// `Pipeline::new` times.
    pub setup_s: f64,
    /// Per-repetition set-up totals, for the spread inside the run.
    pub setup_totals: Summary,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
    /// Share of attempted points that completed and were sound.
    pub ok_frac: f64,
    /// Geometric mean of WCET/sim over the first pass's points.
    pub bound_ratio_geomean: f64,
    /// Largest WCET/sim over the first pass's points.
    pub bound_ratio_max: f64,
    /// Geometric mean of simulated cycles over the first pass's points.
    pub sim_cycles_geomean: f64,
}

/// Builds one pipeline per program; also returns each one's host seconds.
pub fn setup(programs: &[Benchmark]) -> Result<(Vec<Pipeline>, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(programs.len());
    let pipelines = programs
        .iter()
        .map(|b| {
            let t = Instant::now();
            let p = Pipeline::new(b).map_err(|e| format!("{}: set-up: {e}", b.name))?;
            seconds.push(t.elapsed().as_secs_f64());
            Ok(p)
        })
        .collect::<Result<_, String>>()?;
    Ok((pipelines, seconds))
}

/// One sweep pass over every program.
pub struct SweepPass {
    /// Per program, the points in axis order (`None` for a failed point).
    pub figures: Vec<Vec<Option<PointFigures>>>,
    /// Per program, host seconds of its sweep, merge and frontier.
    pub seconds: Vec<f64>,
    /// Stream-level check violations.
    pub problems: Vec<String>,
}

/// Sweeps every pipeline over `axis` with checkpoint streaming into
/// `dir`, then merges each stream and takes its frontier — the DSE result
/// a user waits for.
pub fn sweep_all(
    pipelines: &[Pipeline],
    axis: &[MemArchSpec],
    dir: &Path,
    rev: &str,
) -> Result<SweepPass, String> {
    let mut figures = Vec::with_capacity(pipelines.len());
    let mut seconds = Vec::with_capacity(pipelines.len());
    let mut problems = Vec::new();
    for (k, p) in pipelines.iter().enumerate() {
        let t = Instant::now();
        let name = p.benchmark().name.to_string();
        let path = dir.join(format!("program-{k}.jsonl"));
        let header = shard_header(rev, &name, axis, Shard::single());
        let session = SweepSession::checkpoint_to(&path, &header).map_err(|e| e.to_string())?;
        let outcomes = spec_sweep_with_session(p, axis, &session).map_err(|e| e.to_string())?;
        drop(session);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let merged = merge_texts(&[&text]).map_err(|e| format!("{name}: merge: {e}"))?;
        let frontier = merged.frontier();
        seconds.push(t.elapsed().as_secs_f64());
        if merged.covered() != axis.len() || merged.failed() != 0 {
            problems.push(format!(
                "{name}: stream covers {} of {} points with {} failed",
                merged.covered(),
                axis.len(),
                merged.failed()
            ));
        }
        if frontier.is_empty() {
            problems.push(format!("{name}: empty Pareto frontier"));
        }
        figures.push(
            outcomes
                .iter()
                .map(|o| {
                    o.outcome.result().map(|r| PointFigures {
                        sim: r.sim_cycles,
                        wcet: r.wcet_cycles,
                    })
                })
                .collect(),
        );
    }
    Ok(SweepPass {
        figures,
        seconds,
        problems,
    })
}

/// Host time of the whole workload from per-program medians: the sum over
/// programs of each program's median. A stall of the host lands in one
/// program's sample and leaves the others' medians alone, so this is
/// steadier than the median of whole-pass totals when passes are few.
fn sum_of_medians(per_program: &[Vec<f64>]) -> f64 {
    per_program.iter().map(|s| Summary::of(s).median).sum()
}

/// Appends one sample per program to `per_program`.
fn push_samples(per_program: &mut [Vec<f64>], samples: &[f64]) {
    for (acc, s) in per_program.iter_mut().zip(samples) {
        acc.push(*s);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| String::from("/proc/self/status has no VmHWM line"))
}

/// Runs `workload` for at least `seconds` of sweep passes.
pub fn run(
    workload: Workload,
    programs: &[Benchmark],
    seconds: f64,
    dir: &Path,
    rev: &str,
) -> Result<TimedRun, String> {
    let axis = workload.axis();
    let names: Vec<&str> = programs.iter().map(|b| b.name.as_ref()).collect();

    let n = programs.len();
    let points = (n * axis.len()) as f64;
    let mut setup_times = vec![Vec::new(); n];
    let mut sweep_times = vec![Vec::new(); n];
    let mut setup_totals = Vec::new();
    let mut rate_samples = Vec::new();
    let mut reference: Option<Vec<Vec<Option<PointFigures>>>> = None;
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Warm-up: lazy allocations and page faults of the first set-up stay
    // out of the samples.
    drop(setup(programs)?.0);
    let started = Instant::now();
    while rate_samples.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let (pipelines, secs) = setup(programs)?;
        push_samples(&mut setup_times, &secs);
        setup_totals.push(secs.iter().sum());

        let SweepPass {
            figures,
            seconds,
            problems: stream_problems,
        } = sweep_all(&pipelines, &axis, dir, rev)?;
        drop(pipelines);
        push_samples(&mut sweep_times, &seconds);
        rate_samples.push(points / seconds.iter().sum::<f64>());

        let pass = rate_samples.len();
        problems.extend(
            stream_problems
                .into_iter()
                .map(|p| format!("pass {pass}: {p}")),
        );
        for (k, per_program) in figures.iter().enumerate() {
            for (i, point) in per_program.iter().enumerate() {
                attempted += 1;
                let bad = match point {
                    None => Some(String::from("failed")),
                    Some(f) if f.sim > f.wcet => {
                        Some(format!("unsound: sim {} > wcet {}", f.sim, f.wcet))
                    }
                    Some(_) => None,
                };
                if let Some(why) = bad {
                    failed += 1;
                    problems.push(format!(
                        "pass {pass}: {} point {i} ({}): {why}",
                        names[k],
                        axis[i].label()
                    ));
                }
            }
        }
        match &reference {
            None => reference = Some(figures),
            Some(first) if *first != figures => problems.push(format!(
                "pass {pass}: simulated or WCET cycles differ from pass 1"
            )),
            Some(_) => {}
        }
    }
    while setup_totals.len() < MIN_SETUPS {
        let secs = setup(programs)?.1;
        push_samples(&mut setup_times, &secs);
        setup_totals.push(secs.iter().sum());
    }

    let first: Vec<PointFigures> = reference
        .expect("at least one pass ran")
        .into_iter()
        .flatten()
        .flatten()
        .collect();
    let ratios = || first.iter().map(|f| f.wcet as f64 / f.sim as f64);
    Ok(TimedRun {
        attempted,
        failed,
        problems,
        passes: rate_samples.len(),
        points_per_s: points / sum_of_medians(&sweep_times),
        pass_rates: Summary::of(&rate_samples),
        setup_s: sum_of_medians(&setup_times),
        setup_totals: Summary::of(&setup_totals),
        peak_rss_mb: peak_rss_mb()?,
        ok_frac: (attempted - failed) as f64 / attempted as f64,
        bound_ratio_geomean: geomean(ratios()),
        bound_ratio_max: ratios().fold(0.0, f64::max),
        sim_cycles_geomean: geomean(first.iter().map(|f| f.sim as f64)),
    })
}
