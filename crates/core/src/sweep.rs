//! Configuration sweeps over memory-architecture specs.
//!
//! [`spec_sweep_with_session`] is the engine and the one entry point: it
//! takes any `Vec<MemArchSpec>` axis, plans which points share a
//! measurement and which form one executor unit (`plan::SweepPlan`), and
//! fans the plan's units out across worker threads
//! (`std::thread::scope` — every point only reads the shared
//! [`Pipeline`]). A unit's points share the trace tallies and cache
//! classifications of the links they land on. Points share a
//! measurement by equality only: the memo keys on the spec's **canonical
//! form** (so equal-after-validation specs — e.g. zero-size disabled
//! levels — share one measurement) with an idle store buffer dropped
//! (one that no store reaches behind an absorbing write-back level).
//!
//! Every sweep in the workspace — the paper's capacity figures, the
//! hierarchy figure, the ablations, DSE shards — builds its axis from
//! [`crate::config`] (or a [`crate::dse::GridSpec`]) and runs it through
//! [`spec_sweep_with_session`], with [`SweepSession::none`] when nothing
//! is checkpointed.
//!
//! ## Fault isolation and resume
//!
//! Every point runs under `catch_unwind`: a panic or typed error in one
//! point becomes a [`PointOutcome::Failed`] outcome for that point (and its
//! memo-sharing dependents) while the rest of the axis completes. A
//! figure that needs every point turns the first failed one into its
//! error ([`PointOutcome::measured`]). A [`SweepSession`] additionally
//! streams one JSONL [`PointRecord`] per point — the point's own
//! [`PointOutcome`] — to a checkpoint file and, on resume, replays only
//! the missing points, reusing stored results bit-identically.

use crate::checkpoint::{ckpt_err, spec_hash, CheckpointHeader, CheckpointWriter, PointRecord};
use crate::dse::executor::execute;
use crate::pipeline::{ConfigResult, Pipeline, Slots};
use crate::plan::{Rep, SweepPlan};
use crate::CoreError;
use spmlab_isa::archspec::MemArchSpec;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A sweep point that failed — contained, reported, never silently
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedPoint {
    /// Index within the swept axis.
    pub index: usize,
    /// Configuration label of the failed point.
    pub label: String,
    /// Rendered failure cause.
    pub error: String,
    /// `true` when the failure was a contained panic rather than a typed
    /// error.
    pub panicked: bool,
}

impl std::fmt::Display for FailedPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.panicked { "panicked" } else { "failed" };
        write!(
            f,
            "point {} ({}) {kind}: {}",
            self.index, self.label, self.error
        )
    }
}

/// Per-point result of a fault-isolated sweep — what a checkpoint record
/// stores and a figure reads.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// Measured; [`ConfigResult::degraded`] is set when a WCET fixpoint
    /// hit its structural iteration cap (the bound is widened but still
    /// sound).
    Measured(ConfigResult),
    /// The point failed; the error (or contained panic) is reported here
    /// instead of aborting the sweep.
    Failed(FailedPoint),
}

impl PointOutcome {
    /// The measurement, for measured points.
    pub fn result(&self) -> Option<&ConfigResult> {
        match self {
            PointOutcome::Measured(r) => Some(r),
            PointOutcome::Failed(_) => None,
        }
    }

    /// The failure report, for failed points.
    pub fn failure(&self) -> Option<&FailedPoint> {
        match self {
            PointOutcome::Failed(fp) => Some(fp),
            PointOutcome::Measured(_) => None,
        }
    }

    /// The measurement of a figure that needs every point: a failed
    /// point is the figure's error.
    ///
    /// # Errors
    ///
    /// [`CoreError::Point`] carrying the failure, for failed points.
    pub fn measured(&self) -> Result<&ConfigResult, CoreError> {
        match self {
            PointOutcome::Measured(r) => Ok(r),
            PointOutcome::Failed(fp) => Err(CoreError::Point(fp.clone())),
        }
    }

    /// Whether this point was measured with a widened (degraded) bound.
    pub fn is_degraded(&self) -> bool {
        self.result().is_some_and(|r| r.degraded)
    }

    /// Whether this point failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, PointOutcome::Failed(_))
    }
}

/// One spec point of a fault-isolated sweep.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// The spec of this axis point.
    pub spec: MemArchSpec,
    /// What happened to it.
    pub outcome: PointOutcome,
}

/// Checkpointing/resume context for one sweep. [`SweepSession::none`] runs
/// without persistence; [`SweepSession::checkpoint_to`] streams one record
/// per completed point; [`SweepSession::resume_from`] additionally replays
/// the completed points of an interrupted run; [`SweepSession::open`]
/// picks between the last two by what is on disk.
#[derive(Debug)]
pub struct SweepSession {
    writer: Option<Mutex<CheckpointWriter>>,
    resumed: BTreeMap<usize, PointRecord>,
}

impl SweepSession {
    /// No checkpointing, no resume.
    pub fn none() -> SweepSession {
        SweepSession {
            writer: None,
            resumed: BTreeMap::new(),
        }
    }

    /// Starts a fresh checkpoint at `path` (truncating any existing file)
    /// and streams one record per completed point into it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] when the file cannot be created.
    pub fn checkpoint_to(
        path: &Path,
        header: &CheckpointHeader,
    ) -> Result<SweepSession, CoreError> {
        Ok(SweepSession {
            writer: Some(Mutex::new(CheckpointWriter::create(path, header)?)),
            resumed: BTreeMap::new(),
        })
    }

    /// Resumes from an existing checkpoint: validates that its header
    /// matches `expected` exactly (git revision, benchmark, spec-axis hash,
    /// point count), loads the completed points for reuse, and opens the
    /// file for appending (truncating a partial final line first). `Failed`
    /// records are *not* reused — those points re-run.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on I/O failure, corruption, or a header
    /// mismatch (the file belongs to a different run — delete it to
    /// restart from scratch).
    pub fn resume_from(
        path: &Path,
        expected: &CheckpointHeader,
    ) -> Result<SweepSession, CoreError> {
        let file = crate::checkpoint::read_checkpoint(path)?;
        if file.header != *expected {
            return Err(CoreError::Checkpoint(format!(
                "{}: header mismatch — file was written by rev {} for `{}` \
                 ({} points, axis {}), this run is rev {} for `{}` ({} points, \
                 axis {}); delete the checkpoint to restart from scratch",
                path.display(),
                file.header.rev,
                file.header.benchmark,
                file.header.points,
                file.header.axis_hash,
                expected.rev,
                expected.benchmark,
                expected.points,
                expected.axis_hash,
            )));
        }
        let resumed = file
            .records
            .into_iter()
            .filter(|(_, r)| !r.outcome.is_failed())
            .collect();
        let writer = CheckpointWriter::append(path)?;
        Ok(SweepSession {
            writer: Some(Mutex::new(writer)),
            resumed,
        })
    }

    /// Opens the checkpoint at `path` for this run: resumes it (see
    /// [`SweepSession::resume_from`]) when the file holds anything beyond
    /// a prefix of this run's header line, and starts it fresh (see
    /// [`SweepSession::checkpoint_to`]) otherwise — when the file is
    /// missing, empty, or holds the torn header a kill during creation
    /// leaves behind. Any other content goes through the resume checks,
    /// so a file that is not this run's checkpoint is never overwritten.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on I/O failure, corruption, or a header
    /// mismatch.
    pub fn open(path: &Path, header: &CheckpointHeader) -> Result<SweepSession, CoreError> {
        let fresh = match std::fs::read(path) {
            Ok(bytes) => format!("{}\n", header.to_json_line())
                .as_bytes()
                .starts_with(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(e) => return Err(ckpt_err(path, e)),
        };
        if fresh {
            SweepSession::checkpoint_to(path, header)
        } else {
            SweepSession::resume_from(path, header)
        }
    }

    /// How many completed points were loaded for reuse.
    pub fn resumed_points(&self) -> usize {
        self.resumed.len()
    }

    fn write(
        &self,
        index: usize,
        spec_hash: &str,
        outcome: &PointOutcome,
    ) -> Result<(), CoreError> {
        if let Some(w) = &self.writer {
            w.lock()
                .unwrap_or_else(|p| p.into_inner())
                .write_record(index, spec_hash, outcome)?;
        }
        Ok(())
    }
}

/// Renders a caught panic payload (the `&str`/`String` forms `panic!`
/// produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("panic with non-string payload")
    }
}

/// The fault-isolated sweep engine: runs one spec per point of `specs`,
/// one measurement per *distinct effective* configuration fanned out
/// across scoped threads, each point still getting its own label and
/// capacity-dependent energy figure. Every point is contained: invalid
/// specs, typed pipeline errors, and panics all become
/// [`PointOutcome::Failed`] entries for the affected points while the rest
/// of the axis completes. When `session` checkpoints, one record per
/// completed point is streamed (and flushed) the moment it finishes; when
/// it resumes, stored points are reused bit-identically and only the
/// missing ones are measured.
///
/// The sweep executes a plan made before anything is measured
/// (`plan::SweepPlan`): which points share one measurement, and which
/// form one executor unit, the representatives of one scratchpad
/// capacity and cache geometry. Units run in parallel, each measured in
/// turn by one worker, whose members share a link's latency-0 trace
/// tally and cache classification whenever they land on one link
/// (`Pipeline::measure_spec`). Fault points, `catch_unwind` and
/// checkpoint records stay per point, so a failure fails exactly the
/// points that depend on it.
///
/// The raw checkpoint stream is in *completion* order, flushed per
/// point; it differs between runs and thread counts. Byte equality of
/// sweep streams is defined on the merged normal form
/// ([`merge_texts`](crate::dse::merge_texts)), which sorts records by
/// global index.
///
/// # Errors
///
/// [`CoreError::Checkpoint`] when checkpoint I/O fails or a resumed record
/// does not match this axis. Per-point failures are *not* errors here —
/// they are `Failed` outcomes.
pub fn spec_sweep_with_session(
    pipeline: &Pipeline,
    specs: &[MemArchSpec],
    session: &SweepSession,
) -> Result<Vec<SpecOutcome>, CoreError> {
    let _sweep = spmlab_obs::span("sweep");
    let n = specs.len();
    let canons: Vec<MemArchSpec> = specs.iter().map(MemArchSpec::canonical).collect();
    let hashes: Vec<String> = canons.iter().map(spec_hash).collect();
    let mut slots: Vec<Option<PointOutcome>> = (0..n).map(|_| None).collect();

    // Per-point validation: an invalid spec fails its own point only.
    for (i, spec) in specs.iter().enumerate() {
        if let Err(e) = spec.validate() {
            let failed = PointOutcome::Failed(FailedPoint {
                index: i,
                label: spec.label(),
                error: CoreError::Spec(e).to_string(),
                panicked: false,
            });
            session.write(i, &hashes[i], &failed)?;
            slots[i] = Some(failed);
        }
    }

    // Resume reuse: completed records short-circuit their points, after a
    // per-point hash cross-check (the header check already matched the
    // axis as a whole; this guards individual records).
    let mut reused = 0u64;
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        if let Some(rec) = session.resumed.get(&i) {
            if rec.spec_hash != hashes[i] {
                return Err(CoreError::Checkpoint(format!(
                    "resume: point {i} was checkpointed for spec {} but this \
                     axis has {} — delete the checkpoint to restart",
                    rec.spec_hash, hashes[i]
                )));
            }
            reused += 1;
            *slot = Some(rec.outcome.clone());
        }
    }

    // The sharing plan over the points that still need measuring.
    let pending: Vec<_> = canons
        .iter()
        .enumerate()
        .filter(|(i, _)| slots[*i].is_none())
        .collect();
    let plan = SweepPlan::build(pipeline, &pending);
    let measured: usize = plan.units.iter().map(Vec::len).sum();
    if spmlab_obs::enabled() {
        spmlab_obs::counter("sweep_points", n as u64);
        spmlab_obs::counter("sweep_memo_miss", measured as u64);
        spmlab_obs::counter("sweep_memo_hit", (pending.len() - measured) as u64);
        spmlab_obs::counter("sweep_resume_reused", reused);
    }

    let start_ns = spmlab_obs::now_ns();
    let measured_count = AtomicUsize::new(0);
    // Checkpoint I/O failures inside workers are remembered (first one
    // wins) and surfaced after the scope — they must not tear down
    // in-flight measurements.
    let write_err: Mutex<Option<CoreError>> = Mutex::new(None);
    let measure_rep = |rep: &Rep, slots: &mut Slots| -> Vec<(usize, PointOutcome)> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let m = pipeline.measure_spec(rep, slots)?;
            let package = |&i: &usize| pipeline.package_spec(&specs[i], &m);
            Ok::<Vec<ConfigResult>, CoreError>(rep.points.iter().map(package).collect())
        }));
        let results = match attempt {
            Ok(Ok(results)) => Ok(results),
            Ok(Err(e)) => Err((e.to_string(), false)),
            Err(payload) => Err((panic_message(payload.as_ref()), true)),
        };
        let batch: Vec<(usize, PointOutcome)> = match results {
            Ok(results) => {
                let outcomes = results.into_iter().map(PointOutcome::Measured);
                rep.points.iter().copied().zip(outcomes).collect()
            }
            Err((error, panicked)) => rep
                .points
                .iter()
                .map(|&i| {
                    let label = specs[i].label();
                    let error = error.clone();
                    (
                        i,
                        PointOutcome::Failed(FailedPoint {
                            index: i,
                            label,
                            error,
                            panicked,
                        }),
                    )
                })
                .collect(),
        };
        for (i, outcome) in &batch {
            if let Err(e) = session.write(*i, &hashes[*i], outcome) {
                let mut slot = write_err.lock().unwrap_or_else(|p| p.into_inner());
                slot.get_or_insert(e);
                break;
            }
        }
        if spmlab_obs::enabled() {
            let done = measured_count.fetch_add(1, Ordering::Relaxed) as u64 + 1;
            let secs = (spmlab_obs::now_ns() - start_ns) as f64 / 1e9;
            let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
            spmlab_obs::progress(done, measured as u64, &format!("{rate:.2} points/s"));
        }
        batch
    };
    let batches: Vec<Vec<(usize, PointOutcome)>> = execute(plan.units.len(), |u| {
        let mut slots = Slots::default();
        plan.units[u]
            .iter()
            .flat_map(|rep| measure_rep(rep, &mut slots))
            .collect()
    });
    if let Some(e) = write_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    for batch in batches {
        for (i, outcome) in batch {
            slots[i] = Some(outcome);
        }
    }

    let outcomes: Vec<SpecOutcome> = specs
        .iter()
        .zip(slots)
        .map(|(spec, slot)| SpecOutcome {
            spec: spec.clone(),
            outcome: slot.expect("every sweep point resolves to an outcome"),
        })
        .collect();
    if spmlab_obs::enabled() {
        let failed = outcomes.iter().filter(|o| o.outcome.is_failed()).count();
        let degraded = outcomes.iter().filter(|o| o.outcome.is_degraded()).count();
        spmlab_obs::counter("sweep_point_failed", failed as u64);
        spmlab_obs::counter("sweep_point_degraded", degraded as u64);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_isa::cachecfg::CacheConfig;
    use spmlab_isa::hierarchy::MemHierarchyConfig;
    use spmlab_workloads::INSERTSORT;

    /// The measurements of an uncheckpointed sweep in axis order; every
    /// point must measure.
    fn measure(p: &Pipeline, specs: &[MemArchSpec]) -> Vec<ConfigResult> {
        spec_sweep_with_session(p, specs, &SweepSession::none())
            .unwrap()
            .iter()
            .map(|o| o.outcome.measured().unwrap().clone())
            .collect()
    }

    #[test]
    fn sweeps_cover_requested_sizes() {
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let sizes = [64, 256];
        let spm = measure(&p, &crate::config::spm_axis(&sizes));
        assert_eq!(spm.len(), 2);
        assert_eq!(spm[0].label, MemArchSpec::spm(64).label());
        let cache = measure(&p, &crate::config::cache_axis(&sizes));
        assert_eq!(cache.len(), 2);
        assert!(spm.iter().all(|r| r.ratio() >= 1.0));
    }

    #[test]
    fn hierarchy_sweep_matches_individual_runs() {
        // Memoised + parallel sweep results must equal point-by-point
        // sequential runs exactly.
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let configs = vec![
            MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048)),
            // A second L2 capacity that may or may not be effectively
            // identical — either way the results must match a direct run.
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(8192)),
        ];
        let specs: Vec<MemArchSpec> = configs.iter().map(MemArchSpec::from_hierarchy).collect();
        let swept = measure(&p, &specs);
        for (r, h) in swept.iter().zip(&configs) {
            let direct = p.run(&MemArchSpec::from_hierarchy(h)).unwrap();
            assert_eq!(r.sim_cycles, direct.sim_cycles, "{}", direct.label);
            assert_eq!(r.wcet_cycles, direct.wcet_cycles, "{}", direct.label);
            assert_eq!(r.label, direct.label);
            assert!((r.energy_nj - direct.energy_nj).abs() < 1e-9);
        }
    }

    #[test]
    fn mixed_spec_axis_sweeps_in_one_call() {
        // The point of the redesign: scratchpad, cache and hierarchy
        // points enumerate as one Vec<MemArchSpec> axis.
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let specs = vec![
            MemArchSpec::uncached(),
            MemArchSpec::spm(256),
            MemArchSpec::single_cache(CacheConfig::unified(256)),
            MemArchSpec::from_hierarchy(
                &MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024)),
            ),
        ];
        let points = measure(&p, &specs);
        assert_eq!(points.len(), 4);
        for (r, spec) in points.iter().zip(&specs) {
            assert!(r.wcet_cycles >= r.sim_cycles, "{}", r.label);
            let direct = p.run(spec).unwrap();
            assert_eq!(r.sim_cycles, direct.sim_cycles);
            assert_eq!(r.wcet_cycles, direct.wcet_cycles);
        }
    }

    #[test]
    fn write_back_hierarchy_sweep_matches_individual_runs() {
        // The memoised + replayed sweep must equal point-by-point direct
        // runs on write-policy-dependent machines too — this exercises
        // the ordered-trace replay end to end, on write-back levels too
        // large to conflict as well as on small ones.
        use spmlab_isa::hierarchy::StoreBuffer;
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let configs = vec![
            MemHierarchyConfig::l1_only(CacheConfig::unified(256).write_back()),
            MemHierarchyConfig::l1_only(CacheConfig::unified(2048).write_back()),
            MemHierarchyConfig::l1_only(CacheConfig::unified(8192).write_back()),
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048).write_back()),
            MemHierarchyConfig::uncached_with(
                spmlab_isa::hierarchy::MainMemoryTiming::table1()
                    .with_store_buffer(StoreBuffer::new(4, 6)),
            ),
        ];
        let specs: Vec<MemArchSpec> = configs.iter().map(MemArchSpec::from_hierarchy).collect();
        let swept = measure(&p, &specs);
        for (r, h) in swept.iter().zip(&configs) {
            let direct = p.run(&MemArchSpec::from_hierarchy(h)).unwrap();
            assert_eq!(r.sim_cycles, direct.sim_cycles, "{}", direct.label);
            assert_eq!(r.wcet_cycles, direct.wcet_cycles, "{}", direct.label);
            assert!((r.energy_nj - direct.energy_nj).abs() < 1e-9);
        }
    }

    #[test]
    fn failed_points_are_contained_and_reported() {
        // An invalid spec fails its own point; every other point of the
        // axis still completes, and a figure needing every point reports
        // the failed one as its error.
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let specs = vec![
            MemArchSpec::spm(256),
            MemArchSpec::spm(1 << 30), // larger than the SPM region: invalid
            MemArchSpec::single_cache(CacheConfig::unified(256)),
        ];
        let outcomes = spec_sweep_with_session(&p, &specs, &SweepSession::none()).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].outcome.result().is_some());
        let fp = outcomes[1].outcome.failure().expect("invalid point fails");
        assert_eq!(fp.index, 1);
        assert!(!fp.panicked);
        assert!(fp.error.contains("invalid spec"), "{}", fp.error);
        assert!(outcomes[2].outcome.result().is_some(), "later points run");
        let completed = outcomes.iter().filter(|o| o.outcome.result().is_some());
        let failed = outcomes.iter().filter(|o| o.outcome.is_failed());
        assert_eq!((completed.count(), failed.count()), (2, 1));
        match outcomes[1].outcome.measured().unwrap_err() {
            CoreError::Point(err) => assert_eq!(&err, fp),
            other => panic!("expected CoreError::Point, got {other}"),
        }
    }

    #[test]
    fn unbounded_loop_fails_every_no_spm_point_with_its_run_error() {
        // A loop the analyzer cannot bound fails the analysis before any
        // classification: every point of a no-scratchpad sweep records
        // the error `Pipeline::run` reports for it, pinned as text.
        use spmlab_isa::hierarchy::StoreBuffer;
        use spmlab_workloads::{Benchmark, InputGen, Reference};
        use std::borrow::Cow;
        use std::sync::Arc;
        let src = "int input[4] = {0}; int n_samples = 4; int checksum;\n\
                   void main() { int k; k = input[0]; \
                   while (k > 0) { k = k - 1; checksum = checksum + k; } }";
        let bench = Benchmark {
            name: Cow::Borrowed("unbounded"),
            description: Cow::Borrowed("a loop without __loopbound"),
            source: Cow::Borrowed(src),
            input_global: Cow::Borrowed("input"),
            count_global: Cow::Borrowed("n_samples"),
            typical_input: InputGen::Fixed(Arc::new(vec![5, 0, 0, 0])),
            worst_input: None,
            reference_checksum: Reference::Interp {
                program: Arc::new(spmlab_cc::parse_source(src).unwrap()),
                max_steps: 100_000,
            },
        };
        let p = Pipeline::new(&bench).unwrap();
        let grid = crate::dse::GridSpec {
            l1_sizes: vec![0, 256],
            l2_sizes: vec![0, 4096],
            main_latencies: vec![0, 10],
            store_buffers: vec![None, Some(StoreBuffer::new(4, 8))],
            ..crate::dse::GridSpec::default()
        };
        let axis = grid.axis().unwrap().0;
        assert_eq!(axis.len(), 16);
        let expected = "wcet: loop at 0x100012 in `main` has no bound; annotate it";
        for o in spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap() {
            let failed = o.outcome.failure().expect("the analysis fails everywhere");
            assert_eq!(failed.error, expected, "{}", failed.label);
            assert!(!failed.panicked);
            let direct = p.run(&o.spec).unwrap_err().to_string();
            assert_eq!(direct, expected, "{}", failed.label);
        }
    }

    /// A point checkpointed as degraded resumes degraded with its recorded
    /// numbers, and the stream counts it.
    #[test]
    fn degraded_record_resumes_degraded() {
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let specs = vec![
            MemArchSpec::spm(128),
            MemArchSpec::single_cache(CacheConfig::unified(256)),
        ];
        let dir = std::env::temp_dir().join(format!("spmlab-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("degraded.jsonl");
        let header = CheckpointHeader::new("testrev", "insertsort", &specs);
        let session = SweepSession::checkpoint_to(&path, &header).unwrap();
        let full = spec_sweep_with_session(&p, &specs, &session).unwrap();
        drop(session);
        assert!(full.iter().all(|o| o.outcome.result().is_some()));
        assert!(!full.iter().any(|o| o.outcome.is_degraded()));
        // Mark the cache point as a capped fixpoint would have.
        let text = std::fs::read_to_string(&path).unwrap();
        let marked: String = text
            .lines()
            .map(|line| {
                let line = if line.starts_with("{\"index\":1,") {
                    line.replacen("\"status\":\"ok\"", "\"status\":\"degraded\"", 1)
                } else {
                    line.to_string()
                };
                line + "\n"
            })
            .collect();
        assert_eq!(marked.matches("\"status\":\"degraded\"").count(), 1);
        std::fs::write(&path, marked).unwrap();
        let resumed = SweepSession::resume_from(&path, &header).unwrap();
        assert_eq!(resumed.resumed_points(), 2);
        let replay = spec_sweep_with_session(&p, &specs, &resumed).unwrap();
        drop(resumed);
        assert!(!replay[0].outcome.is_degraded());
        assert!(replay[1].outcome.is_degraded(), "{:?}", replay[1].outcome);
        let r = replay[1].outcome.result().unwrap();
        let f = full[1].outcome.result().unwrap();
        assert_eq!((r.sim_cycles, r.wcet_cycles), (f.sim_cycles, f.wcet_cycles));
        let text = std::fs::read_to_string(&path).unwrap();
        let stats = crate::checkpoint::check_checkpoint(&text).expect("stream validates");
        assert_eq!((stats.ok, stats.degraded), (1, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_resume_reuses_points_bit_identically() {
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let specs = vec![
            MemArchSpec::spm(128),
            MemArchSpec::spm(256),
            MemArchSpec::single_cache(CacheConfig::unified(256)),
        ];
        let dir = std::env::temp_dir().join(format!("spmlab-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        let header = CheckpointHeader::new("testrev", "insertsort", &specs);
        let session = SweepSession::checkpoint_to(&path, &header).unwrap();
        let full = spec_sweep_with_session(&p, &specs, &session).unwrap();
        drop(session);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + one record per point");
        crate::checkpoint::check_checkpoint(&text).expect("stream validates");
        // Simulate a kill after the first completed point.
        std::fs::write(&path, lines[..2].join("\n") + "\n").unwrap();
        let resumed = SweepSession::resume_from(&path, &header).unwrap();
        assert_eq!(resumed.resumed_points(), 1);
        let replay = spec_sweep_with_session(&p, &specs, &resumed).unwrap();
        for (a, b) in full.iter().zip(&replay) {
            let (ra, rb) = (a.outcome.result().unwrap(), b.outcome.result().unwrap());
            assert_eq!(ra.label, rb.label);
            assert_eq!(ra.sim_cycles, rb.sim_cycles);
            assert_eq!(ra.wcet_cycles, rb.wcet_cycles);
            assert_eq!(
                ra.energy_nj.to_bits(),
                rb.energy_nj.to_bits(),
                "bit-identical energy"
            );
            assert_eq!(ra.classify, rb.classify);
            assert_eq!(ra.spm_objects, rb.spm_objects);
        }
        // A checkpoint from a different run must be rejected, not merged.
        let other = CheckpointHeader::new("otherrev", "insertsort", &specs);
        let err = SweepSession::resume_from(&path, &other).unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
