//! The traced run: per-layer metrics, timed by the benchmark around the
//! public call into each layer, one layer call at a time.
//!
//! Phases, each on fresh pipelines so no memo carries over:
//!
//! 1. per program, a parallel sweep without, then one with, checkpoint
//!    streaming (the executor's own threads) — checkpoint cost per point,
//!    and the merge and frontier of the stream;
//! 2. per program, the untraced serial base — `Pipeline::new` and
//!    `Pipeline::run` on every point — directly followed by
//! 3. the layer run of that program: the calls `Pipeline` makes — compile,
//!    link, oracle, trace recording, allocation, replay, WCET analysis —
//!    made directly and timed one by one. Its results must equal phase 2's
//!    bit for bit, and on a deterministic sample of points replay must
//!    equal a fresh simulation on cycles and every memory-statistics
//!    counter. Its wall time over phase 2's is the tracing overhead;
//! 4. a serial sweep with an in-memory `spmlab-obs` sink — the program's
//!    own counters (an installed sink forces the executor onto one thread,
//!    which is why the timed run never installs one).

use crate::stats::Summary;
use crate::timed::{setup, sweep_all};
use crate::workloads::Workload;
use crate::{Metric, Report};
use spmlab::dse::merge_texts;
use spmlab::sweep::{spec_sweep_with_session, SweepSession};
use spmlab::MemArchSpec;
use spmlab_alloc::energy::EnergyModel;
use spmlab_alloc::{knapsack, wcet_aware};
use spmlab_cc::{LinkedProgram, SpmAssignment};
use spmlab_isa::annot::AnnotationSet;
use spmlab_isa::archspec::{SpmAllocation, SpmSpec};
use spmlab_isa::hierarchy::{MainMemoryTiming, L1};
use spmlab_isa::mem::MemoryMap;
use spmlab_sim::{simulate, simulate_with_trace, MachineConfig, MemStats, MemTrace, SimOptions};
use spmlab_wcet::{analyze, WcetConfig};
use spmlab_workloads::Benchmark;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Points per program whose replay is re-checked against fresh simulation.
const REPLAY_CHECKS_PER_PROGRAM: usize = 4;
/// Repetitions of the (microsecond-scale) grid enumeration.
const AXIS_REPS: usize = 21;

/// Which analyzer a point is routed to (mirrors `Pipeline::run`'s table).
#[derive(Debug, Clone, Copy)]
enum Route {
    Region = 0,
    SingleLevel = 1,
    Multilevel = 2,
}

/// The analyzer configuration `Pipeline::run` uses for a canonical spec.
fn route(canon: &MemArchSpec) -> (Route, WcetConfig) {
    if canon.persistence {
        if let L1::Unified(c) = &canon.l1 {
            return (
                Route::SingleLevel,
                WcetConfig::with_cache_persistence(c.clone()),
            );
        }
    }
    if !canon.has_cache_levels() {
        let cfg = if canon.main == MainMemoryTiming::table1() {
            WcetConfig::region_timing()
        } else {
            WcetConfig::region_timing_with(canon.main)
        };
        return (Route::Region, cfg);
    }
    if canon.spm.is_none()
        && canon.l2.is_none()
        && canon.main == MainMemoryTiming::table1()
        && !canon.hierarchy().write_policy_dependent()
    {
        if let L1::Unified(c) = &canon.l1 {
            return (Route::SingleLevel, WcetConfig::with_cache(c.clone()));
        }
    }
    (
        Route::Multilevel,
        WcetConfig::with_hierarchy(canon.hierarchy()),
    )
}

/// Busy time and work counts per layer, accumulated over the layer run.
#[derive(Debug, Default)]
struct Layers {
    compile: Duration,
    link: Duration,
    oracle: Duration,
    record: Duration,
    record_insns: u64,
    /// Replay time and events, write-through machines first.
    replay: [(Duration, u64); 2],
    /// Analysis time and calls per [`Route`].
    analyze: [(Duration, u64); 3],
    knapsack: Duration,
    greedy: Duration,
    hier_aware: Duration,
}

impl Layers {
    fn cc(&self) -> Duration {
        self.compile + self.link + self.oracle
    }
    fn replay_total(&self) -> Duration {
        self.replay[0].0 + self.replay[1].0
    }
    fn analyze_total(&self) -> Duration {
        self.analyze.iter().map(|a| a.0).sum()
    }
    fn alloc_total(&self) -> Duration {
        self.knapsack + self.greedy + self.hier_aware
    }
    fn total(&self) -> Duration {
        self.cc() + self.record + self.replay_total() + self.analyze_total() + self.alloc_total()
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed();
    r
}

/// A scratchpad link and its recorded execution.
struct SpmArtifacts {
    linked: LinkedProgram,
    cycles: u64,
    trace: Option<MemTrace>,
}

/// One program's state during the layer run: the memos `Pipeline` keeps.
struct ProgramRun<'a> {
    bench: &'a Benchmark,
    input: Vec<i32>,
    module: spmlab_cc::ObjModule,
    expected: i32,
    profile: spmlab_sim::Profile,
    allocs: BTreeMap<String, SpmAssignment>,
    links: BTreeMap<String, Rc<SpmArtifacts>>,
}

fn sweep_options() -> SimOptions {
    SimOptions {
        insn_stats: false,
        profile: false,
        ..SimOptions::default()
    }
}

impl ProgramRun<'_> {
    fn region_alloc(&mut self, size: u32, l: &mut Layers) -> Result<SpmAssignment, String> {
        let key = format!("region|{size}");
        if let Some(a) = self.allocs.get(&key) {
            return Ok(a.clone());
        }
        let a = timed(&mut l.greedy, || {
            wcet_aware::allocate(&self.module, size, &AnnotationSet::new())
        })
        .map_err(|e| format!("wcet-region allocation: {e}"))?
        .assignment;
        self.allocs.insert(key, a.clone());
        Ok(a)
    }

    fn assignment(
        &mut self,
        spm: &SpmSpec,
        wcfg: &WcetConfig,
        l: &mut Layers,
    ) -> Result<SpmAssignment, String> {
        match &spm.alloc {
            SpmAllocation::Empty => Ok(SpmAssignment::none()),
            SpmAllocation::Fixed(names) => Ok(SpmAssignment::of(names.iter().map(String::as_str))),
            SpmAllocation::ProfileKnapsack => Ok(timed(&mut l.knapsack, || {
                knapsack::allocate(
                    &self.module,
                    &self.profile,
                    spm.size,
                    &EnergyModel::default(),
                )
            })
            .assignment),
            SpmAllocation::WcetRegion => self.region_alloc(spm.size, l),
            SpmAllocation::WcetAware => {
                let region = self.region_alloc(spm.size, l)?;
                let key = format!("aware|{}|{wcfg:?}", spm.size);
                if let Some(a) = self.allocs.get(&key) {
                    return Ok(a.clone());
                }
                let a = timed(&mut l.hier_aware, || {
                    wcet_aware::allocate_hierarchy_aware(
                        &self.module,
                        spm.size,
                        &AnnotationSet::new(),
                        wcfg,
                        Some(&region),
                    )
                })
                .map_err(|e| format!("wcet-aware allocation: {e}"))?
                .assignment;
                self.allocs.insert(key, a.clone());
                Ok(a)
            }
        }
    }

    fn spm_artifacts(
        &mut self,
        size: u32,
        assignment: &SpmAssignment,
        l: &mut Layers,
    ) -> Result<Rc<SpmArtifacts>, String> {
        let key = format!("{size}|{assignment:?}");
        if let Some(a) = self.links.get(&key) {
            return Ok(a.clone());
        }
        let linked = timed(&mut l.link, || {
            self.bench.link_with_input(
                &self.module,
                &MemoryMap::with_spm(size),
                assignment,
                &self.input,
            )
        })
        .map_err(|e| format!("spm link: {e}"))?;
        let (res, trace) = timed(&mut l.record, || {
            simulate_with_trace(&linked.exe, &sweep_options())
        })
        .map_err(|e| format!("spm record: {e}"))?;
        l.record_insns += res.instructions;
        let got = res.read_global(&linked.exe, "checksum");
        if got != Some(self.expected) {
            return Err(format!(
                "spm {size} checksum {got:?}, expected {}",
                self.expected
            ));
        }
        let arts = Rc::new(SpmArtifacts {
            linked,
            cycles: res.cycles,
            trace: trace.replayable().then_some(trace),
        });
        self.links.insert(key, arts.clone());
        Ok(arts)
    }
}

/// The layer run of one program: the calls `Pipeline` makes for every
/// point of `axis`, each timed into `l`. `reference` holds
/// `Pipeline::run`'s `(sim, wcet)` per point, which the layer calls must
/// reproduce. Returns the checks attempted and the host time spent on the
/// replay-versus-simulation checks (not a layer of the program).
fn layer_program(
    bench: &Benchmark,
    axis: &[MemArchSpec],
    reference: &[(u64, u64)],
    seed: u64,
    l: &mut Layers,
    problems: &mut Vec<String>,
) -> Result<(u64, Duration), String> {
    let mut attempted = 0u64;
    let record_options = SimOptions {
        insn_stats: false,
        ..SimOptions::default()
    };
    let name = bench.name.to_string();
    let input = bench.typical_input();
    let module = timed(&mut l.compile, || bench.compile()).map_err(|e| format!("{name}: {e}"))?;
    let base = timed(&mut l.link, || {
        bench.link_with_input(
            &module,
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
            &input,
        )
    })
    .map_err(|e| format!("{name}: {e}"))?;
    let (res, trace) = timed(&mut l.record, || {
        simulate_with_trace(&base.exe, &record_options)
    })
    .map_err(|e| format!("{name}: record: {e}"))?;
    l.record_insns += res.instructions;
    let expected = timed(&mut l.oracle, || bench.try_reference_checksum(&input))
        .map_err(|e| format!("{name}: oracle: {e}"))?;
    attempted += 1;
    if res.read_global(&base.exe, "checksum") != Some(expected) {
        problems.push(format!("{name}: baseline checksum differs from the oracle"));
    }
    let base_trace = trace.replayable().then_some(trace);
    let mut prog = ProgramRun {
        bench,
        input,
        module,
        expected,
        profile: res.profile,
        allocs: BTreeMap::new(),
        links: BTreeMap::new(),
    };

    // Replayed points: index, scratchpad artifacts (`None` for the
    // baseline link), cycles and statistics.
    let mut replayed: Vec<(usize, Option<Rc<SpmArtifacts>>, u64, MemStats)> = Vec::new();
    for (i, spec) in axis.iter().enumerate() {
        let canon = spec.canonical();
        let (route, wcfg) = route(&canon);
        let hierarchy = canon.hierarchy();
        let arts = match &canon.spm {
            None => None,
            Some(spm) => {
                let assignment = prog.assignment(spm, &wcfg, l)?;
                Some(prog.spm_artifacts(spm.size, &assignment, l)?)
            }
        };
        let (linked, trace) = match &arts {
            None => (&base, base_trace.as_ref()),
            Some(a) => (&a.linked, a.trace.as_ref()),
        };
        // The recording machine is the uncached Table-1 machine.
        let recorded = arts
            .as_ref()
            .filter(|_| !canon.has_cache_levels() && canon.main == MainMemoryTiming::table1())
            .map(|a| a.cycles);
        let sim = if let Some(cycles) = recorded {
            cycles
        } else {
            let bucket = usize::from(hierarchy.write_policy_dependent());
            let replay = trace.filter(|t| t.supports(&hierarchy)).map(|t| {
                let r = timed(&mut l.replay[bucket].0, || t.replay(&hierarchy));
                l.replay[bucket].1 += t.events() as u64;
                r
            });
            match replay {
                Some(Ok((cycles, stats))) => {
                    replayed.push((i, arts.clone(), cycles, stats));
                    cycles
                }
                // Unsupported or diverged: `Pipeline` simulates in full.
                _ => {
                    timed(&mut l.record, || {
                        simulate(
                            &linked.exe,
                            &MachineConfig::with_hierarchy(hierarchy.clone()),
                            &sweep_options(),
                        )
                    })
                    .map_err(|e| format!("{name}: simulate: {e}"))?
                    .cycles
                }
            }
        };
        let a = &mut l.analyze[route as usize];
        a.1 += 1;
        let wcet = timed(&mut a.0, || {
            analyze(&linked.exe, &wcfg, &linked.annotations)
        })
        .map_err(|e| format!("{name}: analyze: {e}"))?
        .wcet_cycles;
        attempted += 1;
        if sim > wcet {
            problems.push(format!(
                "{name} point {i} ({}): unsound: sim {sim} > wcet {wcet}",
                spec.label()
            ));
        }
        if reference[i] != (sim, wcet) {
            problems.push(format!(
                "{name} point {i} ({}): layer calls give sim {sim} wcet {wcet}, \
                 Pipeline::run {:?}",
                spec.label(),
                reference[i]
            ));
        }
    }

    // Replay must equal fresh simulation on a deterministic sample.
    let t = Instant::now();
    let stride = replayed.len().div_ceil(REPLAY_CHECKS_PER_PROGRAM).max(1);
    for (i, arts, cycles, stats) in replayed
        .iter()
        .skip((seed as usize) % stride)
        .step_by(stride)
    {
        let linked = arts.as_ref().map_or(&base, |a| &a.linked);
        let fresh = simulate(
            &linked.exe,
            &MachineConfig::with_hierarchy(axis[*i].canonical().hierarchy()),
            &sweep_options(),
        )
        .map_err(|e| format!("{name}: simulate: {e}"))?;
        attempted += 1;
        if fresh.cycles != *cycles || fresh.mem_stats != *stats {
            problems.push(format!(
                "{name} point {i} ({}): replay gives {cycles} cycles {stats:?}, \
                 simulation {} cycles {:?}",
                axis[*i].label(),
                fresh.cycles,
                fresh.mem_stats
            ));
        }
    }
    Ok((attempted, t.elapsed()))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn per_call_ms(d: Duration, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        ms(d) / calls as f64
    }
}

/// Host times of the phases around the layer run.
#[derive(Debug, Default)]
struct Phases {
    programs: usize,
    points: usize,
    threads: usize,
    axis_ms: Option<Summary>,
    parallel_wall: Duration,
    checkpoint_wall: Duration,
    merge_frontier: Duration,
    serial_setup: Duration,
    serial_run: Duration,
    traced_sweep: Duration,
    layer_wall: Duration,
    check_time: Duration,
}

/// The per-layer metrics in `BENCHMARK.json` order, each with its base.
/// `counter` reads a `spmlab-obs` counter of the traced sweep.
fn layer_metrics(l: &Layers, p: &Phases, counter: impl Fn(&str) -> u64) -> Vec<Metric> {
    let total = secs(l.total());
    let share = |d: Duration| if total > 0.0 { secs(d) / total } else { 0.0 };
    let of_layers = || format!("of {total:.3} s summed layer time");
    let points = p.points as f64;
    let serial_total = p.serial_setup + p.serial_run;
    let calls = |r: Route| format!("{} calls", l.analyze[r as usize].1);
    let per_route = |r: Route| per_call_ms(l.analyze[r as usize].0, l.analyze[r as usize].1);
    let obs = |name: &'static str| {
        Metric::with(
            name,
            "count",
            counter(name.trim_start_matches("obs.")) as f64,
            String::from("spmlab-obs counter, serial traced sweep"),
        )
    };
    vec![
        Metric::with(
            "cc.compile_ms",
            "ms",
            ms(l.compile),
            format!("{} programs", p.programs),
        ),
        Metric::with(
            "cc.link_ms",
            "ms",
            ms(l.link),
            String::from("baseline and scratchpad links"),
        ),
        Metric::with(
            "cc.oracle_ms",
            "ms",
            ms(l.oracle),
            format!("{} programs", p.programs),
        ),
        Metric::with(
            "sim.record_s",
            "s",
            secs(l.record),
            format!("{} instructions", l.record_insns),
        ),
        Metric::with(
            "sim.record_minsn_per_s",
            "Minsn/s",
            if l.record.is_zero() {
                0.0
            } else {
                l.record_insns as f64 / secs(l.record) / 1e6
            },
            format!("{} instructions / {:.3} s", l.record_insns, secs(l.record)),
        ),
        Metric::with(
            "sim.replay_s",
            "s",
            secs(l.replay_total()),
            format!("{} events", l.replay[0].1 + l.replay[1].1),
        ),
        Metric::with(
            "sim.replay_ns_per_event_wt",
            "ns",
            per_call_ms(l.replay[0].0, l.replay[0].1) * 1e6,
            format!("{} write-through events", l.replay[0].1),
        ),
        Metric::with(
            "sim.replay_ns_per_event_wb",
            "ns",
            per_call_ms(l.replay[1].0, l.replay[1].1) * 1e6,
            format!("{} write-back or buffered events", l.replay[1].1),
        ),
        Metric::with(
            "wcet.analyze_s",
            "s",
            secs(l.analyze_total()),
            format!("{} calls", l.analyze.iter().map(|a| a.1).sum::<u64>()),
        ),
        Metric::with(
            "wcet.region_ms_per_call",
            "ms",
            per_route(Route::Region),
            calls(Route::Region),
        ),
        Metric::with(
            "wcet.single_level_ms_per_call",
            "ms",
            per_route(Route::SingleLevel),
            calls(Route::SingleLevel),
        ),
        Metric::with(
            "wcet.multilevel_ms_per_call",
            "ms",
            per_route(Route::Multilevel),
            calls(Route::Multilevel),
        ),
        Metric::with(
            "alloc.knapsack_ms",
            "ms",
            ms(l.knapsack),
            String::from("knapsack::allocate"),
        ),
        Metric::with(
            "alloc.wcet_greedy_s",
            "s",
            secs(l.greedy),
            String::from("wcet_aware::allocate"),
        ),
        Metric::with(
            "alloc.hier_aware_s",
            "s",
            secs(l.hier_aware),
            String::from("wcet_aware::allocate_hierarchy_aware"),
        ),
        Metric::with("share.cc", "fraction", share(l.cc()), of_layers()),
        Metric::with("share.record", "fraction", share(l.record), of_layers()),
        Metric::with(
            "share.replay",
            "fraction",
            share(l.replay_total()),
            of_layers(),
        ),
        Metric::with(
            "share.analyze",
            "fraction",
            share(l.analyze_total()),
            of_layers(),
        ),
        Metric::with(
            "share.alloc",
            "fraction",
            share(l.alloc_total()),
            format!(
                "{}, WCET analysis inside the allocator included",
                of_layers()
            ),
        ),
        Metric::with(
            "core.run_ms_per_point",
            "ms",
            ms(p.serial_run) / points,
            format!("{} points, serial Pipeline::run", p.points),
        ),
        Metric::with(
            "core.parallel_eff",
            "fraction",
            secs(p.traced_sweep) / (secs(p.parallel_wall) * p.threads as f64),
            format!(
                "serial traced sweep {:.3} s / (parallel sweep {:.3} s x {} threads)",
                secs(p.traced_sweep),
                secs(p.parallel_wall),
                p.threads
            ),
        ),
        Metric::with(
            "core.checkpoint_us_per_point",
            "us",
            (secs(p.checkpoint_wall) - secs(p.parallel_wall)) * 1e6 / points,
            format!(
                "parallel sweep with streaming {:.3} s vs without {:.3} s, {} points",
                secs(p.checkpoint_wall),
                secs(p.parallel_wall),
                p.points
            ),
        ),
        match p.axis_ms {
            Some(s) => Metric::median("dse.axis_ms", "ms", s),
            None => Metric::with("dse.axis_ms", "ms", 0.0, String::from("not measured")),
        },
        Metric::with(
            "dse.merge_frontier_ms",
            "ms",
            ms(p.merge_frontier),
            format!("{} streams", p.programs),
        ),
        Metric::with(
            "trace.untraced_serial_s",
            "s",
            secs(serial_total),
            String::from("Pipeline::new + Pipeline::run on every point"),
        ),
        Metric::with(
            "trace.layer_run_s",
            "s",
            secs(p.layer_wall),
            format!("excluding {:.3} s of replay checks", secs(p.check_time)),
        ),
        Metric::with(
            "trace.overhead_frac",
            "fraction",
            secs(p.layer_wall) / secs(serial_total) - 1.0,
            format!(
                "layer run {:.3} s over untraced serial run {:.3} s",
                secs(p.layer_wall),
                secs(serial_total)
            ),
        ),
        obs("obs.sweep_points"),
        obs("obs.sweep_memo_hit"),
        obs("obs.spm_link_memo_miss"),
        obs("obs.alloc_memo_miss"),
        obs("obs.fixpoint_iterations"),
        obs("obs.replay_events"),
    ]
}

/// Runs the traced run of `workload`. Phases that are compared with each
/// other alternate program by program, so drift of the host's speed during
/// the run falls on both sides alike.
pub fn run(
    workload: Workload,
    programs: &[Benchmark],
    seed: u64,
    dir: &Path,
    rev: &str,
) -> Result<Report, String> {
    let axis = workload.axis();
    let mut p = Phases {
        programs: programs.len(),
        points: programs.len() * axis.len(),
        threads: std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(axis.len()),
        ..Phases::default()
    };
    let mut problems = Vec::new();

    let axis_samples: Vec<f64> = (0..AXIS_REPS)
        .map(|_| {
            let t = Instant::now();
            let _ = std::hint::black_box(workload.grid().axis());
            ms(t.elapsed())
        })
        .collect();
    p.axis_ms = Some(Summary::of(&axis_samples));

    // Phase 1: parallel sweeps without and with checkpoint streaming.
    for (k, bench) in programs.iter().enumerate() {
        let programs = std::slice::from_ref(bench);
        let pipelines = setup(programs)?.0;
        let t = Instant::now();
        let outcomes = spec_sweep_with_session(&pipelines[0], &axis, &SweepSession::none())
            .map_err(|e| e.to_string())?;
        p.parallel_wall += t.elapsed();
        std::hint::black_box(outcomes);
        drop(pipelines);

        let pipelines = setup(programs)?.0;
        let dir = dir.join(k.to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let t = Instant::now();
        let pass = sweep_all(&pipelines, &axis, &dir, rev)?;
        p.checkpoint_wall += t.elapsed();
        problems.extend(pass.problems);
        let path = dir.join("program-0.jsonl");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let t = Instant::now();
        std::hint::black_box(merge_texts(&[&text])?.frontier());
        p.merge_frontier += t.elapsed();
    }

    // Phases 2 and 3: the untraced serial base, then the layer run.
    let mut l = Layers::default();
    let mut attempted = 0;
    for bench in programs {
        let t = Instant::now();
        let pipeline = setup(std::slice::from_ref(bench))?.0.remove(0);
        p.serial_setup += t.elapsed();
        let t = Instant::now();
        let reference = axis
            .iter()
            .map(|spec| {
                pipeline
                    .run(spec)
                    .map(|r| (r.sim_cycles, r.wcet_cycles))
                    .map_err(|e| format!("{}: {}: {e}", bench.name, spec.label()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        p.serial_run += t.elapsed();
        drop(pipeline);

        let t = Instant::now();
        let (checks, check_time) =
            layer_program(bench, &axis, &reference, seed, &mut l, &mut problems)?;
        p.layer_wall += t.elapsed() - check_time;
        p.check_time += check_time;
        attempted += checks;
    }

    // Phase 4: serial sweep with the program's own counters.
    let sink = Arc::new(spmlab_obs::collector::MemorySink::default());
    {
        let _guard = spmlab_obs::add_sink(sink.clone());
        let pipelines = setup(programs)?.0;
        let t = Instant::now();
        for pl in &pipelines {
            let outcomes = spec_sweep_with_session(pl, &axis, &SweepSession::none())
                .map_err(|e| e.to_string())?;
            std::hint::black_box(outcomes);
        }
        p.traced_sweep = t.elapsed();
    }

    Ok(Report {
        attempted,
        failed: problems.len() as u64,
        problems,
        metrics: layer_metrics(&l, &p, |name| sink.counter_total(name)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let printed: Vec<(&str, &str)> =
            layer_metrics(&Layers::default(), &Phases::default(), |_| 0)
                .iter()
                .map(|m| (m.name, m.unit))
                .collect();
        let declared = crate::declared_metrics("per_layer");
        let declared: Vec<(&str, &str)> = declared
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(printed, declared);
    }
}
