//! The spmlab benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dse-wt --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` is the timed run: it prints the end-to-end metrics of
//! `BENCHMARK.json` measured with no instrumentation sink installed.
//! `--trace 1` is the serial traced run: it prints the per-layer metrics.
//! Both check the program's outputs and exit non-zero when a check fails.
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The lines before it carry the machine fingerprint and, per metric, the
//! sample count, quartiles and base behind it.

mod stats;
mod timed;
mod traced;
mod workloads;

use stats::Summary;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: {s} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Where the value comes from: sample count and quartiles, or the
    /// base a ratio is taken over.
    pub basis: String,
}

impl Metric {
    /// A metric reported as the median of `s`.
    pub fn median(name: &'static str, unit: &'static str, s: Summary) -> Metric {
        Metric {
            name,
            unit,
            value: s.median,
            basis: format!(
                "median of n={} (q1 {:.6}, q3 {:.6}, spread {:.2}%)",
                s.n,
                s.q1,
                s.q3,
                100.0 * s.spread()
            ),
        }
    }

    /// A metric with its base stated in words.
    pub fn with(name: &'static str, unit: &'static str, value: f64, basis: String) -> Metric {
        Metric {
            name,
            unit,
            value,
            basis,
        }
    }
}

/// The outcome of either run.
pub struct Report {
    /// Points (or checks) attempted.
    pub attempted: u64,
    /// Points (or checks) that failed.
    pub failed: u64,
    /// Rendered check violations.
    pub problems: Vec<String>,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

/// The revision the benchmark runs on: `git rev-parse HEAD` when the
/// source tree is a git checkout, else `unknown`.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| String::from("unknown"))
}

/// The benchmark's declaration, compiled in so every run can check that
/// it prints exactly the declared metrics.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`
/// (`end_to_end` or `per_layer`), in declaration order.
fn declared_metrics(section: &str) -> Vec<(String, String)> {
    use spmlab_isa::archspec::json::{parse, Value};
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Some(Value::Arr(list)) = doc.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {section} entry without `{k}`"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", spmlab_obs::jsonl::escape(s))
}

fn fingerprint(args: &Args, rev: &str, programs: &[spmlab_workloads::Benchmark]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let axis = args.workload.axis();
    let threads = if args.trace { 1 } else { nproc.min(axis.len()) };
    let names: Vec<String> = programs.iter().map(|b| json_string(&b.name)).collect();
    format!(
        "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"worker_threads\": {threads}, \"rustc\": {}, \"git_rev\": {}, \
         \"programs\": [{}], \"points_per_program\": {}}}}}",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(env!("PERFBENCH_RUSTC_VERSION")),
        json_string(rev),
        names.join(", "),
        axis.len(),
    )
}

fn result_line(correct: bool, report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    )
}

/// A directory inside the benchmark's own tree for checkpoint streams,
/// private to this process and removed on exit.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> Result<ScratchDir, String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run uses the directory.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let rev = git_revision();
    let programs = args.workload.programs(args.seed);
    println!("{}", fingerprint(args, &rev, &programs));
    let scratch = ScratchDir::create()?;
    let report = if args.trace {
        traced::run(args.workload, &programs, args.seed, &scratch.0, &rev)?
    } else {
        let t = timed::run(args.workload, &programs, args.seconds, &scratch.0, &rev)?;
        timed_report(t)
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared_metrics(section);
    if !report
        .metrics
        .iter()
        .map(|m| (m.name, m.unit))
        .eq(declared.iter().map(|(n, u)| (n.as_str(), u.as_str())))
    {
        return Err(format!(
            "printed metrics differ from BENCHMARK.json's `{section}` list"
        ));
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number: {}", m.name, m.value));
    }
    for m in &report.metrics {
        println!(
            "{:<34} {:>16.6} {:<10} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    println!("{}", result_line(correct, &report));
    Ok(correct)
}

fn timed_report(t: timed::TimedRun) -> Report {
    let first_pass = format!("first of {} bit-identical passes", t.passes);
    let spread = |s: &Summary| {
        format!(
            "n={}: q1 {:.6}, median {:.6}, q3 {:.6}",
            s.n, s.q1, s.median, s.q3
        )
    };
    let metrics = vec![
        Metric::with(
            "points_per_s",
            "points/s",
            t.points_per_s,
            format!(
                "points over summed per-program median sweep times; per pass {}",
                spread(&t.pass_rates)
            ),
        ),
        Metric::with(
            "setup_s",
            "s",
            t.setup_s,
            format!(
                "sum of per-program median Pipeline::new times; per repetition {}",
                spread(&t.setup_totals)
            ),
        ),
        Metric::with(
            "peak_rss_mb",
            "MiB",
            t.peak_rss_mb,
            String::from("VmHWM of the whole run"),
        ),
        Metric::with(
            "ok_frac",
            "fraction",
            t.ok_frac,
            format!(
                "{} of {} attempted points",
                t.attempted - t.failed,
                t.attempted
            ),
        ),
        Metric::with(
            "bound_ratio_geomean",
            "ratio",
            t.bound_ratio_geomean,
            first_pass.clone(),
        ),
        Metric::with(
            "bound_ratio_max",
            "ratio",
            t.bound_ratio_max,
            first_pass.clone(),
        ),
        Metric::with(
            "sim_cycles_geomean",
            "cycles",
            t.sim_cycles_geomean,
            first_pass,
        ),
    ];
    Report {
        attempted: t.attempted,
        failed: t.failed,
        problems: t.problems,
        metrics,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab::checkpoint::axis_hash;

    #[test]
    fn end_to_end_names_match_benchmark_json() {
        let t = timed::TimedRun {
            attempted: 1,
            failed: 0,
            problems: Vec::new(),
            passes: 1,
            points_per_s: 1.0,
            pass_rates: Summary::of(&[1.0]),
            setup_s: 1.0,
            setup_totals: Summary::of(&[1.0]),
            peak_rss_mb: 1.0,
            ok_frac: 1.0,
            bound_ratio_geomean: 1.0,
            bound_ratio_max: 1.0,
            sim_cycles_geomean: 1.0,
        };
        let printed: Vec<(String, String)> = timed_report(t)
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(printed, declared_metrics("end_to_end"));
    }

    #[test]
    fn benchmark_json_names_every_workload() {
        let doc = spmlab_isa::archspec::json::parse(BENCHMARK_JSON).unwrap();
        let Some(spmlab_isa::archspec::json::Value::Arr(list)) = doc.get("workloads") else {
            panic!("no workloads list");
        };
        let names: Vec<&str> = list
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn same_seed_same_programs_specs_and_axis() {
        for w in Workload::ALL {
            let (a, b) = (w.programs(7), w.programs(7));
            let key = |p: &[spmlab_workloads::Benchmark]| -> Vec<(String, String, Vec<i32>)> {
                p.iter()
                    .map(|b| (b.name.to_string(), b.source.to_string(), b.typical_input()))
                    .collect()
            };
            assert_eq!(key(&a), key(&b), "{}: program list", w.name());
            assert_ne!(
                key(&a),
                key(&w.programs(8)),
                "{}: the seed must change the inputs",
                w.name()
            );
            assert_eq!(w.axis(), w.axis(), "{}: spec list", w.name());
            let canon = |ax: Vec<spmlab::MemArchSpec>| {
                axis_hash(
                    &ax.iter()
                        .map(spmlab::MemArchSpec::canonical)
                        .collect::<Vec<_>>(),
                )
            };
            assert_eq!(canon(w.axis()), canon(w.axis()), "{}: axis hash", w.name());
        }
    }

    #[test]
    fn axis_sizes_are_as_documented() {
        let sizes: Vec<usize> = Workload::ALL.iter().map(|w| w.axis().len()).collect();
        assert_eq!(sizes, [63, 108, 55]);
        for w in Workload::ALL {
            assert_eq!(
                w.programs(1).len(),
                if w == Workload::SpmAlloc { 6 } else { 7 }
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload dse-wb --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(ok.workload, Workload::DseWb);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        for bad in [
            "--workload nope",
            "--workload dse-wt --trace 2",
            "--workload dse-wt --seconds 0",
            "--workload dse-wt --seed",
            "--seed 1",
            "--workload dse-wt --colour red",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
