//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] all              # everything, report order
//! experiments [--quick] <id> [<id>..]    # selected experiments
//! experiments verify                     # check the paper's claims hold
//! experiments list                       # usage and available ids
//! experiments --profile[=out.jsonl] <id> # instrumented run + phase table
//! experiments --dump-spec [--quick] <id> # a figure's grid as JSON
//! experiments --spec spec.json [--bench name]        # one machine, one report
//! experiments sweep --spec-grid grid.json --shard 0/2 --checkpoint dir
//! experiments merge-shards out.jsonl a.jsonl b.jsonl # reassemble + frontier
//! experiments [--quick] render <id> <stream.jsonl>   # a figure from a stream
//! experiments check-checkpoint <c.jsonl>             # strict stream gate
//! experiments check-profile <p.jsonl>                # profile stream gate
//! experiments fuzz --seed-range 0..500               # differential fuzzing
//! experiments gen-corpus tests/corpus                # rewrite the golden corpus
//! experiments [--quick] dump-trace <out.bin>         # baseline trace artifact
//! ```
//!
//! Every sweep figure (`fig3`, `fig5`, `fig6`, `hierarchy`,
//! `hierarchy-spm`, `write-policy` and the persistence, icache and
//! associativity ablations) is one grid. `experiments <id>` sweeps it
//! through the code `sweep` runs and renders it, and a full `hierarchy`
//! or `write-policy` run rewrites its tracked `BENCH_*.json`; this binary
//! is the only producer of every figure and artifact. `--dump-spec <id>`
//! prints the grid as a
//! document `sweep --spec-grid` accepts, and `render <id> <stream>` renders
//! a merged or unsharded checkpoint stream of that grid exactly as the
//! direct run prints it. So any figure can be sharded, checkpointed and
//! resumed like any grid (see the `spmlab::dse` and `spmlab::checkpoint`
//! module docs): `sweep --checkpoint <dir>` streams
//! `<dir>/shard-k-of-n.jsonl` and resumes it when it exists, and
//! `merge-shards` exits non-zero unless the merged run is complete with a
//! non-empty, sound Pareto frontier.
//!
//! `fuzz` drives the seeded MiniC generator through every differential the
//! toolchain supports and delta-debugs the first failing seed to a minimal
//! `.mc` repro (`--repro-out`, default `fuzz-repro.mc`);
//! `--inject-miscompile` plants a wrong strength-reduction and demands the
//! harness catch and shrink it. `--profile` records every span, counter
//! and progress event to a JSON-lines file (`=-` streams to stderr) and prints a
//! per-phase breakdown; profiled sweeps run single-threaded so phase
//! self-times add up to the wall time.
//!
//! Each mode takes only its own flags: an unknown or misplaced `--flag`
//! exits 2 before anything runs.

use std::sync::Arc;

use spmlab_bench::jsonl::check_stream;
use spmlab_bench::{experiment, run_spec_on, verify_claims, Experiment, EXPERIMENTS};
use spmlab_obs::collector::MemorySink;
use spmlab_obs::jsonl::JsonlSink;

fn usage() -> String {
    format!(
        "usage: experiments [--quick] [--profile[=out.jsonl|=-]] <all|verify|{}>\n\
         \x20      experiments check-profile <file.jsonl>\n\
         \x20      experiments check-checkpoint <ckpt.jsonl>\n\
         \x20      experiments --dump-spec [--quick] <figure>\n\
         \x20      experiments [--quick] render <figure> <stream.jsonl>\n\
         \x20      experiments --spec <file.json> [--bench <name>]\n\
         \x20      experiments sweep --spec-grid <grid.json> [--shard k/n] \
         [--checkpoint <dir>] [--dry-run] [--profile[=out.jsonl|=-]]\n\
         \x20      experiments merge-shards <out.jsonl> <shard.jsonl>...\n\
         \x20      experiments fuzz --seed-range <a..b> [--spec <file.json>] \
         [--inject-miscompile] [--repro-out <f.mc>]\n\
         \x20      experiments gen-corpus <dir>\n\
         \x20      experiments [--quick] dump-trace <out.bin>",
        EXPERIMENTS.join("|")
    )
}

/// Renders the flat per-phase breakdown collected during a profiled run.
fn render_profile(mem: &MemorySink) -> String {
    let rows = mem.flat_profile();
    let total: u64 = rows.iter().map(|r| r.self_ns).sum();
    let mut out = String::from("\nper-phase breakdown (self time):\n");
    out.push_str(&format!(
        "  {:<20} {:>8} {:>12} {:>12} {:>7}\n",
        "phase", "count", "incl ms", "self ms", "self %"
    ));
    for r in &rows {
        out.push_str(&format!(
            "  {:<20} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            r.name,
            r.count,
            r.inclusive_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / total.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "  total attributed: {:.3} ms over {} phases\n",
        total as f64 / 1e6,
        rows.len()
    ));
    for (name, total) in mem.counters() {
        out.push_str(&format!("  counter {name} = {total}\n"));
    }
    if let Err(e) = mem.validate() {
        out.push_str(&format!("  WARNING: span tree malformed: {e}\n"));
    }
    out
}

/// Installs the `--profile` sinks: a JSONL stream to `dest` (`-` =
/// stderr) plus an in-memory collector for the breakdown table. The
/// guards keep the sinks installed while held.
fn install_profile(dest: &str) -> (Arc<MemorySink>, [spmlab_obs::SinkGuard; 2]) {
    let stream_guard = if dest == "-" {
        spmlab_obs::add_sink(Arc::new(JsonlSink::new(std::io::stderr())))
    } else {
        match std::fs::File::create(dest) {
            Ok(f) => spmlab_obs::add_sink(Arc::new(JsonlSink::new(std::io::BufWriter::new(f)))),
            Err(e) => {
                eprintln!("error: cannot create profile `{dest}`: {e}");
                std::process::exit(1);
            }
        }
    };
    let mem = Arc::new(MemorySink::default());
    let mem_guard = spmlab_obs::add_sink(mem.clone());
    (mem, [stream_guard, mem_guard])
}

/// Flags that take the following argument as their value.
const VALUE_FLAGS: &str =
    "--spec --bench --checkpoint --spec-grid --shard --seed-range --repro-out";

/// The flags `mode` takes, space-separated; every other flag is rejected.
fn mode_flags(mode: &str) -> &'static str {
    match mode {
        "sweep" => "--spec-grid --shard --checkpoint --dry-run --profile",
        "fuzz" => "--seed-range --spec --inject-miscompile --repro-out",
        "dump-trace" | "render" => "--quick",
        "--spec" => "--spec --bench",
        "--dump-spec" => "--dump-spec --quick",
        "experiments" => "--quick --profile",
        _ => "",
    }
}

/// Prints `msg` and exits with `code`.
fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// Prints a command's output, or its error and exits 1.
fn emit<E: std::fmt::Display>(result: Result<String, E>) {
    match result {
        Ok(text) => print!("{text}"),
        Err(e) => fail(1, &format!("error: {e}")),
    }
}

/// A parsed command line: the mode (its subcommand word, `--spec`,
/// `--dump-spec`, or `experiments` for runs), the flags with their
/// values, and the remaining positional arguments.
struct Cli {
    mode: String,
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Cli {
    /// Splits `args` and checks every flag against the chosen mode.
    fn parse(args: &[String]) -> Result<Cli, String> {
        let (mut flags, mut positional) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let (name, inline) = match a.split_once('=') {
                Some((n, v)) if n == "--profile" => (n, Some(v.to_string())),
                _ => (a.as_str(), None),
            };
            if !name.starts_with("--") {
                positional.push(a.clone());
            } else if VALUE_FLAGS.split(' ').any(|f| f == name) {
                let v = it.next().ok_or(format!("error: `{name}` needs a value"))?;
                flags.push((name.to_string(), Some(v.clone())));
            } else {
                flags.push((name.to_string(), inline));
            }
        }
        let has = |f: &str| flags.iter().any(|(n, _)| n == f);
        let mode = match positional.first().map(String::as_str) {
            Some(
                "check-profile" | "check-checkpoint" | "fuzz" | "dump-trace" | "gen-corpus"
                | "sweep" | "merge-shards" | "render",
            ) => positional.remove(0),
            _ if has("--spec") => String::from("--spec"),
            _ if has("--dump-spec") => String::from("--dump-spec"),
            _ => String::from("experiments"),
        };
        let allowed = mode_flags(&mode);
        if let Some((name, _)) = flags
            .iter()
            .find(|(n, _)| !allowed.split(' ').any(|f| f == n))
        {
            return Err(format!(
                "error: `{mode}` does not take `{name}`; `experiments list` shows the usage"
            ));
        }
        Ok(Cli {
            mode,
            flags,
            positional,
        })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == flag)
    }

    /// The value of `flag`, if given.
    fn value(&self, flag: &str) -> Option<String> {
        let found = self.flags.iter().find(|(n, _)| n == flag);
        found.and_then(|(_, v)| v.clone())
    }

    /// Exactly `N` positional arguments, or exit 2 naming `what`.
    fn positional<const N: usize>(&self, what: &str) -> [String; N] {
        let args = self.positional.clone().try_into();
        args.unwrap_or_else(|_| fail(2, &format!("error: {} takes {what}", self.mode)))
    }
}

/// The experiment `id` names — a grid figure when `grid` is set — or exit
/// 2 naming the id.
fn lookup(id: &str, grid: bool) -> Experiment {
    match experiment(id) {
        Some(e) if !grid || e.grid(false).is_some() => e,
        Some(_) => fail(2, &format!("error: `{id}` is not a grid figure")),
        None => fail(
            2,
            &format!("error: unknown experiment `{id}`; `experiments list` shows the ids"),
        ),
    }
}

/// Reads `path`, or exits 1.
fn read(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(1, &format!("error: cannot read `{path}`: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args).unwrap_or_else(|e| fail(2, &e));
    let quick = cli.has("--quick");
    let profile = cli
        .has("--profile")
        .then(|| cli.value("--profile").unwrap_or("profile.jsonl".into()));

    match cli.mode.as_str() {
        // Stream-verification mode: sanity-check a recorded profile.
        "check-profile" => {
            let [path] = cli.positional("a file argument");
            match check_stream(&read(&path)) {
                Ok(s) => println!(
                    "{path}: OK — {} lines ({} span opens, {} closes, {} counters, \
                     {} progress)",
                    s.lines, s.span_opens, s.span_closes, s.counters, s.progress
                ),
                Err(e) => fail(1, &format!("{path}: INVALID — {e}")),
            }
        }
        // Checkpoint-stream verification mode: the CI gate for resumable
        // sweeps. Exit 0 only for a valid stream covering every point with
        // a non-failed record.
        "check-checkpoint" => {
            let [path] = cli.positional("a file argument");
            let s = spmlab::check_checkpoint(&read(&path))
                .unwrap_or_else(|e| fail(1, &format!("{path}: INVALID — {e}")));
            println!(
                "{path}: {} points declared, {} covered ({} ok, {} degraded, {} failed)",
                s.points, s.covered, s.ok, s.degraded, s.failed
            );
            if s.covered != s.points || s.failed != 0 {
                fail(
                    1,
                    &format!("{path}: INCOMPLETE — resume the run to finish it"),
                );
            }
            println!("{path}: OK — complete");
        }
        "fuzz" => run_fuzz(&cli),
        // Trace artifact: the G.721 (ADPCM with --quick) baseline's
        // ordered trace, round-trip-verified.
        "dump-trace" => {
            let [out] = cli.positional("an output path argument");
            emit(spmlab_bench::dump_trace(quick, std::path::Path::new(&out)));
        }
        // Golden-corpus regeneration: rewrites the pinned generated
        // programs + manifest (run after intentional generator or
        // timing-model changes; the corpus test diffs against these files).
        "gen-corpus" => {
            let [dir] = cli.positional("a directory argument");
            emit(spmlab_bench::fuzz::write_corpus(std::path::Path::new(&dir)));
        }
        // DSE shard run: `sweep --spec-grid grid.json [--shard k/n]
        // [--checkpoint dir] [--dry-run]`.
        "sweep" => {
            let [] = cli.positional("no positional arguments");
            let grid_path = cli
                .value("--spec-grid")
                .unwrap_or_else(|| fail(2, "error: sweep needs --spec-grid <grid.json>"));
            let shard = spmlab::Shard::parse(&cli.value("--shard").unwrap_or("0/1".into()))
                .unwrap_or_else(|e| fail(2, &format!("error: {e}")));
            let ckpt_dir = cli.value("--checkpoint").map(std::path::PathBuf::from);
            let grid_json = read(&grid_path);
            let profile_state = profile.as_deref().map(install_profile);
            let dry_run = cli.has("--dry-run");
            let result =
                spmlab_bench::dse::run_sweep(&grid_json, shard, ckpt_dir.as_deref(), dry_run);
            if let Some((mem, guards)) = profile_state {
                drop(guards);
                print!("{}", render_profile(&mem));
            }
            emit(result);
        }
        // DSE shard reassembly: `merge-shards out.jsonl a.jsonl b.jsonl ...`.
        "merge-shards" => {
            let paths: Vec<std::path::PathBuf> = cli.positional.iter().map(Into::into).collect();
            if paths.len() < 2 {
                fail(2, "error: merge-shards takes an output path and inputs");
            }
            match spmlab_bench::dse::run_merge(&paths[0], &paths[1..]) {
                Ok((report, ok)) => {
                    print!("{report}");
                    std::process::exit(i32::from(!ok));
                }
                Err(e) => fail(1, &format!("error: {e}")),
            }
        }
        // A figure from a merged or unsharded checkpoint stream of its grid.
        "render" => {
            let [id, path] = cli.positional("a figure id and a stream path");
            let text = lookup(&id, true).render(quick, &read(&path));
            emit(
                text.map(|t| format!("==== {id} ====\n{t}\n"))
                    .map_err(|e| format!("{path}: {e}")),
            );
        }
        // Single-spec reproduction mode.
        "--spec" => {
            let [] = cli.positional("no positional arguments");
            let spec = read(&cli.value("--spec").expect("the mode names its flag"));
            let bench = cli.value("--bench").unwrap_or("g721".into());
            emit(run_spec_on(&bench, &spec).map(|t| format!("{t}\n")));
        }
        // A figure's grid as one document `sweep --spec-grid` accepts.
        "--dump-spec" => {
            let [id] = cli.positional("one figure id");
            print!(
                "{}",
                lookup(&id, true).grid(quick).expect("a grid").to_json()
            );
        }
        _ => run_experiments(&cli, quick, profile),
    }
}

/// Differential fuzzing over generated workloads: `fuzz --seed-range
/// a..b [--spec file.json] [--inject-miscompile] [--repro-out f.mc]`.
fn run_fuzz(cli: &Cli) {
    let [] = cli.positional("no positional arguments");
    let range = cli.value("--seed-range").unwrap_or("0..64".into());
    let (start, end) = spmlab_bench::fuzz::parse_seed_range(&range)
        .unwrap_or_else(|e| fail(2, &format!("error: {e}")));
    let spec = cli.value("--spec").map(|path| {
        spmlab_isa::archspec::MemArchSpec::from_json(&read(&path))
            .unwrap_or_else(|e| fail(1, &format!("error: bad spec `{path}`: {e}")))
    });
    let repro_out = cli.value("--repro-out").unwrap_or("fuzz-repro.mc".into());
    let write_repro = |repro: &str| {
        if let Err(e) = std::fs::write(&repro_out, repro) {
            eprintln!("warning: cannot write repro `{repro_out}`: {e}");
        } else {
            eprintln!("shrunk repro written to {repro_out}");
        }
    };
    if cli.has("--inject-miscompile") {
        let f = spmlab_bench::fuzz::run_inject_demo(start, end, spec.as_ref())
            .unwrap_or_else(|e| fail(1, &format!("inject demo FAILED: {e}")));
        println!(
            "inject demo: caught the planted miscompile at seed {} — {}",
            f.seed, f.detail
        );
        println!(
            "minimal repro ({} lines):\n{}",
            f.repro.lines().count(),
            f.repro
        );
        write_repro(&f.repro);
        return;
    }
    let mut specs = spmlab_bench::fuzz::default_fuzz_specs();
    if let Some(s) = &spec {
        specs.push(("spec-file".into(), s.clone()));
    }
    let outcome = spmlab_bench::fuzz::run_fuzz(start, end, spec.as_ref(), &specs);
    print!(
        "{}",
        spmlab_bench::fuzz::render_fuzz_report(start, end, &outcome)
    );
    if let Some(f) = &outcome.failure {
        write_repro(&f.repro);
        std::process::exit(1);
    }
}

/// Runs the experiments named on the command line (`all`, `verify`,
/// `list`, or ids), every id checked before the first one starts.
fn run_experiments(cli: &Cli, quick: bool, profile: Option<String>) {
    let ids: Vec<&str> = cli.positional.iter().map(String::as_str).collect();
    if ids.is_empty() || ids.contains(&"list") {
        eprintln!("{}", usage());
        std::process::exit(if ids.contains(&"list") { 0 } else { 2 });
    }
    let selected: Vec<(&str, Experiment)> = if ids.contains(&"all") {
        EXPERIMENTS.map(|id| (id, lookup(id, false))).to_vec()
    } else {
        let run = ids.iter().filter(|id| **id != "verify");
        run.map(|id| (*id, lookup(id, false))).collect()
    };

    if ids.contains(&"verify") {
        let claims = verify_claims(quick).unwrap_or_else(|e| fail(1, &format!("error: {e}")));
        let mut ok = true;
        for (claim, holds) in claims {
            println!("[{}] {claim}", if holds { "PASS" } else { "FAIL" });
            ok &= holds;
        }
        std::process::exit(if ok { 0 } else { 1 });
    }

    // --profile: record the run to a JSON-lines stream and collect an
    // in-memory copy for the breakdown table. The guards keep the sinks
    // installed until the end of the run.
    let profile_state = profile.as_deref().map(install_profile);

    for (id, e) in &selected {
        let span = spmlab_obs::span_with("experiment", || id.to_string());
        let result = e.run(quick);
        drop(span);
        let text = result.unwrap_or_else(|err| fail(1, &format!("error in `{id}`: {err}")));
        println!("==== {id} ====\n{text}");
    }

    if let Some((mem, guards)) = profile_state {
        drop(guards); // flush + close the stream before reporting
        print!("{}", render_profile(&mem));
        if let Some(dest) = profile.filter(|d| d != "-") {
            println!("profile stream written to {dest}");
        }
    }
}
