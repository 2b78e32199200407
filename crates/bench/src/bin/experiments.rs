//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] all              # everything, report order
//! experiments [--quick] <id> [<id>..]    # selected experiments
//! experiments verify                     # check the paper's claims hold
//! experiments list                       # available ids
//! experiments --profile[=out.jsonl] <id> # instrumented run + phase table
//! experiments check-profile <file.jsonl> # validate a recorded stream
//! experiments --dump-spec [--quick]      # every axis point as reusable JSON
//! experiments --spec <file.json> [--bench <name>]
//!                                        # reproduce one sweep point
//! experiments --checkpoint c.jsonl hierarchy  # stream or resume per-point checkpoints
//! experiments check-checkpoint <c.jsonl>      # validate a checkpoint stream
//! experiments sweep --spec-grid grid.json --shard 0/2 --checkpoint dir
//!                                        # run one shard of a DSE grid
//! experiments sweep --spec-grid grid.json --dry-run  # count, don't run
//! experiments merge-shards out.jsonl a.jsonl b.jsonl # reassemble + frontier
//! experiments fuzz --seed-range 0..500               # differential fuzzing
//! experiments fuzz --seed-range 0..64 --inject-miscompile
//!                                        # prove the harness catches bugs
//! ```
//!
//! `--checkpoint` streams one JSON line per completed sweep point of the
//! hierarchy scenario; a run killed mid-sweep loses at most its in-flight
//! points. Both checkpointing surfaces, `--checkpoint <file> hierarchy`
//! and `sweep --checkpoint <dir>`, follow one rule: a missing (or empty,
//! or torn-header) file starts a fresh stream; an existing one is resumed
//! — its header (git revision, benchmark, spec-axis hash) must match the
//! current run, the stored points are reused bit-identically, and only
//! the missing ones are measured — so a retry loop needs only the one
//! flag. `check-checkpoint` is the strict stream gate: every line must
//! parse, and the run counts as complete only when every axis point has a
//! non-failed record.
//!
//! `--dump-spec` prints each standard sweep point as one `MemArchSpec`
//! JSON document; saving one to a file and feeding it back with `--spec`
//! reproduces that exact point (machine *and* analysis method) from the
//! command line.
//!
//! `sweep` runs one shard of a design-space grid (see the
//! `spmlab::dse` module docs): the grid JSON enumerates the space, `--shard
//! k/n` selects every n-th point, `--checkpoint <dir>` streams (and on a
//! second run resumes) `<dir>/shard-k-of-n.jsonl`, and `--dry-run` prints
//! the grid arithmetic without measuring anything. `merge-shards`
//! validates that its inputs are the complete shard set of one run,
//! writes the reassembled unsharded stream, and reports the 3-objective
//! Pareto frontier — exiting non-zero unless the merged run is complete,
//! the frontier is non-empty, and every frontier point is sound.
//!
//! `fuzz` drives the seeded MiniC generator through every differential the
//! toolchain supports (interpreter oracle, printer round-trip, simulator
//! checksum, v2-trace replay vs fresh simulation, WCET soundness — the
//! latter two at the default spec points *plus* a random machine drawn
//! deterministically per seed); the first failing
//! seed is delta-debugged to a minimal `.mc` repro written to
//! `--repro-out` (default `fuzz-repro.mc`). `--inject-miscompile` plants a
//! wrong strength-reduction into the compiled side only and demands the
//! harness catch and shrink it — the end-to-end proof the differentials
//! have teeth.
//!
//! `--profile` records every span/counter/gauge event to a JSON-lines file
//! (default `profile.jsonl`, `=-` streams to stderr) and prints a flat
//! per-phase breakdown when the run finishes. Profiled sweeps run
//! single-threaded so phase self-times add up to the wall time.

use std::sync::Arc;

use spmlab_bench::jsonl::check_stream;
use spmlab_bench::{
    dump_specs, is_experiment, run_experiment, run_spec_on, verify_claims, EXPERIMENTS,
};
use spmlab_obs::collector::MemorySink;
use spmlab_obs::jsonl::JsonlSink;

fn usage() -> String {
    format!(
        "usage: experiments [--quick] [--profile[=out.jsonl|=-]] <all|verify|{}>\n\
         \x20      experiments check-profile <file.jsonl>\n\
         \x20      experiments check-checkpoint <ckpt.jsonl>\n\
         \x20      experiments [--quick] --checkpoint <ckpt.jsonl> hierarchy\n\
         \x20      experiments --dump-spec [--quick]\n\
         \x20      experiments --spec <file.json> [--bench <name>]\n\
         \x20      experiments sweep --spec-grid <grid.json> [--shard k/n] \
         [--checkpoint <dir>] [--dry-run]\n\
         \x20      experiments merge-shards <out.jsonl> <shard.jsonl>...\n\
         \x20      experiments fuzz --seed-range <a..b> [--spec <file.json>] \
         [--inject-miscompile] [--repro-out <f.mc>]\n\
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

/// The value following `--flag`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let profile: Option<String> = args.iter().find_map(|a| {
        if a == "--profile" {
            Some("profile.jsonl".to_string())
        } else {
            a.strip_prefix("--profile=").map(str::to_string)
        }
    });

    // Stream-verification mode: sanity-check a recorded profile.
    if let Some(pos) = args.iter().position(|a| a == "check-profile") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("error: check-profile needs a file argument");
            std::process::exit(2);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                std::process::exit(1);
            }
        };
        match check_stream(&text) {
            Ok(s) => {
                println!(
                    "{path}: OK — {} lines ({} span opens, {} closes, {} counters, \
                     {} gauges, {} progress)",
                    s.lines, s.span_opens, s.span_closes, s.counters, s.gauges, s.progress
                );
                return;
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
    }

    // Checkpoint-stream verification mode: the CI gate for resumable
    // sweeps. Exit 0 only for a valid stream covering every point with a
    // non-failed record.
    if let Some(pos) = args.iter().position(|a| a == "check-checkpoint") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("error: check-checkpoint needs a file argument");
            std::process::exit(2);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                std::process::exit(1);
            }
        };
        match spmlab::check_checkpoint(&text) {
            Ok(s) => {
                println!(
                    "{path}: {} points declared, {} covered ({} ok, {} degraded, {} failed)",
                    s.points, s.covered, s.ok, s.degraded, s.failed
                );
                if s.covered == s.points && s.failed == 0 {
                    println!("{path}: OK — complete");
                    return;
                }
                eprintln!("{path}: INCOMPLETE — resume the run to finish it");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
    }

    // Differential fuzzing over generated workloads: `fuzz --seed-range
    // a..b [--spec file.json] [--inject-miscompile] [--repro-out f.mc]`.
    if args.iter().any(|a| a == "fuzz") {
        let range = flag_value(&args, "--seed-range").unwrap_or_else(|| "0..64".into());
        let (start, end) = match spmlab_bench::fuzz::parse_seed_range(&range) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let spec = flag_value(&args, "--spec").map(|path| {
            let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("error: cannot read `{path}`: {e}");
                std::process::exit(1);
            });
            spmlab_isa::archspec::MemArchSpec::from_json(&json).unwrap_or_else(|e| {
                eprintln!("error: bad spec `{path}`: {e}");
                std::process::exit(1);
            })
        });
        let repro_out = flag_value(&args, "--repro-out").unwrap_or_else(|| "fuzz-repro.mc".into());
        let write_repro = |repro: &str| {
            if let Err(e) = std::fs::write(&repro_out, repro) {
                eprintln!("warning: cannot write repro `{repro_out}`: {e}");
            } else {
                eprintln!("shrunk repro written to {repro_out}");
            }
        };
        if args.iter().any(|a| a == "--inject-miscompile") {
            match spmlab_bench::fuzz::run_inject_demo(start, end, spec.as_ref()) {
                Ok(f) => {
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
                Err(e) => {
                    eprintln!("inject demo FAILED: {e}");
                    std::process::exit(1);
                }
            }
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
        return;
    }

    // Golden-corpus regeneration: `gen-corpus <dir>` rewrites the pinned
    // generated programs + manifest (run after intentional generator or
    // timing-model changes; the corpus test diffs against these files).
    // v2-trace artifact: `dump-trace <out.bin>` serializes the G.721
    // (ADPCM with --quick) baseline's ordered trace, round-trip-verified.
    if let Some(pos) = args.iter().position(|a| a == "dump-trace") {
        let Some(out) = args.get(pos + 1) else {
            eprintln!("error: dump-trace needs an output path argument");
            std::process::exit(2);
        };
        let quick = args.iter().any(|a| a == "--quick");
        match spmlab_bench::dump_trace(quick, std::path::Path::new(out)) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(pos) = args.iter().position(|a| a == "gen-corpus") {
        let Some(dir) = args.get(pos + 1) else {
            eprintln!("error: gen-corpus needs a directory argument");
            std::process::exit(2);
        };
        match spmlab_bench::fuzz::write_corpus(std::path::Path::new(dir)) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    // DSE shard run: `sweep --spec-grid grid.json [--shard k/n]
    // [--checkpoint dir] [--dry-run]`.
    if args.iter().any(|a| a == "sweep") {
        let Some(grid_path) = flag_value(&args, "--spec-grid") else {
            eprintln!("error: sweep needs --spec-grid <grid.json>");
            std::process::exit(2);
        };
        let shard = match spmlab::Shard::parse(
            &flag_value(&args, "--shard").unwrap_or_else(|| "0/1".into()),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let dry_run = args.iter().any(|a| a == "--dry-run");
        let ckpt_dir = flag_value(&args, "--checkpoint").map(std::path::PathBuf::from);
        let grid_json = match std::fs::read_to_string(&grid_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read `{grid_path}`: {e}");
                std::process::exit(1);
            }
        };
        let profile_state = profile.as_deref().map(install_profile);
        let result = spmlab_bench::dse::run_sweep(&grid_json, shard, ckpt_dir.as_deref(), dry_run);
        if let Some((mem, guards)) = profile_state {
            drop(guards);
            print!("{}", render_profile(&mem));
        }
        match result {
            Ok(text) => {
                print!("{text}");
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    // DSE shard reassembly: `merge-shards out.jsonl a.jsonl b.jsonl ...`.
    if let Some(pos) = args.iter().position(|a| a == "merge-shards") {
        let rest: Vec<std::path::PathBuf> = args[pos + 1..]
            .iter()
            .map(std::path::PathBuf::from)
            .collect();
        if rest.len() < 2 {
            eprintln!("error: merge-shards needs an output path and at least one input");
            std::process::exit(2);
        }
        match spmlab_bench::dse::run_merge(&rest[0], &rest[1..]) {
            Ok((report, ok)) => {
                print!("{report}");
                std::process::exit(i32::from(!ok));
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    // Single-spec reproduction mode.
    if let Some(spec_path) = flag_value(&args, "--spec") {
        let bench = flag_value(&args, "--bench").unwrap_or_else(|| "g721".into());
        let json = match std::fs::read_to_string(&spec_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read `{spec_path}`: {e}");
                std::process::exit(1);
            }
        };
        match run_spec_on(&bench, &json) {
            Ok(text) => {
                println!("{text}");
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    // Spec-inventory mode: every standard axis point as reusable JSON.
    if args.iter().any(|a| a == "--dump-spec") {
        for (label, spec) in dump_specs(quick) {
            println!("// {label}");
            println!("{}", spec.to_json());
        }
        return;
    }

    // Checkpoint stream of the hierarchy scenario: created, or resumed
    // when the file exists.
    let checkpoint = flag_value(&args, "--checkpoint").map(std::path::PathBuf::from);

    // Skip the values of value-taking flags when collecting experiment ids.
    let mut ids: Vec<&str> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--spec" || a == "--bench" || a == "--checkpoint" {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            ids.push(a.as_str());
        }
    }

    if ids.is_empty() || ids.contains(&"list") {
        eprintln!("{}", usage());
        std::process::exit(if ids.contains(&"list") { 0 } else { 2 });
    }

    // Every id is checked before the first experiment starts.
    if let Some(unknown) = ids
        .iter()
        .find(|id| !matches!(**id, "all" | "verify") && !is_experiment(id))
    {
        eprintln!("error: unknown experiment `{unknown}`; `experiments list` shows the ids");
        std::process::exit(2);
    }

    if ids.contains(&"verify") {
        match verify_claims(quick) {
            Ok(claims) => {
                let mut ok = true;
                for (claim, holds) in claims {
                    println!("[{}] {claim}", if holds { "PASS" } else { "FAIL" });
                    ok &= holds;
                }
                std::process::exit(if ok { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    let selected: Vec<&str> = if ids.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        ids
    };

    // --profile: record the run to a JSON-lines stream and collect an
    // in-memory copy for the breakdown table. The guards keep the sinks
    // installed until the end of main.
    let profile_state = profile.as_deref().map(install_profile);

    for id in &selected {
        let span = spmlab_obs::span_labeled("experiment", id);
        let result = run_experiment(id, quick, checkpoint.as_deref());
        drop(span);
        match result {
            Ok(text) => {
                println!("==== {id} ====");
                println!("{text}");
            }
            Err(e) => {
                eprintln!("error in `{id}`: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some((mem, guards)) = profile_state {
        drop(guards); // flush + close the stream before reporting
        print!("{}", render_profile(&mem));
        if let Some(dest) = &profile {
            if dest != "-" {
                println!("profile stream written to {dest}");
            }
        }
    }
}
