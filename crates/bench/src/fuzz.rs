//! Differential fuzzing over generated MiniC workloads.
//!
//! [`run_fuzz`] drives the seeded generator ([`spmlab_workloads::gen`])
//! through every cross-check the toolchain supports, one seed at a time:
//!
//! 1. **Interp reference** — the AST runs under [`spmlab_cc::interp`]
//!    within its step estimate; its `checksum` global is the oracle.
//! 2. **Printer round-trip** — the emitted `.mc` source re-parses,
//!    re-prints to the identical text (fixed point), and compiles to the
//!    same object module as the direct AST path.
//! 3. **Simulator differential** — the program links and runs on the
//!    uncached machine; the simulated `checksum` must equal the oracle.
//! 4. **Replay differential** — the run is re-recorded as an ordered
//!    event trace and replayed on every spec machine; replay must
//!    be bit-identical to fresh simulation (cycles and every
//!    [`spmlab_sim::MemStats`] counter) on each.
//! 5. **Soundness** — a [`Pipeline`] over the generated benchmark runs
//!    at every default spec point (uncached, unified L1, split L1 + L2,
//!    and a write-back variant); `sim_cycles ≤ wcet_cycles` must hold at
//!    each, and the pipeline's own checksum verification must pass.
//!
//! Stages 4 and 5 also cover a **per-seed random machine**
//! ([`random_spec_for_seed`]): a splitmix64 stream keyed by the seed
//! draws a fresh `MemArchSpec` — random L1 shape/size/associativity/
//! replacement/write policy, optional (possibly write-back) L2, random
//! main-memory timing with an optional store buffer — so the fuzzer
//! explores the machine space alongside the program space while staying
//! reproducible from the seed alone.
//!
//! On the first failing seed the integrated delta-debugging shrinker
//! ([`spmlab_workloads::gen::shrink`]) minimises the program under "same
//! stage still fails" and the report carries the minimal `.mc` repro.
//!
//! [`run_inject_demo`] is the end-to-end proof that the harness can
//! actually catch a miscompile: it plants the classic wrong
//! `x / 2^k → x >> k` strength reduction
//! ([`spmlab_workloads::gen::inject_miscompile`]) into the *compiled*
//! side only, scans seeds until the differential fires, and shrinks the
//! witness to a ≤ 30-line repro.

use spmlab::pipeline::Pipeline;
use spmlab_cc::ast::Program;
use spmlab_cc::{codegen, compile, interp, link, parse_source, print, sema, SpmAssignment};
use spmlab_isa::archspec::MemArchSpec;
use spmlab_isa::cachecfg::{CacheConfig, CacheScope, Replacement, WritePolicy};
use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig, StoreBuffer, L1};
use spmlab_isa::mem::MemoryMap;
use spmlab_sim::machine::{simulate, SimOptions};
use spmlab_sim::{simulate_with_trace, MachineConfig};
use spmlab_workloads::gen::{
    estimate_steps, generate_for_seed, inject_miscompile, reference_arch, shrink, FootprintClass,
    GeneratedProgram,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// One failing seed, minimised.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The generating seed.
    pub seed: u64,
    /// Which cross-check failed (e.g. `sim-vs-interp`, `unsound-bound`).
    pub stage: &'static str,
    /// Human-readable mismatch details from the original (unshrunk) run.
    pub detail: String,
    /// Minimal `.mc` source that still fails the same stage.
    pub repro: String,
}

/// Outcome of a fuzzing run: either all seeds passed or the first
/// failure, shrunk.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Seeds actually checked (stops early on failure).
    pub seeds_run: u64,
    /// Per-footprint-class seed counts, in [`FootprintClass::ALL`] order.
    pub class_counts: [u64; 4],
    /// The first failure, if any.
    pub failure: Option<FuzzFailure>,
}

/// Parses an `a..b` seed range (half-open, `a < b`).
///
/// # Errors
///
/// A description of the malformed range.
pub fn parse_seed_range(text: &str) -> Result<(u64, u64), String> {
    let (a, b) = text
        .split_once("..")
        .ok_or_else(|| format!("`{text}` is not a range; expected `a..b`"))?;
    let lo: u64 = a
        .trim()
        .parse()
        .map_err(|_| format!("`{a}` is not a seed"))?;
    let hi: u64 = b
        .trim()
        .parse()
        .map_err(|_| format!("`{b}` is not a seed"))?;
    if lo >= hi {
        return Err(format!("empty seed range {lo}..{hi}"));
    }
    Ok((lo, hi))
}

/// The default spec points every generated benchmark is pipelined
/// through: the two paper machines plus a two-level hierarchy in both
/// write policies.
#[must_use]
pub fn default_fuzz_specs() -> Vec<(String, MemArchSpec)> {
    let wb = {
        let mut h = MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048));
        if let L1::Split { d: Some(d), .. } = &mut h.l1 {
            *d = d.clone().write_back();
        }
        h.l2 = h.l2.map(CacheConfig::write_back);
        h
    };
    vec![
        (
            "uncached".into(),
            MemArchSpec::from_hierarchy(&MemHierarchyConfig::uncached()),
        ),
        (
            "unified-l1-512".into(),
            MemArchSpec::from_hierarchy(&MemHierarchyConfig::l1_only(CacheConfig::unified(512))),
        ),
        (
            "split-l1+l2-wt".into(),
            MemArchSpec::from_hierarchy(
                &MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048)),
            ),
        ),
        ("split-l1+l2-wb".into(), MemArchSpec::from_hierarchy(&wb)),
    ]
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_cache(state: &mut u64, scope: CacheScope) -> CacheConfig {
    let size = 64u32 << (splitmix64(state) % 5); // 64..=1024
    let assoc = 1u32 << (splitmix64(state) % 3); // 1/2/4-way; 64/16 = 4 lines
    let replacement = match splitmix64(state) % 3 {
        0 => Replacement::Lru,
        1 => Replacement::RoundRobin,
        _ => Replacement::Random {
            seed: splitmix64(state) % 1024,
        },
    };
    let write_policy = if splitmix64(state).is_multiple_of(2) {
        WritePolicy::WriteThrough
    } else {
        WritePolicy::WriteBack
    };
    CacheConfig {
        scope,
        write_policy,
        ..CacheConfig::set_assoc(size, assoc, replacement)
    }
}

/// A deterministic per-seed machine: a splitmix64 stream keyed by the
/// fuzz seed draws every choice, so a failing seed rebuilds the same
/// machine on re-run with no state outside the seed. Roughly half the
/// drawn machines are write-policy-dependent (write-back levels or
/// store buffers), which keeps the replay differential exercising the
/// trace's ordered write events.
#[must_use]
pub fn random_spec_for_seed(seed: u64) -> (String, MemArchSpec) {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let s = &mut state;
    let l1 = match splitmix64(s) % 3 {
        0 => L1::None,
        1 => L1::Unified(random_cache(s, CacheScope::Unified)),
        _ => L1::Split {
            i: Some(random_cache(s, CacheScope::InstrOnly)),
            d: Some(random_cache(s, CacheScope::DataOnly)),
        },
    };
    let l2 = (splitmix64(s).is_multiple_of(2)).then(|| {
        let mut l2 = CacheConfig::l2(512 << (splitmix64(s) % 4));
        if splitmix64(s).is_multiple_of(2) {
            l2 = l2.write_back();
        }
        l2
    });
    let mut main = if splitmix64(s).is_multiple_of(2) {
        MainMemoryTiming::table1()
    } else {
        MainMemoryTiming::dram(2 + splitmix64(s) % 10)
    };
    if splitmix64(s).is_multiple_of(3) {
        main = main.with_store_buffer(StoreBuffer::new(
            1 + (splitmix64(s) % 4) as u32,
            1 + splitmix64(s) % 9,
        ));
    }
    let h = MemHierarchyConfig { l1, l2, main };
    (
        format!("random[{}]", h.label()),
        MemArchSpec::from_hierarchy(&h),
    )
}

/// Interprets a program and reads its `checksum` global.
fn interp_checksum(p: &Program) -> Result<i32, String> {
    let max_steps = estimate_steps(p) * 4 + 100_000;
    let out = interp::run(p, max_steps).map_err(|e| format!("interp failed: {e}"))?;
    out.globals
        .get("checksum")
        .and_then(|v| v.first())
        .copied()
        .ok_or_else(|| "program has no checksum global".into())
}

/// Compiles and links `.mc` source without a scratchpad. The generator
/// bakes the input vector into the `input` array's initialiser, so no
/// link-time patching is needed.
fn link_source(source: &str) -> Result<spmlab_cc::LinkedProgram, String> {
    let module = compile(source).map_err(|e| format!("compile failed: {e}"))?;
    link(&module, &MemoryMap::no_spm(), &SpmAssignment::none())
        .map_err(|e| format!("link failed: {e}"))
}

/// Compiles `.mc` source, links it uncached, simulates it and reads the
/// `checksum` global.
fn sim_checksum_of_source(source: &str) -> Result<i32, String> {
    let linked = link_source(source)?;
    let res = simulate(
        &linked.exe,
        &MachineConfig::uncached(),
        &SimOptions::default(),
    )
    .map_err(|e| format!("simulation failed: {e}"))?;
    res.read_global(&linked.exe, "checksum")
        .ok_or_else(|| "no checksum symbol in image".into())
}

/// Runs every cross-check for one generated program. `Err((stage,
/// detail))` identifies the first failing stage — the shrinker predicate
/// keys on the stage name.
fn check_program(
    g: &GeneratedProgram,
    specs: &[(String, MemArchSpec)],
) -> Result<(), (&'static str, String)> {
    // 1. Interp reference semantics.
    let expected = interp_checksum(&g.program).map_err(|e| ("interp", e))?;

    // 2. Printer round-trip: fixed point + identical object code.
    let reparsed = parse_source(&g.source)
        .map_err(|e| ("reparse", format!("printed source does not re-parse: {e}")))?;
    let reprinted = print(&reparsed);
    if reprinted != g.source {
        return Err((
            "print-fixed-point",
            "print ∘ parse is not a fixed point of the printed source".into(),
        ));
    }
    let direct = sema::check(&g.program)
        .map_err(|e| ("sema", format!("direct AST rejected: {e}")))
        .and_then(|t| {
            codegen::generate(&t).map_err(|e| ("sema", format!("direct AST codegen: {e}")))
        })?;
    let via_text = sema::check(&reparsed)
        .map_err(|e| ("reparse-sema", format!("reparsed AST rejected: {e}")))
        .and_then(|t| {
            codegen::generate(&t).map_err(|e| ("reparse-sema", format!("reparsed codegen: {e}")))
        })?;
    if direct != via_text {
        return Err((
            "reparse-compile-differs",
            "direct AST and reparsed source compile to different object modules".into(),
        ));
    }

    // 3. Simulator differential against the interp oracle.
    let linked = link_source(&g.source).map_err(|e| ("sim", e))?;
    let uncached = simulate(
        &linked.exe,
        &MachineConfig::uncached(),
        &SimOptions::default(),
    )
    .map_err(|e| ("sim", format!("simulation failed: {e}")))?;
    let got = uncached
        .read_global(&linked.exe, "checksum")
        .ok_or_else(|| ("sim", "no checksum symbol in image".to_string()))?;
    if got != expected {
        return Err((
            "sim-vs-interp",
            format!("interp checksum {expected}, simulated checksum {got}"),
        ));
    }

    // 4. Replay differential: the ordered trace recorded on the
    // uncached machine must replay bit-identically to fresh simulation
    // on every spec machine — cycles and all MemStats counters,
    // write-back/store-buffer machinery included.
    let (_, trace) = simulate_with_trace(&linked.exe, &SimOptions::default())
        .map_err(|e| ("trace-record", format!("trace recording failed: {e}")))?;
    for (label, spec) in specs {
        let h = spec.hierarchy();
        let (cycles, stats) = trace
            .replay(&h)
            .map_err(|e| ("replay-vs-sim", format!("[{label}] replay failed: {e}")))?;
        let fresh = simulate(
            &linked.exe,
            &MachineConfig::with_hierarchy(h.clone()),
            &SimOptions::default(),
        )
        .map_err(|e| ("replay-vs-sim", format!("[{label}] simulation failed: {e}")))?;
        if cycles != fresh.cycles {
            return Err((
                "replay-vs-sim",
                format!(
                    "[{label}] replay {} cycles, fresh simulation {} cycles",
                    cycles, fresh.cycles
                ),
            ));
        }
        if stats != fresh.mem_stats {
            return Err((
                "replay-vs-sim",
                format!(
                    "[{label}] replay stats {stats:?} differ from fresh {:?}",
                    fresh.mem_stats
                ),
            ));
        }
    }

    // 5. Pipeline soundness at every spec point (the pipeline re-verifies
    // the simulated checksum against the interp oracle internally).
    let bench = g.benchmark();
    let pipeline = Pipeline::new(&bench).map_err(|e| ("pipeline", e.to_string()))?;
    for (label, spec) in specs {
        let r = pipeline
            .run(spec)
            .map_err(|e| ("pipeline", format!("[{label}] {e}")))?;
        if r.sim_cycles > r.wcet_cycles {
            return Err((
                "unsound-bound",
                format!(
                    "[{label}] simulated {} cycles exceeds WCET bound {}",
                    r.sim_cycles, r.wcet_cycles
                ),
            ));
        }
    }
    Ok(())
}

/// Rebuilds a [`GeneratedProgram`] around a shrunk AST so the full check
/// can re-run on it. Input and class are inherited from the original.
fn rebuild(g: &GeneratedProgram, p: &Program) -> GeneratedProgram {
    GeneratedProgram {
        seed: g.seed,
        class: g.class,
        program: p.clone(),
        source: print(p),
        input: Arc::clone(&g.input),
        steps_estimate: estimate_steps(p),
    }
}

/// Fuzzes seeds `start..end` (generated against `arch`, or the
/// [`reference_arch`] if `None`), pipelining each through `specs` plus
/// a per-seed random machine ([`random_spec_for_seed`]). Stops at the
/// first failure and shrinks it to a minimal repro.
#[must_use]
pub fn run_fuzz(
    start: u64,
    end: u64,
    arch: Option<&MemArchSpec>,
    specs: &[(String, MemArchSpec)],
) -> FuzzOutcome {
    let reference = reference_arch();
    let arch = arch.unwrap_or(&reference);
    let mut class_counts = [0u64; 4];
    let mut seeds_run = 0;
    for seed in start..end {
        let g = generate_for_seed(seed, arch);
        seeds_run += 1;
        class_counts[(seed % 4) as usize] += 1;
        let mut seed_specs = specs.to_vec();
        seed_specs.push(random_spec_for_seed(seed));
        if let Err((stage, detail)) = check_program(&g, &seed_specs) {
            let small = shrink(
                &g.program,
                |p| matches!(check_program(&rebuild(&g, p), &seed_specs), Err((s, _)) if s == stage),
            );
            return FuzzOutcome {
                seeds_run,
                class_counts,
                failure: Some(FuzzFailure {
                    seed,
                    stage,
                    detail,
                    repro: print(&small),
                }),
            };
        }
    }
    FuzzOutcome {
        seeds_run,
        class_counts,
        failure: None,
    }
}

/// Renders a fuzz outcome as the CLI report.
#[must_use]
pub fn render_fuzz_report(start: u64, end: u64, outcome: &FuzzOutcome) -> String {
    let mut out = String::new();
    match &outcome.failure {
        None => {
            let _ = writeln!(
                out,
                "fuzz {start}..{end}: OK — {} seeds, every differential agreed",
                outcome.seeds_run
            );
            for (class, n) in FootprintClass::ALL.iter().zip(outcome.class_counts) {
                let _ = writeln!(out, "  {:>14}: {n} seeds", class.label());
            }
        }
        Some(f) => {
            let _ = writeln!(
                out,
                "fuzz {start}..{end}: FAILED at seed {} (stage `{}`) after {} seeds",
                f.seed, f.stage, outcome.seeds_run
            );
            let _ = writeln!(out, "  {}", f.detail);
            let _ = writeln!(
                out,
                "  minimal repro ({} lines):\n{}",
                f.repro.lines().count(),
                f.repro
            );
        }
    }
    out
}

/// End-to-end harness proof: plant the `x / 2^k → x >> k` miscompile
/// into the compiled side, scan `start..end` for a seed whose input
/// drives a negative dividend through it, and shrink the witness.
///
/// # Errors
///
/// When no seed in the range triggers the planted bug, or the shrunk
/// repro exceeds 30 lines — both mean the harness lost its teeth.
pub fn run_inject_demo(
    start: u64,
    end: u64,
    arch: Option<&MemArchSpec>,
) -> Result<FuzzFailure, String> {
    let reference = reference_arch();
    let arch = arch.unwrap_or(&reference);

    // The differential: interp the original, simulate the injected
    // program through the real compile → link → simulate path.
    let diverges = |p: &Program| -> bool {
        let buggy = inject_miscompile(p);
        if buggy == *p {
            return false;
        }
        match (interp_checksum(p), sim_checksum_of_source(&print(&buggy))) {
            (Ok(a), Ok(b)) => a != b,
            _ => false,
        }
    };

    for seed in start..end {
        let g = generate_for_seed(seed, arch);
        if !diverges(&g.program) {
            continue;
        }
        let expected = interp_checksum(&g.program).map_err(|e| e.to_string())?;
        let got = sim_checksum_of_source(&print(&inject_miscompile(&g.program)))
            .map_err(|e| e.to_string())?;
        let small = shrink(&g.program, diverges);
        let repro = print(&small);
        let lines = repro.lines().count();
        if lines > 30 {
            return Err(format!(
                "shrunk repro for seed {seed} is still {lines} lines (> 30):\n{repro}"
            ));
        }
        return Ok(FuzzFailure {
            seed,
            stage: "injected-miscompile",
            detail: format!(
                "planted x/2^k → x>>k: interp checksum {expected}, miscompiled simulation {got}"
            ),
            repro,
        });
    }
    Err(format!(
        "no seed in {start}..{end} triggered the planted miscompile — widen the range"
    ))
}

// ---------------------------------------------------------------------
// Golden corpus: pinned seeds with stored checksums and cycle counts.
// ---------------------------------------------------------------------

/// The seeds pinned in `tests/corpus/` — three per footprint class.
pub const CORPUS_SEEDS: [u64; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

/// One pinned corpus program with its measured invariants.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The generating seed.
    pub seed: u64,
    /// Benchmark name (`gen-{seed:04x}-{class}` — also the `.mc` stem).
    pub name: String,
    /// The program's `.mc` source.
    pub source: String,
    /// Final `checksum` global on the uncached machine.
    pub checksum: i32,
    /// Simulated cycles on the uncached machine.
    pub uncached_cycles: u64,
    /// WCET bound for the uncached machine.
    pub wcet_cycles: u64,
}

/// Generates one corpus entry: the program for `seed` (against the
/// [`reference_arch`]) plus its simulated checksum, cycle count and
/// uncached WCET bound.
///
/// # Errors
///
/// Compile/link/simulation/analysis failures (generator bugs).
pub fn corpus_entry(seed: u64) -> Result<CorpusEntry, String> {
    let g = generate_for_seed(seed, &reference_arch());
    let module = compile(&g.source).map_err(|e| format!("seed {seed}: compile: {e}"))?;
    let linked = link(&module, &MemoryMap::no_spm(), &SpmAssignment::none())
        .map_err(|e| format!("seed {seed}: link: {e}"))?;
    let res = simulate(
        &linked.exe,
        &MachineConfig::uncached(),
        &SimOptions::default(),
    )
    .map_err(|e| format!("seed {seed}: simulate: {e}"))?;
    let checksum = res
        .read_global(&linked.exe, "checksum")
        .ok_or_else(|| format!("seed {seed}: no checksum symbol"))?;
    let wcet = spmlab_wcet::analyze(
        &linked.exe,
        &spmlab_wcet::WcetConfig::with_hierarchy(MemHierarchyConfig::uncached()),
        &linked.annotations,
    )
    .map_err(|e| format!("seed {seed}: wcet: {e}"))?;
    Ok(CorpusEntry {
        seed,
        name: g.name(),
        source: g.source,
        checksum,
        uncached_cycles: res.cycles,
        wcet_cycles: wcet.wcet_cycles,
    })
}

/// Renders the corpus manifest (tab-separated, one line per entry).
#[must_use]
pub fn render_corpus_manifest(entries: &[CorpusEntry]) -> String {
    let mut out = String::from("# seed\tname\tchecksum\tuncached_cycles\twcet_cycles\n");
    for e in entries {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            e.seed, e.name, e.checksum, e.uncached_cycles, e.wcet_cycles
        );
    }
    out
}

/// Writes the full pinned corpus (`.mc` sources + `manifest.tsv`) into
/// `dir`, creating it if needed.
///
/// # Errors
///
/// Generation failures or IO errors, as text.
pub fn write_corpus(dir: &std::path::Path) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for seed in CORPUS_SEEDS {
        let e = corpus_entry(seed)?;
        let path = dir.join(format!("{}.mc", e.name));
        std::fs::write(&path, &e.source)
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        entries.push(e);
    }
    let manifest = dir.join("manifest.tsv");
    std::fs::write(&manifest, render_corpus_manifest(&entries))
        .map_err(|e| format!("cannot write {}: {e}", manifest.display()))?;
    Ok(format!(
        "wrote {} programs + manifest.tsv to {}\n",
        entries.len(),
        dir.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_range_parses() {
        assert_eq!(parse_seed_range("0..64"), Ok((0, 64)));
        assert_eq!(parse_seed_range(" 3 .. 9 "), Ok((3, 9)));
        assert!(parse_seed_range("5").is_err());
        assert!(parse_seed_range("9..3").is_err());
        assert!(parse_seed_range("a..b").is_err());
    }

    #[test]
    fn random_specs_are_deterministic_and_valid() {
        for seed in 0..64 {
            let (label_a, a) = random_spec_for_seed(seed);
            let (label_b, b) = random_spec_for_seed(seed);
            assert_eq!(label_a, label_b, "seed {seed}: label must be stable");
            assert_eq!(a, b, "seed {seed}: spec must be stable");
            a.hierarchy().validate().unwrap();
        }
        // The stream must actually vary the machines and keep a healthy
        // share of write-policy-dependent ones for the replay stage.
        let wpd = (0..64)
            .filter(|&s| {
                random_spec_for_seed(s)
                    .1
                    .hierarchy()
                    .write_policy_dependent()
            })
            .count();
        assert!(
            (8..64).contains(&wpd),
            "expected a mixed machine population, got {wpd}/64 write-policy-dependent"
        );
    }

    #[test]
    fn clean_seeds_fuzz_green() {
        let specs = default_fuzz_specs();
        let outcome = run_fuzz(0, 6, None, &specs);
        assert!(
            outcome.failure.is_none(),
            "clean seeds failed: {:?}",
            outcome.failure
        );
        assert_eq!(outcome.seeds_run, 6);
    }

    #[test]
    fn injected_miscompile_shrinks_to_small_repro() {
        let f = run_inject_demo(0, 64, None).expect("inject demo must find its planted bug");
        assert_eq!(f.stage, "injected-miscompile");
        let lines = f.repro.lines().count();
        assert!(
            lines <= 30,
            "repro should be ≤ 30 lines, got {lines}:\n{}",
            f.repro
        );
        // The witness must still reproduce through the real pipeline.
        let p = parse_source(&f.repro).expect("repro parses");
        let good = interp_checksum(&p).expect("repro interps");
        let bad = sim_checksum_of_source(&print(&inject_miscompile(&p))).expect("repro simulates");
        assert_ne!(good, bad, "shrunk repro no longer diverges");
    }
}
