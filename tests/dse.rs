//! Integration suite for the design-space-exploration engine: sharding
//! must be invisible (a 2-shard split of a G.721 grid merges
//! byte-identical to the unsharded run's normal form, frontier
//! included), a killed
//! shard must resume to the same bytes, and the incremental Pareto
//! frontier must agree with a brute-force O(n²) reference on random
//! point sets. A figure rendered from its grid's merged shard streams
//! prints exactly what the direct run prints, and a mixed grid's records
//! match their golden byte for byte.

use spmlab::dse::executor::{shard_header, Shard};
use spmlab::dse::frontier::{dominates, Frontier, FrontierPoint};
use spmlab::dse::{merge_texts, GridSpec};
use spmlab::pipeline::Pipeline;
use spmlab::sweep::{spec_sweep_with_session, SweepSession};
use spmlab::{check_checkpoint, MemArchSpec};
use spmlab_bench::dse::run_sweep;
use spmlab_workloads::G721;
use std::path::Path;
use std::sync::OnceLock;

/// One shared G.721 pipeline — the prepare step (compile, link, baseline
/// interpretation) is the expensive part and identical for every test.
fn pipeline() -> &'static Pipeline {
    static PIPELINE: OnceLock<Pipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| Pipeline::new(&G721).unwrap())
}

/// A small but heterogeneous G.721 grid: scratchpads, caches, a
/// two-level point, and two main-memory timings (8 distinct points).
fn small_grid() -> GridSpec {
    GridSpec::from_json(
        r#"{
            "benchmark": "g721",
            "spm_size": [0, 1024],
            "l1_size": [0, 1024],
            "l2_size": [0, 4096],
            "main_latency": [0, 10]
        }"#,
    )
    .unwrap()
}

/// Runs one shard of `axis` into `dir`, returning the stream path.
fn run_shard(axis: &[MemArchSpec], shard: Shard, dir: &Path) -> std::path::PathBuf {
    let header = shard_header("test-rev", "g721", axis, shard);
    let path = dir.join(format!("shard-{}-of-{}.jsonl", shard.index, shard.count));
    let session = SweepSession::open(&path, &header).unwrap();
    let outcomes = spec_sweep_with_session(pipeline(), &shard.take(axis), &session).unwrap();
    assert!(
        outcomes.iter().all(|o| !o.outcome.is_failed()),
        "shard {shard} had failed points"
    );
    path
}

#[test]
fn two_shard_grid_merges_byte_identical_to_unsharded() {
    let dir = tempdir("dse-2shard");
    let (axis, stats) = small_grid().axis().unwrap();
    assert!(stats.points >= 6, "grid too small to be a meaningful test");

    let full = run_shard(&axis, Shard::single(), &dir);
    let s0 = run_shard(&axis, Shard { index: 0, count: 2 }, &dir);
    let s1 = run_shard(&axis, Shard { index: 1, count: 2 }, &dir);

    let full_text = std::fs::read_to_string(&full).unwrap();
    let t0 = std::fs::read_to_string(&s0).unwrap();
    let t1 = std::fs::read_to_string(&s1).unwrap();
    // Shard order must not matter.
    let merged = merge_texts(&[&t1, &t0]).unwrap();
    let normalised = merge_texts(&[&full_text]).unwrap();

    assert_eq!(
        merged.to_jsonl(),
        normalised.to_jsonl(),
        "merged bytes differ"
    );
    // The raw stream is in completion order (flushed per point), so byte
    // equality is defined on the merged normal form, which must be a
    // fixed point of the merge.
    assert_eq!(
        merge_texts(&[&normalised.to_jsonl()]).unwrap().to_jsonl(),
        normalised.to_jsonl(),
        "normal form is not a fixed point of the merge"
    );
    // The frontier — points, order, rendering — is identical too.
    assert_eq!(merged.frontier(), normalised.frontier());
    assert_eq!(merged.frontier().render(), normalised.frontier().render());
    assert!(!merged.frontier().is_empty());
    // Soundness at every frontier point.
    for p in merged.frontier().points() {
        assert!(
            p.sim_cycles <= p.wcet_cycles,
            "unsound frontier point {}",
            p.label
        );
    }
}

#[test]
fn killed_shard_resumes_to_the_same_bytes() {
    let dir = tempdir("dse-kill");
    let (axis, _) = small_grid().axis().unwrap();
    let shard0 = Shard { index: 0, count: 2 };
    let shard1 = Shard { index: 1, count: 2 };

    // Reference: both shards run cleanly.
    let clean_dir = dir.join("clean");
    std::fs::create_dir_all(&clean_dir).unwrap();
    let c0 = run_shard(&axis, shard0, &clean_dir);
    let c1 = run_shard(&axis, shard1, &clean_dir);
    let clean = merge_texts(&[
        &std::fs::read_to_string(&c0).unwrap(),
        &std::fs::read_to_string(&c1).unwrap(),
    ])
    .unwrap();

    // Kill: truncate shard 0's stream to the header, one record, and a
    // torn half-line — the exact artifact of a SIGKILL mid-write.
    let kill_dir = dir.join("killed");
    std::fs::create_dir_all(&kill_dir).unwrap();
    let k0 = run_shard(&axis, shard0, &kill_dir);
    let text = std::fs::read_to_string(&k0).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 3,
        "need at least two records to simulate a kill"
    );
    let torn = format!(
        "{}\n{}\n{}",
        lines[0],
        lines[1],
        &lines[2][..lines[2].len() / 2]
    );
    std::fs::write(&k0, torn).unwrap();

    // Resume re-runs only the missing points; the merge must be
    // byte-identical to the clean run.
    let k0 = run_shard(&axis, shard0, &kill_dir);
    let k1 = run_shard(&axis, shard1, &kill_dir);
    let resumed = merge_texts(&[
        &std::fs::read_to_string(&k0).unwrap(),
        &std::fs::read_to_string(&k1).unwrap(),
    ])
    .unwrap();
    assert_eq!(resumed.to_jsonl(), clean.to_jsonl());
    assert_eq!(resumed.frontier(), clean.frontier());
}

/// A kill between creating a shard stream and writing its header leaves
/// an empty file or a torn header line: `run_sweep` starts such a stream
/// afresh and completes it, while a complete header from another run is
/// still refused and its file left as it was.
#[test]
fn torn_checkpoint_headers_restart_and_foreign_headers_are_refused() {
    let dir = tempdir("dse-torn-header");
    let grid_json = r#"{"benchmark": "insertsort", "l1_size": [0, 256, 1024]}"#;
    let shard = Shard { index: 0, count: 2 };
    let (axis, _) = GridSpec::from_json(grid_json).unwrap().axis().unwrap();
    let path = dir.join("shard-0-of-2.jsonl");
    for stub in ["", "{\"ckpt_ver"] {
        std::fs::write(&path, stub).unwrap();
        let report = run_sweep(grid_json, shard, Some(&dir), false)
            .unwrap_or_else(|e| panic!("{stub:?}: {e}"));
        assert!(report.contains("(0 resumed)"), "{stub:?}: {report}");
        let stats = check_checkpoint(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(stats.covered, stats.points, "{stub:?}");
        assert_eq!(stats.failed, 0, "{stub:?}");
    }

    let foreign = format!(
        "{}\n",
        shard_header("another-rev", "insertsort", &axis, shard).to_json_line()
    );
    std::fs::write(&path, &foreign).unwrap();
    let err = run_sweep(grid_json, shard, Some(&dir), false).unwrap_err();
    assert!(
        err.starts_with("checkpoint: ") && err.contains("header mismatch"),
        "{err}"
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), foreign);
}

/// A 216-point ADPCM grid mixing scratchpads, write-through and
/// write-back L1/L2 caches, main latencies and store buffers (168 points
/// measured, 48 sharing a measurement) sweeps in process to records
/// byte-identical to the pinned golden.
#[test]
fn mixed_grid_records_match_the_golden() {
    let dir = tempdir("dse-mixed");
    let grid_json = include_str!("../examples/grid_mixed.json");
    let report = run_sweep(grid_json, Shard::single(), Some(&dir), false).unwrap();
    assert!(report.contains("216 ok, 0 degraded, 0 failed"), "{report}");
    let stream = std::fs::read_to_string(dir.join("shard-0-of-1.jsonl")).unwrap();
    let merged = merge_texts(&[&stream]).unwrap().to_jsonl();
    let records = merged.split_once('\n').unwrap().1;
    assert_eq!(records, include_str!("grid_mixed_merged.jsonl"));
}

/// Brute-force O(n²) Pareto reference: a point survives iff no other
/// point dominates it and it is not a duplicate of an earlier survivor.
fn pareto_reference(points: &[FrontierPoint]) -> Vec<FrontierPoint> {
    let mut out: Vec<FrontierPoint> = Vec::new();
    for p in points {
        if p.sim_cycles == 0 {
            continue;
        }
        if points.iter().any(|q| dominates(q, p)) {
            continue;
        }
        if out.contains(p) {
            continue;
        }
        out.push(p.clone());
    }
    out.sort_by(|a, b| {
        (a.sim_cycles, a.wcet_cycles, &a.label, a.index).cmp(&(
            b.sim_cycles,
            b.wcet_cycles,
            &b.label,
            b.index,
        ))
    });
    out
}

#[test]
fn incremental_frontier_matches_quadratic_reference_on_random_sets() {
    // Deterministic LCG (no external randomness): 64-bit MMIX constants.
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state
    };
    for round in 0..50 {
        let n = 1 + (next() % 64) as usize;
        let points: Vec<FrontierPoint> = (0..n)
            .map(|i| {
                // Small ranges force ties and duplicates; wcet >= sim
                // keeps the points physical (sound bounds).
                let sim = 1 + next() % 40;
                let wcet = sim + next() % 40;
                FrontierPoint {
                    index: i,
                    label: format!("r{round}p{i}"),
                    sim_cycles: sim,
                    wcet_cycles: wcet,
                }
            })
            .collect();
        let mut incremental = Frontier::new();
        for p in &points {
            incremental.insert(p.clone());
        }
        let reference = pareto_reference(&points);
        assert_eq!(
            incremental.points(),
            reference.as_slice(),
            "round {round}: incremental and O(n²) frontiers disagree"
        );
    }
}

#[test]
fn frontier_matches_reference_on_the_real_grid() {
    let dir = tempdir("dse-frontier");
    let (axis, _) = small_grid().axis().unwrap();
    let path = run_shard(&axis, Shard::single(), &dir);
    let text = std::fs::read_to_string(&path).unwrap();
    let merged = merge_texts(&[&text]).unwrap();
    let all: Vec<FrontierPoint> = merged
        .records
        .iter()
        .filter_map(|(g, rec)| {
            let r = rec.outcome.result()?;
            Some(FrontierPoint {
                index: *g,
                label: r.label.clone(),
                sim_cycles: r.sim_cycles,
                wcet_cycles: r.wcet_cycles,
            })
        })
        .collect();
    assert_eq!(
        merged.frontier().points(),
        pareto_reference(&all).as_slice()
    );
}

#[test]
fn figures_render_from_merged_shard_streams_as_the_direct_run() {
    // `experiments render <id>` of a merged two-shard stream of the
    // figure's grid (the `--dump-spec <id>` document) prints what
    // `experiments <id>` prints.
    for id in ["fig3", "hierarchy", "hierarchy-spm", "write-policy"] {
        let figure = spmlab_bench::experiment(id).unwrap();
        let grid_json = figure.grid(true).unwrap().to_json();
        let dir = tempdir(&format!("render-{id}"));
        let streams: Vec<String> = (0..2)
            .map(|index| {
                let shard = Shard { index, count: 2 };
                run_sweep(&grid_json, shard, Some(&dir), false).unwrap();
                let path = dir.join(format!("shard-{index}-of-2.jsonl"));
                std::fs::read_to_string(path).unwrap()
            })
            .collect();
        let merged = merge_texts(&[&streams[0], &streams[1]]).unwrap();
        assert_eq!(
            figure.render(true, &merged.to_jsonl()).unwrap(),
            figure.run(true).unwrap(),
            "{id}"
        );
    }
}

/// A fresh per-test scratch directory under the target dir.
fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
