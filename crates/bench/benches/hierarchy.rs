//! Hierarchy-sweep benches: how expensive are simulation and multi-level
//! WCET analysis per memory configuration — and one full sweep emitting
//! the `BENCH_hierarchy.json` artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use spmlab::pipeline::Pipeline;
use spmlab::{hierarchy_axis, MemArchSpec, MemHierarchyConfig};
use spmlab_bench::{
    fnv1a64, git_revision, hierarchy_figure, hierarchy_json_with_provenance, hierarchy_l1_size,
    workspace_root, Provenance,
};
use spmlab_isa::cachecfg::CacheConfig;
use spmlab_workloads::ADPCM;

fn bench_hierarchy_points(c: &mut Criterion) {
    let pipeline = Pipeline::new(&ADPCM).unwrap();
    let mut g = c.benchmark_group("hierarchy_sweep");
    g.sample_size(10);
    let l1 = 512;
    let configs: Vec<(&str, MemHierarchyConfig)> = vec![
        (
            "l1_unified",
            MemHierarchyConfig::l1_only(CacheConfig::unified(l1)),
        ),
        ("l1_split", MemHierarchyConfig::split_l1(l1 / 2, l1 / 2)),
        (
            "l1_split_l2",
            MemHierarchyConfig::split_l1(l1 / 2, l1 / 2).with_l2(CacheConfig::l2(4 * l1)),
        ),
    ];
    for (name, cfg) in configs {
        g.bench_function(name, |b| {
            b.iter(|| pipeline.run(&MemArchSpec::from_hierarchy(&cfg)).unwrap())
        });
    }
    g.finish();
}

fn bench_full_axis_and_emit_artifact(c: &mut Criterion) {
    // Time one quick axis under criterion, then write the artifact from a
    // fresh *full* (slowest-benchmark) run so BENCH_hierarchy.json records
    // the heavyweight sweep's wall seconds.
    let mut g = c.benchmark_group("hierarchy_axis");
    g.sample_size(2);
    g.bench_function("adpcm_full_axis", |b| {
        b.iter(|| hierarchy_figure(true).unwrap())
    });
    g.finish();

    let start = std::time::Instant::now();
    let fig = hierarchy_figure(false).unwrap();
    let wall = start.elapsed().as_secs_f64();
    // Same provenance the `experiments hierarchy` path records: the
    // spec-axis hash always; counters/phases only under --profile (the
    // bench never profiles, so those stay absent).
    let provenance = Provenance {
        spec_hash: fnv1a64(
            &hierarchy_axis(hierarchy_l1_size(false))
                .iter()
                .map(|h| MemArchSpec::from_hierarchy(h).label())
                .collect::<Vec<_>>()
                .join("|"),
        ),
        ..Provenance::default()
    };
    let json = hierarchy_json_with_provenance(&fig, wall, Some(&provenance));
    let path = workspace_root().join("BENCH_hierarchy.json");
    std::fs::write(&path, json).expect("write BENCH_hierarchy.json");
    println!(
        "wrote {} ({} points, l1 = {} B, {:.3}s) @ {}",
        path.display(),
        fig.rows().len(),
        hierarchy_l1_size(false),
        wall,
        git_revision(),
    );
}

criterion_group!(
    hierarchy,
    bench_hierarchy_points,
    bench_full_axis_and_emit_artifact
);
criterion_main!(hierarchy);
