//! Hierarchy-sweep benches: how expensive are simulation and multi-level
//! WCET analysis per memory configuration — and one full sweep emitting
//! the `BENCH_hierarchy.json` artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use spmlab::pipeline::Pipeline;
use spmlab::{MemArchSpec, MemHierarchyConfig};
use spmlab_bench::experiment;
use spmlab_isa::cachecfg::CacheConfig;
use spmlab_workloads::ADPCM;

fn bench_hierarchy_points(c: &mut Criterion) {
    let pipeline = Pipeline::new(&ADPCM).unwrap();
    let mut g = c.benchmark_group("hierarchy_points");
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
    // Time one quick grid under criterion, then write the artifact from a
    // fresh *full* (slowest-benchmark) run — the `experiments hierarchy`
    // path itself — so BENCH_hierarchy.json records the heavyweight
    // sweep's wall seconds.
    let hierarchy = experiment("hierarchy").expect("a built-in experiment");
    let mut g = c.benchmark_group("hierarchy_axis");
    g.sample_size(2);
    g.bench_function("adpcm_full_axis", |b| {
        b.iter(|| hierarchy.run(true).unwrap())
    });
    g.finish();

    print!("{}", hierarchy.run(false).unwrap());
}

criterion_group!(
    hierarchy,
    bench_hierarchy_points,
    bench_full_axis_and_emit_artifact
);
criterion_main!(hierarchy);
