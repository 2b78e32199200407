//! Criterion benches, one group per paper artefact.
//!
//! Each group times the code that regenerates the artefact. Figure groups
//! time one representative sweep point per branch (full sweeps are the
//! `experiments` binary's job) so `cargo bench` stays fast.

use criterion::{criterion_group, criterion_main, Criterion};
use spmlab::figures::{table1, table2, Tightness};
use spmlab::pipeline::Pipeline;
use spmlab::MemArchSpec;
use spmlab_isa::cachecfg::CacheConfig;
use spmlab_workloads::{paper_benchmarks, ADPCM, G721, INSERTSORT, MULTISORT};

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_timing_model", |b| b.iter(table1));
}

fn bench_table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_compile");
    g.sample_size(10);
    g.bench_function("compile_paper_benchmarks", |b| {
        b.iter(|| table2(&paper_benchmarks()).unwrap())
    });
    g.finish();
}

fn bench_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_g721");
    g.sample_size(10);
    let pipeline = Pipeline::new(&G721).unwrap();
    g.bench_function("spm_point_1024", |b| {
        b.iter(|| pipeline.run(&MemArchSpec::spm(1024)).unwrap())
    });
    g.bench_function("cache_point_1024", |b| {
        b.iter(|| {
            pipeline
                .run(&MemArchSpec::single_cache(CacheConfig::unified(1024)))
                .unwrap()
        })
    });
    g.finish();
}

fn bench_fig4(c: &mut Criterion) {
    // Figure 4 is the ratio of the Figure 3 series; the incremental cost
    // is the ratio computation itself, which we time over a cached run.
    let pipeline = Pipeline::new(&G721).unwrap();
    let point = pipeline.run(&MemArchSpec::spm(1024)).unwrap();
    c.bench_function("fig4_ratio", |b| b.iter(|| point.ratio()));
}

fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_multisort");
    g.sample_size(10);
    let pipeline = Pipeline::new(&MULTISORT).unwrap();
    g.bench_function("spm_point_1024", |b| {
        b.iter(|| pipeline.run(&MemArchSpec::spm(1024)).unwrap())
    });
    g.bench_function("cache_point_1024", |b| {
        b.iter(|| {
            pipeline
                .run(&MemArchSpec::single_cache(CacheConfig::unified(1024)))
                .unwrap()
        })
    });
    g.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_adpcm");
    g.sample_size(10);
    let pipeline = Pipeline::new(&ADPCM).unwrap();
    g.bench_function("spm_point_512", |b| {
        b.iter(|| pipeline.run(&MemArchSpec::spm(512)).unwrap())
    });
    g.bench_function("cache_point_512", |b| {
        b.iter(|| {
            pipeline
                .run(&MemArchSpec::single_cache(CacheConfig::unified(512)))
                .unwrap()
        })
    });
    g.finish();
}

fn bench_tightness(c: &mut Criterion) {
    let mut g = c.benchmark_group("tightness_sort");
    g.sample_size(10);
    g.bench_function("insertsort_worst_case", |b| {
        b.iter(|| Tightness::run(&INSERTSORT, 0).unwrap())
    });
    g.finish();
}

criterion_group!(
    paper,
    bench_table1,
    bench_table2,
    bench_fig3,
    bench_fig4,
    bench_fig5,
    bench_fig6,
    bench_tightness
);
criterion_main!(paper);
