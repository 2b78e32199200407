//! Ablation benches for the paper's §5 future-work items: the persistence
//! extension, instruction-only caches, set-associativity, and WCET-aware
//! allocation.

use criterion::{criterion_group, criterion_main, Criterion};
use spmlab::pipeline::Pipeline;
use spmlab::MemArchSpec;
use spmlab_alloc::wcet_aware;
use spmlab_isa::annot::AnnotationSet;
use spmlab_isa::cachecfg::{CacheConfig, Replacement};
use spmlab_workloads::{ADPCM, INSERTSORT};

fn bench_persistence(c: &mut Criterion) {
    let pipeline = Pipeline::new(&ADPCM).unwrap();
    let mut g = c.benchmark_group("ablation_persistence");
    g.sample_size(10);
    g.bench_function("must_only_1024", |b| {
        b.iter(|| {
            pipeline
                .run(&MemArchSpec::single_cache(CacheConfig::unified(1024)))
                .unwrap()
        })
    });
    g.bench_function("with_persistence_1024", |b| {
        b.iter(|| {
            pipeline
                .run(&MemArchSpec {
                    persistence: true,
                    ..MemArchSpec::single_cache(CacheConfig::unified(1024))
                })
                .unwrap()
        })
    });
    g.finish();
}

fn bench_icache(c: &mut Criterion) {
    let pipeline = Pipeline::new(&ADPCM).unwrap();
    let mut g = c.benchmark_group("ablation_icache");
    g.sample_size(10);
    g.bench_function("unified_1024", |b| {
        b.iter(|| {
            pipeline
                .run(&MemArchSpec::single_cache(CacheConfig::unified(1024)))
                .unwrap()
        })
    });
    g.bench_function("instr_only_1024", |b| {
        b.iter(|| {
            pipeline
                .run(&MemArchSpec::single_cache(CacheConfig::instr_only(1024)))
                .unwrap()
        })
    });
    g.finish();
}

fn bench_assoc(c: &mut Criterion) {
    let pipeline = Pipeline::new(&ADPCM).unwrap();
    let mut g = c.benchmark_group("ablation_assoc");
    g.sample_size(10);
    for (name, cfg) in [
        ("direct", CacheConfig::unified(1024)),
        (
            "2way_lru",
            CacheConfig::set_assoc(1024, 2, Replacement::Lru),
        ),
        (
            "4way_random",
            CacheConfig::set_assoc(1024, 4, Replacement::Random { seed: 7 }),
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                pipeline
                    .run(&MemArchSpec::single_cache(cfg.clone()))
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_wcet_aware_alloc(c: &mut Criterion) {
    let module = INSERTSORT.compile().unwrap();
    let mut g = c.benchmark_group("ablation_wcet_alloc");
    g.sample_size(10);
    g.bench_function("greedy_wcet_allocation_512", |b| {
        b.iter(|| wcet_aware::allocate(&module, 512, &AnnotationSet::new()).unwrap())
    });
    g.finish();
}

criterion_group!(
    ablations,
    bench_persistence,
    bench_icache,
    bench_assoc,
    bench_wcet_aware_alloc
);
criterion_main!(ablations);
