//! The workspace's headline invariant, exercised across the full
//! configuration matrix: **for every benchmark, memory configuration and
//! input respecting the annotations, the static WCET bound is ≥ the
//! simulated cycle count** — and every always-hit proof of the cache
//! analysis holds in the simulator's trace.

use proptest::prelude::*;
use spmlab_cc::SpmAssignment;
use spmlab_isa::cachecfg::{CacheConfig, CacheScope, Replacement, WritePolicy};
use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig, StoreBuffer, L1};
use spmlab_isa::mem::MemoryMap;
use spmlab_sim::{simulate, MachineConfig, SimOptions};
use spmlab_wcet::{analyze, WcetConfig};
use spmlab_workloads::{inputs, Benchmark, ADPCM, CRC32, FIR, G721, INSERTSORT, MULTISORT};

/// Reduced inputs keep the debug-mode matrix fast while still exercising
/// every code path.
fn small_input(b: &Benchmark) -> Vec<i32> {
    match b.name.as_ref() {
        "g721" => inputs::speech_like(24, 11),
        "adpcm" => inputs::speech_like(48, 12),
        "multisort" => inputs::random_ints(24, 13, -99, 99),
        "insertsort" => inputs::random_ints(16, 14, -99, 99),
        "fir" => inputs::speech_like(48, 15),
        "crc32" => inputs::random_bytes(32, 16),
        other => panic!("unknown benchmark {other}"),
    }
}

fn all() -> Vec<&'static Benchmark> {
    vec![&G721, &ADPCM, &MULTISORT, &INSERTSORT, &FIR, &CRC32]
}

#[test]
fn region_timing_bounds_simulation_everywhere() {
    for b in all() {
        let input = small_input(b);
        let module = b.compile().unwrap();
        for spm_size in [0u32, 64, 512, 4096] {
            let map = MemoryMap::with_spm(spm_size);
            // Move `main` plus the input array when they fit; the specific
            // assignment does not matter for soundness.
            let assignment = if spm_size >= 4096 {
                SpmAssignment::of(["main"])
            } else {
                SpmAssignment::none()
            };
            let linked = b
                .link_with_input(&module, &map, &assignment, &input)
                .unwrap();
            let sim = simulate(
                &linked.exe,
                &MachineConfig::uncached(),
                &SimOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{} spm={spm_size}: {e}", b.name));
            let wcet = analyze(
                &linked.exe,
                &WcetConfig::region_timing(),
                &linked.annotations,
            )
            .unwrap_or_else(|e| panic!("{} spm={spm_size}: {e}", b.name));
            assert!(
                wcet.wcet_cycles >= sim.cycles,
                "{} spm={spm_size}: wcet {} < sim {}",
                b.name,
                wcet.wcet_cycles,
                sim.cycles
            );
        }
    }
}

#[test]
fn cache_analysis_bounds_simulation_everywhere() {
    for b in all() {
        let input = small_input(b);
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &input,
            )
            .unwrap();
        for cache in [
            CacheConfig::unified(64),
            CacheConfig::unified(1024),
            CacheConfig::unified(8192),
            CacheConfig::instr_only(512),
            CacheConfig::set_assoc(1024, 2, Replacement::Lru),
            CacheConfig::set_assoc(1024, 4, Replacement::Random { seed: 3 }),
            CacheConfig::set_assoc(512, 2, Replacement::RoundRobin),
        ] {
            let sim = simulate(
                &linked.exe,
                &MachineConfig::with_cache(cache.clone()),
                &SimOptions::default(),
            )
            .unwrap();
            for persistence in [false, true] {
                let cfg = if persistence {
                    WcetConfig::with_cache_persistence(cache.clone())
                } else {
                    WcetConfig::with_cache(cache.clone())
                };
                let wcet = analyze(&linked.exe, &cfg, &linked.annotations).unwrap();
                assert!(
                    wcet.wcet_cycles >= sim.cycles,
                    "{} cache={cache:?} persistence={persistence}: wcet {} < sim {}",
                    b.name,
                    wcet.wcet_cycles,
                    sim.cycles
                );
            }
        }
    }
}

#[test]
fn always_hit_proofs_hold_in_simulator_traces() {
    // Every instruction the MUST analysis proves always-hit must have zero
    // misses in the simulator's per-instruction counters — for every
    // benchmark, geometry and replacement policy.
    for b in all() {
        let input = small_input(b);
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &input,
            )
            .unwrap();
        for cache in [
            CacheConfig::unified(256),
            CacheConfig::unified(4096),
            CacheConfig::set_assoc(1024, 2, Replacement::Lru),
            CacheConfig::set_assoc(1024, 4, Replacement::Random { seed: 9 }),
        ] {
            let sim = simulate(
                &linked.exe,
                &MachineConfig::with_cache(cache.clone()),
                &SimOptions::default(),
            )
            .unwrap();
            let wcet = analyze(
                &linked.exe,
                &WcetConfig::with_cache(cache.clone()),
                &linked.annotations,
            )
            .unwrap();
            for &addr in &wcet.classification.fetch_always_hit {
                if let Some(stat) = sim.insn_stats.get(&addr) {
                    assert_eq!(
                        stat.fetch_misses, 0,
                        "{} {cache:?}: fetch at {addr:#x} classified always-hit \
                         but missed {} times over {} executions",
                        b.name, stat.fetch_misses, stat.execs
                    );
                }
            }
            for &addr in &wcet.classification.data_always_hit {
                if let Some(stat) = sim.insn_stats.get(&addr) {
                    assert_eq!(
                        stat.data_misses, 0,
                        "{} {cache:?}: data access at {addr:#x} classified always-hit \
                         but missed {} times",
                        b.name, stat.data_misses
                    );
                }
            }
        }
    }
}

#[test]
fn worst_case_inputs_stay_below_the_bound() {
    // The bound must hold for the *worst* inputs too, not just typical
    // ones (the annotations encode the worst case).
    for (b, worst) in [
        (&MULTISORT, inputs::descending(64)),
        (&INSERTSORT, inputs::descending(32)),
        (&INSERTSORT, inputs::ascending(32)),
    ] {
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &worst,
            )
            .unwrap();
        let sim = simulate(
            &linked.exe,
            &MachineConfig::uncached(),
            &SimOptions::default(),
        )
        .unwrap();
        let wcet = analyze(
            &linked.exe,
            &WcetConfig::region_timing(),
            &linked.annotations,
        )
        .unwrap();
        assert!(
            wcet.wcet_cycles >= sim.cycles,
            "{}: wcet {} < sim {} on adversarial input",
            b.name,
            wcet.wcet_cycles,
            sim.cycles
        );
    }
}

/// The acceptance matrix of the hierarchy subsystem: for SPM (both main
/// timings), L1-only, and L1+L2 at two L2 sizes and two main-memory
/// timings, the static bound covers the simulation, and the L1+L2 bound
/// never exceeds the L1-only-with-L2-latency baseline (monotonicity).
#[test]
fn hierarchy_matrix_is_sound_and_monotone() {
    let hierarchies = [
        MemHierarchyConfig::uncached(),
        MemHierarchyConfig::uncached_with(MainMemoryTiming::dram(10)),
        MemHierarchyConfig::l1_only(CacheConfig::unified(512)),
        MemHierarchyConfig::split_l1(256, 256),
        MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(1024)),
        MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(4096)),
        MemHierarchyConfig::split_l1(256, 256)
            .with_l2(CacheConfig::l2(4096))
            .with_main(MainMemoryTiming::dram(10)),
        MemHierarchyConfig::l1_only(CacheConfig::instr_only(512)).with_l2(CacheConfig::l2(4096)),
    ];
    for b in all() {
        let input = small_input(b);
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &input,
            )
            .unwrap();
        for h in &hierarchies {
            let sim = simulate(
                &linked.exe,
                &MachineConfig::with_hierarchy(h.clone()),
                &SimOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, h.label()));
            let wcet = analyze(
                &linked.exe,
                &WcetConfig::with_hierarchy(h.clone()),
                &linked.annotations,
            )
            .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, h.label()));
            assert!(
                wcet.wcet_cycles >= sim.cycles,
                "{} {}: wcet {} < sim {}",
                b.name,
                h.label(),
                wcet.wcet_cycles,
                sim.cycles
            );
            let l1_only = analyze(
                &linked.exe,
                &WcetConfig::with_hierarchy_l1_only(h.clone()),
                &linked.annotations,
            )
            .unwrap();
            assert!(
                wcet.wcet_cycles <= l1_only.wcet_cycles,
                "{} {}: L2 analysis loosened the bound ({} > {})",
                b.name,
                h.label(),
                wcet.wcet_cycles,
                l1_only.wcet_cycles
            );
        }
        // SPM point of the axis: tight and sound under both main timings.
        for main in [MainMemoryTiming::table1(), MainMemoryTiming::dram(10)] {
            let map = MemoryMap::with_spm(4096);
            let spm_linked = b
                .link_with_input(&module, &map, &SpmAssignment::of(["main"]), &input)
                .unwrap();
            let machine = MachineConfig::with_hierarchy(MemHierarchyConfig::uncached_with(main));
            let sim = simulate(&spm_linked.exe, &machine, &SimOptions::default()).unwrap();
            let wcet = analyze(
                &spm_linked.exe,
                &WcetConfig::region_timing_with(main),
                &spm_linked.annotations,
            )
            .unwrap();
            assert!(
                wcet.wcet_cycles >= sim.cycles,
                "{} spm/dram unsound",
                b.name
            );
        }
    }
}

/// Every per-address proof of the multi-level analysis must hold in the
/// simulator's per-instruction counters, for every benchmark and a matrix
/// of hierarchies:
///
/// * **always-hit** (MUST proof) — the access never misses its first
///   cache level;
/// * **L1 always-miss** (MAY proof, the Hardy–Puaut `A` filter) — the
///   access never *hits* its L1;
/// * **L2 always-hit** (combined proof) — whenever the access consults
///   the L2, it hits there (zero L2 misses).
#[test]
fn hierarchy_classification_proofs_hold_in_simulator_traces() {
    let mut total_am = 0u64;
    let mut total_l2_ah = 0u64;
    for b in all() {
        let input = small_input(b);
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &input,
            )
            .unwrap();
        for h in [
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048)),
            MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(16384)),
            MemHierarchyConfig::l1_only(CacheConfig::instr_only(512))
                .with_l2(CacheConfig::l2(4096)),
            MemHierarchyConfig::l1_only(CacheConfig::unified(512)),
        ] {
            let sim = simulate(
                &linked.exe,
                &MachineConfig::with_hierarchy(h.clone()),
                &SimOptions::default(),
            )
            .unwrap();
            let wcet = analyze(
                &linked.exe,
                &WcetConfig::with_hierarchy(h.clone()),
                &linked.annotations,
            )
            .unwrap();
            let cls = &wcet.classification;
            for &addr in &cls.fetch_always_hit {
                if let Some(stat) = sim.insn_stats.get(&addr) {
                    assert_eq!(
                        stat.fetch_misses,
                        0,
                        "{} {}: fetch at {addr:#x} classified always-hit but missed",
                        b.name,
                        h.label()
                    );
                }
            }
            for &addr in &cls.data_always_hit {
                if let Some(stat) = sim.insn_stats.get(&addr) {
                    assert_eq!(
                        stat.data_misses,
                        0,
                        "{} {}: data at {addr:#x} classified always-hit but missed",
                        b.name,
                        h.label()
                    );
                }
            }
            // The MAY proofs: an Always-Miss access can never *hit* its
            // L1 in any concrete run.
            for &addr in &cls.fetch_l1_always_miss {
                if let Some(stat) = sim.insn_stats.get(&addr) {
                    total_am += stat.execs;
                    assert_eq!(
                        stat.fetch_hits,
                        0,
                        "{} {}: fetch at {addr:#x} classified L1 always-miss \
                         but hit {} times over {} executions",
                        b.name,
                        h.label(),
                        stat.fetch_hits,
                        stat.execs
                    );
                }
            }
            for &addr in &cls.data_l1_always_miss {
                if let Some(stat) = sim.insn_stats.get(&addr) {
                    total_am += stat.execs;
                    assert_eq!(
                        stat.data_hits,
                        0,
                        "{} {}: data at {addr:#x} classified L1 always-miss but hit",
                        b.name,
                        h.label()
                    );
                }
            }
            // The guaranteed-L2 proofs: whenever such an access consults
            // the L2, the line must be there.
            for &addr in &cls.fetch_l2_always_hit {
                if let Some(stat) = sim.insn_stats.get(&addr) {
                    total_l2_ah += stat.execs;
                    assert_eq!(
                        stat.fetch_l2_misses,
                        0,
                        "{} {}: fetch at {addr:#x} classified guaranteed-L2-hit \
                         but missed the L2",
                        b.name,
                        h.label()
                    );
                }
            }
            for &addr in &cls.data_l2_always_hit {
                if let Some(stat) = sim.insn_stats.get(&addr) {
                    total_l2_ah += stat.execs;
                    assert_eq!(
                        stat.data_l2_misses,
                        0,
                        "{} {}: data at {addr:#x} classified guaranteed-L2-hit \
                         but missed the L2",
                        b.name,
                        h.label()
                    );
                }
            }
        }
    }
    // The matrix must actually exercise the new classifications — a
    // vacuous pass (no AM, no guaranteed L2 hits anywhere) would mean the
    // MAY analysis silently stopped classifying.
    assert!(
        total_am > 0,
        "no executed access was classified Always-Miss"
    );
    assert!(
        total_l2_ah > 0,
        "no executed access carried a guaranteed-L2-hit proof"
    );
}

/// The interprocedural MAY/CAC analysis can only tighten: at every point
/// of the hierarchy matrix the new bound is ≤ the pre-MAY baseline
/// (per-function TOP entries, no Always-Miss filter).
#[test]
fn interprocedural_may_analysis_never_loosens() {
    for b in all() {
        let input = small_input(b);
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &input,
            )
            .unwrap();
        for h in [
            MemHierarchyConfig::l1_only(CacheConfig::unified(512)),
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(4096)),
            MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(16384)),
        ] {
            let new = analyze(
                &linked.exe,
                &WcetConfig::with_hierarchy(h.clone()),
                &linked.annotations,
            )
            .unwrap();
            let base = analyze(
                &linked.exe,
                &WcetConfig::with_hierarchy_baseline(h.clone()),
                &linked.annotations,
            )
            .unwrap();
            assert!(
                new.wcet_cycles <= base.wcet_cycles,
                "{} {}: interprocedural MAY analysis loosened the bound ({} > {})",
                b.name,
                h.label(),
                new.wcet_cycles,
                base.wcet_cycles
            );
        }
    }
}

/// The write-policy acceptance matrix: under every write-back machine
/// shape (WB L1D, WB at both levels, WT L1 in front of a WB L2, a
/// unified WB L1, and DRAM-backed and store-buffered variants), the
/// static bound still covers the simulation for every benchmark.
#[test]
fn write_back_matrix_is_sound() {
    let split_wb = || MemHierarchyConfig {
        l1: L1::Split {
            i: Some(CacheConfig::instr_only(256)),
            d: Some(CacheConfig::data_only(256).write_back()),
        },
        l2: None,
        main: MainMemoryTiming::table1(),
    };
    let machines = [
        split_wb(),
        split_wb().with_l2(CacheConfig::l2(2048).write_back()),
        MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048).write_back()),
        MemHierarchyConfig::l1_only(CacheConfig::unified(512).write_back()),
        split_wb()
            .with_l2(CacheConfig::l2(4096).write_back())
            .with_main(MainMemoryTiming::dram(10)),
        MemHierarchyConfig::uncached_with(
            MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 6)),
        ),
        MemHierarchyConfig::l1_only(CacheConfig::unified(512).write_back())
            .with_main(MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(2, 9))),
    ];
    for b in all() {
        let input = small_input(b);
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &input,
            )
            .unwrap();
        for h in &machines {
            let sim = simulate(
                &linked.exe,
                &MachineConfig::with_hierarchy(h.clone()),
                &SimOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, h.label()));
            let wcet = analyze(
                &linked.exe,
                &WcetConfig::with_hierarchy(h.clone()),
                &linked.annotations,
            )
            .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, h.label()));
            assert!(
                wcet.wcet_cycles >= sim.cycles,
                "{} {}: wcet {} < sim {}",
                b.name,
                h.label(),
                wcet.wcet_cycles,
                sim.cycles
            );
        }
    }
}

/// Decodes an arbitrary 32-bit seed into a valid hierarchy configuration —
/// the deterministic bridge between proptest's random bits and the
/// constrained configuration space (power-of-two sizes, per-level
/// geometry invariants).
fn decode_hierarchy(bits: u32) -> MemHierarchyConfig {
    let l1_sizes = [64u32, 128, 256, 512, 1024];
    let assocs = [1u32, 2, 4];
    let replacements = [
        Replacement::Lru,
        Replacement::RoundRobin,
        Replacement::Random { seed: 7 },
    ];
    let pick = |field: u32, n: usize| (field as usize) % n;

    let l1_size = l1_sizes[pick(bits, l1_sizes.len())];
    let assoc = assocs[pick(bits >> 3, assocs.len())];
    let replacement = replacements[pick(bits >> 5, replacements.len())];
    // Write policies ride on two more bits: data-serving L1 levels and
    // the L2 independently flip to write-back/write-allocate.
    let wb_l1 = (bits >> 19) & 1 == 1;
    let wb_l2 = (bits >> 20) & 1 == 1;
    let mk_l1 = |scope: CacheScope| CacheConfig {
        assoc: assoc.min(l1_size / 16),
        replacement,
        scope,
        write_policy: if wb_l1 && scope != CacheScope::InstrOnly {
            WritePolicy::WriteBack
        } else {
            WritePolicy::WriteThrough
        },
        ..CacheConfig::unified(l1_size)
    };
    let l1 = match pick(bits >> 7, 4) {
        0 => L1::None,
        1 => L1::Unified(mk_l1(CacheScope::Unified)),
        2 => L1::Unified(mk_l1(CacheScope::InstrOnly)),
        _ => L1::Split {
            i: Some(mk_l1(CacheScope::InstrOnly)),
            d: Some(mk_l1(CacheScope::DataOnly)),
        },
    };
    let wb = |c: CacheConfig| if wb_l2 { c.write_back() } else { c };
    let l2 = match pick(bits >> 9, 3) {
        0 => None,
        1 => Some(wb(CacheConfig::l2(1024))),
        _ => Some(wb(CacheConfig {
            assoc: 2,
            hit_latency: 2 + (bits >> 11) % 3,
            ..CacheConfig::l2(4096)
        })),
    };
    let main = MainMemoryTiming {
        latency: ((bits >> 13) % 3) as u64 * 8,
        beat_cycles: 1 + ((bits >> 15) % 2) as u64,
        bus_bytes: if (bits >> 16).is_multiple_of(2) { 2 } else { 4 },
        store_buffer: match (bits >> 17) % 3 {
            0 => None,
            1 => Some(StoreBuffer::new(2, 6)),
            _ => Some(StoreBuffer::new(4, 11)),
        },
    };
    let h = MemHierarchyConfig { l1, l2, main };
    h.validate().unwrap();
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant over *randomly drawn* hierarchies: simulated
    /// cycles never exceed the multi-level WCET bound, and enabling the L2
    /// MUST analysis never loosens it.
    #[test]
    fn random_hierarchies_stay_sound(
        bench_idx in 0usize..3,
        bits in any::<u32>(),
        input_seed in 1u64..1000,
    ) {
        let (b, input): (&Benchmark, Vec<i32>) = match bench_idx {
            0 => (&INSERTSORT, inputs::random_ints(12, input_seed, -99, 99)),
            1 => (&CRC32, inputs::random_bytes(16, input_seed)),
            _ => (&FIR, inputs::speech_like(24, input_seed)),
        };
        let h = decode_hierarchy(bits);
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(&module, &MemoryMap::no_spm(), &SpmAssignment::none(), &input)
            .unwrap();
        let sim = simulate(
            &linked.exe,
            &MachineConfig::with_hierarchy(h.clone()),
            &SimOptions::default(),
        )
        .unwrap();
        let wcet = analyze(&linked.exe, &WcetConfig::with_hierarchy(h.clone()), &linked.annotations)
            .unwrap();
        prop_assert!(
            wcet.wcet_cycles >= sim.cycles,
            "{} {}: wcet {} < sim {}", b.name, h.label(), wcet.wcet_cycles, sim.cycles
        );
        let l1_only = analyze(
            &linked.exe,
            &WcetConfig::with_hierarchy_l1_only(h.clone()),
            &linked.annotations,
        )
        .unwrap();
        prop_assert!(
            wcet.wcet_cycles <= l1_only.wcet_cycles,
            "{} {}: L2 analysis loosened the bound", b.name, h.label()
        );
        // Every per-address proof holds in this draw's trace: always-hit
        // never misses, L1-always-miss never hits, guaranteed-L2 never
        // misses the L2.
        let cls = &wcet.classification;
        for &addr in &cls.fetch_always_hit {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.fetch_misses, 0, "{:#x} AH fetch missed", addr);
            }
        }
        for &addr in &cls.fetch_l1_always_miss {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.fetch_hits, 0, "{:#x} AM fetch hit L1", addr);
            }
        }
        for &addr in &cls.data_l1_always_miss {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.data_hits, 0, "{:#x} AM data hit L1", addr);
            }
        }
        for &addr in &cls.fetch_l2_always_hit {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.fetch_l2_misses, 0, "{:#x} fetch missed L2", addr);
            }
        }
        for &addr in &cls.data_l2_always_hit {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.data_l2_misses, 0, "{:#x} data missed L2", addr);
            }
        }
    }
}

/// The write-policy twin of a machine: every level write-through, no
/// store buffer. On a store-free program the two must be
/// cycle-identical — write policies only ever act on store traffic.
fn strip_write_policy(mut h: MemHierarchyConfig) -> MemHierarchyConfig {
    fn wt(c: &mut CacheConfig) {
        c.write_policy = WritePolicy::WriteThrough;
    }
    match &mut h.l1 {
        L1::None => {}
        L1::Unified(c) => wt(c),
        L1::Split { i, d } => {
            if let Some(c) = i {
                wt(c);
            }
            if let Some(c) = d {
                wt(c);
            }
        }
    }
    if let Some(c) = &mut h.l2 {
        wt(c);
    }
    h.main.store_buffer = None;
    h
}

/// A hand-assembled program that performs **no data write at all** (100
/// iterations of literal-pool load + add + counted branch): the
/// construction-level guarantee the write-policy-identity property needs.
fn store_free_exe() -> spmlab_isa::image::Executable {
    use spmlab_isa::image::{Executable, LoadRegion, Symbol, SymbolKind};
    use spmlab_isa::insn::Insn;
    use spmlab_isa::mem::MAIN_BASE;
    use spmlab_isa::reg::{R0, R1, R2};
    let insns = [
        Insn::MovImm { rd: R0, imm: 100 },
        // Literal-pool-style read of the code bytes at MAIN_BASE + 8.
        Insn::LdrLit { rd: R1, imm: 1 },
        Insn::AddReg {
            rd: R2,
            rn: R2,
            rm: R1,
        },
        Insn::SubImm { rd: R0, imm: 1 },
        Insn::BCond {
            cond: spmlab_isa::cond::Cond::Ne,
            off: -10,
        },
        Insn::Swi { imm: 0 },
    ];
    let halfwords = spmlab_isa::encode::encode_all(&insns);
    let mut bytes = Vec::new();
    for hw in &halfwords {
        bytes.extend(hw.to_le_bytes());
    }
    let size = bytes.len() as u32;
    Executable {
        regions: vec![LoadRegion {
            addr: MAIN_BASE,
            bytes,
        }],
        symbols: vec![Symbol {
            name: "_start".into(),
            addr: MAIN_BASE,
            size,
            kind: SymbolKind::Func { code_size: size },
        }],
        entry: MAIN_BASE,
        memory_map: MemoryMap::no_spm(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Write policies act on store traffic only: on a store-free program
    /// every randomly drawn write-back/store-buffered machine is
    /// cycle-identical (and statistics-identical) to its all-write-through
    /// twin, and no write-back activity is ever recorded.
    #[test]
    fn write_policies_identical_on_store_free_programs(bits in any::<u32>()) {
        let wb = decode_hierarchy(bits);
        let wt = strip_write_policy(wb.clone());
        let exe = store_free_exe();
        let s_wb = simulate(
            &exe,
            &MachineConfig::with_hierarchy(wb.clone()),
            &SimOptions::default(),
        )
        .unwrap();
        let s_wt = simulate(
            &exe,
            &MachineConfig::with_hierarchy(wt),
            &SimOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(s_wb.cycles, s_wt.cycles, "{} diverged", wb.label());
        prop_assert_eq!(&s_wb.mem_stats, &s_wt.mem_stats);
        prop_assert_eq!(
            s_wb.mem_stats.write_backs
                + s_wb.mem_stats.dirty_evictions
                + s_wb.mem_stats.store_buffer_stalls,
            0,
            "store-free program triggered write-back machinery"
        );
    }
}

#[test]
fn persistence_is_sound_and_no_looser() {
    let input = small_input(&ADPCM);
    let module = ADPCM.compile().unwrap();
    let linked = ADPCM
        .link_with_input(
            &module,
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
            &input,
        )
        .unwrap();
    for size in [256u32, 1024, 8192] {
        let cache = CacheConfig::unified(size);
        let sim = simulate(
            &linked.exe,
            &MachineConfig::with_cache(cache.clone()),
            &SimOptions::default(),
        )
        .unwrap();
        let must = analyze(
            &linked.exe,
            &WcetConfig::with_cache(cache.clone()),
            &linked.annotations,
        )
        .unwrap();
        let pers = analyze(
            &linked.exe,
            &WcetConfig::with_cache_persistence(cache.clone()),
            &linked.annotations,
        )
        .unwrap();
        assert!(
            pers.wcet_cycles <= must.wcet_cycles,
            "persistence can only tighten"
        );
        assert!(
            pers.wcet_cycles >= sim.cycles,
            "persistence stays sound at {size}"
        );
    }
    // No-looser on G.721 over the paper's whole size axis (analysis only):
    // a line whose reads are all MUST hits must not pay a first miss.
    let module = G721.compile().unwrap();
    let linked = G721
        .link_with_input(
            &module,
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
            &G721.typical_input(),
        )
        .unwrap();
    for size in spmlab::PAPER_SIZES {
        let cache = CacheConfig::unified(size);
        let must = analyze(
            &linked.exe,
            &WcetConfig::with_cache(cache.clone()),
            &linked.annotations,
        )
        .unwrap();
        let pers = analyze(
            &linked.exe,
            &WcetConfig::with_cache_persistence(cache),
            &linked.annotations,
        )
        .unwrap();
        assert!(
            pers.wcet_cycles <= must.wcet_cycles,
            "G.721 {size}: +persistence {} looser than MUST-only {}",
            pers.wcet_cycles,
            must.wcet_cycles
        );
    }
}

// =====================================================================
// Generated workloads: the same headline invariants over programs from
// the seeded MiniC generator, so the soundness matrix is not limited to
// the six shipped kernels.
// =====================================================================

/// The soundness invariant across generated programs × machine shapes ×
/// write policies: the static bound covers the simulated run everywhere,
/// for workloads the analyzer has never seen before.
#[test]
fn generated_matrix_is_sound_across_write_policies() {
    let arch = spmlab_workloads::gen::reference_arch();
    for seed in 0..6u64 {
        let g = spmlab_workloads::gen::generate_for_seed(seed, &arch);
        let b = g.benchmark();
        let input = b.typical_input();
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &input,
            )
            .unwrap();
        let wb_split = {
            let mut h = MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048));
            if let L1::Split { d: Some(d), .. } = &mut h.l1 {
                *d = d.clone().write_back();
            }
            h.l2 = h.l2.map(CacheConfig::write_back);
            h
        };
        for h in [
            MemHierarchyConfig::uncached(),
            MemHierarchyConfig::l1_only(CacheConfig::unified(512)),
            MemHierarchyConfig::l1_only(CacheConfig::unified(512).write_back()),
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048)),
            wb_split,
        ] {
            let sim = simulate(
                &linked.exe,
                &MachineConfig::with_hierarchy(h.clone()),
                &SimOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, h.label()));
            let wcet = analyze(
                &linked.exe,
                &WcetConfig::with_hierarchy(h.clone()),
                &linked.annotations,
            )
            .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, h.label()));
            assert!(
                wcet.wcet_cycles >= sim.cycles,
                "{} {}: wcet {} < sim {}",
                b.name,
                h.label(),
                wcet.wcet_cycles,
                sim.cycles
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random generated program × random hierarchy: simulated cycles
    /// never exceed the WCET bound, and every per-address cache proof
    /// (always-hit never misses, L1 always-miss never hits, guaranteed
    /// L2 hit never misses the L2) holds in the concrete trace.
    #[test]
    fn generated_random_hierarchies_stay_sound(
        seed in 0u64..500,
        bits in any::<u32>(),
    ) {
        let arch = spmlab_workloads::gen::reference_arch();
        let g = spmlab_workloads::gen::generate_for_seed(seed, &arch);
        let b = g.benchmark();
        let input = b.typical_input();
        let h = decode_hierarchy(bits);
        let module = b.compile().unwrap();
        let linked = b
            .link_with_input(&module, &MemoryMap::no_spm(), &SpmAssignment::none(), &input)
            .unwrap();
        let sim = simulate(
            &linked.exe,
            &MachineConfig::with_hierarchy(h.clone()),
            &SimOptions::default(),
        )
        .unwrap();
        let wcet = analyze(
            &linked.exe,
            &WcetConfig::with_hierarchy(h.clone()),
            &linked.annotations,
        )
        .unwrap();
        prop_assert!(
            wcet.wcet_cycles >= sim.cycles,
            "seed {} on {}: wcet {} < sim {}",
            seed, h.label(), wcet.wcet_cycles, sim.cycles
        );
        let cls = &wcet.classification;
        for &addr in &cls.fetch_always_hit {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.fetch_misses, 0, "{:#x} AH fetch missed", addr);
            }
        }
        for &addr in &cls.data_always_hit {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.data_misses, 0, "{:#x} AH data missed", addr);
            }
        }
        for &addr in &cls.fetch_l1_always_miss {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.fetch_hits, 0, "{:#x} AM fetch hit L1", addr);
            }
        }
        for &addr in &cls.data_l1_always_miss {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.data_hits, 0, "{:#x} AM data hit L1", addr);
            }
        }
        for &addr in &cls.fetch_l2_always_hit {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.fetch_l2_misses, 0, "{:#x} fetch missed L2", addr);
            }
        }
        for &addr in &cls.data_l2_always_hit {
            if let Some(stat) = sim.insn_stats.get(&addr) {
                prop_assert_eq!(stat.data_l2_misses, 0, "{:#x} data missed L2", addr);
            }
        }
    }
}
