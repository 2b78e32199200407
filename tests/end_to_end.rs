//! End-to-end pipeline tests on the shipped benchmarks: the paper's
//! qualitative results on reduced inputs, allocation behaviour, input
//! patching, and the energy model — everything a downstream user touches.

use spmlab::pipeline::Pipeline;
use spmlab::sweep::spec_sweep;
use spmlab::{cache_axis, spm_axis, MemArchSpec};
use spmlab_alloc::energy::EnergyModel;
use spmlab_alloc::knapsack;
use spmlab_cc::SpmAssignment;
use spmlab_isa::annot::AnnotationSet;
use spmlab_isa::cachecfg::CacheConfig;
use spmlab_isa::mem::{MemoryMap, RegionKind};
use spmlab_sim::{simulate, MachineConfig, SimOptions};
use spmlab_workloads::{inputs, ADPCM, INSERTSORT, MULTISORT};

#[test]
fn paper_shape_on_reduced_adpcm() {
    // The paper's headline shapes, verified on a reduced ADPCM input so
    // the test stays debug-fast: scratchpad WCET falls with capacity and
    // tracks simulation; cache WCET/sim ratio grows.
    let p = Pipeline::with_input(&ADPCM, inputs::speech_like(64, 5)).unwrap();
    let sizes = [64u32, 512, 4096];
    let spm = spec_sweep(&p, &spm_axis(&sizes)).unwrap();
    let cache = spec_sweep(&p, &cache_axis(&sizes)).unwrap();

    assert!(
        spm.last().unwrap().result.wcet_cycles <= spm[0].result.wcet_cycles,
        "spm wcet falls with capacity"
    );
    let spm_ratios: Vec<f64> = spm.iter().map(|x| x.result.ratio()).collect();
    let spread = spm_ratios.iter().cloned().fold(f64::MIN, f64::max)
        / spm_ratios.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 1.25, "spm ratio near-constant, spread {spread}");

    let cache_ratios: Vec<f64> = cache.iter().map(|x| x.result.ratio()).collect();
    assert!(
        cache_ratios.last().unwrap() > &cache_ratios[0],
        "cache ratio grows with size: {cache_ratios:?}"
    );
    // Scratchpad dominates the cache on the WCET metric at equal capacity.
    for (s, c) in spm.iter().zip(&cache) {
        assert!(
            s.result.wcet_cycles <= c.result.wcet_cycles,
            "at {} bytes",
            s.spec.spm_size()
        );
    }
}

#[test]
fn knapsack_allocation_is_input_independent() {
    // The allocation is decided at "compile time" from the profile; two
    // different inputs must produce identical layouts (the paper's whole
    // predictability argument rests on this).
    let module = MULTISORT.compile().unwrap();
    let energy = EnergyModel::default();
    let profile_a = {
        let l = MULTISORT
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &inputs::random_ints(64, 1, -100, 100),
            )
            .unwrap();
        simulate(&l.exe, &MachineConfig::uncached(), &SimOptions::default())
            .unwrap()
            .profile
    };
    let alloc = knapsack::allocate(&module, &profile_a, 1024, &energy);
    // Rerun with a different input through the chosen layout: same layout,
    // correct results.
    for seed in [2u64, 3, 4] {
        let input = inputs::random_ints(64, seed, -100, 100);
        let l = MULTISORT
            .link_with_input(
                &module,
                &MemoryMap::with_spm(1024),
                &alloc.assignment,
                &input,
            )
            .unwrap();
        let r = simulate(&l.exe, &MachineConfig::uncached(), &SimOptions::default()).unwrap();
        let expected = MULTISORT.reference_checksum(&input);
        assert_eq!(
            r.read_global(&l.exe, "checksum"),
            Some(expected),
            "seed {seed}"
        );
    }
}

#[test]
fn spm_objects_actually_live_in_the_scratchpad() {
    let p = Pipeline::with_input(&INSERTSORT, inputs::random_ints(16, 7, -50, 50)).unwrap();
    let r = p.run(&MemArchSpec::spm(512)).unwrap();
    assert!(!r.spm_objects.is_empty());
    // Relink with the same assignment and check the symbol addresses.
    let module = INSERTSORT.compile().unwrap();
    let assignment = SpmAssignment::of(r.spm_objects.iter().map(String::as_str));
    let map = MemoryMap::with_spm(512);
    let l = INSERTSORT
        .link_with_input(
            &module,
            &map,
            &assignment,
            &inputs::random_ints(16, 7, -50, 50),
        )
        .unwrap();
    for name in &r.spm_objects {
        let sym = l.exe.symbol(name).unwrap();
        assert_eq!(
            map.region_of(sym.addr),
            RegionKind::Scratchpad,
            "{name} must be placed in the scratchpad"
        );
    }
}

#[test]
fn energy_decreases_with_scratchpad() {
    let p = Pipeline::with_input(&ADPCM, inputs::speech_like(64, 9)).unwrap();
    let base = p.run(&MemArchSpec::uncached()).unwrap();
    let spm = p.run(&MemArchSpec::spm(2048)).unwrap();
    assert!(
        spm.energy_nj < base.energy_nj,
        "scratchpad saves energy: {} vs {}",
        spm.energy_nj,
        base.energy_nj
    );
}

#[test]
fn checksum_validation_catches_wrong_reference() {
    // Pipeline::with_input cross-checks the simulated checksum against the
    // host twin; a bogus input that the reference handles differently from
    // the patched global (out-of-range shorts would truncate) must not
    // sneak through silently — here we just confirm the happy path accepts
    // and produces consistent results for in-range inputs.
    let input = inputs::speech_like(32, 77);
    let p = Pipeline::with_input(&ADPCM, input).unwrap();
    let a = p.run(&MemArchSpec::uncached()).unwrap();
    let b = p.run(&MemArchSpec::spm(256)).unwrap();
    let c = p
        .run(&MemArchSpec::single_cache(CacheConfig::unified(256)))
        .unwrap();
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.checksum, c.checksum);
}

#[test]
fn flow_facts_tighten_but_never_break_soundness() {
    // Removing the __looptotal flow facts must loosen (or keep) the bound;
    // both must stay above the simulation.
    let input = inputs::descending(32);
    let module = INSERTSORT.compile().unwrap();
    let l = INSERTSORT
        .link_with_input(
            &module,
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
            &input,
        )
        .unwrap();
    let sim = simulate(&l.exe, &MachineConfig::uncached(), &SimOptions::default()).unwrap();

    let with_facts = spmlab_wcet::analyze(
        &l.exe,
        &spmlab_wcet::WcetConfig::region_timing(),
        &l.annotations,
    )
    .unwrap();
    // Strip flow facts: copy everything but the loop totals.
    let mut stripped = AnnotationSet::new();
    for b in l.annotations.loop_bounds() {
        stripped.set_loop_bound(b.header_addr, b.max_iterations);
    }
    for a in l.annotations.accesses() {
        stripped.set_access(a.insn_addr, a.width, a.addr);
    }
    if let Some((lo, hi)) = l.annotations.stack_window() {
        stripped.set_stack_window(lo, hi);
    }
    assert!(
        l.annotations.loop_totals().next().is_some(),
        "flow facts to strip"
    );
    let without_facts =
        spmlab_wcet::analyze(&l.exe, &spmlab_wcet::WcetConfig::region_timing(), &stripped).unwrap();

    assert!(with_facts.wcet_cycles <= without_facts.wcet_cycles);
    assert!(with_facts.wcet_cycles >= sim.cycles);
    assert!(
        without_facts.wcet_cycles > with_facts.wcet_cycles,
        "triangular bound should be visibly tighter with flow facts"
    );
}
