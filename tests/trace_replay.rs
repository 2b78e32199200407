//! Workspace-level differential tests for ordered (v2) write-event
//! traces: replay must be **bit-identical** to fresh simulation — same
//! `sim_cycles`, same full [`MemStats`] (including `write_backs`,
//! `dirty_evictions` and `store_buffer_stalls`) — on *any* hierarchy a
//! v2 trace claims to support, including write-back levels, store
//! buffers and mixed WT-L1-over-WB-L2 stacks. Property tests draw the
//! machines at random; a pinned counter test locks the write-policy
//! axis' memo/replay split the way `tests/observability.rs` does for
//! the write-through hierarchy scenario. Machines without a store
//! buffer are priced from one latency-0 tally per cache geometry; the
//! pricing differential checks that against replay and simulation at
//! random latencies (the sweep-level main-timing-group case lives in
//! `tests/observability.rs`, whose tests all hold the sink lock, so its
//! `replay_events` count sees no foreign replays).

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use spmlab::pipeline::Pipeline;
use spmlab::sweep::spec_sweep;
use spmlab::write_policy_axis;
use spmlab_cc::{compile, link, SpmAssignment};
use spmlab_isa::cachecfg::{CacheConfig, CacheScope, Replacement, WritePolicy};
use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig, StoreBuffer, L1};
use spmlab_isa::mem::MemoryMap;
use spmlab_obs::collector::MemorySink;
use spmlab_sim::{simulate, simulate_with_trace, MachineConfig, MemTrace, SimError, SimOptions};
use spmlab_workloads::{inputs, G721};

/// A store-heavy kernel: the write pattern walks two arrays with
/// different strides so dirty lines collide in small caches (evictions
/// and write-backs actually fire) while the reductions keep read
/// traffic interleaved with the stores.
const SRC: &str = "
    int a[48]; int b[24]; int checksum;
    void main() {
        int i;
        for (i = 0; i < 48; i = i + 1) { __loopbound(48); a[i] = i * 5 - 7; }
        for (i = 0; i < 24; i = i + 1) { __loopbound(24); b[i] = a[i * 2] + a[i]; }
        for (i = 0; i < 24; i = i + 1) { __loopbound(24); checksum = checksum + b[i] - a[i + 8]; }
    }
";

struct Recorded {
    exe: spmlab_isa::image::Executable,
    trace: MemTrace,
}

/// Compile + record once; every property case replays against this.
fn recorded() -> &'static Recorded {
    static CELL: OnceLock<Recorded> = OnceLock::new();
    CELL.get_or_init(|| {
        let l = link(
            &compile(SRC).unwrap(),
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
        )
        .unwrap();
        let (_, trace) = simulate_with_trace(&l.exe, &SimOptions::default()).unwrap();
        assert_eq!(trace.version(), 2, "recorder must produce ordered traces");
        Recorded { exe: l.exe, trace }
    })
}

fn arb_replacement() -> impl Strategy<Value = Replacement> {
    prop_oneof![
        Just(Replacement::Lru),
        Just(Replacement::RoundRobin),
        (0u64..512).prop_map(|seed| Replacement::Random { seed }),
    ]
}

fn arb_policy() -> impl Strategy<Value = WritePolicy> {
    prop_oneof![
        Just(WritePolicy::WriteThrough),
        Just(WritePolicy::WriteBack)
    ]
}

/// A random L1-sized cache: 64..=1024 bytes, 1/2/4-way, any replacement
/// and write policy. Geometry is always valid for the fixed 16-byte
/// line (64/16 = 4 lines ≥ max associativity).
fn arb_cache(scope: CacheScope) -> impl Strategy<Value = CacheConfig> {
    (0u32..5, 0u32..3, arb_replacement(), arb_policy()).prop_map(
        move |(size_exp, assoc_exp, replacement, write_policy)| CacheConfig {
            scope,
            write_policy,
            ..CacheConfig::set_assoc(64 << size_exp, 1 << assoc_exp, replacement)
        },
    )
}

fn arb_l2() -> impl Strategy<Value = CacheConfig> {
    (0u32..4, arb_policy()).prop_map(|(size_exp, write_policy)| CacheConfig {
        write_policy,
        ..CacheConfig::l2(512 << size_exp)
    })
}

fn arb_main() -> impl Strategy<Value = MainMemoryTiming> {
    let sb = prop_oneof![
        Just(None),
        (1u32..5, 1u64..10).prop_map(|(depth, drain)| Some(StoreBuffer::new(depth, drain))),
    ];
    let base = prop_oneof![
        Just(MainMemoryTiming::table1()),
        (2u64..12).prop_map(MainMemoryTiming::dram),
    ];
    (base, sb).prop_map(|(mut main, store_buffer)| {
        main.store_buffer = store_buffer;
        main
    })
}

/// Random full hierarchies biased toward write-policy-dependent shapes:
/// write-back L1s, WB L2 behind a WT L1, store-buffered main memory.
fn arb_hierarchy() -> impl Strategy<Value = MemHierarchyConfig> {
    let l1 = prop_oneof![
        Just(L1::None),
        arb_cache(CacheScope::Unified).prop_map(L1::Unified),
        (
            arb_cache(CacheScope::InstrOnly),
            arb_cache(CacheScope::DataOnly)
        )
            .prop_map(|(i, d)| L1::Split {
                i: Some(i),
                d: Some(d),
            }),
    ];
    let l2 = prop_oneof![Just(None), arb_l2().prop_map(Some)];
    (l1, l2, arb_main()).prop_map(|(l1, l2, main)| MemHierarchyConfig { l1, l2, main })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole differential: on any supported machine — including
    /// write-back levels, store buffers and mixed stacks — replaying
    /// the ordered trace is indistinguishable from simulating fresh.
    #[test]
    fn replay_is_bit_identical_to_fresh_simulation(h in arb_hierarchy()) {
        let rec = recorded();
        prop_assert!(rec.trace.supports(&h), "v2 supports every hierarchy");
        let (cycles, stats) = rec.trace.replay(&h).unwrap();
        let fresh = simulate(
            &rec.exe,
            &MachineConfig::with_hierarchy(h.clone()),
            &SimOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(cycles, fresh.cycles, "sim_cycles diverged on {}", h.label());
        prop_assert_eq!(
            stats.write_backs, fresh.mem_stats.write_backs,
            "write_backs diverged on {}", h.label()
        );
        prop_assert_eq!(
            stats.dirty_evictions, fresh.mem_stats.dirty_evictions,
            "dirty_evictions diverged on {}", h.label()
        );
        prop_assert_eq!(
            stats.store_buffer_stalls, fresh.mem_stats.store_buffer_stalls,
            "store_buffer_stalls diverged on {}", h.label()
        );
        prop_assert_eq!(stats, fresh.mem_stats, "MemStats diverged on {}", h.label());
    }

    /// The pricing differential: on random write-through and write-back
    /// machines without a store buffer, one latency-0 tally priced at a
    /// random set of main-memory latencies equals both `replay` and a
    /// fresh simulation at each latency, on cycles and every counter.
    #[test]
    fn priced_latencies_match_replay_and_simulation(
        h in arb_unbuffered_hierarchy(),
        latencies in prop::collection::vec(0u64..64, 1..4)
    ) {
        let rec = recorded();
        prop_assert!(rec.trace.priceable(&h), "{} must be priceable", h.label());
        let tally = rec.trace.tally(&h).unwrap();
        for latency in latencies {
            let at = h.clone().with_main(MainMemoryTiming { latency, ..h.main });
            let priced = tally.price(&at.main).unwrap();
            prop_assert_eq!(&priced, &rec.trace.replay(&at).unwrap(), "replay on {}", at.label());
            let fresh = simulate(
                &rec.exe,
                &MachineConfig::with_hierarchy(at.clone()),
                &SimOptions::default(),
            )
            .unwrap();
            prop_assert_eq!(priced.0, fresh.cycles, "sim_cycles diverged on {}", at.label());
            prop_assert_eq!(priced.1, fresh.mem_stats, "MemStats diverged on {}", at.label());
        }
    }

    /// Store-buffered machines are never priced from a tally: the drain
    /// timing moves with the latency, so they keep the ordered engine.
    #[test]
    fn store_buffered_machines_are_not_priceable(h in arb_hierarchy(), depth in 1u32..5, drain in 1u64..10) {
        let rec = recorded();
        let buffered = h
            .clone()
            .with_main(h.main.with_store_buffer(StoreBuffer::new(depth, drain)));
        prop_assert!(!rec.trace.priceable(&buffered), "{}", buffered.label());
        prop_assert!(rec.trace.tally(&buffered).is_err(), "{}", buffered.label());
    }

    /// Serialization does not change replay semantics: a byte round trip
    /// of the v2 stream replays identically on random machines.
    #[test]
    fn byte_round_trip_preserves_replay(h in arb_hierarchy()) {
        let rec = recorded();
        let decoded = MemTrace::from_bytes(&rec.trace.to_bytes()).unwrap();
        prop_assert_eq!(decoded.replay(&h).unwrap(), rec.trace.replay(&h).unwrap());
    }
}

/// [`arb_hierarchy`] with the store buffer removed: the machines one
/// tally prices.
fn arb_unbuffered_hierarchy() -> impl Strategy<Value = MemHierarchyConfig> {
    arb_hierarchy().prop_map(|mut h| {
        h.main.store_buffer = None;
        h
    })
}

/// A priced point over the recording's watchdog limit fails with
/// `Watchdog` on its own: the same tally still prices the latencies
/// under the limit, before and after it.
#[test]
fn priced_watchdog_fails_only_its_own_point() {
    let rec = recorded();
    let h = MemHierarchyConfig::l1_only(CacheConfig::unified(128));
    let tally = rec.trace.tally(&h).unwrap();
    let (cycles0, _) = tally.price(&h.main).unwrap();
    let tx = tally.transactions();
    assert!(tx > 0, "the kernel misses the 128-byte L1");
    // Re-record under a limit that latency `k` meets exactly and the
    // (uncached) recording run itself stays below.
    let (recording, _) = simulate_with_trace(&rec.exe, &SimOptions::default()).unwrap();
    let k = 10 + recording.cycles.saturating_sub(cycles0).div_ceil(tx);
    let limit = cycles0 + k * tx;
    let options = SimOptions {
        max_cycles: limit,
        ..SimOptions::default()
    };
    let (_, limited) = simulate_with_trace(&rec.exe, &options).unwrap();
    let tally = limited.tally(&h).unwrap();
    let at = MainMemoryTiming::dram;
    assert_eq!(tally.price(&at(k)).unwrap().0, limit);
    assert_eq!(
        tally.price(&at(k + 1)),
        Err(SimError::Watchdog { cycles: limit + tx })
    );
    assert_eq!(
        limited.replay(&h.clone().with_main(at(k + 1))),
        tally.price(&at(k + 1)),
        "replay is tally, then price"
    );
    assert_eq!(tally.price(&at(3)).unwrap().0, cycles0 + 3 * tx);
}

/// Traces with cycle-register reads are never priced from a tally: the
/// recorded values move with the latency.
#[test]
fn timing_dependent_traces_are_not_priceable() {
    let Ok(module) = compile("int t; void main() { t = __cycles(); }") else {
        return; // No __cycles intrinsic in this toolchain: nothing to test.
    };
    let l = link(&module, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
    let (_, mmio) = simulate_with_trace(&l.exe, &SimOptions::default()).unwrap();
    assert!(mmio.cycle_reads() > 0);
    for h in [
        MemHierarchyConfig::uncached(),
        MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
        MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024).write_back()),
    ] {
        assert!(!mmio.priceable(&h), "{}", h.label());
        assert!(mmio.tally(&h).is_err(), "{}", h.label());
    }
}

/// Explicit WT-L1-over-WB-L2 coverage (the shape most likely to regress:
/// the L2 absorbs write-through traffic from the L1 and evicts dirty
/// victims on its own schedule), plus store-buffered variants.
#[test]
fn mixed_stacks_replay_bit_identically() {
    let rec = recorded();
    let stacks = [
        MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024).write_back()),
        MemHierarchyConfig::split_l1(64, 64)
            .with_l2(CacheConfig::l2(512).write_back())
            .with_main(MainMemoryTiming::dram(7)),
        MemHierarchyConfig::l1_only(CacheConfig::unified(128))
            .with_l2(CacheConfig::l2(2048).write_back())
            .with_main(MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(2, 6))),
        MemHierarchyConfig::l1_only(CacheConfig::unified(256).write_back())
            .with_l2(CacheConfig::l2(1024).write_back())
            .with_main(MainMemoryTiming::dram(9).with_store_buffer(StoreBuffer::new(4, 5))),
    ];
    for h in stacks {
        let (cycles, stats) = rec.trace.replay(&h).unwrap();
        let fresh = simulate(
            &rec.exe,
            &MachineConfig::with_hierarchy(h.clone()),
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(cycles, fresh.cycles, "{}: cycles diverged", h.label());
        assert_eq!(stats, fresh.mem_stats, "{}: stats diverged", h.label());
    }
}

/// Hand-crafts a wire-format v1 trace (magic, version byte 1, the 30
/// header words, zero events) so the public API can exercise the v1
/// compatibility matrix without an in-crate constructor.
fn v1_trace_bytes(cycle_reads: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"SPMTRACE");
    bytes.push(1);
    let mut words = [0u64; 30];
    words[0] = u64::MAX; // max_cycles: never trip the replay watchdog
    words[1] = 1_000; // base_cycles
    words[3] = cycle_reads;
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.extend_from_slice(&0u64.to_le_bytes()); // event count
    bytes
}

/// The `supports()` validity matrix, exhaustively: v1 works exactly on
/// write-policy-independent machines without cycle reads; v2 supports
/// everything (timing-dependent MMIO reads are validated dynamically at
/// replay time instead of refused statically).
#[test]
fn supports_validity_matrix() {
    let wt_machines = [
        MemHierarchyConfig::uncached(),
        MemHierarchyConfig::uncached_with(MainMemoryTiming::dram(10)),
        MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
        MemHierarchyConfig::split_l1(128, 128),
        MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024)),
    ];
    let wpd_machines = [
        MemHierarchyConfig::l1_only(CacheConfig::unified(256).write_back()),
        MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024).write_back()),
        MemHierarchyConfig::uncached_with(
            MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 6)),
        ),
        MemHierarchyConfig::l1_only(CacheConfig::unified(128).write_back())
            .with_main(MainMemoryTiming::dram(8).with_store_buffer(StoreBuffer::new(2, 4))),
    ];

    // v1 without cycle reads: write-through yes, write-policy-dependent no.
    let v1 = MemTrace::from_bytes(&v1_trace_bytes(0)).unwrap();
    assert_eq!(v1.version(), 1);
    assert!(v1.replayable());
    for h in &wt_machines {
        assert!(v1.supports(h), "v1 must support WT machine {}", h.label());
    }
    for h in &wpd_machines {
        assert!(!v1.supports(h), "v1 must refuse WPD machine {}", h.label());
        assert!(v1.replay(h).is_err(), "v1 replay must refuse {}", h.label());
    }

    // v1 with cycle reads: not replayable anywhere (the recorded MMIO
    // values were never stored in a count-based trace).
    let v1_mmio = MemTrace::from_bytes(&v1_trace_bytes(3)).unwrap();
    assert!(!v1_mmio.replayable());
    for h in wt_machines.iter().chain(&wpd_machines) {
        assert!(!v1_mmio.supports(h), "timing-dependent v1 supports nothing");
        assert!(v1_mmio.replay(h).is_err());
    }

    // v2: supports every machine, cycle reads or not.
    let v2 = &recorded().trace;
    assert_eq!(v2.version(), 2);
    for h in wt_machines.iter().chain(&wpd_machines) {
        assert!(v2.supports(h), "v2 must support {}", h.label());
        assert!(
            v2.replay(h).is_ok(),
            "v2 replay must succeed on {}",
            h.label()
        );
    }

    // v2 with MMIO cycle-register reads: still supported everywhere —
    // validity is checked dynamically (ReplayDivergence on mismatch).
    let src = "int t; void main() { t = __cycles(); }";
    if let Ok(module) = compile(src) {
        let l = link(&module, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
        let (_, mmio) = simulate_with_trace(&l.exe, &SimOptions::default()).unwrap();
        assert!(mmio.cycle_reads() > 0);
        for h in wt_machines.iter().chain(&wpd_machines) {
            assert!(mmio.supports(h), "v2 MMIO trace must support {}", h.label());
        }
    }
}

/// Satellite regression pin, mirroring `tests/observability.rs`: the
/// ten-spec write-policy axis must keep its memo/replay split. One pair
/// of axis entries is intentionally identical (the all-WT split-L1+L2
/// shape appears in two pairings) — one memo hit; the remaining nine
/// distinct machines — write-back and store-buffered ones included —
/// all replay from the v2 trace with zero full-simulation fallbacks.
#[test]
fn write_policy_axis_memo_replay_split_pinned() {
    let _x = spmlab_obs::exclusive();
    let sink = Arc::new(MemorySink::default());
    let guard = spmlab_obs::add_sink(sink.clone());

    let p = Pipeline::with_input(&G721, inputs::speech_like(48, 0xC0FFEE)).unwrap();
    let points = spec_sweep(&p, &write_policy_axis(1024)).unwrap();
    drop(guard);

    assert_eq!(points.len(), 10, "the axis has ten points");
    assert_eq!(sink.counter_total("sweep_points"), 10);
    assert_eq!(sink.counter_total("sweep_memo_miss"), 9);
    assert_eq!(sink.counter_total("sweep_memo_hit"), 1);
    // The no-SPM measure path replays even the recording machine's own
    // spec (bit-identical by the tests above, so reuse would only be an
    // optimization); all nine distinct machines replay.
    assert_eq!(sink.counter_total("sweep_recorded_reuse"), 0);
    assert_eq!(
        sink.counter_total("sweep_replay"),
        9,
        "nine distinct machines replay"
    );
    assert_eq!(
        sink.counter_total("sweep_full_sim"),
        0,
        "write-back and store-buffered points must replay, not fall back"
    );

    // The memoized duplicate pair must agree bit-for-bit, and the
    // write-back twins must actually differ from their write-through
    // partners (the axis is not degenerate).
    assert_eq!(points[2].result.sim_cycles, points[4].result.sim_cycles);
    assert_ne!(points[0].result.sim_cycles, points[1].result.sim_cycles);
}

/// The `write-policy` experiment's provenance must show the flip this
/// PR unlocked: every write-policy-dependent point served by trace
/// replay, zero full-simulation fallbacks. (`write_policy_sweep` also
/// asserts internally that replay and full simulation agree
/// bit-identically on cycles, bounds, checksums and stats-derived
/// energy at every point.)
#[test]
fn write_policy_experiment_provenance_shows_replay_flip() {
    let _x = spmlab_obs::exclusive();
    let sweep = spmlab_bench::write_policy_sweep(true).unwrap();
    assert_eq!(sweep.points.len(), 5, "five write-through/write-back pairs");
    assert_eq!(sweep.provenance.replay_points, Some(9));
    assert_eq!(sweep.provenance.full_sim_points, Some(0));
    assert_eq!(sweep.provenance.memo_hits, Some(1));
    assert_eq!(sweep.provenance.memo_misses, Some(9));
    assert!(sweep.replay_wall > 0.0 && sweep.full_sim_wall > 0.0);
    let phases: Vec<&str> = sweep
        .provenance
        .phase_ns
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(phases, ["sweep-replay", "sweep-full-sim"]);
}
