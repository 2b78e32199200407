//! Workspace-level differential tests for ordered (v2) write-event
//! traces: replay must be **bit-identical** to fresh simulation — same
//! `sim_cycles`, same full [`MemStats`] (including `write_backs`,
//! `dirty_evictions` and `store_buffer_stalls`) — on *any* hierarchy a
//! v2 trace claims to support, including write-back levels, store
//! buffers and mixed WT-L1-over-WB-L2 stacks. Property tests draw the
//! machines at random, and ADPCM's recording replays every machine of
//! the write-policy axis; pinned counter tests lock that axis'
//! memo/replay split the way `tests/observability.rs` does for the
//! write-through hierarchy scenario. One pricing memo (`Tallies`) decides
//! what a trace's machines share: machines without a store buffer are
//! priced from one latency-0 tally per cache geometry, and the L2s behind
//! one L1 share one walk of it. The pricing differential checks shared
//! prices against replay and simulation at random latencies, and a
//! counting test pins one `replay` span per geometry and one first-level
//! walk per L1 (the sweep-level case lives in `tests/observability.rs`).
//! Run-indexed tallies, which skip guaranteed first-level hits, must
//! equal the per-event tally of the same trace: on random machines here,
//! and on every cache geometry of the `dse-wt` and `dse-wb` benchmark
//! grids for three real kernels. Staged tallies, whose L2s share one walk
//! of their L1, must equal the walk of every event through the whole
//! hierarchy. A
//! store buffer behind a write-back level that absorbs every store must
//! change nothing — simulation, analysis or `Pipeline::run` — which is
//! what lets the sweep share such a point with its unbuffered twin.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;

use proptest::prelude::*;
use spmlab::dse::{GridSpec, L1Shape};
use spmlab::pipeline::Pipeline;
use spmlab::sweep::{spec_sweep_with_session, SweepSession};
use spmlab::{write_policy_axis, ConfigResult, MemArchSpec};
use spmlab_cc::{compile, link, SpmAssignment};
use spmlab_isa::cachecfg::{CacheConfig, CacheScope, Replacement, WritePolicy};
use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig, StoreAbsorb, StoreBuffer, L1};
use spmlab_isa::mem::{AccessWidth, MemoryMap, MMIO_CYCLES};
use spmlab_obs::collector::MemorySink;
use spmlab_obs::{Sink, SpanMeta};
use spmlab_sim::{
    simulate, simulate_with_trace, AccessKind, MachineConfig, MemStats, MemTrace, SimError,
    SimOptions, Tallies,
};
use spmlab_workloads::{gen, inputs, Benchmark, InputGen, Reference, ADPCM, G721, MULTISORT};

#[path = "common/cycle_reader.rs"]
mod cycle_reader;

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
    /// The same recording, opted into run-indexed tallies.
    indexed: MemTrace,
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
        let indexed = trace.clone().with_run_index();
        Recorded {
            exe: l.exe,
            trace,
            indexed,
        }
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

/// A random line of 8 to 64 bytes: run-indexed tallies serve lines of
/// 16 bytes and more, and shorter ones must walk every event.
fn arb_line() -> impl Strategy<Value = u32> {
    (0u32..4).prop_map(|exp| 8 << exp)
}

/// A random L1-sized cache: 64..=1024 bytes, 8..=64-byte lines,
/// 1/2/4-way (capped at the line count), any replacement and write
/// policy.
fn arb_cache(scope: CacheScope) -> impl Strategy<Value = CacheConfig> {
    (
        0u32..5,
        arb_line(),
        0u32..3,
        arb_replacement(),
        arb_policy(),
    )
        .prop_map(
            move |(size_exp, line, assoc_exp, replacement, write_policy)| {
                let size = 64 << size_exp;
                CacheConfig {
                    scope,
                    write_policy,
                    line,
                    ..CacheConfig::set_assoc(size, (1 << assoc_exp).min(size / line), replacement)
                }
            },
        )
}

fn arb_l2() -> impl Strategy<Value = CacheConfig> {
    (0u32..4, arb_line(), arb_policy()).prop_map(|(size_exp, line, write_policy)| CacheConfig {
        write_policy,
        line,
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
/// write-back L1s, WB L2 behind a WT L1, store-buffered main memory —
/// plus instruction-only and data-only L1s.
fn arb_hierarchy() -> impl Strategy<Value = MemHierarchyConfig> {
    let l2 = prop_oneof![Just(None), arb_l2().prop_map(Some)];
    (arb_l1(), l2, arb_main()).prop_map(|(l1, l2, main)| MemHierarchyConfig { l1, l2, main })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole differential: on any supported machine — including
    /// write-back levels, store buffers and mixed stacks — replaying
    /// the ordered trace is indistinguishable from simulating fresh.
    #[test]
    fn replay_is_bit_identical_to_fresh_simulation(h in arb_hierarchy()) {
        let rec = recorded();
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
    /// machines without a store buffer, one pricing memo priced at a
    /// random set of main-memory latencies, which shares one latency-0
    /// tally, equals both `replay` and a fresh simulation at each latency,
    /// on cycles and every counter — and the run-indexed trace's memo
    /// prices as the per-event one.
    #[test]
    fn priced_latencies_match_replay_and_simulation(
        h in arb_unbuffered_hierarchy(),
        latencies in prop::collection::vec(0u64..64, 1..4)
    ) {
        let rec = recorded();
        let mut plain = Tallies::default();
        let mut indexed = Tallies::default();
        for latency in latencies {
            let at = h.clone().with_main(MainMemoryTiming { latency, ..h.main });
            let priced = rec.trace.price(&at, &mut plain).unwrap();
            let priced_indexed = rec.indexed.price(&at, &mut indexed).unwrap();
            prop_assert_eq!(&priced, &priced_indexed, "indexed on {}", at.label());
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
    /// Priced through a memo that already holds their unbuffered twin's
    /// tally, at two latencies, each equals a fresh simulation.
    #[test]
    fn store_buffered_machines_are_not_priceable(
        h in arb_hierarchy(),
        depth in 1u32..5,
        drain in 1u64..10,
        latency in 0u64..64
    ) {
        let rec = recorded();
        let unbuffered = MainMemoryTiming { store_buffer: None, ..h.main };
        let mut tallies = Tallies::default();
        rec.trace.price(&h.clone().with_main(unbuffered), &mut tallies).unwrap();
        let buffered = unbuffered.with_store_buffer(StoreBuffer::new(depth, drain));
        for main in [buffered, MainMemoryTiming { latency, ..buffered }] {
            let at = h.clone().with_main(main);
            let priced = rec.trace.price(&at, &mut tallies).unwrap();
            let fresh = simulate(
                &rec.exe,
                &MachineConfig::with_hierarchy(at.clone()),
                &SimOptions::default(),
            )
            .unwrap();
            prop_assert_eq!(priced, (fresh.cycles, fresh.mem_stats), "{}", at.label());
        }
    }

    /// The staged differential: one random first level — write-through
    /// or write-back, unified, scoped or split — in front of two or three
    /// random L2s or none, priced in turn through one memo, equals the
    /// walk of every event through the whole `HierarchyCaches` of each
    /// machine, on transactions, cycles and every counter, at random
    /// latencies; the plain and the run-indexed recording alike. Some L2s are as small as an L1, so
    /// that an L1's fill and its dirty victim often meet in one L2 set,
    /// where their order matters.
    #[test]
    fn staged_tallies_match_the_per_event_walk(
        l1 in arb_l1(),
        l2s in prop::collection::vec(
            prop_oneof![
                Just(None),
                arb_l2().prop_map(Some),
                arb_cache(CacheScope::Unified).prop_map(Some),
            ],
            2..4,
        ),
        main in arb_main(),
        latencies in prop::collection::vec(0u64..64, 1..4)
    ) {
        let rec = recorded();
        let main = MainMemoryTiming { store_buffer: None, ..main };
        let mut plain = Tallies::default();
        let mut indexed = Tallies::default();
        for l2 in l2s {
            for &latency in &latencies {
                let main = MainMemoryTiming { latency, ..main };
                let h = MemHierarchyConfig { l1: l1.clone(), l2: l2.clone(), main };
                let direct = per_event_walk(&rec.trace, &h, &main);
                let staged = priced_parts(&rec.trace, &mut plain, &h);
                prop_assert_eq!(&staged, &direct, "{}", h.label());
                let staged = priced_parts(&rec.indexed, &mut indexed, &h);
                prop_assert_eq!(&staged, &direct, "indexed {}", h.label());
            }
        }
    }

    /// Serialization does not change replay semantics: a byte round trip
    /// of the v2 stream replays identically on random machines, and a
    /// run-indexed trace serializes, compares and re-indexes as the
    /// recording it was built from.
    #[test]
    fn byte_round_trip_preserves_replay(h in arb_hierarchy()) {
        let rec = recorded();
        let decoded = MemTrace::from_bytes(&rec.trace.to_bytes()).unwrap();
        prop_assert_eq!(decoded.replay(&h).unwrap(), rec.trace.replay(&h).unwrap());
        // Pricing builds the index (when `h` can use one) first.
        let indexed = rec.indexed.replay(&h);
        prop_assert_eq!(&rec.indexed, &rec.trace);
        let bytes = rec.indexed.to_bytes();
        prop_assert_eq!(&bytes, &rec.trace.to_bytes());
        let reindexed = MemTrace::from_bytes(&bytes).unwrap().with_run_index();
        prop_assert_eq!(reindexed.replay(&h), indexed);
    }
}

/// A random first level: none, a unified, instruction-only or data-only
/// L1, or a split one.
fn arb_l1() -> impl Strategy<Value = L1> {
    prop_oneof![
        Just(L1::None),
        arb_cache(CacheScope::Unified).prop_map(L1::Unified),
        arb_cache(CacheScope::InstrOnly).prop_map(L1::Unified),
        arb_cache(CacheScope::DataOnly).prop_map(L1::Unified),
        (
            arb_cache(CacheScope::InstrOnly),
            arb_cache(CacheScope::DataOnly)
        )
            .prop_map(|(i, d)| L1::Split {
                i: Some(i),
                d: Some(d),
            }),
    ]
}

/// What a tally of `trace` under `h` must determine, by the walk of every
/// recorded event, in program order, through the whole `HierarchyCaches`
/// of `h` at latency 0: main-memory transactions, and the cycles and
/// statistics priced at `main`. The events, base cycles and statistics
/// template are decoded from the trace's wire format (magic, version, 30
/// header words, event count, then 14-byte events), so the walk shares no
/// code with the tally's stages.
fn per_event_walk(
    trace: &MemTrace,
    h: &MemHierarchyConfig,
    main: &MainMemoryTiming,
) -> (u64, u64, MemStats) {
    let bytes = trace.to_bytes();
    let word = |i: usize| u64::from_le_bytes(bytes[9 + 8 * i..17 + 8 * i].try_into().unwrap());
    let t: Vec<u64> = (10..30).map(word).collect();
    let mut stats = MemStats {
        spm: [t[0], t[1], t[2]],
        main: [t[3], t[4], t[5]],
        mmio: t[6],
        cache_hits: t[7],
        cache_misses: t[8],
        fill_words: t[9],
        write_throughs: t[10],
        write_backs: t[11],
        dirty_evictions: t[12],
        store_buffer_stalls: t[13],
        l1i_hits: t[14],
        l1i_misses: t[15],
        l1d_hits: t[16],
        l1d_misses: t[17],
        l2_hits: t[18],
        l2_misses: t[19],
    };
    let mut caches = spmlab_sim::HierarchyCaches::new(h.clone().with_main(MainMemoryTiming {
        latency: 0,
        ..*main
    }));
    let mut cycles = word(1);
    let widths = AccessWidth::ALL;
    for event in bytes[9 + 8 * 31..].chunks(14) {
        let addr = u32::from_le_bytes(event[0..4].try_into().unwrap());
        cycles += match event[4] {
            0 => {
                caches
                    .read(addr, AccessKind::Fetch, AccessWidth::Half, &mut stats)
                    .0
            }
            k @ 1..=3 => {
                caches
                    .read(addr, AccessKind::Read, widths[k as usize - 1], &mut stats)
                    .0
            }
            k @ 4..=6 => caches.write(addr, widths[k as usize - 4], 0, &mut stats),
            k => panic!("event kind {k} in a priceable trace"),
        };
    }
    let transactions = caches.main_transactions();
    (transactions, cycles + main.latency * transactions, stats)
}

/// What pricing `h` through `tallies` determines: the main-memory
/// transactions, read as the slope of the cycles between `h`'s latency
/// and one cycle more, and the cycles and statistics at `h`.
fn priced_parts(
    trace: &MemTrace,
    tallies: &mut Tallies,
    h: &MemHierarchyConfig,
) -> (u64, u64, MemStats) {
    let (cycles, stats) = trace.price(h, tallies).unwrap();
    let later = MainMemoryTiming {
        latency: h.main.latency + 1,
        ..h.main
    };
    let (slope, _) = trace.price(&h.clone().with_main(later), tallies).unwrap();
    (slope - cycles, cycles, stats)
}

/// The cache geometries the `dse-wt` benchmark grid tallies: no L1, or a
/// unified or split write-through L1 of 256 B to 4 KiB, over no L2 or a
/// 4 or 16 KiB L2. With `policy` write-back, those of the `dse-wb` grid:
/// a write-back L1 of 256 B to 4 KiB over no L2 or a write-back one.
fn dse_geometries(policy: WritePolicy) -> Vec<MemHierarchyConfig> {
    let grid = GridSpec {
        l1_shapes: vec![L1Shape::Unified, L1Shape::Split],
        l1_sizes: match policy {
            WritePolicy::WriteThrough => vec![0, 256, 1024, 4096],
            WritePolicy::WriteBack => vec![256, 1024, 4096],
        },
        l1_policies: vec![policy],
        l2_sizes: vec![0, 4096, 16384],
        l2_policies: vec![policy],
        main_latencies: vec![0],
        ..GridSpec::default()
    };
    grid.axis()
        .unwrap()
        .0
        .iter()
        .map(|spec| spec.canonical().hierarchy())
        .collect()
}

/// Run-indexed tallies on real kernels: for adpcm, multisort and the
/// generated `gen-0001`, on every cache geometry of the `dse-wt` and
/// `dse-wb` grids, the indexed tally equals the per-event tally on
/// cycles, transactions and every `MemStats` counter, and skips events
/// on the way. One fresh simulation per hierarchy shape anchors both.
#[test]
fn run_indexed_tallies_match_per_event_tallies_on_kernels() {
    let through = dse_geometries(WritePolicy::WriteThrough);
    assert_eq!(
        through.len(),
        21,
        "uncached, two L2-only and 18 L1 geometries"
    );
    let back = dse_geometries(WritePolicy::WriteBack);
    assert_eq!(back.len(), 18, "18 write-back L1 geometries");
    assert!(back.iter().all(|h| h.store_absorb() == StoreAbsorb::L1));
    let geometries = [through, back].concat();
    let generated = gen::generate_for_seed(1, &gen::reference_arch()).benchmark();
    assert!(generated.name.starts_with("gen-0001"), "{}", generated.name);
    let options = SimOptions {
        insn_stats: false,
        ..SimOptions::default()
    };
    let _x = spmlab_obs::exclusive();
    for b in [ADPCM.clone(), MULTISORT.clone(), generated] {
        let module = b.compile().unwrap();
        let l = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &b.typical_input(),
            )
            .unwrap();
        let (_, plain) = simulate_with_trace(&l.exe, &options).unwrap();
        let indexed = plain.clone().with_run_index();
        let mut anchored = BTreeSet::new();
        for h in &geometries {
            let sink = Arc::new(MemorySink::default());
            let guard = spmlab_obs::add_sink(sink.clone());
            let parts = priced_parts(&indexed, &mut Tallies::default(), h);
            drop(guard);
            let slow = priced_parts(&plain, &mut Tallies::default(), h);
            assert_eq!(parts, slow, "{}: {}", b.name, h.label());
            if h.l1 != L1::None || h.l2.is_some() {
                assert!(
                    sink.counter_total("replay_elided") > 0,
                    "{}: {} skipped nothing",
                    b.name,
                    h.label()
                );
            }
            let l1_shape = match h.l1 {
                L1::None => 0,
                L1::Unified(_) => 1,
                L1::Split { .. } => 2,
            };
            let shape = (l1_shape, h.l2.is_some(), h.write_policy_dependent());
            if anchored.insert(shape) {
                let fresh =
                    simulate(&l.exe, &MachineConfig::with_hierarchy(h.clone()), &options).unwrap();
                assert_eq!(
                    (parts.1, &parts.2),
                    (fresh.cycles, &fresh.mem_stats),
                    "{}: {}",
                    b.name,
                    h.label()
                );
            }
        }
        assert_eq!(anchored.len(), 10, "every shape anchored once");
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
/// `Watchdog` on its own: the same memo still prices the latencies under
/// the limit, before and after it.
#[test]
fn priced_watchdog_fails_only_its_own_point() {
    let rec = recorded();
    let h = |latency| {
        MemHierarchyConfig::l1_only(CacheConfig::unified(128))
            .with_main(MainMemoryTiming::dram(latency))
    };
    let (tx, cycles0, _) = priced_parts(&rec.trace, &mut Tallies::default(), &h(0));
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
    let mut tallies = Tallies::default();
    assert_eq!(limited.price(&h(k), &mut tallies).unwrap().0, limit);
    let over = Err(SimError::Watchdog { cycles: limit + tx });
    assert_eq!(limited.price(&h(k + 1), &mut tallies), over);
    assert_eq!(limited.replay(&h(k + 1)), over, "replay is price");
    assert_eq!(
        limited.price(&h(3), &mut tallies).unwrap().0,
        cycles0 + 3 * tx
    );
}

/// Traces with cycle-register reads are never priced from a tally: the
/// recorded values move with the latency, so every machine takes the
/// ordered engine, which checks them. Through one memo, the recording
/// machine prices to the recorded cycles, and a slower latency twin of
/// each machine diverges where a tally would have priced it.
#[test]
fn timing_dependent_traces_are_not_priceable() {
    let exe = cycle_reader::cycle_reader();
    let (recorded, mmio) = simulate_with_trace(&exe, &SimOptions::default()).unwrap();
    assert!(mmio.cycle_reads() > 0);
    let mut tallies = Tallies::default();
    let uncached = MemHierarchyConfig::uncached();
    let (cycles, _) = mmio.price(&uncached, &mut tallies).unwrap();
    assert_eq!(cycles, recorded.cycles);
    for h in [
        uncached,
        MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
        MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024).write_back()),
    ] {
        let slow = h.with_main(MainMemoryTiming::dram(10));
        assert!(
            matches!(
                mmio.price(&slow, &mut tallies),
                Err(SimError::ReplayDivergence { .. })
            ),
            "{}",
            slow.label()
        );
    }
}

/// Totals this thread's counters and span opens by name: the events of
/// tests running beside it come from their own threads.
struct ThreadTotals {
    thread: ThreadId,
    totals: Mutex<BTreeMap<&'static str, u64>>,
}

impl ThreadTotals {
    /// A sink totalling the calling thread's events.
    fn new() -> Arc<ThreadTotals> {
        Arc::new(ThreadTotals {
            thread: std::thread::current().id(),
            totals: Mutex::default(),
        })
    }

    fn add(&self, name: &'static str, delta: u64) {
        if std::thread::current().id() == self.thread {
            *self.totals.lock().unwrap().entry(name).or_insert(0) += delta;
        }
    }

    fn total(&self, name: &str) -> u64 {
        self.totals.lock().unwrap().get(name).copied().unwrap_or(0)
    }
}

impl Sink for ThreadTotals {
    fn span_open(&self, span: &SpanMeta) {
        self.add(span.name, 1);
    }
    fn span_close(&self, _: &SpanMeta, _: u64) {}
    fn counter(&self, name: &'static str, delta: u64, _: u64, _: u64) {
        self.add(name, delta);
    }
    fn progress(&self, _: u64, _: u64, _: &str, _: u64, _: u64) {}
}

/// The sharing rule has one owner: one pricing memo, over a unified and a
/// split L1, each in front of no L2 and two L2 sizes, at three
/// main-memory latencies. Machines that differ only in the latency share
/// one tally, one `replay` span per geometry, and the L2s behind one L1
/// share one walk of it, the `replay_events` of one first-level walk per
/// L1. Every price equals a fresh simulation.
#[test]
fn one_memo_shares_tallies_and_first_level_walks() {
    let rec = recorded();
    let l1s = [
        L1::Unified(CacheConfig::unified(256)),
        MemHierarchyConfig::split_l1(128, 128).l1,
    ];
    let l2s = [
        None,
        Some(CacheConfig::l2(1024)),
        Some(CacheConfig::l2(4096)),
    ];
    let machines: Vec<MemHierarchyConfig> = l1s
        .iter()
        .flat_map(|l1| l2s.iter().map(move |l2| (l1, l2)))
        .flat_map(|(l1, l2)| {
            [0, 10, 40].map(|latency| MemHierarchyConfig {
                l1: l1.clone(),
                l2: l2.clone(),
                main: MainMemoryTiming::dram(latency),
            })
        })
        .collect();
    let _x = spmlab_obs::exclusive();
    let sink = ThreadTotals::new();
    let guard = spmlab_obs::add_sink(sink.clone());
    let mut tallies = Tallies::default();
    let priced: Vec<(u64, MemStats)> = machines
        .iter()
        .map(|h| rec.trace.price(h, &mut tallies).unwrap())
        .collect();
    drop(guard);
    assert_eq!(sink.total("replay"), 6, "one tally per geometry");
    assert_eq!(sink.total("replay_elided"), 0, "no run index");
    assert_eq!(
        sink.total("replay_events"),
        2 * rec.trace.events() as u64,
        "one first-level walk per L1"
    );
    assert!(sink.total("replay_l2_events") > 0);
    for (h, priced) in machines.iter().zip(priced) {
        let fresh = simulate(
            &rec.exe,
            &MachineConfig::with_hierarchy(h.clone()),
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(priced, (fresh.cycles, fresh.mem_stats), "{}", h.label());
    }
}

/// A MiniC program that reads the cycle register: the harness patches
/// `input[0]` so that the out-of-bounds `a[input[0]]` lands on
/// `MMIO_CYCLES`, and the oracle ignores the value read.
const CYCLE_INDEX_SRC: &str = "int input[1]; int n; int a[1]; int checksum;
    void main() { int t; t = a[input[0]]; checksum = 7; }";

/// A point whose recorded cycle-register value diverges under its timing
/// falls back to a full simulation of its link. The baseline trace of
/// [`CYCLE_INDEX_SRC`] holds one cycle read: the uncached point replays
/// it, the 256-byte L1 point diverges, and both equal a direct
/// simulation of the baseline link.
#[test]
fn diverging_cycle_reads_fall_back_to_full_simulation() {
    let bench = Benchmark {
        name: "cycle-index".into(),
        description: "reads the cycle register through an out-of-bounds index".into(),
        source: CYCLE_INDEX_SRC.into(),
        input_global: "input".into(),
        count_global: "n".into(),
        typical_input: InputGen::Fixed(Arc::new(vec![0])),
        worst_input: None,
        reference_checksum: Reference::Host(|_| 7),
    };
    let module = bench.compile().unwrap();
    let link_with = |input: &[i32]| {
        bench
            .link_with_input(&module, &MemoryMap::no_spm(), &SpmAssignment::none(), input)
            .unwrap()
    };
    let a = link_with(&[0]).exe.symbol("a").unwrap().addr;
    let input = vec![((MMIO_CYCLES - a) / 4) as i32];
    let baseline = link_with(&input);
    let (_, trace) = simulate_with_trace(&baseline.exe, &SimOptions::default()).unwrap();
    assert_eq!(trace.cycle_reads(), 1);

    let _x = spmlab_obs::exclusive();
    let p = Pipeline::with_input(&bench, input).unwrap();
    let specs = [
        MemArchSpec::uncached(),
        MemArchSpec::single_cache(CacheConfig::unified(256)),
    ];
    let sink = Arc::new(MemorySink::default());
    let guard = spmlab_obs::add_sink(sink.clone());
    let points = spec_sweep_with_session(&p, &specs, &SweepSession::none()).unwrap();
    drop(guard);
    assert_eq!(sink.counter_total("sweep_replay"), 1);
    assert_eq!(sink.counter_total("sweep_full_sim"), 1);
    for pt in &points {
        let machine = MachineConfig::with_hierarchy(pt.spec.hierarchy());
        let direct = simulate(&baseline.exe, &machine, &SimOptions::default()).unwrap();
        let r = pt.outcome.result().expect("no point fails");
        assert_eq!(r.sim_cycles, direct.cycles, "{}", r.label);
        assert_eq!(r.checksum, 7, "{}", r.label);
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
    assert_replay_matches_simulation(&rec.exe, &rec.trace, stacks, &SimOptions::default());
}

/// ADPCM's no-scratchpad link, recorded once, replays every machine of
/// the quick write-policy axis — write-back levels and the store buffer
/// included — exactly as a fresh simulation runs it.
#[test]
fn write_policy_axis_replays_adpcm_bit_identically() {
    let options = SimOptions {
        insn_stats: false,
        ..SimOptions::default()
    };
    let module = ADPCM.compile().unwrap();
    let l = ADPCM
        .link_with_input(
            &module,
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
            &ADPCM.typical_input(),
        )
        .unwrap();
    let (_, trace) = simulate_with_trace(&l.exe, &options).unwrap();
    let axis = write_policy_axis(512);
    assert_eq!(axis.len(), 10);
    let machines = axis.iter().map(|spec| spec.canonical().hierarchy());
    assert_replay_matches_simulation(&l.exe, &trace, machines, &options);
}

/// Replays `trace` on each of `machines` and checks cycles and every
/// [`MemStats`] counter against a fresh simulation of `exe`.
fn assert_replay_matches_simulation(
    exe: &spmlab_isa::image::Executable,
    trace: &MemTrace,
    machines: impl IntoIterator<Item = MemHierarchyConfig>,
    options: &SimOptions,
) {
    for h in machines {
        let (cycles, stats) = trace.replay(&h).unwrap();
        let fresh = simulate(exe, &MachineConfig::with_hierarchy(h.clone()), options).unwrap();
        assert_eq!(cycles, fresh.cycles, "{}: cycles diverged", h.label());
        assert_eq!(stats, fresh.mem_stats, "{}: stats diverged", h.label());
    }
}

/// Every machine replays the recorded trace, write-back and
/// store-buffered ones included; a trace with MMIO cycle-register reads
/// either replays or reports a typed divergence (validity is checked at
/// replay time, never refused up front).
#[test]
fn every_machine_replays_the_recorded_trace() {
    let machines = [
        MemHierarchyConfig::uncached(),
        MemHierarchyConfig::uncached_with(MainMemoryTiming::dram(10)),
        MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
        MemHierarchyConfig::split_l1(128, 128),
        MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024)),
        MemHierarchyConfig::l1_only(CacheConfig::unified(256).write_back()),
        MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024).write_back()),
        MemHierarchyConfig::uncached_with(
            MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 6)),
        ),
        MemHierarchyConfig::l1_only(CacheConfig::unified(128).write_back())
            .with_main(MainMemoryTiming::dram(8).with_store_buffer(StoreBuffer::new(2, 4))),
    ];
    let trace = &recorded().trace;
    for h in &machines {
        assert!(
            trace.replay(h).is_ok(),
            "replay must succeed on {}",
            h.label()
        );
    }

    let (_, mmio) =
        simulate_with_trace(&cycle_reader::cycle_reader(), &SimOptions::default()).unwrap();
    assert!(mmio.cycle_reads() > 0);
    for h in &machines {
        assert!(
            matches!(
                mmio.replay(h),
                Ok(_) | Err(SimError::ReplayDivergence { .. })
            ),
            "MMIO trace on {}",
            h.label()
        );
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
    let outcomes =
        spec_sweep_with_session(&p, &write_policy_axis(1024), &SweepSession::none()).unwrap();
    drop(guard);
    let points: Vec<&ConfigResult> = outcomes
        .iter()
        .map(|o| o.outcome.result().expect("no point fails"))
        .collect();

    assert_eq!(points.len(), 10, "the axis has ten points");
    assert_eq!(sink.counter_total("sweep_points"), 10);
    assert_eq!(sink.counter_total("sweep_memo_miss"), 9);
    assert_eq!(sink.counter_total("sweep_memo_hit"), 1);
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
    assert_eq!(points[2].sim_cycles, points[4].sim_cycles);
    assert_ne!(points[0].sim_cycles, points[1].sim_cycles);
}

/// The quick `write-policy` grid run, profiled: its sweep counters show
/// every distinct machine — write-back and store-buffered ones
/// included — served by trace replay with zero full-simulation
/// fallbacks, and the repeated all-write-through split-L1+L2 spec served
/// from the memo.
#[test]
fn write_policy_experiment_provenance_shows_replay_flip() {
    let _x = spmlab_obs::exclusive();
    let sink = Arc::new(MemorySink::default());
    let guard = spmlab_obs::add_sink(sink.clone());
    let report = spmlab_bench::experiment("write-policy")
        .unwrap()
        .run(true)
        .unwrap();
    drop(guard);
    assert!(report.contains("both policies: yes"), "{report}");
    assert_eq!(sink.counter_total("sweep_points"), 10);
    assert_eq!(sink.counter_total("sweep_replay"), 9);
    assert_eq!(sink.counter_total("sweep_full_sim"), 0);
    assert_eq!(sink.counter_total("sweep_memo_hit"), 1);
    assert_eq!(sink.counter_total("sweep_memo_miss"), 9);
}

/// Machines whose write-back levels absorb every store before it can
/// reach main memory: a write-back L1 with or without an L2 behind it, a
/// write-through L1 in front of a write-back L2, and an L1-less
/// write-back L2.
fn absorbing_machines() -> Vec<MemHierarchyConfig> {
    let wb_l1d = || MemHierarchyConfig {
        l1: L1::Split {
            i: Some(CacheConfig::instr_only(256)),
            d: Some(CacheConfig::data_only(256).write_back()),
        },
        l2: None,
        main: MainMemoryTiming::table1(),
    };
    vec![
        wb_l1d(),
        MemHierarchyConfig::l1_only(CacheConfig::unified(1024).write_back()),
        wb_l1d().with_l2(CacheConfig::l2(4096).write_back()),
        MemHierarchyConfig::l1_only(CacheConfig::unified(512).write_back())
            .with_l2(CacheConfig::l2(4096))
            .with_main(MainMemoryTiming::dram(10)),
        MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(4096).write_back()),
        MemHierarchyConfig::uncached()
            .with_l2(CacheConfig::l2(2048).write_back())
            .with_main(MainMemoryTiming::dram(10)),
    ]
}

/// `h` with `sb` in front of its main memory.
fn buffered(h: &MemHierarchyConfig, sb: StoreBuffer) -> MemHierarchyConfig {
    h.clone().with_main(h.main.with_store_buffer(sb))
}

/// A store buffer behind a write-back level that absorbs every store is
/// idle: on ADPCM and a generated program, for every absorbing shape and
/// two buffer shapes, a fresh simulation, a fresh analysis and
/// `Pipeline::run` (a scratchpad spec over a write-back L1 included) all
/// equal the unbuffered twin's, and the buffer never stalls. The
/// control: on all-write-through machines, where stores do reach the
/// buffer, it changes the cycles or stalls.
#[test]
fn idle_store_buffers_change_nothing() {
    // `Pipeline::run` emits replay counters: hold the sink lock so the
    // counter pins of concurrently running tests do not see them.
    let _x = spmlab_obs::exclusive();
    let buffers = [StoreBuffer::new(4, 8), StoreBuffer::new(1, 40)];
    let options = SimOptions {
        insn_stats: false,
        ..SimOptions::default()
    };
    let generated = gen::generate_for_seed(2, &gen::reference_arch()).benchmark();
    for b in [ADPCM.clone(), generated] {
        let module = b.compile().unwrap();
        let l = b
            .link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &b.typical_input(),
            )
            .unwrap();
        let sim = |h: &MemHierarchyConfig| {
            simulate(&l.exe, &MachineConfig::with_hierarchy(h.clone()), &options).unwrap()
        };
        let analyze = |h: &MemHierarchyConfig| {
            spmlab_wcet::analyze(
                &l.exe,
                &spmlab_wcet::WcetConfig::with_hierarchy(h.clone()),
                &l.annotations,
            )
            .unwrap()
        };
        for h in absorbing_machines() {
            let plain = sim(&h);
            let plain_bound = analyze(&h);
            for sb in buffers {
                let hb = buffered(&h, sb);
                assert!(!hb.buffers_stores(), "{}", hb.label());
                let fresh = sim(&hb);
                assert_eq!(fresh.cycles, plain.cycles, "{}: {}", b.name, hb.label());
                assert_eq!(
                    fresh.mem_stats,
                    plain.mem_stats,
                    "{}: {}",
                    b.name,
                    hb.label()
                );
                assert_eq!(fresh.mem_stats.store_buffer_stalls, 0);
                assert_eq!(analyze(&hb), plain_bound, "{}: {}", b.name, hb.label());
            }
        }
        let mut specs: Vec<MemArchSpec> = absorbing_machines()
            .iter()
            .map(MemArchSpec::from_hierarchy)
            .collect();
        specs.push(MemArchSpec {
            l1: L1::Unified(CacheConfig::unified(512).write_back()),
            ..MemArchSpec::spm(512)
        });
        let p = Pipeline::new(&b).unwrap();
        for spec in specs {
            let plain = p.run(&spec).unwrap();
            for sb in buffers {
                let spec_b = MemArchSpec {
                    main: spec.main.with_store_buffer(sb),
                    ..spec.clone()
                };
                let r = p.run(&spec_b).unwrap();
                assert_ne!(r.label, plain.label, "the buffer stays in the label");
                assert_same_result(&r, &plain);
            }
        }
        for h in [
            MemHierarchyConfig::uncached(),
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(4096)),
        ] {
            let plain = sim(&h);
            for sb in buffers {
                let hb = buffered(&h, sb);
                assert!(hb.buffers_stores(), "{}", hb.label());
                let fresh = sim(&hb);
                assert!(
                    fresh.cycles != plain.cycles || fresh.mem_stats.store_buffer_stalls > 0,
                    "{}: the buffer on {} changed nothing",
                    b.name,
                    hb.label()
                );
            }
        }
    }
}

/// Every field of two results but the label agrees, energy bit for bit.
fn assert_same_result(a: &ConfigResult, b: &ConfigResult) {
    let what = format!("{} vs {}", a.label, b.label);
    assert_eq!(a.sim_cycles, b.sim_cycles, "{what}");
    assert_eq!(a.wcet_cycles, b.wcet_cycles, "{what}");
    assert_eq!(a.checksum, b.checksum, "{what}");
    assert_eq!(a.energy_nj.to_bits(), b.energy_nj.to_bits(), "{what}");
    assert_eq!(a.spm_used, b.spm_used, "{what}");
    assert_eq!(a.spm_objects, b.spm_objects, "{what}");
    assert_eq!(a.classify, b.classify, "{what}");
    assert_eq!(a.degraded, b.degraded, "{what}");
}
