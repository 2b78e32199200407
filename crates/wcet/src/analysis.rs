//! Whole-program analysis orchestration.

use crate::cache::{self, Classification, ClassifyStats};
use crate::cfg::{build_all, BasicBlock, FuncCfg};
use crate::ipet::{FlowFacts, IpetModels, Shape};
use crate::loops::{natural_loops, NaturalLoop};
use crate::multilevel::{self, Census, MultiCtx, MultiState};
use crate::report::{FuncWcet, WcetResult};
use crate::stack::total_depths;
use crate::{bounds, WcetError};
use spmlab_isa::annot::AnnotationSet;
use spmlab_isa::cachecfg::{CacheConfig, CacheScope};
use spmlab_isa::decode::decode;
use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig};
use spmlab_isa::image::{Executable, SymbolKind};
use spmlab_isa::insn::Insn;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Analyzer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetConfig {
    /// Memory hierarchy model (L1 I/D, unified L2, parametric main
    /// memory), analyzed by [`crate::multilevel`] with Hardy–Puaut
    /// cache-access classification. With no cache level it is pure region
    /// timing (the scratchpad branch of the paper): nothing to classify,
    /// every access priced by its region.
    pub hierarchy: MemHierarchyConfig,
    /// Enable the persistence (first-miss) extension — *off* matches the
    /// paper's "only a MUST analysis, no persistence" ARM7 configuration.
    /// Modelled for a single write-through L1 with no L2 behind it (see
    /// [`cache::persistence`]) and ignored for every other hierarchy.
    pub persistence: bool,
    /// Run the L2 MUST analysis (cached hierarchies only). When false every
    /// access that is not Always-Hit at L1 is charged the full L2-miss
    /// penalty — the baseline the monotonicity sanity checks compare
    /// against.
    pub l2_must_analysis: bool,
    /// Run the interprocedural MAY analysis (cached hierarchies only).
    ///
    /// The cold-start MAY pass classifies accesses absent from their L1
    /// MAY state Always-Miss, the Hardy–Puaut `A` filter that lets the L2
    /// MUST analysis classify hits behind an L1. Abstract states are
    /// threaded across the call graph: functions are analyzed in
    /// call-graph reverse-postorder and each function's fixpoint starts
    /// from the join of its callers' states at the call sites, the program
    /// entry from the cold-boot state, and functions with no recorded
    /// caller from the conservative TOP.
    ///
    /// When false every function starts from TOP, calls clobber the whole
    /// state, and every non-AH access is Not-Classified.
    pub interprocedural_may: bool,
}

impl WcetConfig {
    /// Region timing over Table-1 main memory (scratchpad / no-cache
    /// systems): the [uncached](MemHierarchyConfig::uncached) hierarchy.
    pub fn region_timing() -> WcetConfig {
        WcetConfig::region_timing_with(MainMemoryTiming::table1())
    }

    /// Region timing over custom (e.g. DRAM) main-memory parameters.
    pub fn region_timing_with(main: MainMemoryTiming) -> WcetConfig {
        WcetConfig::with_hierarchy(MemHierarchyConfig::uncached_with(main))
    }

    /// Single-cache analysis in the paper's MUST-only setup ("paper
    /// mode"): the [baseline](WcetConfig::with_hierarchy_baseline) flags
    /// over [`MemHierarchyConfig::l1_only`]. A data-only cache takes the
    /// full [`with_hierarchy`](WcetConfig::with_hierarchy) flags instead,
    /// which its pinned bounds have always used.
    pub fn with_cache(cache: CacheConfig) -> WcetConfig {
        let data_only = cache.scope == CacheScope::DataOnly;
        let hierarchy = MemHierarchyConfig::l1_only(cache);
        if data_only {
            WcetConfig::with_hierarchy(hierarchy)
        } else {
            WcetConfig::with_hierarchy_baseline(hierarchy)
        }
    }

    /// [`WcetConfig::with_cache`] plus persistence (the paper's "full
    /// cache analysis would probably improve results" future-work
    /// configuration).
    pub fn with_cache_persistence(cache: CacheConfig) -> WcetConfig {
        WcetConfig {
            persistence: true,
            ..WcetConfig::with_cache(cache)
        }
    }

    /// Multi-level hierarchy analysis: L1 MUST and cold-start MAY
    /// (Always-Miss proofs), then the CAC-filtered L2 MUST.
    pub fn with_hierarchy(hierarchy: MemHierarchyConfig) -> WcetConfig {
        WcetConfig {
            hierarchy,
            persistence: false,
            l2_must_analysis: true,
            interprocedural_may: true,
        }
    }

    /// Hierarchy analysis with the L2 MUST pass disabled: every non-AH
    /// access pays the full L2-miss penalty. Upper-bounds
    /// [`WcetConfig::with_hierarchy`] by construction.
    pub fn with_hierarchy_l1_only(hierarchy: MemHierarchyConfig) -> WcetConfig {
        WcetConfig {
            l2_must_analysis: false,
            ..WcetConfig::with_hierarchy(hierarchy)
        }
    }

    /// The pre-MAY baseline: per-function TOP entry states and no MAY
    /// analysis — exactly the analysis this toolchain ran before the
    /// interprocedural Hardy–Puaut upgrade. Upper-bounds
    /// [`WcetConfig::with_hierarchy`] at every program point (the
    /// `multilevel-precision` experiment quantifies by how much).
    pub fn with_hierarchy_baseline(hierarchy: MemHierarchyConfig) -> WcetConfig {
        WcetConfig {
            interprocedural_may: false,
            ..WcetConfig::with_hierarchy(hierarchy)
        }
    }

    /// This configuration with its main-memory timing replaced by the
    /// Table-1 timing: configurations with equal keys classify
    /// identically, because classification and its census read no
    /// timing and only [`cost`] prices the census under the main-memory
    /// timing (latency, bus, beat and store buffer) of its configuration.
    pub fn classification_key(&self) -> WcetConfig {
        let mut key = self.clone();
        key.hierarchy.main = MainMemoryTiming::table1();
        key
    }
}

/// Topological order of the call graph, callees first.
///
/// # Errors
///
/// [`WcetError::Recursion`] on cycles, [`WcetError::MissingFunction`] when
/// a call targets a non-function address.
pub fn topo_order(cfgs: &BTreeMap<u32, FuncCfg>) -> Result<Vec<u32>, WcetError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: BTreeMap<u32, Mark> = cfgs.keys().map(|&a| (a, Mark::White)).collect();
    let mut order = Vec::with_capacity(cfgs.len());

    fn visit(
        f: u32,
        cfgs: &BTreeMap<u32, FuncCfg>,
        marks: &mut BTreeMap<u32, Mark>,
        order: &mut Vec<u32>,
        trail: &mut Vec<String>,
    ) -> Result<(), WcetError> {
        match marks[&f] {
            Mark::Black => return Ok(()),
            Mark::Grey => {
                trail.push(cfgs[&f].name.clone());
                return Err(WcetError::Recursion {
                    cycle: trail.clone(),
                });
            }
            Mark::White => {}
        }
        marks.insert(f, Mark::Grey);
        trail.push(cfgs[&f].name.clone());
        for block in cfgs[&f].blocks.values() {
            for &callee in &block.calls {
                if !cfgs.contains_key(&callee) {
                    return Err(WcetError::MissingFunction(format!(
                        "call target {callee:#x} from `{}`",
                        cfgs[&f].name
                    )));
                }
                visit(callee, cfgs, marks, order, trail)?;
            }
        }
        trail.pop();
        marks.insert(f, Mark::Black);
        order.push(f);
        Ok(())
    }

    let keys: Vec<u32> = cfgs.keys().copied().collect();
    for f in keys {
        let mut trail = Vec::new();
        visit(f, cfgs, &mut marks, &mut order, &mut trail)?;
    }
    Ok(order)
}

/// One function's flow facts and the IPET [`Shape`] they give it.
#[derive(Debug, PartialEq)]
struct FuncFlow {
    facts: FlowFacts,
    shape: Shape,
}

/// The hierarchy-independent half of an analysis ([`prepare`]): CFGs,
/// call-graph order, the stack window and every function's flow facts.
/// One `Prepared` serves any number of [`classify`] / [`cost`] calls on
/// the executable it was built from, and [`Prepared::relocate`] moves it
/// to another link of the same program.
#[derive(Debug, PartialEq)]
pub struct Prepared {
    cfgs: BTreeMap<u32, FuncCfg>,
    /// Call-graph topological order, callees first.
    order: Vec<u32>,
    entry_depth: u32,
    /// The caller's annotations plus the entry function's stack window.
    annot: AnnotationSet,
    /// Flow facts per function of `order`, up to and including the first
    /// function whose loops cannot be bounded: its error is reported by
    /// [`cost`] when costing reaches it, so an earlier function's IPET
    /// failure still wins, exactly as in a single costing pass.
    flows: Vec<Result<FuncFlow, WcetError>>,
}

impl Prepared {
    /// The reconstructed control-flow graphs, keyed by function address.
    pub fn cfgs(&self) -> &BTreeMap<u32, FuncCfg> {
        &self.cfgs
    }

    /// The IPET [`Shape`] of every function whose loops could be bounded,
    /// in callee-first order: what [`IpetModels`] keys its models by.
    pub fn shapes(&self) -> impl Iterator<Item = &Shape> {
        self.flows
            .iter()
            .filter_map(|f| Some(&f.as_ref().ok()?.shape))
    }
}

/// Builds the hierarchy-independent part of an analysis: CFG
/// reconstruction, call-graph order, stack depths and the stack-window
/// annotation, then natural loops, loop bounds and loop totals per
/// function in callee-first order.
///
/// # Errors
///
/// CFG, call-graph and stack-depth failures. A loop-bounding failure is
/// not an error here: it is recorded and [`cost`] returns it when it
/// reaches that function.
pub fn prepare(exe: &Executable, annotations: &AnnotationSet) -> Result<Prepared, WcetError> {
    let _pass = spmlab_obs::span("wcet-pass-prepare");
    prepared_from(build_all(exe)?, exe, annotations, natural_loops)
}

/// The part of [`prepare`] that reads the image only through `cfgs`:
/// call-graph order, stack depths and the stack-window annotation, then
/// loop bounds, loop totals and shapes per function in callee-first
/// order, each function's natural loops given by `loops_of`.
fn prepared_from(
    cfgs: BTreeMap<u32, FuncCfg>,
    exe: &Executable,
    annotations: &AnnotationSet,
    mut loops_of: impl FnMut(&FuncCfg) -> Result<Vec<NaturalLoop>, WcetError>,
) -> Result<Prepared, WcetError> {
    let order = topo_order(&cfgs)?;
    let depths = total_depths(&cfgs, &order)?;

    // Stack window for the entry function feeds the cache analysis.
    let entry_depth = depths.get(&exe.entry).map(|d| d.total_bytes).unwrap_or(0);
    let stack_top = exe.memory_map.stack_top;
    let mut annot = annotations.clone();
    annot.set_stack_window(stack_top.saturating_sub(entry_depth), stack_top);

    let mut flows = Vec::with_capacity(order.len());
    for faddr in &order {
        let cfg = &cfgs[faddr];
        let flow = loops_of(cfg).and_then(|loops| {
            let bounds = bounds::loop_bounds(cfg, &loops, &annot)?;
            let totals = loops
                .iter()
                .filter_map(|l| Some((l.header, annot.loop_total(l.header)?)))
                .collect();
            let facts = FlowFacts {
                loops,
                bounds,
                totals,
            };
            let shape = Shape::of(cfg, &facts);
            Ok(FuncFlow { facts, shape })
        });
        let failed = flow.is_err();
        flows.push(flow);
        if failed {
            break;
        }
    }
    Ok(Prepared {
        cfgs,
        order,
        entry_depth,
        annot,
        flows,
    })
}

impl Prepared {
    /// [`prepare`] of `exe`, another link of the program this was
    /// prepared from, computed by moving this preparation's structure:
    /// each function's CFG and natural loops shift by the distance its
    /// symbol moved, functions matched by name, every `BL` offset and call
    /// target is remapped to its callee's new entry, and the rest of
    /// [`prepare`] — call-graph order, stack depths, loop bounds and
    /// totals from `annotations`, shapes — runs as it does there.
    ///
    /// The move is used only where it is checked exact: every function of
    /// either image matches one of the other by name, every function moved
    /// by a multiple of 4 bytes (literal loads are word-aligned), every
    /// `BL` targets a function entry, and every moved instruction decodes,
    /// at its new address in `exe`, to itself. Anything else runs
    /// [`prepare`] instead.
    ///
    /// # Errors
    ///
    /// As for [`prepare`].
    pub fn relocate(
        &self,
        exe: &Executable,
        annotations: &AnnotationSet,
    ) -> Result<Prepared, WcetError> {
        {
            let _pass = spmlab_obs::span("wcet-pass-relocate");
            if let Some((cfgs, mut loops)) = self.moved_to(exe) {
                return prepared_from(cfgs, exe, annotations, |cfg| {
                    loops
                        .remove(&cfg.entry)
                        .map_or_else(|| natural_loops(cfg), Ok)
                });
            }
        }
        prepare(exe, annotations)
    }

    /// The CFGs, keyed by function address, and the natural loops of every
    /// function whose loops this preparation found, keyed by function
    /// entry, moved to where `exe` places each function; `None` when a
    /// check of [`Prepared::relocate`] fails.
    #[allow(clippy::type_complexity)]
    fn moved_to(
        &self,
        exe: &Executable,
    ) -> Option<(BTreeMap<u32, FuncCfg>, BTreeMap<u32, Vec<NaturalLoop>>)> {
        let symbols: HashMap<&str, _> = exe.functions().map(|s| (s.name.as_str(), s)).collect();
        if symbols.len() != self.cfgs.len() || exe.functions().count() != self.cfgs.len() {
            return None;
        }
        // Per old entry: the new entry and code size.
        let mut places = BTreeMap::new();
        for (&old, cfg) in &self.cfgs {
            let sym = symbols.get(cfg.name.as_str())?;
            let SymbolKind::Func { code_size } = sym.kind else {
                return None;
            };
            sym.addr.checked_add(code_size)?;
            if sym.addr.wrapping_sub(old) % 4 != 0 {
                return None;
            }
            places.insert(old, (sym.addr, code_size));
        }

        let mut cfgs = BTreeMap::new();
        for (&old, cfg) in &self.cfgs {
            let (entry, code_size) = places[&old];
            // Every address of a CFG lies at or after its entry.
            let at = |a: u32| entry.wrapping_add(a.wrapping_sub(old));
            let mut blocks = BTreeMap::new();
            for (&start, block) in &cfg.blocks {
                let mut insns = Vec::with_capacity(block.insns.len());
                let mut calls = Vec::with_capacity(block.calls.len());
                for &(addr, insn) in &block.insns {
                    // Read the halfwords `build_cfg` reads at this offset.
                    let offset = addr.wrapping_sub(old);
                    if offset.checked_add(2)? > code_size {
                        return None;
                    }
                    let pc = entry + offset;
                    let next = (offset + 4 <= code_size)
                        .then(|| exe.read_half(pc + 2))
                        .flatten();
                    let insn = match insn {
                        Insn::Bl { off } => {
                            let target = addr.wrapping_add(4).wrapping_add(off as u32);
                            let &(callee, _) = places.get(&target)?;
                            calls.push(callee);
                            Insn::Bl {
                                off: callee.wrapping_sub(pc.wrapping_add(4)) as i32,
                            }
                        }
                        insn => insn,
                    };
                    if decode(exe.read_half(pc)?, next).0 != insn {
                        return None;
                    }
                    insns.push((pc, insn));
                }
                let block = BasicBlock {
                    start: at(start),
                    insns,
                    succs: block.succs.iter().map(|&s| at(s)).collect(),
                    calls,
                    is_exit: block.is_exit,
                };
                blocks.insert(block.start, block);
            }
            let moved = FuncCfg {
                name: cfg.name.clone(),
                entry,
                blocks,
            };
            if cfgs.insert(entry, moved).is_some() {
                return None;
            }
        }

        let mut loops = BTreeMap::new();
        for (old, flow) in self.order.iter().zip(&self.flows) {
            let Ok(flow) = flow else { continue };
            let (entry, _) = places[old];
            let at = |a: u32| entry.wrapping_add(a.wrapping_sub(*old));
            let edges = |es: &[(u32, u32)]| es.iter().map(|&(s, d)| (at(s), at(d))).collect();
            let moved = flow
                .facts
                .loops
                .iter()
                .map(|l| NaturalLoop {
                    header: at(l.header),
                    body: l.body.iter().map(|&b| at(b)).collect(),
                    back_edges: edges(&l.back_edges),
                    entry_edges: edges(&l.entry_edges),
                })
                .collect();
            loops.insert(entry, moved);
        }
        Some((cfgs, loops))
    }
}

/// The timing-independent cache classification of one configuration
/// ([`classify`]), kept as the census of every block: the block walked
/// once from its converged MUST×MAY in-state, its fixed cycles and an
/// access count per price class (the cost function it is charged, with
/// the fetch flag, width and region it is charged with), with the
/// classification sets and counts that walk proved. [`cost`] prices it
/// under any configuration it [`serves`](Classified::serves).
#[derive(Debug, PartialEq)]
pub struct Classified {
    /// The configuration this classification serves, with the hierarchy's
    /// main-memory timing normalised (see [`Classified::serves`]).
    key: WcetConfig,
    /// Every block walked, function after function.
    census: Census,
    /// Per function of the preparation's callee-first order, up to the
    /// first whose loops could not be bounded.
    funcs: Vec<FuncCensus>,
    /// The per-address proofs of every census walk, shared with every
    /// result priced from it.
    classification: Arc<Classification>,
    widened: bool,
}

/// One function's census ([`Classified`]).
#[derive(Debug, PartialEq)]
struct FuncCensus {
    /// Its blocks in the census, in address order.
    blocks: Range<usize>,
    /// First misses per loop entry (header → lines charged a persistent
    /// hit in it), when persistence is modelled; see
    /// [`cache::Persistence::first_misses`].
    first_misses: BTreeMap<u32, u64>,
    /// What the walk classified, by kind.
    stats: ClassifyStats,
}

impl Classified {
    /// Whether this classification is exact for `config`: true when
    /// `config` has the [classification key](WcetConfig::classification_key)
    /// of the one it was computed for.
    pub fn serves(&self, config: &WcetConfig) -> bool {
        self.key == config.classification_key()
    }
}

/// The classification passes over a [`Prepared`] program, then the
/// census walk. Reads no timing: the abstract transfer never consults
/// main-memory or hit latencies and the census counts price classes
/// instead of cycles, so one result serves every configuration it
/// [`serves`](Classified::serves). A hierarchy with no cache level has
/// no abstract state to compute and runs the census alone.
///
/// Pass 0 — interprocedural call summaries in call-graph topological
/// order (callees first): each function's footprint / definite-access
/// interference record and TOP-entry exit MUST states, folding in the
/// summaries of everything it calls.
///
/// Pass A — abstract-state fixpoints in call-graph reverse-postorder
/// (callers first): each function's entry state is the join of its
/// callers' states at the call sites, the program entry starts cold
/// (empty caches at boot), and functions with no recorded caller fall
/// back to the conservative TOP.
///
/// Census — every block of every function whose loops were bounded,
/// callees first, walked once from its converged in-state (TOP where
/// none was recorded), with the function's first-miss persistence when
/// it is modelled (`multilevel::census_block`).
pub fn classify(prepared: &Prepared, exe: &Executable, config: &WcetConfig) -> Classified {
    let mut widened = false;
    let hierarchy = &config.hierarchy;
    let Prepared {
        cfgs,
        order,
        annot,
        flows,
        ..
    } = prepared;
    let base = MultiCtx {
        hierarchy,
        map: &exe.memory_map,
        annot,
        l2_analysis: config.l2_must_analysis,
        may_analysis: config.interprocedural_may,
        summaries: None,
    };

    let mut summaries = BTreeMap::new();
    let mut states = BTreeMap::new();
    if hierarchy.has_cache_levels() {
        if config.interprocedural_may {
            let _pass = spmlab_obs::span("wcet-pass-summaries");
            for &faddr in order {
                let _f = spmlab_obs::span_with("wcet-fn-summary", || cfgs[&faddr].name.clone());
                let ctx = MultiCtx {
                    summaries: Some(&summaries),
                    ..base.clone()
                };
                let s = multilevel::summarize_function(&cfgs[&faddr], &ctx);
                widened |= s.widened;
                summaries.insert(faddr, s);
            }
        }

        let _pass = spmlab_obs::span("wcet-pass-fixpoints");
        let ctx = MultiCtx {
            summaries: config.interprocedural_may.then_some(&summaries),
            ..base.clone()
        };
        let mut entries: BTreeMap<u32, MultiState> = BTreeMap::new();
        for &faddr in order.iter().rev() {
            let cfg = &cfgs[&faddr];
            let entry = if !config.interprocedural_may {
                MultiState::top(&ctx)
            } else if faddr == exe.entry {
                // Cold boot: MUST empty *and* MAY empty — every first touch
                // is a provable Always-Miss.
                let mut e = MultiState::cold(&ctx);
                if let Some(recorded) = entries.remove(&faddr) {
                    e.join_into(&recorded);
                }
                e
            } else {
                entries
                    .remove(&faddr)
                    .unwrap_or_else(|| MultiState::top(&ctx))
            };
            let _f = spmlab_obs::span_with("wcet-fn-fixpoint", || cfg.name.clone());
            let fp = multilevel::must_fixpoint(cfg, &ctx, entry);
            widened |= fp.widened;
            let in_states = fp.in_states;
            if config.interprocedural_may {
                multilevel::propagate_entry_states(cfg, &in_states, &ctx, &mut entries);
            }
            states.insert(faddr, in_states);
        }
    }

    let _pass = spmlab_obs::span("wcet-pass-census");
    let ctx = MultiCtx {
        summaries: config.interprocedural_may.then_some(&summaries),
        ..base
    };
    let top = MultiState::top(&ctx);
    let mut census = Census::default();
    let mut classification = Classification::default();
    let mut funcs = Vec::with_capacity(flows.len());
    for (faddr, flow) in order.iter().zip(flows) {
        // `cost` stops at this function's loop-bounding error.
        let Ok(flow) = flow else { break };
        let cfg = &cfgs[faddr];
        let _f = spmlab_obs::span_with("wcet-fn-census", || cfg.name.clone());
        let mut persistence = config
            .persistence
            .then(|| cache::persistence(cfg, &flow.facts.loops, hierarchy, &exe.memory_map, annot))
            .flatten();
        let mut in_states = states.remove(faddr).unwrap_or_default();
        let mut stats = ClassifyStats::default();
        let first = census.len();
        for (b, block) in &cfg.blocks {
            multilevel::census_block(
                block,
                in_states.remove(b).unwrap_or_else(|| top.clone()),
                &ctx,
                &mut census,
                &mut stats,
                &mut classification,
                persistence.as_mut(),
            );
        }
        funcs.push(FuncCensus {
            blocks: first..census.len(),
            first_misses: persistence.map(|p| p.first_misses()).unwrap_or_default(),
            stats,
        });
    }
    Classified {
        key: config.classification_key(),
        census,
        funcs,
        classification: Arc::new(classification),
        widened,
    }
}

/// The costing pass: the census priced under `config` and solved per
/// function, callees first (a block's cost needs its callees' bounds).
/// One price table per configuration gives every price class its
/// cycles, each block costs its fixed cycles, each count times its
/// class's price and its callees' bounds, and IPET runs on the model of
/// the function's [`Shape`] in `models` — with one first miss per loop
/// entry for every line charged a persistent hit. This is the only stage
/// that reads timing, so it runs once per configuration and walks no
/// abstract state.
///
/// # Panics
///
/// When `classified` does not [serve](Classified::serves) `config`.
///
/// # Errors
///
/// The first loop-bounding ([`prepare`]) or IPET failure in callee-first
/// order, or [`WcetError::MissingFunction`] for a missing entry function.
pub fn cost(
    prepared: &Prepared,
    exe: &Executable,
    config: &WcetConfig,
    classified: &Classified,
    models: &IpetModels,
) -> Result<WcetResult, WcetError> {
    cost_with(
        prepared,
        exe,
        config,
        classified,
        |cfg, flow, costs, penalties| models.solve(cfg, &flow.facts, &flow.shape, costs, penalties),
    )
}

/// [`cost`] with `ipet` solving each function: given its CFG, its flow,
/// its block costs in address order and its loop-entry penalties.
fn cost_with(
    prepared: &Prepared,
    exe: &Executable,
    config: &WcetConfig,
    classified: &Classified,
    mut ipet: impl FnMut(&FuncCfg, &FuncFlow, &[u64], &BTreeMap<u32, u64>) -> Result<u64, WcetError>,
) -> Result<WcetResult, WcetError> {
    assert!(
        classified.serves(config),
        "the classification was computed for another configuration"
    );
    let Prepared {
        cfgs,
        order,
        entry_depth,
        flows,
        ..
    } = prepared;
    let hierarchy = &config.hierarchy;
    let mut wcet_by_addr: BTreeMap<u32, u64> = BTreeMap::new();
    let mut per_function = Vec::with_capacity(order.len());
    let widened = classified.widened;

    let costing_span = spmlab_obs::span("wcet-pass-costing");
    let census = &classified.census;
    let prices = census.prices(hierarchy, true);
    // Persistence trades a miss charge per execution for one first miss
    // per loop entry, a trade that loses on a worst-case path skipping a
    // persistent line's reads. Both bounds are sound, so the tighter one
    // is kept: the MUST-only prices charge persistent reads as the
    // Not-Classified reads they are.
    let persistent = classified.funcs.iter().any(|f| !f.first_misses.is_empty());
    let (must_only_prices, first_miss) = if persistent {
        (
            census.prices(hierarchy, false),
            cache::first_miss_cycles(hierarchy),
        )
    } else {
        (Vec::new(), 0)
    };
    for (i, (&faddr, flow)) in order.iter().zip(flows).enumerate() {
        let cfg = &cfgs[&faddr];
        let _f = spmlab_obs::span_with("wcet-fn-cost", || cfg.name.clone());
        let flow = flow.as_ref().map_err(Clone::clone)?;
        let func = &classified.funcs[i];
        let block_costs = |prices: &[u64]| {
            let walked = func.blocks.clone();
            census.block_costs(walked, prices, cfg.blocks.values(), &wcet_by_addr)
        };
        let entry_penalties: BTreeMap<u32, u64> = func
            .first_misses
            .iter()
            .map(|(&header, &lines)| (header, lines * first_miss))
            .collect();
        let mut wcet = ipet(cfg, flow, &block_costs(&prices), &entry_penalties)?;
        if !entry_penalties.is_empty() {
            let must_only = ipet(cfg, flow, &block_costs(&must_only_prices), &BTreeMap::new())?;
            wcet = wcet.min(must_only);
        }
        wcet_by_addr.insert(faddr, wcet);
        per_function.push(FuncWcet {
            name: cfg.name.clone(),
            addr: faddr,
            wcet_cycles: wcet,
            blocks: cfg.blocks.len(),
            insns: cfg.insn_count(),
            loops: flow.facts.loops.len(),
            classify: func.stats,
        });
    }

    drop(costing_span);

    let entry_addr = exe.entry;
    let entry_wcet = *wcet_by_addr
        .get(&entry_addr)
        .ok_or_else(|| WcetError::MissingFunction(format!("entry {entry_addr:#x}")))?;
    if widened {
        spmlab_obs::counter("wcet_widened_results", 1);
    }
    Ok(WcetResult {
        wcet_cycles: entry_wcet,
        per_function,
        stack_bytes: *entry_depth,
        classification: classified.classification.clone(),
        widened,
    })
}

/// Runs the full analysis — [`prepare`], then [`classify`], then
/// [`cost`] on a fresh [`IpetModels`] store: CFG reconstruction, loop
/// bounding, stack-depth analysis, cache classification,
/// microarchitectural timing and per-function IPET, combined bottom-up
/// over the call graph.
///
/// # Errors
///
/// Any [`WcetError`]; the most common in practice is
/// [`WcetError::UnboundedLoop`] for a loop missing its annotation.
pub fn analyze(
    exe: &Executable,
    config: &WcetConfig,
    annotations: &AnnotationSet,
) -> Result<WcetResult, WcetError> {
    let prepared = prepare(exe, annotations)?;
    let classified = classify(&prepared, exe, config);
    cost(&prepared, exe, config, &classified, &IpetModels::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_cc::{compile, link, SpmAssignment};
    use spmlab_isa::mem::MemoryMap;
    use spmlab_sim::{simulate, MachineConfig, SimOptions};

    const LOOP_SRC: &str = "
        int x;
        void main() {
            int i;
            for (i = 0; i < 25; i = i + 1) { __loopbound(25); x = x + i; }
        }
    ";

    fn linked(src: &str, map: MemoryMap, spm: SpmAssignment) -> spmlab_cc::LinkedProgram {
        link(&compile(src).unwrap(), &map, &spm).unwrap()
    }

    #[test]
    fn data_only_single_cache_is_sound() {
        // `with_cache` on a data-only cache runs the full MUST×MAY flags
        // rather than paper mode; either way fetches must bypass the
        // cache exactly as in the simulator, or the bound undercuts it.
        let src = "
            int a[32]; int x;
            void main() {
                int i;
                for (i = 0; i < 32; i = i + 1) { __loopbound(32); a[i] = i; }
                for (i = 0; i < 32; i = i + 1) { __loopbound(32); x = x + a[i]; }
            }
        ";
        let l = linked(src, MemoryMap::no_spm(), SpmAssignment::none());
        let cache = spmlab_isa::cachecfg::CacheConfig::data_only(512);
        let w = analyze(
            &l.exe,
            &WcetConfig::with_cache(cache.clone()),
            &l.annotations,
        )
        .unwrap();
        let s = simulate(
            &l.exe,
            &MachineConfig::with_cache(cache),
            &SimOptions::default(),
        )
        .unwrap();
        assert!(
            w.wcet_cycles >= s.cycles,
            "data-only WCET {} must bound sim {}",
            w.wcet_cycles,
            s.cycles
        );
    }

    #[test]
    fn oversized_hit_latency_stays_sound() {
        // hit_latency may exceed the line-fill cost; every unclassified
        // access must then be charged the (larger) hit outcome. Exercised
        // in paper mode (`with_cache`) and with the full hierarchy flags.
        let l = linked(LOOP_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        let cache = spmlab_isa::cachecfg::CacheConfig {
            hit_latency: 25,
            ..spmlab_isa::cachecfg::CacheConfig::unified(1024)
        };
        let s = simulate(
            &l.exe,
            &MachineConfig::with_cache(cache.clone()),
            &SimOptions::default(),
        )
        .unwrap();
        let paper = analyze(
            &l.exe,
            &WcetConfig::with_cache(cache.clone()),
            &l.annotations,
        )
        .unwrap();
        assert!(
            paper.wcet_cycles >= s.cycles,
            "paper mode: wcet {} < sim {} with hit_latency 25",
            paper.wcet_cycles,
            s.cycles
        );
        let h = spmlab_isa::hierarchy::MemHierarchyConfig::l1_only(cache);
        let multi = analyze(&l.exe, &WcetConfig::with_hierarchy(h), &l.annotations).unwrap();
        assert!(
            multi.wcet_cycles >= s.cycles,
            "hierarchy: wcet {} < sim {} with hit_latency 25",
            multi.wcet_cycles,
            s.cycles
        );
    }

    #[test]
    fn region_timing_is_the_uncached_hierarchy() {
        // One configuration, so the allocator's trial memo keys and the
        // sweep's classification sharing treat both spellings alike.
        assert_eq!(
            WcetConfig::region_timing(),
            WcetConfig::with_hierarchy(MemHierarchyConfig::uncached())
        );
        // Nothing to classify: no summaries, no fixpoints, no proofs, and
        // the census serves every main-memory timing.
        let _x = spmlab_obs::exclusive();
        let l = linked(LOOP_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        let prepared = prepare(&l.exe, &l.annotations).unwrap();
        let classify_region = || classify(&prepared, &l.exe, &WcetConfig::region_timing());
        let ((classified, fixpoints), summaries) = spans_in("wcet-pass-summaries", || {
            spans_in("wcet-pass-fixpoints", classify_region)
        });
        assert_eq!((summaries, fixpoints), (0, 0));
        assert_eq!(*classified.classification, Classification::default());
        assert!(classified.serves(&WcetConfig::region_timing_with(MainMemoryTiming::dram(10))));
    }

    #[test]
    fn region_wcet_bounds_simulation() {
        let l = linked(LOOP_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        let w = analyze(&l.exe, &WcetConfig::region_timing(), &l.annotations).unwrap();
        let s = simulate(&l.exe, &MachineConfig::uncached(), &SimOptions::default()).unwrap();
        assert!(
            w.wcet_cycles >= s.cycles,
            "WCET {} must bound simulation {}",
            w.wcet_cycles,
            s.cycles
        );
        // And it should be reasonably tight for this branch-free loop.
        assert!(
            w.wcet_cycles < s.cycles * 2,
            "WCET {} vs sim {} is too loose",
            w.wcet_cycles,
            s.cycles
        );
    }

    #[test]
    fn spm_lowers_wcet() {
        let slow = linked(LOOP_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        let fast = linked(
            LOOP_SRC,
            MemoryMap::with_spm(2048),
            SpmAssignment::of(["main", "x"]),
        );
        let cfg = WcetConfig::region_timing();
        let ws = analyze(&slow.exe, &cfg, &slow.annotations).unwrap();
        let wf = analyze(&fast.exe, &cfg, &fast.annotations).unwrap();
        assert!(
            wf.wcet_cycles < ws.wcet_cycles,
            "spm {} should beat main-memory {}",
            wf.wcet_cycles,
            ws.wcet_cycles
        );
    }

    #[test]
    fn cache_wcet_bounds_cached_simulation() {
        let l = linked(LOOP_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        let cache = spmlab_isa::cachecfg::CacheConfig::unified(1024);
        let w = analyze(
            &l.exe,
            &WcetConfig::with_cache(cache.clone()),
            &l.annotations,
        )
        .unwrap();
        let s = simulate(
            &l.exe,
            &MachineConfig::with_cache(cache),
            &SimOptions::default(),
        )
        .unwrap();
        assert!(
            w.wcet_cycles >= s.cycles,
            "cache WCET {} must bound cached sim {}",
            w.wcet_cycles,
            s.cycles
        );
    }

    #[test]
    fn persistence_tightens_cache_wcet() {
        let l = linked(LOOP_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        let cache = spmlab_isa::cachecfg::CacheConfig::unified(1024);
        let must_only = analyze(
            &l.exe,
            &WcetConfig::with_cache(cache.clone()),
            &l.annotations,
        )
        .unwrap();
        let with_pers = analyze(
            &l.exe,
            &WcetConfig::with_cache_persistence(cache.clone()),
            &l.annotations,
        )
        .unwrap();
        assert!(
            with_pers.wcet_cycles <= must_only.wcet_cycles,
            "persistence can only tighten"
        );
        // Still sound vs simulation.
        let s = simulate(
            &l.exe,
            &MachineConfig::with_cache(cache),
            &SimOptions::default(),
        )
        .unwrap();
        assert!(with_pers.wcet_cycles >= s.cycles);
    }

    #[test]
    fn persistence_never_loosens_a_single_pass_loop() {
        // A single-pass loop: each persistent line on the worst-case path
        // (the longer else branch) saves exactly the first miss it is
        // charged, while the then branch's persistent lines only add their
        // first misses. Charged as is, the bound would exceed MUST-only.
        let src = "
            int x; int y; int a0; int a1; int a2; int a3; int a4; int a5;
            void main() {
                int i;
                for (i = 0; i < 1; i = i + 1) {
                    __loopbound(1);
                    if (x == 5) { y = 1; y = 2; y = 3; y = 4; y = 5; y = 6; }
                    else {
                        a0 = 1; a1 = 2; a2 = 3; a3 = 4; a4 = 5; a5 = 6;
                        a0 = 7; a1 = 8; a2 = 9; a3 = 10; a4 = 11; a5 = 12;
                        a0 = 1; a1 = 2; a2 = 3; a3 = 4; a4 = 5; a5 = 6;
                    }
                }
            }
        ";
        let l = linked(src, MemoryMap::no_spm(), SpmAssignment::none());
        let cache = spmlab_isa::cachecfg::CacheConfig::unified(4096);
        let must = analyze(
            &l.exe,
            &WcetConfig::with_cache(cache.clone()),
            &l.annotations,
        )
        .unwrap();
        let pers = analyze(
            &l.exe,
            &WcetConfig::with_cache_persistence(cache.clone()),
            &l.annotations,
        )
        .unwrap();
        assert!(pers.total_classify().persistent > 0);
        assert!(
            pers.wcet_cycles <= must.wcet_cycles,
            "+persistence {} looser than MUST-only {}",
            pers.wcet_cycles,
            must.wcet_cycles
        );
    }

    /// A classification whose fixpoints hit their structural cap marks
    /// the bound it costs as widened; an exact one does not.
    #[test]
    fn widened_classification_widens_the_cost() {
        // A widened cost emits `wcet_widened_results`: hold the sink lock
        // so a concurrently counting test cannot see it.
        let _x = spmlab_obs::exclusive();
        let l = linked(LOOP_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        let config = WcetConfig::with_cache(spmlab_isa::cachecfg::CacheConfig::unified(1024));
        let prepared = prepare(&l.exe, &l.annotations).unwrap();
        let mut classified = classify(&prepared, &l.exe, &config);
        let models = IpetModels::new();
        let exact = cost(&prepared, &l.exe, &config, &classified, &models).unwrap();
        assert!(!exact.widened);
        classified.widened = true;
        let widened = cost(&prepared, &l.exe, &config, &classified, &models).unwrap();
        assert!(
            widened.widened,
            "a widened classification must widen the bound"
        );
        assert_eq!(widened.wcet_cycles, exact.wcet_cycles);
    }

    /// Every IPET solve of the shipped kernels and of generated programs
    /// 0..=3, under region timing, six write-through DSE geometries and
    /// persistence: the stored model on one shared store gives the cold
    /// solve's bound, to the cycle, or its error.
    #[test]
    fn stored_models_match_cold_solves_on_every_function() {
        use spmlab_isa::cachecfg::CacheConfig;
        let arch = spmlab_workloads::gen::reference_arch();
        let programs: Vec<spmlab_workloads::Benchmark> = spmlab_workloads::all_benchmarks()
            .into_iter()
            .cloned()
            .chain(
                (0..=3)
                    .map(|seed| spmlab_workloads::gen::generate_for_seed(seed, &arch).benchmark()),
            )
            .collect();
        let at = |h: MemHierarchyConfig, latency: u64| MemHierarchyConfig {
            main: MainMemoryTiming::dram(latency),
            ..h
        };
        let configs = [
            WcetConfig::region_timing(),
            WcetConfig::with_cache(CacheConfig::unified(256)),
            WcetConfig::with_hierarchy(at(MemHierarchyConfig::split_l1(1024, 1024), 10)),
            WcetConfig::with_hierarchy(at(
                MemHierarchyConfig::l1_only(CacheConfig::unified(4096))
                    .with_l2(CacheConfig::l2(4096)),
                40,
            )),
            WcetConfig::with_hierarchy(at(
                MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(16384)),
                0,
            )),
            WcetConfig::with_hierarchy(at(
                MemHierarchyConfig::uncached().with_l2(CacheConfig::l2(4096)),
                40,
            )),
            WcetConfig::with_hierarchy(at(MemHierarchyConfig::split_l1(4096, 4096), 40)),
            WcetConfig::with_cache_persistence(CacheConfig::unified(1024)),
        ];
        let models = IpetModels::new();
        let mut solves = 0usize;
        for b in &programs {
            let module = b.compile().unwrap();
            let l = b
                .link_with_input(
                    &module,
                    &MemoryMap::no_spm(),
                    &SpmAssignment::none(),
                    &b.typical_input(),
                )
                .unwrap();
            let prepared = prepare(&l.exe, &l.annotations).unwrap();
            for config in &configs {
                let classified = classify(&prepared, &l.exe, config);
                cost_with(
                    &prepared,
                    &l.exe,
                    config,
                    &classified,
                    |cfg, flow, costs, pens| {
                        solves += 1;
                        let stored = models.solve(cfg, &flow.facts, &flow.shape, costs, pens);
                        let cold = crate::ipet::tests::cold_solve(cfg, &flow.facts, costs, pens);
                        assert_eq!(stored, cold, "{} `{}` under {config:?}", b.name, cfg.name);
                        stored
                    },
                )
                .unwrap();
            }
        }
        assert!(
            models.len() * configs.len() <= solves,
            "{} shapes over {solves} solves",
            models.len()
        );
    }

    /// Loops that store, read and call, a data-dependent branch and a
    /// call-free read loop whose lines persist.
    const REPRICE_SRC: &str = "
        int a[16]; int b[4]; int s;
        int f(int x) { int i; for (i = 0; i < 4; i = i + 1) { __loopbound(4); x = x + b[i]; } return x; }
        void main() {
            int i; int j;
            for (i = 0; i < 16; i = i + 1) { __loopbound(16); a[i] = i; }
            for (i = 0; i < 16; i = i + 1) { __loopbound(16); s = s + a[i]; }
            for (j = 0; j < 3; j = j + 1) {
                __loopbound(3);
                for (i = 0; i < 16; i = i + 1) {
                    __loopbound(16);
                    if (a[i] > 7) { s = s + a[i]; } else { b[3] = f(s); }
                }
            }
        }
    ";

    /// The main-memory timings one census is priced under: the DSE
    /// latencies, two bus and beat variants, and a store buffer.
    fn repricing_timings() -> Vec<MainMemoryTiming> {
        vec![
            MainMemoryTiming::dram(0),
            MainMemoryTiming::dram(10),
            MainMemoryTiming::dram(40),
            MainMemoryTiming {
                beat_cycles: 1,
                bus_bytes: 4,
                ..MainMemoryTiming::dram(10)
            },
            MainMemoryTiming {
                beat_cycles: 3,
                bus_bytes: 1,
                ..MainMemoryTiming::table1()
            },
            MainMemoryTiming::dram(10)
                .with_store_buffer(spmlab_isa::hierarchy::StoreBuffer::new(4, 8)),
        ]
    }

    /// The machines of the re-pricing test: a name, whether the program
    /// runs on its scratchpad link, and the analyzer configuration.
    fn repricing_machines() -> Vec<(&'static str, bool, WcetConfig)> {
        use spmlab_isa::cachecfg::CacheConfig;
        use spmlab_isa::hierarchy::L1;
        let h = WcetConfig::with_hierarchy;
        let l2 = || CacheConfig::l2(4096);
        let split_wb = MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(256)),
                d: Some(CacheConfig::data_only(256).write_back()),
            },
            l2: Some(l2().write_back()),
            main: MainMemoryTiming::table1(),
        };
        vec![
            ("uncached", false, WcetConfig::region_timing()),
            (
                "l2-only",
                false,
                h(MemHierarchyConfig::uncached().with_l2(l2())),
            ),
            (
                "unified",
                false,
                h(MemHierarchyConfig::l1_only(CacheConfig::unified(256))),
            ),
            (
                "unified+l2",
                false,
                h(MemHierarchyConfig::l1_only(CacheConfig::unified(256)).with_l2(l2())),
            ),
            ("split", false, h(MemHierarchyConfig::split_l1(256, 256))),
            (
                "split+l2",
                false,
                h(MemHierarchyConfig::split_l1(256, 256).with_l2(l2())),
            ),
            (
                "unified-wb",
                false,
                h(MemHierarchyConfig::l1_only(
                    CacheConfig::unified(256).write_back(),
                )),
            ),
            ("split-wb+l2-wb", false, h(split_wb)),
            (
                "split+l2-wb",
                false,
                h(MemHierarchyConfig::split_l1(256, 256).with_l2(l2().write_back())),
            ),
            (
                "paper-persistence",
                false,
                WcetConfig::with_cache_persistence(CacheConfig::unified(256)),
            ),
            ("spm-uncached", true, WcetConfig::region_timing()),
            (
                "spm-split+l2",
                true,
                h(MemHierarchyConfig::split_l1(256, 256).with_l2(l2())),
            ),
        ]
    }

    /// `config` over `main`.
    fn at(config: &WcetConfig, main: MainMemoryTiming) -> WcetConfig {
        let mut c = config.clone();
        c.hierarchy.main = main;
        c
    }

    /// Per machine of [`repricing_machines`], its bounds under each of
    /// [`repricing_timings`] in order, as the analyzer that re-walked
    /// every block per timing computed them.
    const REPRICED_BOUNDS: [(&str, [u64; 6]); 12] = [
        ("uncached", [27605, 104495, 335165, 90824, 70325, 100025]),
        ("l2-only", [90942, 118862, 202622, 70628, 219566, 114392]),
        ("unified", [64056, 102646, 218416, 64384, 166088, 98176]),
        (
            "unified+l2",
            [106587, 137157, 228867, 82563, 252171, 132687],
        ),
        ("split", [58616, 93806, 199376, 59624, 149768, 89336]),
        ("split+l2", [102575, 132635, 222815, 79265, 244895, 128165]),
        ("unified-wb", [90494, 138344, 281894, 80924, 243614, 138344]),
        (
            "split-wb+l2-wb",
            [169001, 207841, 324361, 114625, 417577, 207841],
        ),
        (
            "split+l2-wb",
            [158897, 197897, 314897, 104297, 408497, 197897],
        ),
        (
            "paper-persistence",
            [63928, 102438, 217968, 64272, 165704, 97968],
        ),
        ("spm-uncached", [23045, 62975, 182765, 53864, 49253, 58745]),
        (
            "spm-split+l2",
            [86401, 112761, 191841, 67263, 207729, 108531],
        ),
    ];

    /// One classification per machine, priced under every timing in
    /// both orders, gives each timing the result of a fresh `analyze`,
    /// bounds the simulated cycles, and matches the pinned bounds; the
    /// census it was priced from equals a fresh classification.
    #[test]
    fn one_census_prices_every_main_memory_timing() {
        let module = compile(REPRICE_SRC).unwrap();
        let links = [
            link(&module, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap(),
            link(
                &module,
                &MemoryMap::with_spm(1024),
                &SpmAssignment::of(["f", "b"]),
            )
            .unwrap(),
        ];
        let timings = repricing_timings();
        let mut bounds = Vec::new();
        for (name, spm, config) in repricing_machines() {
            let l = &links[usize::from(spm)];
            let prepared = prepare(&l.exe, &l.annotations).unwrap();
            let models = IpetModels::new();
            let mut row = [0; 6];
            for reversed in [false, true] {
                let order: Vec<usize> = if reversed {
                    (0..timings.len()).rev().collect()
                } else {
                    (0..timings.len()).collect()
                };
                let classified = classify(&prepared, &l.exe, &at(&config, timings[order[0]]));
                for &t in &order {
                    let c = at(&config, timings[t]);
                    let priced = cost(&prepared, &l.exe, &c, &classified, &models).unwrap();
                    let fresh = analyze(&l.exe, &c, &l.annotations).unwrap();
                    assert_eq!(priced, fresh, "{name} at {:?}", timings[t]);
                    let machine = MachineConfig::with_hierarchy(c.hierarchy.clone());
                    let sim = simulate(&l.exe, &machine, &SimOptions::default()).unwrap();
                    assert!(
                        priced.wcet_cycles >= sim.cycles,
                        "{name} at {:?}: wcet {} < sim {}",
                        timings[t],
                        priced.wcet_cycles,
                        sim.cycles
                    );
                    row[t] = priced.wcet_cycles;
                }
                assert_eq!(
                    classified,
                    classify(&prepared, &l.exe, &config),
                    "{name}: pricing leaves the census as classified"
                );
            }
            bounds.push((name, row));
        }
        assert_eq!(bounds, REPRICED_BOUNDS);
    }

    const CALL_SRC: &str = "
        int buf[8]; int x;
        int g(int a) { int i; for (i = 0; i < 8; i = i + 1) { __loopbound(8); a = a + buf[i]; } return a; }
        void main() { int i; for (i = 0; i < 4; i = i + 1) { __loopbound(4); x = g(x) + 1; } }
    ";

    /// Runs `f` with a collector installed and counts the spans named
    /// `name` it opened on this thread.
    fn spans_in<R>(name: &str, f: impl FnOnce() -> R) -> (R, usize) {
        let sink = std::sync::Arc::new(spmlab_obs::collector::MemorySink::default());
        let guard = spmlab_obs::add_sink(sink.clone());
        let outer = spmlab_obs::span("test");
        let r = f();
        let id = outer.id();
        drop(outer);
        drop(guard);
        let spans = sink.spans();
        let tid = spans.iter().find(|s| Some(s.id) == id).map(|s| s.tid);
        let count = spans
            .iter()
            .filter(|s| s.name == name && Some(s.tid) == tid)
            .count();
        (r, count)
    }

    #[test]
    fn relocation_moves_a_preparation_to_another_link() {
        let _x = spmlab_obs::exclusive();
        let module = compile(CALL_SRC).unwrap();
        let base = link(&module, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
        let source = prepare(&base.exe, &base.annotations).unwrap();
        // `g` moves to the scratchpad and `main` stays: every call into it
        // gets a new offset.
        for names in [vec!["g"], vec!["main"], vec!["g", "buf", "x"]] {
            let l = link(
                &module,
                &MemoryMap::with_spm(2048),
                &SpmAssignment::of(names),
            )
            .unwrap();
            let mut extra = l.annotations.clone();
            for b in l.annotations.loop_bounds() {
                extra.set_loop_total(b.header_addr, b.max_iterations);
            }
            for ann in [&l.annotations, &extra] {
                let ((moved, prepares), relocates) = spans_in("wcet-pass-relocate", || {
                    spans_in("wcet-pass-prepare", || source.relocate(&l.exe, ann))
                });
                assert_eq!(moved, prepare(&l.exe, ann));
                assert_eq!((prepares, relocates), (0, 1), "relocated, not prepared");
            }
        }
    }

    #[test]
    fn relocation_falls_back_to_preparing_unmatched_images() {
        let _x = spmlab_obs::exclusive();
        let l = linked(CALL_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        let source = prepare(&l.exe, &l.annotations).unwrap();
        let other = linked(LOOP_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        // One instruction of `g` patched to another valid one.
        let mut patched = l.exe.clone();
        let (at, _) = source.cfgs()[&l.exe.symbol("g").unwrap().addr]
            .blocks
            .values()
            .flat_map(|b| &b.insns)
            .find(|(_, i)| matches!(i, Insn::MovImm { .. }))
            .copied()
            .unwrap();
        let byte = l.exe.read_byte(at).unwrap();
        patched.patch_bytes(at, &[byte ^ 1]).unwrap();
        let mut renamed = l.exe.clone();
        for s in &mut renamed.symbols {
            if s.name == "g" {
                s.name = "h".into();
            }
        }
        for exe in [&other.exe, &patched, &renamed] {
            let (moved, prepares) =
                spans_in("wcet-pass-prepare", || source.relocate(exe, &l.annotations));
            assert_eq!(moved, prepare(exe, &l.annotations));
            assert_eq!(prepares, 1, "fell back to one preparation");
        }
    }

    #[test]
    fn recursion_rejected() {
        let l = linked(
            "int f(int n) { if (n > 0) { return f(n - 1); } return 0; } void main() { f(3); }",
            MemoryMap::no_spm(),
            SpmAssignment::none(),
        );
        let err = analyze(&l.exe, &WcetConfig::region_timing(), &l.annotations).unwrap_err();
        assert!(matches!(err, WcetError::Recursion { .. }), "{err}");
    }

    #[test]
    fn per_function_breakdown() {
        let l = linked(
            "int g(int a) { return a * 3; } int x; void main() { x = g(5); }",
            MemoryMap::no_spm(),
            SpmAssignment::none(),
        );
        let w = analyze(&l.exe, &WcetConfig::region_timing(), &l.annotations).unwrap();
        assert!(w.function("g").is_some());
        assert!(w.function("main").unwrap().wcet_cycles > w.function("g").unwrap().wcet_cycles);
        assert!(
            w.function("_start").unwrap().wcet_cycles >= w.function("main").unwrap().wcet_cycles
        );
        assert_eq!(w.wcet_cycles, w.function("_start").unwrap().wcet_cycles);
        assert!(w.stack_bytes > 0);
        assert!(!format!("{w}").is_empty());
    }
}
