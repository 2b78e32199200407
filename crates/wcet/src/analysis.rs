//! Whole-program analysis orchestration.

use crate::cache::{self, Classification, ClassifyStats, Persistence};
use crate::cfg::{build_all, BasicBlock, FuncCfg};
use crate::ipet::{FlowFacts, IpetModels, Shape};
use crate::loops::{natural_loops, NaturalLoop};
use crate::multilevel::{self, MultiCtx, MultiState};
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

    /// This configuration with `main.latency` zeroed and the store buffer
    /// dropped: configurations with equal keys classify identically,
    /// because only the costing walk reads the main-memory timing (see
    /// [`classify`]).
    pub fn classification_key(&self) -> WcetConfig {
        let mut key = self.clone();
        key.hierarchy.main = MainMemoryTiming {
            latency: 0,
            store_buffer: None,
            ..key.hierarchy.main
        };
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
/// ([`classify`]): the interprocedural call summaries and every block's
/// converged MUST×MAY in-state. Empty (but still required) for a
/// hierarchy with no cache level.
#[derive(Debug)]
pub struct Classified {
    /// The configuration this classification serves, with the hierarchy's
    /// main-memory timing normalised (see [`Classified::serves`]).
    key: WcetConfig,
    summaries: BTreeMap<u32, multilevel::CallSummary>,
    states: BTreeMap<u32, BTreeMap<u32, MultiState>>,
    widened: bool,
}

impl Classified {
    /// Whether this classification is exact for `config`: true when
    /// `config` has the [classification key](WcetConfig::classification_key)
    /// of the one it was computed for.
    pub fn serves(&self, config: &WcetConfig) -> bool {
        self.key == config.classification_key()
    }
}

/// The classification passes over a [`Prepared`] program, none for a
/// hierarchy with no cache level. Reads no timing: the abstract transfer
/// never consults main-memory or hit latencies, so one result serves
/// every configuration it [`serves`](Classified::serves).
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
pub fn classify(prepared: &Prepared, exe: &Executable, config: &WcetConfig) -> Classified {
    let key = config.classification_key();
    let mut widened = false;
    let hierarchy = &config.hierarchy;
    if !hierarchy.has_cache_levels() {
        // No abstract cache state to compute: every access is priced by
        // its region.
        return Classified {
            key,
            summaries: BTreeMap::new(),
            states: BTreeMap::new(),
            widened,
        };
    }
    let Prepared {
        cfgs, order, annot, ..
    } = prepared;

    let mut summaries = BTreeMap::new();
    if config.interprocedural_may {
        let _pass = spmlab_obs::span("wcet-pass-summaries");
        for &faddr in order {
            let ctx = MultiCtx {
                hierarchy,
                map: &exe.memory_map,
                annot,
                l2_analysis: config.l2_must_analysis,
                may_analysis: config.interprocedural_may,
                summaries: Some(&summaries),
            };
            let _f = spmlab_obs::span_with("wcet-fn-summary", || cfgs[&faddr].name.clone());
            let s = multilevel::summarize_function(&cfgs[&faddr], &ctx);
            widened |= s.widened;
            summaries.insert(faddr, s);
        }
    }

    let fixpoints_span = spmlab_obs::span("wcet-pass-fixpoints");
    let ctx = MultiCtx {
        hierarchy,
        map: &exe.memory_map,
        annot,
        l2_analysis: config.l2_must_analysis,
        may_analysis: config.interprocedural_may,
        summaries: config.interprocedural_may.then_some(&summaries),
    };
    let mut entries: BTreeMap<u32, MultiState> = BTreeMap::new();
    let mut states = BTreeMap::new();
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
    drop(fixpoints_span);
    Classified {
        key,
        summaries,
        states,
        widened,
    }
}

/// The costing pass: per function, callees first (it needs callee WCET
/// bounds), block costs from the classified in-states (TOP where none
/// was recorded, as for a hierarchy with no cache level), then IPET on
/// the model of the function's [`Shape`] in `models` — with one first
/// miss per loop entry for every line charged a persistent hit. This is
/// the only stage that reads latencies, so it runs once per
/// configuration.
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
        annot,
        flows,
    } = prepared;
    let mut wcet_by_addr: BTreeMap<u32, u64> = BTreeMap::new();
    let mut per_function = Vec::with_capacity(order.len());
    let mut classification = cache::Classification::default();
    let widened = classified.widened;

    let costing_span = spmlab_obs::span("wcet-pass-costing");
    for (&faddr, flow) in order.iter().zip(flows) {
        let cfg = &cfgs[&faddr];
        let _f = spmlab_obs::span_with("wcet-fn-cost", || cfg.name.clone());
        let flow = flow.as_ref().map_err(Clone::clone)?;
        let loops = &flow.facts.loops;

        let mut classify = ClassifyStats::default();
        let hierarchy = &config.hierarchy;
        let ctx = MultiCtx {
            hierarchy,
            map: &exe.memory_map,
            annot,
            l2_analysis: config.l2_must_analysis,
            may_analysis: config.interprocedural_may,
            summaries: config.interprocedural_may.then_some(&classified.summaries),
        };
        let mut persistence = config
            .persistence
            .then(|| cache::persistence(cfg, loops, hierarchy, &exe.memory_map, annot))
            .flatten();
        let no_states = BTreeMap::new();
        let in_states = classified.states.get(&faddr).unwrap_or(&no_states);
        let block_costs = hierarchy_block_costs(
            cfg,
            in_states,
            &ctx,
            &wcet_by_addr,
            &mut classify,
            &mut classification,
            persistence.as_mut(),
        );
        let entry_penalties = persistence.map(|p| p.entry_penalties()).unwrap_or_default();
        // Persistence trades a miss charge per execution for one first
        // miss per loop entry, a trade that loses on a worst-case path
        // skipping a persistent line's reads. Both bounds are sound, so
        // the tighter one is kept.
        let must_only_costs = (!entry_penalties.is_empty()).then(|| {
            hierarchy_block_costs(
                cfg,
                in_states,
                &ctx,
                &wcet_by_addr,
                &mut ClassifyStats::default(),
                &mut Classification::default(),
                None,
            )
        });

        let mut wcet = ipet(cfg, flow, &block_costs, &entry_penalties)?;
        if let Some(costs) = must_only_costs {
            let must_only = ipet(cfg, flow, &costs, &BTreeMap::new())?;
            wcet = wcet.min(must_only);
        }
        wcet_by_addr.insert(faddr, wcet);
        per_function.push(FuncWcet {
            name: cfg.name.clone(),
            addr: faddr,
            wcet_cycles: wcet,
            blocks: cfg.blocks.len(),
            insns: cfg.insn_count(),
            loops: loops.len(),
            classify,
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
        classification,
        widened,
    })
}

/// Costs every block of `cfg`, in address order, under the hierarchy
/// model from its classified in-state (TOP where none was recorded).
fn hierarchy_block_costs(
    cfg: &FuncCfg,
    in_states: &BTreeMap<u32, MultiState>,
    ctx: &MultiCtx,
    callee_wcet: &BTreeMap<u32, u64>,
    stats: &mut ClassifyStats,
    classification: &mut Classification,
    mut persistence: Option<&mut Persistence>,
) -> Vec<u64> {
    let top = MultiState::top(ctx);
    cfg.blocks
        .iter()
        .map(|(b, block)| {
            let in_state = in_states.get(b).unwrap_or(&top);
            multilevel::block_cost(
                block,
                in_state,
                ctx,
                callee_wcet,
                stats,
                classification,
                persistence.as_deref_mut(),
            )
        })
        .collect()
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
        // Nothing to classify: no summaries, no fixpoint states, and the
        // empty result serves every main-memory timing.
        let l = linked(LOOP_SRC, MemoryMap::no_spm(), SpmAssignment::none());
        let prepared = prepare(&l.exe, &l.annotations).unwrap();
        let classified = classify(&prepared, &l.exe, &WcetConfig::region_timing());
        assert!(classified.summaries.is_empty() && classified.states.is_empty());
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
