//! Implicit Path Enumeration Technique (IPET).
//!
//! The WCET of a function is the maximum of Σ cost(b)·x(b) over execution
//! counts x satisfying structural flow conservation plus the loop-bound
//! constraints — an integer linear program, solved with the workspace's
//! CPLEX substitute exactly as in the paper's tool chain.
//!
//! Only the objective depends on the memory hierarchy and on the callee
//! bounds; the constraint system depends on the function's [`Shape`]
//! alone. An [`IpetModels`] store builds each shape's [`IpetModel`] once —
//! its rows and their simplex phase-1 state — and every later solve of
//! that shape fills in a new objective and runs phase 2 only. Every
//! solve's counts are then checked in integer arithmetic against the CFG
//! and the flow facts themselves (the primal certificate), and the bound
//! is Σ cost × count over those counts, computed exactly.

use crate::cfg::FuncCfg;
use crate::loops::NaturalLoop;
use crate::WcetError;
use spmlab_ilp::branch::{solve_from, DEFAULT_NODE_LIMIT};
use spmlab_ilp::model::{Model, Sense, Var, VarKind};
use spmlab_ilp::simplex::{phase1, Phase1};
use spmlab_ilp::IlpError;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

/// The flow facts IPET needs about one function, none of which depend on
/// the memory hierarchy: its natural loops, each loop's bound (maximum
/// back-edge executions per loop entry) and, where annotated, its total
/// (maximum back-edge executions per function invocation — aiT-style flow
/// constraints, essential for triangular loop nests). Both maps are keyed
/// by loop header, and every loop has a bound.
#[derive(Debug)]
pub struct FlowFacts {
    /// Natural loops, inner loops first.
    pub loops: Vec<NaturalLoop>,
    /// Bound per loop header.
    pub bounds: BTreeMap<u32, u32>,
    /// Total per loop header, where one is annotated.
    pub totals: BTreeMap<u32, u32>,
}

/// The relative structure of a function, which its IPET constraint system
/// is built from: every block's offset from the entry, successors and
/// whether it exits, and every loop's header, back edges, entry edges,
/// bound and total. Two functions — or two links of one function — with
/// equal shapes share one [`IpetModel`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Blocks in address order.
    blocks: Vec<BlockShape>,
    /// Loops in [`FlowFacts::loops`] order.
    loops: Vec<LoopShape>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BlockShape {
    offset: u32,
    succs: Vec<u32>,
    exit: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LoopShape {
    header: u32,
    back_edges: Vec<(u32, u32)>,
    entry_edges: Vec<(u32, u32)>,
    bound: u32,
    total: Option<u32>,
}

impl Shape {
    /// The shape of `cfg` under `facts`.
    ///
    /// # Panics
    ///
    /// When a loop of `facts` has no bound.
    pub fn of(cfg: &FuncCfg, facts: &FlowFacts) -> Shape {
        let off = |a: u32| a.wrapping_sub(cfg.entry);
        let edges = |es: &[(u32, u32)]| es.iter().map(|&(s, d)| (off(s), off(d))).collect();
        Shape {
            blocks: cfg
                .blocks
                .iter()
                .map(|(&b, block)| BlockShape {
                    offset: off(b),
                    succs: block.succs.iter().map(|&s| off(s)).collect(),
                    exit: block.is_exit,
                })
                .collect(),
            loops: facts
                .loops
                .iter()
                .map(|l| LoopShape {
                    header: off(l.header),
                    back_edges: edges(&l.back_edges),
                    entry_edges: edges(&l.entry_edges),
                    bound: *facts
                        .bounds
                        .get(&l.header)
                        .expect("bounds computed for every loop"),
                    total: facts.totals.get(&l.header).copied(),
                })
                .collect(),
        }
    }
}

/// One shape's IPET constraint system, built once: the model's rows and
/// their phase-1 state. [`IpetModel::solve`] prices it under one set of
/// block costs and entry penalties.
#[derive(Debug)]
pub struct IpetModel {
    /// The rows, with every objective coefficient zero.
    model: Model,
    /// Phase 1 of `model`, or the objective-independent error every solve
    /// of this shape reports (a function without an exit has no finite
    /// WCET; rows that admit no flow are infeasible).
    root: Result<Phase1, IlpError>,
    /// Count variable per block, in address order.
    block_vars: Vec<Var>,
    /// Count variable per distinct edge, keyed by offsets.
    edge_vars: BTreeMap<(u32, u32), Var>,
    /// The virtual entry edge: the function executes once.
    entry_var: Var,
    /// Exit edge per exit block, keyed by offset.
    exit_vars: BTreeMap<u32, Var>,
}

impl IpetModel {
    /// Builds the constraint system of `shape`, variables and rows in a
    /// fixed order, and runs phase 1 on it.
    pub fn build(shape: &Shape) -> IpetModel {
        let mut m = Model::new(Sense::Maximize);

        // Block count variables.
        let block_vars: Vec<Var> = shape
            .blocks
            .iter()
            .map(|_| m.add_var("x", VarKind::Integer, None))
            .collect();
        // Edge count variables.
        let mut edge_vars: BTreeMap<(u32, u32), Var> = BTreeMap::new();
        for b in &shape.blocks {
            for &dst in &b.succs {
                edge_vars
                    .entry((b.offset, dst))
                    .or_insert_with(|| m.add_var("d", VarKind::Integer, None));
            }
        }
        let mut incoming: BTreeMap<u32, Vec<Var>> = BTreeMap::new();
        for (&(_, dst), &v) in &edge_vars {
            incoming.entry(dst).or_default().push(v);
        }
        // Virtual entry edge (the function executes once) and exit edges.
        let entry_var = m.add_var("d_entry", VarKind::Integer, Some(1.0));
        m.add_eq(&[(entry_var, 1.0)], 1.0);
        let mut exit_vars: BTreeMap<u32, Var> = BTreeMap::new();

        // Flow conservation.
        for (b, &xb) in shape.blocks.iter().zip(&block_vars) {
            // x_b == sum of incoming edges.
            let mut in_terms: Vec<(Var, f64)> = vec![(xb, 1.0)];
            for &v in incoming.get(&b.offset).into_iter().flatten() {
                in_terms.push((v, -1.0));
            }
            if b.offset == 0 {
                in_terms.push((entry_var, -1.0));
            }
            m.add_eq(&in_terms, 0.0);
            // x_b == sum of outgoing edges.
            let mut out_terms: Vec<(Var, f64)> = vec![(xb, 1.0)];
            for &dst in &b.succs {
                out_terms.push((edge_vars[&(b.offset, dst)], -1.0));
            }
            if b.exit {
                let d = m.add_var("d_exit", VarKind::Integer, None);
                exit_vars.insert(b.offset, d);
                out_terms.push((d, -1.0));
            }
            m.add_eq(&out_terms, 0.0);
        }
        let mut ipet = IpetModel {
            model: m,
            // A function that cannot return has no finite WCET.
            root: Err(IlpError::Infeasible),
            block_vars,
            edge_vars,
            entry_var,
            exit_vars,
        };
        if ipet.exit_vars.is_empty() {
            return ipet;
        }
        let m = &mut ipet.model;
        // Exactly one exit.
        let exit_terms: Vec<(Var, f64)> = ipet.exit_vars.values().map(|&v| (v, 1.0)).collect();
        m.add_eq(&exit_terms, 1.0);

        // Loop bounds: Σ back-edges ≤ bound × Σ entry-edges. When the header
        // is the function's entry block, the virtual entry edge is one of the
        // loop's entries (omitting it would force the back edges to zero — an
        // unsound under-approximation caught by the hostile-binary tests).
        for l in &shape.loops {
            let bound = l.bound as f64;
            let mut terms: Vec<(Var, f64)> = Vec::new();
            for e in &l.back_edges {
                terms.push((ipet.edge_vars[e], 1.0));
            }
            for e in &l.entry_edges {
                terms.push((ipet.edge_vars[e], -bound));
            }
            if l.header == 0 {
                terms.push((ipet.entry_var, -bound));
            }
            m.add_le(&terms, 0.0);
            // Flow fact: absolute back-edge total per function invocation.
            if let Some(total) = l.total {
                let back_terms: Vec<(Var, f64)> = l
                    .back_edges
                    .iter()
                    .map(|e| (ipet.edge_vars[e], 1.0))
                    .collect();
                m.add_le(&back_terms, total as f64);
            }
        }
        ipet.root = phase1(&ipet.model, &[]);
        ipet
    }

    /// The worst-case cycles of the function `cfg` whose [`Shape`] under
    /// `facts` this model was built from.
    ///
    /// * `block_costs` — worst-case cycles per block (callee WCETs
    ///   included), in address order;
    /// * `entry_penalties` — extra cycles charged per entry of a loop
    ///   (persistence first-miss charges), keyed by header.
    ///
    /// Phase 2 runs from the stored phase-1 basis, falling back to branch
    /// and bound when the optimum is fractional. The counts are certified
    /// against `cfg` and `facts` ([`WcetError::IpetCertificate`] when they
    /// violate them), and the bound is Σ cost × count over them, exact.
    ///
    /// # Errors
    ///
    /// [`WcetError::Ilp`] wraps solver failures (a function that cannot
    /// return is [`IlpError::Infeasible`]; an unbounded ILP indicates a
    /// structural bug, as every loop has a bound);
    /// [`WcetError::IpetCertificate`] for counts the flow facts refute.
    pub fn solve(
        &self,
        cfg: &FuncCfg,
        facts: &FlowFacts,
        block_costs: &[u64],
        entry_penalties: &BTreeMap<u32, u64>,
    ) -> Result<u64, WcetError> {
        let root = self.root.as_ref().map_err(|e| WcetError::Ilp(e.clone()))?;
        debug_assert_eq!(block_costs.len(), self.block_vars.len());
        // Objective: block costs plus per-entry persistence penalties.
        let mut costs = vec![0u64; self.model.num_vars()];
        for (v, &c) in self.block_vars.iter().zip(block_costs) {
            costs[v.index()] = c;
        }
        for l in &facts.loops {
            if let Some(&pen) = entry_penalties.get(&l.header) {
                for &(s, d) in &l.entry_edges {
                    costs[self.edge(cfg, s, d).index()] = pen;
                }
            }
        }
        let objective: Vec<f64> = costs.iter().map(|&c| c as f64).collect();
        let sol = solve_from(&self.model, &objective, root, DEFAULT_NODE_LIMIT)?;
        let counts = self.certify(cfg, facts, &sol.values)?;
        let wcet: u128 = costs
            .iter()
            .zip(&counts)
            .map(|(&c, &x)| u128::from(c) * u128::from(x))
            .sum();
        Ok(u64::try_from(wcet).unwrap_or(u64::MAX))
    }

    /// The count variable of edge `src → dst` of `cfg`.
    fn edge(&self, cfg: &FuncCfg, src: u32, dst: u32) -> Var {
        let off = |a: u32| a.wrapping_sub(cfg.entry);
        self.edge_vars[&(off(src), off(dst))]
    }

    /// The primal certificate: `values` as non-negative integer counts
    /// that satisfy, in exact arithmetic, the flow facts read from `cfg`
    /// and `facts` themselves rather than from the model's rows — flow
    /// conservation at every block, one entry and one exit,
    /// back ≤ bound × entries and back ≤ total for every loop.
    fn certify(
        &self,
        cfg: &FuncCfg,
        facts: &FlowFacts,
        values: &[f64],
    ) -> Result<Vec<u64>, WcetError> {
        let fail = |reason: String| WcetError::IpetCertificate {
            func: cfg.name.clone(),
            reason,
        };
        let counts: Vec<u64> = values
            .iter()
            .map(|&v| (v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64).then_some(v as u64))
            .collect::<Option<_>>()
            .ok_or_else(|| fail(String::from("a count is not a non-negative integer")))?;
        let count = |v: Var| u128::from(counts[v.index()]);
        let entries = count(self.entry_var);
        if entries != 1 {
            return Err(fail(format!("the function is entered {entries} times")));
        }
        let exits: u128 = self.exit_vars.values().map(|&v| count(v)).sum();
        if exits != 1 {
            return Err(fail(format!("the function exits {exits} times")));
        }

        let mut inflow: BTreeMap<u32, u128> = BTreeMap::from([(cfg.entry, entries)]);
        let mut outflow: Vec<u128> = Vec::with_capacity(cfg.blocks.len());
        for (&b, block) in &cfg.blocks {
            let mut out = 0;
            for (i, &dst) in block.succs.iter().enumerate() {
                if block.succs[..i].contains(&dst) {
                    continue; // One edge, however often it is listed.
                }
                let n = count(self.edge(cfg, b, dst));
                *inflow.entry(dst).or_default() += n;
                out += n;
            }
            if block.is_exit {
                out += count(self.exit_vars[&b.wrapping_sub(cfg.entry)]);
            }
            outflow.push(out);
        }
        for (((&b, _), &x), out) in cfg.blocks.iter().zip(&self.block_vars).zip(outflow) {
            let (x, inn) = (count(x), inflow.get(&b).copied().unwrap_or(0));
            if x != inn || x != out {
                return Err(fail(format!(
                    "block {b:#x} runs {x} times with inflow {inn} and outflow {out}"
                )));
            }
        }

        for l in &facts.loops {
            let sum = |es: &[(u32, u32)]| -> u128 {
                es.iter().map(|&(s, d)| count(self.edge(cfg, s, d))).sum()
            };
            let back = sum(&l.back_edges);
            let entered = sum(&l.entry_edges) + if l.header == cfg.entry { entries } else { 0 };
            let bound = facts.bounds.get(&l.header).copied().unwrap_or(0);
            if back > u128::from(bound) * entered {
                return Err(fail(format!(
                    "loop {:#x} iterates {back} times over {entered} entries, bound {bound}",
                    l.header
                )));
            }
            if let Some(&total) = facts.totals.get(&l.header) {
                if back > u128::from(total) {
                    return Err(fail(format!(
                        "loop {:#x} iterates {back} times, total {total}",
                        l.header
                    )));
                }
            }
        }
        Ok(counts)
    }
}

/// IPET models keyed by [`Shape`]: each shape is built once and shared by
/// every later solve of it. Safe to share between threads; a model is
/// built under the store's lock, so each shape is built exactly once.
///
/// Every [`solve`](IpetModels::solve) runs in an `ipet` span and reports
/// an `ipet_model_built` or `ipet_model_reused` counter.
#[derive(Debug, Default)]
pub struct IpetModels {
    models: Mutex<HashMap<Shape, Arc<IpetModel>>>,
}

impl IpetModels {
    /// An empty store.
    pub fn new() -> IpetModels {
        IpetModels::default()
    }

    /// The model of `shape`, built on first request.
    fn model(&self, shape: &Shape) -> Arc<IpetModel> {
        let mut models = self.models.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(m) = models.get(shape) {
            spmlab_obs::counter("ipet_model_reused", 1);
            return m.clone();
        }
        spmlab_obs::counter("ipet_model_built", 1);
        let m = Arc::new(IpetModel::build(shape));
        models.insert(shape.clone(), m.clone());
        m
    }

    /// Solves the IPET of `cfg` (whose shape under `facts` is `shape`) on
    /// the stored model of its shape; see [`IpetModel::solve`].
    ///
    /// # Errors
    ///
    /// As for [`IpetModel::solve`].
    pub fn solve(
        &self,
        cfg: &FuncCfg,
        facts: &FlowFacts,
        shape: &Shape,
        block_costs: &[u64],
        entry_penalties: &BTreeMap<u32, u64>,
    ) -> Result<u64, WcetError> {
        let _s = spmlab_obs::span("ipet");
        self.model(shape)
            .solve(cfg, facts, block_costs, entry_penalties)
    }

    /// The number of distinct shapes built so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.models
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cfg::{build_cfg, BasicBlock};
    use crate::loops::natural_loops;
    use proptest::prelude::*;
    use spmlab_cc::{compile, link, SpmAssignment};
    use spmlab_isa::mem::MemoryMap;

    /// The reference: a fresh model built from the CFG itself on every
    /// call, solved cold by `branch::solve`, its bound the rounded float
    /// objective — the IPET as it was before models were stored.
    pub(crate) fn cold_solve(
        cfg: &FuncCfg,
        facts: &FlowFacts,
        block_costs: &[u64],
        entry_penalties: &BTreeMap<u32, u64>,
    ) -> Result<u64, WcetError> {
        let mut m = Model::new(Sense::Maximize);
        let mut xb: BTreeMap<u32, Var> = BTreeMap::new();
        for &b in cfg.blocks.keys() {
            xb.insert(b, m.add_var(format!("x_{b:x}"), VarKind::Integer, None));
        }
        let mut de: BTreeMap<(u32, u32), Var> = BTreeMap::new();
        for (&src, block) in &cfg.blocks {
            for &dst in &block.succs {
                de.entry((src, dst)).or_insert_with(|| {
                    m.add_var(format!("d_{src:x}_{dst:x}"), VarKind::Integer, None)
                });
            }
        }
        let d_entry = m.add_var("d_entry", VarKind::Integer, Some(1.0));
        m.add_eq(&[(d_entry, 1.0)], 1.0);
        let mut d_exits: Vec<Var> = Vec::new();
        for (&b, block) in &cfg.blocks {
            let mut in_terms: Vec<(Var, f64)> = vec![(xb[&b], 1.0)];
            for (&(_, dst), &v) in &de {
                if dst == b {
                    in_terms.push((v, -1.0));
                }
            }
            if b == cfg.entry {
                in_terms.push((d_entry, -1.0));
            }
            m.add_eq(&in_terms, 0.0);
            let mut out_terms: Vec<(Var, f64)> = vec![(xb[&b], 1.0)];
            for &dst in &block.succs {
                out_terms.push((de[&(b, dst)], -1.0));
            }
            if block.is_exit {
                let d = m.add_var(format!("d_exit_{b:x}"), VarKind::Integer, None);
                d_exits.push(d);
                out_terms.push((d, -1.0));
            }
            m.add_eq(&out_terms, 0.0);
        }
        if d_exits.is_empty() {
            return Err(WcetError::Ilp(IlpError::Infeasible));
        }
        let exit_terms: Vec<(Var, f64)> = d_exits.iter().map(|&v| (v, 1.0)).collect();
        m.add_eq(&exit_terms, 1.0);
        for l in &facts.loops {
            let bound = facts.bounds[&l.header];
            let mut terms: Vec<(Var, f64)> = Vec::new();
            for e in &l.back_edges {
                terms.push((de[e], 1.0));
            }
            for e in &l.entry_edges {
                terms.push((de[e], -(bound as f64)));
            }
            if l.header == cfg.entry {
                terms.push((d_entry, -(bound as f64)));
            }
            m.add_le(&terms, 0.0);
            if let Some(&total) = facts.totals.get(&l.header) {
                let back: Vec<(Var, f64)> = l.back_edges.iter().map(|e| (de[e], 1.0)).collect();
                m.add_le(&back, total as f64);
            }
        }
        let mut obj: Vec<(Var, f64)> = Vec::new();
        for (&v, &c) in xb.values().zip(block_costs) {
            obj.push((v, c as f64));
        }
        for l in &facts.loops {
            if let Some(&pen) = entry_penalties.get(&l.header) {
                for e in &l.entry_edges {
                    obj.push((de[e], pen as f64));
                }
            }
        }
        m.set_objective(&obj);
        let sol = spmlab_ilp::branch::solve(&m)?;
        Ok(sol.objective.round() as u64)
    }

    /// The stored-model bound of `cfg` on a fresh store.
    fn stored(
        cfg: &FuncCfg,
        facts: &FlowFacts,
        costs: &[u64],
        penalties: &BTreeMap<u32, u64>,
    ) -> Result<u64, WcetError> {
        IpetModels::new().solve(cfg, facts, &Shape::of(cfg, facts), costs, penalties)
    }

    fn facts_of(cfg: &FuncCfg, annot: &spmlab_isa::annot::AnnotationSet) -> FlowFacts {
        let loops = natural_loops(cfg).unwrap();
        let bounds = crate::bounds::loop_bounds(cfg, &loops, annot).unwrap();
        let totals = loops
            .iter()
            .filter_map(|l| Some((l.header, annot.loop_total(l.header)?)))
            .collect();
        FlowFacts {
            loops,
            bounds,
            totals,
        }
    }

    fn function_in(
        src: &str,
        func: &str,
        map: &MemoryMap,
        spm: &SpmAssignment,
    ) -> (FuncCfg, FlowFacts) {
        let l = link(&compile(src).unwrap(), map, spm).unwrap();
        let cfg = build_cfg(&l.exe, l.exe.symbol(func).unwrap()).unwrap();
        let facts = facts_of(&cfg, &l.annotations);
        (cfg, facts)
    }

    fn function(src: &str, func: &str) -> (FuncCfg, FlowFacts) {
        function_in(src, func, &MemoryMap::no_spm(), &SpmAssignment::none())
    }

    fn ipet_for(src: &str, func: &str, uniform_cost: u64) -> u64 {
        let (cfg, facts) = function(src, func);
        let costs = vec![uniform_cost; cfg.blocks.len()];
        stored(&cfg, &facts, &costs, &BTreeMap::new()).unwrap()
    }

    const LOOP_SRC: &str =
        "int x; void main() { int i; for (i = 0; i < 10; i = i + 1) { x = x + 1; } }";

    /// A triangular nest behind a branch: the inner loop runs at most
    /// three times per entry and five times per call.
    const NEST_SRC: &str = "int x; int y; int z;
        void main() {
            int i; int j;
            for (i = 0; i < 4; i = i + 1) {
                __loopbound(4);
                if (x) {
                    for (j = 0; j < 3; j = j + 1) { __loopbound(3); __looptotal(5); y = y + 1; }
                } else { z = z + 1; }
            }
        }";

    const BREAK_SRC: &str = "int x; int y;
        int f(int n) {
            int i;
            for (i = 0; i < 8; i = i + 1) {
                __loopbound(8);
                if (x == i) { return i; }
                y = y + i;
            }
            return 0;
        }
        void main() { x = f(3); }";

    /// A hand-built CFG: `succs` per block at addresses 0, 4, 8, ...;
    /// `exits` lists the returning blocks.
    fn hand_cfg(succs: &[&[u32]], exits: &[u32]) -> FuncCfg {
        FuncCfg {
            name: String::from("hand"),
            entry: 0,
            blocks: succs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let start = 4 * i as u32;
                    let block = BasicBlock {
                        start,
                        insns: Vec::new(),
                        succs: s.iter().map(|&b| 4 * b).collect(),
                        calls: Vec::new(),
                        is_exit: exits.contains(&(i as u32)),
                    };
                    (start, block)
                })
                .collect(),
        }
    }

    #[test]
    fn straight_line_counts_each_block_once() {
        let w = ipet_for("int x; void main() { x = 1; }", "main", 10);
        // main without a return statement is a single block (prologue,
        // body, epilogue fall through); allow up to 3 for layout changes.
        assert!((10..=30).contains(&w), "wcet {w}");
    }

    #[test]
    fn branch_takes_worst_arm() {
        // if/else with unbalanced arms: IPET must take the longer one; with
        // uniform block costs both arms count 1 block, so WCET counts one
        // arm exactly once.
        let w = ipet_for(
            "int x; void main() { if (x) { x = 1; } else { x = 2; } }",
            "main",
            7,
        );
        // entry(+cmp), one arm, join/epilogue ≥ 3 blocks; both arms (4
        // blocks) would be structurally infeasible.
        assert_eq!(w % 7, 0);
        let blocks = w / 7;
        assert!((3..=5).contains(&blocks), "took {blocks} blocks");
    }

    #[test]
    fn loop_bound_scales_wcet() {
        let w10 = ipet_for(LOOP_SRC, "main", 1);
        let w100 = ipet_for(
            "int x; void main() { int i; for (i = 0; i < 100; i = i + 1) { x = x + 1; } }",
            "main",
            1,
        );
        assert!(w100 > w10 + 80, "w10={w10} w100={w100}");
    }

    #[test]
    fn nested_loops_multiply() {
        let w = ipet_for(
            "int x; void main() {
                int i; int j;
                for (i = 0; i < 10; i = i + 1) {
                    for (j = 0; j < 10; j = j + 1) { x = x + 1; }
                }
             }",
            "main",
            1,
        );
        // Inner body ≈ 100 executions.
        assert!(w > 100, "wcet {w}");
        assert!(w < 400, "wcet {w} should stay near the structural count");
    }

    #[test]
    fn persistence_penalty_charged_per_entry() {
        let (cfg, facts) = function(LOOP_SRC, "main");
        let costs = vec![1; cfg.blocks.len()];
        let base = stored(&cfg, &facts, &costs, &BTreeMap::new()).unwrap();
        let pens = BTreeMap::from([(facts.loops[0].header, 160u64)]);
        let with_pen = stored(&cfg, &facts, &costs, &pens).unwrap();
        assert_eq!(with_pen, base + 160, "one loop entry → one penalty");
    }

    #[test]
    fn one_store_builds_each_shape_once() {
        // `work` linked into main memory and into the scratchpad sits at
        // other addresses with the same relative structure: one model.
        let src = "int buf[16]; int out;
            int work() {
                int i; int acc; acc = 0;
                for (i = 0; i < 16; i = i + 1) { __loopbound(16); acc = acc + buf[i]; }
                return acc;
            }
            void main() { out = work(); }";
        let (a, fa) = function(src, "work");
        let (b, fb) = function_in(
            src,
            "work",
            &MemoryMap::with_spm(1024),
            &SpmAssignment::of(["work"]),
        );
        assert_ne!(a.entry, b.entry, "the two links place `work` apart");
        assert_eq!(Shape::of(&a, &fa), Shape::of(&b, &fb));
        let models = IpetModels::new();
        for (cfg, facts) in [(&a, &fa), (&b, &fb), (&a, &fa)] {
            let costs = vec![3; cfg.blocks.len()];
            let shape = Shape::of(cfg, facts);
            let w = models.solve(cfg, facts, &shape, &costs, &BTreeMap::new());
            assert_eq!(w, cold_solve(cfg, facts, &costs, &BTreeMap::new()));
        }
        assert_eq!(models.len(), 1);
    }

    #[test]
    fn function_without_exit_is_infeasible() {
        // 0 → 1 → 0 forever.
        let cfg = hand_cfg(&[&[1], &[0]], &[]);
        let facts = FlowFacts {
            loops: natural_loops(&cfg).unwrap(),
            bounds: BTreeMap::from([(0, 5)]),
            totals: BTreeMap::new(),
        };
        let costs = [4, 9];
        let cold = cold_solve(&cfg, &facts, &costs, &BTreeMap::new());
        assert_eq!(cold, Err(WcetError::Ilp(IlpError::Infeasible)));
        assert_eq!(stored(&cfg, &facts, &costs, &BTreeMap::new()), cold);
    }

    #[test]
    fn loop_headed_by_the_entry_block() {
        // 0 → {1, 2}, 1 → 0: the entry block heads the loop, entered only
        // through the virtual entry edge.
        let cfg = hand_cfg(&[&[1, 2], &[0], &[]], &[2]);
        let loops = natural_loops(&cfg).unwrap();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, cfg.entry);
        assert!(loops[0].entry_edges.is_empty());
        let facts = FlowFacts {
            loops,
            bounds: BTreeMap::from([(0, 5)]),
            totals: BTreeMap::new(),
        };
        let costs = [2, 10, 1];
        let w = stored(&cfg, &facts, &costs, &BTreeMap::new()).unwrap();
        assert_eq!(
            w,
            cold_solve(&cfg, &facts, &costs, &BTreeMap::new()).unwrap()
        );
        // Five back edges: the header runs six times, the body five.
        assert_eq!(w, 6 * 2 + 5 * 10 + 1);
    }

    #[test]
    fn fractional_root_falls_back_to_branch_and_bound() {
        // Search a deterministic cost sequence for an objective whose
        // phase-2 optimum on the stored basis is fractional.
        let (cfg, facts) = function(NEST_SRC, "main");
        let shape = Shape::of(&cfg, &facts);
        let model = IpetModel::build(&shape);
        let root = model.root.as_ref().unwrap();
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % 8
        };
        let fractional = (0..2000).find_map(|_| {
            let costs: Vec<u64> = cfg.blocks.keys().map(|_| next()).collect();
            let mut objective = vec![0.0; model.model.num_vars()];
            for (v, &c) in model.block_vars.iter().zip(&costs) {
                objective[v.index()] = c as f64;
            }
            let relaxed = root.optimise(&objective).unwrap();
            let integral = relaxed.values.iter().all(|x| (x - x.round()).abs() <= 1e-6);
            (!integral).then_some(costs)
        });
        let costs = fractional.expect("some objective has a fractional root");
        let none = BTreeMap::new();
        let w = stored(&cfg, &facts, &costs, &none).unwrap();
        assert_eq!(w, cold_solve(&cfg, &facts, &costs, &none).unwrap());
    }

    #[test]
    fn dropped_loop_bound_row_fails_the_certificate() {
        let (cfg, facts) = function(NEST_SRC, "main");
        let costs = vec![5; cfg.blocks.len()];
        let none = BTreeMap::new();
        let sound = stored(&cfg, &facts, &costs, &none).unwrap();
        assert_eq!(sound, cold_solve(&cfg, &facts, &costs, &none).unwrap());
        // The outer loop's bound row made vacuous, as if dropped: the
        // solver now counts more iterations than the bound allows.
        let mut shape = Shape::of(&cfg, &facts);
        let outer = shape.loops.len() - 1;
        shape.loops[outer].bound = u32::MAX;
        let err = IpetModel::build(&shape)
            .solve(&cfg, &facts, &costs, &none)
            .unwrap_err();
        assert!(
            matches!(&err, WcetError::IpetCertificate { reason, .. } if reason.contains("bound")),
            "{err}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random block costs and entry penalties on fixed shapes: the
        /// stored model's bound is the cold solve's, to the cycle.
        #[test]
        fn stored_model_matches_cold_solve(
            which in 0usize..4,
            costs in prop::collection::vec(0u64..5000, 64),
            penalty in 0u64..400,
        ) {
            let (src, func) = [
                (LOOP_SRC, "main"),
                (NEST_SRC, "main"),
                (BREAK_SRC, "f"),
                (BREAK_SRC, "main"),
            ][which];
            let (cfg, facts) = function(src, func);
            let costs: Vec<u64> = costs.iter().cycle().take(cfg.blocks.len()).copied().collect();
            let penalties: BTreeMap<u32, u64> = facts
                .loops
                .iter()
                .enumerate()
                .map(|(i, l)| (l.header, penalty * (i as u64 + 1)))
                .collect();
            prop_assert_eq!(
                stored(&cfg, &facts, &costs, &penalties),
                cold_solve(&cfg, &facts, &costs, &penalties)
            );
        }
    }
}
