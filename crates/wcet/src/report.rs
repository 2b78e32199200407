//! Analysis results.

use crate::cache::ClassifyStats;

/// Per-function analysis outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncWcet {
    /// Function name.
    pub name: String,
    /// Entry address.
    pub addr: u32,
    /// WCET bound in cycles (callees included).
    pub wcet_cycles: u64,
    /// Number of basic blocks.
    pub blocks: usize,
    /// Number of instructions.
    pub insns: usize,
    /// Number of natural loops.
    pub loops: usize,
    /// Cache classification statistics (zero for region timing).
    pub classify: ClassifyStats,
}

/// Whole-program analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetResult {
    /// The program's WCET bound in cycles, from the entry function.
    pub wcet_cycles: u64,
    /// Per-function breakdown, callees first.
    pub per_function: Vec<FuncWcet>,
    /// Worst-case stack depth in bytes (whole program).
    pub stack_bytes: u32,
    /// Per-address always-hit proofs (cache configurations; empty for
    /// region timing), shared by every result priced from one
    /// classification. Soundness tests check these against simulator
    /// traces.
    pub classification: std::sync::Arc<crate::cache::Classification>,
    /// `true` when any abstract-interpretation fixpoint exhausted its
    /// iteration budget and fell back (was *widened*) to the conservative
    /// top state. The bound is still sound but maximally imprecise for
    /// the affected function — previously this happened silently.
    pub widened: bool,
}

impl WcetResult {
    /// Looks up one function's result.
    pub fn function(&self, name: &str) -> Option<&FuncWcet> {
        self.per_function.iter().find(|f| f.name == name)
    }

    /// Aggregated classification statistics.
    pub fn total_classify(&self) -> ClassifyStats {
        let mut t = ClassifyStats::default();
        for f in &self.per_function {
            t.absorb(f.classify);
        }
        t
    }
}

impl std::fmt::Display for WcetResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "WCET bound: {} cycles (stack {} bytes)",
            self.wcet_cycles, self.stack_bytes
        )?;
        if self.widened {
            writeln!(
                f,
                "WARNING: a fixpoint exhausted its iteration budget; states were widened to top (sound but maximally imprecise)"
            )?;
        }
        writeln!(
            f,
            "{:<16} {:>12} {:>7} {:>6} {:>6}",
            "function", "wcet", "blocks", "insns", "loops"
        )?;
        for func in &self.per_function {
            writeln!(
                f,
                "{:<16} {:>12} {:>7} {:>6} {:>6}",
                func.name, func.wcet_cycles, func.blocks, func.insns, func.loops
            )?;
        }
        Ok(())
    }
}
