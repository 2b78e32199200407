//! Tool annotations: the information aiT's configuration and annotation
//! files carry in the paper.
//!
//! The paper stresses that most annotations are generated automatically
//! "using information from the simulator and from the linker"; only loop
//! bounds that cannot be detected automatically need the user. We mirror
//! that split: the MiniC compiler and linker emit an [`AnnotationSet`]
//! alongside the executable (loop-bound hints from source-level
//! `__loopbound()` markers, exact addresses for scalar accesses, address
//! ranges for array accesses), and users may add or override entries.

use crate::mem::AccessWidth;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A loop bound: the maximum number of times the loop's back edges may
/// execute per entry of the loop from outside.
///
/// For a `while`/`for` loop compiled as `header: test; body; b header`, this
/// equals the maximum number of body executions — the value MiniC's
/// `__loopbound(n)` states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopBound {
    /// Address of the loop-header basic block's first instruction.
    pub header_addr: u32,
    /// Maximum back-edge executions per loop entry.
    pub max_iterations: u32,
}

/// How precisely the address of one data access is known statically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddrInfo {
    /// The access always touches exactly this address.
    Exact(u32),
    /// The access touches one address in `[lo, hi)` (array accesses; the
    /// paper's "range of possible addresses for those array accesses").
    Range { lo: u32, hi: u32 },
    /// Somewhere in the runtime stack window.
    Stack,
    /// Nothing is known; the analysis must assume any address.
    Unknown,
}

/// Annotation for one load/store instruction, keyed by its address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessAnnot {
    /// Address of the accessing instruction.
    pub insn_addr: u32,
    /// Width of the access.
    pub width: AccessWidth,
    /// Address knowledge.
    pub addr: AddrInfo,
}

/// The full annotation set handed to the WCET analyzer together with the
/// executable.
///
/// ```
/// use spmlab_isa::annot::{AnnotationSet, AddrInfo};
/// use spmlab_isa::mem::AccessWidth;
///
/// let mut ann = AnnotationSet::new();
/// ann.set_loop_bound(0x10_0040, 64);
/// ann.set_access(0x10_0010, AccessWidth::Word, AddrInfo::Range { lo: 0x10_0800, hi: 0x10_0900 });
/// assert_eq!(ann.loop_bound(0x10_0040), Some(64));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnnotationSet {
    loop_bounds: BTreeMap<u32, u32>,
    /// Flow facts: absolute bound on a loop's back-edge executions per
    /// invocation of its function (tightens triangular nests, where the
    /// per-entry bound squares).
    loop_totals: BTreeMap<u32, u32>,
    accesses: BTreeMap<u32, AccessAnnot>,
    /// Worst-case stack window `[lo, hi)`, filled in by stack-depth
    /// analysis; `None` until computed.
    stack_window: Option<(u32, u32)>,
}

impl AnnotationSet {
    /// An empty annotation set.
    pub fn new() -> AnnotationSet {
        AnnotationSet::default()
    }

    /// Sets (or overrides) the bound for the loop whose header starts at
    /// `header_addr`.
    pub fn set_loop_bound(&mut self, header_addr: u32, max_iterations: u32) {
        self.loop_bounds.insert(header_addr, max_iterations);
    }

    /// The bound for a loop header, if annotated.
    pub fn loop_bound(&self, header_addr: u32) -> Option<u32> {
        self.loop_bounds.get(&header_addr).copied()
    }

    /// Iterates all loop bounds, ordered by header address.
    pub fn loop_bounds(&self) -> impl Iterator<Item = LoopBound> + '_ {
        self.loop_bounds
            .iter()
            .map(|(&header_addr, &max_iterations)| LoopBound {
                header_addr,
                max_iterations,
            })
    }

    /// Sets a flow fact: the loop's back edges execute at most
    /// `total` times per invocation of the enclosing function.
    pub fn set_loop_total(&mut self, header_addr: u32, total: u32) {
        self.loop_totals.insert(header_addr, total);
    }

    /// The flow-fact total for a loop header, if annotated.
    pub fn loop_total(&self, header_addr: u32) -> Option<u32> {
        self.loop_totals.get(&header_addr).copied()
    }

    /// Iterates all flow-fact totals, ordered by header address.
    pub fn loop_totals(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.loop_totals.iter().map(|(&h, &t)| (h, t))
    }

    /// Annotates the data access performed by the instruction at
    /// `insn_addr`.
    pub fn set_access(&mut self, insn_addr: u32, width: AccessWidth, addr: AddrInfo) {
        self.accesses.insert(
            insn_addr,
            AccessAnnot {
                insn_addr,
                width,
                addr,
            },
        );
    }

    /// The access annotation for an instruction, if present.
    pub fn access(&self, insn_addr: u32) -> Option<&AccessAnnot> {
        self.accesses.get(&insn_addr)
    }

    /// Iterates all access annotations, ordered by instruction address.
    pub fn accesses(&self) -> impl Iterator<Item = &AccessAnnot> {
        self.accesses.values()
    }

    /// Records the worst-case stack window `[lo, hi)`.
    pub fn set_stack_window(&mut self, lo: u32, hi: u32) {
        self.stack_window = Some((lo, hi));
    }

    /// The worst-case stack window, if computed.
    pub fn stack_window(&self) -> Option<(u32, u32)> {
        self.stack_window
    }

    /// Merges `other` into `self`; entries in `other` win on conflict.
    /// This is how user-supplied annotations override generated ones.
    pub fn merge_from(&mut self, other: &AnnotationSet) {
        for (k, v) in &other.loop_bounds {
            self.loop_bounds.insert(*k, *v);
        }
        for (k, v) in &other.loop_totals {
            self.loop_totals.insert(*k, *v);
        }
        for (k, v) in &other.accesses {
            self.accesses.insert(*k, *v);
        }
        if other.stack_window.is_some() {
            self.stack_window = other.stack_window;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_bounds_roundtrip() {
        let mut a = AnnotationSet::new();
        a.set_loop_bound(0x100, 10);
        a.set_loop_bound(0x200, 20);
        assert_eq!(a.loop_bound(0x100), Some(10));
        assert_eq!(a.loop_bound(0x300), None);
        let all: Vec<_> = a.loop_bounds().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].header_addr, 0x100);
    }

    #[test]
    fn merge_overrides() {
        let mut base = AnnotationSet::new();
        base.set_loop_bound(0x100, 10);
        base.set_access(0x10, AccessWidth::Word, AddrInfo::Unknown);
        let mut user = AnnotationSet::new();
        user.set_loop_bound(0x100, 8);
        user.set_access(0x10, AccessWidth::Word, AddrInfo::Exact(0x500));
        user.set_stack_window(0x1000, 0x2000);
        base.merge_from(&user);
        assert_eq!(base.loop_bound(0x100), Some(8));
        assert_eq!(base.access(0x10).unwrap().addr, AddrInfo::Exact(0x500));
        assert_eq!(base.stack_window(), Some((0x1000, 0x2000)));
    }
}
