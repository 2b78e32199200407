//! Table-1 region timing — the paper's scratchpad branch, "no additional
//! analysis module required" — is the memory hierarchy with no cache
//! level ([`MemHierarchyConfig::uncached`]). These tests pin its block
//! costs through the multi-level census walk and its pricing, and check
//! that the walk classifies nothing on the way.

#[cfg(test)]
mod tests {
    use crate::cache::{Classification, ClassifyStats};
    use crate::cfg::BasicBlock;
    use crate::multilevel::{block_cost, MultiCtx, MultiState};
    use spmlab_isa::annot::{AddrInfo, AnnotationSet};
    use spmlab_isa::hierarchy::MemHierarchyConfig;
    use spmlab_isa::insn::Insn;
    use spmlab_isa::mem::{AccessWidth, MemoryMap};
    use spmlab_isa::reg::{R0, R1};
    use std::collections::BTreeMap;

    fn block(start: u32, insns: Vec<(u32, Insn)>) -> BasicBlock {
        BasicBlock {
            start,
            insns,
            succs: vec![],
            calls: vec![],
            is_exit: false,
        }
    }

    /// Region-timing cost of `b`: the uncached hierarchy walked from its
    /// TOP state, with no access classified.
    fn block_cost_region(
        b: &BasicBlock,
        map: &MemoryMap,
        annot: &AnnotationSet,
        callees: &BTreeMap<u32, u64>,
    ) -> u64 {
        let h = MemHierarchyConfig::uncached();
        let ctx = MultiCtx {
            hierarchy: &h,
            map,
            annot,
            l2_analysis: true,
            may_analysis: true,
            summaries: None,
        };
        let mut stats = ClassifyStats::default();
        let mut cls = Classification::default();
        let c = block_cost(
            b,
            &MultiState::top(&ctx),
            &ctx,
            callees,
            &mut stats,
            &mut cls,
            None,
        );
        assert_eq!(stats, ClassifyStats::default());
        assert_eq!(cls, Classification::default());
        c
    }

    fn word_load(at: u32) -> (u32, Insn) {
        (
            at,
            Insn::LdrImm {
                width: AccessWidth::Word,
                rd: R0,
                rn: R1,
                off: 0,
            },
        )
    }

    #[test]
    fn main_memory_fetch_costs() {
        let map = MemoryMap::no_spm();
        let annot = AnnotationSet::new();
        let b = block(0x0010_0000, vec![(0x0010_0000, Insn::Nop)]);
        // 1 base + 2 fetch.
        assert_eq!(block_cost_region(&b, &map, &annot, &BTreeMap::new()), 3);
    }

    #[test]
    fn scratchpad_fetch_is_cheaper() {
        let map = MemoryMap::with_spm(1024);
        let annot = AnnotationSet::new();
        let b = block(0x10, vec![(0x10, Insn::Nop)]);
        // 1 base + 1 fetch.
        assert_eq!(block_cost_region(&b, &map, &annot, &BTreeMap::new()), 2);
    }

    #[test]
    fn word_load_with_exact_annotation() {
        let map = MemoryMap::with_spm(1024);
        let mut annot = AnnotationSet::new();
        // Load at 0x0010_0000 targets a scratchpad word.
        annot.set_access(0x0010_0000, AccessWidth::Word, AddrInfo::Exact(0x40));
        let b = block(0x0010_0000, vec![word_load(0x0010_0000)]);
        // 1 base + 2 fetch + 1 spm data.
        assert_eq!(block_cost_region(&b, &map, &annot, &BTreeMap::new()), 4);
    }

    #[test]
    fn unknown_load_pays_main_word_cost() {
        let map = MemoryMap::with_spm(1024);
        let annot = AnnotationSet::new();
        let b = block(0x0010_0000, vec![word_load(0x0010_0000)]);
        // 1 base + 2 fetch + 4 main word.
        assert_eq!(block_cost_region(&b, &map, &annot, &BTreeMap::new()), 7);
    }

    #[test]
    fn callee_wcet_added() {
        let map = MemoryMap::no_spm();
        let annot = AnnotationSet::new();
        let mut callees = BTreeMap::new();
        callees.insert(0x0010_0040u32, 1000u64);
        let mut b = block(0x0010_0000, vec![(0x0010_0000, Insn::Bl { off: 0x3C })]);
        b.calls = vec![0x0010_0040];
        // 1 base + 2 taken + 2×2 fetches + 1000 callee.
        assert_eq!(
            block_cost_region(&b, &map, &annot, &callees),
            1 + 2 + 4 + 1000
        );
    }

    #[test]
    fn branch_charged_as_taken() {
        let map = MemoryMap::no_spm();
        let annot = AnnotationSet::new();
        let b = block(
            0x0010_0000,
            vec![(
                0x0010_0000,
                Insn::BCond {
                    cond: spmlab_isa::cond::Cond::Eq,
                    off: 8,
                },
            )],
        );
        // 1 base + 2 taken-penalty + 2 fetch.
        assert_eq!(block_cost_region(&b, &map, &annot, &BTreeMap::new()), 5);
    }
}
