//! Generic MUST-style worklist fixpoint over a function CFG, shared by the
//! single-level cache analysis and the multi-level hierarchy analysis so
//! the two solvers can never drift apart.
//!
//! The solver visits blocks in **reverse postorder** through a priority
//! worklist (a min-heap over RPO indices with a bitset membership guard),
//! so forward dataflow reaches a block only after its forward predecessors
//! in the common case — acyclic regions converge in one transfer per
//! block, and loops need one extra pass per nesting level. This replaces
//! the original LIFO vector whose `contains(&succ)` membership scan was
//! `O(n)` per push and whose `keys().collect()` seeding visited blocks in
//! arbitrary address order.
//!
//! Change detection is delegated to the domain: `join_into` merges a
//! predecessor's out-state into a successor's in-state *in place* and
//! reports whether anything changed, so the solver never compares or
//! clones whole states to decide convergence.

use crate::cfg::{BasicBlock, FuncCfg};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Caller-imposed resource limits for one [`must_fixpoint`] solve, on top
/// of the structural `budget_factor * blocks` defensive cap.
///
/// Both limits are *sound* to exhaust: the solver widens every state to
/// `top` and reports `widened = true`, exactly like the structural cap, so
/// a budget-limited analysis degrades to a conservative bound instead of
/// hanging or lying. `Default` imposes no extra limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixpointBudget {
    /// Hard cap on worklist pops for this solve (no 4096 floor — an
    /// explicit cap means the caller *wants* early widening).
    pub max_iterations: Option<u64>,
    /// Absolute wall-clock deadline; checked once per pop.
    pub deadline: Option<Instant>,
}

impl FixpointBudget {
    /// No caller-imposed limits (the structural cap still applies).
    pub const UNLIMITED: FixpointBudget = FixpointBudget {
        max_iterations: None,
        deadline: None,
    };

    fn exhausted(&self, iterations: usize) -> bool {
        self.max_iterations.is_some_and(|m| iterations as u64 > m)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Outcome of a [`must_fixpoint`] run: the per-block in-states plus the
/// solver's own accounting, so callers can distinguish a genuine fixpoint
/// from the defensive budget fallback instead of silently consuming `top`
/// states.
#[derive(Debug, Clone)]
pub struct FixpointResult<S> {
    /// Per-block *in*-states (blocks unreachable from the entry absent).
    pub in_states: BTreeMap<u32, S>,
    /// `true` when the iteration budget ran out and every state was
    /// widened to `top`. The result is still *sound* (top is the
    /// conservative state) but maximally imprecise — callers should
    /// surface this instead of silently proceeding.
    pub widened: bool,
    /// Worklist pops performed (= block transfers executed).
    pub iterations: usize,
    /// Successor joins that reported a state change.
    pub joins_changed: usize,
}

impl<S> FixpointResult<S> {
    /// The in-states, discarding the accounting — for callers that have
    /// already recorded `widened`.
    pub fn into_states(self) -> BTreeMap<u32, S> {
        self.in_states
    }
}

/// Computes the per-block *in*-states of a forward MUST-style analysis.
///
/// * `top` — the *conservative* state (nothing guaranteed / anything
///   possible), used for the defensive budget-cap fallback;
/// * `entry` — the in-state of the function's entry block. Intraprocedural
///   analyses pass `top()` here; the interprocedural multi-level analysis
///   passes the join of the caller states at every call site (or the
///   cold-boot state for the program entry);
/// * `join_into` — the in-place control-flow merge (in MUST domains:
///   intersection; in product MUST×MAY domains: per-component), returning
///   whether the left state changed;
/// * `transfer` — applies one block's effect to a state;
/// * `budget_factor` — iterations allowed per block before the solver
///   gives up and returns `top` everywhere (a defensive cap; real inputs
///   converge in a handful of passes per block). Exhausting the budget is
///   *not* silent: the result's `widened` flag is set and a
///   `fixpoint_budget_exhausted` counter is emitted;
/// * `budget` — caller-imposed [`FixpointBudget`] (iteration cap and/or
///   wall-clock deadline) layered on top of the structural cap; exhausting
///   it widens identically, so a deadline produces a degraded-but-sound
///   bound rather than an overrun.
///
/// Blocks unreachable from the entry receive no in-state (callers fall
/// back to `top` for them), exactly like the previous solver.
///
/// ```
/// use spmlab_wcet::fixpoint::{must_fixpoint, FixpointBudget};
/// # use spmlab_wcet::cfg::{BasicBlock, FuncCfg};
/// # use std::collections::BTreeMap;
/// # let block = |start: u32, succs: Vec<u32>| BasicBlock {
/// #     start, insns: vec![], succs, calls: vec![], is_exit: false,
/// # };
/// // A two-block function; the domain is "set of block ids definitely
/// // traversed", join = intersection — a toy MUST analysis.
/// let cfg = FuncCfg {
///     name: "f".into(),
///     entry: 0,
///     blocks: BTreeMap::from([(0, block(0, vec![2])), (2, block(2, vec![]))]),
/// };
/// use std::collections::BTreeSet;
/// let result = must_fixpoint(
///     &cfg,
///     BTreeSet::new,                         // conservative fallback
///     BTreeSet::from([99u32]),               // interprocedural entry fact
///     |a: &mut BTreeSet<u32>, b: &BTreeSet<u32>| {
///         let n = a.len();
///         a.retain(|x| b.contains(x));
///         a.len() != n
///     },
///     |s, b| { s.insert(b.start); },
///     64,
///     FixpointBudget::UNLIMITED,
/// );
/// assert!(!result.widened, "a two-block chain converges well within budget");
/// let states = result.in_states;
/// assert!(states[&0].contains(&99), "the entry fact reaches the entry block");
/// assert!(states[&2].contains(&99) && states[&2].contains(&0));
/// ```
pub fn must_fixpoint<S, T, J, F>(
    cfg: &FuncCfg,
    top: T,
    entry: S,
    join_into: J,
    mut transfer: F,
    budget_factor: usize,
    budget: FixpointBudget,
) -> FixpointResult<S>
where
    S: Clone,
    T: Fn() -> S,
    J: Fn(&mut S, &S) -> bool,
    F: FnMut(&mut S, &BasicBlock),
{
    let rpo = crate::loops::reverse_postorder(cfg);
    let index: BTreeMap<u32, usize> = rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let mut in_states: BTreeMap<u32, S> = BTreeMap::new();
    in_states.insert(cfg.entry, entry);
    let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(rpo.len());
    let mut queued = vec![false; rpo.len()];
    heap.push(Reverse(0));
    queued[0] = true;
    let mut iterations = 0usize;
    let mut joins_changed = 0usize;
    let mut widened = false;
    let structural_budget = budget_factor * cfg.blocks.len().max(1);
    while let Some(Reverse(i)) = heap.pop() {
        queued[i] = false;
        iterations += 1;
        if iterations > structural_budget.max(4096) || budget.exhausted(iterations) {
            // Defensive cap or caller budget: fall back to the safe top
            // state everywhere.
            for (_, s) in in_states.iter_mut() {
                *s = top();
            }
            widened = true;
            break;
        }
        let b = rpo[i];
        let block = &cfg.blocks[&b];
        let mut out = in_states[&b].clone();
        transfer(&mut out, block);
        for &succ in &block.succs {
            let changed = match in_states.get_mut(&succ) {
                Some(s) => join_into(s, &out),
                None => {
                    in_states.insert(succ, out.clone());
                    true
                }
            };
            if changed {
                joins_changed += 1;
                let si = index[&succ];
                if !queued[si] {
                    queued[si] = true;
                    heap.push(Reverse(si));
                }
            }
        }
    }
    if spmlab_obs::enabled() {
        spmlab_obs::counter("fixpoint_runs", 1);
        spmlab_obs::counter("fixpoint_iterations", iterations as u64);
        spmlab_obs::counter("fixpoint_joins_changed", joins_changed as u64);
        if widened {
            spmlab_obs::counter("fixpoint_budget_exhausted", 1);
        }
    }
    FixpointResult {
        in_states,
        widened,
        iterations,
        joins_changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    fn block(start: u32, succs: Vec<u32>, is_exit: bool) -> BasicBlock {
        BasicBlock {
            start,
            insns: vec![],
            succs,
            calls: vec![],
            is_exit,
        }
    }

    /// A hand-built CFG from `(start, succs)` pairs; entry is the first.
    fn cfg_of(edges: &[(u32, &[u32])]) -> FuncCfg {
        let blocks = edges
            .iter()
            .map(|&(s, succs)| (s, block(s, succs.to_vec(), succs.is_empty())))
            .collect();
        FuncCfg {
            name: "synthetic".into(),
            entry: edges[0].0,
            blocks,
        }
    }

    /// The satellite regression test for the RPO worklist: on a diamond
    /// (entry → then/else → join → exit) the solver must run each block's
    /// transfer exactly once — the old LIFO order re-transferred the join
    /// block after the second arm arrived.
    #[test]
    fn diamond_converges_in_one_pass_per_block() {
        let cfg = cfg_of(&[
            (0, &[2, 4][..]),
            (2, &[6][..]),
            (4, &[6][..]),
            (6, &[8][..]),
            (8, &[][..]),
        ]);
        let transfers = Cell::new(0usize);
        // Set-union-free MUST-ish domain: a set of "guaranteed" markers,
        // join = intersection, transfer inserts the block id.
        let result = must_fixpoint(
            &cfg,
            BTreeSet::<u32>::new,
            BTreeSet::new(),
            |a: &mut BTreeSet<u32>, b: &BTreeSet<u32>| {
                let before = a.len();
                a.retain(|x| b.contains(x));
                a.len() != before
            },
            |s, block| {
                transfers.set(transfers.get() + 1);
                s.insert(block.start);
            },
            64,
            FixpointBudget::UNLIMITED,
        );
        assert_eq!(
            transfers.get(),
            cfg.blocks.len(),
            "diamond must converge in exactly one transfer per block"
        );
        assert!(!result.widened);
        assert_eq!(result.iterations, cfg.blocks.len());
        // The join block's in-state is the intersection of both arms: only
        // the entry marker survives.
        assert_eq!(result.in_states[&6], BTreeSet::from([0]));
    }

    /// A loop converges and the back-edge join weakens the header in-state.
    #[test]
    fn loop_reaches_fixpoint() {
        // entry → header → body → header; header → exit.
        let cfg = cfg_of(&[(0, &[2][..]), (2, &[4, 6][..]), (4, &[2][..]), (6, &[][..])]);
        let result = must_fixpoint(
            &cfg,
            BTreeSet::<u32>::new,
            BTreeSet::new(),
            |a: &mut BTreeSet<u32>, b: &BTreeSet<u32>| {
                let before = a.len();
                a.retain(|x| b.contains(x));
                a.len() != before
            },
            |s, block| {
                s.insert(block.start);
            },
            64,
            FixpointBudget::UNLIMITED,
        );
        // The header is entered from 0 (giving {0}) and from 4 (giving
        // {0, 2, 4}); the intersection keeps only {0}.
        assert!(!result.widened);
        assert!(result.joins_changed > 0);
        assert_eq!(result.in_states[&2], BTreeSet::from([0]));
        assert_eq!(result.in_states[&6], BTreeSet::from([0, 2]));
    }

    /// Unreachable blocks get no in-state (callers substitute top).
    #[test]
    fn unreachable_blocks_left_out() {
        let mut cfg = cfg_of(&[(0, &[2][..]), (2, &[][..])]);
        cfg.blocks.insert(100, block(100, vec![2], false));
        let states = must_fixpoint::<BTreeSet<u32>, _, _, _>(
            &cfg,
            BTreeSet::<u32>::new,
            BTreeSet::new(),
            |a: &mut BTreeSet<u32>, b: &BTreeSet<u32>| {
                let before = a.len();
                a.retain(|x| b.contains(x));
                a.len() != before
            },
            |s, block| {
                s.insert(block.start);
            },
            64,
            FixpointBudget::UNLIMITED,
        )
        .into_states();
        assert!(states.contains_key(&0) && states.contains_key(&2));
        assert!(!states.contains_key(&100));
    }

    /// The defensive cap falls back to top everywhere (a domain whose join
    /// always reports change never converges) — and the bail-out is no
    /// longer silent: the result reports `widened` and the
    /// `fixpoint_budget_exhausted` counter fires.
    #[test]
    fn budget_cap_falls_back_to_top_and_reports_widening() {
        let _x = spmlab_obs::exclusive();
        let sink = std::sync::Arc::new(spmlab_obs::collector::MemorySink::default());
        let guard = spmlab_obs::add_sink(sink.clone());
        let cfg = cfg_of(&[(0, &[2][..]), (2, &[0][..])]);
        let result = must_fixpoint(
            &cfg,
            || 0u64,
            0u64,
            |a: &mut u64, b: &u64| {
                *a = a.wrapping_add(*b).wrapping_add(1);
                true // Claims to change forever.
            },
            |s, _| *s += 1,
            1,
            FixpointBudget::UNLIMITED,
        );
        drop(guard);
        assert!(result.widened, "exhausting the budget must be observable");
        assert!(result.iterations > 4096, "the cap is the 4096 floor here");
        for (_, v) in result.in_states {
            assert_eq!(v, 0, "cap must reset every state to top");
        }
        assert_eq!(
            sink.counter_total("fixpoint_budget_exhausted"),
            1,
            "bail-out must emit the exhaustion counter"
        );
        assert_eq!(sink.counter_total("fixpoint_runs"), 1);
    }

    /// A caller-imposed iteration cap widens long before the structural
    /// 4096 floor — an explicit cap has no floor by design.
    #[test]
    fn caller_iteration_cap_widens_without_floor() {
        // Exhaustion emits `fixpoint_budget_exhausted`: hold the sink lock
        // so a concurrently counting test cannot see it.
        let _x = spmlab_obs::exclusive();
        let cfg = cfg_of(&[(0, &[2][..]), (2, &[0][..])]);
        let result = must_fixpoint(
            &cfg,
            || 0u64,
            0u64,
            |a: &mut u64, b: &u64| {
                *a = a.wrapping_add(*b).wrapping_add(1);
                true // Claims to change forever.
            },
            |s, _| *s += 1,
            64,
            FixpointBudget {
                max_iterations: Some(3),
                deadline: None,
            },
        );
        assert!(result.widened, "explicit cap must trigger widening");
        assert_eq!(result.iterations, 4, "cap of 3 stops on the 4th pop");
        for (_, v) in result.in_states {
            assert_eq!(v, 0, "cap must reset every state to top");
        }
    }

    /// An already-expired deadline widens on the first pop; the result is
    /// top everywhere, i.e. degraded but sound.
    #[test]
    fn expired_deadline_widens_immediately() {
        // Exhaustion emits `fixpoint_budget_exhausted`: hold the sink lock
        // so a concurrently counting test cannot see it.
        let _x = spmlab_obs::exclusive();
        let cfg = cfg_of(&[(0, &[2][..]), (2, &[][..])]);
        let result = must_fixpoint(
            &cfg,
            BTreeSet::<u32>::new,
            BTreeSet::from([7u32]),
            |a: &mut BTreeSet<u32>, b: &BTreeSet<u32>| {
                let before = a.len();
                a.retain(|x| b.contains(x));
                a.len() != before
            },
            |s, block| {
                s.insert(block.start);
            },
            64,
            FixpointBudget {
                max_iterations: None,
                deadline: Some(Instant::now()),
            },
        );
        assert!(result.widened);
        assert_eq!(result.iterations, 1);
        for (_, v) in result.in_states {
            assert!(v.is_empty(), "deadline must reset every state to top");
        }
    }

    /// A converging run reports `widened == false` and no exhaustion
    /// counter.
    #[test]
    fn converging_run_is_not_widened() {
        let _x = spmlab_obs::exclusive();
        let sink = std::sync::Arc::new(spmlab_obs::collector::MemorySink::default());
        let guard = spmlab_obs::add_sink(sink.clone());
        let cfg = cfg_of(&[(0, &[2][..]), (2, &[][..])]);
        let result = must_fixpoint(
            &cfg,
            BTreeSet::<u32>::new,
            BTreeSet::new(),
            |a: &mut BTreeSet<u32>, b: &BTreeSet<u32>| {
                let before = a.len();
                a.retain(|x| b.contains(x));
                a.len() != before
            },
            |s, block| {
                s.insert(block.start);
            },
            64,
            FixpointBudget::UNLIMITED,
        );
        drop(guard);
        assert!(!result.widened);
        assert_eq!(sink.counter_total("fixpoint_budget_exhausted"), 0);
        assert_eq!(
            sink.counter_total("fixpoint_iterations"),
            result.iterations as u64
        );
    }
}
