//! The worklist solver behind `multilevel::must_fixpoint`: a generic
//! MUST-style forward fixpoint over one function CFG, with a structural
//! cap on the number of block transfers.
//!
//! The solver visits blocks in **reverse postorder** through a priority
//! worklist (a min-heap over RPO indices with a membership guard per
//! block), so forward dataflow reaches a block only after its forward
//! predecessors in the common case — acyclic regions converge in one
//! transfer per block, and loops need one extra pass per nesting level.
//!
//! Change detection is delegated to the domain: `join_into` merges a
//! predecessor's out-state into a successor's in-state *in place* and
//! reports whether anything changed, so the solver never compares or
//! clones whole states to decide convergence.

use crate::cfg::{BasicBlock, FuncCfg};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Outcome of a [`must_fixpoint`] run: the per-block in-states plus the
/// solver's own accounting, so callers can distinguish a genuine fixpoint
/// from the structural-cap fallback instead of silently consuming `top`
/// states.
#[derive(Debug, Clone)]
pub struct FixpointResult<S> {
    /// Per-block *in*-states (blocks unreachable from the entry absent).
    pub in_states: BTreeMap<u32, S>,
    /// `true` when the structural cap was reached and every state was
    /// widened to `top`. The result is still *sound* (top is the
    /// conservative state) but maximally imprecise — callers should
    /// surface this instead of silently proceeding.
    pub widened: bool,
    /// Worklist pops performed (= block transfers executed).
    pub iterations: usize,
    /// Successor joins that reported a state change.
    pub joins_changed: usize,
}

/// Computes the per-block *in*-states of a forward MUST-style analysis.
///
/// * `top` — the *conservative* state (nothing guaranteed / anything
///   possible), used for the structural-cap fallback;
/// * `entry` — the in-state of the function's entry block. Intraprocedural
///   analyses pass `top()` here; the interprocedural multi-level analysis
///   passes the join of the caller states at every call site (or the
///   cold-boot state for the program entry);
/// * `join_into` — the in-place control-flow merge (in MUST domains:
///   intersection; in product MUST×MAY domains: per-component), returning
///   whether the left state changed;
/// * `transfer` — applies one block's effect to a state;
/// * `budget_factor` — the structural cap: block transfers allowed per
///   block (at least 4096 in all) before the solver gives up and returns
///   `top` everywhere. Real inputs converge in a handful of passes per
///   block. Reaching the cap is *not* silent: the result's `widened` flag
///   is set and a `fixpoint_budget_exhausted` counter is emitted.
///
/// Blocks unreachable from the entry receive no in-state (callers fall
/// back to `top` for them).
///
/// ```
/// use spmlab_wcet::fixpoint::must_fixpoint;
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
/// );
/// assert!(!result.widened, "a two-block chain converges well within the cap");
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
        if iterations > structural_budget.max(4096) {
            // Defensive cap: fall back to the safe top state everywhere.
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
    use spmlab_obs::{Sink, SpanMeta};
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    /// Sums the counters emitted on the thread that created it. Other
    /// tests of this binary run analyses concurrently, and their
    /// fixpoints count into every installed sink.
    struct ThreadCounters {
        thread: ThreadId,
        totals: Mutex<BTreeMap<&'static str, u64>>,
    }

    impl ThreadCounters {
        fn new() -> Arc<ThreadCounters> {
            Arc::new(ThreadCounters {
                thread: std::thread::current().id(),
                totals: Mutex::default(),
            })
        }

        fn counter_total(&self, name: &str) -> u64 {
            self.totals.lock().unwrap().get(name).copied().unwrap_or(0)
        }
    }

    impl Sink for ThreadCounters {
        fn span_open(&self, _: &SpanMeta) {}
        fn span_close(&self, _: &SpanMeta, _: u64) {}
        fn counter(&self, name: &'static str, delta: u64, _: u64, _: u64) {
            if std::thread::current().id() == self.thread {
                *self.totals.lock().unwrap().entry(name).or_insert(0) += delta;
            }
        }
        fn progress(&self, _: u64, _: u64, _: &str, _: u64, _: u64) {}
    }

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
        )
        .in_states;
        assert!(states.contains_key(&0) && states.contains_key(&2));
        assert!(!states.contains_key(&100));
    }

    /// The structural cap falls back to top everywhere (a domain whose
    /// join always reports change never converges), and the bail-out is
    /// not silent: the result reports `widened` and the
    /// `fixpoint_budget_exhausted` counter fires.
    #[test]
    fn budget_cap_falls_back_to_top_and_reports_widening() {
        let _x = spmlab_obs::exclusive();
        let sink = ThreadCounters::new();
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
        );
        drop(guard);
        assert!(result.widened, "reaching the cap must be observable");
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

    /// A converging run reports `widened == false` and no exhaustion
    /// counter.
    #[test]
    fn converging_run_is_not_widened() {
        let _x = spmlab_obs::exclusive();
        let sink = ThreadCounters::new();
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
