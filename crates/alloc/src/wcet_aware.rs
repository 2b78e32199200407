//! WCET-aware allocation — the paper's closing future-work item:
//! "the allocation technique will be extended … to consider placing those
//! objects onto the faster memory that lie on the critical path", so the
//! objective is the WCET bound itself rather than profiled energy.
//!
//! The allocator is a greedy best-improvement-per-byte loop: each round it
//! trials every remaining candidate added to the current assignment, takes
//! each trial's static WCET bound, and commits the object with the best
//! WCET reduction per scratchpad byte. This needs no profile at all —
//! everything comes from the analyzer, keeping the method fully static
//! like the paper's vision.
//!
//! Trials go through a [`TrialMemo`], which keeps integers and one
//! analysis preparation: per assignment, where its scratchpad layout ends
//! ([`spmlab_cc::spm_end`]), per (assignment, objective), the bound, and
//! the [`Prepared`] program of the first link it analyses. The linker
//! places scratchpad objects from the bottom of the scratchpad and never
//! moves back, so a trial fits a capacity exactly when its layout ends
//! within it, and every capacity it fits links it to the same image up to
//! the map's `spm_size`. Its bound therefore does not depend on the
//! capacity, and only the first trial of an (assignment, objective) pair
//! links and analyses. Every link of one module has the same code up to
//! where each function lands, so a trial does not rebuild CFGs and loops:
//! it [relocates](Prepared::relocate) the kept preparation to its link.
//! A greedy may name *twins*, objectives that differ from its own only in
//! main-memory timing: classification reads no timing
//! ([`WcetConfig::classification_key`]), so a trial classifies once and
//! is costed under its objective and under every twin still without a
//! bound for it, and the twins' greedies find those trials paid for.
//! The public functions use a fresh memo per call; `spmlab_core`'s
//! pipeline keeps one for all the greedies it runs, so the greedies for
//! several capacities and objectives pay for their shared trials once.
//!
//! The objective is pluggable: [`allocate`] optimises the flat Table-1
//! region-timing bound (the seed behaviour), while [`allocate_with`] takes
//! an arbitrary [`WcetConfig`] — in particular
//! `WcetConfig::with_hierarchy`, so placement optimises the *multi-level
//! critical path*: an object whose accesses would mostly hit in the L1
//! anyway is no longer worth scratchpad bytes, while one whose accesses
//! the analysis cannot classify (and must charge the full L2-miss penalty
//! for) is. [`allocate_hierarchy_aware`] additionally evaluates the
//! region-timing greedy result under the real objective and keeps
//! whichever assignment bounds lower, so it can never lose to the seed
//! allocator on the metric that matters.

use spmlab_cc::{link, spm_end, CcError, ObjModule, SpmAssignment};
use spmlab_isa::annot::AnnotationSet;
use spmlab_isa::mem::MemoryMap;
use spmlab_wcet::{classify, cost, prepare, IpetModels, Prepared, WcetConfig, WcetError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Outcome of the WCET-driven allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetAllocation {
    /// Chosen assignment.
    pub assignment: SpmAssignment,
    /// WCET bound with nothing in the scratchpad.
    pub baseline_wcet: u64,
    /// WCET bound with the final assignment.
    pub final_wcet: u64,
    /// Objects committed, in selection order, with the bound after each.
    pub steps: Vec<(String, u64)>,
}

/// Errors from the WCET-aware allocator.
#[derive(Debug)]
pub enum WcetAllocError {
    /// Linking a candidate assignment failed.
    Link(CcError),
    /// The WCET analysis failed.
    Wcet(WcetError),
}

impl std::fmt::Display for WcetAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WcetAllocError::Link(e) => write!(f, "link: {e}"),
            WcetAllocError::Wcet(e) => write!(f, "wcet: {e}"),
        }
    }
}

impl std::error::Error for WcetAllocError {}

/// Greedily allocates objects to minimise the flat region-timing WCET
/// bound (the seed objective).
///
/// `extra_annotations` carries user loop bounds that the linker-generated
/// set does not already contain.
///
/// # Errors
///
/// Fails when the baseline program cannot be linked or analysed (a
/// candidate that overflows the scratchpad is simply skipped).
pub fn allocate(
    module: &ObjModule,
    capacity: u32,
    extra_annotations: &AnnotationSet,
) -> Result<WcetAllocation, WcetAllocError> {
    allocate_with(
        module,
        capacity,
        extra_annotations,
        &WcetConfig::region_timing(),
    )
}

/// Greedily allocates objects to minimise the WCET bound under an
/// arbitrary analyzer configuration — pass `WcetConfig::with_hierarchy`
/// to optimise placement against the multi-level critical path.
/// This is [`TrialMemo::allocate_with`] with a fresh memo.
///
/// # Errors
///
/// Fails when the baseline program cannot be linked or analysed (a
/// candidate that overflows the scratchpad is simply skipped).
pub fn allocate_with(
    module: &ObjModule,
    capacity: u32,
    extra_annotations: &AnnotationSet,
    config: &WcetConfig,
) -> Result<WcetAllocation, WcetAllocError> {
    TrialMemo::new().allocate_with(module, capacity, extra_annotations, config)
}

/// Hierarchy-aware allocation that can never lose to the seed allocator:
/// runs the greedy loop under `config` (normally a multi-level hierarchy
/// objective) *and* re-scores the region-timing greedy assignment under
/// the same objective, returning whichever assignment yields the lower
/// bound. Greedy search under a different objective is not monotone in
/// general; the portfolio step turns "usually better" into "never worse".
///
/// `region_assignment` is the region-timing greedy result when the caller
/// already has it (the pipeline memoises it per capacity); pass `None` to
/// let this function derive it.
///
/// This is [`TrialMemo::allocate_hierarchy_aware`] with a fresh memo: both
/// greedies and the re-scoring trial through it, a trial fits when its
/// scratchpad layout ends within `capacity`, and each (assignment,
/// objective) pair is linked and analysed once within the call.
///
/// # Errors
///
/// Fails when the baseline program cannot be linked or analysed.
pub fn allocate_hierarchy_aware(
    module: &ObjModule,
    capacity: u32,
    extra_annotations: &AnnotationSet,
    config: &WcetConfig,
    region_assignment: Option<&SpmAssignment>,
) -> Result<WcetAllocation, WcetAllocError> {
    TrialMemo::new().allocate_hierarchy_aware(
        module,
        capacity,
        extra_annotations,
        config,
        &[],
        region_assignment,
    )
}

/// Allocation trials already paid for: per assignment, where its
/// scratchpad layout ends, and per (assignment, objective), its WCET
/// bound. Beside these integers it keeps one analysis preparation, the
/// [`Prepared`] program of the first link it analysed, and every later
/// trial [relocates](Prepared::relocate) it to its own link instead of
/// preparing afresh; a failed preparation is not kept.
///
/// A trial that misses under objective `o` links, relocates and
/// classifies once, then costs under `o` and under each twin the greedy
/// names that has `o`'s [classification
/// key](WcetConfig::classification_key) and no bound yet for the
/// assignment (at its has-a-scratchpad), recording each bound; only the
/// miss under `o` counts as one. No classification is kept: the bounds
/// stay integers.
///
/// A trial at capacity `c` fits exactly when its layout ends at or below
/// `c` (see [`spmlab_cc::spm_end`]); one that does not fit fails with the
/// linker's own error, as it would without the memo. A fitting trial links
/// to the same image at every capacity it fits, up to the map's
/// `spm_size`, so its bound is shared by all of them. The key also records
/// whether the map has a scratchpad at all (capacity 0 has none), so the
/// no-scratchpad baseline keeps its own entry.
///
/// A memo belongs to one module and one set of extra annotations: every
/// call on it must pass the same two. It is safe to share between threads;
/// it is locked only to look up and to record, never while a trial runs.
/// Debug builds re-run every trial the memo answers, relocating and
/// classifying afresh under the trial's own objective, and assert the
/// bound, so a bound costed for a twin is checked when the twin uses it.
///
/// Every trial it runs solves IPET on its [`IpetModels`] store, so the
/// trials of all assignments and objectives build each function shape's
/// model once.
#[derive(Debug, Default)]
pub struct TrialMemo {
    state: Mutex<MemoState>,
    ipet: Arc<IpetModels>,
    /// The preparation every trial after the first relocates.
    source: OnceLock<Prepared>,
}

#[derive(Debug, Default)]
struct MemoState {
    /// Per assignment seen: its index and where its scratchpad layout ends.
    assignments: HashMap<SpmAssignment, (usize, u64)>,
    /// The objectives seen; a bound's key holds the index.
    objectives: Vec<WcetConfig>,
    /// Bound per (assignment, objective, the map has a scratchpad).
    bounds: HashMap<(usize, usize, bool), u64>,
    /// Trials answered from `bounds` since the last `take_counts`.
    hits: u64,
    /// Trials linked and analysed since the last `take_counts`.
    misses: u64,
}

impl TrialMemo {
    /// An empty memo with a fresh [`IpetModels`] store.
    pub fn new() -> TrialMemo {
        TrialMemo::default()
    }

    /// An empty memo whose trials solve IPET on `ipet`, a store shared
    /// with the caller's other analyses.
    pub fn with_ipet_models(ipet: Arc<IpetModels>) -> TrialMemo {
        TrialMemo {
            state: Mutex::default(),
            ipet,
            source: OnceLock::new(),
        }
    }

    fn state(&self) -> MutexGuard<'_, MemoState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether `assignment` fits a scratchpad of `capacity` bytes — the
    /// memo's fit rule, which rejects exactly the assignments [`link()`]
    /// rejects for lack of scratchpad space.
    pub fn fits(&self, module: &ObjModule, assignment: &SpmAssignment, capacity: u32) -> bool {
        self.state().assignment(module, assignment).1 <= u64::from(capacity)
    }

    /// Returns the numbers of trials answered from the memo (hits) and of
    /// trials linked and analysed into it (misses) since the last call,
    /// and resets both.
    pub fn take_counts(&self) -> (u64, u64) {
        let mut s = self.state();
        (std::mem::take(&mut s.hits), std::mem::take(&mut s.misses))
    }

    /// The greedy of [`allocate_with`], trialling through this memo.
    ///
    /// # Errors
    ///
    /// Fails when the baseline program cannot be linked or analysed (a
    /// candidate that overflows the scratchpad is simply skipped).
    pub fn allocate_with(
        &self,
        module: &ObjModule,
        capacity: u32,
        extra_annotations: &AnnotationSet,
        config: &WcetConfig,
    ) -> Result<WcetAllocation, WcetAllocError> {
        self.trials(module, extra_annotations, config, &[])
            .greedy(capacity)
    }

    /// The portfolio of [`allocate_hierarchy_aware`], trialling both
    /// greedies and the re-scoring through this memo. The trials under
    /// `config` also cost for `twins`, the objectives whose greedies are
    /// expected to trial the same assignments (see [`TrialMemo`]); twins
    /// that do not classify as `config` does are ignored.
    ///
    /// # Errors
    ///
    /// Fails when the baseline program cannot be linked or analysed.
    pub fn allocate_hierarchy_aware(
        &self,
        module: &ObjModule,
        capacity: u32,
        extra_annotations: &AnnotationSet,
        config: &WcetConfig,
        twins: &[WcetConfig],
        region_assignment: Option<&SpmAssignment>,
    ) -> Result<WcetAllocation, WcetAllocError> {
        let trials = self.trials(module, extra_annotations, config, twins);
        let aware = trials.greedy(capacity)?;
        let region = match region_assignment {
            Some(a) => a.clone(),
            None => {
                self.allocate_with(
                    module,
                    capacity,
                    extra_annotations,
                    &WcetConfig::region_timing(),
                )?
                .assignment
            }
        };
        if region == aware.assignment {
            return Ok(aware);
        }
        let region_under_config = trials.wcet(capacity, &region)?;
        if region_under_config < aware.final_wcet {
            Ok(WcetAllocation {
                assignment: region,
                baseline_wcet: aware.baseline_wcet,
                final_wcet: region_under_config,
                steps: Vec::new(), // Not produced by the greedy path under `config`.
            })
        } else {
            Ok(aware)
        }
    }

    /// The bounds of `assignment` linked for `map` under `config` and
    /// under each of `twins`, which classify as `config` does: linked,
    /// analysed from a relocation of the kept preparation (or from a fresh
    /// one that is then kept) and classified once, then costed per
    /// configuration. A twin whose costing fails gets no bound.
    fn wcet_of(
        &self,
        module: &ObjModule,
        map: &MemoryMap,
        assignment: &SpmAssignment,
        extra_annotations: &AnnotationSet,
        config: &WcetConfig,
        twins: &[&WcetConfig],
    ) -> Result<(u64, Vec<Option<u64>>), WcetAllocError> {
        let linked = link(module, map, assignment).map_err(WcetAllocError::Link)?;
        let exe = &linked.exe;
        let mut ann = linked.annotations;
        ann.merge_from(extra_annotations);
        let prepared = match self.source.get() {
            Some(source) => source.relocate(exe, &ann),
            None => prepare(exe, &ann),
        }
        .map_err(WcetAllocError::Wcet)?;
        let classified = classify(&prepared, exe, config);
        let bound = |c: &WcetConfig| {
            cost(&prepared, exe, c, &classified, &self.ipet).map(|r| r.wcet_cycles)
        };
        let res = bound(config);
        let twins = twins.iter().map(|t| bound(t).ok()).collect();
        // Keeps the first preparation; a relocated one is dropped.
        let _ = self.source.set(prepared);
        Ok((res.map_err(WcetAllocError::Wcet)?, twins))
    }

    /// Trials of `module` under `config`, with the indices of the
    /// objective and of its twins, those with `config`'s classification
    /// key, resolved once.
    fn trials<'a>(
        &'a self,
        module: &'a ObjModule,
        extra_annotations: &'a AnnotationSet,
        config: &'a WcetConfig,
        twins: &'a [WcetConfig],
    ) -> Trials<'a> {
        let mut s = self.state();
        let key = config.classification_key();
        let objective = s.objective(config);
        let costed_with = twins
            .iter()
            .filter(|&twin| twin != config && twin.classification_key() == key)
            .map(|twin| (s.objective(twin), twin))
            .collect();
        Trials {
            memo: self,
            module,
            extra_annotations,
            config,
            objective,
            twins: costed_with,
        }
    }
}

impl MemoState {
    /// The index of objective `config`, recorded on first sight.
    fn objective(&mut self, config: &WcetConfig) -> usize {
        match self.objectives.iter().position(|c| c == config) {
            Some(i) => i,
            None => {
                self.objectives.push(config.clone());
                self.objectives.len() - 1
            }
        }
    }

    /// The index of `assignment` and where its scratchpad layout ends,
    /// recorded on first sight.
    fn assignment(&mut self, module: &ObjModule, assignment: &SpmAssignment) -> (usize, u64) {
        if let Some(&entry) = self.assignments.get(assignment) {
            return entry;
        }
        let entry = (self.assignments.len(), spm_end(module, assignment));
        self.assignments.insert(assignment.clone(), entry);
        entry
    }
}

/// One greedy's view of a [`TrialMemo`]: its module, annotations,
/// objective and the twins its misses also cost for, by index.
struct Trials<'a> {
    memo: &'a TrialMemo,
    module: &'a ObjModule,
    extra_annotations: &'a AnnotationSet,
    config: &'a WcetConfig,
    objective: usize,
    twins: Vec<(usize, &'a WcetConfig)>,
}

impl Trials<'_> {
    /// The greedy of [`allocate_with`] over these trials.
    fn greedy(&self, capacity: u32) -> Result<WcetAllocation, WcetAllocError> {
        let baseline_wcet = self.wcet(0, &SpmAssignment::none())?;

        let mut assignment = SpmAssignment::none();
        let mut current = self.wcet(capacity, &assignment)?;
        let mut remaining: Vec<(String, u32)> = self.module.memory_objects();
        let mut used = 0u32;
        let mut steps = Vec::new();

        loop {
            let mut best: Option<(usize, u64, f64)> = None;
            for (i, (name, size)) in remaining.iter().enumerate() {
                let aligned = (size.max(&1) + 3) & !3;
                if used + aligned > capacity {
                    continue;
                }
                let mut trial = assignment.clone();
                trial.insert(name.clone());
                let w = match self.wcet(capacity, &trial) {
                    Ok(w) => w,
                    Err(WcetAllocError::Link(_)) => continue, // Doesn't fit with padding.
                    Err(e) => return Err(e),
                };
                if w < current {
                    let gain_per_byte = (current - w) as f64 / aligned as f64;
                    if best.is_none_or(|(_, _, g)| gain_per_byte > g) {
                        best = Some((i, w, gain_per_byte));
                    }
                }
            }
            let Some((i, w, _)) = best else { break };
            let (name, size) = remaining.remove(i);
            used += (size.max(1) + 3) & !3;
            assignment.insert(name.clone());
            current = w;
            steps.push((name, w));
        }

        Ok(WcetAllocation {
            assignment,
            baseline_wcet,
            final_wcet: current,
            steps,
        })
    }

    /// The bound of `assignment` linked for a `capacity`-byte scratchpad
    /// (capacity 0: no scratchpad).
    fn wcet(&self, capacity: u32, assignment: &SpmAssignment) -> Result<u64, WcetAllocError> {
        let analysed = |twins: &[&WcetConfig]| {
            self.memo.wcet_of(
                self.module,
                &MemoryMap::with_spm(capacity),
                assignment,
                self.extra_annotations,
                self.config,
                twins,
            )
        };
        let fresh = || analysed(&[]).map(|(w, _)| w);
        let (key, pending) = {
            let mut s = self.memo.state();
            let (id, end) = s.assignment(self.module, assignment);
            if end > u64::from(capacity) {
                drop(s);
                // The linker reports the overflow, as without the memo.
                let res = fresh();
                debug_assert!(
                    matches!(res, Err(WcetAllocError::Link(_))),
                    "{assignment:?} ends at {end} but linked for {capacity} bytes"
                );
                return res;
            }
            let key = (id, self.objective, capacity > 0);
            if let Some(&w) = s.bounds.get(&key) {
                s.hits += 1;
                drop(s);
                debug_assert_eq!(
                    fresh().ok(),
                    Some(w),
                    "memoised bound of {assignment:?} at capacity {capacity}"
                );
                return Ok(w);
            }
            let pending: Vec<(usize, &WcetConfig)> = self
                .twins
                .iter()
                .copied()
                .filter(|&(t, _)| !s.bounds.contains_key(&(id, t, key.2)))
                .collect();
            (key, pending)
        };
        let configs: Vec<&WcetConfig> = pending.iter().map(|&(_, c)| c).collect();
        let (w, twins) = analysed(&configs)?;
        let mut s = self.memo.state();
        s.misses += 1;
        s.bounds.insert(key, w);
        for (&(t, _), tw) in pending.iter().zip(twins) {
            if let Some(tw) = tw {
                s.bounds.insert((key.0, t, key.2), tw);
            }
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_cc::compile;

    /// The bound of `assignment` at `capacity`, linked and analysed
    /// afresh.
    fn analysed(
        module: &ObjModule,
        capacity: u32,
        assignment: &SpmAssignment,
        cfg: &WcetConfig,
    ) -> u64 {
        let l = link(module, &MemoryMap::with_spm(capacity), assignment).unwrap();
        spmlab_wcet::analyze(&l.exe, cfg, &l.annotations)
            .unwrap()
            .wcet_cycles
    }

    const SRC: &str = "
        int buf[16]; int out;
        int work() {
            int i; int acc;
            acc = 0;
            for (i = 0; i < 16; i = i + 1) { __loopbound(16); acc = acc + buf[i]; }
            return acc;
        }
        void main() { out = work(); }";

    #[test]
    fn wcet_aware_allocation_reduces_bound() {
        let module = compile(SRC).unwrap();
        let res = allocate(&module, 512, &AnnotationSet::new()).unwrap();
        assert!(
            res.final_wcet < res.baseline_wcet,
            "final {} < baseline {}",
            res.final_wcet,
            res.baseline_wcet
        );
        assert!(!res.steps.is_empty());
        // The hot loop's data and code should be selected.
        assert!(res.assignment.contains("work") || res.assignment.contains("buf"));
        // Bounds along the greedy path are monotonically decreasing.
        let mut prev = u64::MAX;
        for (_, w) in &res.steps {
            assert!(*w < prev);
            prev = *w;
        }
    }

    #[test]
    fn zero_capacity_changes_nothing() {
        let module = compile(SRC).unwrap();
        let res = allocate(&module, 0, &AnnotationSet::new()).unwrap();
        assert!(res.assignment.is_empty());
        assert_eq!(res.final_wcet, res.baseline_wcet);
    }

    #[test]
    fn shared_memo_reuses_trials_across_capacities() {
        let module = compile(SRC).unwrap();
        let annot = AnnotationSet::new();
        let region = WcetConfig::region_timing();
        let memo = TrialMemo::new();
        for capacity in [0u32, 64, 128, 512] {
            let shared = memo
                .allocate_with(&module, capacity, &annot, &region)
                .unwrap();
            assert_eq!(shared, allocate(&module, capacity, &annot).unwrap());
        }
        let (hits, misses) = memo.take_counts();
        assert!(hits > 0, "the baseline and empty-assignment trials repeat");
        assert!(misses > 0);
        assert_eq!(memo.take_counts(), (0, 0), "counts reset on take");
        // The fit rule is the linker's.
        for capacity in [0u32, 4, 64, 512] {
            for (name, _) in module.memory_objects() {
                let a = SpmAssignment::of([name]);
                let links = link(&module, &MemoryMap::with_spm(capacity), &a).is_ok();
                assert_eq!(
                    memo.fits(&module, &a, capacity),
                    links,
                    "{a:?} at {capacity}"
                );
            }
        }
    }

    #[test]
    fn hierarchy_aware_allocation_never_loses_to_region_greedy() {
        use spmlab_isa::cachecfg::CacheConfig;
        use spmlab_isa::hierarchy::MemHierarchyConfig;
        let module = compile(SRC).unwrap();
        let annot = AnnotationSet::new();
        for hierarchy in [
            MemHierarchyConfig::l1_only(CacheConfig::instr_only(64)),
            MemHierarchyConfig::split_l1(64, 64).with_l2(CacheConfig::l2(256)),
        ] {
            let cfg = WcetConfig::with_hierarchy(hierarchy);
            for capacity in [64u32, 128, 512] {
                let aware =
                    allocate_hierarchy_aware(&module, capacity, &annot, &cfg, None).unwrap();
                let region = allocate(&module, capacity, &annot).unwrap();
                let region_scored = analysed(&module, capacity, &region.assignment, &cfg);
                assert!(
                    aware.final_wcet <= region_scored,
                    "capacity {capacity}: hierarchy-aware {} must not exceed \
                     region-greedy-under-hierarchy {region_scored}",
                    aware.final_wcet
                );
                // The reported bound matches a fresh scoring of the chosen
                // assignment (no stale objective mixing).
                let rescore = analysed(&module, capacity, &aware.assignment, &cfg);
                assert_eq!(aware.final_wcet, rescore);
            }
        }
    }
}
