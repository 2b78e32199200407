//! # spmlab — the paper's experiment pipeline
//!
//! This crate wires the substrates together into the workflow of Figure 1
//! of *Wehmeyer & Marwedel, "Influence of Memory Hierarchies on
//! Predictability for Time Constrained Embedded Software", DATE 2005*:
//!
//! ```text
//!            MiniC benchmark
//!                  │ compile (spmlab-cc)
//!        ┌─────────┴──────────┐
//!  scratchpad branch     cache branch
//!        │                    │
//!  profile → knapsack    link (no SPM)
//!  (spmlab-alloc)             │
//!        │                    │
//!  link w/ assignment         │
//!        │                    │
//!  simulate (spmlab-sim)  simulate w/ cache
//!  WCET region timing     WCET w/ MUST cache analysis (spmlab-wcet)
//!        └─────────┬──────────┘
//!             compare: cycles, WCET, ratio
//! ```
//!
//! [`Pipeline`] caches the compiled module and baseline profile; its one
//! entry point [`Pipeline::run`] takes a declarative
//! [`MemArchSpec`] describing the full memory architecture (scratchpad +
//! cache levels + main-memory timing); [`config`] builds the standard
//! `Vec<MemArchSpec>` axes (the paper's 64 B … 8 KiB capacity sweeps, the
//! hierarchy axis, the SPM×hierarchy allocator axis); [`sweep`] runs any
//! axis through its one entry point, the checkpointable
//! [`sweep::spec_sweep_with_session`], executing a sharing plan decided
//! before anything is measured, into one [`PointOutcome`] per point;
//! [`figures`] packages each table/figure of the evaluation section;
//! [`report`] renders them as text tables.
//!
//! ```no_run
//! use spmlab::pipeline::Pipeline;
//! use spmlab::MemArchSpec;
//! use spmlab_isa::cachecfg::CacheConfig;
//! use spmlab_workloads::G721;
//!
//! let p = Pipeline::new(&G721)?;
//! let spm = p.run(&MemArchSpec::spm(1024))?;
//! let cache = p.run(&MemArchSpec::single_cache(CacheConfig::unified(1024)))?;
//! println!("spm  : sim {} wcet {}", spm.sim_cycles, spm.wcet_cycles);
//! println!("cache: sim {} wcet {}", cache.sim_cycles, cache.wcet_cycles);
//! # Ok::<(), spmlab::CoreError>(())
//! ```

pub mod checkpoint;
pub mod config;
pub mod dse;
pub mod faults;
pub mod figures;
pub mod pipeline;
mod plan;
pub mod report;
pub mod sweep;

pub use checkpoint::{check_checkpoint, CheckpointHeader, CheckpointStats};
pub use config::{
    assoc_axis, cache_axis, figure3_axis, hierarchy_axis, hierarchy_figure_axis,
    hierarchy_spec_axis, hierarchy_spm_axis, hierarchy_spm_machines, icache_axis, persistence_axis,
    spm_axis, write_policy_axis, DRAM_LATENCY, PAPER_SIZES, STORE_BUFFER,
};
pub use dse::{Frontier, FrontierPoint, GridSpec, GridStats, MergedSweep, Shard};
pub use pipeline::{ConfigResult, Pipeline};
pub use spmlab_isa::archspec::{MemArchSpec, SpecError, SpmAllocation, SpmSpec};
pub use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig};
pub use sweep::{FailedPoint, PointOutcome, SpecOutcome, SweepSession};

/// Errors from the experiment pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// Compiler/linker failure.
    Cc(spmlab_cc::CcError),
    /// Simulator failure.
    Sim(spmlab_sim::SimError),
    /// WCET analyzer failure.
    Wcet(spmlab_wcet::WcetError),
    /// An invalid [`MemArchSpec`] was passed to [`Pipeline::run`].
    Spec(SpecError),
    /// The WCET-driven scratchpad allocator failed.
    Alloc(spmlab_alloc::wcet_aware::WcetAllocError),
    /// The benchmark produced a checksum that differs from its host twin —
    /// the toolchain miscompiled or missimulated it.
    ChecksumMismatch {
        benchmark: String,
        expected: i32,
        got: i32,
    },
    /// [`figures::Tightness`] needs a worst-case input the benchmark
    /// does not define (generated benchmarks never do).
    NoWorstInput {
        /// The benchmark without a worst-case input.
        benchmark: String,
    },
    /// The benchmark's reference oracle failed to produce a checksum
    /// (an interpreter oracle hit its step budget or the program has no
    /// `checksum` global).
    Oracle {
        /// The benchmark whose oracle failed.
        benchmark: String,
        /// What went wrong.
        reason: String,
    },
    /// A fault injected by the test-only [`faults`] harness.
    Injected(String),
    /// A checkpoint file could not be written, read, or validated.
    Checkpoint(String),
    /// A sweep point failed where every point was needed (the first
    /// failed point of a figure's axis).
    Point(FailedPoint),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Cc(e) => write!(f, "compile/link: {e}"),
            CoreError::Sim(e) => write!(f, "simulate: {e}"),
            CoreError::Wcet(e) => write!(f, "wcet: {e}"),
            CoreError::Spec(e) => write!(f, "invalid spec: {e}"),
            CoreError::Alloc(e) => write!(f, "allocate: {e}"),
            CoreError::ChecksumMismatch {
                benchmark,
                expected,
                got,
            } => {
                write!(
                    f,
                    "{benchmark}: checksum mismatch (expected {expected}, got {got})"
                )
            }
            CoreError::NoWorstInput { benchmark } => {
                write!(f, "{benchmark}: no worst-case input defined")
            }
            CoreError::Oracle { benchmark, reason } => {
                write!(f, "{benchmark}: reference oracle failed: {reason}")
            }
            CoreError::Injected(m) => write!(f, "injected fault: {m}"),
            CoreError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
            CoreError::Point(fp) => write!(f, "{fp}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Cc(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Wcet(e) => Some(e),
            CoreError::Spec(e) => Some(e),
            CoreError::Alloc(e) => Some(e),
            CoreError::ChecksumMismatch { .. }
            | CoreError::NoWorstInput { .. }
            | CoreError::Oracle { .. }
            | CoreError::Injected(_)
            | CoreError::Checkpoint(_)
            | CoreError::Point(_) => None,
        }
    }
}

impl From<spmlab_alloc::wcet_aware::WcetAllocError> for CoreError {
    fn from(e: spmlab_alloc::wcet_aware::WcetAllocError) -> CoreError {
        CoreError::Alloc(e)
    }
}

impl From<spmlab_cc::CcError> for CoreError {
    fn from(e: spmlab_cc::CcError) -> CoreError {
        CoreError::Cc(e)
    }
}

impl From<spmlab_sim::SimError> for CoreError {
    fn from(e: spmlab_sim::SimError) -> CoreError {
        CoreError::Sim(e)
    }
}

impl From<spmlab_wcet::WcetError> for CoreError {
    fn from(e: spmlab_wcet::WcetError) -> CoreError {
        CoreError::Wcet(e)
    }
}
