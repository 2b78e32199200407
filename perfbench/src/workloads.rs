//! The three workloads: which programs each sweeps and over which grid.
//!
//! Every workload mixes fixed paper kernels with four generated programs
//! fed seeded inputs, one per footprint class, so the working set relative to the
//! modelled caches varies inside every workload (fits the L1, straddles
//! the L1, straddles the L2, exceeds the L2).

use spmlab::dse::{GridSpec, L1Shape};
use spmlab::MemArchSpec;
use spmlab_isa::archspec::SpmAllocation;
use spmlab_isa::cachecfg::WritePolicy;
use spmlab_isa::hierarchy::StoreBuffer;
use spmlab_workloads::{gen, inputs, Benchmark, InputGen, ADPCM, G721, MULTISORT};
use std::sync::Arc;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Write-through hierarchy grid: replay-dominated.
    DseWt,
    /// Write-back hierarchy grid with store buffers: replay of the write
    /// path (dirty bits, write-backs, buffer drain) plus charge-at-store
    /// analysis.
    DseWb,
    /// Scratchpad allocation grid: allocator and analysis dominated,
    /// replay marginal.
    SpmAlloc,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::DseWt, Workload::DseWb, Workload::SpmAlloc];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DseWt => "dse-wt",
            Workload::DseWb => "dse-wb",
            Workload::SpmAlloc => "spm-alloc",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The programs swept, fixed kernels first, then four generated
    /// programs — generator seeds 0..=3, one per footprint class — whose
    /// 64-element input vectors come from the workload `seed`. The program
    /// structure stays fixed so every seed sweeps the same code; only the
    /// data (and with it branch outcomes and masked array addresses)
    /// changes. G.721 is left out of `spm-alloc`: WCET-aware allocation of
    /// its 55 points alone would take most of a run.
    pub fn programs(self, seed: u64) -> Vec<Benchmark> {
        let fixed: &[&Benchmark] = match self {
            Workload::DseWt | Workload::DseWb => &[&G721, &ADPCM, &MULTISORT],
            Workload::SpmAlloc => &[&ADPCM, &MULTISORT],
        };
        let arch = gen::reference_arch();
        let generated = (0..4).map(|k| {
            let program = gen::generate_for_seed(k, &arch);
            let input = inputs::random_ints(
                program.input.len(),
                seed.wrapping_mul(4).wrapping_add(k),
                -30_000,
                30_000,
            );
            Benchmark {
                typical_input: InputGen::Fixed(Arc::new(input)),
                ..program.benchmark()
            }
        });
        fixed
            .iter()
            .map(|b| (*b).clone())
            .chain(generated)
            .collect()
    }

    /// The grid every program of the workload is swept over.
    pub fn grid(self) -> GridSpec {
        let base = GridSpec {
            l1_shapes: vec![L1Shape::Unified, L1Shape::Split],
            l2_sizes: vec![0, 4096, 16384],
            main_latencies: vec![0, 10, 40],
            ..GridSpec::default()
        };
        match self {
            Workload::DseWt => GridSpec {
                l1_sizes: vec![0, 256, 1024, 4096],
                ..base
            },
            Workload::DseWb => GridSpec {
                l1_sizes: vec![256, 1024, 4096],
                l1_policies: vec![WritePolicy::WriteBack],
                l2_policies: vec![WritePolicy::WriteBack],
                store_buffers: vec![None, Some(StoreBuffer::new(4, 8))],
                ..base
            },
            Workload::SpmAlloc => GridSpec {
                spm_sizes: vec![128, 256, 512, 1024, 2048],
                spm_allocs: vec![
                    SpmAllocation::ProfileKnapsack,
                    SpmAllocation::WcetRegion,
                    SpmAllocation::WcetAware,
                ],
                l1_shapes: vec![L1Shape::Unified],
                l1_sizes: vec![0, 1024],
                l2_sizes: vec![0],
                main_latencies: vec![0, 10],
                ..GridSpec::default()
            },
        }
    }

    /// The deduplicated grid axis.
    pub fn axis(self) -> Vec<MemArchSpec> {
        self.grid()
            .axis()
            .expect("the workload grids are statically valid")
            .0
    }
}
