//! Design-space exploration: sweep scratchpad and cache capacities for one
//! of the shipped benchmarks and print the paper's Figure-3/4-style tables
//! (simulated cycles, WCET bound, ratio, plus energy estimates).
//!
//! ```text
//! cargo run --release --example explore_memory_hierarchy -- adpcm
//! cargo run --release --example explore_memory_hierarchy -- g721 --quick
//! ```

use spmlab::pipeline::Pipeline;
use spmlab::report::render_table;
use spmlab::sweep::{spec_sweep_with_session, SweepSession};
use spmlab::{
    cache_axis, hierarchy_spec_axis, spm_axis, ConfigResult, CoreError, MemArchSpec, PAPER_SIZES,
};
use spmlab_workloads::benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("adpcm");
    let quick = args.iter().any(|a| a == "--quick");
    let sizes: &[u32] = if quick {
        &[64, 512, 4096]
    } else {
        &PAPER_SIZES
    };

    let bench = benchmark(name).ok_or_else(|| {
        format!(
            "unknown benchmark `{name}`; try one of: {}",
            spmlab_workloads::all_benchmarks()
                .iter()
                .map(|b| b.name.as_ref())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    println!("exploring `{}` — {}\n", bench.name, bench.description);

    let pipeline = Pipeline::new(bench)?;
    // Every point must measure: the first failed one is the error.
    let sweep = |axis: &[MemArchSpec]| -> Result<Vec<ConfigResult>, CoreError> {
        spec_sweep_with_session(&pipeline, axis, &SweepSession::none())?
            .iter()
            .map(|o| o.outcome.measured().cloned())
            .collect()
    };
    let spm = sweep(&spm_axis(sizes))?;
    let cache = sweep(&cache_axis(sizes))?;

    let rows: Vec<Vec<String>> = sizes
        .iter()
        .zip(spm.iter().zip(&cache))
        .map(|(size, (s, c))| {
            vec![
                size.to_string(),
                s.sim_cycles.to_string(),
                s.wcet_cycles.to_string(),
                format!("{:.2}", s.ratio()),
                format!("{:.0}", s.energy_nj / 1000.0),
                c.sim_cycles.to_string(),
                c.wcet_cycles.to_string(),
                format!("{:.2}", c.ratio()),
                format!("{:.0}", c.energy_nj / 1000.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "bytes", "spm sim", "spm wcet", "ratio", "spm µJ", "$ sim", "$ wcet", "ratio",
                "$ µJ"
            ],
            &rows
        )
    );

    // What did the knapsack pick at each capacity?
    println!("\nscratchpad contents chosen by the energy knapsack:");
    for (size, r) in sizes.iter().zip(&spm) {
        println!("  {size:>5} B: {}", r.spm_objects.join(", "));
    }

    // The multi-level axis: split L1 I/D caches backed by a unified L2,
    // over SRAM-style and DRAM-style main memories.
    let l1 = 512;
    let hier = sweep(&hierarchy_spec_axis(l1))?;
    let hrows: Vec<Vec<String>> = hier
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.sim_cycles.to_string(),
                r.wcet_cycles.to_string(),
                format!("{:.2}", r.ratio()),
                r.classify.l2_hits.to_string(),
            ]
        })
        .collect();
    println!("\nmulti-level hierarchies (l1 budget {l1} B):");
    println!(
        "{}",
        render_table(&["configuration", "sim", "wcet", "ratio", "L2 AH"], &hrows)
    );
    Ok(())
}
