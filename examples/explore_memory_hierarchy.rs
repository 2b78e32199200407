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
use spmlab::sweep::spec_sweep;
use spmlab::{cache_axis, hierarchy_spec_axis, spm_axis, PAPER_SIZES};
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
    let spm = spec_sweep(&pipeline, &spm_axis(sizes))?;
    let cache = spec_sweep(&pipeline, &cache_axis(sizes))?;

    let rows: Vec<Vec<String>> = spm
        .iter()
        .zip(&cache)
        .map(|(s, c)| {
            vec![
                s.spec.spm_size().to_string(),
                s.result.sim_cycles.to_string(),
                s.result.wcet_cycles.to_string(),
                format!("{:.2}", s.result.ratio()),
                format!("{:.0}", s.result.energy_nj / 1000.0),
                c.result.sim_cycles.to_string(),
                c.result.wcet_cycles.to_string(),
                format!("{:.2}", c.result.ratio()),
                format!("{:.0}", c.result.energy_nj / 1000.0),
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
    for p in &spm {
        println!(
            "  {:>5} B: {}",
            p.spec.spm_size(),
            p.result.spm_objects.join(", ")
        );
    }

    // The multi-level axis: split L1 I/D caches backed by a unified L2,
    // over SRAM-style and DRAM-style main memories.
    let l1 = 512;
    let hier = spec_sweep(&pipeline, &hierarchy_spec_axis(l1))?;
    let hrows: Vec<Vec<String>> = hier
        .iter()
        .map(|p| {
            vec![
                p.result.label.clone(),
                p.result.sim_cycles.to_string(),
                p.result.wcet_cycles.to_string(),
                format!("{:.2}", p.result.ratio()),
                p.result.classify.l2_hits.to_string(),
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
