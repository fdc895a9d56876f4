//! Reproduce **Table I**: time for each preprocessing step, per dataset.
//!
//! ```text
//! cargo run --release -p gvdb-bench --bin table1
//! GVDB_SCALE=500 cargo run --release -p gvdb-bench --bin table1   # bigger
//! ```
//!
//! The paper reports minutes on an 8 GB VM at full dataset size; the
//! harness scales the datasets down (default 1000×) and reports seconds.
//! The shape to check, per the paper's §III discussion:
//! * Step 5 (indexing) dominates in the paper. Here, with the label
//!   tries bulk-built in linear time, it is about half of the total at
//!   the default scale on a 2-vCPU host: the largest step for Patent
//!   (0.11 of 0.21 s), level with Step 2 (layout) for Wikidata (2.5 and
//!   3.0 of 5.9 s);
//! * Step 1 (partitioning) costs more *per edge* for Patent than for
//!   Wikidata because of the higher average node degree.

use gvdb_bench::{prepare, scale_from_env, Dataset};

fn main() {
    let scale = scale_from_env();
    println!("graphVizdb Table I reproduction (scale 1/{scale} of the paper's datasets)\n");
    println!(
        "{:<10} {:>9} {:>9} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>8}",
        "Dataset",
        "#Edges",
        "#Nodes",
        "Step1(s)",
        "Step2(s)",
        "Step3(s)",
        "Step4(s)",
        "Step5(s)",
        "Total(s)"
    );

    let mut per_edge: Vec<(&str, f64, f64)> = Vec::new();
    for ds in [Dataset::Wikidata, Dataset::Patent] {
        let graph = ds.generate(scale);
        let (_db, report, _bounds, path) = prepare(&graph, &format!("table1-{}", ds.name()));
        let t = &report.times;
        println!(
            "{:<10} {:>9} {:>9} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>8.2}",
            ds.name(),
            graph.edge_count(),
            graph.node_count(),
            t.partitioning.as_secs_f64(),
            t.layout.as_secs_f64(),
            t.organize.as_secs_f64(),
            t.abstraction.as_secs_f64(),
            t.indexing.as_secs_f64(),
            t.total().as_secs_f64(),
        );
        per_edge.push((
            ds.name(),
            t.partitioning.as_secs_f64() / graph.edge_count() as f64 * 1e6,
            t.indexing.as_secs_f64() / t.total().as_secs_f64(),
        ));
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    println!("\nshape checks (paper §III):");
    for (name, us_per_edge, idx_frac) in &per_edge {
        println!(
            "  {name}: partitioning {us_per_edge:.2} µs/edge; indexing = {:.0}% of total",
            idx_frac * 100.0
        );
    }
    if let [(_, wiki_ppe, _), (_, patent_ppe, _)] = per_edge.as_slice() {
        println!(
            "  partitioning cost per edge, Patent/Wikidata: {:.2}x (paper: Patent costs more per edge)",
            patent_ppe / wiki_ppe
        );
    }
}
