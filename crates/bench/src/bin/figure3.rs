//! Reproduce **Figure 3**: response time vs window size, per dataset.
//!
//! For every window size 200² … 3000² px, evaluate 100 random window
//! queries on layer 0 and report the averages of the four series the paper
//! plots — DB Query Execution, Build JSON Objects, Communication +
//! Rendering (simulated client, see `DESIGN.md` §4), Total Time — plus the
//! average number of nodes+edges per window.
//!
//! ```text
//! cargo run --release -p gvdb-bench --bin figure3
//! ```
//!
//! Shape to check against the paper:
//! * total time grows ~linearly with window size / object count;
//! * Communication + Rendering dominates the total;
//! * DB execution is negligible and grows only slightly.

use gvdb_bench::{prepare, random_windows, scale_from_env, Dataset};
use gvdb_core::QueryManager;

const WINDOW_SIDES: [f64; 5] = [200.0, 1500.0, 2000.0, 2500.0, 3000.0];
const QUERIES_PER_SIZE: usize = 100;

fn main() {
    let scale = scale_from_env();
    println!("graphVizdb Figure 3 reproduction (scale 1/{scale}, {QUERIES_PER_SIZE} random windows per size)\n");

    for ds in [Dataset::Wikidata, Dataset::Patent] {
        let graph = ds.generate(scale);
        let (db, _report, bounds, path) = prepare(&graph, &format!("fig3-{}", ds.name()));
        let qm = QueryManager::new(db);
        println!(
            "({}) {} — {} edges, {} nodes, plane {:.0} x {:.0} px",
            if ds == Dataset::Wikidata { "a" } else { "b" },
            ds.name(),
            graph.edge_count(),
            graph.node_count(),
            bounds.width(),
            bounds.height()
        );
        println!(
            "{:>10} | {:>12} {:>12} {:>14} {:>12} | {:>12}",
            "Window(px)", "DBexec(ms)", "JSON(ms)", "Comm+Rend(ms)", "Total(ms)", "Nodes+Edges"
        );
        let mut prev_total = 0.0;
        for (i, side) in WINDOW_SIDES.iter().enumerate() {
            let windows = random_windows(&bounds, *side, QUERIES_PER_SIZE, 7 + i as u64);
            let (mut db_ms, mut json_ms, mut client_ms, mut objects) = (0.0, 0.0, 0.0, 0usize);
            for w in &windows {
                let resp = qm.window_query(0, w).expect("window query");
                db_ms += resp.db_ms;
                json_ms += resp.build_json_ms;
                client_ms += resp.client.comm_render_ms;
                objects += resp.json.node_count + resp.json.edge_count;
            }
            let n = windows.len() as f64;
            let total = (db_ms + json_ms + client_ms) / n;
            println!(
                "{:>7.0}^2 | {:>12.3} {:>12.3} {:>14.1} {:>12.1} | {:>12.1}",
                side,
                db_ms / n,
                json_ms / n,
                client_ms / n,
                total,
                objects as f64 / n,
            );
            assert!(
                total >= prev_total * 0.5,
                "total time should grow (roughly) with window size"
            );
            prev_total = total;
        }
        println!();
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }
}
