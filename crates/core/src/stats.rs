//! The Statistics panel: per-layer graph statistics (§III, Web UI panel
//! 6), plus the preprocessing report table (per-stage wall-clock and
//! worker-thread counts — the Table I instrumentation).

use crate::preprocess::PreprocessReport;
use gvdb_abstract::Hierarchy;
use gvdb_graph::GraphMetrics;

/// Statistics for one abstraction layer.
#[derive(Debug, Clone)]
pub struct LayerStats {
    /// Layer index (0 = full graph).
    pub layer: usize,
    /// Graph metrics of the layer.
    pub metrics: GraphMetrics,
}

/// Compute statistics for every layer of a hierarchy.
pub fn hierarchy_stats(h: &Hierarchy) -> Vec<LayerStats> {
    h.layers
        .iter()
        .enumerate()
        .map(|(layer, data)| LayerStats {
            layer,
            metrics: GraphMetrics::compute(&data.graph),
        })
        .collect()
}

/// Render a statistics table as text (the panel's content).
pub fn format_stats(stats: &[LayerStats]) -> String {
    let mut out =
        String::from("layer |    nodes |    edges | avg deg | max deg |  density | components\n");
    for s in stats {
        out.push_str(&format!(
            "{:>5} | {:>8} | {:>8} | {:>7.2} | {:>7} | {:>8.6} | {:>10}\n",
            s.layer,
            s.metrics.nodes,
            s.metrics.edges,
            s.metrics.avg_degree,
            s.metrics.max_degree,
            s.metrics.density,
            s.metrics.components,
        ));
    }
    out
}

/// Render the preprocessing report as a per-stage table: wall-clock,
/// share of total, and worker-thread count for the parallel stages.
/// Comparing a `parallelism: 1` run against a parallel one on the same
/// graph makes the Step 2 / Step 5 speedup directly visible.
pub fn format_preprocess_report(report: &PreprocessReport) -> String {
    let t = &report.times;
    let total = t.total().as_secs_f64().max(f64::MIN_POSITIVE);
    let mut out = String::from("stage              |     wall (ms) | share | threads\n");
    let row = |out: &mut String, name: &str, d: std::time::Duration, threads: Option<usize>| {
        let ms = d.as_secs_f64() * 1e3;
        let share = d.as_secs_f64() / total * 100.0;
        let threads = threads.map_or_else(|| "1".to_string(), |n| n.to_string());
        out.push_str(&format!(
            "{name:<18} | {ms:>13.2} | {share:>4.0}% | {threads:>7}\n"
        ));
    };
    row(&mut out, "1 partitioning", t.partitioning, None);
    row(&mut out, "2 layout", t.layout, Some(report.threads.layout));
    row(&mut out, "3 organize", t.organize, None);
    row(&mut out, "4 abstraction", t.abstraction, None);
    row(
        &mut out,
        "5 store & index",
        t.indexing,
        Some(report.threads.row_building),
    );
    out.push_str(&format!(
        "total              | {:>13.2} |  100% |  k={} cut={}\n",
        t.total().as_secs_f64() * 1e3,
        report.k,
        report.edge_cut
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvdb_abstract::{build_hierarchy, HierarchyConfig};
    use gvdb_graph::generators::barabasi_albert;

    #[test]
    fn stats_for_every_layer() {
        let g = barabasi_albert(200, 2, 1);
        let pos: Vec<(f64, f64)> = (0..200).map(|i| (i as f64, 0.0)).collect();
        let h = build_hierarchy(&g, &pos, &HierarchyConfig::default());
        let stats = hierarchy_stats(&h);
        assert_eq!(stats.len(), h.len());
        assert_eq!(stats[0].metrics.nodes, 200);
        // Layers shrink.
        assert!(stats.last().unwrap().metrics.nodes < 200);
    }

    #[test]
    fn format_is_tabular() {
        let g = barabasi_albert(50, 2, 2);
        let pos: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 0.0)).collect();
        let h = build_hierarchy(&g, &pos, &HierarchyConfig::default());
        let text = format_stats(&hierarchy_stats(&h));
        assert!(text.lines().count() >= 2);
        assert!(text.contains("avg deg"));
    }

    #[test]
    fn preprocess_report_table_lists_all_stages() {
        use crate::preprocess::{preprocess, PreprocessConfig};
        use gvdb_graph::generators::planted_partition;

        let g = planted_partition(2, 30, 5.0, 0.5, 4);
        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-statsrep-{}", std::process::id()));
        let cfg = PreprocessConfig {
            k: Some(2),
            parallelism: 2,
            ..Default::default()
        };
        let (_db, report) = preprocess(&g, &path, &cfg).unwrap();
        let table = format_preprocess_report(&report);
        for stage in [
            "1 partitioning",
            "2 layout",
            "3 organize",
            "4 abstraction",
            "5 store & index",
            "threads",
            "total",
        ] {
            assert!(table.contains(stage), "missing {stage:?} in:\n{table}");
        }
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }
}
