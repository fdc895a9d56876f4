//! Quickstart: preprocess a graph and explore it interactively.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use graphvizdb::prelude::*;

fn main() {
    // A synthetic RDF graph in the shape of the paper's Wikidata dataset
    // (hub entities with literal leaves, |E| ≈ |V|), scaled to demo size.
    let graph = wikidata_like(RdfConfig {
        entities: 2_000,
        ..Default::default()
    });
    println!(
        "input graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // Offline preprocessing: partition -> layout -> organize -> abstraction
    // layers -> store & index (Fig. 1 of the paper).
    let mut path = std::env::temp_dir();
    path.push(format!("gvdb-quickstart-{}.db", std::process::id()));
    // A small per-partition budget spreads the graph over ~16 tiles, so
    // window queries actually select a region (the paper sizes k to the
    // machine's memory; here we size it to the demo).
    let cfg = PreprocessConfig {
        partition_node_budget: 256,
        ..Default::default()
    };
    let (db, report) = preprocess(&graph, &path, &cfg).expect("preprocessing failed");
    println!(
        "preprocessed into {} layers (k = {} partitions, edge cut {}):",
        report.layer_sizes.len(),
        report.k,
        report.edge_cut
    );
    for (i, (nodes, edges)) in report.layer_sizes.iter().enumerate() {
        println!("  layer {i}: {nodes} nodes, {edges} edges");
    }
    println!(
        "step times: partition {:?}, layout {:?}, organize {:?}, abstraction {:?}, indexing {:?}",
        report.times.partitioning,
        report.times.layout,
        report.times.organize,
        report.times.abstraction,
        report.times.indexing
    );

    // Online exploration: every interaction is a spatial window query.
    let qm = QueryManager::new(db);
    let mut session = Session::new(Rect::new(0.0, 0.0, 1500.0, 1500.0));

    let view = session.view(&qm).expect("window query failed");
    println!(
        "\ninitial window: {} nodes, {} edges — db {:.2} ms, json {:.2} ms, comm+render {:.1} ms",
        view.json.node_count,
        view.json.edge_count,
        view.db_ms,
        view.build_json_ms,
        view.client.comm_render_ms
    );

    // Pan right, like dragging the canvas.
    session.pan(1000.0, 0.0);
    let view = session.view(&qm).expect("pan query failed");
    println!(
        "after pan: {} nodes, {} edges in view",
        view.json.node_count, view.json.edge_count
    );

    // Keyword search, then focus the window on the first hit.
    let hits = qm.keyword_search(0, "Faloutsos").expect("search failed");
    println!("\nkeyword 'Faloutsos': {} hit(s)", hits.len());
    if let Some(hit) = hits.first() {
        println!("  first: node {} ({:?})", hit.node_id, hit.label);
        session.focus(hit.position);
        let view = session.view(&qm).expect("focus query failed");
        println!(
            "  focused window has {} nodes / {} edges",
            view.json.node_count, view.json.edge_count
        );
    }

    // Vertical navigation: one layer up (more abstract, fewer objects).
    session.layer_up(&qm).expect("no abstraction layer");
    let abstract_view = session.view(&qm).expect("layer query failed");
    println!(
        "\nlayer {}: {} nodes / {} edges in the same window",
        session.layer(),
        abstract_view.json.node_count,
        abstract_view.json.edge_count
    );

    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}
