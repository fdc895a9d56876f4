//! End-to-end integration tests: the full graphVizdb lifecycle across all
//! workspace crates — generate → preprocess → persist → reopen → explore.

use graphvizdb::core::stats::hierarchy_stats;
use graphvizdb::prelude::*;
use graphvizdb::storage::StorageError;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gvdb-e2e-{name}-{}", std::process::id()));
    p
}

#[test]
fn full_lifecycle_wikidata_like() {
    let graph = wikidata_like(RdfConfig {
        entities: 1_000,
        ..Default::default()
    });
    let path = tmp("lifecycle");

    // Preprocess and capture the report.
    let cfg = PreprocessConfig {
        partition_node_budget: 256,
        ..Default::default()
    };
    let (db, report) = preprocess(&graph, &path, &cfg).unwrap();
    assert!(report.k >= 4, "k {}", report.k);
    assert_eq!(report.layer_sizes[0].0, graph.node_count());
    assert_eq!(report.layer_sizes[0].1, graph.edge_count());

    // Layer row counts match the hierarchy (+ isolated-node rows).
    for (i, layer) in report.hierarchy.layers.iter().enumerate() {
        let isolated = layer
            .graph
            .node_ids()
            .filter(|&v| layer.graph.degree(v) == 0)
            .count();
        let expected = layer.graph.edge_count() + isolated;
        assert_eq!(
            db.layer(i).unwrap().row_count() as usize,
            expected,
            "layer {i} rows"
        );
    }

    // Stats panel data is consistent.
    let stats = hierarchy_stats(&report.hierarchy);
    assert_eq!(stats[0].metrics.nodes, graph.node_count());

    // Close and reopen from disk.
    drop(db);
    let db = GraphDb::open(&path).unwrap();
    assert_eq!(db.layer_count(), report.layer_sizes.len());

    // Window queries return exactly the rows whose segments intersect.
    let qm = QueryManager::new(db);
    let everything = Rect::new(-1e12, -1e12, 1e12, 1e12);
    let all = qm.window_query(0, &everything).unwrap();
    assert_eq!(
        all.rows.len(),
        report.layer_sizes[0].1 + {
            let l0 = &report.hierarchy.layers[0];
            l0.graph
                .node_ids()
                .filter(|&v| l0.graph.degree(v) == 0)
                .count()
        }
    );

    // Spot-check spatial correctness against a linear filter.
    let window = Rect::new(0.0, 0.0, 2_000.0, 2_000.0);
    let got = qm.window_query(0, &window).unwrap();
    let expected = all
        .rows
        .iter()
        .filter(|(_, r)| r.geometry.segment().intersects_rect(&window))
        .count();
    assert_eq!(got.rows.len(), expected);

    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

#[test]
fn keyword_search_then_navigate_then_edit() {
    let graph = patent_like(CitationConfig {
        nodes: 2_000,
        ..Default::default()
    });
    let path = tmp("explore");
    let (db, _) = preprocess(
        &graph,
        &path,
        &PreprocessConfig {
            partition_node_budget: 512,
            ..Default::default()
        },
    )
    .unwrap();
    let mut qm = QueryManager::new(db);

    // Search for a patent by number.
    let hits = qm.keyword_search(0, "US3001500").unwrap();
    assert_eq!(hits.len(), 1);
    let hit = hits[0].clone();

    // Focused window contains the node's incident edges.
    let mut session = Session::new(Rect::new(0.0, 0.0, 1_000.0, 1_000.0));
    session.focus(hit.position);
    let view = session.view(&qm).unwrap();
    assert!(view
        .rows
        .iter()
        .any(|(_, r)| r.node1_id == hit.node_id || r.node2_id == hit.node_id));

    // Pan far away: the node leaves the view.
    session.pan(1e7, 1e7);
    let gone = session.view(&qm).unwrap();
    assert!(gone
        .rows
        .iter()
        .all(|(_, r)| r.node1_id != hit.node_id && r.node2_id != hit.node_id));

    // Edit: add an edge at the far location, verify, persist, reopen.
    let w = session.window();
    let row = EdgeRow {
        node1_id: 5_000_001,
        node1_label: "added A".into(),
        geometry: EdgeGeometry {
            x1: w.min_x + 10.0,
            y1: w.min_y + 10.0,
            x2: w.min_x + 50.0,
            y2: w.min_y + 50.0,
            directed: false,
        },
        edge_label: "manual".into(),
        node2_id: 5_000_002,
        node2_label: "added B".into(),
    };
    let rid = session.add_edge(&qm, &row).unwrap();
    assert!(session
        .view(&qm)
        .unwrap()
        .rows
        .iter()
        .any(|(r, _)| *r == rid));
    qm.db_mut().flush().unwrap();
    drop(qm);

    let db = GraphDb::open(&path).unwrap();
    let qm = QueryManager::new(db);
    let hits = qm.keyword_search(0, "added").unwrap();
    assert_eq!(hits.len(), 2, "both new nodes searchable after reopen");

    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

#[test]
fn multi_level_navigation_is_consistent() {
    let graph = barabasi_albert(1_500, 3, 5);
    let path = tmp("levels");
    let (db, report) = preprocess(&graph, &path, &PreprocessConfig::default()).unwrap();
    let qm = QueryManager::new(db);
    let everything = Rect::new(-1e12, -1e12, 1e12, 1e12);

    // Every layer shrinks, and layer row counts mirror the hierarchy.
    let mut prev = usize::MAX;
    for layer in 0..qm.layer_count() {
        let resp = qm.window_query(layer, &everything).unwrap();
        assert!(resp.rows.len() <= prev, "layer {layer} grew");
        prev = resp.rows.len();
        let (nodes, _) = report.layer_sizes[layer];
        assert!(resp.json.node_count <= nodes);
    }

    // Zoom-correlated vertical navigation keeps the window centered.
    let mut session = Session::new(Rect::new(100.0, 100.0, 1_100.0, 1_100.0));
    let c_before = session.window().center();
    session.zoom_by(0.5);
    session.layer_up(&qm).unwrap();
    let c_after = session.window().center();
    assert!((c_before.x - c_after.x).abs() < 1e-9);
    assert_eq!(session.window().width(), 2_000.0);

    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

#[test]
fn every_layout_choice_works_end_to_end() {
    let graph = planted_partition(3, 40, 5.0, 0.5, 2);
    for (i, layout) in [
        LayoutChoice::ForceDirected,
        LayoutChoice::Circular,
        LayoutChoice::Star,
        LayoutChoice::Grid,
        LayoutChoice::Hierarchical,
    ]
    .into_iter()
    .enumerate()
    {
        let path = tmp(&format!("layout{i}"));
        let cfg = PreprocessConfig {
            k: Some(3),
            layout,
            ..Default::default()
        };
        let (db, _) = preprocess(&graph, &path, &cfg).unwrap();
        let qm = QueryManager::new(db);
        let all = qm
            .window_query(0, &Rect::new(-1e12, -1e12, 1e12, 1e12))
            .unwrap();
        assert_eq!(all.rows.len(), graph.edge_count(), "layout {layout:?}");
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }
}

#[test]
fn summarization_hierarchy_end_to_end() {
    let graph = planted_partition(4, 50, 6.0, 0.5, 7);
    let path = tmp("summarize");
    let cfg = PreprocessConfig {
        k: Some(4),
        hierarchy: HierarchyConfig {
            levels: 2,
            method: AbstractionMethod::Summarize {
                ratio: 0.2,
                seed: 3,
            },
        },
        ..Default::default()
    };
    let (db, report) = preprocess(&graph, &path, &cfg).unwrap();
    assert_eq!(report.layer_sizes.len(), 3);
    assert_eq!(report.layer_sizes[1].0, 40); // 200 * 0.2
    let qm = QueryManager::new(db);
    // Supernode labels mention member counts.
    let resp = qm
        .window_query(1, &Rect::new(-1e12, -1e12, 1e12, 1e12))
        .unwrap();
    assert!(resp.json.text.contains("+"), "supernode labels aggregated");
    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

#[test]
fn missing_layer_errors_are_clean() {
    let graph = grid_graph(5, 5);
    let path = tmp("errors");
    let (db, _) = preprocess(
        &graph,
        &path,
        &PreprocessConfig {
            k: Some(1),
            ..Default::default()
        },
    )
    .unwrap();
    let qm = QueryManager::new(db);
    match qm.window_query(42, &Rect::new(0.0, 0.0, 1.0, 1.0)) {
        Err(StorageError::LayerNotFound(msg)) => assert!(msg.contains("42")),
        other => panic!("expected LayerNotFound, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}
