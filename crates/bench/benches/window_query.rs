//! The Fig. 3 microbenchmark: DB-side window query cost vs window size,
//! plus the paged-vs-in-memory R-tree ablation (cost of going through the
//! buffer pool).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gvdb_bench::{prepare, random_windows, Dataset};
use gvdb_core::QueryManager;
use gvdb_spatial::RTree;
use std::hint::black_box;

fn bench_window_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_query_db_exec");
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(20);
    // Small-scale dataset so the bench harness itself stays fast.
    let graph = Dataset::Patent.generate(10_000);
    let (db, _report, bounds, path) = prepare(&graph, "bench-window");
    let qm = QueryManager::new(db);
    for side in [200.0f64, 1500.0, 3000.0] {
        let windows = random_windows(&bounds, side, 50, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{side}px")),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let mut rows = 0usize;
                    for w in windows {
                        rows += qm.window_query(0, w).unwrap().rows.len();
                    }
                    black_box(rows)
                })
            },
        );
    }
    group.finish();
    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

fn bench_paged_vs_inmemory(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_query_paged_vs_inmemory");
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let graph = Dataset::Patent.generate(10_000);
    let (db, report, bounds, path) = prepare(&graph, "bench-paged");
    let windows = random_windows(&bounds, 1500.0, 50, 5);

    // In-memory R*-tree over the same layer-0 geometries.
    let layer0 = &report.hierarchy.layers[0];
    let entries: Vec<(gvdb_spatial::Rect, u64)> = layer0
        .graph
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let (x1, y1) = layer0.positions[e.source.index()];
            let (x2, y2) = layer0.positions[e.target.index()];
            (
                gvdb_spatial::Rect::from_points(
                    gvdb_spatial::Point::new(x1, y1),
                    gvdb_spatial::Point::new(x2, y2),
                ),
                i as u64,
            )
        })
        .collect();
    let mem_tree = RTree::bulk_load(entries);

    let table = db.layer(0).unwrap();
    group.bench_function("paged_rtree_through_buffer_pool", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for w in &windows {
                rows += table.window(db.pool(), w, false).unwrap().len();
            }
            black_box(rows)
        })
    });
    group.bench_function("inmemory_rstar", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for w in &windows {
                rows += mem_tree.window(w).count();
            }
            black_box(rows)
        })
    });
    group.finish();
    drop(db);
    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

criterion_group!(benches, bench_window_sizes, bench_paged_vs_inmemory);
criterion_main!(benches);
