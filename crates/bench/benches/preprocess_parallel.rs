//! Offline-pipeline parallelism: the same preprocessing run at
//! `parallelism = 1` vs one worker per CPU.
//!
//! The parallel stages are Step 2 (per-partition layout) and Step 5's row
//! building; Steps 1/3/4 and the index writes are sequential, so the
//! end-to-end speedup follows Amdahl from the Step 2 share reported by
//! `table1`. A byte-identical database is produced either way (asserted
//! by the `gvdb-core` determinism test; here we only measure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gvdb_bench::{bench_db_path, Dataset};
use gvdb_core::{preprocess, PreprocessConfig};
use std::hint::black_box;

fn bench_parallelism_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess_parallelism");
    group.measurement_time(std::time::Duration::from_secs(8));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    let graph = Dataset::Patent.generate(20_000);
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for threads in [1usize, 2, hw] {
        let path = bench_db_path(&format!("par-{threads}"));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}thr")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let cfg = PreprocessConfig {
                        partition_node_budget: 256,
                        parallelism: threads,
                        ..Default::default()
                    };
                    let (db, report) = preprocess(&graph, &path, &cfg).expect("preprocess");
                    drop(db);
                    std::fs::remove_file(&path).ok();
                    gvdb_storage::wal::remove_all(&path).ok();
                    black_box(report.times.total())
                })
            },
        );
    }
    group.finish();
}

fn bench_layout_stage_only(c: &mut Criterion) {
    // Isolate the embarrassingly parallel stage: lay out the partitions
    // of a pre-partitioned graph through layout_many directly.
    use gvdb_layout::{layout_many, ForceDirected};
    use gvdb_partition::{partition, PartitionConfig};

    let mut group = c.benchmark_group("layout_stage");
    group.measurement_time(std::time::Duration::from_secs(6));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    let graph = Dataset::Patent.generate(20_000);
    let parts = partition(&graph, &PartitionConfig::with_k(16));
    let subgraphs: Vec<_> = parts
        .parts()
        .iter()
        .map(|nodes| graph.induced_subgraph(nodes).0)
        .collect();
    let algo = ForceDirected::default();
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for threads in [1usize, hw] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}thr")),
            &threads,
            |b, &threads| b.iter(|| black_box(layout_many(&algo, &subgraphs, threads)).len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallelism_sweep, bench_layout_stage_only);
criterion_main!(benches);
