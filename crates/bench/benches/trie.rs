//! Ablation: full-text trie keyword search vs linear label scan — why
//! Fig. 2 puts tries on the label columns.

use criterion::{criterion_group, criterion_main, Criterion};
use gvdb_storage::trie::FullTextTrie;
use std::hint::black_box;

fn labels(n: usize) -> Vec<String> {
    let names = [
        "Christos Faloutsos",
        "graph visualization platform",
        "patent citation network",
        "database management systems",
        "linked open data cloud",
        "interactive exploration canvas",
    ];
    (0..n)
        .map(|i| format!("{} entity {i}", names[i % names.len()]))
        .collect()
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("fulltext_search");
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let labels = labels(100_000);
    let mut trie = FullTextTrie::new();
    for (i, l) in labels.iter().enumerate() {
        trie.insert(l, i as u64);
    }
    let keywords = ["falou", "citation", "canvas", "zzz-no-hit"];

    group.bench_function("trie_substring_x4", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for kw in keywords {
                hits += trie.search(kw).len();
            }
            black_box(hits)
        })
    });
    group.bench_function("linear_scan_x4", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for kw in keywords {
                hits += labels
                    .iter()
                    .filter(|l| l.to_lowercase().contains(kw))
                    .count();
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("fulltext_build");
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    let labels = labels(20_000);
    // The edit path: checked `insert` per label.
    group.bench_function("index_20k_labels", |b| {
        b.iter(|| {
            let mut trie = FullTextTrie::new();
            for (i, l) in labels.iter().enumerate() {
                trie.insert(l, i as u64);
            }
            black_box(trie.node_count())
        })
    });
    // The load path (`LayerTable::bulk_build`): every label shares
    // "entity", so the checked inserts above scan a posting list that
    // grows with the input while the bulk build checks only its tail.
    group.bench_function("bulk_20k_labels", |b| {
        b.iter(|| {
            let trie = FullTextTrie::bulk(
                labels
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (l.as_str(), i as u64)),
            );
            black_box(trie.node_count())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_search, bench_build);
criterion_main!(benches);
