//! The per-layer metrics of a traced run (`--trace 1`).
//!
//! Counters come from `/v1/stats` around the untraced timed phase;
//! times come from the traced phase's spans and probes. A replay class
//! the workload never produced is filled from `trace::gap_probe`.

use crate::drive::{Counters, OpRecord};
use crate::setup::SetupTimes;
use crate::stats::{median, ratio, JsonObj};
use crate::trace::SpanLog;
use crate::Phase;
use gvdb_api::Source;
use std::collections::HashMap;

/// Durations (ms) of spans named `name`, over every session.
fn spans_ms(phase: &Phase, name: &str) -> Vec<f64> {
    phase
        .sessions
        .iter()
        .flat_map(|(_, log)| log.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// Replay (`core.call`) durations in ms of the ops `pick` selects, given
/// the op's record and the plan the replay took.
fn replay_ms(phase: &Phase, pick: impl Fn(&OpRecord, Option<Source>) -> bool) -> Vec<f64> {
    let mut out = Vec::new();
    for (log, spans) in &phase.sessions {
        for s in spans.spans.iter().filter(|s| s.name == "core.call") {
            let rec = &log.records[s.op];
            if pick(rec, spans.shadow_source.get(&s.op).copied()) {
                out.push(s.ns() as f64 / 1e6);
            }
        }
    }
    out
}

/// Σ ns / Σ rows of the probes named `name`, in µs per row.
fn probe_us_per_row(phase: &Phase, name: &str) -> f64 {
    let (ns, rows) = phase
        .sessions
        .iter()
        .flat_map(|(_, log)| log.probes.iter())
        .filter(|p| p.name == name)
        .fold((0u64, 0u64), |(n, r), p| (n + p.ns, r + p.rows));
    ratio(ns as f64, rows as f64) / 1e3
}

/// Per view op: client spans minus the replay under them (ms).
fn transport_ms(log: &SpanLog, records: &[OpRecord]) -> Vec<f64> {
    let mut client = vec![0f64; records.len()];
    let mut replay = vec![0f64; records.len()];
    for s in &log.spans {
        if s.name.starts_with("client.") {
            client[s.op] += s.ns() as f64 / 1e6;
        } else if s.name == "core.call" {
            replay[s.op] += s.ns() as f64 / 1e6;
        }
    }
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.kind == 0 && r.failure.is_none())
        .map(|(i, _)| client[i] - replay[i])
        .collect()
}

/// Median of `xs` scaled by `scale`, or of the gap-probe samples for
/// `gap` when the workload produced none.
fn med_or_gap(xs: Vec<f64>, gaps: &HashMap<&'static str, Vec<f64>>, gap: &str, scale: f64) -> f64 {
    if xs.is_empty() {
        median(gaps.get(gap).map_or(&[][..], Vec::as_slice)) * scale
    } else {
        median(&xs) * scale
    }
}

#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    setups: &[SetupTimes],
    db_mib: f64,
    untraced: &Phase,
    records: &[OpRecord],
    traced: &Phase,
    gaps: &HashMap<&'static str, Vec<f64>>,
    share: [f64; 5],
    overhead_ms: f64,
    touched: f64,
) -> JsonObj {
    let m = |o: JsonObj, name: &str, v: f64, unit: &str| {
        o.raw(
            name,
            JsonObj::new().num("value", v).str("unit", unit).build(),
        )
    };
    let step = |i: usize| median(&setups.iter().map(|t| t.steps[i]).collect::<Vec<_>>());
    let c: &Counters = &untraced.counters;
    let views: Vec<&OpRecord> = records
        .iter()
        .filter(|r| r.kind == 0 && r.failure.is_none())
        .collect();
    let nviews = views.len() as f64;
    let cache_lookups = (c.cache_hits + c.partial_hits + c.cache_misses) as f64;
    let (index, scan) = if c.index_path + c.scan_path > 0 {
        (c.index_path as f64, c.scan_path as f64)
    } else {
        let g = |k| gaps.get(k).and_then(|v| v.first()).copied().unwrap_or(0.0);
        (g("index"), g("scan"))
    };
    let view_kind = |r: &OpRecord| r.kind == 0;
    let transport: Vec<f64> = traced
        .sessions
        .iter()
        .flat_map(|(log, spans)| transport_ms(spans, &log.records))
        .collect();
    let tail: Vec<f64> = views
        .iter()
        .filter_map(|r| r.ttfr_ms.map(|t| r.ms - t))
        .collect();

    let mut o = JsonObj::new();
    o = m(
        o,
        "graph.generate_s",
        median(&setups.iter().map(|t| t.generate).collect::<Vec<_>>()),
        "s",
    );
    o = m(o, "partition.step1_s", step(0), "s");
    o = m(o, "layout.step2_s", step(1), "s");
    o = m(o, "core.organize_step3_s", step(2), "s");
    o = m(o, "abstraction.step4_s", step(3), "s");
    o = m(o, "storage.index_step5_s", step(4), "s");
    o = m(o, "storage.db_mib", db_mib, "MiB");
    o = m(
        o,
        "server.open_s",
        median(&setups.iter().map(|t| t.open).collect::<Vec<_>>()),
        "s",
    );

    o = m(
        o,
        "storage.pool_hit_ratio",
        ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
        "ratio",
    );
    o = m(
        o,
        "storage.pool_misses_per_view",
        ratio(c.pool_misses as f64, nviews),
        "1/view",
    );
    o = m(
        o,
        "storage.evictions_per_view",
        ratio(c.evictions as f64, nviews),
        "1/view",
    );
    o = m(o, "storage.touched_pages_per_pool_page", touched, "ratio");
    o = m(
        o,
        "storage.rtree_us_p50",
        median(&spans_ms(traced, "storage.rtree")) * 1e3,
        "us",
    );
    o = m(
        o,
        "storage.fetch_us_per_row",
        probe_us_per_row(traced, "storage.fetch_rows"),
        "us/row",
    );
    o = m(
        o,
        "storage.keyword_us_p50",
        median(&spans_ms(traced, "storage.keyword")) * 1e3,
        "us",
    );
    o = m(
        o,
        "storage.flush_ms_p50",
        med_or_gap(
            spans_ms(traced, "storage.flush"),
            gaps,
            "storage.flush",
            1.0,
        ),
        "ms",
    );

    o = m(
        o,
        "core.cache_hit_ratio",
        ratio(c.cache_hits as f64, cache_lookups),
        "ratio",
    );
    o = m(
        o,
        "core.partial_hit_ratio",
        ratio(c.partial_hits as f64, cache_lookups),
        "ratio",
    );
    o = m(
        o,
        "core.rows_reused_ratio",
        ratio(
            views.iter().map(|r| r.rows_reused as f64).sum(),
            views.iter().map(|r| r.rows as f64).sum(),
        ),
        "ratio",
    );
    let by_plan = |src: Source| replay_ms(traced, move |r, s| view_kind(r) && s == Some(src));
    o = m(
        o,
        "core.hit_us_p50",
        med_or_gap(by_plan(Source::Hit), gaps, "core.hit", 1e3),
        "us",
    );
    o = m(
        o,
        "core.delta_ms_p50",
        med_or_gap(by_plan(Source::Delta), gaps, "core.delta", 1.0),
        "ms",
    );
    o = m(o, "core.cold_ms_p50", median(&by_plan(Source::Cold)), "ms");
    o = m(
        o,
        "core.json_us_per_row",
        probe_us_per_row(traced, "core.json"),
        "us/row",
    );
    let of_kind = |k: usize| replay_ms(traced, move |r, _| r.kind == k);
    o = m(o, "core.search_ms_p50", median(&of_kind(1)), "ms");
    o = m(
        o,
        "core.focus_ms_p50",
        med_or_gap(of_kind(2), gaps, "core.focus", 1.0),
        "ms",
    );
    o = m(
        o,
        "core.filtered_ms_p50",
        med_or_gap(of_kind(3), gaps, "core.filtered", 1.0),
        "ms",
    );
    o = m(
        o,
        "core.index_path_share",
        ratio(index, index + scan),
        "ratio",
    );
    o = m(
        o,
        "core.edit_us_p50",
        med_or_gap(of_kind(4), gaps, "core.edit", 1e3),
        "us",
    );

    let pack_ns: f64 = spans_ms(traced, "api.pack").iter().sum::<f64>() * 1e6;
    let packed_rows: u64 = traced
        .sessions
        .iter()
        .flat_map(|(_, l)| l.probes.iter())
        .filter(|p| p.name == "api.decode")
        .map(|p| p.rows)
        .sum();
    o = m(
        o,
        "api.pack_us_per_row",
        ratio(pack_ns, packed_rows as f64) / 1e3,
        "us/row",
    );
    o = m(
        o,
        "api.unpack_us_per_row",
        probe_us_per_row(traced, "api.decode"),
        "us/row",
    );

    o = m(o, "server.transport_ms_p50", median(&transport), "ms");
    o = m(
        o,
        "server.header_ms_p50",
        median(&views.iter().map(|r| r.header_ms).collect::<Vec<_>>()),
        "ms",
    );
    o = m(o, "server.rejected", c.rejected as f64, "count");
    o = m(o, "client.stream_tail_ms_p50", median(&tail), "ms");

    o = m(o, "trace.view_overhead_ms", overhead_ms, "ms");
    for (l, name) in crate::trace::LAYERS.iter().enumerate() {
        o = m(o, &format!("trace.view_{name}_share"), share[l], "ratio");
    }
    o
}
