//! The traced run: spans, the in-process shadow replay, and how span
//! self times are attributed to layers.
//!
//! The program itself is not instrumented, so the benchmark times calls
//! into each module's public functions from its own code. Per operation
//! the span tree is:
//!
//! ```text
//! op                                  the user operation (root)
//! ├─ client.open / client.recv / client.call    gvdb-client, on the socket
//! │   └─ core.call | storage.flush    the same request replayed in-process
//! │       │                           (GraphService::call_streamed / call)
//! │       ├─ api.pack                 PackedRows::encode_b64 of each frame
//! │       └─ storage.rtree / storage.fetch / storage.keyword
//! │                                   LayerTable calls on a reference handle
//! └─ api.unpack                       RowBatch::into_plain of each batch
//! ```
//!
//! The replay runs right after the socket round trip; it is the
//! estimate of the server work that happened inside the client call, so
//! it hangs under the op's last client span. The storage probes repeat
//! the storage part of that work (on a separate handle, so the shadow's
//! pool is not disturbed) and hang under `core.call`. A span's self time
//! is its duration minus its children's durations, so per operation
//!
//! * `server` = client spans − replay: socket, reactor and HTTP work;
//! * `core` = replay − pack − storage probes;
//! * `storage` = the probes (or the replayed flush);
//! * `api` = pack + unpack;
//! * `remainder` = op − client spans − unpack: the benchmark's own code,
//!   unattributed;
//!
//! and the five add up to the op's time.

use crate::drive::{dto, OpRecord, SessionLog};
use crate::stats::{median, ratio, JsonObj};
use crate::workload::Op;
use gvdb_api::{ApiFrame, ApiRequest, ApiResponse, PackedRows, RowBatch, Source};
use gvdb_core::{build_graph_json, FrameSink, GraphService, QueryManager};
use gvdb_spatial::Rect;
use gvdb_storage::GraphDb;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Index of the operation (root span) within its session.
    pub op: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-layer measurement that is not a span of the op tree (it would
/// double count): value in ns over `rows` rows.
#[derive(Debug, Clone)]
pub struct Probe {
    pub name: &'static str,
    pub ns: u64,
    pub rows: u64,
}

/// Spans of one session, kept in memory until the run ends. Disabled
/// logs record nothing and never read the clock.
#[derive(Default, Clone)]
pub struct SpanLog {
    pub enabled: bool,
    pub spans: Vec<Span>,
    pub probes: Vec<Probe>,
    /// Plan the replay took, per op.
    pub shadow_source: HashMap<usize, Source>,
    ops: usize,
}

impl SpanLog {
    /// Open a span; a root span starts a new operation.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        if parent.is_none() {
            self.ops += 1;
        }
        let t = now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            op: self.ops - 1,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        if self.enabled {
            self.spans[idx].end_ns = now_ns();
        }
    }

    fn record(&mut self, name: &'static str, parent: usize, start_ns: u64, end_ns: u64) -> usize {
        let op = self.spans[parent].op;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
        });
        self.spans.len() - 1
    }

    fn probe(&mut self, name: &'static str, ns: u64, rows: u64) {
        self.probes.push(Probe { name, ns, rows });
    }

    /// The last client span under `root`.
    fn last_client(&self, root: usize) -> usize {
        (root..self.spans.len())
            .rev()
            .find(|&i| {
                self.spans[i].parent == Some(root) && self.spans[i].name.starts_with("client.")
            })
            .unwrap_or(root)
    }
}

/// The in-process replay target: a `QueryManager` on its own handle of
/// the same database, fed the same operations as the server, plus a
/// reference handle for the storage probes.
pub struct Shadow {
    qm: QueryManager,
    probe_db: GraphDb,
    /// Replayed inserts: (session, tag) → rid.
    tags: Mutex<HashMap<(u64, u64), u64>>,
}

/// A `FrameSink` that packs frames the way the server's writer does,
/// timing it, and keeps the packed text for a decode probe afterwards.
struct TimingSink<'a> {
    spans: &'a mut SpanLog,
    parent: usize,
    packed: Vec<String>,
    source: Option<Source>,
}

impl FrameSink for TimingSink<'_> {
    fn emit(&mut self, frame: &ApiFrame) -> gvdb_api::ApiResult<()> {
        match frame {
            ApiFrame::Header(h) => self.source = h.source,
            ApiFrame::Rows(RowBatch::Packed { rows, .. }) => {
                let t = now_ns();
                let text = rows.encode_b64();
                self.spans.record("api.pack", self.parent, t, now_ns());
                self.packed.push(text);
            }
            _ => {}
        }
        Ok(())
    }
}

impl Shadow {
    /// `db` is the shadow's own database (a private copy when the
    /// workload edits), `probe` an independent handle for the probes.
    pub fn new(db: GraphDb, probe: GraphDb) -> Shadow {
        Shadow {
            qm: QueryManager::new(db),
            probe_db: probe,
            tags: Mutex::new(HashMap::new()),
        }
    }

    pub fn session_new(&self) -> Result<u64, String> {
        let req = ApiRequest::SessionNew {
            dataset: None,
            window: None,
        };
        match self.qm.call(&req).map(|o| o.into_response()) {
            Ok(ApiResponse::Session { id }) => Ok(id),
            other => Err(format!("shadow session: {other:?}")),
        }
    }

    /// The request `op` makes, and the name of its replay span.
    fn request(&self, op: &Op, sid: u64) -> Option<(ApiRequest, &'static str)> {
        let window = |layer, rect: &Rect, session, predicate| ApiRequest::Window {
            dataset: None,
            layer: Some(layer),
            window: dto(rect),
            session,
            packed: true,
            predicate,
            rid_range: None,
        };
        let req = match op {
            Op::View { layer, rect } => window(*layer, rect, Some(sid), None),
            Op::Filtered { rect, pred } => window(0, rect, None, Some(pred.clone())),
            Op::Search { keyword, .. } => ApiRequest::Search {
                dataset: None,
                layer: 0,
                query: keyword.clone(),
                predicate: None,
            },
            Op::Focus { node } => ApiRequest::Focus {
                dataset: None,
                layer: 0,
                node: *node,
            },
            Op::Insert { edge, .. } => ApiRequest::InsertEdge {
                dataset: None,
                layer: 0,
                edge: edge.clone(),
            },
            Op::Delete { tag } => ApiRequest::DeleteEdge {
                dataset: None,
                layer: 0,
                rid: self.tags.lock().expect("tags lock").remove(&(sid, *tag))?,
            },
            Op::Flush => return Some((ApiRequest::Flush { dataset: None }, "storage.flush")),
        };
        Some((req, "core.call"))
    }

    /// Run `req` on the shadow, streaming into `sink` when it streams.
    fn execute(&self, op: &Op, sid: u64, req: &ApiRequest, sink: &mut dyn FrameSink) {
        if matches!(op, Op::View { .. } | Op::Filtered { .. }) {
            let _ = self.qm.call_streamed(req, sink);
            return;
        }
        let Ok(out) = self.qm.call(req) else { return };
        if let Op::Insert { tag, .. } = op {
            if let ApiResponse::Mutated { rid: Some(rid), .. } = out.into_response() {
                self.tags
                    .lock()
                    .expect("tags lock")
                    .insert((sid, *tag), rid);
            }
        }
    }

    /// Replay `op` in-process and record its spans under the op `root`
    /// (with tracing off, only replay it, to keep the shadow's state in
    /// step with the server's). `rec` is what the socket round trip saw.
    pub fn replay(&self, op: &Op, sid: u64, rec: &OpRecord, spans: &mut SpanLog, root: usize) {
        let Some((req, name)) = self.request(op, sid) else {
            return;
        };
        if !spans.enabled {
            self.execute(op, sid, &req, &mut NullSink);
            return;
        }
        let parent = spans.last_client(root);
        let call = spans.record(name, parent, 0, 0);
        let mut sink = TimingSink {
            spans,
            parent: call,
            packed: Vec::new(),
            source: None,
        };
        let start = now_ns();
        self.execute(op, sid, &req, &mut sink);
        let end = now_ns();
        let TimingSink {
            spans,
            packed,
            source,
            ..
        } = sink;
        spans.spans[call].start_ns = start;
        spans.spans[call].end_ns = end;
        let op_idx = spans.spans[root].op;
        if let Some(src) = source {
            spans.shadow_source.insert(op_idx, src);
        }
        if !packed.is_empty() {
            let t = now_ns();
            let mut decoded = 0u64;
            for text in &packed {
                if let Ok(rows) = PackedRows::decode_b64(text) {
                    decoded += rows.edges.len() as u64;
                    std::hint::black_box(rows);
                }
            }
            spans.probe("api.decode", now_ns() - t, decoded);
        }
        self.storage_probes(op, rec, spans, call);
    }

    /// Repeat the storage part of `op` on the reference handle.
    fn storage_probes(&self, op: &Op, rec: &OpRecord, spans: &mut SpanLog, call: usize) {
        let pool = self.probe_db.pool();
        match op {
            Op::View { layer, rect } if rec.source != Some(Source::Hit) => {
                let Some(table) = self.probe_db.layer(*layer) else {
                    return;
                };
                let t = now_ns();
                let rids = table.window_rids(pool, rect).unwrap_or_default();
                let t1 = now_ns();
                spans.record("storage.rtree", call, t, t1);
                // A delta pan fetches only the rows it does not reuse.
                let n = if rec.source == Some(Source::Delta) {
                    (rec.rows_fetched as usize).min(rids.len())
                } else {
                    rids.len()
                };
                let t = now_ns();
                let rows = table.fetch_many(pool, &rids[..n]).unwrap_or_default();
                let t1 = now_ns();
                spans.record("storage.fetch", call, t, t1);
                spans.probe("storage.fetch_rows", t1 - t, rows.len() as u64);
                if rec.source == Some(Source::Cold) {
                    let t = now_ns();
                    std::hint::black_box(build_graph_json(&rows));
                    spans.probe("core.json", now_ns() - t, rows.len() as u64);
                }
            }
            Op::Search { keyword, .. } => {
                if let Some(table) = self.probe_db.layer(0) {
                    let t = now_ns();
                    std::hint::black_box(table.search_nodes(keyword));
                    spans.record("storage.keyword", call, t, now_ns());
                }
            }
            _ => {}
        }
    }
}

struct NullSink;

impl FrameSink for NullSink {
    fn emit(&mut self, _frame: &ApiFrame) -> gvdb_api::ApiResult<()> {
        Ok(())
    }
}

/// Layers of the attribution, in report order.
pub const LAYERS: [&str; 5] = ["server", "core", "storage", "api", "remainder"];

fn layer_of(span: &Span) -> usize {
    match span.name {
        "op" => 4,
        n if n.starts_with("client.") => 0,
        "core.call" => 1,
        n if n.starts_with("storage.") => 2,
        _ => 3, // api.pack, api.unpack
    }
}

/// Self time of every span of one session's log, by layer, per op.
fn self_times(log: &SpanLog) -> Vec<[f64; 5]> {
    let mut child_ns = vec![0u64; log.spans.len()];
    for s in &log.spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut per_op = vec![[0f64; 5]; log.ops];
    for (i, s) in log.spans.iter().enumerate() {
        let self_ns = s.ns() as f64 - child_ns[i] as f64;
        per_op[s.op][layer_of(s)] += self_ns / 1e6;
    }
    per_op
}

/// Operation classes of the attribution: views split by the plan the
/// server reported.
pub fn op_class(rec: &OpRecord) -> &'static str {
    match (rec.kind, rec.source) {
        (0, Some(Source::Hit)) => "view.hit",
        (0, Some(Source::Delta)) => "view.delta",
        (0, _) => "view.cold",
        (1, _) => "search",
        (2, _) => "focus",
        (3, _) => "filtered",
        (4, _) => "edit",
        _ => "flush",
    }
}

/// The classes an op counts in: its own, and `view` for every view.
fn classes_of(rec: &OpRecord) -> impl Iterator<Item = &'static str> {
    std::iter::once(op_class(rec)).chain((rec.kind == 0).then_some("view"))
}

/// Per op class: the traced median, each layer's share of the class's
/// traced time and its part of the median, the remainder, and the
/// tracing overhead against the untraced median of the same class.
/// Returns the report and, per class, the shares and the overhead (ms).
#[allow(clippy::type_complexity)]
pub fn attribution(
    sessions: &[(SessionLog, SpanLog)],
    untraced: &[OpRecord],
) -> (String, HashMap<&'static str, ([f64; 5], f64)>) {
    let mut by_class: HashMap<&'static str, (Vec<f64>, [f64; 5])> = HashMap::new();
    for (log, spans) in sessions {
        for (rec, layers) in log.records.iter().zip(self_times(spans)) {
            if rec.failure.is_some() {
                continue;
            }
            for class in classes_of(rec) {
                let e = by_class.entry(class).or_default();
                e.0.push(rec.ms);
                for (acc, v) in e.1.iter_mut().zip(layers) {
                    *acc += v;
                }
            }
        }
    }
    let mut classes: Vec<_> = by_class.into_iter().collect();
    classes.sort_by_key(|(c, _)| *c);
    let mut summary = HashMap::new();
    let mut out = Vec::new();
    for (class, (ms, layer_ms)) in classes {
        let total: f64 = layer_ms.iter().sum();
        let traced = median(&ms);
        let base: Vec<f64> = untraced
            .iter()
            .filter(|r| r.failure.is_none() && classes_of(r).any(|c| c == class))
            .map(|r| r.ms)
            .collect();
        let overhead = traced - median(&base);
        let share: [f64; 5] = std::array::from_fn(|l| ratio(layer_ms[l], total));
        let (mut share_obj, mut at_median) = (JsonObj::new(), JsonObj::new());
        for (l, name) in LAYERS.iter().enumerate() {
            share_obj = share_obj.num(name, share[l]);
            at_median = at_median.num(name, share[l] * traced);
        }
        out.push(
            JsonObj::new()
                .str("class", class)
                .int("ops", ms.len() as u64)
                .num("traced_p50_ms", traced)
                .num("traced_mean_ms", total / ms.len() as f64)
                .num("untraced_p50_ms", median(&base))
                .num("overhead_ms", overhead)
                .raw("share", share_obj.build())
                .raw("ms_at_median", at_median.build())
                .build(),
        );
        summary.insert(class, (share, overhead));
    }
    (format!("[{}]", out.join(",")), summary)
}

/// Captures the plan a streamed answer reports.
#[derive(Default)]
struct SourceSink(Option<Source>);

impl FrameSink for SourceSink {
    fn emit(&mut self, frame: &ApiFrame) -> gvdb_api::ApiResult<()> {
        if let ApiFrame::Header(h) = frame {
            self.0 = h.source;
        }
        Ok(())
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Samples (ms) for replay classes the workload's own operations never
/// produced, from a short seeded probe on the same dataset run after the
/// traced phase, so every per-layer metric is measured on every
/// workload. Keys: `core.hit`, `core.delta`, `core.focus`,
/// `core.filtered`, `core.edit`, `storage.flush`, and the chooser's
/// `index`/`scan` decisions as counts.
pub fn gap_probe(
    w: crate::workload::Workload,
    shadow: &Shadow,
    edit_db: &std::path::Path,
    plane: &crate::workload::Plane,
    seed: u64,
    missing: &[&str],
) -> Result<HashMap<&'static str, Vec<f64>>, String> {
    use crate::workload::{nodes_in, Rng, EDIT_NODE_BASE};
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut rng = Rng::new(seed, 1 << 48);
    let qm = &shadow.qm;
    // Windows of the workload's own size, around nodes of its region.
    let side = plane.side(w);
    let nodes = nodes_in(plane, &plane.region(w));
    if nodes.is_empty() {
        return Err("gap probe: no node in the workload's region".into());
    }
    let node_rect = |rng: &mut Rng| {
        let n = nodes[rng.below(nodes.len())];
        (
            n.clone(),
            Rect::new(
                n.x - side / 2.0,
                n.y - side / 2.0,
                n.x + side / 2.0,
                n.y + side / 2.0,
            ),
        )
    };
    let window = |rect: &Rect, session, predicate| ApiRequest::Window {
        dataset: None,
        layer: Some(0),
        window: dto(rect),
        session,
        packed: true,
        predicate,
        rid_range: None,
    };
    if missing.contains(&"core.hit") || missing.contains(&"core.delta") {
        let sid = shadow.session_new()?;
        for _ in 0..30 {
            let (_, rect) = node_rect(&mut rng);
            let _ = qm.call_streamed(&window(&rect, Some(sid), None), &mut NullSink);
            let shifted = Rect::new(
                rect.min_x + side * 0.2,
                rect.min_y,
                rect.max_x + side * 0.2,
                rect.max_y,
            );
            for r in [rect, shifted] {
                let mut sink = SourceSink::default();
                let (_, ms) = timed(|| qm.call_streamed(&window(&r, Some(sid), None), &mut sink));
                match sink.0 {
                    Some(Source::Hit) => out.entry("core.hit").or_default().push(ms),
                    Some(Source::Delta) => out.entry("core.delta").or_default().push(ms),
                    _ => {}
                }
            }
        }
    }
    if missing.contains(&"core.focus") {
        for _ in 0..30 {
            let (n, _) = node_rect(&mut rng);
            let req = ApiRequest::Focus {
                dataset: None,
                layer: 0,
                node: n.id,
            };
            let (_, ms) = timed(|| qm.call(&req));
            out.entry("core.focus").or_default().push(ms);
        }
    }
    if missing.contains(&"core.filtered") {
        let (i0, s0) = qm.chooser_counts();
        for i in 0..20 {
            let (n, rect) = node_rect(&mut rng);
            let pred = if i % 2 == 0 {
                gvdb_api::Predicate::NodeLabelPrefix(n.keyword.clone())
            } else {
                gvdb_api::Predicate::Range {
                    field: gvdb_api::Field::X,
                    min: Some(n.x),
                    max: None,
                }
            };
            let (_, ms) =
                timed(|| qm.call_streamed(&window(&rect, None, Some(pred)), &mut NullSink));
            out.entry("core.filtered").or_default().push(ms);
        }
        let (i1, s1) = qm.chooser_counts();
        out.insert("index", vec![(i1 - i0) as f64]);
        out.insert("scan", vec![(s1 - s0) as f64]);
    }
    if missing.contains(&"core.edit") || missing.contains(&"storage.flush") {
        let db = GraphDb::open(edit_db).map_err(|e| format!("open probe copy: {e}"))?;
        let qm = QueryManager::new(db);
        let mut rids = Vec::new();
        for i in 0..60u64 {
            let (_, rect) = node_rect(&mut rng);
            let c = rect.center();
            let edge = gvdb_api::EdgeDto {
                node1_id: EDIT_NODE_BASE + 2 * i,
                node1_label: format!("probe{i}a"),
                node2_id: EDIT_NODE_BASE + 2 * i + 1,
                node2_label: format!("probe{i}b"),
                edge_label: "benchprobe".into(),
                x1: c.x,
                y1: c.y,
                x2: c.x + side * 0.1,
                y2: c.y + side * 0.1,
                directed: true,
            };
            let req = ApiRequest::InsertEdge {
                dataset: None,
                layer: 0,
                edge,
            };
            let (res, ms) = timed(|| qm.call(&req));
            out.entry("core.edit").or_default().push(ms);
            if let Ok(ApiResponse::Mutated { rid: Some(rid), .. }) = res.map(|o| o.into_response())
            {
                rids.push(rid);
            }
            if i % 2 == 1 {
                if let Some(rid) = rids.pop() {
                    let req = ApiRequest::DeleteEdge {
                        dataset: None,
                        layer: 0,
                        rid,
                    };
                    let (_, ms) = timed(|| qm.call(&req));
                    out.entry("core.edit").or_default().push(ms);
                }
            }
            if i % 10 == 9 {
                let (_, ms) = timed(|| qm.call(&ApiRequest::Flush { dataset: None }));
                out.entry("storage.flush").or_default().push(ms);
            }
        }
    }
    Ok(out)
}
