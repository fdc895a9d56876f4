//! Runs operation lists against the server through `gvdb-client`, one
//! closed-loop thread per session, and checks every answer.
//!
//! With a [`Shadow`] attached (the traced run) each operation is also
//! replayed in-process right after its socket round trip, and spans are
//! recorded around the client calls, the in-process call and the
//! storage probes (see `trace.rs` for how they are attributed).

use crate::trace::{Shadow, SpanLog};
use crate::workload::{Op, KINDS};
use gvdb_api::{EdgeDto, RectDto, RowBatch, Source, StatsDto};
use gvdb_client::{ClientError, GvdbClient, WindowParams};
use gvdb_spatial::Rect;
use std::collections::HashMap;
use std::time::Instant;

/// Views whose op index is a multiple of this are compared row for row
/// with an independent read of the reference database.
pub const REF_SAMPLE_EVERY: usize = 7;

/// A delivered row: `(rid, source, target)`.
pub type RowKey = (u64, u64, u64);

/// What one operation did, as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    pub kind: usize,
    /// `None` when the operation succeeded and its answer checked out.
    pub failure: Option<String>,
    /// Request sent → answer complete (Trailer for streams).
    pub ms: f64,
    /// Request sent → first Rows batch decoded.
    pub ttfr_ms: Option<f64>,
    /// Request sent → Header decoded.
    pub header_ms: f64,
    pub rows: u64,
    pub rows_reused: u64,
    pub rows_fetched: u64,
    pub wire_bytes: u64,
    pub source: Option<Source>,
}

/// A view kept for the row-for-row reference check.
pub struct RefSample {
    pub layer: usize,
    pub rect: Rect,
    pub delivered: Vec<RowKey>,
    /// Our own inserted edges that were live and intersect `rect`.
    pub inserted: Vec<RowKey>,
}

/// An edit the server acknowledged.
#[derive(Debug, Clone)]
pub struct AckedEdit {
    pub rid: u64,
    pub node1: u64,
    pub insert: bool,
    /// Flushes acknowledged before this edit.
    pub flushes_before: usize,
}

/// Everything one session produced.
#[derive(Default)]
pub struct SessionLog {
    pub records: Vec<OpRecord>,
    /// Failures during warm-up (they fail the run too).
    pub warmup_failures: Vec<String>,
    pub samples: Vec<RefSample>,
    pub edits: Vec<AckedEdit>,
    pub flushes: usize,
    /// FNV-1a over every read's delivered rows, in op order: equal seeds
    /// must give equal digests.
    pub rows_digest: u64,
}

/// One session's client-side state.
pub struct Session<'a> {
    client: GvdbClient,
    id: u64,
    shadow: Option<(&'a Shadow, u64)>,
    pub spans: SpanLog,
    /// Inserted edges still live: tag → (rid, edge).
    live: HashMap<u64, (u64, EdgeDto)>,
    /// The next view must (true) or must not (false) show this rid.
    expect_next: Option<(u64, bool)>,
    pub log: SessionLog,
}

pub fn dto(r: &Rect) -> RectDto {
    RectDto {
        min_x: r.min_x,
        min_y: r.min_y,
        max_x: r.max_x,
        max_y: r.max_y,
    }
}

fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The edges of a plain `{"nodes":[…],"edges":[…]}` fragment.
fn plain_edges(graph: &str, out: &mut Vec<RowKey>) {
    let Some((_, edges)) = graph.split_once(gvdb_api::pack::EDGES_SEP) else {
        return;
    };
    let digits = |s: &str| -> u64 {
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        s[..end].parse().unwrap_or(u64::MAX)
    };
    let field = |s: &str, key: &str| s.split_once(key).map_or(u64::MAX, |(_, v)| digits(v));
    for obj in edges.split("{\"id\":").skip(1) {
        out.push((
            digits(obj),
            field(obj, "\"source\":"),
            field(obj, "\"target\":"),
        ));
    }
}

impl<'a> Session<'a> {
    /// Open a `/v1` session on the server (and on the shadow, if any).
    pub fn open(addr: &str, shadow: Option<&'a Shadow>) -> Result<Session<'a>, String> {
        let client = GvdbClient::new(addr.to_string());
        let id = client.session_new(None, None).map_err(|e| e.to_string())?;
        let shadow = match shadow {
            Some(s) => Some((s, s.session_new()?)),
            None => None,
        };
        Ok(Session {
            client,
            id,
            shadow,
            spans: SpanLog::default(),
            live: HashMap::new(),
            expect_next: None,
            log: SessionLog {
                rows_digest: 0xcbf2_9ce4_8422_2325,
                ..Default::default()
            },
        })
    }

    /// Run `ops`, the first of which is operation `first` of the list;
    /// `keep` records them (the timed phase) or only checks them
    /// (warm-up).
    pub fn run(&mut self, ops: &[Op], first: usize, keep: bool) {
        for (i, op) in ops.iter().enumerate() {
            let rec = self.run_op(first + i, op, keep);
            if keep {
                self.log.records.push(rec);
            } else if let Some(f) = rec.failure {
                self.log.warmup_failures.push(format!("warm-up: {f}"));
            }
        }
    }

    fn run_op(&mut self, i: usize, op: &Op, keep: bool) -> OpRecord {
        let root = self.spans.open("op", None);
        let mut rec = OpRecord {
            kind: op.kind(),
            ..Default::default()
        };
        let result = match op {
            Op::View { layer, rect } => self.view(i, *layer, rect, None, keep, &mut rec, root),
            Op::Filtered { rect, pred } => self.view(i, 0, rect, Some(pred), keep, &mut rec, root),
            Op::Search { keyword, expect } => self.search(keyword, *expect, &mut rec, root),
            Op::Focus { node } => self.timed_call(&mut rec, root, |c| {
                c.focus(None, 0, *node).map(|(rows, _)| rows)
            }),
            Op::Insert { tag, edge } => self.insert(*tag, edge, &mut rec, root),
            Op::Delete { tag } => self.delete(*tag, &mut rec, root),
            Op::Flush => self
                .timed_call(&mut rec, root, |c| c.flush(None).map(|(_, pages)| pages))
                .map(|_| self.log.flushes += 1),
        };
        self.spans.close(root);
        if let Err(e) = result {
            rec.failure = Some(format!("{} op {i}: {e}", KINDS[rec.kind]));
        }
        if let Some((shadow, sid)) = self.shadow {
            shadow.replay(op, sid, &rec, &mut self.spans, root);
        }
        rec
    }

    /// A buffered call timed as one client span; returns its row count.
    fn timed_call(
        &mut self,
        rec: &mut OpRecord,
        root: usize,
        f: impl FnOnce(&GvdbClient) -> Result<u64, ClientError>,
    ) -> Result<(), String> {
        let t = Instant::now();
        let span = self.spans.open("client.call", Some(root));
        let out = f(&self.client);
        self.spans.close(span);
        rec.ms = t.elapsed().as_secs_f64() * 1e3;
        rec.rows = out.map_err(|e| e.to_string())?;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn view(
        &mut self,
        i: usize,
        layer: usize,
        rect: &Rect,
        pred: Option<&gvdb_api::Predicate>,
        keep: bool,
        rec: &mut OpRecord,
        root: usize,
    ) -> Result<(), String> {
        let params = WindowParams {
            layer: Some(layer),
            window: dto(rect),
            session: pred.is_none().then_some(self.id),
            packed: true,
            predicate: pred.cloned(),
            ..Default::default()
        };
        let span = self.spans.open("client.open", Some(root));
        let mut stream = self
            .client
            .window_stream(&params)
            .map_err(|e| e.to_string())?;
        self.spans.close(span);
        let mut delivered: Vec<RowKey> = Vec::new();
        loop {
            let span = self.spans.open("client.recv", Some(root));
            let batch = stream.next_batch_raw().map_err(|e| e.to_string())?;
            self.spans.close(span);
            let Some(batch) = batch else { break };
            let span = self.spans.open("api.unpack", Some(root));
            match &batch {
                RowBatch::Packed { rows, .. } => {
                    delivered.extend(rows.edges.iter().map(|e| (e.rid, e.source, e.target)))
                }
                RowBatch::Graph { graph, .. } => plain_edges(graph, &mut delivered),
                RowBatch::Hits { .. } => return Err("hits batch in a window stream".into()),
            }
            // What a client does before painting: the plain fragment.
            std::hint::black_box(batch.into_plain());
            self.spans.close(span);
        }
        rec.ms = stream.elapsed_ms();
        rec.header_ms = stream.header_ms();
        rec.ttfr_ms = stream.first_rows_ms();
        rec.wire_bytes = stream.rows_wire_bytes();
        rec.source = stream.header.source;
        let trailer = stream.trailer().ok_or("stream ended without a trailer")?;
        rec.rows = delivered.len() as u64;
        rec.rows_reused = trailer.rows_reused;
        rec.rows_fetched = trailer.rows_fetched;
        if trailer.rows != rec.rows {
            return Err(format!(
                "{} rows delivered, trailer says {}",
                rec.rows, trailer.rows
            ));
        }
        for &(rid, ..) in &delivered {
            self.log.rows_digest = fnv(self.log.rows_digest, rid);
        }
        if pred.is_some() {
            return Ok(());
        }
        if let Some((rid, present)) = self.expect_next.take() {
            if delivered.iter().any(|r| r.0 == rid) != present {
                let what = if present { "missing" } else { "still shown" };
                return Err(format!("edited row {rid} {what} on the next view"));
            }
        }
        if keep && i.is_multiple_of(REF_SAMPLE_EVERY) {
            let inserted = if layer == 0 {
                self.live
                    .values()
                    .filter(|(_, e)| {
                        gvdb_core::service::edge_row(e)
                            .geometry
                            .segment()
                            .intersects_rect(rect)
                    })
                    .map(|(rid, e)| (*rid, e.node1_id, e.node2_id))
                    .collect()
            } else {
                Vec::new()
            };
            delivered.sort_unstable();
            self.log.samples.push(RefSample {
                layer,
                rect: *rect,
                delivered,
                inserted,
            });
        }
        Ok(())
    }

    fn search(
        &mut self,
        keyword: &str,
        expect: Option<u64>,
        rec: &mut OpRecord,
        root: usize,
    ) -> Result<(), String> {
        let t = Instant::now();
        let span = self.spans.open("client.call", Some(root));
        let hits = self.client.search(None, 0, keyword);
        self.spans.close(span);
        rec.ms = t.elapsed().as_secs_f64() * 1e3;
        let hits = hits.map_err(|e| e.to_string())?;
        rec.rows = hits.len() as u64;
        for h in &hits {
            self.log.rows_digest = fnv(self.log.rows_digest, h.node);
        }
        match expect {
            Some(node) if !hits.iter().any(|h| h.node == node) => {
                Err(format!("'{keyword}' did not find node {node}"))
            }
            None if !hits.is_empty() => Err(format!("'{keyword}' should find nothing")),
            _ => Ok(()),
        }
    }

    fn insert(
        &mut self,
        tag: u64,
        edge: &EdgeDto,
        rec: &mut OpRecord,
        root: usize,
    ) -> Result<(), String> {
        let mut rid = None;
        self.timed_call(rec, root, |c| {
            c.insert_edge(None, 0, edge.clone()).map(|m| {
                rid = m.rid;
                1
            })
        })?;
        let rid = rid.ok_or("insert acknowledged without a row id")?;
        self.live.insert(tag, (rid, edge.clone()));
        self.expect_next = Some((rid, true));
        self.log.edits.push(AckedEdit {
            rid,
            node1: edge.node1_id,
            insert: true,
            flushes_before: self.log.flushes,
        });
        Ok(())
    }

    fn delete(&mut self, tag: u64, rec: &mut OpRecord, root: usize) -> Result<(), String> {
        let (rid, edge) = self
            .live
            .remove(&tag)
            .ok_or_else(|| format!("edge {tag} was never acknowledged"))?;
        self.timed_call(rec, root, |c| c.delete_edge(None, 0, rid).map(|_| 1))?;
        self.expect_next = Some((rid, false));
        self.log.edits.push(AckedEdit {
            rid,
            node1: edge.node1_id,
            insert: false,
            flushes_before: self.log.flushes,
        });
        Ok(())
    }

    pub fn close(self) -> (SessionLog, SpanLog) {
        let _ = self.client.session_close(None, self.id);
        (self.log, self.spans)
    }
}

/// Counters read from `/v1/stats` for the single served dataset.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub evictions: u64,
    pub cache_hits: u64,
    pub partial_hits: u64,
    pub cache_misses: u64,
    pub index_path: u64,
    pub scan_path: u64,
    pub rejected: u64,
}

impl Counters {
    pub fn read(addr: &str) -> Result<Counters, String> {
        let stats: StatsDto = GvdbClient::new(addr.to_string())
            .stats()
            .map_err(|e| format!("stats: {e}"))?;
        let d = stats.datasets.first().ok_or("stats list no dataset")?;
        Ok(Counters {
            pool_hits: d.pool.hits,
            pool_misses: d.pool.misses,
            evictions: d.pool.evictions,
            cache_hits: d.cache.hits,
            partial_hits: d.cache.partial_hits,
            cache_misses: d.cache.misses,
            index_path: d.chooser.index,
            scan_path: d.chooser.scan,
            rejected: stats.rejected,
        })
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            evictions: self.evictions - before.evictions,
            cache_hits: self.cache_hits - before.cache_hits,
            partial_hits: self.partial_hits - before.partial_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            index_path: self.index_path - before.index_path,
            scan_path: self.scan_path - before.scan_path,
            rejected: self.rejected - before.rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fragment_edges() {
        let mut out = Vec::new();
        plain_edges(
            "{\"nodes\":[{\"id\":1,\"label\":\"a\",\"x\":0.0,\"y\":0.0}],\"edges\":[\
             {\"id\":70,\"source\":1,\"target\":2,\"label\":\"x\",\"directed\":true},\
             {\"id\":71,\"source\":2,\"target\":1,\"label\":\"y\",\"directed\":false}]}",
            &mut out,
        );
        assert_eq!(out, vec![(70, 1, 2), (71, 2, 1)]);
    }
}
