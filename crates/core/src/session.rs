//! Interactive exploration sessions: the server-side state behind the
//! paper's Web UI panels — viewport (Visualization), layer selection
//! (Control), filters (Filter), and edits (Edit).
//!
//! A [`Session`] tracks the client's viewing window in plane coordinates.
//! Every user action maps onto a [`crate::QueryManager`] call, exactly as
//! §II-B describes: panning moves the window; vertical navigation switches
//! the layer table; zoom rescales the window; keyword hits recenter it.

use crate::query::{QueryManager, WindowResponse};
use gvdb_spatial::{Point, Rect};
use gvdb_storage::{EdgeRow, Result, RowId, StorageError};
use std::collections::HashSet;

/// Client-side filter state (the Filter panel): hide edges by label and
/// nodes by label substring (e.g., hide RDF literals).
#[derive(Debug, Clone, Default)]
pub struct Filters {
    /// Edge labels to hide (exact match).
    pub hidden_edge_labels: HashSet<String>,
    /// Node-label substrings to hide; a row is dropped when either
    /// endpoint matches.
    pub hidden_node_substrings: Vec<String>,
}

impl Filters {
    /// Whether a row survives the filters.
    pub fn keeps(&self, row: &EdgeRow) -> bool {
        if self.hidden_edge_labels.contains(&*row.edge_label) {
            return false;
        }
        for s in &self.hidden_node_substrings {
            if row.node1_label.contains(s.as_str()) || row.node2_label.contains(s.as_str()) {
                return false;
            }
        }
        true
    }
}

/// One user's exploration session.
#[derive(Debug)]
pub struct Session {
    layer: usize,
    window: Rect,
    zoom: f64,
    filters: Filters,
    /// The window *before* the most recent pan/zoom on the current
    /// layer — the delta anchor passed to
    /// [`QueryManager::window_query_anchored`], so consecutive viewports
    /// reuse their overlap instead of re-running the full query. Cleared
    /// on layer changes (an anchor never spans layers).
    anchor: Option<Rect>,
}

impl Session {
    /// Start a session on layer 0 with the given initial window.
    pub fn new(window: Rect) -> Self {
        Session {
            layer: 0,
            window,
            zoom: 1.0,
            filters: Filters::default(),
            anchor: None,
        }
    }

    /// The delta anchor the next [`Session::view`] will pass along (the
    /// previous window on this layer, if any).
    pub fn anchor(&self) -> Option<Rect> {
        self.anchor
    }

    /// Remember the current window as the anchor for the next view.
    fn rebase_anchor(&mut self) {
        self.anchor = Some(self.window);
    }

    /// Current abstraction layer.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Current viewing window.
    pub fn window(&self) -> Rect {
        self.window
    }

    /// Current zoom factor (1.0 = native).
    pub fn zoom(&self) -> f64 {
        self.zoom
    }

    /// Mutable filter state.
    pub fn filters_mut(&mut self) -> &mut Filters {
        &mut self.filters
    }

    /// Whether any display filter is active — a filtered view rebuilds
    /// its payload from the filtered rows, so the streaming path cannot
    /// slice the cached (unfiltered) payload directly.
    pub fn has_filters(&self) -> bool {
        !self.filters.hidden_edge_labels.is_empty()
            || !self.filters.hidden_node_substrings.is_empty()
    }

    /// Fetch the current viewport's sub-graph, filters applied. The
    /// previous window on this layer rides along as the delta anchor, so
    /// a view following a pan or zoom is answered incrementally (see
    /// [`QueryManager::window_query_anchored`]).
    pub fn view(&self, qm: &QueryManager) -> Result<WindowResponse> {
        let mut resp = qm.window_query_anchored(self.layer, &self.window, self.anchor.as_ref())?;
        if !self.filters.hidden_edge_labels.is_empty()
            || !self.filters.hidden_node_substrings.is_empty()
        {
            // Copy-on-write: the response may share its rows with the
            // window cache; make_mut clones only in that case, so the
            // cached (unfiltered) entry is never mutated.
            let rows = std::sync::Arc::make_mut(&mut resp.rows);
            rows.retain(|(_, row)| self.filters.keeps(row));
            // Rebuild the payload from the filtered rows (filtering is a
            // client-side concept, but the server prunes the stream),
            // priced with the manager's configured client model.
            resp.json = std::sync::Arc::new(crate::json::build_graph_json(rows));
            resp.client = qm.client_model().deliver(&resp.json);
        }
        Ok(resp)
    }

    /// Horizontal navigation: move the window by `(dx, dy)` plane units.
    /// The pre-pan window becomes the delta anchor of the next view.
    pub fn pan(&mut self, dx: f64, dy: f64) {
        self.rebase_anchor();
        self.window = Rect::new(
            self.window.min_x + dx,
            self.window.min_y + dy,
            self.window.max_x + dx,
            self.window.max_y + dy,
        );
    }

    /// Zoom: `factor > 1` zooms in (smaller window), `< 1` zooms out —
    /// "the size of the window ... is decreased/increased proportionally
    /// according to the zoom level".
    ///
    /// # Panics
    /// Panics if `factor` is not positive.
    pub fn zoom_by(&mut self, factor: f64) {
        assert!(factor > 0.0, "zoom factor must be positive");
        self.rebase_anchor();
        self.zoom *= factor;
        let c = self.window.center();
        let w = self.window.width() / factor;
        let h = self.window.height() / factor;
        self.window = Rect::centered(c, w, h);
    }

    /// Vertical navigation: move one layer up (more abstract).
    pub fn layer_up(&mut self, qm: &QueryManager) -> Result<()> {
        if self.layer + 1 >= qm.layer_count() {
            return Err(StorageError::LayerNotFound(format!(
                "no layer above {}",
                self.layer
            )));
        }
        self.layer += 1;
        self.anchor = None;
        Ok(())
    }

    /// Vertical navigation: move one layer down (more detail).
    pub fn layer_down(&mut self) -> Result<()> {
        if self.layer == 0 {
            return Err(StorageError::LayerNotFound("no layer below 0".into()));
        }
        self.layer -= 1;
        self.anchor = None;
        Ok(())
    }

    /// Jump to a specific layer.
    pub fn set_layer(&mut self, qm: &QueryManager, layer: usize) -> Result<()> {
        if layer >= qm.layer_count() {
            return Err(StorageError::LayerNotFound(format!("index {layer}")));
        }
        if layer != self.layer {
            self.anchor = None;
        }
        self.layer = layer;
        Ok(())
    }

    /// Recenter the window on a point (keyword-search result click). The
    /// pre-focus window anchors the next view — a focus jump near the
    /// current viewport still pans incrementally.
    pub fn focus(&mut self, p: Point) {
        self.rebase_anchor();
        self.window = Rect::centered(p, self.window.width(), self.window.height());
    }

    /// Jump the viewport to an absolute window (how a stateless HTTP
    /// client expresses a pan/zoom: each request carries the full target
    /// rectangle). The previous window becomes the delta anchor, so a
    /// session-tagged request overlapping its predecessor is answered
    /// incrementally exactly like a [`Session::pan`]. A no-op when the
    /// window is unchanged (the anchor is left alone so an exact repeat
    /// stays an exact cache hit).
    pub fn navigate(&mut self, window: Rect) {
        if window == self.window {
            return;
        }
        self.rebase_anchor();
        self.window = window;
    }

    /// Zoom with automatic vertical navigation — the paper's coupling of
    /// zoom and layer ("Vertical navigation can be combined with
    /// traditional zoom in/out operations in order to give the impression
    /// of a lower/higher perspective"): each halving of the zoom level
    /// moves one abstraction layer up, each doubling one layer down.
    ///
    /// Returns the layer in effect after the operation.
    pub fn zoom_with_auto_layer(&mut self, qm: &QueryManager, factor: f64) -> Result<usize> {
        self.zoom_by(factor);
        // zoom = 1.0 -> layer 0; 0.5 -> 1; 0.25 -> 2; ... Clamp into range.
        let ideal = (-self.zoom.log2()).floor();
        let max_layer = qm.layer_count().saturating_sub(1);
        let target = if ideal <= 0.0 {
            0
        } else {
            (ideal as usize).min(max_layer)
        };
        self.layer = target;
        Ok(target)
    }

    /// Edit: persist a new edge drawn on the canvas. Goes through the
    /// layer-aware shared edit path (`&QueryManager` — concurrent
    /// sessions keep reading while the edit briefly takes the write
    /// lock), so only this layer's cached windows are invalidated and
    /// only this layer's epoch advances.
    pub fn add_edge(&self, qm: &QueryManager, row: &EdgeRow) -> Result<RowId> {
        qm.insert_row(self.layer, row)
    }

    /// Edit: delete an edge from the canvas (layer-scoped invalidation,
    /// see [`Session::add_edge`]).
    pub fn delete_edge(&self, qm: &QueryManager, rid: RowId) -> Result<()> {
        qm.delete_row(self.layer, rid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessConfig};
    use gvdb_graph::generators::wikidata_like;
    use gvdb_graph::generators::RdfConfig;
    use gvdb_storage::EdgeGeometry;

    fn setup(name: &str) -> (QueryManager, std::path::PathBuf) {
        let g = wikidata_like(RdfConfig {
            entities: 300,
            ..Default::default()
        });
        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-session-{name}-{}", std::process::id()));
        let (db, _) = preprocess(
            &g,
            &path,
            &PreprocessConfig {
                k: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        (QueryManager::new(db), path)
    }

    #[test]
    fn pan_moves_window() {
        let (_qm, path) = setup("pan");
        let mut s = Session::new(Rect::new(0.0, 0.0, 100.0, 100.0));
        s.pan(50.0, -20.0);
        assert_eq!(s.window(), Rect::new(50.0, -20.0, 150.0, 80.0));
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    fn zoom_rescales_around_center() {
        let (_qm, path) = setup("zoom");
        let mut s = Session::new(Rect::new(0.0, 0.0, 100.0, 100.0));
        s.zoom_by(2.0);
        assert_eq!(s.window(), Rect::new(25.0, 25.0, 75.0, 75.0));
        s.zoom_by(0.5);
        assert_eq!(s.window(), Rect::new(0.0, 0.0, 100.0, 100.0));
        assert!((s.zoom() - 1.0).abs() < 1e-12);
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    fn layer_navigation_bounds_checked() {
        let (qm, path) = setup("layers");
        let mut s = Session::new(Rect::new(0.0, 0.0, 500.0, 500.0));
        assert!(s.layer_down().is_err());
        s.layer_up(&qm).unwrap();
        assert_eq!(s.layer(), 1);
        s.layer_down().unwrap();
        assert_eq!(s.layer(), 0);
        assert!(s.set_layer(&qm, 999).is_err());
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    fn filters_hide_rdf_literals() {
        let (qm, path) = setup("filters");
        let mut s = Session::new(Rect::new(-1e9, -1e9, 1e9, 1e9));
        let unfiltered = s.view(&qm).unwrap().rows.len();
        s.filters_mut().hidden_node_substrings.push("\"".into()); // literals
        let filtered = s.view(&qm).unwrap();
        assert!(filtered.rows.len() < unfiltered);
        for (_, row) in filtered.rows.iter() {
            assert!(!row.node1_label.starts_with('"'));
            assert!(!row.node2_label.starts_with('"'));
        }
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    fn filters_hide_edge_types() {
        let (qm, path) = setup("edgefilter");
        let mut s = Session::new(Rect::new(-1e9, -1e9, 1e9, 1e9));
        s.filters_mut()
            .hidden_edge_labels
            .insert("rdfs:label".into());
        let resp = s.view(&qm).unwrap();
        assert!(resp
            .rows
            .iter()
            .all(|(_, r)| &*r.edge_label != "rdfs:label"));
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    fn edit_roundtrip_via_session() {
        let (qm, path) = setup("edit");
        let s = Session::new(Rect::new(0.0, 0.0, 10.0, 10.0));
        let row = EdgeRow {
            node1_id: 900_001,
            node1_label: "manual node A".into(),
            geometry: EdgeGeometry {
                x1: 1.0,
                y1: 1.0,
                x2: 9.0,
                y2: 9.0,
                directed: false,
            },
            edge_label: "hand-drawn".into(),
            node2_id: 900_002,
            node2_label: "manual node B".into(),
        };
        let rid = s.add_edge(&qm, &row).unwrap();
        let resp = s.view(&qm).unwrap();
        assert!(resp.rows.iter().any(|(r, _)| *r == rid));
        s.delete_edge(&qm, rid).unwrap();
        let resp = s.view(&qm).unwrap();
        assert!(!resp.rows.iter().any(|(r, _)| *r == rid));
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    #[should_panic(expected = "zoom factor must be positive")]
    fn invalid_zoom_panics() {
        let mut s = Session::new(Rect::new(0.0, 0.0, 1.0, 1.0));
        s.zoom_by(0.0);
    }

    #[test]
    fn pan_view_rides_the_delta_path() {
        let (qm, path) = setup("deltaview");
        let mut s = Session::new(Rect::new(0.0, 0.0, 2000.0, 2000.0));
        assert!(s.anchor().is_none());
        let first = s.view(&qm).unwrap();
        assert!(!first.delta && !first.cache_hit);

        s.pan(300.0, 0.0); // 85% overlap
        assert_eq!(s.anchor(), Some(Rect::new(0.0, 0.0, 2000.0, 2000.0)));
        let second = s.view(&qm).unwrap();
        assert!(second.delta, "a panned view must be incremental");
        assert!(second.rows_reused > 0);
        // The delta result matches a cold query of the same window.
        // (One guard for both lookups: re-entrant `qm.db()` calls in a
        // single expression could deadlock against a queued writer.)
        let db = qm.db();
        let cold = db
            .layer(0)
            .unwrap()
            .window(db.pool(), &s.window(), true)
            .unwrap();
        drop(db);
        assert_eq!(*second.rows, cold);

        // Zoom keeps anchoring too.
        s.zoom_by(1.25);
        let third = s.view(&qm).unwrap();
        assert!(third.delta || third.cache_hit);
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    fn navigate_anchors_like_a_pan() {
        let (qm, path) = setup("navigate");
        let mut s = Session::new(Rect::new(0.0, 0.0, 2000.0, 2000.0));
        let first = s.view(&qm).unwrap();
        assert!(!first.delta && !first.cache_hit);

        // An absolute jump overlapping the previous window (how an HTTP
        // client pans) must ride the delta path.
        s.navigate(Rect::new(300.0, 0.0, 2300.0, 2000.0));
        assert_eq!(s.anchor(), Some(Rect::new(0.0, 0.0, 2000.0, 2000.0)));
        let second = s.view(&qm).unwrap();
        assert!(second.delta, "overlapping navigate must be incremental");

        // Navigating to the same window is a no-op: the anchor survives
        // and the repeat is an exact cache hit.
        let anchor = s.anchor();
        s.navigate(s.window());
        assert_eq!(s.anchor(), anchor);
        assert!(s.view(&qm).unwrap().cache_hit);
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    fn layer_change_clears_the_anchor() {
        let (qm, path) = setup("anchorclear");
        let mut s = Session::new(Rect::new(0.0, 0.0, 800.0, 800.0));
        s.pan(10.0, 10.0);
        assert!(s.anchor().is_some());
        s.layer_up(&qm).unwrap();
        assert!(s.anchor().is_none(), "anchors never span layers");
        s.pan(5.0, 5.0);
        s.layer_down().unwrap();
        assert!(s.anchor().is_none());
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    fn session_edits_keep_other_layers_cached() {
        let (qm, path) = setup("scopededit");
        let w = Rect::new(-1e6, -1e6, 1e6, 1e6);
        let s0 = Session::new(w);
        let mut s1 = Session::new(w);
        s1.set_layer(&qm, 1).unwrap();
        s0.view(&qm).unwrap();
        s1.view(&qm).unwrap();

        let row = EdgeRow {
            node1_id: 910_001,
            node1_label: "scoped A".into(),
            geometry: EdgeGeometry {
                x1: 0.0,
                y1: 0.0,
                x2: 5.0,
                y2: 5.0,
                directed: false,
            },
            edge_label: "scoped".into(),
            node2_id: 910_002,
            node2_label: "scoped B".into(),
        };
        s0.add_edge(&qm, &row).unwrap();
        assert!(!s0.view(&qm).unwrap().cache_hit, "edited layer refreshed");
        assert!(
            s1.view(&qm).unwrap().cache_hit,
            "the other layer's cached window survives the edit"
        );
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }

    #[test]
    fn auto_layer_follows_zoom() {
        let (qm, path) = setup("autolayer");
        let layers = qm.layer_count();
        assert!(layers >= 3, "need a few layers for this test");
        let mut s = Session::new(Rect::new(0.0, 0.0, 1000.0, 1000.0));
        // Zoom out by 2x: one layer up.
        assert_eq!(s.zoom_with_auto_layer(&qm, 0.5).unwrap(), 1);
        // Another 2x out: layer 2.
        assert_eq!(s.zoom_with_auto_layer(&qm, 0.5).unwrap(), 2);
        // Way out: clamped to the top layer.
        assert_eq!(
            s.zoom_with_auto_layer(&qm, 1.0 / 1024.0).unwrap(),
            layers - 1
        );
        // Zoom back in past native: layer 0.
        assert_eq!(s.zoom_with_auto_layer(&qm, 8192.0).unwrap(), 0);
        std::fs::remove_file(&path).ok();
        gvdb_storage::wal::remove_all(&path).ok();
    }
}
