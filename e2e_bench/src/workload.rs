//! The three workloads and their seeded operation lists.
//!
//! An operation list is a pure function of the seed, the session index
//! and the dataset's plane, so the same seed replays the same session
//! over the socket, in the traced in-process replay, and in a later run.
//! Nothing here reads a clock or the server.

use gvdb_api::{EdgeDto, Field, Predicate};
use gvdb_spatial::Rect;
use std::collections::VecDeque;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One session pans, zooms and returns over a band of the
    /// patent-like plane: the cache, delta and packing paths.
    Roam,
    /// One session of search-driven jumps over the wikidata-like plane,
    /// whose database is about three times the server's buffer pool:
    /// the pool, R-tree, heap fetch, keyword index and cold path.
    Explore,
    /// One session panning the patent-like plane while inserting and
    /// deleting edges and flushing: invalidation and the write path.
    Edit,
}

/// Which synthetic dataset a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// `patent_like` at 1/300 of the paper's Patent graph.
    Patent,
    /// `wikidata_like` at 1/3000 of the paper's Wikidata graph.
    Wikidata,
}

impl DatasetKind {
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Patent => "patent_like/300",
            DatasetKind::Wikidata => "wikidata_like/3000",
        }
    }

    /// Down-scaling factor against the paper's dataset.
    pub fn scale(self) -> u64 {
        match self {
            DatasetKind::Patent => 300,
            DatasetKind::Wikidata => 3000,
        }
    }
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "roam" => Some(Workload::Roam),
            "explore" => Some(Workload::Explore),
            "edit" => Some(Workload::Edit),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Roam => "roam",
            Workload::Explore => "explore",
            Workload::Edit => "edit",
        }
    }

    pub fn dataset(self) -> DatasetKind {
        match self {
            Workload::Explore => DatasetKind::Wikidata,
            Workload::Roam | Workload::Edit => DatasetKind::Patent,
        }
    }

    /// Concurrent sessions, each on its own client thread. The server
    /// gets one worker per session. One for every workload: with two
    /// `roam` sessions on a shared 2-CPU host, every slice of CPU another
    /// tenant took stretched both sessions' ping-pong with the server,
    /// and the quartile spread of `roam`'s medians over ten seeds reached
    /// 0.22–0.25 (its p95s 0.36–0.40), at the ceiling of any bound.
    pub fn sessions(self) -> usize {
        1
    }

    /// Viewport side as a share of the layer-0 plane's shorter side.
    pub fn view_frac(self) -> f64 {
        match self {
            Workload::Roam | Workload::Edit => 0.025,
            Workload::Explore => 0.04,
        }
    }

    /// Timed operations per session for a `--seconds 10` run; other
    /// durations scale it. The count, never the clock, ends a run, so
    /// every run of a seed does the same work.
    pub fn ops_per_session(self, seconds: u64) -> usize {
        let base = match self {
            Workload::Roam => 2000,
            // Explore counts steps (search, focus, two or three windows).
            Workload::Explore => 640,
            Workload::Edit => 2100,
        };
        (base * seconds.max(1) as usize).div_ceil(10)
    }

    /// Operations per session in one warm-up round.
    pub fn warmup_round(self) -> usize {
        match self {
            Workload::Explore => 60,
            Workload::Roam | Workload::Edit => 150,
        }
    }
}

/// One user operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A streamed, packed, session-anchored window.
    View { layer: usize, rect: Rect },
    /// A keyword search on layer 0; `expect` is a node that must be among
    /// the hits, `None` a keyword that must find nothing.
    Search {
        keyword: String,
        expect: Option<u64>,
    },
    /// Focus on a layer-0 node.
    Focus { node: u64 },
    /// A streamed, packed, attribute-filtered layer-0 window (no session).
    Filtered { rect: Rect, pred: Predicate },
    /// Insert `edge` into layer 0; `tag` names it for a later delete.
    Insert { tag: u64, edge: EdgeDto },
    /// Delete the edge inserted under `tag`.
    Delete { tag: u64 },
    /// Checkpoint the dataset (`/v1/flush`).
    Flush,
}

/// Operation classes for accounting.
pub const KINDS: [&str; 6] = ["view", "search", "focus", "filtered", "edit", "flush"];

impl Op {
    /// Index into [`KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Op::View { .. } => 0,
            Op::Search { .. } => 1,
            Op::Focus { .. } => 2,
            Op::Filtered { .. } => 3,
            Op::Insert { .. } | Op::Delete { .. } => 4,
            Op::Flush => 5,
        }
    }
}

/// What the generators need to know about a preprocessed dataset.
pub struct Plane {
    /// Bounds of each layer's node positions, layer 0 first.
    pub layers: Vec<Rect>,
    /// Layer-0 nodes a search can target.
    pub nodes: Vec<Node>,
}

/// A layer-0 node a search can target.
#[derive(Debug, Clone)]
pub struct Node {
    pub id: u64,
    /// The word searched for (see [`keyword_of`]).
    pub keyword: String,
    pub x: f64,
    pub y: f64,
}

impl Plane {
    /// Viewport side of `w`.
    pub fn side(&self, w: Workload) -> f64 {
        let b = &self.layers[0];
        b.width().min(b.height()) * w.view_frac()
    }

    /// The region `w`'s session stays in. `roam` and `edit` keep to the
    /// top fifth of the plane, small enough that most of their pages fit
    /// the server's pool and away from the centre, where the long edges
    /// of the layout make every window fetch thousands of candidates.
    /// `explore` jumps over the whole plane.
    pub fn region(&self, w: Workload) -> Rect {
        let b = self.layers[0];
        if w == Workload::Explore {
            return b;
        }
        Rect::new(b.min_x, b.min_y + b.height() * 0.8, b.max_x, b.max_y)
    }
}

/// The searchable word of a node label: its last alphanumeric run
/// (`patent US3001234` → `US3001234`, `Ada (Q12345)` → `Q12345`).
/// Literal nodes (quoted labels) are not search targets, nor are words
/// shorter than 5 characters: the word-suffix index matches `Q123` in
/// every `Q123…` label, up to a hundred nodes whose positions the search
/// resolves, and how many of those a seed drew would set the search
/// tail.
pub fn keyword_of(label: &str) -> Option<String> {
    if label.starts_with('"') {
        return None;
    }
    let word = label
        .split(|c: char| !c.is_ascii_alphanumeric())
        .rfind(|w| !w.is_empty())?;
    (word.len() >= 5).then(|| word.to_string())
}

/// SplitMix64: a tiny deterministic generator, so operation lists do not
/// depend on any library's sampling algorithm.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }
}

/// Streams of the seed's generator: timed sessions and warm-up rounds
/// draw from disjoint streams.
const TIMED_STREAM: u64 = 1;
const WARMUP_STREAM: u64 = 1 << 32;

/// Node ids for inserted edges start here, far above any dataset id.
pub const EDIT_NODE_BASE: u64 = 1 << 40;

/// Session `s`'s timed operations.
pub fn timed_ops(w: Workload, plane: &Plane, seed: u64, s: usize, seconds: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, TIMED_STREAM + s as u64);
    generate(w, plane, &mut rng, w.ops_per_session(seconds), true)
}

/// Session `s`'s operations for warm-up round `round` (reads only).
pub fn warmup_ops(w: Workload, plane: &Plane, seed: u64, s: usize, round: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, WARMUP_STREAM + (round * 16 + s) as u64);
    generate(w, plane, &mut rng, w.warmup_round(), false)
}

fn generate(w: Workload, plane: &Plane, rng: &mut Rng, n: usize, edits: bool) -> Vec<Op> {
    match w {
        Workload::Roam => roam(plane, rng, n),
        Workload::Explore => explore(plane, rng, n),
        Workload::Edit => edit(plane, rng, n, edits),
    }
}

/// Clamp a `side`-square centred at `(cx, cy)` into `region`.
fn square(region: &Rect, side: f64, cx: f64, cy: f64) -> Rect {
    let x = (cx - side / 2.0).clamp(region.min_x, (region.max_x - side).max(region.min_x));
    let y = (cy - side / 2.0).clamp(region.min_y, (region.max_y - side).max(region.min_y));
    Rect::new(x, y, x + side, y + side)
}

/// A pan of 10–30% of the side in a random direction, kept in `region`.
fn pan(rng: &mut Rng, region: &Rect, rect: &Rect) -> Rect {
    let side = rect.width();
    let dist = side * rng.range(0.1, 0.3);
    let angle = rng.range(0.0, std::f64::consts::TAU);
    let c = rect.center();
    square(
        region,
        side,
        c.x + dist * angle.cos(),
        c.y + dist * angle.sin(),
    )
}

/// The layer-0 nodes inside `region`.
pub fn nodes_in<'a>(plane: &'a Plane, region: &Rect) -> Vec<&'a Node> {
    plane
        .nodes
        .iter()
        .filter(|n| {
            n.x >= region.min_x && n.x <= region.max_x && n.y >= region.min_y && n.y <= region.max_y
        })
        .collect()
}

/// Operations in one walk of a `roam` or `edit` session.
const TOUR_OPS: usize = 10;

/// Where a session's walks start. The region is cut into cells two
/// viewports wide; each cell holding nodes offers one start, its node
/// nearest the cell's centre. Each walk takes the next start of a seeded
/// order, reshuffled once all have had a walk. Every run thus covers its
/// region evenly, so runs of different seeds do comparable work, which a
/// random walk from a random start would not (the plane's density varies
/// twofold between windows, and empty windows deliver nothing to time).
struct Tours {
    starts: Vec<(f64, f64)>,
    order: Vec<usize>,
}

impl Tours {
    fn new(region: Rect, side: f64, nodes: &[&Node]) -> Tours {
        let cells = |len: f64| ((len / (2.0 * side)).floor() as usize).max(1);
        let (cols, rows) = (cells(region.width()), cells(region.height()));
        let (w, h) = (region.width() / cols as f64, region.height() / rows as f64);
        // Per cell: (squared distance to the centre, node position).
        let mut best: Vec<Option<(f64, (f64, f64))>> = vec![None; cols * rows];
        for n in nodes {
            let c = (((n.x - region.min_x) / w) as usize).min(cols - 1);
            let r = (((n.y - region.min_y) / h) as usize).min(rows - 1);
            let (cx, cy) = (
                region.min_x + w * (c as f64 + 0.5),
                region.min_y + h * (r as f64 + 0.5),
            );
            let d = (n.x - cx).powi(2) + (n.y - cy).powi(2);
            let cell = &mut best[r * cols + c];
            if cell.is_none_or(|(bd, _)| d < bd) {
                *cell = Some((d, (n.x, n.y)));
            }
        }
        let mut starts: Vec<(f64, f64)> = best.into_iter().flatten().map(|(_, p)| p).collect();
        if starts.is_empty() {
            let c = region.center();
            starts.push((c.x, c.y));
        }
        Tours {
            starts,
            order: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut Rng) -> (f64, f64) {
        if self.order.is_empty() {
            self.order = (0..self.starts.len()).collect();
            for i in (1..self.order.len()).rev() {
                let j = rng.below(i + 1);
                self.order.swap(i, j);
            }
        }
        self.starts[self.order.pop().expect("refilled above")]
    }
}

fn roam(plane: &Plane, rng: &mut Rng, n: usize) -> Vec<Op> {
    let region = plane.region(Workload::Roam);
    let side = plane.side(Workload::Roam);
    let targets = nodes_in(plane, &region);
    let top = plane.layers.len() - 1;
    let mut tours = Tours::new(region, side, &targets);
    let mut layer = 0usize;
    let mut rect = region;
    let mut recent: VecDeque<(usize, Rect)> = VecDeque::new();
    let mut ops = Vec::with_capacity(n);
    let mut tour_end = 0;
    while ops.len() < n {
        let r = rng.f64();
        if ops.len() >= tour_end {
            // Start the next walk.
            tour_end = ops.len() + TOUR_OPS;
            let (x, y) = tours.next(rng);
            layer = 0;
            rect = square(&region, side, x, y);
        } else if r < 1.0 / 20.0 && !targets.is_empty() {
            // Keyword search, then a jump to the hit on layer 0.
            let node = targets[rng.below(targets.len())];
            ops.push(Op::Search {
                keyword: node.keyword.clone(),
                expect: Some(node.id),
            });
            layer = 0;
            rect = square(&region, side, node.x, node.y);
        } else if r < 1.0 / 20.0 + 1.0 / 8.0 && !recent.is_empty() {
            // Back to a recent viewport: an exact cache hit.
            (layer, rect) = recent[rng.below(recent.len())];
        } else if r < 1.0 / 20.0 + 1.0 / 8.0 + 1.0 / 10.0 && top > 0 {
            // Zoom to the adjacent layer, same viewport.
            layer = match layer {
                0 => 1,
                l if l == top => l - 1,
                l if rng.f64() < 0.5 => l - 1,
                l => l + 1,
            };
        } else {
            rect = pan(rng, &region, &rect);
        }
        ops.push(Op::View { layer, rect });
        if !recent.contains(&(layer, rect)) {
            recent.push_back((layer, rect));
            if recent.len() > 8 {
                recent.pop_front();
            }
        }
    }
    ops.truncate(n);
    ops
}

fn explore(plane: &Plane, rng: &mut Rng, steps: usize) -> Vec<Op> {
    let region = plane.region(Workload::Explore);
    let side = plane.side(Workload::Explore);
    let top = plane.layers.len() - 1;
    let mut ops = Vec::with_capacity(steps * 5);
    for step in 0..steps {
        if rng.f64() < 0.1 {
            ops.push(Op::Search {
                keyword: format!("zq{}x", rng.next() % 1_000_000_000),
                expect: None,
            });
            continue;
        }
        let node = &plane.nodes[rng.below(plane.nodes.len())];
        ops.push(Op::Search {
            keyword: node.keyword.clone(),
            expect: Some(node.id),
        });
        ops.push(Op::Focus { node: node.id });
        let rect = square(&region, side, node.x, node.y);
        ops.push(Op::View { layer: 0, rect });
        let up = if top >= 2 { 1 + rng.below(2) } else { top };
        ops.push(Op::View { layer: up, rect });
        if step % 4 == 3 {
            // Alternate a selective label prefix, which the chooser
            // answers from the label index, with a position range, which
            // it cannot index and answers by scanning the window. The
            // window is twice the view's side, so it is neither cached
            // nor a delta of the view and goes to the chooser.
            let pred = if (step / 4) % 2 == 0 {
                Predicate::NodeLabelPrefix(node.keyword.clone())
            } else {
                Predicate::Range {
                    field: Field::X,
                    min: Some(node.x),
                    max: None,
                }
            };
            let rect = square(&region, 2.0 * side, node.x, node.y);
            ops.push(Op::Filtered { rect, pred });
        }
    }
    ops
}

fn edit(plane: &Plane, rng: &mut Rng, n: usize, edits: bool) -> Vec<Op> {
    let region = plane.region(Workload::Edit);
    let side = plane.side(Workload::Edit);
    let mut tours = Tours::new(region, side, &nodes_in(plane, &region));
    let mut rect = region;
    // Live inserted edges: (tag, viewport it was inserted in).
    let mut live: Vec<(u64, Rect)> = Vec::new();
    let mut next_tag = 0u64;
    let mut edit_count = 0usize;
    let mut ops = Vec::with_capacity(n + n / 40);
    let mut i = 0usize;
    while ops.len() < n {
        i += 1;
        if i % TOUR_OPS == 1 {
            // Start the next walk.
            let (x, y) = tours.next(rng);
            rect = square(&region, side, x, y);
            ops.push(Op::View { layer: 0, rect });
            continue;
        }
        if edits && i.is_multiple_of(3) {
            // Delete one of our edges (preferring one in view, so the
            // re-view shows it gone), or insert one in the viewport.
            let in_view = live.iter().position(|(_, r)| r.intersects(&rect));
            let delete = !live.is_empty() && (live.len() >= 8 || rng.f64() < 0.4);
            if delete {
                let at = in_view.unwrap_or(0);
                let (tag, _) = live.remove(at);
                ops.push(Op::Delete { tag });
            } else {
                let tag = next_tag;
                next_tag += 1;
                ops.push(Op::Insert {
                    tag,
                    edge: edit_edge(rng, tag, &rect),
                });
                live.push((tag, rect));
            }
            ops.push(Op::View { layer: 0, rect });
            edit_count += 1;
            if edit_count.is_multiple_of(50) {
                ops.push(Op::Flush);
            }
        } else if rng.f64() < 0.1 {
            let op = match live.last() {
                Some((tag, _)) if edits => Op::Search {
                    keyword: edit_label(*tag, 'a'),
                    expect: Some(EDIT_NODE_BASE + 2 * tag),
                },
                _ => {
                    let node = &plane.nodes[rng.below(plane.nodes.len())];
                    Op::Search {
                        keyword: node.keyword.clone(),
                        expect: Some(node.id),
                    }
                }
            };
            ops.push(op);
        } else {
            rect = pan(rng, &region, &rect);
            ops.push(Op::View { layer: 0, rect });
        }
    }
    if edits {
        // End on a checkpoint, so every acknowledged edit must survive
        // the reopen that follows the run.
        ops.push(Op::Flush);
    }
    ops
}

fn edit_label(tag: u64, end: char) -> String {
    format!("edit{tag}{end}")
}

/// A new edge between two new nodes, both inside the middle of `rect`.
fn edit_edge(rng: &mut Rng, tag: u64, rect: &Rect) -> EdgeDto {
    let mut point = || {
        (
            rng.range(
                rect.min_x + rect.width() * 0.1,
                rect.max_x - rect.width() * 0.1,
            ),
            rng.range(
                rect.min_y + rect.height() * 0.1,
                rect.max_y - rect.height() * 0.1,
            ),
        )
    };
    let (x1, y1) = point();
    let (x2, y2) = point();
    EdgeDto {
        node1_id: EDIT_NODE_BASE + 2 * tag,
        node1_label: edit_label(tag, 'a'),
        node2_id: EDIT_NODE_BASE + 2 * tag + 1,
        node2_label: edit_label(tag, 'b'),
        edge_label: "benchedit".into(),
        x1,
        y1,
        x2,
        y2,
        directed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> Plane {
        let mut rng = Rng::new(7, 0);
        let nodes = (0..500u64)
            .map(|i| Node {
                id: i,
                keyword: format!("US{}", 3_000_000 + i),
                x: rng.range(0.0, 1000.0),
                y: rng.range(0.0, 800.0),
            })
            .collect();
        Plane {
            layers: vec![
                Rect::new(0.0, 0.0, 1000.0, 800.0),
                Rect::new(5.0, 5.0, 990.0, 790.0),
                Rect::new(10.0, 10.0, 980.0, 780.0),
            ],
            nodes,
        }
    }

    #[test]
    fn same_seed_same_ops() {
        let p = plane();
        for w in [Workload::Roam, Workload::Explore, Workload::Edit] {
            for s in 0..w.sessions() {
                assert_eq!(timed_ops(w, &p, 11, s, 10), timed_ops(w, &p, 11, s, 10));
                assert_eq!(warmup_ops(w, &p, 11, s, 2), warmup_ops(w, &p, 11, s, 2));
                assert_ne!(timed_ops(w, &p, 11, s, 10), timed_ops(w, &p, 12, s, 10));
            }
        }
    }

    #[test]
    fn edit_ops_are_well_formed() {
        let p = plane();
        let ops = timed_ops(Workload::Edit, &p, 5, 0, 10);
        let mut live = std::collections::HashSet::new();
        let mut after_edit = false;
        for op in &ops {
            if after_edit {
                assert!(
                    matches!(op, Op::View { .. } | Op::Flush),
                    "edit not re-viewed"
                );
            }
            after_edit = matches!(op, Op::Insert { .. } | Op::Delete { .. });
            match op {
                Op::Insert { tag, .. } => assert!(live.insert(*tag)),
                Op::Delete { tag } => assert!(live.remove(tag), "delete of unknown edge"),
                _ => {}
            }
        }
        assert_eq!(ops.last(), Some(&Op::Flush));
        assert!(warmup_ops(Workload::Edit, &p, 5, 0, 0)
            .iter()
            .all(|op| matches!(op, Op::View { .. } | Op::Search { .. })));
    }

    #[test]
    fn keywords() {
        assert_eq!(keyword_of("patent US3001234").as_deref(), Some("US3001234"));
        assert_eq!(
            keyword_of("Ada Lovelace (Q17345)").as_deref(),
            Some("Q17345")
        );
        assert_eq!(keyword_of("Ada Lovelace (Q173)"), None);
        assert_eq!(keyword_of("\"literal 3-1\""), None);
    }
}
