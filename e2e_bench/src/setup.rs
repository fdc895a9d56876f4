//! Set-up: generate a dataset, preprocess it into a database in this
//! process, and start `gvdb serve` on it as a separate process.

use crate::workload::{keyword_of, DatasetKind, Node, Plane};
use gvdb_core::{preprocess, OrganizerConfig, PreprocessConfig};
use gvdb_spatial::Rect;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Seconds spent in each set-up stage (paper Table I plus serving).
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub generate: f64,
    /// Preprocessing steps 1–5 as `PreprocessReport::times` has them.
    pub steps: [f64; 5],
    /// `gvdb serve` spawned → banner printed → `/v1/healthz` answered.
    pub open: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.steps.iter().sum::<f64>() + self.open
    }
}

/// A preprocessed dataset on disk.
pub struct Dataset {
    pub path: PathBuf,
    pub plane: Plane,
    pub nodes: usize,
    pub edges: usize,
    pub layers: usize,
}

/// Generate `kind` and preprocess it into `path`, timing each stage.
pub fn build_dataset(kind: DatasetKind, path: &Path, times: &mut SetupTimes) -> Dataset {
    let t = Instant::now();
    let dataset = match kind {
        DatasetKind::Patent => gvdb_bench::Dataset::Patent,
        DatasetKind::Wikidata => gvdb_bench::Dataset::Wikidata,
    };
    let graph = dataset.generate(kind.scale());
    times.generate = t.elapsed().as_secs_f64();

    // The tiling of `gvdb_bench::prepare` (Fig. 3-calibrated density),
    // writing to a path inside the benchmark's own directory.
    let total_objects = (graph.node_count() + graph.edge_count()) as f64;
    let budget = (graph.node_count() / 32).max(256);
    let k = gvdb_partition::suggest_k(graph.node_count(), budget);
    let plane_side = (total_objects / gvdb_bench::FIG3_DENSITY).sqrt();
    let tile = plane_side / (k as f64).sqrt().ceil();
    let cfg = PreprocessConfig {
        partition_node_budget: budget,
        organizer: OrganizerConfig { tile, padding: 0.1 },
        ..Default::default()
    };
    let (db, report) = preprocess(&graph, path, &cfg).expect("preprocessing failed");
    drop(db);
    let st = &report.times;
    times.steps = [
        st.partitioning.as_secs_f64(),
        st.layout.as_secs_f64(),
        st.organize.as_secs_f64(),
        st.abstraction.as_secs_f64(),
        st.indexing.as_secs_f64(),
    ];

    let layers = report
        .hierarchy
        .layers
        .iter()
        .map(|l| bounds(&l.positions))
        .collect::<Vec<_>>();
    let positions = &report.hierarchy.layers[0].positions;
    let nodes = (0..graph.node_count())
        .filter_map(|v| {
            let keyword = keyword_of(graph.node_label(gvdb_graph::NodeId(v as u32)))?;
            let (x, y) = positions[v];
            Some(Node {
                id: v as u64,
                keyword,
                x,
                y,
            })
        })
        .collect();
    Dataset {
        path: path.to_path_buf(),
        plane: Plane { layers, nodes },
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        layers: report.hierarchy.layers.len(),
    }
}

fn bounds(pos: &[(f64, f64)]) -> Rect {
    let mut r = Rect::new(
        f64::INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    for &(x, y) in pos {
        r.min_x = r.min_x.min(x);
        r.min_y = r.min_y.min(y);
        r.max_x = r.max_x.max(x);
        r.max_y = r.max_y.max(y);
    }
    if pos.is_empty() {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    } else {
        r
    }
}

/// A running `gvdb serve` process. Dropping it kills the process and
/// waits for it.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Start `gvdb serve <db> --workers <workers>` on a free local port
    /// and wait until it answers `/v1/healthz`.
    pub fn start(gvdb: &Path, db: &Path, workers: usize) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(gvdb)
            .arg("serve")
            .arg(db)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", gvdb.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("gvdb serve exited before printing its address".into());
            }
            addr = line.split("http://").nth(1).map(|a| a.trim().to_string());
        }
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.expect("address parsed"),
        };
        let client = gvdb_client::GvdbClient::new(server.addr.clone());
        let deadline = Instant::now() + Duration::from_secs(30);
        while !client.healthz().unwrap_or(false) {
            if Instant::now() > deadline {
                return Err("gvdb serve did not become healthy".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok((server, t.elapsed().as_secs_f64()))
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (VmHWM) of the server process, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(f64::NAN)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
