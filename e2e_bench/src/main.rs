//! End-to-end benchmark of graphvizdb: seeded, fixed-length, closed-loop
//! user sessions against a `gvdb serve` process over a real socket.
//!
//! ```text
//! gvdb-e2e-bench --gvdb <path> --workload roam|explore|edit --seed N
//!                --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` additionally replays the
//! timed operations in-process on a fresh server and reports per-layer
//! metrics. A run record (and, traced, every span) is written to
//! `.bench_out/`. See `NOTES.md` for the workloads and the metrics.

mod drive;
mod layers;
mod pin;
mod setup;
mod stats;
mod trace;
mod workload;

use drive::{Counters, OpRecord, Session, SessionLog};
use setup::{build_dataset, Dataset, Server, SetupTimes};
use stats::{median, percentile, quote, ratio, JsonObj};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Shadow, SpanLog};
use workload::{timed_ops, warmup_ops, Op, Plane, Workload, KINDS};

/// Full set-ups per run; `setup_s` is their median. The timed
/// operations run in as many blocks, one after each set-up.
const SETUPS: usize = 3;
/// Warm-up rounds run until the pool and cache misses of a round no
/// longer fall below this share of the previous round's (less 2% of a
/// round's operations), or up to the cap.
const WARM_LEVEL: f64 = 0.8;
const WARM_MAX_ROUNDS: usize = 5;
/// The traced phase replays the timed operations of a run of at most
/// this many `--seconds` (a prefix of the untraced list): replaying
/// costs about 2.4 times the untraced work, and a traced run must stay
/// within its time limit at the benchmark's `--seconds`.
const TRACED_SECONDS: u64 = 10;
/// Buffer-pool pages of a `gvdb serve` dataset (`DEFAULT_CACHE_PAGES`).
const POOL_PAGES: usize = gvdb_storage::db::DEFAULT_CACHE_PAGES;

#[derive(Clone)]
struct Args {
    gvdb: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    Ok(Args {
        gvdb: PathBuf::from(get("--gvdb")?),
        workload: Workload::parse(get("--workload")?)
            .ok_or("--workload must be roam, explore or edit")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The run's scratch directory; removed (databases, WAL archives and
/// all) when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One measured phase: warm-up, then the timed operations.
struct Phase {
    sessions: Vec<(SessionLog, SpanLog)>,
    wall_s: f64,
    /// Wall time of each timed block.
    block_wall_s: Vec<f64>,
    warm_rounds: usize,
    counters: Counters,
}

/// What the traced phase adds to a `--trace 1` run.
struct Traced {
    phase: Phase,
    gaps: HashMap<&'static str, Vec<f64>>,
    probed: Vec<&'static str>,
    touched: f64,
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let gvdb = std::fs::canonicalize(&args.gvdb)
        .map_err(|e| format!("gvdb binary {}: {e}", args.gvdb.display()))?;
    let pristine = work.0.join("pristine.gvdb");
    // The first set-up's server is the one measured. The other set-ups
    // run between its timed blocks, each with a server of its own that
    // is stopped again, so the timed operations sample the host over
    // the whole run rather than one stretch of it.
    let (first, ds, server) = set_up(w, &gvdb, &work.0, 0, Some(&pristine))?;
    let mut setups = vec![first];
    let phase = run_phase(args, &ds.plane, &server, None, SETUPS, &mut |i| {
        let (times, other, other_server) = set_up(w, &gvdb, &work.0, i, None)?;
        drop(other_server);
        remove_db(&other.path);
        setups.push(times);
        Ok(())
    })?;
    let rss_mib = server.peak_rss_mib();
    drop(server);
    let mut failures: Vec<String> = Vec::new();
    check_phase(&ds.path, &pristine, &phase, &mut failures)?;
    let traced = if args.trace {
        Some(traced_phase(
            args,
            &gvdb,
            &work.0,
            &pristine,
            &ds,
            &mut failures,
        )?)
    } else {
        None
    };

    // Every failed operation and every failed check counts once.
    let mut attempted = 0u64;
    for (log, _) in phase
        .sessions
        .iter()
        .chain(traced.iter().flat_map(|t| t.phase.sessions.iter()))
    {
        attempted += log.records.len() as u64;
        failures.extend(log.records.iter().filter_map(|r| r.failure.clone()));
        failures.extend(log.warmup_failures.iter().cloned());
    }
    let failed = failures.len() as u64;

    let records: Vec<OpRecord> = phase
        .sessions
        .iter()
        .flat_map(|(log, _)| log.records.iter().cloned())
        .collect();
    let mut thin_tails: Vec<String> = Vec::new();
    let e2e = end_to_end(&phase, &records, &setups, rss_mib, &mut thin_tails);
    let db_mib = file_mib(&pristine);
    let mut record = run_record(args, &work.0, &ds, db_mib, &setups, &phase, &records)
        .raw("end_to_end", e2e.clone().build());
    let metrics = match &traced {
        Some(t) => {
            let (attr, classes) = trace::attribution(&t.phase.sessions, &records);
            let (shares, overhead) = classes
                .get("view")
                .copied()
                .unwrap_or(([f64::NAN; 5], f64::NAN));
            let layer = layers::per_layer(
                &setups, db_mib, &phase, &records, &t.phase, &t.gaps, shares, overhead, t.touched,
            );
            write_spans(w, args.seed, &t.phase)?;
            record = record
                .raw("attribution", attr)
                .raw("probed", json_list(t.probed.iter().map(|m| quote(m))))
                .num("touched_pages_per_pool_page", t.touched)
                .raw("per_layer", layer.clone().build());
            layer
        }
        None => e2e,
    };
    let record = record
        .int("attempted", attempted)
        .int("failed", failed)
        .raw(
            "failures",
            json_list(failures.iter().take(20).map(|f| quote(f))),
        )
        .build();
    std::fs::create_dir_all(".bench_out").map_err(|e| format!("create .bench_out: {e}"))?;
    let name = format!(
        ".bench_out/{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        args.trace as u8
    );
    std::fs::write(&name, &record).map_err(|e| format!("write {name}: {e}"))?;
    eprintln!("run record: {name}");
    for f in failures.iter().take(20) {
        eprintln!("failure: {f}");
    }
    // A percentile without enough samples beyond it fails the run.
    if !thin_tails.is_empty() {
        return Err(thin_tails.join("; "));
    }
    Ok(JsonObj::new()
        .raw("correct", (failed == 0).to_string())
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", metrics.build())
        .build())
}

fn json_list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// Set-up `i`: generate and preprocess the dataset into its own
/// database, copy it to `pristine` if given (untimed), and start a
/// server on it.
fn set_up(
    w: Workload,
    gvdb: &Path,
    work: &Path,
    i: usize,
    pristine: Option<&Path>,
) -> Result<(SetupTimes, Dataset, Server), String> {
    let path = work.join(format!("serve{i}.gvdb"));
    let mut times = SetupTimes::default();
    let ds = build_dataset(w.dataset(), &path, &mut times);
    if let Some(p) = pristine {
        std::fs::copy(&path, p).map_err(|e| format!("copy db: {e}"))?;
    }
    let (server, open_s) = Server::start(gvdb, &path, w.sessions())?;
    times.open = open_s;
    eprintln!(
        "setup {i}: {:.3} s (generate {:.3}, steps {:?}, open {:.3})",
        times.total(),
        times.generate,
        times.steps,
        times.open
    );
    Ok((times, ds, server))
}

/// A fresh server on a pristine copy runs the same warm-up and timed
/// operations, each replayed in-process; then the gap probe and the
/// touched-pages count.
fn traced_phase(
    args: &Args,
    gvdb: &Path,
    work: &Path,
    pristine: &Path,
    ds: &Dataset,
    failures: &mut Vec<String>,
) -> Result<Traced, String> {
    let w = args.workload;
    let served = work.join("traced.gvdb");
    let shadow_db = work.join("shadow.gvdb");
    let probe_db = work.join("probe-edits.gvdb");
    for p in [&served, &shadow_db, &probe_db] {
        std::fs::copy(pristine, p).map_err(|e| format!("copy db: {e}"))?;
    }
    let (server, _) = Server::start(gvdb, &served, w.sessions())?;
    let replayed = Args {
        seconds: args.seconds.min(TRACED_SECONDS),
        ..args.clone()
    };
    let open =
        |p: &Path| gvdb_storage::GraphDb::open(p).map_err(|e| format!("open {}: {e}", p.display()));
    let shadow = Shadow::new(open(&shadow_db)?, open(pristine)?);
    let phase = run_phase(&replayed, &ds.plane, &server, Some(&shadow), 1, &mut |_| {
        Ok(())
    })?;
    drop(server);
    check_phase(&served, pristine, &phase, failures)?;
    let probed = missing_classes(&phase);
    let gaps = trace::gap_probe(w, &shadow, &probe_db, &ds.plane, args.seed, &probed)?;
    let touched = touched_pages(w, &ds.plane, args.seed, args.seconds, pristine)?;
    Ok(Traced {
        phase,
        gaps,
        probed,
        touched,
    })
}

/// The end-to-end metrics of the untraced phase. A percentile with too
/// few samples beyond it reads NaN and is noted in `thin_tails`.
fn end_to_end(
    phase: &Phase,
    records: &[OpRecord],
    setups: &[SetupTimes],
    rss_mib: f64,
    thin_tails: &mut Vec<String>,
) -> JsonObj {
    let ok = |r: &&OpRecord| r.failure.is_none();
    let views: Vec<&OpRecord> = records.iter().filter(|r| r.kind == 0).filter(ok).collect();
    let view_ms: Vec<f64> = views.iter().map(|r| r.ms).collect();
    let ttfr: Vec<f64> = views.iter().filter_map(|r| r.ttfr_ms).collect();
    let setup_total: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    let mut p50 = |xs: &[f64], what: &str| {
        percentile(xs, 0.5, what).unwrap_or_else(|e| {
            thin_tails.push(e);
            f64::NAN
        })
    };
    let wire_bytes: f64 = views.iter().map(|r| r.wire_bytes as f64).sum();
    let rows: f64 = views.iter().map(|r| r.rows as f64).sum();
    JsonObj::new()
        .raw("setup_s", metric(median(&setup_total), "s"))
        .raw("ttfr_p50_ms", metric(p50(&ttfr, "ttfr"), "ms"))
        .raw("view_p50_ms", metric(p50(&view_ms, "view"), "ms"))
        .raw(
            "views_per_s",
            metric(views.len() as f64 / phase.wall_s, "1/s"),
        )
        .raw(
            "wire_bytes_per_row",
            metric(ratio(wire_bytes, rows), "B/row"),
        )
        .raw("rss_peak_mb", metric(rss_mib, "MiB"))
}

/// The run record: host, server settings, dataset, set-ups, per-kind
/// accounting and the server's counters.
fn run_record(
    args: &Args,
    work: &Path,
    ds: &Dataset,
    db_mib: f64,
    setups: &[SetupTimes],
    phase: &Phase,
    records: &[OpRecord],
) -> JsonObj {
    let w = args.workload;
    let mut kinds = JsonObj::new();
    for (k, name) in KINDS.iter().enumerate() {
        let of: Vec<&OpRecord> = records.iter().filter(|r| r.kind == k).collect();
        if of.is_empty() {
            continue;
        }
        let ms: Vec<f64> = of
            .iter()
            .filter(|r| r.failure.is_none())
            .map(|r| r.ms)
            .collect();
        kinds = kinds.raw(
            name,
            JsonObj::new()
                .int("attempted", of.len() as u64)
                .int("failed", (of.len() - ms.len()) as u64)
                .int("samples", ms.len() as u64)
                .num("p50_ms", percentile(&ms, 0.5, name).unwrap_or(f64::NAN))
                .num("p95_ms", percentile(&ms, 0.95, name).unwrap_or(f64::NAN))
                .num("p99_ms", percentile(&ms, 0.99, name).unwrap_or(f64::NAN))
                .build(),
        );
    }
    let mut plans = JsonObj::new();
    for class in ["view.hit", "view.delta", "view.cold"] {
        let of: Vec<&OpRecord> = records
            .iter()
            .filter(|r| r.failure.is_none() && trace::op_class(r) == class)
            .collect();
        let ms: Vec<f64> = of.iter().map(|r| r.ms).collect();
        let rows: Vec<f64> = of.iter().map(|r| r.rows as f64).collect();
        plans = plans.raw(
            class,
            JsonObj::new()
                .int("views", of.len() as u64)
                .num("p50_ms", median(&ms))
                .num("rows_p50", median(&rows))
                .int("rows_fetched", of.iter().map(|r| r.rows_fetched).sum())
                .build(),
        );
    }
    let c = &phase.counters;
    let flush_policy = if w == Workload::Edit {
        "explicit /v1/flush only, every 50 edits and at the end"
    } else {
        "none (read-only workload)"
    };
    JsonObj::new()
        .str("workload", w.name())
        .int("seed", args.seed)
        .int("seconds", args.seconds)
        .raw("host", host_json())
        .raw(
            "server",
            JsonObj::new()
                .int("workers", w.sessions() as u64)
                .raw(
                    "pinned_cpu",
                    pin::chosen_cpu().map_or("null".into(), |c| c.to_string()),
                )
                .int("pool_pages", POOL_PAGES as u64)
                .int("page_bytes", gvdb_storage::PAGE_SIZE as u64)
                .raw("cache", cache_json())
                .str("flush_policy", flush_policy)
                .str("db_filesystem", &filesystem_of(work))
                .build(),
        )
        .raw(
            "dataset",
            JsonObj::new()
                .str("name", w.dataset().name())
                .int("nodes", ds.nodes as u64)
                .int("edges", ds.edges as u64)
                .int("layers", ds.layers as u64)
                .num("db_mib", db_mib)
                .build(),
        )
        .raw("setups", setups_json(setups))
        .int("sessions", w.sessions() as u64)
        .int("warmup_rounds", phase.warm_rounds as u64)
        .num("timed_wall_s", phase.wall_s)
        .raw("blocks", blocks_json(phase, records))
        .raw("ops", kinds.raw("view_plans", plans.build()).build())
        .raw(
            "counters",
            JsonObj::new()
                .int("pool_hits", c.pool_hits)
                .int("pool_misses", c.pool_misses)
                .int("pool_evictions", c.evictions)
                .int("cache_hits", c.cache_hits)
                .int("cache_partial_hits", c.partial_hits)
                .int("cache_misses", c.cache_misses)
                .int("chooser_index", c.index_path)
                .int("chooser_scan", c.scan_path)
                .int("rejected", c.rejected)
                .build(),
        )
        .raw(
            "rows_digest",
            json_list(
                phase
                    .sessions
                    .iter()
                    .map(|(l, _)| quote(&format!("{:016x}", l.rows_digest))),
            ),
        )
}

/// Per timed block: its wall time and its median view and first-rows
/// times, to tell drift within a run from drift between runs.
fn blocks_json(phase: &Phase, records: &[OpRecord]) -> String {
    let n = phase.block_wall_s.len();
    json_list(phase.block_wall_s.iter().enumerate().map(|(b, wall)| {
        let part = &records[records.len() * b / n..records.len() * (b + 1) / n];
        let views = || part.iter().filter(|r| r.kind == 0 && r.failure.is_none());
        JsonObj::new()
            .num("wall_s", *wall)
            .num(
                "view_p50_ms",
                median(&views().map(|r| r.ms).collect::<Vec<_>>()),
            )
            .num(
                "ttfr_p50_ms",
                median(&views().filter_map(|r| r.ttfr_ms).collect::<Vec<_>>()),
            )
            .build()
    }))
}

fn metric(value: f64, unit: &str) -> String {
    JsonObj::new().num("value", value).str("unit", unit).build()
}

/// Warm up until the counters level off, then run the timed operations
/// of every session concurrently, the sessions and the server pinned to
/// one CPU (see `pin`). The timed operations run in `blocks` consecutive
/// parts; `between(b)` runs, unpinned and untimed, before part `b > 0`.
fn run_phase(
    args: &Args,
    plane: &Plane,
    server: &Server,
    shadow: Option<&Shadow>,
    blocks: usize,
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<Phase, String> {
    let w = args.workload;
    let addr = server.addr.as_str();
    let cpu = pin::chosen_cpu();
    if let Some(cpu) = cpu {
        pin::pin_process(server.pid(), cpu)?;
    }
    let mut sessions = (0..w.sessions())
        .map(|_| Session::open(addr, shadow))
        .collect::<Result<Vec<_>, _>>()?;
    let run_all = |sessions: &mut Vec<Session>, ops: Vec<&[Op]>, first: usize, keep: bool| {
        std::thread::scope(|sc| {
            let handles: Vec<_> = sessions
                .iter_mut()
                .zip(ops)
                .map(|(sess, ops)| {
                    sc.spawn(move || {
                        cpu.map_or(Ok(()), |c| pin::pin_thread(0, c))?;
                        sess.run(ops, first, keep);
                        Ok::<(), String>(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("session thread panicked"))
        })
    };

    let mut last = Counters::read(addr)?;
    let mut prev: Option<Counters> = None;
    let mut rounds = 0;
    while rounds < WARM_MAX_ROUNDS {
        let ops: Vec<Vec<Op>> = (0..w.sessions())
            .map(|s| warmup_ops(w, plane, args.seed, s, rounds))
            .collect();
        run_all(
            &mut sessions,
            ops.iter().map(Vec::as_slice).collect(),
            0,
            false,
        )?;
        rounds += 1;
        let now = Counters::read(addr)?;
        let d = now.since(&last);
        last = now;
        eprintln!(
            "warm-up round {rounds}: {} pool misses, {} cache misses",
            d.pool_misses, d.cache_misses
        );
        let round_ops = (w.warmup_round() * w.sessions()) as f64;
        let level = |prev: u64, cur: u64| cur as f64 >= WARM_LEVEL * prev as f64 - 0.02 * round_ops;
        if let Some(p) = prev {
            if level(p.pool_misses, d.pool_misses) && level(p.cache_misses, d.cache_misses) {
                break;
            }
        }
        prev = Some(d);
    }

    let ops: Vec<Vec<Op>> = (0..w.sessions())
        .map(|s| timed_ops(w, plane, args.seed, s, args.seconds))
        .collect();
    for s in &mut sessions {
        s.spans.enabled = shadow.is_some();
    }
    let before = Counters::read(addr)?;
    let mut block_wall_s = Vec::new();
    for b in 0..blocks {
        if b > 0 {
            between(b)?;
        }
        // Block `b` of each session: operations [n·b/blocks, n·(b+1)/blocks).
        let part = |o: &Vec<Op>| (o.len() * b / blocks, o.len() * (b + 1) / blocks);
        let first = part(&ops[0]).0;
        let block = ops.iter().map(|o| &o[part(o).0..part(o).1]).collect();
        let t = Instant::now();
        run_all(&mut sessions, block, first, true)?;
        block_wall_s.push(t.elapsed().as_secs_f64());
    }
    let wall_s = block_wall_s.iter().sum();
    let counters = Counters::read(addr)?.since(&before);
    eprintln!("timed phase: {wall_s:.3} s, {counters:?}");
    Ok(Phase {
        sessions: sessions.into_iter().map(Session::close).collect(),
        wall_s,
        block_wall_s,
        warm_rounds: rounds,
        counters,
    })
}

/// Row-for-row reference checks of the sampled views and, when the
/// phase edited, the durability check: the server (killed by now) must
/// have left every edit acknowledged before its last flush in `served`.
fn check_phase(
    served: &Path,
    pristine: &Path,
    phase: &Phase,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let reference =
        gvdb_storage::GraphDb::open(pristine).map_err(|e| format!("open reference: {e}"))?;
    let mut compared = 0;
    for (log, _) in &phase.sessions {
        for s in &log.samples {
            let mut expected = reference_rows(&reference, s.layer, &s.rect)?;
            expected.extend(&s.inserted);
            expected.sort_unstable();
            if expected != s.delivered {
                failures.push(format!(
                    "layer {} window {:?}: {} rows delivered, reference has {}",
                    s.layer,
                    s.rect,
                    s.delivered.len(),
                    expected.len()
                ));
            }
            compared += 1;
        }
    }
    eprintln!("reference check: {compared} sampled views compared");

    for (log, _) in &phase.sessions {
        if log.edits.is_empty() {
            continue;
        }
        // The state as of the last flush: rid → (node1, live?).
        let mut state: HashMap<u64, (u64, bool)> = HashMap::new();
        for e in log.edits.iter().filter(|e| e.flushes_before < log.flushes) {
            state.insert(e.rid, (e.node1, e.insert));
        }
        let db = gvdb_storage::GraphDb::open(served).map_err(|e| format!("reopen: {e}"))?;
        let table = db.layer(0).ok_or("reopened db has no layer 0")?;
        let mut checked = 0;
        for (&rid, &(node1, live)) in &state {
            let row = table.get(db.pool(), gvdb_storage::RowId::from_u64(rid));
            let present = row.is_ok_and(|r| r.node1_id == node1);
            if present != live {
                let what = if live { "lost" } else { "resurrected" };
                failures.push(format!(
                    "durability: flushed edit of row {rid} {what} on reopen"
                ));
            }
            checked += 1;
        }
        eprintln!("durability check: {checked} flushed edits found as acknowledged");
    }
    Ok(())
}

/// `(rid, node1, node2)` of the rows of `rect` on `layer`, sorted: the
/// independent read the row-for-row check compares against.
fn reference_rows(
    db: &gvdb_storage::GraphDb,
    layer: usize,
    rect: &gvdb_spatial::Rect,
) -> Result<Vec<drive::RowKey>, String> {
    let table = db
        .layer(layer)
        .ok_or_else(|| format!("reference has no layer {layer}"))?;
    let mut rows: Vec<drive::RowKey> = table
        .window(db.pool(), rect, true)
        .map_err(|e| format!("reference window: {e}"))?
        .into_iter()
        .map(|(rid, row)| (rid.to_u64(), row.node1_id, row.node2_id))
        .collect();
    rows.sort_unstable();
    Ok(rows)
}

/// Gap-probe keys for replay classes the traced phase never produced.
fn missing_classes(phase: &Phase) -> Vec<&'static str> {
    let mut seen: Vec<&'static str> = Vec::new();
    for (log, spans) in &phase.sessions {
        for s in spans.shadow_source.values() {
            seen.push(match s {
                gvdb_api::Source::Hit => "core.hit",
                gvdb_api::Source::Delta => "core.delta",
                gvdb_api::Source::Cold => "core.cold",
            });
        }
        for r in &log.records {
            seen.push(match r.kind {
                2 => "core.focus",
                3 => "core.filtered",
                4 => "core.edit",
                5 => "storage.flush",
                _ => continue,
            });
        }
    }
    [
        "core.hit",
        "core.delta",
        "core.focus",
        "core.filtered",
        "core.edit",
        "storage.flush",
    ]
    .into_iter()
    .filter(|k| !seen.contains(k))
    .collect()
}

/// Distinct pages the timed windows touch, as a share of the server's
/// pool: the misses of a pool large enough never to evict, replaying
/// every timed window on a fresh handle.
fn touched_pages(
    w: Workload,
    plane: &Plane,
    seed: u64,
    seconds: u64,
    db: &Path,
) -> Result<f64, String> {
    let db = gvdb_storage::GraphDb::open_with_cache(db, 1 << 15)
        .map_err(|e| format!("open for touched pages: {e}"))?;
    for s in 0..w.sessions() {
        for op in timed_ops(w, plane, seed, s, seconds) {
            let (layer, rect) = match op {
                Op::View { layer, rect } => (layer, rect),
                Op::Filtered { rect, .. } => (0, rect),
                _ => continue,
            };
            if let Some(t) = db.layer(layer) {
                std::hint::black_box(
                    t.window(db.pool(), &rect, true)
                        .map_err(|e| e.to_string())?,
                );
            }
        }
    }
    Ok(db.pool().stats().misses() as f64 / POOL_PAGES as f64)
}

/// Every span of the traced phase, one JSON object per line.
fn write_spans(w: Workload, seed: u64, phase: &Phase) -> Result<(), String> {
    let mut out = String::new();
    for (s, (_, log)) in phase.sessions.iter().enumerate() {
        for sp in &log.spans {
            out.push_str(
                &JsonObj::new()
                    .int("session", s as u64)
                    .int("op", sp.op as u64)
                    .str("name", sp.name)
                    .int("start_ns", sp.start_ns)
                    .int("end_ns", sp.end_ns)
                    .raw("parent", sp.parent.map_or("null".into(), |p| p.to_string()))
                    .build(),
            );
            out.push('\n');
        }
    }
    let name = format!(".bench_out/{}-seed{seed}-spans.jsonl", w.name());
    std::fs::create_dir_all(".bench_out").map_err(|e| format!("create .bench_out: {e}"))?;
    std::fs::write(&name, out).map_err(|e| format!("write {name}: {e}"))
}

fn remove_db(path: &Path) {
    let Some(dir) = path.parent() else { return };
    let Some(stem) = path.file_name().and_then(|n| n.to_str()) else {
        return;
    };
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.file_name().to_str().is_some_and(|n| n.starts_with(stem)) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

fn file_mib(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(f64::NAN, |m| m.len() as f64 / (1 << 20) as f64)
}

fn setups_json(setups: &[SetupTimes]) -> String {
    let items: Vec<String> = setups
        .iter()
        .map(|t| {
            JsonObj::new()
                .num("total_s", t.total())
                .num("generate_s", t.generate)
                .num("step1_s", t.steps[0])
                .num("step2_s", t.steps[1])
                .num("step3_s", t.steps[2])
                .num("step4_s", t.steps[3])
                .num("step5_s", t.steps[4])
                .num("open_s", t.open)
                .build()
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn host_json() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    JsonObj::new()
        .int(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str("kernel", read("/proc/sys/kernel/osrelease").trim())
        .str("git_commit", &commit)
        .build()
}

fn cache_json() -> String {
    let c = gvdb_core::CacheConfig::default();
    JsonObj::new()
        .int("capacity", c.capacity as u64)
        .int("max_bytes", c.max_bytes as u64)
        .int("shards", c.shards as u64)
        .num("quantum", c.quantum)
        .num("min_delta_overlap", c.min_delta_overlap)
        .build()
}

/// The filesystem type of the mount holding `dir` (from /proc/mounts).
fn filesystem_of(dir: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(dir) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && abs.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
