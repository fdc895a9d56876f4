//! The streamed frame path over real TCP: chunk framing, negotiation,
//! zero-row streams, pipelined mixed traffic, mid-stream disconnects, and
//! the racing-edit trailer-epoch contract.

use gvdb_api::{ApiFrame, ApiResult, RowBatch};
use gvdb_core::{
    preprocess, FrameSink, GraphService, PreprocessConfig, QueryManager, SharedWorkspace,
};
use gvdb_graph::generators::{wikidata_like, RdfConfig};
use gvdb_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn db_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gvdb-streaming-{name}-{}", std::process::id()));
    path
}

fn rdf_manager(name: &str, entities: usize) -> (QueryManager, std::path::PathBuf) {
    let graph = wikidata_like(RdfConfig {
        entities,
        ..Default::default()
    });
    let path = db_path(name);
    let (db, _) = preprocess(
        &graph,
        &path,
        &PreprocessConfig {
            k: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    (QueryManager::new(db), path)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Read one response's status line + headers.
fn read_head(reader: &mut BufReader<TcpStream>) -> String {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("head") > 0,
            "eof in head"
        );
        if line == "\r\n" {
            return head;
        }
        head.push_str(&line);
    }
}

/// Decode one chunked body into its frames (one frame per chunk).
fn read_frames(reader: &mut BufReader<TcpStream>) -> Vec<ApiFrame> {
    let mut frames = Vec::new();
    loop {
        let mut size_line = String::new();
        assert!(
            reader.read_line(&mut size_line).expect("chunk size") > 0,
            "eof mid-stream"
        );
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            let mut crlf = String::new();
            reader.read_line(&mut crlf).expect("final crlf");
            return frames;
        }
        let mut payload = vec![0u8; size];
        reader.read_exact(&mut payload).expect("chunk payload");
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf).expect("chunk crlf");
        let text = std::str::from_utf8(&payload).expect("utf8 frame");
        frames.push(ApiFrame::from_json(text.trim_end()).expect("frame"));
    }
}

fn get(stream: &mut TcpStream, path: &str) {
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("request");
}

#[test]
fn streamed_window_is_chunked_and_negotiation_works() {
    let (qm, path) = rdf_manager("negotiate", 400);
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let (mut stream, mut reader) = connect(server.addr());
    let w = "/v1/window?layer=0&minx=0&miny=0&maxx=2000&maxy=2000";

    // Default: chunked frames, no Content-Length, keep-alive preserved.
    get(&mut stream, w);
    let head = read_head(&mut reader);
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(head.contains("application/x-ndjson"), "{head}");
    assert!(!head.contains("Content-Length"), "{head}");
    assert!(head.contains("keep-alive"), "{head}");
    let frames = read_frames(&mut reader);
    assert!(
        matches!(frames.first(), Some(ApiFrame::Header(h)) if h.op == "window"),
        "stream starts with the header"
    );
    assert!(matches!(frames.last(), Some(ApiFrame::Trailer(_))));
    let rows: u64 = frames
        .iter()
        .filter_map(|f| match f {
            ApiFrame::Rows(RowBatch::Graph { edges, .. }) => Some(*edges),
            _ => None,
        })
        .sum();
    let Some(ApiFrame::Trailer(trailer)) = frames.last() else {
        unreachable!()
    };
    assert_eq!(trailer.rows, rows);
    assert!(rows > 0);

    // stream=0 on the SAME connection: the buffered envelope again.
    get(&mut stream, &format!("{w}&stream=0"));
    let head = read_head(&mut reader);
    assert!(head.contains("Content-Length"), "{head}");
    assert!(head.contains("X-Gvdb-Source"), "{head}");
    let n: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; n];
    reader.read_exact(&mut body).unwrap();
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("\"kind\":\"window\""));

    // An Accept: application/json header keeps legacy clients buffered.
    write!(
        stream,
        "GET {w} HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\r\n"
    )
    .unwrap();
    let head = read_head(&mut reader);
    assert!(head.contains("Content-Length"), "{head}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

#[test]
fn zero_row_window_streams_header_and_trailer_only() {
    let (qm, path) = rdf_manager("zerorow", 300);
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let (mut stream, mut reader) = connect(server.addr());

    // A window far outside the layout: no rows, but still a well-formed
    // stream.
    get(
        &mut stream,
        "/v1/window?layer=0&minx=9e9&miny=9e9&maxx=9.1e9&maxy=9.1e9",
    );
    read_head(&mut reader);
    let frames = read_frames(&mut reader);
    assert_eq!(frames.len(), 2, "header + trailer only: {frames:?}");
    let ApiFrame::Header(header) = &frames[0] else {
        panic!("first frame must be the header")
    };
    assert_eq!(header.op, "window");
    let ApiFrame::Trailer(trailer) = &frames[1] else {
        panic!("second frame must be the trailer")
    };
    assert_eq!(trailer.rows, 0);
    assert_eq!(trailer.frames, 0);

    server.shutdown();
    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

#[test]
fn pipelined_mixed_streamed_and_buffered_requests_drain_in_order() {
    let (qm, path) = rdf_manager("pipeline", 400);
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let (mut stream, mut reader) = connect(server.addr());
    let w = "/v1/window?layer=0&minx=0&miny=0&maxx=1500&maxy=1500";

    // Three requests written back-to-back before reading anything:
    // streamed, buffered, streamed. The worker must answer all three in
    // order on the one connection, switching framing per response.
    let burst = format!(
        "GET {w} HTTP/1.1\r\nHost: t\r\n\r\nGET {w}&stream=0 HTTP/1.1\r\nHost: t\r\n\r\nGET {w} HTTP/1.1\r\nHost: t\r\n\r\n"
    );
    stream.write_all(burst.as_bytes()).unwrap();

    // 1: streamed (cold).
    let head = read_head(&mut reader);
    assert!(head.contains("chunked"), "{head}");
    let frames = read_frames(&mut reader);
    assert!(frames.len() >= 2);
    // 2: buffered (cache hit by now).
    let head = read_head(&mut reader);
    assert!(head.contains("Content-Length"), "{head}");
    let n: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; n];
    reader.read_exact(&mut body).unwrap();
    // 3: streamed again (hit: reused batches).
    let head = read_head(&mut reader);
    assert!(head.contains("chunked"), "{head}");
    let frames = read_frames(&mut reader);
    assert!(frames
        .iter()
        .any(|f| matches!(f, ApiFrame::Rows(RowBatch::Graph { reused: true, .. }))));

    server.shutdown();
    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

/// A client that vanishes mid-stream must not wedge the worker: with a
/// single-worker pool, follow-up requests still get served.
#[test]
fn client_disconnect_mid_stream_frees_the_worker() {
    let (qm, path) = rdf_manager("disconnect", 600);
    let server = Server::start(
        Arc::new(qm),
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();

    for round in 0..3 {
        // Open a stream over everything, read only the response head,
        // then drop the socket while frames are still flowing.
        let (mut stream, mut reader) = connect(server.addr());
        get(
            &mut stream,
            "/v1/window?layer=0&minx=-1e9&miny=-1e9&maxx=1e9&maxy=1e9",
        );
        read_head(&mut reader);
        drop(reader);
        drop(stream);

        // The single worker must come back to serve a fresh connection.
        let (mut stream, mut reader) = connect(server.addr());
        get(&mut stream, "/v1/healthz");
        let head = read_head(&mut reader);
        assert!(
            head.contains("200 OK"),
            "round {round}: worker wedged: {head}"
        );
        let mut body = vec![0u8; 11];
        reader.read_exact(&mut body).unwrap();
    }

    server.shutdown();
    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
}

/// A sink that fires one edit the moment the first row batch is emitted —
/// deterministically racing a mutation against an in-flight stream.
struct EditOnFirstBatch<'a> {
    qm: &'a QueryManager,
    edited: bool,
    frames: Vec<ApiFrame>,
}

impl FrameSink for EditOnFirstBatch<'_> {
    fn emit(&mut self, frame: &ApiFrame) -> ApiResult<()> {
        if matches!(frame, ApiFrame::Rows(_)) && !self.edited {
            self.edited = true;
            let row = gvdb_storage::EdgeRow {
                node1_id: 870_001,
                node1_label: "race A".into(),
                geometry: gvdb_storage::EdgeGeometry {
                    x1: 1.0,
                    y1: 1.0,
                    x2: 2.0,
                    y2: 2.0,
                    directed: false,
                },
                edge_label: "race-edit".into(),
                node2_id: 870_002,
                node2_label: "race B".into(),
            };
            self.qm.insert_row(0, &row).expect("racing edit");
        }
        self.frames.push(frame.clone());
        Ok(())
    }
}

/// The trailer-epoch contract: an edit that lands while the stream is
/// being emitted shows up as a trailer epoch newer than the header's, so
/// the client knows its freshly-painted view is already stale.
#[test]
fn racing_edit_mid_stream_surfaces_in_the_trailer_epoch() {
    let (qm, path) = rdf_manager("race", 400);
    let request = gvdb_api::ApiRequest::Window {
        predicate: None,
        dataset: None,
        layer: Some(0),
        window: gvdb_api::RectDto {
            min_x: -1e9,
            min_y: -1e9,
            max_x: 1e9,
            max_y: 1e9,
        },
        session: None,
        packed: false,
        rid_range: None,
    };
    let mut sink = EditOnFirstBatch {
        qm: &qm,
        edited: false,
        frames: Vec::new(),
    };
    qm.call_streamed(&request, &mut sink).unwrap();
    assert!(sink.edited, "the stream produced at least one row batch");

    let ApiFrame::Header(header) = &sink.frames[0] else {
        panic!("stream starts with the header")
    };
    let ApiFrame::Trailer(trailer) = sink.frames.last().unwrap() else {
        panic!("stream ends with the trailer")
    };
    assert_eq!(header.epoch, 0, "the snapshot predates the edit");
    assert_eq!(
        trailer.epoch, 1,
        "the trailer re-samples the epoch and surfaces the racing edit"
    );

    // The workspace-backed service streams the same frames, with the
    // resolved dataset name in the header.
    let path2 = db_path("race-ws");
    let (db, _) = preprocess(
        &wikidata_like(RdfConfig {
            entities: 300,
            ..Default::default()
        }),
        &path2,
        &PreprocessConfig {
            k: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    let ws = SharedWorkspace::new();
    ws.add("only", db).unwrap();
    let mut buffer = gvdb_core::FrameBuffer::new();
    ws.call_streamed(&request, &mut buffer).unwrap();
    assert!(matches!(buffer.frames.first(), Some(ApiFrame::Header(h)) if h.dataset == "only"));

    std::fs::remove_file(&path).ok();
    gvdb_storage::wal::remove_all(&path).ok();
    std::fs::remove_file(&path2).ok();
    gvdb_storage::wal::remove_all(&path2).ok();
}
