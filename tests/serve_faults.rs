//! Fault injection against a live socket server (`lshclust::serve::socket`).
//!
//! Every test drives real TCP connections into a real in-process
//! [`SocketServer`] and misbehaves on purpose — garbage bytes, oversized
//! lines, half-written requests, mid-request disconnects, readers that
//! never read — while asserting the hardening contract:
//!
//! * the server never panics (it keeps answering, and the drain joins
//!   every connection thread);
//! * healthy clients sharing the server keep getting byte-identical
//!   answers;
//! * no ticket is ever orphaned: after the drain,
//!   `SocketReport::tickets.submitted == resolved`.

use lshclust::serve::proto::ProtoEngine;
use lshclust::serve::socket::{SocketOptions, SocketServer};
use lshclust::serve::{ModelServer, ServerConfig};
use lshclust::{ClusterId, ClusterSpec, Clusterer, DatasetBuilder, FittedModel, Lsh};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

struct Fixture {
    /// Raw string rows, one per item, in wire form.
    rows: Vec<Vec<String>>,
    model: FittedModel,
    expected: Vec<ClusterId>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let groups = 3;
        let per_group = 8;
        let n_attrs = 5;
        let mut rows = Vec::new();
        let mut b = DatasetBuilder::anonymous(n_attrs);
        for g in 0..groups {
            for i in 0..per_group {
                let row: Vec<String> = (0..n_attrs)
                    .map(|a| {
                        if a == n_attrs - 1 {
                            format!("g{g}-n{i}")
                        } else {
                            format!("g{g}-a{a}")
                        }
                    })
                    .collect();
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_str_row(&refs, Some(g as u32)).unwrap();
                rows.push(row);
            }
        }
        let ds = b.finish();
        let spec = ClusterSpec::new(3)
            .lsh(Lsh::MinHash { bands: 8, rows: 2 })
            .seed(13);
        let run = Clusterer::new(spec).fit(&ds).unwrap();
        let expected = run.model.predict(&ds).unwrap();
        Fixture {
            rows,
            model: run.model,
            expected,
        }
    })
}

fn start_server(config: ServerConfig, options: SocketOptions) -> (SocketServer, SocketAddr) {
    let fix = fixture();
    let server = Arc::new(ModelServer::start(fix.model.clone(), config));
    let engine = ProtoEngine::new(server, None);
    let socket = SocketServer::bind_tcp("127.0.0.1:0", engine, options).expect("bind 127.0.0.1:0");
    let addr = socket.local_addr().expect("tcp server has an address");
    (socket, addr)
}

fn coalescing_config() -> ServerConfig {
    ServerConfig::default()
        .workers(2)
        .max_batch(8)
        .flush_latency(Duration::from_millis(2))
}

/// One NDJSON predict request for row `i`, tagged with `id`.
fn predict_line(fix: &Fixture, i: usize, id: u64) -> String {
    let values: Vec<String> = fix.rows[i].iter().map(|v| format!("\"{v}\"")).collect();
    format!(
        r#"{{"id":{id},"predict":{{"row":[{}]}}}}"#,
        values.join(",")
    )
}

/// A client with a read deadline: a hung server fails the test instead of
/// hanging it.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send line");
        self.stream.write_all(b"\n").expect("send newline");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send raw");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "server closed the connection unexpectedly");
        line
    }

    /// Reads one reply and asserts it is `{"id":…,"ok":{"cluster":…}}` with
    /// the serially-predicted cluster for row `i`.
    fn expect_cluster(&mut self, fix: &Fixture, i: usize, id: u64) {
        let reply = self.read_line();
        let value = serde_json::parse(reply.trim()).expect("reply parses");
        assert_eq!(
            value.get("id").and_then(|v| v.as_u64()),
            Some(id),
            "{reply}"
        );
        let ok = value.get("ok").unwrap_or_else(|| panic!("not ok: {reply}"));
        assert_eq!(
            ok.get("cluster").and_then(|v| v.as_u64()),
            Some(u64::from(fix.expected[i].0)),
            "row {i}: {reply}"
        );
    }

    fn expect_err(&mut self) -> String {
        let reply = self.read_line();
        let value = serde_json::parse(reply.trim()).expect("reply parses");
        assert!(value.get("err").is_some(), "expected err line, got {reply}");
        reply
    }
}

#[test]
fn garbage_bytes_get_err_replies_and_healthy_clients_keep_answering() {
    let fix = fixture();
    let (socket, addr) = start_server(coalescing_config(), SocketOptions::default());

    let mut hostile = Client::connect(addr);
    hostile.send_raw(b"\x00\xfe\xffnot json at all\n");
    hostile.send_raw(b"{{{[[\n");
    hostile.expect_err();
    hostile.expect_err();
    // The same connection still speaks the protocol after the garbage.
    hostile.send(&predict_line(fix, 0, 1));
    hostile.expect_cluster(fix, 0, 1);

    let mut healthy = Client::connect(addr);
    for (id, i) in (0..fix.rows.len()).enumerate() {
        healthy.send(&predict_line(fix, i, id as u64));
    }
    for (id, i) in (0..fix.rows.len()).enumerate() {
        healthy.expect_cluster(fix, i, id as u64);
    }

    let report = socket.shutdown();
    assert_eq!(report.connections, 2);
    assert_eq!(
        report.tickets.submitted, report.tickets.resolved,
        "orphaned tickets: {:?}",
        report.tickets
    );
}

#[test]
fn oversized_lines_are_discarded_and_the_connection_survives() {
    let fix = fixture();
    let (socket, addr) = start_server(
        coalescing_config(),
        SocketOptions::default().max_line_bytes(256),
    );

    let mut client = Client::connect(addr);
    // Way past the cap, no newline until the very end — the reader must
    // answer with `err` and discard up to the newline, not buffer 64 KiB.
    let huge = format!("{{\"predict\":{{\"row\":[\"{}\"]}}}}\n", "x".repeat(65536));
    client.send_raw(huge.as_bytes());
    let err = client.expect_err();
    assert!(err.contains("exceeds 256 bytes"), "{err}");
    // A complete over-cap line arriving in one read, newline included, is
    // rejected too — the cap is on the line, not on the read residual.
    let over = format!("{{\"predict\":{{\"row\":[\"{}\"]}}}}\n", "y".repeat(300));
    client.send_raw(over.as_bytes());
    let err = client.expect_err();
    assert!(err.contains("exceeds 256 bytes"), "{err}");
    // The next well-formed line on the same connection is served normally.
    client.send(&predict_line(fix, 3, 9));
    client.expect_cluster(fix, 3, 9);

    let report = socket.shutdown();
    assert_eq!(report.tickets.submitted, report.tickets.resolved);
}

#[test]
fn half_written_lines_and_mid_request_disconnects_leak_nothing() {
    let fix = fixture();
    let (socket, addr) = start_server(coalescing_config(), SocketOptions::default());

    // A client that dies mid-line: complete request, then a truncated JSON
    // fragment with no newline, then a hard disconnect without reading.
    let mut dying = Client::connect(addr);
    dying.send(&predict_line(fix, 1, 1));
    dying.send_raw(br#"{"id":2,"pred"#);
    dying.stream.shutdown(Shutdown::Both).unwrap();
    drop(dying);

    // A client whose *complete* trailing line is missing its newline when
    // the write half closes: EOF flushes it through the parser, so the
    // reply still arrives.
    let mut eof_client = Client::connect(addr);
    let line = predict_line(fix, 2, 7);
    eof_client.send_raw(line.as_bytes());
    eof_client.stream.shutdown(Shutdown::Write).unwrap();
    eof_client.expect_cluster(fix, 2, 7);

    // A healthy client is unaffected throughout.
    let mut healthy = Client::connect(addr);
    for (id, i) in (0..fix.rows.len()).enumerate() {
        healthy.send(&predict_line(fix, i, id as u64));
        healthy.expect_cluster(fix, i, id as u64);
    }

    let report = socket.shutdown();
    assert_eq!(report.connections, 3);
    assert_eq!(
        report.tickets.submitted, report.tickets.resolved,
        "mid-request disconnects must not orphan tickets: {:?}",
        report.tickets
    );
}

/// A long-lived daemon serving many short-lived clients must not leak one
/// fd (or thread handle) per past connection: ended connections leave the
/// server's registries promptly, not at shutdown.
#[test]
fn short_lived_connections_are_pruned_from_the_registries() {
    let fix = fixture();
    let (socket, addr) = start_server(coalescing_config(), SocketOptions::default());

    for round in 0..32u64 {
        let mut client = Client::connect(addr);
        let i = (round as usize) % fix.rows.len();
        client.send(&predict_line(fix, i, round));
        client.expect_cluster(fix, i, round);
        // Dropping the client closes its socket; the server-side reader
        // sees EOF within its read-timeout tick and the connection ends.
    }

    // Readers notice EOF within ~100ms; the accept loop reaps finished
    // threads on its ~5ms idle tick. Poll instead of sleeping a fixed
    // amount so the test is fast when the server is.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while socket.live_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        socket.live_connections(),
        0,
        "ended connections must be pruned, not held until shutdown"
    );

    let report = socket.shutdown();
    assert_eq!(report.connections, 32);
    assert_eq!(report.tickets.submitted, report.tickets.resolved);
}

#[test]
fn slow_reader_does_not_stall_healthy_clients() {
    let fix = fixture();
    let (socket, addr) = start_server(coalescing_config(), SocketOptions::default());

    // Stuff requests in without ever reading a reply.
    let mut slow = Client::connect(addr);
    for id in 0..64u64 {
        slow.send(&predict_line(fix, (id as usize) % fix.rows.len(), id));
    }

    // The healthy client's answers arrive promptly and correctly while the
    // slow reader's replies queue up elsewhere.
    let started = std::time::Instant::now();
    let mut healthy = Client::connect(addr);
    for (id, i) in (0..fix.rows.len()).enumerate() {
        healthy.send(&predict_line(fix, i, id as u64));
        healthy.expect_cluster(fix, i, id as u64);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "healthy client stalled behind a slow reader: {:?}",
        started.elapsed()
    );

    let report = socket.shutdown();
    assert_eq!(
        report.tickets.submitted, report.tickets.resolved,
        "unread replies must still resolve their tickets: {:?}",
        report.tickets
    );
}

/// Each reply leaves in one write on a `TCP_NODELAY` stream, so a client
/// that also writes each request in one write with Nagle off gets every
/// answer without waiting on a delayed ACK. A reply and its newline sent as
/// two writes cost about 40 ms per round trip, 8 s for these 200.
#[test]
fn sequential_round_trips_do_not_wait_on_delayed_acks() {
    let fix = fixture();
    let (socket, addr) = start_server(ServerConfig::default(), SocketOptions::default());
    let mut client = Client::connect(addr);
    client.stream.set_nodelay(true).unwrap();
    let started = std::time::Instant::now();
    for id in 0..200u64 {
        let i = id as usize % fix.rows.len();
        let line = predict_line(fix, i, id) + "\n";
        client.stream.write_all(line.as_bytes()).expect("send line");
        client.expect_cluster(fix, i, id);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "200 round trips took {took:?}"
    );
    let report = socket.shutdown();
    assert_eq!(report.tickets.submitted, report.tickets.resolved);
}

#[test]
fn client_requested_shutdown_unblocks_wait_and_drains() {
    let fix = fixture();
    let (socket, addr) = start_server(coalescing_config(), SocketOptions::default());

    let waiter = std::thread::spawn(move || socket.wait());

    let mut client = Client::connect(addr);
    client.send(&predict_line(fix, 0, 1));
    client.expect_cluster(fix, 0, 1);
    client.send(r#"{"id":2,"shutdown":true}"#);
    let reply = client.read_line();
    assert!(reply.contains(r#""shutdown":true"#), "{reply}");
    // The shutdown line is handled once: its reply is the last line the
    // connection carries before EOF.
    let mut rest = String::new();
    client
        .reader
        .read_to_string(&mut rest)
        .expect("the server closes the connection after the shutdown reply");
    assert_eq!(rest, "", "lines after the shutdown reply");

    let report = waiter.join().expect("wait() returns after shutdown");
    assert_eq!(report.tickets.submitted, report.tickets.resolved);
    assert_eq!(report.lines, 2, "one predict and one shutdown line");
    // New connections are refused or go unanswered after the drain; either
    // way the server side is gone — a fresh connect must not be served.
    if let Ok(stream) = TcpStream::connect(addr) {
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut s = stream;
        let _ = s.write_all(b"{\"stats\":true}\n");
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        // EOF (Ok(0)) or a timeout error both prove nobody is serving.
        assert!(!matches!(reader.read_line(&mut line), Ok(n) if n > 0));
    }
}

/// Starting a second daemon on an in-use Unix socket path must not delete
/// the live socket out from under the first; only a genuinely stale file
/// (nothing answering) is reclaimed.
#[cfg(unix)]
#[test]
fn bind_unix_refuses_a_live_socket_and_reclaims_a_stale_one() {
    use std::os::unix::net::UnixStream;

    let fix = fixture();
    let path = std::env::temp_dir().join(format!("lshclust-fault-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let engine = |config: ServerConfig| {
        ProtoEngine::new(
            Arc::new(ModelServer::start(fix.model.clone(), config)),
            None,
        )
    };
    let first =
        SocketServer::bind_unix(&path, engine(coalescing_config()), SocketOptions::default())
            .expect("first bind");
    // Second bind on the same path: refused, and the first keeps serving.
    match SocketServer::bind_unix(&path, engine(coalescing_config()), SocketOptions::default()) {
        Ok(_) => panic!("second bind must fail while the first server is live"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "{e}"),
    }
    let mut stream = UnixStream::connect(&path).expect("first server still reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(b"{\"stats\":true}\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\""), "{reply}");
    let _ = first.shutdown();

    // The file is now stale (nothing answers): a fresh bind reclaims it.
    let third =
        SocketServer::bind_unix(&path, engine(coalescing_config()), SocketOptions::default())
            .expect("stale socket file is reclaimed");
    let _ = third.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// The soak satellite, in-process: four concurrent clients mixing predicts,
/// `stats`, and a same-artifact `reload`; one client is killed mid-stream.
/// Every answer a surviving client reads is diffed against the serial
/// `FittedModel::predict` baseline.
#[test]
fn soak_four_clients_mixed_traffic_one_killed_mid_stream() {
    let fix = fixture();
    let (socket, addr) = start_server(coalescing_config().hot_keys(256), SocketOptions::default());

    // Reload target: the same model saved as an artifact, so a mid-soak
    // generation bump (which wipes the hot-key cache) never changes the
    // expected clusters — answers stay diffable against one baseline.
    let artifact =
        std::env::temp_dir().join(format!("serve-soak-model-{}.json", std::process::id()));
    fix.model.save(&artifact).expect("save soak artifact");

    std::thread::scope(|scope| {
        // Three well-behaved clients: predict every row twice (the second
        // pass exercises cache hits), with stats and reload mixed in.
        for c in 0..3usize {
            let artifact = &artifact;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for pass in 0..2 {
                    for (seq, i) in (0..fix.rows.len()).enumerate() {
                        let id = (pass * 1000 + seq) as u64;
                        client.send(&predict_line(fix, i, id));
                        client.expect_cluster(fix, i, id);
                        if seq % 7 == c {
                            client.send(r#"{"stats":true}"#);
                            let stats = client.read_line();
                            assert!(stats.contains("\"ok\""), "{stats}");
                        }
                        if pass == 0 && seq == 5 && c == 0 {
                            client.send(&format!(r#"{{"reload":"{}"}}"#, artifact.display()));
                            let reply = client.read_line();
                            assert!(reply.contains("\"reloaded\":true"), "{reply}");
                        }
                    }
                }
            });
        }
        // The victim: fires a burst of predicts, reads two replies, dies.
        scope.spawn(move || {
            let mut victim = Client::connect(addr);
            for id in 0..10u64 {
                victim.send(&predict_line(fix, (id as usize) % fix.rows.len(), id));
            }
            victim.expect_cluster(fix, 0, 0);
            victim.expect_cluster(fix, 1, 1);
            victim.stream.shutdown(Shutdown::Both).unwrap();
        });
    });

    let report = socket.shutdown();
    let _ = std::fs::remove_file(&artifact);
    assert_eq!(report.connections, 4);
    assert_eq!(
        report.tickets.submitted, report.tickets.resolved,
        "soak must leak no tickets: {:?}",
        report.tickets
    );
    assert!(
        report.cache.hits > 0,
        "repeated rows under hot_keys(256) must hit the cache: {:?}",
        report.cache
    );
}
