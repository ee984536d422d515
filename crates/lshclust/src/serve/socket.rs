//! Socket transport for the NDJSON serving protocol: many concurrent
//! TCP (or Unix-domain) clients over one shared [`super::ModelServer`].
//!
//! Connection lifecycle:
//!
//! ```text
//!            bind_tcp / bind_unix
//!                    │
//!            [accept loop thread]──spawns per connection──┐
//!                    │                                    │
//!                    │                 [reader thread]    │   [writer thread]
//!                    │                 capped line split ─┼─► mpsc<Outgoing> ─► render_reply
//!                    │                 ProtoEngine        │   (FIFO = request order)
//!                    │                                    │
//!         stop flag ◄┴── {"shutdown"} from any client ────┘
//!                    │
//!              lame-duck drain:
//!                1. accept loop exits (no new connections)
//!                2. close_intake()   (new submits fail ShutDown; queued work drains)
//!                3. shutdown read halves  (readers see EOF and exit)
//!                4. join readers, then writers (every accepted reply flushed)
//!                5. quiesce: queue empty ∧ resolved == submitted
//! ```
//!
//! Each reader feeds the *shared* micro-batch queue, so requests from
//! different clients coalesce into the same worker batches. Each
//! connection's writer resolves its tickets FIFO: replies leave in request
//! order per connection, while cross-connection order is unspecified (as
//! with any socket server).
//!
//! Robustness is part of the contract, proven by `tests/serve_faults.rs`:
//! oversized lines are answered with an error and discarded to the next
//! newline (bounded memory per connection), garbage bytes become `err`
//! replies, a client disconnecting mid-request only tears down its own
//! connection, and a client that stops reading its replies trips
//! [`SocketOptions::write_timeout`] instead of wedging a writer forever.

use super::proto::{err_response, render_reply, LineOutcome, Outgoing, ProtoEngine};
use super::{HotKeyStats, TicketStats};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables of the socket front (the serving semantics — batching,
/// deadlines, cache — live in [`super::ServerConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SocketOptions {
    /// Longest accepted request line; anything longer is answered with an
    /// error and discarded up to the next newline, so one hostile client
    /// cannot balloon server memory.
    pub max_line_bytes: usize,
    /// Upper bound a writer waits on any single ticket
    /// ([`super::PredictTicket::wait_deadline`]); a stalled serving side
    /// becomes an `err` reply instead of a hung connection.
    pub wait_cap: Duration,
    /// Socket write timeout; a client that stops reading its replies is
    /// disconnected when its send buffer stays full this long (`None`
    /// blocks forever — only for trusted clients).
    pub write_timeout: Option<Duration>,
}

impl Default for SocketOptions {
    fn default() -> Self {
        Self {
            max_line_bytes: 1 << 20,
            wait_cap: Duration::from_secs(30),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

impl SocketOptions {
    /// Sets the request line cap (clamps to ≥ 1).
    pub fn max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes.max(1);
        self
    }

    /// Sets the per-ticket writer wait cap.
    pub fn wait_cap(mut self, cap: Duration) -> Self {
        self.wait_cap = cap;
        self
    }

    /// Sets the socket write timeout (`None` = never time out).
    pub fn write_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.write_timeout = timeout;
        self
    }
}

/// Final accounting of a socket server run, returned by
/// [`SocketServer::wait`] / [`SocketServer::shutdown`] after the drain.
#[derive(Clone, Copy, Debug)]
pub struct SocketReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Protocol lines handled (including malformed ones answered with
    /// `err`).
    pub lines: u64,
    /// Ticket accounting after quiescing — `submitted == resolved` here is
    /// the "no orphaned tickets" guarantee the fault suite asserts.
    pub tickets: TicketStats,
    /// Hot-key cache counters.
    pub cache: HotKeyStats,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(how),
        };
    }

    /// Sets the timeouts and, on TCP, `TCP_NODELAY`: with Nagle's
    /// algorithm on, a reply written while the previous one is unacknowledged
    /// waits for the client's delayed ACK, about 40 ms.
    fn configure(&self, read: Option<Duration>, write: Option<Duration>) {
        let _ = match self {
            Stream::Tcp(s) => s
                .set_read_timeout(read)
                .and_then(|()| s.set_write_timeout(write))
                .and_then(|()| s.set_nodelay(true)),
            #[cfg(unix)]
            Stream::Unix(s) => s
                .set_read_timeout(read)
                .and_then(|()| s.set_write_timeout(write)),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Shared across the accept loop and every connection thread.
struct Shared {
    engine: ProtoEngine,
    options: SocketOptions,
    /// `true` once shutdown began (client request or programmatic); the
    /// accept loop and blocked readers poll it.
    stop: Mutex<bool>,
    stopped: Condvar,
    connections: AtomicU64,
    lines: AtomicU64,
    /// Read-half clones of live connections keyed by connection id, so the
    /// drain can force blocked readers to EOF. Each connection removes its
    /// own entry (closing the clone) when it ends — a long-lived daemon
    /// must not accumulate one fd per past client.
    conns: Mutex<HashMap<u64, Stream>>,
    /// Live connection thread handles; finished ones are reaped by the
    /// accept loop, the rest joined by the drain.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn request_stop(&self) {
        *self.stop.lock().expect("stop lock") = true;
        self.stopped.notify_all();
    }

    fn stopping(&self) -> bool {
        *self.stop.lock().expect("stop lock")
    }
}

/// A running socket front over a [`ProtoEngine`]; see the
/// [module docs](self) for the lifecycle.
pub struct SocketServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl SocketServer {
    /// Binds a TCP listener on `addr` (e.g. `"127.0.0.1:0"` to let the OS
    /// pick a port — read it back with [`Self::local_addr`]) and starts
    /// accepting clients.
    pub fn bind_tcp(
        addr: &str,
        engine: ProtoEngine,
        options: SocketOptions,
    ) -> io::Result<SocketServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr().ok();
        Self::spawn(Listener::Tcp(listener), engine, options, local_addr)
    }

    /// Binds a Unix-domain listener on `path` and starts accepting clients.
    ///
    /// A leftover socket file from a crashed server is removed, but only
    /// after probing it: if something still answers on `path` this fails
    /// with `AddrInUse` instead of silently deleting the live socket out
    /// from under the running server (which would leave it serving nobody).
    #[cfg(unix)]
    pub fn bind_unix(
        path: &std::path::Path,
        engine: ProtoEngine,
        options: SocketOptions,
    ) -> io::Result<SocketServer> {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a server is already listening on {}", path.display()),
                ));
            }
            // Nothing there: bind directly.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            // Stale file (typically ConnectionRefused): safe to reclaim.
            Err(_) => {
                let _ = std::fs::remove_file(path);
            }
        }
        let listener = UnixListener::bind(path)?;
        Self::spawn(Listener::Unix(listener), engine, options, None)
    }

    fn spawn(
        listener: Listener,
        engine: ProtoEngine,
        options: SocketOptions,
        local_addr: Option<SocketAddr>,
    ) -> io::Result<SocketServer> {
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(true)?,
        }
        let shared = Arc::new(Shared {
            engine,
            options,
            stop: Mutex::new(false),
            stopped: Condvar::new(),
            connections: AtomicU64::new(0),
            lines: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        Ok(SocketServer {
            shared,
            accept: Some(accept),
            local_addr,
        })
    }

    /// The bound TCP address (`None` for Unix-domain servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The protocol engine (and through it the [`super::ModelServer`]).
    pub fn engine(&self) -> &ProtoEngine {
        &self.shared.engine
    }

    /// Connections still tracked by the server (racy by nature — for
    /// monitoring and tests). Ended connections leave both registries
    /// promptly, so this does NOT grow with the total connection count:
    /// the fault suite asserts it returns to zero after clients disconnect.
    pub fn live_connections(&self) -> usize {
        let conns = self.shared.conns.lock().expect("conn registry").len();
        let threads = self.shared.threads.lock().expect("thread registry").len();
        conns.max(threads)
    }

    /// Blocks until a client requests `{"shutdown": true}`, then runs the
    /// lame-duck drain and reports.
    pub fn wait(mut self) -> SocketReport {
        let mut stop = self.shared.stop.lock().expect("stop lock");
        while !*stop {
            stop = self.shared.stopped.wait(stop).expect("stop lock");
        }
        drop(stop);
        self.drain()
    }

    /// Programmatic shutdown: stop accepting, drain, report.
    pub fn shutdown(mut self) -> SocketReport {
        self.shared.request_stop();
        self.drain()
    }

    fn drain(&mut self) -> SocketReport {
        self.shared.request_stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let server = self.shared.engine.server();
        // Lame duck: queued work keeps draining, new submits fail ShutDown.
        server.close_intake();
        // Force blocked readers to EOF; their writers then flush what was
        // accepted and exit on the closed channel. Collect outside the lock
        // so exiting connections (which remove their own entries) never
        // contend with the join loop.
        let streams: Vec<Stream> = {
            let mut conns = self.shared.conns.lock().expect("conn registry");
            conns.drain().map(|(_, stream)| stream).collect()
        };
        for stream in streams {
            stream.shutdown(Shutdown::Read);
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut threads = self.shared.threads.lock().expect("thread registry");
            threads.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        // Quiesce: connection threads are gone, so `submitted` is final;
        // wait (bounded) for the worker pool to finish what was accepted.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let tickets = server.ticket_stats();
            if (tickets.resolved >= tickets.submitted && server.queue_len() == 0)
                || std::time::Instant::now() >= deadline
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        SocketReport {
            connections: self.shared.connections.load(Ordering::Relaxed),
            lines: self.shared.lines.load(Ordering::Relaxed),
            tickets: server.ticket_stats(),
            cache: server.hot_key_stats(),
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.drain();
        }
    }
}

fn accept_loop(listener: Listener, shared: &Arc<Shared>) {
    loop {
        if shared.stopping() {
            break;
        }
        reap_finished(shared);
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(stream) => {
                let id = shared.connections.fetch_add(1, Ordering::Relaxed);
                let read_half = match stream.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => continue,
                };
                shared
                    .conns
                    .lock()
                    .expect("conn registry")
                    .insert(id, read_half);
                let handle = {
                    let shared = Arc::clone(shared);
                    std::thread::spawn(move || serve_connection(id, stream, &shared))
                };
                shared.threads.lock().expect("thread registry").push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                if shared.stopping() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Joins connection threads that have already ended, so a long-lived daemon
/// serving many short-lived clients does not accumulate a handle per past
/// connection. Runs on every accept-loop tick (~5ms when idle); each
/// connection's fd-holding registry entry is removed by the connection
/// itself in [`serve_connection`].
fn reap_finished(shared: &Shared) {
    let finished: Vec<JoinHandle<()>> = {
        let mut threads = shared.threads.lock().expect("thread registry");
        let mut done = Vec::new();
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                done.push(threads.swap_remove(i));
            } else {
                i += 1;
            }
        }
        done
    };
    for handle in finished {
        let _ = handle.join();
    }
}

/// One connection: read NDJSON lines (capped), hand them to the engine,
/// queue replies to the writer thread. Runs on the per-connection thread
/// spawned by the accept loop; on exit it removes its registry entry so
/// the dup'ed read-half fd closes with the connection, not at shutdown.
fn serve_connection(id: u64, stream: Stream, shared: &Arc<Shared>) {
    stream.configure(
        Some(Duration::from_millis(100)),
        shared.options.write_timeout,
    );
    let write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            shared.conns.lock().expect("conn registry").remove(&id);
            return;
        }
    };
    let (tx, rx) = mpsc::channel::<Outgoing>();
    let wait_cap = shared.options.wait_cap;
    let writer = {
        let teardown = stream.try_clone().ok();
        std::thread::spawn(move || writer_loop(write_half, rx, wait_cap, teardown))
    };

    read_lines(stream, shared, &tx);
    drop(tx); // writer drains remaining replies, then exits
    let _ = writer.join();
    shared.conns.lock().expect("conn registry").remove(&id);
}

/// The writer half: renders replies FIFO and writes each line with its
/// newline in one write. A write failure (client gone, or its send buffer
/// full past the write timeout) tears the connection down and discards the
/// remaining replies — their tickets still resolve server-side, so nothing
/// leaks.
fn writer_loop(
    mut stream: Stream,
    rx: mpsc::Receiver<Outgoing>,
    wait_cap: Duration,
    teardown: Option<Stream>,
) {
    for out in rx.iter() {
        let mut line = render_reply(out, wait_cap);
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() {
            if let Some(conn) = &teardown {
                conn.shutdown(Shutdown::Both);
            }
            // Drain without writing; dropped tickets resolve server-side.
            for _ in rx.iter() {}
            return;
        }
    }
}

/// The reader half: splits the byte stream into lines with a hard cap, so
/// a hostile client can neither balloon memory with an endless line nor
/// wedge the server with garbage (every malformed line is answered).
fn read_lines(mut stream: Stream, shared: &Arc<Shared>, tx: &mpsc::Sender<Outgoing>) {
    let mut pending: Vec<u8> = Vec::new();
    let mut discarding = false;
    let mut buf = [0u8; 8192];
    'read: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if shared.stopping() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let mut chunk = &buf[..n];
        while let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if discarding {
                // Tail of an oversized line: drop it, resume normal parsing.
                discarding = false;
            } else {
                pending.extend_from_slice(&chunk[..pos]);
                if pending.len() > shared.options.max_line_bytes {
                    // The cap applies to complete lines too, not just the
                    // residual between reads — an over-cap line whose
                    // newline arrives in the same chunk is still rejected.
                    let _ = tx.send(oversized_reply(shared.options.max_line_bytes));
                } else if !handle_line(shared, tx, &pending) {
                    // Handled: the trailing-line path below must not see it.
                    pending.clear();
                    break 'read;
                }
                pending.clear();
            }
            chunk = &chunk[pos + 1..];
        }
        if discarding {
            continue;
        }
        pending.extend_from_slice(chunk);
        if pending.len() > shared.options.max_line_bytes {
            let _ = tx.send(oversized_reply(shared.options.max_line_bytes));
            pending.clear();
            discarding = true;
        }
    }
    // A half-written trailing line (client died mid-request) still gets
    // parsed — it answers with `err` like any malformed line would, and is
    // simply unread by the dead client.
    if !discarding && !pending.is_empty() {
        let _ = handle_line(shared, tx, &pending);
    }
}

/// The `err` reply for a line past [`SocketOptions::max_line_bytes`].
fn oversized_reply(max_line_bytes: usize) -> Outgoing {
    Outgoing::Line(err_response(
        None,
        &format!("line exceeds {max_line_bytes} bytes; discarded to next newline"),
    ))
}

/// Routes one complete line through the engine; `false` stops the reader
/// (the client asked for shutdown).
fn handle_line(shared: &Arc<Shared>, tx: &mpsc::Sender<Outgoing>, raw: &[u8]) -> bool {
    shared.lines.fetch_add(1, Ordering::Relaxed);
    let line = String::from_utf8_lossy(raw);
    match shared.engine.handle_line(&line) {
        LineOutcome::Ignore => true,
        LineOutcome::Reply(out) => {
            let _ = tx.send(out);
            // Periodic stats push (`--stats-every`): rides the same ordered
            // reply channel, so it lands between responses, never inside one,
            // and counts every reply written before it.
            if let Some(stats) = shared.engine.take_due_stats() {
                let _ = tx.send(stats);
            }
            true
        }
        LineOutcome::Shutdown(out) => {
            let _ = tx.send(out);
            shared.request_stop();
            false
        }
    }
}
