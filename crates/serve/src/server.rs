//! The overload-safe HTTP server: one acceptor, a bounded queue and
//! `workers` connection threads of the server's own, with graceful
//! drain.
//!
//! The acceptor pulls connections off the listener. It admits one when
//! a permit is free and the bounded queue (a
//! `sync_channel(queue_depth)` fed with `try_send`) has room; anything
//! else it refuses itself with [`crate::admission::shed`], a
//! non-blocking write of the canned `503`. [`ServerConfig::workers`]
//! connection threads take admitted connections off that queue and
//! serve each to completion, so the server's capacity is exactly its
//! own thread count: it borrows no thread of the compute pool, and a
//! parked keep-alive connection can never starve the simulator tick or
//! the snapshot publisher.
//!
//! **A steady-state request performs no heap allocation**, and every
//! response is byte-identical to PR 12's: each connection owns one
//! scratch set (read buffer, body `String`, outgoing batch — see
//! `serve_connection`) that the parser walks once and borrows from
//! ([`crate::parser`]), the router encodes into ([`crate::router`]),
//! and [`write_response`] frames without `format!`; requests of a
//! pipelined batch are consumed with a cursor and the buffer is
//! compacted once per read.
//!
//! Each connection is handled under `catch_unwind`, so a handler
//! panic burns that one connection (counted) and nothing else — the
//! connection thread survives. Connection threads answer from
//! atomically published [`StoreSnapshot`]s — the live store is only
//! touched by the health surfaces, through a `Weak` handle.
//!
//! [`Server::drain`] stops the acceptor, lets queued and in-flight
//! connections finish (or abandons them at the deadline), and leaves
//! the caller holding the last strong store reference so it can
//! [`spotlight_core::DataStore::close`] for a zero-replay restart.
//!
//! [`StoreSnapshot`]: spotlight_core::snapshot::StoreSnapshot

use crate::admission::{self, Permit, ServerStats, StatsSnapshot};
use crate::parser::{self, Limits, Method, Parsed, Reject};
use crate::readbuf::ReadBuf;
use crate::router::{route_into, ServiceState};
use spotlight_core::json::{self, key};
use spotlight_core::snapshot::{SnapshotHub, SnapshotReader};
use spotlight_core::store::SharedStore;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection threads the server starts: its connection-handling
    /// concurrency (at least 1). They are the server's own threads, not
    /// the shared worker pool's.
    pub workers: usize,
    /// Depth of the queue between the acceptor and the connection
    /// threads (at least 1). Admission fails (shed) when it is full.
    pub queue_depth: usize,
    /// Maximum simultaneously admitted connections (permit gauge).
    pub max_connections: u64,
    /// Per-read socket timeout (slow-client defense).
    pub read_timeout: Duration,
    /// Per-write socket timeout (slow-reader defense).
    pub write_timeout: Duration,
    /// Total time a request head may take to arrive before `408`
    /// (slow-loris defense; spans multiple reads).
    pub header_deadline: Duration,
    /// Requests served per connection before it is closed (fairness
    /// under keep-alive).
    pub max_requests_per_conn: u64,
    /// Parser caps.
    pub limits: Limits,
    /// `Retry-After` advertised on shed/drain 503s.
    pub retry_after_secs: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 256,
            max_connections: 1024,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            header_deadline: Duration::from_secs(2),
            max_requests_per_conn: 10_000,
            limits: Limits::default(),
            retry_after_secs: 1,
        }
    }
}

/// What [`Server::drain`] observed.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// True when the deadline expired with connection threads still
    /// busy (their connections were abandoned, not joined).
    pub forced: bool,
    /// Final counters.
    pub stats: StatsSnapshot,
}

/// One admitted connection travelling the queue.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    permit: Permit,
}

/// Connection threads still running, and the signal each gives on
/// exit; [`Server::drain`] waits on it for quiescence.
#[derive(Debug)]
struct Running {
    count: Mutex<usize>,
    exited: Condvar,
}

/// Locks ignoring poisoning: connection handling runs under
/// `catch_unwind`, so no guarded state is ever left mid-mutation.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running HTTP server. Dropping it without [`Server::drain`] leaks
/// the acceptor and the connection threads until process exit; drain
/// is the supported shutdown.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    state: Arc<ServiceState>,
    acceptor: JoinHandle<()>,
    running: Arc<Running>,
}

impl Server {
    /// Binds `addr` and starts the acceptor and `config.workers`
    /// connection threads.
    ///
    /// The server holds the store only weakly: after [`Server::drain`]
    /// the caller's `Arc` is the last one, so the store can be
    /// unwrapped and closed cleanly.
    pub fn start(
        addr: &str,
        store: &SharedStore,
        hub: Arc<SnapshotHub>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServiceState {
            hub,
            store: Arc::downgrade(store),
            stats: Arc::new(ServerStats::default()),
            draining: Arc::new(AtomicBool::new(false)),
            retry_after_secs: config.retry_after_secs,
        });

        // The acceptor owns the only sender: once it returns, the
        // threads serve what is queued and exit. If a spawn below
        // fails, dropping the sender stops the threads already started.
        let (tx, rx) = sync_channel(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = config.workers.max(1);
        let running = Arc::new(Running {
            count: Mutex::new(workers),
            exited: Condvar::new(),
        });
        for i in 0..workers {
            let (state, rx, running) = (Arc::clone(&state), Arc::clone(&rx), Arc::clone(&running));
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("serve-conn-{i}"))
                .spawn(move || connection_thread(&state, &rx, &running, &config))?;
        }
        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || accept_loop(&listener, &state, &tx, &config))?
        };

        Ok(Server {
            local_addr,
            state,
            acceptor,
            running,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, flip `/readyz` to 503, let
    /// queued and in-flight connections finish, and wait for every
    /// connection thread to exit — abandoning stragglers when
    /// `deadline` expires (they run until their connections close, but
    /// the server itself is gone). After this returns, the server holds
    /// no strong store reference.
    pub fn drain(self, deadline: Duration) -> DrainReport {
        self.state.draining.store(true, Ordering::SeqCst);
        // The acceptor may be parked in accept(); a throwaway local
        // connection wakes it so it can observe the flag.
        if let Ok(stream) = TcpStream::connect(self.local_addr) {
            drop(stream);
        }
        let started = Instant::now();
        let _ = self.acceptor.join();
        // No new connections can arrive; the connection threads finish
        // their current connections, take the rest of the queue, and
        // exit (signalling `exited` as they go).
        let left = deadline.saturating_sub(started.elapsed());
        let count = lock(&self.running.count);
        let forced = *self
            .running
            .exited
            .wait_timeout_while(count, left, |count| *count > 0)
            .unwrap_or_else(PoisonError::into_inner)
            .0
            > 0;
        DrainReport {
            forced,
            stats: self.state.stats.snapshot(),
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &ServiceState,
    queue: &SyncSender<Conn>,
    config: &ServerConfig,
) {
    let refusal = admission::canned_503(config.retry_after_secs);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // Transient accept errors (EMFILE, aborted handshakes)
            // must not kill the acceptor.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                continue
            }
            Err(_) => {
                if state.draining.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::yield_now();
                continue;
            }
        };
        if state.draining.load(Ordering::SeqCst) {
            drop(stream);
            break;
        }
        state.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let refused = match Permit::try_acquire(&state.stats, config.max_connections) {
            None => stream,
            Some(permit) => match queue.try_send(Conn { stream, permit }) {
                Ok(()) => {
                    state.stats.admitted.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Queue full: the permit is released with the rest of
                // `conn` at the end of this arm, before the shed.
                Err(TrySendError::Full(conn) | TrySendError::Disconnected(conn)) => conn.stream,
            },
        };
        admission::shed(&state.stats, refused, refusal.as_bytes());
    }
}

/// One connection thread: serve connections off the queue until the
/// acceptor has dropped the sender and the queue is empty.
fn connection_thread(
    state: &ServiceState,
    queue: &Mutex<Receiver<Conn>>,
    running: &Running,
    config: &ServerConfig,
) {
    let mut reader = SnapshotReader::new(&state.hub);
    loop {
        // The guard is a temporary: the lock is held only while this
        // thread waits for the next connection, not while serving it.
        let Ok(Conn { stream, permit }) = lock(queue).recv() else {
            break;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The permit moves into the closure: released on return
            // *and* on unwind, so panics cannot leak gauge slots.
            let _permit = permit;
            serve_connection(stream, state, &mut reader, config);
        }));
        if outcome.is_err() {
            state.stats.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
    *lock(&running.count) -= 1;
    running.exited.notify_all();
}

/// Initial size of a connection's read buffer (see [`ReadBuf`]: it
/// grows only while one partial request fills it, which the parser's
/// caps bound).
const READ_BUF: usize = 8192;

/// Runs one admitted connection to completion: keep-alive loop with
/// pipelining (every complete buffered request is answered in one
/// write), per-read timeouts, a total header deadline, and the parser
/// caps. Any reject answers once and closes.
///
/// The three buffers below are the connection's whole scratch: the
/// read buffer (requests are consumed with a cursor and the remainder
/// compacted once per read), the routed body, and the outgoing batch.
/// All are reused for every request, so a steady-state request costs
/// no heap allocation.
fn serve_connection(
    mut stream: TcpStream,
    state: &ServiceState,
    reader: &mut SnapshotReader,
    config: &ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));

    let stats = &state.stats;
    let mut buf = ReadBuf::new(READ_BUF);
    let mut body = String::with_capacity(1024);
    let mut out = Vec::with_capacity(4096);
    let mut served = 0u64;
    let mut responded = false;
    // The deadline for the *current* partially buffered head; reset
    // every time a request completes.
    let mut head_started: Option<Instant> = None;

    loop {
        // Answer everything already buffered (pipelining).
        out.clear();
        let mut close = false;
        loop {
            match parser::parse(buf.unread(), &config.limits) {
                Parsed::Complete { request, consumed } => {
                    head_started = None;
                    served += 1;
                    let draining = state.draining.load(Ordering::Relaxed);
                    let keep =
                        request.keep_alive && served < config.max_requests_per_conn && !draining;
                    let routed = route_into(request.path, request.query, state, reader, &mut body);
                    count_response(stats, routed.status, draining);
                    write_response(
                        &mut out,
                        routed.status,
                        &body,
                        request.method == Method::Head,
                        !keep,
                        routed.retry_after,
                    );
                    buf.consume(consumed);
                    if !keep {
                        close = true;
                        break;
                    }
                }
                Parsed::Partial => break,
                Parsed::Reject(reject) => {
                    respond_reject(stats, &mut out, &mut body, reject);
                    close = true;
                    break;
                }
            }
        }
        if !out.is_empty() {
            responded = true;
            if stream.write_all(&out).is_err() {
                stats.closed_unanswered.fetch_add(1, Ordering::Relaxed);
                return;
            }
            stats
                .bytes_out
                .fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        if close {
            let _ = stream.flush();
            return;
        }

        // Header deadline: a partial head may not linger across reads.
        let mid_head = !buf.unread().is_empty();
        if mid_head {
            let started = *head_started.get_or_insert_with(Instant::now);
            if started.elapsed() >= config.header_deadline {
                out.clear();
                respond_reject(stats, &mut out, &mut body, Reject::Timeout);
                if stream.write_all(&out).is_ok() {
                    stats
                        .bytes_out
                        .fetch_add(out.len() as u64, Ordering::Relaxed);
                }
                return;
            }
        }

        match buf.fill_from(&mut stream) {
            Ok(0) => {
                if mid_head || !responded {
                    stats.closed_unanswered.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Ok(n) => {
                if !mid_head {
                    head_started = Some(Instant::now());
                }
                stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if !mid_head {
                    // Idle keep-alive connection: close quietly unless
                    // it never produced a request.
                    if !responded {
                        stats.closed_unanswered.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
                // Mid-head stall: loop back so the header deadline
                // (checked above) decides when to give up with 408.
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                stats.closed_unanswered.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

fn count_response(stats: &ServerStats, status: u16, draining: bool) {
    stats.requests.fetch_add(1, Ordering::Relaxed);
    match status {
        200..=299 => stats.responses_2xx.fetch_add(1, Ordering::Relaxed),
        503 if draining => stats.drain_rejects.fetch_add(1, Ordering::Relaxed),
        408 => stats.timeouts.fetch_add(1, Ordering::Relaxed),
        400..=499 => stats.responses_4xx.fetch_add(1, Ordering::Relaxed),
        _ => stats.responses_5xx.fetch_add(1, Ordering::Relaxed),
    };
}

fn respond_reject(stats: &ServerStats, out: &mut Vec<u8>, body: &mut String, reject: Reject) {
    stats.requests.fetch_add(1, Ordering::Relaxed);
    // Every parse reject is the client's fault — 501/505 carry 5xx
    // status codes on the wire but are counted with the 4xx family so
    // `responses_5xx` stays a pure handler-failure signal.
    match reject.status() {
        408 => stats.timeouts.fetch_add(1, Ordering::Relaxed),
        _ => stats.responses_4xx.fetch_add(1, Ordering::Relaxed),
    };
    body.clear();
    json::object(body, |o| o.str(key!("error"), reject.detail()));
    write_response(out, reject.status(), body, false, true, None);
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// Serializes one response. `head_only` suppresses the body while
/// keeping the real `Content-Length` (HEAD semantics).
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    body: &str,
    head_only: bool,
    close: bool,
    retry_after: Option<u32>,
) {
    let mut digits = [0u8; 20];
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(json::decimal(u64::from(status), &mut digits));
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: application/json\r\nContent-Length: ");
    out.extend_from_slice(json::decimal(body.len() as u64, &mut digits));
    out.extend_from_slice(b"\r\n");
    if let Some(secs) = retry_after {
        out.extend_from_slice(b"Retry-After: ");
        out.extend_from_slice(json::decimal(u64::from(secs), &mut digits));
        out.extend_from_slice(b"\r\n");
    }
    if close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    if !head_only {
        out.extend_from_slice(body.as_bytes());
    }
}
