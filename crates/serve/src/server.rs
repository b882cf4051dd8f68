//! The overload-safe HTTP server: bounded accept → dispatch →
//! pool-backed drainers, with graceful drain.
//!
//! One acceptor thread pulls connections off the listener and either
//! admits them (permit + bounded queue) or sheds them through
//! [`crate::admission::Shedder`]. Admitted connections are handled by
//! **drainer tasks on the shared persistent worker pool**
//! ([`spotlight_pool::WorkerPool::global`]) rather than by per-server
//! owned threads: when a connection arrives and fewer than
//! [`ServerConfig::workers`] drainers are active, the acceptor spawns
//! one; otherwise the connection waits in the server-local bounded
//! queue, and each drainer, after finishing a connection, keeps
//! popping that queue until it is empty and only then parks back into
//! the pool. An idle server therefore occupies **zero** pool threads,
//! and the HTTP service, the simulator tick, and the snapshot builder
//! all share one pool sized to the host. Because drainers block on
//! socket I/O, [`Server::start`] grows the pool to the host's
//! parallelism **plus** `workers` threads: even with every drainer
//! parked in a read, as many threads as the host has cores remain for
//! compute tasks (the publisher's snapshot capture, the tick fan-out).
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
//! pool worker survives. Drainers answer from atomically published
//! [`StoreSnapshot`]s — the live store is only touched by the health
//! surfaces, through a `Weak` handle.
//!
//! [`Server::drain`] stops the acceptor, lets queued and in-flight
//! connections finish (or abandons them at the deadline), and leaves
//! the caller holding the last strong store reference so it can
//! [`spotlight_core::DataStore::close`] for a zero-replay restart.
//!
//! [`StoreSnapshot`]: spotlight_core::snapshot::StoreSnapshot

use crate::admission::{Permit, ServerStats, Shedder, StatsSnapshot};
use crate::parser::{self, Limits, Method, Parsed, Reject};
use crate::readbuf::ReadBuf;
use crate::router::{route_into, ServiceState};
use spotlight_core::json::{self, key};
use spotlight_core::snapshot::{SnapshotHub, SnapshotReader};
use spotlight_core::store::SharedStore;
use spotlight_pool::WorkerPool;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently active drainer tasks on the shared worker
    /// pool — the server's connection-handling concurrency, enforced
    /// by the server's own dispatch counter (not by pool size; the
    /// pool is grown by this many threads past the host's parallelism
    /// at start).
    pub workers: usize,
    /// Dispatch-queue depth between the acceptor and the drainers.
    /// Admission fails (shed) when the queue is full.
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
    /// True when the deadline expired with workers still busy (their
    /// connections were abandoned, not joined).
    pub forced: bool,
    /// Final counters.
    pub stats: StatsSnapshot,
}

/// One admitted connection travelling the dispatch queue.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    permit: Permit,
}

/// The acceptor↔drainer handoff: a bounded queue of admitted
/// connections plus the active-drainer count, under one mutex so the
/// spawn-vs-enqueue decision and a drainer's pop-vs-exit decision can
/// never race each other into a lost connection (a drainer gives up
/// its active slot only in the same critical section that proves the
/// queue empty).
#[derive(Debug, Default)]
struct Dispatch {
    inner: Mutex<DispatchQueue>,
    /// Signalled whenever a drainer retires; [`Server::drain`] waits
    /// here for quiescence.
    idle: Condvar,
}

#[derive(Debug, Default)]
struct DispatchQueue {
    queue: VecDeque<Conn>,
    /// Drainer tasks currently running on the pool for this server.
    active: usize,
}

/// Locks ignoring poisoning: connection handling runs under
/// `catch_unwind`, so dispatch state is never left mid-mutation.
fn lock(dispatch: &Dispatch) -> MutexGuard<'_, DispatchQueue> {
    dispatch
        .inner
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A running HTTP server. Dropping it without [`Server::drain`] leaks
/// the acceptor thread until process exit; drain is the supported
/// shutdown. (Drainer tasks retire on their own once idle — they
/// borrow pool threads only while connections are in flight.)
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    state: Arc<ServiceState>,
    acceptor: JoinHandle<()>,
    dispatch: Arc<Dispatch>,
}

impl Server {
    /// Binds `addr` and starts the acceptor and shedder threads.
    /// Connection handling runs as drainer tasks on the shared
    /// persistent worker pool, which is grown here to the host's
    /// parallelism plus `config.workers` threads: drainers block on
    /// socket I/O, so they are reserved in addition to the compute
    /// sizing, not out of it (with `max(cores, workers)` threads,
    /// `workers` open keep-alive connections parked every thread and a
    /// detached `spawn` — the snapshot publisher — never ran).
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
        let stats = Arc::new(ServerStats::default());
        let state = Arc::new(ServiceState {
            hub,
            store: Arc::downgrade(store),
            stats: Arc::clone(&stats),
            draining: Arc::new(AtomicBool::new(false)),
            retry_after_secs: config.retry_after_secs,
        });

        let pool = WorkerPool::global();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        pool.reserve(cores + config.workers.max(1));
        let dispatch = Arc::new(Dispatch::default());

        let acceptor = {
            let state = Arc::clone(&state);
            let dispatch = Arc::clone(&dispatch);
            let shedder = Shedder::spawn(
                Arc::clone(&stats),
                config.queue_depth.max(16),
                config.retry_after_secs,
                config.write_timeout,
            )?;
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || {
                    accept_loop(&listener, &state, &shedder, &dispatch, &pool, &config);
                    shedder.join();
                })
                .map_err(io::Error::other)?
        };

        Ok(Server {
            local_addr,
            state,
            acceptor,
            dispatch,
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
    /// drainer to retire — abandoning stragglers when `deadline`
    /// expires (they keep their pool threads until their connections
    /// close, but the server itself is gone). After this returns, the
    /// server holds no strong store reference.
    pub fn drain(self, deadline: Duration) -> DrainReport {
        self.state.draining.store(true, Ordering::SeqCst);
        // The acceptor may be parked in accept(); a throwaway local
        // connection wakes it so it can observe the flag.
        if let Ok(stream) = TcpStream::connect(self.local_addr) {
            drop(stream);
        }
        let started = Instant::now();
        let _ = self.acceptor.join();
        // No new connections can arrive; active drainers finish their
        // current connections, pop the remaining queue dry, and retire
        // (signalling `idle` as they go).
        let mut forced = false;
        let mut queue = lock(&self.dispatch);
        while queue.active > 0 || !queue.queue.is_empty() {
            let left = deadline.saturating_sub(started.elapsed());
            if left.is_zero() {
                forced = true;
                break;
            }
            let (guard, _timeout) = self
                .dispatch
                .idle
                .wait_timeout(queue, left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            queue = guard;
        }
        drop(queue);
        DrainReport {
            forced,
            stats: self.state.stats.snapshot(),
        }
    }
}

/// The acceptor's admission decision, made in one dispatch critical
/// section so it cannot race a drainer's retire decision.
enum Admit {
    /// Below the drainer cap: start a new drainer with this connection.
    Spawn(Conn),
    /// Cap reached but the queue had room: an active drainer will pop it.
    Queued,
    /// Cap reached and queue full: shed.
    Shed(Conn),
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServiceState>,
    shedder: &Shedder,
    dispatch: &Arc<Dispatch>,
    pool: &Arc<WorkerPool>,
    config: &ServerConfig,
) {
    let workers = config.workers.max(1);
    let queue_depth = config.queue_depth.max(1);
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
        let Some(permit) = Permit::try_acquire(&state.stats, config.max_connections) else {
            shedder.shed(&state.stats, stream);
            continue;
        };
        let conn = Conn { stream, permit };
        let decision = {
            let mut queue = lock(dispatch);
            if queue.active < workers {
                queue.active += 1;
                Admit::Spawn(conn)
            } else if queue.queue.len() < queue_depth {
                queue.queue.push_back(conn);
                Admit::Queued
            } else {
                Admit::Shed(conn)
            }
        };
        match decision {
            Admit::Spawn(conn) => {
                state.stats.admitted.fetch_add(1, Ordering::Relaxed);
                let task_state = Arc::clone(state);
                let task_dispatch = Arc::clone(dispatch);
                let task_config = config.clone();
                let spawned =
                    pool.spawn(move || drainer(&task_state, &task_dispatch, &task_config, conn));
                if spawned.is_err() {
                    // Pool shut down (process teardown): the closure —
                    // and with it the connection and its permit — was
                    // dropped by the failed submit; give the active
                    // slot back so drain() still quiesces.
                    let mut queue = lock(dispatch);
                    queue.active -= 1;
                }
            }
            Admit::Queued => {
                state.stats.admitted.fetch_add(1, Ordering::Relaxed);
            }
            Admit::Shed(conn) => {
                // Queue full: release the permit first (drop order),
                // then shed the socket.
                let Conn { stream, permit } = conn;
                drop(permit);
                shedder.shed(&state.stats, stream);
            }
        }
    }
}

/// One drainer task: serve the handed-off connection, then keep
/// popping the server's queue until it runs dry, and only then retire
/// — giving the pool thread back. The retire decision shares the
/// dispatch critical section with the acceptor's spawn decision, so a
/// connection is never left queued without a drainer responsible for
/// it.
fn drainer(state: &Arc<ServiceState>, dispatch: &Dispatch, config: &ServerConfig, first: Conn) {
    let mut reader = SnapshotReader::new(&state.hub);
    let mut conn = first;
    loop {
        let Conn { stream, permit } = conn;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The permit moves into the closure: released on return
            // *and* on unwind, so panics cannot leak gauge slots.
            let _permit = permit;
            serve_connection(stream, state, &mut reader, config);
        }));
        if outcome.is_err() {
            state.stats.panics.fetch_add(1, Ordering::Relaxed);
        }
        let mut queue = lock(dispatch);
        match queue.queue.pop_front() {
            Some(next) => conn = next,
            None => {
                queue.active -= 1;
                drop(queue);
                dispatch.idle.notify_all();
                return;
            }
        }
    }
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
