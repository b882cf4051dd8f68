//! Admission control: connection permits, the bounded shed path, and
//! the server's atomic counters.
//!
//! The acceptor admits a connection only while a permit is available
//! (a gauge against [`crate::server::ServerConfig::max_connections`])
//! *and* the dispatch queue has room. Everything else is **shed**: the
//! socket is handed to a dedicated shedder thread that writes a canned
//! `503 Service Unavailable` + `Retry-After` with a short write
//! timeout and closes. The shedder's own queue is bounded too — when
//! even shedding falls behind, sockets are dropped unanswered
//! (counted, never queued), so no part of the accept path grows
//! without bound.

use spotlight_core::json::{self, key, ToJson};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Lifetime counters of one server, all monotonic except the
/// `open_connections` gauge. Shared by reference; every field is
/// updated with relaxed atomics (they are counters, not
/// synchronization).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections the acceptor pulled off the listener.
    pub accepted: AtomicU64,
    /// Connections admitted past permits + dispatch queue.
    pub admitted: AtomicU64,
    /// Connections shed with a `503 + Retry-After`.
    pub shed: AtomicU64,
    /// Connections dropped unanswered because the shed path itself was
    /// saturated.
    pub shed_dropped: AtomicU64,
    /// Requests answered (any status).
    pub requests: AtomicU64,
    /// 2xx responses.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (malformed input, unknown routes, caps).
    pub responses_4xx: AtomicU64,
    /// 5xx responses originated by handlers — panics converted to 500.
    /// Stays zero unless something is genuinely broken (shed 503s are
    /// counted in `shed`, drain 503s in `drain_rejects`).
    pub responses_5xx: AtomicU64,
    /// `503` responses sent because the server was draining.
    pub drain_rejects: AtomicU64,
    /// `408` responses (header deadline expired mid-request).
    pub timeouts: AtomicU64,
    /// Connections closed without a response (idle keep-alive expiry,
    /// write stalls, peer resets).
    pub closed_unanswered: AtomicU64,
    /// Handler panics caught by the connection supervisor.
    pub panics: AtomicU64,
    /// Currently admitted connections (gauge).
    pub open_connections: AtomicU64,
    /// Request bytes read.
    pub bytes_in: AtomicU64,
    /// Response bytes written.
    pub bytes_out: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub accepted: u64,
    pub admitted: u64,
    pub shed: u64,
    pub shed_dropped: u64,
    pub requests: u64,
    pub responses_2xx: u64,
    pub responses_4xx: u64,
    pub responses_5xx: u64,
    pub drain_rejects: u64,
    pub timeouts: u64,
    pub closed_unanswered: u64,
    pub panics: u64,
    pub open_connections: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl ServerStats {
    /// Copies every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            accepted: ld(&self.accepted),
            admitted: ld(&self.admitted),
            shed: ld(&self.shed),
            shed_dropped: ld(&self.shed_dropped),
            requests: ld(&self.requests),
            responses_2xx: ld(&self.responses_2xx),
            responses_4xx: ld(&self.responses_4xx),
            responses_5xx: ld(&self.responses_5xx),
            drain_rejects: ld(&self.drain_rejects),
            timeouts: ld(&self.timeouts),
            closed_unanswered: ld(&self.closed_unanswered),
            panics: ld(&self.panics),
            open_connections: ld(&self.open_connections),
            bytes_in: ld(&self.bytes_in),
            bytes_out: ld(&self.bytes_out),
        }
    }
}

/// The counters as `/statz` serves them.
impl ToJson for StatsSnapshot {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.u64(key!("accepted"), self.accepted);
            o.u64(key!("admitted"), self.admitted);
            o.u64(key!("shed"), self.shed);
            o.u64(key!("shed_dropped"), self.shed_dropped);
            o.u64(key!("requests"), self.requests);
            o.u64(key!("responses_2xx"), self.responses_2xx);
            o.u64(key!("responses_4xx"), self.responses_4xx);
            o.u64(key!("responses_5xx"), self.responses_5xx);
            o.u64(key!("drain_rejects"), self.drain_rejects);
            o.u64(key!("timeouts"), self.timeouts);
            o.u64(key!("closed_unanswered"), self.closed_unanswered);
            o.u64(key!("panics"), self.panics);
            o.u64(key!("open_connections"), self.open_connections);
            o.u64(key!("bytes_in"), self.bytes_in);
            o.u64(key!("bytes_out"), self.bytes_out);
        });
    }
}

/// RAII admission permit: holds one slot of the connection gauge and
/// releases it when the connection finishes — including when the
/// handler panics (the unwind drops the permit), so the gauge cannot
/// leak under faults.
#[derive(Debug)]
pub struct Permit {
    stats: Arc<ServerStats>,
}

impl Permit {
    /// Tries to take a connection slot; `None` when the gauge is at
    /// `max_connections`.
    pub fn try_acquire(stats: &Arc<ServerStats>, max_connections: u64) -> Option<Permit> {
        // Single acceptor thread: add-then-check cannot race another
        // acquirer past the cap.
        let prev = stats.open_connections.fetch_add(1, Ordering::Relaxed);
        if prev >= max_connections {
            stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        Some(Permit {
            stats: Arc::clone(stats),
        })
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shed path: a bounded queue feeding one thread that answers
/// refused connections with a canned `503`.
#[derive(Debug)]
pub struct Shedder {
    tx: SyncSender<TcpStream>,
    handle: JoinHandle<()>,
}

impl Shedder {
    /// Spawns the shedder thread. `retry_after_secs` fills the
    /// `Retry-After` header clients should honor before re-offering
    /// load.
    pub fn spawn(
        stats: Arc<ServerStats>,
        queue_depth: usize,
        retry_after_secs: u32,
        write_timeout: Duration,
    ) -> Self {
        let (tx, rx) = sync_channel::<TcpStream>(queue_depth.max(1));
        let response = canned_503(retry_after_secs);
        let handle = std::thread::Builder::new()
            .name("serve-shedder".into())
            .spawn(move || {
                while let Ok(mut stream) = rx.recv() {
                    let _ = stream.set_write_timeout(Some(write_timeout));
                    if stream.write_all(response.as_bytes()).is_ok() {
                        stats
                            .bytes_out
                            .fetch_add(response.len() as u64, Ordering::Relaxed);
                    }
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            })
            .expect("spawn shedder thread");
        Shedder { tx, handle }
    }

    /// Hands a refused connection to the shed thread; if even that
    /// queue is full, the socket is dropped unanswered. Counts either
    /// way.
    pub fn shed(&self, stats: &ServerStats, stream: TcpStream) {
        match self.tx.try_send(stream) {
            Ok(()) => {
                stats.shed.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(stream) | TrySendError::Disconnected(stream)) => {
                stats.shed_dropped.fetch_add(1, Ordering::Relaxed);
                drop(stream);
            }
        }
    }

    /// Stops the thread (after the queued sockets are answered).
    pub fn join(self) {
        drop(self.tx);
        let _ = self.handle.join();
    }
}

/// The canned overload response the shedder writes.
fn canned_503(retry_after_secs: u32) -> String {
    let body = "{\"error\":\"server overloaded, retry later\"}";
    format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nRetry-After: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        retry_after_secs,
        body
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_cap_and_release() {
        let stats = Arc::new(ServerStats::default());
        let a = Permit::try_acquire(&stats, 2).unwrap();
        let _b = Permit::try_acquire(&stats, 2).unwrap();
        assert!(Permit::try_acquire(&stats, 2).is_none());
        assert_eq!(stats.open_connections.load(Ordering::Relaxed), 2);
        drop(a);
        assert_eq!(stats.open_connections.load(Ordering::Relaxed), 1);
        assert!(Permit::try_acquire(&stats, 2).is_some());
    }

    #[test]
    fn canned_503_carries_retry_after() {
        let r = canned_503(7);
        assert!(r.starts_with("HTTP/1.1 503"));
        assert!(r.contains("Retry-After: 7\r\n"));
        assert!(r.contains("Connection: close"));
    }
}
