//! Admission control: connection permits, the shed path, and the
//! server's atomic counters.
//!
//! The acceptor admits a connection only while a permit is available
//! (a gauge against [`crate::server::ServerConfig::max_connections`])
//! *and* the bounded queue to the connection threads has room.
//! Everything else is **shed** by the acceptor itself ([`shed`]): one
//! non-blocking write of a canned `503 Service Unavailable` +
//! `Retry-After`, then close. A fresh socket's send buffer always has
//! room for it; a socket that does not take it whole is dropped
//! unanswered (counted), so the acceptor never waits on a client and
//! no part of the accept path grows without bound.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

spotlight_core::counters! {
    /// Lifetime counters of one server, all monotonic except the
    /// `open_connections` gauge; [`StatsSnapshot`] is what `/statz` and
    /// [`crate::server::DrainReport`] carry. Shared by reference; every
    /// field is updated with relaxed atomics (they are counters, not
    /// synchronization).
    pub struct ServerStats / StatsSnapshot {
        /// Connections the acceptor pulled off the listener.
        accepted,
        /// Connections admitted past permits + the queue.
        admitted,
        /// Connections shed with a `503 + Retry-After`.
        shed,
        /// Refused connections dropped unanswered because their socket did
        /// not take the whole `503` in one non-blocking write.
        shed_dropped,
        /// Requests answered (any status).
        requests,
        /// 2xx responses.
        responses_2xx,
        /// 4xx responses (malformed input, unknown routes, caps).
        responses_4xx,
        /// 5xx responses originated by handlers — panics converted to 500.
        /// Stays zero unless something is genuinely broken (shed 503s are
        /// counted in `shed`, drain 503s in `drain_rejects`).
        responses_5xx,
        /// `503` responses sent because the server was draining.
        drain_rejects,
        /// `408` responses (header deadline expired mid-request).
        timeouts,
        /// Connections closed without a response (idle keep-alive expiry,
        /// write stalls, peer resets).
        closed_unanswered,
        /// Handler panics caught by the connection supervisor.
        panics,
        /// Currently admitted connections (gauge).
        open_connections,
        /// Request bytes read.
        bytes_in,
        /// Response bytes written.
        bytes_out,
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

/// Refuses `stream` with `response` (the canned `503`) in one
/// non-blocking write and closes it: counted in `shed` when the socket
/// took the whole response, in `shed_dropped` otherwise.
pub fn shed(stats: &ServerStats, mut stream: TcpStream, response: &[u8]) {
    let written = stream
        .set_nonblocking(true)
        .and_then(|()| stream.write(response));
    if matches!(written, Ok(n) if n == response.len()) {
        stats.shed.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_out
            .fetch_add(response.len() as u64, Ordering::Relaxed);
    } else {
        stats.shed_dropped.fetch_add(1, Ordering::Relaxed);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// The canned overload response [`shed`] writes.
pub(crate) fn canned_503(retry_after_secs: u32) -> String {
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
