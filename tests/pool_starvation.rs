//! Regression: HTTP drainers parked on keep-alive reads must not use
//! up the shared worker pool.
//!
//! A drainer holds a pool thread for as long as its connection is
//! open. When `Server::start` sized the pool to `max(cores, workers)`,
//! `workers` idle keep-alive connections parked every thread, and a
//! detached `WorkerPool::global().spawn` — how a publisher runs
//! `SnapshotHub::republish` — waited until a client hung up. The
//! drainers are now reserved on top of the compute sizing.
//!
//! This file is its own test binary on purpose: the global pool is
//! process-wide, and another test's server would grow it.

use cloud_sim::time::SimTime;
use spotlight_core::snapshot::SnapshotHub;
use spotlight_core::store::{DataStore, SharedStore};
use spotlight_pool::WorkerPool;
use spotlight_serve::client::Client;
use spotlight_serve::server::{Server, ServerConfig};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn parked_drainers_leave_pool_threads_for_detached_tasks() {
    let pool = WorkerPool::global();
    let workers = pool.threads();
    let store: SharedStore = Arc::new(DataStore::new());
    let hub = Arc::new(SnapshotHub::new(store.snapshot(SimTime::ZERO)));
    let server = Server::start(
        "127.0.0.1:0",
        &store,
        hub,
        ServerConfig {
            workers,
            // The connections below must outlive the spawn check.
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .expect("start server");

    // One answered request per connection proves its drainer is
    // running — and, the response read, parked in the next read.
    let clients: Vec<Client> = (0..workers)
        .map(|_| {
            let mut client =
                Client::connect(server.local_addr(), Duration::from_secs(5)).expect("connect");
            assert_eq!(client.get("/healthz").expect("healthz").status, 200);
            client
        })
        .collect();

    let (tx, rx) = mpsc::channel();
    pool.spawn(move || tx.send(()).expect("receiver waits"))
        .expect("pool is running");
    let ran = rx.recv_timeout(Duration::from_secs(5));

    drop(clients);
    let report = server.drain(Duration::from_secs(5));
    assert!(!report.forced, "drain deadline hit: {:?}", report.stats);
    assert!(
        ran.is_ok(),
        "a detached pool task did not run while {workers} keep-alive connections were open"
    );
}
