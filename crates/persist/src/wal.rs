//! The write-ahead log: a bounded-queue, single-writer append log over
//! N numbered streams with generation rotation.
//!
//! Callers append `(stream, body)` pairs through [`WalHandle::append`],
//! which assigns a global monotone sequence number and encodes the
//! frame into the stream's staging buffer; staged bytes are handed to
//! a dedicated writer thread over a bounded channel once [`STAGE_BYTES`]
//! accrue (group commit — one send and one writer wakeup per ~32 KiB,
//! not per record), so the ingest path never touches the filesystem.
//! The writer batches whatever is queued, coalesces each stream's
//! frames into one write, and fsyncs per the configured [`FsyncPolicy`]
//! — the touched files, and the directory too whenever the pass created
//! a generation file (a file's bytes are only as durable as its name),
//! before the durability watermark moves or a flush is acknowledged.
//!
//! Ordering guarantee: sequence numbers are assigned under the stream's
//! staging lock, staged buffers only ever append, the channel send of a
//! filled stage happens **while that lock is still held**, and the
//! channel is FIFO into a single writer, so the frames of any one
//! stream land on disk in strictly increasing sequence order — even
//! when a flush/rotate drain races a threshold-crossing append.
//! Recovery leans on this for duplicate suppression (per-stream
//! `last_seen` high-water marks).
//!
//! Rotation ([`WalHandle::rotate`]) flushes and closes every open
//! generation file and bumps the generation counter; checkpointing uses
//! it to bound how much log recovery must replay.
//!
//! # Fault handling
//!
//! Disk trouble on the write path is no longer fire-and-forget. A
//! failed batch write is retried a bounded number of times with backoff
//! (after truncating the file back to its last known-good length, so a
//! partial write can never leave torn garbage *in front of* later
//! frames); if the disk stays broken — or fsync keeps failing — the
//! writer enters a **degraded** state: it stops touching the filesystem
//! and counts every subsequent frame as dropped
//! ([`WalStats::dropped_frames`]). The state is visible through
//! [`WalHandle::is_degraded`] and sticky until [`WalHandle::revive`]
//! clears it and moves to a fresh generation — the caller
//! (`spotlight-core`'s `DurableSink`) drives that heal via its
//! checkpoint protocol.
//!
//! Alongside, the writer maintains a *durability watermark*
//! ([`WalHandle::durable_at`]): the maximum caller-supplied op time
//! among frames that were both written and fsynced successfully. When
//! the log degrades, everything at or before the watermark is provably
//! on disk; everything after it may exist only in memory.

use crate::frame;
use crate::log::LogDir;
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When the writer thread calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every appended frame. Durable to the last record,
    /// slowest.
    Always,
    /// Group commit: drain the queue, write everything, and fsync the
    /// dirty files once [`SYNC_INTERVAL`] has elapsed since their first
    /// unsynced write (and always on flush, rotation, and shutdown).
    /// The default: a crash loses at most the staged tail (up to
    /// [`STAGE_BYTES`] per stream), the writer queue, and the last
    /// [`SYNC_INTERVAL`] of written-but-unsynced frames.
    Batch,
    /// Never fsync from the writer loop (still synced on flush,
    /// rotation, and shutdown). For tests and benchmarks.
    Never,
}

/// Configuration for [`WalHandle::open`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Number of log streams (store stripes + 1 meta stream).
    pub streams: u32,
    /// Fsync policy for the writer thread.
    pub fsync: FsyncPolicy,
    /// Bounded append-queue depth; `append` blocks when full, so a slow
    /// disk applies backpressure instead of unbounded memory growth.
    pub queue_capacity: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            streams: 1,
            fsync: FsyncPolicy::Batch,
            queue_capacity: 4096,
        }
    }
}

/// Counters mirrored out of the writer thread.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Frames appended (enqueued) so far.
    pub appended_ops: AtomicU64,
    /// Framed bytes appended so far.
    pub appended_bytes: AtomicU64,
    /// Fsync calls issued by the writer.
    pub fsyncs: AtomicU64,
    /// Write/fsync errors the writer has hit (including each failed
    /// retry attempt).
    pub io_errors: AtomicU64,
    /// Frames dropped because the writer was degraded.
    pub dropped_frames: AtomicU64,
    /// Framed bytes dropped because the writer was degraded.
    pub dropped_bytes: AtomicU64,
    /// Max caller-supplied op time among frames both written and
    /// fsynced successfully.
    pub durable_at: AtomicU64,
    /// Whether the writer is currently degraded (dropping frames).
    pub degraded: AtomicBool,
    /// Human-readable description of the most recent IO error.
    pub last_error: Mutex<Option<String>>,
}

impl WalStats {
    /// Counts `err` and makes it the most recent one. The writer records
    /// its own failures here; a caller with more durable paths (a
    /// checkpoint, a spill) records theirs too, so the log's stats are
    /// the one error record.
    pub fn record_error(&self, err: &io::Error, what: &str) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        *unpoisoned(&self.last_error) = Some(format!("{what}: {err}"));
    }

    /// The most recent IO error, human-readable.
    pub fn last_error_text(&self) -> Option<String> {
        unpoisoned(&self.last_error).clone()
    }
}

/// A lock acquire that shrugs off poisoning: the data under these locks
/// (staging buffers, an error string) stays structurally valid even if
/// a holder panicked mid-update, and refusing to log because some other
/// thread died would turn one failure into two.
fn unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn writer_gone() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "wal writer thread has exited")
}

enum Msg {
    Frame {
        stream: u32,
        bytes: Vec<u8>,
        frames: u64,
        max_at: u64,
    },
    Flush(SyncSender<io::Result<()>>),
    Rotate {
        ack: SyncSender<io::Result<u64>>,
    },
    Revive {
        ack: SyncSender<u64>,
    },
}

/// Group-commit threshold: a stream's staged frames are handed to the
/// writer once they reach this many bytes (or on flush/rotate/drop).
/// Staging turns the per-record channel send + writer wakeup into one
/// per ~32 KiB, which is what keeps durable ingest near in-memory
/// ingest speed; the cost is a wider loss window on a hard crash
/// (bounded by this constant per stream, on top of the writer queue).
/// [`FsyncPolicy::Always`] bypasses staging entirely.
pub const STAGE_BYTES: usize = 32 * 1024;

/// How long written frames may sit unsynced under
/// [`FsyncPolicy::Batch`]. An fsync costs ~100µs per touched stream
/// file; syncing on a deadline instead of per drained batch caps that
/// cost at `streams / SYNC_INTERVAL` per second no matter the ingest
/// rate, in exchange for a crash-loss window of this duration.
pub const SYNC_INTERVAL: std::time::Duration = std::time::Duration::from_millis(5);

/// How many times the writer attempts one batch write before declaring
/// the log degraded.
const WRITE_RETRIES: u32 = 3;
/// Backoff before the second write attempt; quadruples per attempt.
const RETRY_BASE: Duration = Duration::from_millis(2);
/// Backoff ceiling between write attempts.
const RETRY_CAP: Duration = Duration::from_millis(50);
/// Consecutive failing fsync passes tolerated before the writer
/// declares the log degraded (writes that never become durable are not
/// meaningfully better than writes that fail).
const SYNC_FAILURE_LIMIT: u32 = 3;

/// One stream's staging buffer plus the bookkeeping that rides with it
/// to the writer.
#[derive(Default)]
struct Stage {
    buf: Vec<u8>,
    frames: u64,
    max_at: u64,
}

/// Handle to the append log. Cloneable via `Arc`; dropping the last
/// handle flushes, fsyncs, and joins the writer thread.
pub struct WalHandle {
    tx: Option<SyncSender<Msg>>,
    writer: Option<JoinHandle<()>>,
    next_seq: AtomicU64,
    /// Per-stream staging buffers for group commit. Sequence numbers
    /// are assigned *and filled stages are sent to the writer* under
    /// the stage lock, so each stream's frames are strictly seq-ordered
    /// on disk even for lock-free callers.
    stages: Vec<Mutex<Stage>>,
    /// Staging threshold in bytes; 0 sends every frame immediately.
    stage_bytes: usize,
    stats: Arc<WalStats>,
}

impl std::fmt::Debug for WalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalHandle")
            .field("next_seq", &self.next_seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WalHandle {
    /// Opens the log inside `dir`, starting at `generation` and issuing
    /// sequence numbers from `first_seq`.
    ///
    /// # Errors
    ///
    /// Fails if the directory handle cannot be duplicated for the
    /// writer thread, or the thread cannot be spawned.
    pub fn open(
        dir: &LogDir,
        config: WalConfig,
        generation: u64,
        first_seq: u64,
    ) -> io::Result<WalHandle> {
        let stats = Arc::new(WalStats::default());
        let (tx, rx) = sync_channel::<Msg>(config.queue_capacity.max(1));
        let writer_dir = dir.clone_view()?;
        let writer_stats = Arc::clone(&stats);
        let stages = (0..config.streams.max(1))
            .map(|_| Mutex::new(Stage::default()))
            .collect();
        let stage_bytes = match config.fsync {
            FsyncPolicy::Always => 0,
            FsyncPolicy::Batch | FsyncPolicy::Never => STAGE_BYTES,
        };
        let writer = std::thread::Builder::new()
            .name("spotlight-wal".into())
            .spawn(move || writer_loop(writer_dir, config, generation, rx, writer_stats))?;
        Ok(WalHandle {
            tx: Some(tx),
            writer: Some(writer),
            next_seq: AtomicU64::new(first_seq),
            stages,
            stage_bytes,
            stats,
        })
    }

    /// A writer thread that has exited has surrendered: the failed send
    /// marks the log degraded, as [`WalHandle::is_degraded`] reports.
    fn send(&self, msg: Msg) -> io::Result<()> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(writer_gone());
        };
        tx.send(msg).map_err(|_| {
            self.stats.degraded.store(true, Ordering::Release);
            writer_gone()
        })
    }

    /// Appends `body` to `stream` tagged with op time `at` (0 for
    /// untimed records), returning the assigned sequence number.
    /// Fire-and-forget: the frame lands in the stream's staging buffer
    /// and is handed to the writer once [`STAGE_BYTES`] accrue
    /// (immediately under [`FsyncPolicy::Always`]). Write/fsync errors
    /// surface via [`WalHandle::stats`], [`WalHandle::is_degraded`],
    /// and the next [`WalHandle::flush`].
    ///
    /// # Errors
    ///
    /// Fails only if the writer thread has already exited (the handle
    /// is being shut down).
    pub fn append(&self, stream: u32, body: &[u8], at: u64) -> io::Result<u64> {
        let mut stage = unpoisoned(&self.stages[stream as usize]);
        // Seq assignment under the stage lock keeps this stream's
        // frames strictly seq-ordered on disk.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let before = stage.buf.len();
        frame::write_frame(&mut stage.buf, seq, body);
        stage.frames += 1;
        stage.max_at = stage.max_at.max(at);
        self.stats.appended_ops.fetch_add(1, Ordering::Relaxed);
        self.stats
            .appended_bytes
            .fetch_add((stage.buf.len() - before) as u64, Ordering::Relaxed);
        if stage.buf.len() >= self.stage_bytes {
            let full = std::mem::take(&mut *stage);
            // Send while the stage lock is still held: two senders on
            // one stream (a second threshold crossing, or a concurrent
            // flush/rotate drain) must enqueue in seq-assignment order,
            // or recovery's monotone per-stream floor would silently
            // skip the overtaken lower-seq frames. A full queue merely
            // extends this critical section (backpressure); the writer
            // thread never takes stage locks, so it cannot deadlock.
            self.send(Msg::Frame {
                stream,
                bytes: full.buf,
                frames: full.frames,
                max_at: full.max_at,
            })?;
        }
        Ok(seq)
    }

    /// Hands every non-empty staging buffer to the writer, in stream
    /// order. Each send happens under the stream's stage lock so it
    /// serializes against concurrent appends' sends — see `append`.
    fn drain_stages(&self) -> io::Result<()> {
        for (stream, stage) in self.stages.iter().enumerate() {
            let mut stage = unpoisoned(stage);
            if stage.buf.is_empty() {
                continue;
            }
            let full = std::mem::take(&mut *stage);
            self.send(Msg::Frame {
                stream: stream as u32,
                bytes: full.buf,
                frames: full.frames,
                max_at: full.max_at,
            })?;
        }
        Ok(())
    }

    /// The next sequence number that [`WalHandle::append`] will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Writes out everything queued and fsyncs every touched file.
    ///
    /// # Errors
    ///
    /// Returns the first IO error the writer hit since the last flush,
    /// or a `BrokenPipe`-flavored error while degraded (appends are
    /// being dropped, so a successful flush would be a lie).
    pub fn flush(&self) -> io::Result<()> {
        self.drain_stages()?;
        let (ack, done) = sync_channel(1);
        self.send(Msg::Flush(ack))?;
        done.recv().map_err(|_| writer_gone())?
    }

    /// Flushes, fsyncs, and closes every open generation file, then
    /// advances to the next generation. Returns the *new* generation.
    ///
    /// # Errors
    ///
    /// Returns the first IO error encountered while draining.
    pub fn rotate(&self) -> io::Result<u64> {
        self.drain_stages()?;
        let (ack, done) = sync_channel(1);
        self.send(Msg::Rotate { ack })?;
        done.recv().map_err(|_| writer_gone())?
    }

    /// Clears the degraded state and moves the writer to a fresh
    /// generation, returning it. The caller is expected to follow up
    /// with a checkpoint that captures everything the degraded window
    /// dropped; frames still staged from before the failure ride along
    /// afterwards and are suppressed at recovery by the checkpoint's
    /// sequence floor.
    ///
    /// # Errors
    ///
    /// Fails only if the writer thread has already exited.
    pub fn revive(&self) -> io::Result<u64> {
        let (ack, done) = sync_channel(1);
        self.send(Msg::Revive { ack })?;
        done.recv().map_err(|_| writer_gone())
    }

    /// Whether the writer has given up on the disk and is dropping
    /// frames (see the module docs' fault-handling section).
    pub fn is_degraded(&self) -> bool {
        self.stats.degraded.load(Ordering::Acquire)
    }

    /// The durability watermark: max op time among frames both written
    /// and fsynced successfully. 0 until the first timed frame syncs.
    pub fn durable_at(&self) -> u64 {
        self.stats.durable_at.load(Ordering::Acquire)
    }

    /// The writer's counters.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }
}

impl Drop for WalHandle {
    fn drop(&mut self) {
        // Hand over any staged tail, then close the channel: the writer
        // drains, fsyncs, and exits. Send failures mean the writer is
        // already gone — nothing left to hand over to.
        let _ = self.drain_stages();
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// An open generation file plus the byte length known to hold only
/// whole, successfully written batches — the truncation point that
/// makes a failed partial write retryable.
struct OpenFile {
    file: File,
    good_len: u64,
}

struct WriterState {
    dir: LogDir,
    generation: u64,
    /// Open generation files, keyed by stream.
    files: HashMap<u32, OpenFile>,
    /// Streams written since the last fsync.
    dirty: Vec<u32>,
    /// A generation file was opened (so, in a fresh generation,
    /// created) since the last directory fsync: its *name* is not
    /// durable yet, whatever its bytes are.
    dir_dirty: bool,
    /// Max op time among frames written since the last fully successful
    /// fsync pass; folded into `stats.durable_at` when one completes.
    unsynced_max_at: u64,
    /// Consecutive fully-or-partially failing fsync passes.
    sync_failures: u32,
    /// Degraded: the disk defeated bounded retry; drop frames until a
    /// revive.
    degraded: bool,
    /// First unreported IO error; handed to the next flush/rotate ack.
    pending_error: Option<io::Error>,
    stats: Arc<WalStats>,
}

impl WriterState {
    fn note_error(&mut self, err: io::Error, what: &str) {
        self.stats.record_error(&err, what);
        if self.pending_error.is_none() {
            self.pending_error = Some(err);
        }
    }

    fn drop_frames(&mut self, frames: u64, bytes: usize) {
        self.stats
            .dropped_frames
            .fetch_add(frames, Ordering::Relaxed);
        self.stats
            .dropped_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn enter_degraded(&mut self) {
        self.degraded = true;
        // Close every file: written-but-unsynced frames may or may not
        // reach disk, so they must not advance the durability
        // watermark, and nothing touches the filesystem again until a
        // revive.
        self.files.clear();
        self.dirty.clear();
        self.dir_dirty = false;
        self.unsynced_max_at = 0;
        self.sync_failures = 0;
        self.stats.degraded.store(true, Ordering::Release);
    }

    fn write_frame(&mut self, stream: u32, bytes: &[u8], frames: u64, max_at: u64) {
        if self.degraded {
            self.drop_frames(frames, bytes.len());
            return;
        }
        let mut delay = RETRY_BASE;
        for attempt in 0..WRITE_RETRIES {
            match self.try_write(stream, bytes) {
                Ok(()) => {
                    self.unsynced_max_at = self.unsynced_max_at.max(max_at);
                    return;
                }
                Err(failure) => {
                    self.note_error(failure.err, "wal append");
                    // A partial write we could not truncate away would
                    // leave torn bytes in front of any retried frames —
                    // the scanner would stop there and silently drop
                    // the rest of the generation. Give up instead.
                    if !failure.tail_restored || attempt + 1 == WRITE_RETRIES {
                        break;
                    }
                    std::thread::sleep(delay);
                    delay = (delay * 4).min(RETRY_CAP);
                }
            }
        }
        self.drop_frames(frames, bytes.len());
        self.enter_degraded();
    }

    fn try_write(&mut self, stream: u32, bytes: &[u8]) -> Result<(), WriteFailure> {
        let open = match self.files.entry(stream) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let file = self
                    .dir
                    .open_wal_append(self.generation, stream)
                    .map_err(|err| WriteFailure {
                        err,
                        // Nothing was appended past a known-good point;
                        // the open (header write included) is
                        // idempotent.
                        tail_restored: true,
                    })?;
                self.dir_dirty = true;
                let good_len = file
                    .metadata()
                    .map(|m| m.len())
                    .map_err(|err| WriteFailure {
                        err,
                        tail_restored: true,
                    })?;
                slot.insert(OpenFile { file, good_len })
            }
        };
        match self.dir.io().write_all(&mut open.file, bytes) {
            Ok(()) => {
                open.good_len += bytes.len() as u64;
                if !self.dirty.contains(&stream) {
                    self.dirty.push(stream);
                }
                Ok(())
            }
            Err(err) => {
                // Truncate any partial write back to the last
                // known-good frame boundary so a retry appends cleanly.
                let tail_restored = open.file.set_len(open.good_len).is_ok();
                if !tail_restored {
                    self.files.remove(&stream);
                }
                Err(WriteFailure { err, tail_restored })
            }
        }
    }

    /// Writes each stream's coalesced frame bytes in one `write(2)`.
    /// Frames arrive ~100 bytes each; a drained batch of thousands
    /// would otherwise cost a syscall apiece.
    fn write_coalesced(&mut self, pending: &mut Vec<PendingWrite>) {
        for write in pending.drain(..) {
            self.write_frame(write.stream, &write.bytes, write.frames, write.max_at);
        }
    }

    fn sync_dirty(&mut self) {
        if self.degraded {
            self.dirty.clear();
            return;
        }
        let mut failed = false;
        for stream in std::mem::take(&mut self.dirty) {
            if let Some(open) = self.files.get(&stream) {
                match self.dir.io().sync_data(&open.file) {
                    Ok(()) => {
                        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(err) => {
                        failed = true;
                        self.note_error(err, "wal fsync");
                    }
                }
            }
        }
        // Once per batch of file creations (the first writes after a
        // rotate), not per batch of frames: a synced file nobody can
        // find by name holds nothing. It gates the watermark and the
        // flush ack like any other fsync of the pass.
        if self.dir_dirty {
            match self.dir.sync_dir() {
                Ok(()) => {
                    self.dir_dirty = false;
                    self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) => {
                    failed = true;
                    self.note_error(err, "wal directory fsync");
                }
            }
        }
        if failed {
            self.sync_failures += 1;
            if self.sync_failures >= SYNC_FAILURE_LIMIT {
                self.enter_degraded();
            }
        } else {
            self.sync_failures = 0;
            if self.unsynced_max_at > 0 {
                self.stats
                    .durable_at
                    .fetch_max(self.unsynced_max_at, Ordering::AcqRel);
            }
            self.unsynced_max_at = 0;
        }
    }

    fn take_error(&mut self) -> io::Result<()> {
        if let Some(err) = self.pending_error.take() {
            return Err(err);
        }
        if self.degraded {
            return Err(io::Error::other(
                "wal degraded: appends are being dropped until a revive",
            ));
        }
        Ok(())
    }
}

struct WriteFailure {
    err: io::Error,
    /// Whether the file was restored to its last known-good length —
    /// the precondition for retrying into it.
    tail_restored: bool,
}

struct PendingWrite {
    stream: u32,
    bytes: Vec<u8>,
    frames: u64,
    max_at: u64,
}

fn writer_loop(
    dir: LogDir,
    config: WalConfig,
    generation: u64,
    rx: Receiver<Msg>,
    stats: Arc<WalStats>,
) {
    let mut state = WriterState {
        dir,
        generation,
        files: HashMap::new(),
        dirty: Vec::new(),
        dir_dirty: false,
        unsynced_max_at: 0,
        sync_failures: 0,
        degraded: false,
        pending_error: None,
        stats,
    };
    // Batch loop: block for one message (or, with unsynced writes
    // outstanding under the Batch policy, until the group-commit
    // deadline), then opportunistically drain the queue. Within a
    // batch, consecutive frames of the same stream are concatenated so
    // each stream costs one write per batch, not one per frame —
    // channel FIFO order within a stream is preserved because frames
    // only ever append to that stream's buffer.
    let mut pending: Vec<PendingWrite> = Vec::new();
    // Deadline for the oldest written-but-unsynced frame (Batch only).
    let mut sync_deadline: Option<Instant> = None;
    loop {
        let first = match sync_deadline {
            Some(deadline) => {
                match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        state.sync_dirty();
                        sync_deadline = None;
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            },
        };
        let mut batch = vec![first];
        while let Ok(msg) = rx.try_recv() {
            batch.push(msg);
        }
        for msg in batch {
            match msg {
                Msg::Frame {
                    stream,
                    bytes,
                    frames,
                    max_at,
                } => {
                    match pending.iter_mut().find(|w| w.stream == stream) {
                        Some(write) => {
                            write.bytes.extend_from_slice(&bytes);
                            write.frames += frames;
                            write.max_at = write.max_at.max(max_at);
                        }
                        None => pending.push(PendingWrite {
                            stream,
                            bytes,
                            frames,
                            max_at,
                        }),
                    }
                    if config.fsync == FsyncPolicy::Always {
                        state.write_coalesced(&mut pending);
                        state.sync_dirty();
                    }
                }
                Msg::Flush(ack) => {
                    state.write_coalesced(&mut pending);
                    state.sync_dirty();
                    sync_deadline = None;
                    let _ = ack.send(state.take_error());
                }
                Msg::Rotate { ack } => {
                    state.write_coalesced(&mut pending);
                    state.sync_dirty();
                    sync_deadline = None;
                    state.files.clear();
                    state.generation += 1;
                    let result = state.take_error().map(|()| state.generation);
                    let _ = ack.send(result);
                }
                Msg::Revive { ack } => {
                    // Anything still queued from the degraded window is
                    // dropped with it; the caller's follow-up
                    // checkpoint captures those ops from memory.
                    state.write_coalesced(&mut pending);
                    state.files.clear();
                    state.dirty.clear();
                    state.dir_dirty = false;
                    state.unsynced_max_at = 0;
                    state.sync_failures = 0;
                    state.generation += 1;
                    state.degraded = false;
                    state.pending_error = None;
                    state.stats.degraded.store(false, Ordering::Release);
                    sync_deadline = None;
                    let _ = ack.send(state.generation);
                }
            }
        }
        state.write_coalesced(&mut pending);
        if config.fsync == FsyncPolicy::Batch && !state.dirty.is_empty() {
            match sync_deadline {
                Some(deadline) if Instant::now() >= deadline => {
                    state.sync_dirty();
                    sync_deadline = None;
                }
                Some(_) => {}
                None => sync_deadline = Some(Instant::now() + SYNC_INTERVAL),
            }
        }
    }
    // Channel closed: final drain for Never-policy durability on clean
    // shutdown.
    state.write_coalesced(&mut pending);
    state.sync_dirty();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{FaultKind, FaultWindow, FaultyDisk};
    use crate::frame::{magic, scan, strip_header};
    use crate::tempdir::TempDir;

    fn read_stream(dir: &LogDir, generation: u64, stream: u32) -> Vec<(u64, Vec<u8>)> {
        let bytes = std::fs::read(dir.wal_path(generation, stream)).expect("read wal");
        let body = strip_header(&bytes, magic::WAL).expect("header");
        scan(body)
            .frames
            .into_iter()
            .map(|f| (f.seq, f.body))
            .collect()
    }

    #[test]
    fn appends_land_in_stream_files_in_seq_order() {
        let tmp = TempDir::new("wal-appends");
        let dir = LogDir::create(tmp.path(), 2, &[]).expect("create");
        let wal = WalHandle::open(
            &dir,
            WalConfig {
                streams: 2,
                ..WalConfig::default()
            },
            0,
            0,
        )
        .expect("open");
        for i in 0..10u64 {
            wal.append((i % 2) as u32, &i.to_le_bytes(), 0)
                .expect("append");
        }
        wal.flush().expect("flush");
        for stream in 0..2u32 {
            let frames = read_stream(&dir, 0, stream);
            assert_eq!(frames.len(), 5);
            let seqs: Vec<u64> = frames.iter().map(|(s, _)| *s).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "stream {stream} seqs must be increasing");
        }
    }

    #[test]
    fn rotation_closes_old_generation() {
        let tmp = TempDir::new("wal-rotate");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        let wal = WalHandle::open(&dir, WalConfig::default(), 0, 100).expect("open");
        wal.append(0, b"before", 0).expect("append");
        let new_gen = wal.rotate().expect("rotate");
        assert_eq!(new_gen, 1);
        wal.append(0, b"after", 0).expect("append");
        wal.flush().expect("flush");
        assert_eq!(read_stream(&dir, 0, 0), vec![(100, b"before".to_vec())]);
        assert_eq!(read_stream(&dir, 1, 0), vec![(101, b"after".to_vec())]);
    }

    #[test]
    fn new_generation_files_are_named_durably_before_the_ack() {
        let tmp = TempDir::new("wal-dir-sync");
        // A healthy disk that counts what it is asked to do.
        let disk = Arc::new(FaultyDisk::scripted(Vec::new()));
        let dir = LogDir::create(tmp.path(), 2, &[])
            .expect("create")
            .with_io(Arc::clone(&disk) as Arc<_>);
        // `Never`: the writer syncs on flush and rotate only, so the
        // counts below do not depend on its group-commit timer.
        let wal = WalHandle::open(
            &dir,
            WalConfig {
                streams: 2,
                fsync: FsyncPolicy::Never,
                ..WalConfig::default()
            },
            0,
            0,
        )
        .expect("open");
        assert_eq!((disk.written(), disk.dir_syncs()), (0, 0));
        // The first append of each stream creates its generation file;
        // by the time the flush is acknowledged the directory has been
        // synced — once for both, not once per file or per batch.
        wal.append(0, b"a", 1).expect("append");
        wal.append(1, b"b", 2).expect("append");
        wal.flush().expect("flush");
        assert!(
            disk.written() > 0,
            "the files were created through this disk"
        );
        assert_eq!(disk.dir_syncs(), 1);
        assert_eq!(wal.durable_at(), 2);
        // More frames into files that already have names: no new sync.
        wal.append(0, b"c", 3).expect("append");
        wal.flush().expect("flush");
        assert_eq!(disk.dir_syncs(), 1);
        // A rotate moves to files that do not exist yet.
        wal.rotate().expect("rotate");
        assert_eq!(disk.dir_syncs(), 1, "nothing created, nothing to sync");
        wal.append(1, b"d", 4).expect("append");
        wal.flush().expect("flush");
        assert_eq!(disk.dir_syncs(), 2);
        assert_eq!(dir.list_wal().expect("list"), vec![(0, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn drop_drains_the_queue() {
        let tmp = TempDir::new("wal-drop");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        {
            let wal = WalHandle::open(
                &dir,
                WalConfig {
                    fsync: FsyncPolicy::Never,
                    ..WalConfig::default()
                },
                0,
                0,
            )
            .expect("open");
            for i in 0..100u64 {
                wal.append(0, &i.to_le_bytes(), 0).expect("append");
            }
        }
        assert_eq!(read_stream(&dir, 0, 0).len(), 100);
    }

    #[test]
    fn concurrent_appends_and_flushes_keep_seq_order() {
        // Regression: sends used to happen after the stage lock was
        // released, so a flush drain racing a threshold-crossing append
        // could enqueue a stream's frames out of seq order — which
        // recovery's monotone floor then silently drops. Always-fsync
        // sends every append immediately, the tightest interleaving.
        let tmp = TempDir::new("wal-race");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        let wal = WalHandle::open(
            &dir,
            WalConfig {
                fsync: FsyncPolicy::Always,
                ..WalConfig::default()
            },
            0,
            0,
        )
        .expect("open");
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 250;
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                scope.spawn(|| {
                    for i in 0..PER_WRITER {
                        wal.append(0, &(i as u64).to_le_bytes(), 0).expect("append");
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..50 {
                    wal.flush().expect("flush");
                }
            });
        });
        wal.flush().expect("final flush");
        let seqs: Vec<u64> = read_stream(&dir, 0, 0).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs.len(), WRITERS * PER_WRITER);
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "stream seqs must be strictly increasing"
        );
    }

    #[test]
    fn stats_count_appends() {
        let tmp = TempDir::new("wal-stats");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        let wal = WalHandle::open(&dir, WalConfig::default(), 0, 0).expect("open");
        wal.append(0, b"x", 10).expect("append");
        wal.append(0, b"y", 7).expect("append");
        wal.flush().expect("flush");
        assert_eq!(wal.stats().appended_ops.load(Ordering::Relaxed), 2);
        assert!(wal.stats().appended_bytes.load(Ordering::Relaxed) > 0);
        assert!(wal.stats().fsyncs.load(Ordering::Relaxed) >= 1);
        assert_eq!(wal.stats().io_errors.load(Ordering::Relaxed), 0);
        // The durability watermark covers both flushed frames.
        assert_eq!(wal.durable_at(), 10);
        assert!(!wal.is_degraded());
    }

    #[test]
    fn persistent_write_failure_degrades_instead_of_wedging() {
        let tmp = TempDir::new("wal-degrade");
        // Healthy through the 8-byte file header, then every write
        // fails forever: bounded retry must give up and degrade.
        let disk = Arc::new(FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::WriteEnospc,
            from: 8,
            to: u64::MAX,
        }]));
        let dir = LogDir::create(tmp.path(), 1, &[])
            .expect("create")
            .with_io(disk);
        let wal = WalHandle::open(
            &dir,
            WalConfig {
                fsync: FsyncPolicy::Always,
                ..WalConfig::default()
            },
            0,
            0,
        )
        .expect("open");
        wal.append(0, b"doomed", 5).expect("append enqueues fine");
        assert!(wal.flush().is_err(), "flush must surface the failure");
        assert!(wal.is_degraded());
        assert!(wal.stats().io_errors.load(Ordering::Relaxed) >= WRITE_RETRIES as u64);
        assert!(wal.stats().dropped_frames.load(Ordering::Relaxed) >= 1);
        assert_eq!(wal.durable_at(), 0, "nothing became durable");
        // Degraded appends are dropped cheaply, not written.
        wal.append(0, b"also dropped", 6).expect("append");
        assert!(wal.flush().is_err(), "still degraded");
        let text = wal.stats().last_error_text().expect("error recorded");
        assert!(text.contains("wal append"), "unexpected error: {text}");
    }

    #[test]
    fn revive_after_heal_writes_into_a_fresh_generation() {
        let tmp = TempDir::new("wal-revive");
        // One finite ENOSPC window: the header (bytes [0,8)) succeeds,
        // the first frame's three write attempts all land inside the
        // window, then the disk heals.
        let disk = Arc::new(FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::WriteEnospc,
            from: 8,
            to: 59,
        }]));
        let dir = LogDir::create(tmp.path(), 1, &[])
            .expect("create")
            .with_io(Arc::clone(&disk) as Arc<_>);
        let wal = WalHandle::open(
            &dir,
            WalConfig {
                fsync: FsyncPolicy::Always,
                ..WalConfig::default()
            },
            0,
            0,
        )
        .expect("open");
        wal.append(0, b"x", 3).expect("append");
        assert!(wal.flush().is_err());
        assert!(wal.is_degraded());
        let new_gen = wal.revive().expect("revive");
        assert_eq!(new_gen, 1);
        assert!(!wal.is_degraded());
        wal.append(0, b"y", 9).expect("append");
        wal.flush().expect("healed");
        assert_eq!(wal.durable_at(), 9);
        // The dropped frame consumed seq 0; the survivor is seq 1 in
        // the fresh generation.
        assert_eq!(read_stream(&dir, 1, 0), vec![(1, b"y".to_vec())]);
        assert!(disk.injected() >= WRITE_RETRIES as u64);
    }

    #[test]
    fn repeated_fsync_failure_also_degrades() {
        let tmp = TempDir::new("wal-sync-degrade");
        let disk = Arc::new(FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::SyncEio,
            from: 0,
            to: u64::MAX,
        }]));
        let dir = LogDir::create(tmp.path(), 1, &[])
            .expect("create")
            .with_io(disk);
        let wal = WalHandle::open(
            &dir,
            WalConfig {
                fsync: FsyncPolicy::Always,
                ..WalConfig::default()
            },
            0,
            0,
        )
        .expect("open");
        for i in 0..SYNC_FAILURE_LIMIT as u64 + 2 {
            wal.append(0, &i.to_le_bytes(), i + 1).expect("append");
        }
        assert!(wal.flush().is_err());
        assert!(wal.is_degraded());
        assert_eq!(wal.durable_at(), 0, "never fsynced, never durable");
    }
}
