//! The write-ahead log: a bounded-queue, single-writer append log with
//! generation rotation, one file per generation on disk.
//!
//! Callers append bodies through [`WalHandle::append`], which assigns a
//! global monotone sequence number and encodes the frame into the one
//! staging buffer; staged bytes are handed to a dedicated writer thread
//! over a bounded channel once [`STAGE_BYTES`] accrue (group commit —
//! one send and one writer wakeup per ~32 KiB, not per record), so the
//! ingest path never touches the filesystem. The writer owns one open
//! file, the generation's `wal-<gen>.log`: it appends whatever a pass
//! drained in arrival order with **one write**, and fsyncs per the
//! configured [`FsyncPolicy`] — **one file**, and the directory too
//! whenever the pass created the generation file (a file's bytes are
//! only as durable as its name), before the durability watermark moves
//! or a flush is acknowledged.
//!
//! Ordering guarantee: sequence numbers are assigned under the staging
//! lock, the stage only ever appends, every send of staged frames (a
//! full stage, or a flush/rotate drain) happens **while that lock is
//! held**, and the channel is FIFO into a single writer. So every
//! generation file holds its frames in strictly increasing sequence
//! order, and every frame of a generation precedes, in sequence order,
//! every frame of a later one. Recovery leans on that order: one
//! monotone sequence floor drops checkpoint-covered frames and
//! duplicated tails alike.
//!
//! Rotation ([`WalHandle::rotate`]) flushes, fsyncs and closes the
//! generation file and bumps the generation counter; checkpointing uses
//! it to bound how much log recovery must replay. A rotate whose fsync
//! fails changes nothing: the file stays open and dirty, and the
//! generation where it was.
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
    /// file once [`SYNC_INTERVAL`] has elapsed since its first unsynced
    /// write (and always on flush, rotation, and shutdown).
    /// The default: a crash loses at most the staged tail (up to
    /// [`STAGE_BYTES`] in total), the writer queue, and the last
    /// [`SYNC_INTERVAL`] of written-but-unsynced frames.
    Batch,
    /// Never fsync from the writer loop (still synced on flush,
    /// rotation, and shutdown). For tests and benchmarks.
    Never,
}

/// Configuration for [`WalHandle::open`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Fsync policy for the writer thread.
    pub fsync: FsyncPolicy,
    /// Bounded append-queue depth, in messages; `append` blocks when
    /// full, so a slow disk applies backpressure instead of unbounded
    /// memory growth. Under [`FsyncPolicy::Always`] a message is one
    /// frame. Under `Batch` and `Never` a message from `append` is one
    /// staged batch of at least [`STAGE_BYTES`], so the bound is in
    /// bytes: the default 4,096 lets about 128 MiB of frames queue
    /// before `append` blocks.
    pub queue_capacity: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
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
    /// checkpoint, a heal) records theirs too, so the log's stats are
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
    /// Staged frames, in sequence order.
    Frame(Stage),
    Flush(SyncSender<io::Result<()>>),
    Rotate {
        ack: SyncSender<io::Result<u64>>,
    },
    Revive {
        ack: SyncSender<u64>,
    },
}

/// Group-commit threshold: staged frames are handed to the writer once
/// they reach this many bytes (or on flush/rotate/drop). Staging turns
/// the per-record channel send + writer wakeup into one per ~32 KiB,
/// which is what keeps durable ingest near in-memory ingest speed; the
/// cost is a wider loss window on a hard crash (bounded by this
/// constant, on top of the writer queue).
/// [`FsyncPolicy::Always`] bypasses staging entirely.
pub const STAGE_BYTES: usize = 32 * 1024;

/// How long written frames may sit unsynced under
/// [`FsyncPolicy::Batch`]. An fsync of the generation file costs
/// ~100µs; syncing on a deadline instead of per drained batch caps that
/// cost at one fsync per `SYNC_INTERVAL` no matter the ingest rate, in
/// exchange for a crash-loss window of this
/// duration.
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

/// Staged frames plus the bookkeeping that rides with them to the
/// writer: the staging buffer, a send's message, and the writer's
/// pending write are each one.
#[derive(Default)]
struct Stage {
    buf: Vec<u8>,
    frames: u64,
    max_at: u64,
}

impl Stage {
    /// Moves `other`'s frames to the end of this one.
    fn absorb(&mut self, other: &mut Stage) {
        self.buf.append(&mut other.buf);
        self.frames += std::mem::take(&mut other.frames);
        self.max_at = self.max_at.max(std::mem::take(&mut other.max_at));
    }
}

/// Handle to the append log. Cloneable via `Arc`; dropping the last
/// handle flushes, fsyncs, and joins the writer thread.
pub struct WalHandle {
    tx: Option<SyncSender<Msg>>,
    writer: Option<JoinHandle<()>>,
    next_seq: AtomicU64,
    /// The staging buffer for group commit. Sequence numbers are
    /// assigned *and staged frames are sent to the writer* under its
    /// lock, so the log is strictly seq-ordered on disk (module docs).
    stage: Mutex<Stage>,
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
    /// Fails if the writer thread cannot be spawned.
    pub fn open(
        dir: &LogDir,
        config: WalConfig,
        generation: u64,
        first_seq: u64,
    ) -> io::Result<WalHandle> {
        let stats = Arc::new(WalStats::default());
        let (tx, rx) = sync_channel::<Msg>(config.queue_capacity.max(1));
        let writer_dir = dir.clone();
        let writer_stats = Arc::clone(&stats);
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
            stage: Mutex::default(),
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

    /// Appends `body` tagged with op time `at` (0 for untimed records),
    /// returning the assigned sequence number. Fire-and-forget: the
    /// frame lands in the staging buffer and is handed to the writer
    /// once [`STAGE_BYTES`] accrue (immediately under
    /// [`FsyncPolicy::Always`]). Write/fsync errors surface via
    /// [`WalHandle::stats`], [`WalHandle::is_degraded`], and the next
    /// [`WalHandle::flush`].
    ///
    /// # Errors
    ///
    /// Fails only if the writer thread has already exited (the handle
    /// is being shut down).
    pub fn append(&self, body: &[u8], at: u64) -> io::Result<u64> {
        let mut stage = unpoisoned(&self.stage);
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
            // Send while the stage lock is still held: every sender
            // (a second threshold crossing, or a concurrent flush/rotate
            // drain) must enqueue in seq-assignment order, or recovery's
            // monotone floor would silently skip the overtaken
            // lower-seq frames. A full queue merely extends this
            // critical section (backpressure); the writer thread never
            // takes the stage lock, so it cannot deadlock.
            self.send(Msg::Frame(std::mem::take(&mut *stage)))?;
        }
        Ok(seq)
    }

    /// Hands the staged frames to the writer, under the stage lock so
    /// the send is ordered against concurrent appends' (see `append`).
    fn drain(&self) -> io::Result<()> {
        let mut stage = unpoisoned(&self.stage);
        if stage.buf.is_empty() {
            return Ok(());
        }
        self.send(Msg::Frame(std::mem::take(&mut *stage)))
    }

    /// The next sequence number that [`WalHandle::append`] will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Writes out everything queued and fsyncs the generation file.
    ///
    /// # Errors
    ///
    /// Returns the first IO error the writer hit since the last flush,
    /// or a `BrokenPipe`-flavored error while degraded (appends are
    /// being dropped, so a successful flush would be a lie).
    pub fn flush(&self) -> io::Result<()> {
        self.drain()?;
        let (ack, done) = sync_channel(1);
        self.send(Msg::Flush(ack))?;
        done.recv().map_err(|_| writer_gone())?
    }

    /// Flushes, fsyncs, and closes the generation file, then advances
    /// to the next generation. Returns the *new* generation.
    ///
    /// # Errors
    ///
    /// Returns the first IO error the writer hit since the last flush;
    /// the file then stays open (and, if its fsync failed, dirty, so the
    /// next flush, deadline or rotate retries it) and the generation
    /// does not advance.
    pub fn rotate(&self) -> io::Result<u64> {
        self.drain()?;
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
        let _ = self.drain();
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// The open generation file plus the byte length known to hold only
/// whole, successfully written batches — the truncation point that
/// makes a failed partial write retryable.
struct OpenFile {
    file: File,
    good_len: u64,
}

struct WriterState {
    dir: LogDir,
    generation: u64,
    /// The generation's file, opened (so, in a fresh generation,
    /// created) on its first write.
    file: Option<OpenFile>,
    /// Written since the last successful fsync.
    dirty: bool,
    /// The generation file was opened since the last directory fsync:
    /// its *name* is not durable yet, whatever its bytes are.
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

    fn drop_frames(&mut self, frames: u64) {
        self.stats
            .dropped_frames
            .fetch_add(frames, Ordering::Relaxed);
    }

    /// Forgets the file and everything unsynced: nothing written since
    /// the last fsync may advance the durability watermark.
    fn close(&mut self) {
        self.file = None;
        self.dirty = false;
        self.dir_dirty = false;
        self.unsynced_max_at = 0;
        self.sync_failures = 0;
    }

    fn enter_degraded(&mut self) {
        self.degraded = true;
        // Written-but-unsynced frames may or may not reach disk, and
        // nothing touches the filesystem again until a revive.
        self.close();
        self.stats.degraded.store(true, Ordering::Release);
    }

    /// Appends a pass's frames with one write, retried a bounded number
    /// of times before the log degrades.
    fn write(&mut self, pending: &mut Stage) {
        let batch = std::mem::take(pending);
        if batch.buf.is_empty() {
            return;
        }
        if self.degraded {
            self.drop_frames(batch.frames);
            return;
        }
        let mut delay = RETRY_BASE;
        for attempt in 0..WRITE_RETRIES {
            match self.try_write(&batch.buf) {
                Ok(()) => {
                    self.unsynced_max_at = self.unsynced_max_at.max(batch.max_at);
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
        self.drop_frames(batch.frames);
        self.enter_degraded();
    }

    fn try_write(&mut self, bytes: &[u8]) -> Result<(), WriteFailure> {
        // Nothing was appended past a known-good point; the open (header
        // write included) is idempotent.
        let restored = |err| WriteFailure {
            err,
            tail_restored: true,
        };
        let open = match &mut self.file {
            Some(open) => open,
            None => {
                let file = self
                    .dir
                    .open_wal_append(self.generation)
                    .map_err(restored)?;
                self.dir_dirty = true;
                let good_len = file.metadata().map_err(restored)?.len();
                self.file.insert(OpenFile { file, good_len })
            }
        };
        match self.dir.io().write_all(&mut open.file, bytes) {
            Ok(()) => {
                open.good_len += bytes.len() as u64;
                self.dirty = true;
                Ok(())
            }
            Err(err) => {
                // Truncate any partial write back to the last
                // known-good frame boundary so a retry appends cleanly.
                let tail_restored = open.file.set_len(open.good_len).is_ok();
                if !tail_restored {
                    self.file = None;
                }
                Err(WriteFailure { err, tail_restored })
            }
        }
    }

    fn sync(&mut self) {
        if self.degraded {
            self.dirty = false;
            return;
        }
        let mut failed = false;
        // The file stays dirty until an fsync succeeds: a failed one is
        // retried by the next pass, flush or deadline, with or without
        // new frames, and never folded into the watermark.
        if let Some(open) = self.file.as_ref().filter(|_| self.dirty) {
            match self.dir.io().sync_data(&open.file) {
                Ok(()) => {
                    self.dirty = false;
                    self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) => {
                    failed = true;
                    self.note_error(err, "wal fsync");
                }
            }
        }
        // Once per generation file (its first write after a rotate), not
        // per batch of frames: a synced file nobody can find by name
        // holds nothing. It gates the watermark and the flush ack like
        // the file's own fsync.
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
        file: None,
        dirty: false,
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
    // batch the frames are concatenated in arrival order, so a pass
    // costs one write, not one per message — and channel FIFO order,
    // which the sequence order rides on, is the file's order.
    let mut pending = Stage::default();
    // Deadline for the oldest written-but-unsynced frame (Batch only).
    let mut sync_deadline: Option<Instant> = None;
    loop {
        let first = match sync_deadline {
            Some(deadline) => {
                match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        state.sync();
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
                Msg::Frame(mut frames) => {
                    pending.absorb(&mut frames);
                    if config.fsync == FsyncPolicy::Always {
                        state.write(&mut pending);
                        state.sync();
                    }
                }
                Msg::Flush(ack) => {
                    state.write(&mut pending);
                    state.sync();
                    sync_deadline = None;
                    let _ = ack.send(state.take_error());
                }
                Msg::Rotate { ack } => {
                    state.write(&mut pending);
                    state.sync();
                    sync_deadline = None;
                    // Only a clean pass closes the file: after a failed
                    // fsync it stays dirty, to be retried, and its
                    // frames' times stay out of the watermark.
                    let result = state.take_error().map(|()| {
                        state.file = None;
                        state.generation += 1;
                        state.generation
                    });
                    let _ = ack.send(result);
                }
                Msg::Revive { ack } => {
                    // Anything still queued from the degraded window is
                    // dropped with it; the caller's follow-up
                    // checkpoint captures those ops from memory.
                    state.write(&mut pending);
                    state.close();
                    state.generation += 1;
                    state.degraded = false;
                    state.pending_error = None;
                    state.stats.degraded.store(false, Ordering::Release);
                    sync_deadline = None;
                    let _ = ack.send(state.generation);
                }
            }
        }
        state.write(&mut pending);
        if config.fsync == FsyncPolicy::Batch && state.dirty {
            match sync_deadline {
                Some(deadline) if Instant::now() >= deadline => {
                    state.sync();
                    sync_deadline = None;
                }
                Some(_) => {}
                None => sync_deadline = Some(Instant::now() + SYNC_INTERVAL),
            }
        }
    }
    // Channel closed: final drain for Never-policy durability on clean
    // shutdown.
    state.write(&mut pending);
    state.sync();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{FaultKind, FaultWindow, FaultyDisk};
    use crate::frame::{magic, scan, strip_header};
    use crate::tempdir::TempDir;

    fn read_generation(dir: &LogDir, generation: u64) -> Vec<(u64, Vec<u8>)> {
        let bytes = std::fs::read(dir.wal_path(generation)).expect("read wal");
        let body = strip_header(&bytes, magic::WAL).expect("header");
        scan(body)
            .frames
            .into_iter()
            .map(|f| (f.seq, f.body))
            .collect()
    }

    #[test]
    fn appends_land_in_one_file_in_seq_order() {
        let tmp = TempDir::new("wal-appends");
        let dir = LogDir::create(tmp.path()).expect("create");
        let wal = WalHandle::open(&dir, WalConfig::default(), 0, 0).expect("open");
        for i in 0..10u64 {
            wal.append(&i.to_le_bytes(), 0).expect("append");
        }
        wal.flush().expect("flush");
        assert_eq!(dir.list_wal().expect("list"), vec![0], "one file");
        // The whole file, in append order: seq i carries body i.
        let expected: Vec<(u64, Vec<u8>)> =
            (0..10u64).map(|i| (i, i.to_le_bytes().to_vec())).collect();
        assert_eq!(read_generation(&dir, 0), expected);
    }

    #[test]
    fn rotation_closes_old_generation() {
        let tmp = TempDir::new("wal-rotate");
        let dir = LogDir::create(tmp.path()).expect("create");
        let wal = WalHandle::open(&dir, WalConfig::default(), 0, 100).expect("open");
        wal.append(b"before", 0).expect("append");
        let new_gen = wal.rotate().expect("rotate");
        assert_eq!(new_gen, 1);
        wal.append(b"after", 0).expect("append");
        wal.flush().expect("flush");
        assert_eq!(read_generation(&dir, 0), vec![(100, b"before".to_vec())]);
        assert_eq!(read_generation(&dir, 1), vec![(101, b"after".to_vec())]);
    }

    #[test]
    fn new_generation_files_are_named_durably_before_the_ack() {
        let tmp = TempDir::new("wal-dir-sync");
        // A healthy disk that counts what it is asked to do.
        let disk = Arc::new(FaultyDisk::scripted(Vec::new()));
        let dir = LogDir::create(tmp.path())
            .expect("create")
            .with_io(Arc::clone(&disk) as Arc<_>);
        // `Never`: the writer syncs on flush and rotate only, so the
        // counts below do not depend on its group-commit timer.
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
        assert_eq!((disk.written(), disk.dir_syncs()), (0, 0));
        // The first append creates the generation file; by the time the
        // flush is acknowledged the file and the directory have each
        // been synced once.
        wal.append(b"a", 1).expect("append");
        wal.append(b"b", 2).expect("append");
        wal.flush().expect("flush");
        assert!(disk.written() > 0, "the file was created through this disk");
        assert_eq!(disk.dir_syncs(), 1);
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), 2);
        assert_eq!(wal.durable_at(), 2);
        // More frames into files that already have names: no new sync.
        wal.append(b"c", 3).expect("append");
        wal.flush().expect("flush");
        assert_eq!(disk.dir_syncs(), 1);
        // A rotate moves to files that do not exist yet.
        wal.rotate().expect("rotate");
        assert_eq!(disk.dir_syncs(), 1, "nothing created, nothing to sync");
        wal.append(b"d", 4).expect("append");
        wal.flush().expect("flush");
        assert_eq!(disk.dir_syncs(), 2);
        assert_eq!(dir.list_wal().expect("list"), vec![0, 1]);
    }

    #[test]
    fn drop_drains_the_queue() {
        let tmp = TempDir::new("wal-drop");
        let dir = LogDir::create(tmp.path()).expect("create");
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
                wal.append(&i.to_le_bytes(), 0).expect("append");
            }
        }
        assert_eq!(read_generation(&dir, 0).len(), 100);
    }

    #[test]
    fn concurrent_appends_and_flushes_keep_seq_order() {
        // Regression: sends used to happen after the stage lock was
        // released, so a drain racing a threshold-crossing append could
        // enqueue frames out of seq order — which recovery's monotone
        // floor then silently drops. Writers append while another
        // thread flushes and rotates, round after round; Always-fsync
        // sends every append at once (the tightest interleaving), Batch
        // crosses the staging threshold about twice a round.
        const WRITERS: usize = 4;
        const ROUNDS: usize = 10;
        for fsync in [FsyncPolicy::Always, FsyncPolicy::Batch] {
            let tmp = TempDir::new("wal-race");
            let dir = LogDir::create(tmp.path()).expect("create");
            let config = WalConfig {
                fsync,
                ..WalConfig::default()
            };
            let wal = WalHandle::open(&dir, config, 0, 0).expect("open");
            let per_round = if fsync == FsyncPolicy::Always {
                25
            } else {
                400
            };
            let round_end = std::sync::Barrier::new(WRITERS + 1);
            std::thread::scope(|scope| {
                for _ in 0..WRITERS {
                    scope.spawn(|| {
                        for _ in 0..ROUNDS {
                            for i in 0..per_round {
                                wal.append(&[i as u8; 24], 0).expect("append");
                            }
                            round_end.wait();
                        }
                    });
                }
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        wal.flush().expect("flush");
                        wal.rotate().expect("rotate");
                        wal.flush().expect("flush");
                        round_end.wait();
                    }
                });
            });
            wal.flush().expect("final flush");
            let generations = dir.list_wal().expect("list");
            assert!(generations.len() > 1, "{fsync:?}: {generations:?}");
            let mut last = None;
            let mut total = 0;
            for generation in generations {
                // Every frame of the file, and across files too.
                for (seq, _) in read_generation(&dir, generation) {
                    assert!(
                        last < Some(seq),
                        "{fsync:?}: seq {seq} after {last:?} in generation {generation}"
                    );
                    last = Some(seq);
                    total += 1;
                }
            }
            assert_eq!(total, WRITERS * ROUNDS * per_round);
        }
    }

    #[test]
    fn stats_count_appends() {
        let tmp = TempDir::new("wal-stats");
        let dir = LogDir::create(tmp.path()).expect("create");
        let wal = WalHandle::open(&dir, WalConfig::default(), 0, 0).expect("open");
        wal.append(b"x", 10).expect("append");
        wal.append(b"y", 7).expect("append");
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
        let dir = LogDir::create(tmp.path()).expect("create").with_io(disk);
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
        wal.append(b"doomed", 5).expect("append enqueues fine");
        assert!(wal.flush().is_err(), "flush must surface the failure");
        assert!(wal.is_degraded());
        assert!(wal.stats().io_errors.load(Ordering::Relaxed) >= WRITE_RETRIES as u64);
        assert!(wal.stats().dropped_frames.load(Ordering::Relaxed) >= 1);
        assert_eq!(wal.durable_at(), 0, "nothing became durable");
        // Degraded appends are dropped cheaply, not written.
        wal.append(b"also dropped", 6).expect("append");
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
        let dir = LogDir::create(tmp.path())
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
        wal.append(b"x", 3).expect("append");
        assert!(wal.flush().is_err());
        assert!(wal.is_degraded());
        let new_gen = wal.revive().expect("revive");
        assert_eq!(new_gen, 1);
        assert!(!wal.is_degraded());
        wal.append(b"y", 9).expect("append");
        wal.flush().expect("healed");
        assert_eq!(wal.durable_at(), 9);
        // The dropped frame consumed seq 0; the survivor is seq 1 in
        // the fresh generation.
        assert_eq!(read_generation(&dir, 1), vec![(1, b"y".to_vec())]);
        assert!(disk.injected() >= WRITE_RETRIES as u64);
    }

    /// A failed fsync keeps the file dirty: the next flush fsyncs again
    /// although nothing new was written, and fails while the disk does,
    /// and the watermark stays where the last successful fsync left it.
    #[test]
    fn a_failed_fsync_is_retried_and_never_moves_the_watermark() {
        use crate::frame::{FRAME_OVERHEAD, HEADER_LEN};
        let tmp = TempDir::new("wal-fsync-retry");
        // Each one-byte frame is `len ++ crc ++ seq ++ body`; the window
        // covers the second frame's write, so only the fsyncs issued
        // after it (and before a third write) fail.
        let frame = (FRAME_OVERHEAD + 8 + 1) as u64;
        let first_end = HEADER_LEN as u64 + frame;
        let disk = Arc::new(FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::SyncEio,
            from: first_end + 1,
            to: first_end + frame + 1,
        }]));
        let dir = LogDir::create(tmp.path())
            .expect("create")
            .with_io(Arc::clone(&disk) as Arc<_>);
        let config = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        };
        let wal = WalHandle::open(&dir, config, 0, 0).expect("open");
        let fsyncs = || wal.stats().fsyncs.load(Ordering::Relaxed);
        wal.append(b"a", 5).expect("append");
        wal.flush().expect("the first frame is synced");
        assert_eq!((wal.durable_at(), fsyncs(), disk.injected()), (5, 2, 0));

        wal.append(b"b", 9).expect("append");
        let err = wal.flush().expect_err("its fsync fails");
        assert_eq!(err.raw_os_error(), Some(5), "EIO surfaces: {err}");
        assert_eq!((wal.durable_at(), disk.injected()), (5, 1));
        // Nothing new written: the flush still fsyncs, and fails again.
        assert!(wal.flush().is_err(), "a failed fsync is not forgotten");
        assert_eq!((wal.durable_at(), disk.injected()), (5, 2));
        assert!(!wal.is_degraded(), "two failures, under the limit");

        // A write past the window: the next fsync lands and covers all.
        wal.append(b"c", 12).expect("append");
        wal.flush().expect("synced at last");
        assert_eq!((wal.durable_at(), fsyncs(), disk.injected()), (12, 3, 2));
    }

    /// A rotate whose fsync fails is no rotate: it returns the error,
    /// the generation stays where it was, and its frames' times reach
    /// the watermark only once their own file is fsynced — not through
    /// the next generation's first fsync.
    #[test]
    fn a_rotate_whose_fsync_fails_keeps_its_generation_and_the_watermark() {
        use crate::frame::{FRAME_OVERHEAD, HEADER_LEN};
        let tmp = TempDir::new("wal-rotate-fsync");
        // As above: the window covers the second frame's write.
        let frame = (FRAME_OVERHEAD + 8 + 1) as u64;
        let first_end = HEADER_LEN as u64 + frame;
        let disk = Arc::new(FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::SyncEio,
            from: first_end + 1,
            to: first_end + frame + 1,
        }]));
        let dir = LogDir::create(tmp.path())
            .expect("create")
            .with_io(Arc::clone(&disk) as Arc<_>);
        let config = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        };
        let wal = WalHandle::open(&dir, config, 0, 0).expect("open");
        wal.append(b"a", 5).expect("append");
        wal.flush().expect("the first frame is synced");
        assert_eq!(wal.durable_at(), 5);

        wal.append(b"b", 9).expect("append");
        let err = wal.rotate().expect_err("its fsync fails");
        assert_eq!(err.raw_os_error(), Some(5), "EIO surfaces: {err}");
        assert_eq!((wal.durable_at(), disk.injected()), (5, 1));
        // Nothing new written: generation 0 is still dirty, its fsync is
        // retried and fails again, and "b" stays out of the watermark.
        assert!(wal.flush().is_err(), "the failed fsync is not forgotten");
        assert_eq!((wal.durable_at(), disk.injected()), (5, 2));

        // A write past the window lands in generation 0, whose fsync now
        // covers "b" and "c" together.
        wal.append(b"c", 12).expect("append");
        wal.flush().expect("synced at last");
        assert_eq!(wal.durable_at(), 12);
        assert_eq!(dir.list_wal().expect("list"), vec![0], "no rotate happened");
        let seqs: Vec<u64> = read_generation(&dir, 0).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(wal.rotate().expect("a clean rotate"), 1);
        assert!(!wal.is_degraded());
    }

    #[test]
    fn repeated_fsync_failure_also_degrades() {
        let tmp = TempDir::new("wal-sync-degrade");
        let disk = Arc::new(FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::SyncEio,
            from: 0,
            to: u64::MAX,
        }]));
        let dir = LogDir::create(tmp.path()).expect("create").with_io(disk);
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
            wal.append(&i.to_le_bytes(), i + 1).expect("append");
        }
        assert!(wal.flush().is_err());
        assert!(wal.is_degraded());
        assert_eq!(wal.durable_at(), 0, "never fsynced, never durable");
    }
}
