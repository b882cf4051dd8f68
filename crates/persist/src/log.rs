//! The on-disk layout of a persistent store directory.
//!
//! ```text
//! <root>/
//!   header                  directory metadata (streams + app bytes)
//!   wal-<gen>-<stream>.log  append-only generation files, per stream
//!   checkpoint              latest checkpoint (temp+rename+fsync)
//!   spill-<stripe>-<n>.seg  sealed, immutable spill segments
//!   clean                   clean-shutdown marker (consumed on open)
//! ```
//!
//! Two framings share the [`crate::frame`] envelope. A WAL generation
//! file is a run of **one frame per record**, each carrying its own
//! sequence number — it is appended to, so its tail can tear, and the
//! prefix-valid scan recovers whole records up to the tear. The
//! checkpoint and every spill segment are **sections**: each section is
//! one opaque buffer (for a spill segment, `count ++ records`) cut into
//! frames of at most `CHECKPOINT_CHUNK` bytes that share the section
//! index as their sequence number — one CRC per ≤ 16 MiB, no per-record
//! envelope. Sections are only ever written whole and atomically, so a
//! tear cannot happen and any damage is a hard error.
//!
//! Mutation rules that make crashes survivable:
//!
//! * WAL generation files are append-only and never rewritten; a crash
//!   can only damage their tails, which the frame scanner trims.
//! * The checkpoint and every spill segment are written to a temp file,
//!   fsynced, then renamed into place, then the directory is fsynced —
//!   readers see either the old file or the complete new one.
//! * A name is as durable as the last directory fsync: the WAL writer
//!   syncs the directory after creating generation files and before it
//!   acknowledges anything written to them, and consuming the
//!   clean-shutdown marker syncs its removal.
//! * Old WAL generations are deleted only *after* the checkpoint that
//!   supersedes them is durable.

use crate::disk::{DiskIo, RealDisk};
use crate::frame::{self, magic, ScanEnd, ScanResult};
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const HEADER_FILE: &str = "header";
const CHECKPOINT_FILE: &str = "checkpoint";
const CLEAN_FILE: &str = "clean";
/// Sections (of the checkpoint and of spill segments) are split into
/// frames of at most this many bytes, so a section (one stripe's full
/// state, or everything a stripe spills in one pass) may exceed
/// [`frame::MAX_FRAME`] without overflowing a frame.
const CHECKPOINT_CHUNK: usize = 1 << 24;

/// A handle on a persistent store directory.
///
/// All data writes and fsyncs flow through the directory's [`DiskIo`]
/// (the real filesystem by default; swap in a
/// [`crate::disk::FaultyDisk`] via [`LogDir::with_io`] to test runtime
/// disk faults).
#[derive(Debug, Clone)]
pub struct LogDir {
    root: PathBuf,
    io: Arc<dyn DiskIo>,
}

/// What a clean-shutdown marker recorded: enough to prove the WAL tail
/// needs no replay scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanMarker {
    /// The next sequence number the closed store would have assigned.
    pub next_seq: u64,
    /// The WAL generation current when the store closed.
    pub generation: u64,
}

/// Metadata read back from a directory's header file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogDirMeta {
    /// Number of WAL streams the directory was created with.
    pub streams: u32,
    /// Opaque application bytes (the store's layout parameters).
    pub app_meta: Vec<u8>,
}

impl LogDir {
    /// Creates (or reuses) `root` and writes the header file declaring
    /// `streams` streams and `app_meta`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created, a header already
    /// exists (refusing to silently adopt another store's data), or
    /// writing fails.
    pub fn create(root: &Path, streams: u32, app_meta: &[u8]) -> io::Result<LogDir> {
        fs::create_dir_all(root)?;
        let dir = LogDir {
            root: root.to_path_buf(),
            io: Arc::new(RealDisk),
        };
        if dir.root.join(HEADER_FILE).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "log directory already initialized",
            ));
        }
        let mut body = Vec::new();
        frame::write_header(&mut body, magic::DIR);
        let mut section = Vec::with_capacity(4 + app_meta.len());
        section.extend_from_slice(&streams.to_le_bytes());
        section.extend_from_slice(app_meta);
        frame::write_frame(&mut body, 0, &section);
        dir.write_atomic(HEADER_FILE, &body)?;
        Ok(dir)
    }

    /// Opens an existing directory and reads its header.
    ///
    /// # Errors
    ///
    /// Fails if the header is missing, unreadable, or corrupt — a
    /// damaged header is unrecoverable by design (it is tiny and
    /// written once, atomically).
    pub fn open(root: &Path) -> io::Result<(LogDir, LogDirMeta)> {
        let dir = LogDir {
            root: root.to_path_buf(),
            io: Arc::new(RealDisk),
        };
        // A crash between a temp write and its rename leaves a stale
        // `*.tmp` behind; checkpoint.tmp would be truncated by the next
        // checkpoint, but spill temp names are never reused, so they
        // would accumulate forever. Sweep them all before anything
        // reads or writes the directory — only renamed files are live.
        dir.sweep_tmp()?;
        let bytes = fs::read(dir.root.join(HEADER_FILE))?;
        let body = frame::strip_header(&bytes, magic::DIR).map_err(corrupt)?;
        let scanned = frame::scan(body);
        if scanned.end != ScanEnd::Clean || scanned.frames.len() != 1 {
            return Err(corrupt("damaged header frame"));
        }
        let section = &scanned.frames[0].body;
        if section.len() < 4 {
            return Err(corrupt("short header section"));
        }
        let streams = u32::from_le_bytes(section[..4].try_into().expect("sized"));
        Ok((
            dir,
            LogDirMeta {
                streams,
                app_meta: section[4..].to_vec(),
            },
        ))
    }

    /// A second handle on the same directory (for the writer thread).
    ///
    /// # Errors
    ///
    /// Never fails today; kept fallible for handle-duplication schemes
    /// that can.
    pub fn clone_view(&self) -> io::Result<LogDir> {
        Ok(self.clone())
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Replaces the disk-I/O layer (e.g. with a
    /// [`crate::disk::FaultyDisk`]). Handles cloned *after* this call
    /// — including the WAL writer thread's — share the new layer.
    #[must_use]
    pub fn with_io(mut self, io: Arc<dyn DiskIo>) -> LogDir {
        self.io = io;
        self
    }

    /// The disk-I/O layer every write and fsync goes through.
    pub fn io(&self) -> &Arc<dyn DiskIo> {
        &self.io
    }

    /// Path of one WAL generation file.
    pub fn wal_path(&self, generation: u64, stream: u32) -> PathBuf {
        self.root
            .join(format!("wal-{generation:08}-{stream:04}.log"))
    }

    /// Opens a WAL generation file for appending, writing the file
    /// header if the file is new.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_wal_append(&self, generation: u64, stream: u32) -> io::Result<File> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.wal_path(generation, stream))?;
        let len = file.metadata()?.len();
        if len < frame::HEADER_LEN as u64 {
            // Either brand new, or a previous writer died mid-header:
            // truncate the partial header and write a whole one.
            if len > 0 {
                file.set_len(0)?;
            }
            let mut header = Vec::with_capacity(frame::HEADER_LEN);
            frame::write_header(&mut header, magic::WAL);
            self.io.write_all(&mut file, &header)?;
        }
        Ok(file)
    }

    /// Every `(generation, stream)` WAL file present, sorted.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn list_wal(&self) -> io::Result<Vec<(u64, u32)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(rest) = name.strip_prefix("wal-") {
                if let Some(rest) = rest.strip_suffix(".log") {
                    if let Some((gen_s, stream_s)) = rest.split_once('-') {
                        if let (Ok(generation), Ok(stream)) =
                            (gen_s.parse::<u64>(), stream_s.parse::<u32>())
                        {
                            out.push((generation, stream));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Reads and scans one WAL generation file. Torn/corrupt tails are
    /// reported in the [`ScanResult`], not as errors.
    ///
    /// # Errors
    ///
    /// Fails only on filesystem errors or a damaged *file header*. A
    /// file shorter than one header — e.g. created by a process killed
    /// between `open` and the header write — is not an error: it is a
    /// fully torn tail holding zero frames.
    pub fn read_wal(&self, generation: u64, stream: u32) -> io::Result<ScanResult> {
        let bytes = fs::read(self.wal_path(generation, stream))?;
        if bytes.len() < frame::HEADER_LEN {
            return Ok(ScanResult {
                frames: Vec::new(),
                end: ScanEnd::Truncated,
                valid_len: 0,
            });
        }
        let body = frame::strip_header(&bytes, magic::WAL).map_err(corrupt)?;
        Ok(frame::scan(body))
    }

    /// Deletes every WAL file with generation `< before`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn delete_wal_before(&self, before: u64) -> io::Result<()> {
        for (generation, stream) in self.list_wal()? {
            if generation < before {
                fs::remove_file(self.wal_path(generation, stream))?;
            }
        }
        Ok(())
    }

    /// Atomically replaces the checkpoint file with `sections`, each
    /// chunked into CRC'd frames (sequence = section index).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the previous checkpoint,
    /// if any, is still in place.
    pub fn write_checkpoint(&self, sections: &[Vec<u8>]) -> io::Result<()> {
        let mut body = Vec::new();
        frame::write_header(&mut body, magic::CHECKPOINT);
        for (i, section) in sections.iter().enumerate() {
            write_section(&mut body, i as u64, section);
        }
        self.write_atomic(CHECKPOINT_FILE, &body)
    }

    /// Reads the checkpoint's sections, or `None` if no checkpoint has
    /// been written yet.
    ///
    /// # Errors
    ///
    /// A present-but-damaged checkpoint is a hard error: it was fsynced
    /// before any WAL it supersedes was deleted, so damage means
    /// something other than a crash-torn tail.
    pub fn read_checkpoint(&self) -> io::Result<Option<Vec<Vec<u8>>>> {
        let bytes = match fs::read(self.root.join(CHECKPOINT_FILE)) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err),
        };
        let body = frame::strip_header(&bytes, magic::CHECKPOINT).map_err(corrupt)?;
        read_sections(body, "damaged checkpoint").map(Some)
    }

    /// Writes sealed spill segment `n` of `stripe`: `block` (the
    /// caller's `count ++ records`) as one chunked section. Atomic:
    /// temp, fsync, rename, directory fsync. `n` comes from
    /// [`LogDir::next_spill_numbers`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error no segment is visible.
    pub fn write_spill(&self, stripe: u32, n: u64, block: &[u8]) -> io::Result<()> {
        let mut body = Vec::new();
        frame::write_header(&mut body, magic::SPILL);
        write_section(&mut body, 0, block);
        self.write_atomic(&spill_name(stripe, n), &body)
    }

    /// Every `(stripe, index)` spill segment present, sorted.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn list_spills(&self) -> io::Result<Vec<(u32, u64)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(rest) = name.strip_prefix("spill-") {
                if let Some(rest) = rest.strip_suffix(".seg") {
                    if let Some((stripe_s, n_s)) = rest.split_once('-') {
                        if let (Ok(stripe), Ok(n)) = (stripe_s.parse::<u32>(), n_s.parse::<u64>()) {
                            out.push((stripe, n));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// The next free segment number of each of the first `stripes`
    /// stripes, from **one** directory listing — what a compaction pass
    /// asks once and then hands to [`LogDir::write_spill`] per stripe.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn next_spill_numbers(&self, stripes: usize) -> io::Result<Vec<u64>> {
        let mut next = vec![0u64; stripes];
        for (stripe, n) in self.list_spills()? {
            if let Some(slot) = next.get_mut(stripe as usize) {
                *slot = (*slot).max(n + 1);
            }
        }
        Ok(next)
    }

    /// Reads one sealed spill segment's block (see
    /// [`LogDir::write_spill`]).
    ///
    /// # Errors
    ///
    /// A damaged spill segment is a hard error: segments are written
    /// atomically and never appended to, so torn tails cannot happen.
    pub fn read_spill(&self, stripe: u32, n: u64) -> io::Result<Vec<u8>> {
        const DAMAGED: &str = "damaged spill segment";
        let bytes = fs::read(self.root.join(spill_name(stripe, n)))?;
        let body = frame::strip_header(&bytes, magic::SPILL).map_err(corrupt)?;
        let mut sections = read_sections(body, DAMAGED)?;
        match sections.pop() {
            Some(block) if sections.is_empty() => Ok(block),
            _ => Err(corrupt(DAMAGED)),
        }
    }

    /// Atomically writes the clean-shutdown marker: proof that the WAL
    /// was drained, a final checkpoint taken, and nothing appended
    /// since. A restart that finds a marker consistent with the
    /// checkpoint may skip the WAL tail scan entirely.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error no marker is visible.
    pub fn write_clean_marker(&self, marker: CleanMarker) -> io::Result<()> {
        let mut body = Vec::new();
        frame::write_header(&mut body, magic::CLEAN);
        let mut section = Vec::with_capacity(16);
        section.extend_from_slice(&marker.next_seq.to_le_bytes());
        section.extend_from_slice(&marker.generation.to_le_bytes());
        frame::write_frame(&mut body, 0, &section);
        self.write_atomic(CLEAN_FILE, &body)
    }

    /// Reads the clean-shutdown marker, if any. A malformed marker is
    /// reported as absent, not an error: falling back to the full tail
    /// scan is always safe.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the marker being absent.
    pub fn read_clean_marker(&self) -> io::Result<Option<CleanMarker>> {
        let bytes = match fs::read(self.root.join(CLEAN_FILE)) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err),
        };
        let Ok(body) = frame::strip_header(&bytes, magic::CLEAN) else {
            return Ok(None);
        };
        let scanned = frame::scan(body);
        if scanned.end != ScanEnd::Clean || scanned.frames.len() != 1 {
            return Ok(None);
        }
        let section = &scanned.frames[0].body;
        if section.len() != 16 {
            return Ok(None);
        }
        Ok(Some(CleanMarker {
            next_seq: u64::from_le_bytes(section[..8].try_into().expect("sized")),
            generation: u64::from_le_bytes(section[8..].try_into().expect("sized")),
        }))
    }

    /// Removes the clean-shutdown marker and fsyncs the directory.
    /// Recovery does this *before* reopening the store, so a later
    /// unclean death can never reuse a stale marker to skip replay it
    /// actually needs.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; an already-absent marker is fine.
    pub fn remove_clean_marker(&self) -> io::Result<()> {
        match fs::remove_file(self.root.join(CLEAN_FILE)) {
            // Make the removal durable: a marker that came back after a
            // power loss would vouch for a tail it never saw.
            Ok(()) => self.sync_dir(),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(err) => Err(err),
        }
    }

    /// Total bytes of every file in the directory — the store's
    /// on-disk footprint.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for entry in fs::read_dir(&self.root)? {
            total += entry?.metadata()?.len();
        }
        Ok(total)
    }

    /// Unlinks every abandoned `*.tmp` file in the directory (debris
    /// from a crash between a temp write and its rename).
    fn sweep_tmp(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".tmp"))
            {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// Writes `bytes` to `name` via temp + fsync + rename + dir fsync.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.root.join(format!("{name}.tmp"));
        {
            let mut file = File::create(&tmp)?;
            self.io.write_all(&mut file, bytes)?;
            self.io.sync_data(&file)?;
        }
        fs::rename(&tmp, self.root.join(name))?;
        // Make the rename itself durable.
        self.sync_dir()
    }

    /// Fsyncs the directory itself, making every file creation, rename
    /// and removal so far durable. File contents are the files' own
    /// `sync_data`; a name is only as durable as this.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn sync_dir(&self) -> io::Result<()> {
        self.io.sync_data(&File::open(&self.root)?)
    }
}

fn spill_name(stripe: u32, n: u64) -> String {
    format!("spill-{stripe:04}-{n:08}.seg")
}

/// Appends `section` to `body` as frames of at most
/// [`CHECKPOINT_CHUNK`] bytes (at least one, so an empty section still
/// exists) that share `index` as their sequence number;
/// [`read_sections`] reassembles by index.
fn write_section(body: &mut Vec<u8>, index: u64, section: &[u8]) {
    let mut chunks = section.chunks(CHECKPOINT_CHUNK);
    frame::write_frame(body, index, chunks.next().unwrap_or(&[]));
    for chunk in chunks {
        frame::write_frame(body, index, chunk);
    }
}

/// Reassembles the sections [`write_section`] wrote into `body`, in
/// index order. Anything but a clean run of frames whose indices count
/// up from zero is `damaged`.
fn read_sections(body: &[u8], damaged: &'static str) -> io::Result<Vec<Vec<u8>>> {
    let scanned = frame::scan(body);
    if scanned.end != ScanEnd::Clean {
        return Err(corrupt(damaged));
    }
    let mut sections: Vec<Vec<u8>> = Vec::new();
    for frame in scanned.frames {
        match (frame.seq as usize).cmp(&sections.len()) {
            std::cmp::Ordering::Equal => sections.push(frame.body),
            std::cmp::Ordering::Less if frame.seq as usize + 1 == sections.len() => {
                sections
                    .last_mut()
                    .expect("non-empty by the index check")
                    .extend_from_slice(&frame.body);
            }
            _ => return Err(corrupt(damaged)),
        }
    }
    Ok(sections)
}

fn corrupt(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn header_round_trips_and_refuses_reinit() {
        let tmp = TempDir::new("logdir-header");
        let _ = LogDir::create(tmp.path(), 17, b"layout").expect("create");
        let (_, meta) = LogDir::open(tmp.path()).expect("open");
        assert_eq!(
            meta,
            LogDirMeta {
                streams: 17,
                app_meta: b"layout".to_vec()
            }
        );
        assert!(LogDir::create(tmp.path(), 17, b"layout").is_err());
    }

    #[test]
    fn checkpoint_replace_is_atomic_and_readable() {
        let tmp = TempDir::new("logdir-ckpt");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        assert_eq!(dir.read_checkpoint().expect("none yet"), None);
        dir.write_checkpoint(&[b"meta".to_vec(), b"stripe0".to_vec()])
            .expect("write");
        dir.write_checkpoint(&[b"meta2".to_vec()]).expect("rewrite");
        assert_eq!(
            dir.read_checkpoint().expect("read"),
            Some(vec![b"meta2".to_vec()])
        );
    }

    #[test]
    fn oversize_checkpoint_sections_chunk_and_reassemble() {
        let tmp = TempDir::new("logdir-ckpt-chunks");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        let big: Vec<u8> = (0..CHECKPOINT_CHUNK * 2 + 123)
            .map(|i| (i % 251) as u8)
            .collect();
        let sections = vec![b"meta".to_vec(), big, Vec::new(), b"tail".to_vec()];
        dir.write_checkpoint(&sections).expect("write");
        assert_eq!(dir.read_checkpoint().expect("read"), Some(sections));
    }

    #[test]
    fn wal_listing_and_deletion() {
        let tmp = TempDir::new("logdir-wal");
        let dir = LogDir::create(tmp.path(), 2, &[]).expect("create");
        for generation in 0..3u64 {
            for stream in 0..2u32 {
                dir.open_wal_append(generation, stream).expect("open");
            }
        }
        assert_eq!(dir.list_wal().expect("list").len(), 6);
        dir.delete_wal_before(2).expect("delete");
        assert_eq!(dir.list_wal().expect("list"), vec![(2, 0), (2, 1)]);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let tmp = TempDir::new("logdir-tmp-sweep");
        let _ = LogDir::create(tmp.path(), 1, &[]).expect("create");
        // Debris a crash mid-write_atomic would leave behind.
        std::fs::write(tmp.path().join("spill-0000-00000000.seg.tmp"), b"torn").expect("write");
        std::fs::write(tmp.path().join("checkpoint.tmp"), b"torn").expect("write");
        let (dir, _) = LogDir::open(tmp.path()).expect("open");
        assert!(!tmp.path().join("spill-0000-00000000.seg.tmp").exists());
        assert!(!tmp.path().join("checkpoint.tmp").exists());
        // The swept name is free again for a real spill.
        dir.write_spill(0, 0, b"a").expect("spill");
        assert_eq!(dir.list_spills().expect("list"), vec![(0, 0)]);
    }

    #[test]
    fn clean_marker_round_trips_and_removes() {
        let tmp = TempDir::new("logdir-clean");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        assert_eq!(dir.read_clean_marker().expect("absent"), None);
        let marker = CleanMarker {
            next_seq: 42,
            generation: 7,
        };
        dir.write_clean_marker(marker).expect("write");
        assert_eq!(dir.read_clean_marker().expect("present"), Some(marker));
        dir.remove_clean_marker().expect("remove");
        assert_eq!(dir.read_clean_marker().expect("absent again"), None);
        // Removing an absent marker is not an error.
        dir.remove_clean_marker().expect("idempotent");
    }

    #[test]
    fn malformed_clean_marker_reads_as_absent() {
        let tmp = TempDir::new("logdir-clean-bad");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        std::fs::write(tmp.path().join("clean"), b"garbage").expect("write");
        assert_eq!(dir.read_clean_marker().expect("lenient"), None);
    }

    #[test]
    fn short_wal_file_scans_as_fully_torn() {
        // A process killed between creating a generation file and
        // writing its header leaves a short (even empty) file; recovery
        // must see zero frames, not a hard error.
        let tmp = TempDir::new("logdir-short-wal");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        std::fs::write(dir.wal_path(3, 0), b"").expect("empty");
        let scanned = dir.read_wal(3, 0).expect("lenient");
        assert!(scanned.frames.is_empty());
        assert_eq!(scanned.end, ScanEnd::Truncated);
        std::fs::write(dir.wal_path(4, 0), b"SLw").expect("partial header");
        assert!(dir.read_wal(4, 0).expect("lenient").frames.is_empty());
    }

    #[test]
    fn open_missing_directory_is_a_clean_error() {
        let tmp = TempDir::new("logdir-missing");
        let gone = tmp.path().join("never-created");
        let err = LogDir::open(&gone).expect_err("no directory");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn open_path_that_is_a_file_is_a_clean_error() {
        let tmp = TempDir::new("logdir-file-root");
        let path = tmp.path().join("plain-file");
        std::fs::write(&path, b"not a directory").expect("write");
        assert!(LogDir::open(&path).is_err());
    }

    #[test]
    fn open_with_corrupt_header_is_a_clean_error() {
        let tmp = TempDir::new("logdir-bad-header");
        let _ = LogDir::create(tmp.path(), 1, &[]).expect("create");
        std::fs::write(tmp.path().join("header"), b"XXXXXXXXXXXX").expect("damage");
        let err = LogDir::open(tmp.path()).expect_err("bad magic");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(tmp.path().join("header"), b"SL").expect("truncate");
        let err = LogDir::open(tmp.path()).expect_err("short header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn directory_disappearing_mid_use_is_a_clean_error() {
        let tmp = TempDir::new("logdir-vanish");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        std::fs::remove_dir_all(tmp.path()).expect("vanish");
        assert!(dir.list_wal().is_err());
        assert!(dir.list_spills().is_err());
        assert!(dir.write_checkpoint(&[b"meta".to_vec()]).is_err());
        assert!(dir.next_spill_numbers(1).is_err());
        assert!(dir.write_spill(0, 0, b"a").is_err());
        assert!(dir.disk_bytes().is_err());
        // Reopening also fails cleanly, and leaves no recreated state.
        assert!(LogDir::open(tmp.path()).is_err());
        assert!(!tmp.path().exists());
        std::fs::create_dir_all(tmp.path()).expect("restore for TempDir drop");
    }

    #[test]
    fn unreadable_directory_and_checkpoint_fail_cleanly() {
        // chmod 000 does not stop root, so assert "clean error, no
        // panic" and only check the error kind when the process is
        // actually denied.
        use std::os::unix::fs::PermissionsExt as _;
        let tmp = TempDir::new("logdir-perms");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        dir.write_checkpoint(&[b"meta".to_vec()]).expect("ckpt");
        let lock = |path: &Path| {
            std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o000)).expect("chmod")
        };
        let unlock = |path: &Path| {
            std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o755)).expect("chmod")
        };
        lock(&tmp.path().join("checkpoint"));
        match dir.read_checkpoint() {
            Ok(Some(_)) => {} // running as root: permissions are advisory
            Ok(None) => panic!("checkpoint exists"),
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::PermissionDenied),
        }
        unlock(&tmp.path().join("checkpoint"));
        lock(tmp.path());
        match LogDir::open(tmp.path()) {
            Ok(_) => {}
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::PermissionDenied),
        }
        unlock(tmp.path());
    }

    #[test]
    fn spill_segments_are_numbered_per_stripe() {
        let tmp = TempDir::new("logdir-spill");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        // One listing numbers a whole pass; a stripe the listing has
        // never seen starts at 0, one past the layout is ignored.
        assert_eq!(dir.next_spill_numbers(4).expect("next"), vec![0; 4]);
        dir.write_spill(0, 0, b"a").expect("spill");
        dir.write_spill(0, 1, b"bc").expect("spill");
        dir.write_spill(3, 0, b"d").expect("spill");
        dir.write_spill(9, 5, b"e").expect("spill");
        assert_eq!(
            dir.list_spills().expect("list"),
            vec![(0, 0), (0, 1), (3, 0), (9, 5)]
        );
        assert_eq!(dir.next_spill_numbers(4).expect("next"), vec![2, 0, 0, 1]);
        assert_eq!(dir.read_spill(0, 1).expect("read"), b"bc");
        assert!(dir.disk_bytes().expect("bytes") > 0);
    }

    #[test]
    fn spill_block_larger_than_one_chunk_round_trips() {
        let tmp = TempDir::new("logdir-spill-chunks");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        let mut block = vec![0x5a; CHECKPOINT_CHUNK + 4567];
        for (i, byte) in block.iter_mut().step_by(4099).enumerate() {
            *byte = i as u8;
        }
        dir.write_spill(2, 7, &block).expect("spill");
        assert_eq!(dir.read_spill(2, 7).expect("read"), block);
        // One envelope per chunk, none per record.
        let len = std::fs::metadata(tmp.path().join(spill_name(2, 7)))
            .expect("segment")
            .len() as usize;
        assert_eq!(
            len,
            frame::HEADER_LEN + block.len() + 2 * (frame::FRAME_OVERHEAD + 8)
        );
        // An empty block is still a segment with one (empty) section.
        dir.write_spill(2, 8, &[]).expect("empty spill");
        assert_eq!(dir.read_spill(2, 8).expect("read"), Vec::<u8>::new());
    }

    #[test]
    fn damaged_spill_segment_is_a_hard_error() {
        let tmp = TempDir::new("logdir-spill-damage");
        let dir = LogDir::create(tmp.path(), 1, &[]).expect("create");
        let block: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
        dir.write_spill(0, 0, &block).expect("spill");
        let path = tmp.path().join(spill_name(0, 0));
        let pristine = std::fs::read(&path).expect("read segment");
        let damaged = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("damage");
            let err = dir.read_spill(0, 0).expect_err("damage must not read");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            err.to_string()
        };
        // A flipped byte anywhere past the file header: length, CRC,
        // section index or block.
        for at in [8, 13, 17, 40, pristine.len() - 1] {
            let mut flipped = pristine.clone();
            flipped[at] ^= 0x10;
            assert_eq!(damaged(&flipped), "damaged spill segment", "byte {at}");
        }
        // A short file, a header alone, and a second section.
        assert_eq!(
            damaged(&pristine[..pristine.len() - 3]),
            "damaged spill segment"
        );
        assert_eq!(
            damaged(&pristine[..frame::HEADER_LEN]),
            "damaged spill segment"
        );
        let mut two = pristine.clone();
        frame::write_frame(&mut two, 1, b"stowaway");
        assert_eq!(damaged(&two), "damaged spill segment");
        std::fs::write(&path, &pristine).expect("restore");
        assert_eq!(dir.read_spill(0, 0).expect("read"), block);
    }

    #[test]
    fn removing_the_marker_syncs_the_directory() {
        use crate::disk::FaultyDisk;
        let tmp = TempDir::new("logdir-clean-sync");
        let disk = Arc::new(FaultyDisk::scripted(Vec::new()));
        let dir = LogDir::create(tmp.path(), 1, &[])
            .expect("create")
            .with_io(Arc::clone(&disk) as Arc<_>);
        dir.write_clean_marker(CleanMarker {
            next_seq: 1,
            generation: 1,
        })
        .expect("write");
        let renamed = disk.dir_syncs();
        assert_eq!(renamed, 1, "the rename into place is synced");
        dir.remove_clean_marker().expect("remove");
        assert_eq!(disk.dir_syncs(), renamed + 1, "so is the removal");
        // Nothing was unlinked, so there is nothing to make durable.
        dir.remove_clean_marker().expect("idempotent");
        assert_eq!(disk.dir_syncs(), renamed + 1);
    }
}
