//! The on-disk layout of a persistent store directory: one file per
//! durable event.
//!
//! ```text
//! <root>/
//!   header           the file header alone (magic and version)
//!   wal-<gen>.log    append-only log, one file per generation
//!   checkpoint       latest checkpoint (temp+rename+fsync)
//!   clean            clean-shutdown marker (consumed on open)
//! ```
//!
//! Two framings share the [`crate::frame`] envelope. A WAL generation
//! file is a run of **one frame per record**, each carrying its own
//! sequence number, in strictly increasing sequence order (the order
//! [`crate::wal`] assigns and sends them in) — it is appended to, so its
//! tail can tear, and the prefix-valid scan recovers whole records up to
//! the tear. The checkpoint is a run of **sections**: each section is
//! one opaque buffer, compressed to
//! `varint raw length ++ LZ sequences` ([`crate::lz`]), then cut into
//! frames of at most `CHECKPOINT_CHUNK` bytes that share the section
//! index as their sequence number — one CRC per ≤ 16 MiB, no per-record
//! envelope. The checkpoint is only ever written whole and atomically, so a
//! tear cannot happen and any damage (a bad frame, a block the decoder
//! refuses) is a hard error. A write compresses each section into the body
//! before it encodes the next; a load checks every frame, then decompresses
//! one section at a time: beside the file, each holds one raw section.
//! WAL records and the clean marker stay uncompressed. The directory header
//! is a file header and nothing else: it marks the directory as a store of
//! this format.
//!
//! Mutation rules that make crashes survivable:
//!
//! * WAL generation files are append-only and never rewritten; a crash
//!   can only damage their tails, which the frame scanner trims.
//! * The checkpoint is written to a temp file,
//!   fsynced, then renamed into place, then the directory is fsynced —
//!   readers see either the old file or the complete new one.
//! * A name is as durable as the last directory fsync: the WAL writer
//!   syncs the directory after creating a generation file and before it
//!   acknowledges anything written to it, and consuming the
//!   clean-shutdown marker syncs its removal.
//! * Old WAL generations are deleted — one unlink each — only *after*
//!   the checkpoint that supersedes them is durable.

use crate::disk::{DiskIo, RealDisk};
use crate::frame::{self, magic, ScanEnd};
use crate::lz;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const HEADER_FILE: &str = "header";
const CHECKPOINT_FILE: &str = "checkpoint";
const CLEAN_FILE: &str = "clean";
/// Checkpoint sections are split into frames of at most this many
/// bytes, so a section (one stripe's full state) may exceed
/// [`frame::MAX_FRAME`] without overflowing a frame.
const CHECKPOINT_CHUNK: usize = 1 << 24;
/// [`LogDir::read_wal`] reads a generation file this many bytes at a
/// time (more only for a frame that does not fit), so recovery's memory
/// does not grow with a generation.
const WAL_READ_CHUNK: usize = 1 << 18;

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

impl LogDir {
    /// Creates (or reuses) `root` and writes the header file.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created, a header already
    /// exists (refusing to silently adopt another store's data), or
    /// writing fails.
    pub fn create(root: &Path) -> io::Result<LogDir> {
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
        dir.write_atomic(HEADER_FILE, &body)?;
        Ok(dir)
    }

    /// Opens an existing directory and checks its header.
    ///
    /// # Errors
    ///
    /// Fails if the header is missing, unreadable, or corrupt (of
    /// another kind or version, short, or with any byte past the
    /// version) — a damaged header is unrecoverable by design (it is
    /// tiny and written once, atomically).
    pub fn open(root: &Path) -> io::Result<LogDir> {
        let dir = LogDir {
            root: root.to_path_buf(),
            io: Arc::new(RealDisk),
        };
        // A crash between a temp write and its rename leaves a stale
        // `*.tmp` behind: a `checkpoint.tmp` holds a whole checkpoint's
        // bytes until the next checkpoint truncates it, which may be a
        // day away. Sweep them all before anything reads or writes the
        // directory — only renamed files are live.
        dir.sweep_tmp()?;
        let bytes = fs::read(dir.root.join(HEADER_FILE))?;
        let rest = frame::strip_header(&bytes, magic::DIR).map_err(corrupt)?;
        if !rest.is_empty() {
            return Err(corrupt("damaged header"));
        }
        Ok(dir)
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
    pub fn wal_path(&self, generation: u64) -> PathBuf {
        self.root.join(format!("wal-{generation:08}.log"))
    }

    /// Opens a WAL generation file for appending, writing the file
    /// header if the file is new.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_wal_append(&self, generation: u64) -> io::Result<File> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.wal_path(generation))?;
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

    /// Every WAL generation present, ascending.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn list_wal(&self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let generation = name.to_str().and_then(|name| {
                let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
                rest.parse::<u64>().ok()
            });
            out.extend(generation);
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Reads one WAL generation file and hands `each` every frame of
    /// its valid prefix as `(seq, body)`, in file order. A generation
    /// may be large, so the file is read `WAL_READ_CHUNK` bytes at a
    /// time, never whole, and no frame is copied. Returns why the scan stopped: a torn or corrupt tail is
    /// reported so, not as an error.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors, a damaged *file header*, or the first
    /// error `each` returns. A file shorter than one header — e.g.
    /// created by a process killed between `open` and the header write —
    /// is not an error: it is a fully torn tail holding zero frames.
    pub fn read_wal(
        &self,
        generation: u64,
        mut each: impl FnMut(u64, &[u8]) -> io::Result<()>,
    ) -> io::Result<ScanEnd> {
        let mut file = File::open(self.wal_path(generation))?;
        // Appends the next chunk to `buf`; whether the file has ended.
        let mut fill = |buf: &mut Vec<u8>| -> io::Result<bool> {
            let chunk = WAL_READ_CHUNK as u64;
            Ok(file.by_ref().take(chunk).read_to_end(buf)? < WAL_READ_CHUNK)
        };
        let mut buf = Vec::new();
        let mut ended = fill(&mut buf)?;
        if buf.len() < frame::HEADER_LEN {
            return Ok(ScanEnd::Truncated);
        }
        frame::strip_header(&buf, magic::WAL).map_err(corrupt)?;
        let mut pos = frame::HEADER_LEN;
        loop {
            match frame::frame_at(&buf, pos) {
                Ok((seq, body, next)) => {
                    each(seq, body)?;
                    pos = next;
                }
                // Out of bytes mid-file is not a tear: read on, keeping
                // the partial frame.
                Err(ScanEnd::Clean | ScanEnd::Truncated) if !ended => {
                    buf.drain(..pos);
                    pos = 0;
                    ended = fill(&mut buf)?;
                }
                Err(end) => return Ok(end),
            }
        }
    }

    /// Deletes every WAL generation `< before`: one unlink each.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn delete_wal_before(&self, before: u64) -> io::Result<()> {
        for generation in self.list_wal()? {
            if generation < before {
                fs::remove_file(self.wal_path(generation))?;
            }
        }
        Ok(())
    }

    /// Atomically replaces the checkpoint file, in one write, with the
    /// sections `next` encodes into the empty buffer it is handed, one a
    /// call until it returns `false`; each is compressed into CRC'd frames
    /// (sequence = section index) before the next is encoded.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the previous checkpoint,
    /// if any, is still in place.
    pub fn write_checkpoint(&self, mut next: impl FnMut(&mut Vec<u8>) -> bool) -> io::Result<()> {
        let mut body = Vec::new();
        frame::write_header(&mut body, magic::CHECKPOINT);
        let (mut raw, mut packed, mut index) = (Vec::new(), Vec::new(), 0);
        while next(&mut raw) {
            lz::compress(&raw, &mut packed); // never empty: one frame at least
            for chunk in packed.chunks(CHECKPOINT_CHUNK) {
                frame::write_frame(&mut body, index, chunk);
            }
            raw.clear();
            packed.clear();
            index += 1;
        }
        self.write_atomic(CHECKPOINT_FILE, &body)
    }

    /// Reads the checkpoint and checks every frame — its CRC, and that
    /// the section indices count up from zero — before any section is
    /// handed out; `None` if no checkpoint has been written yet.
    ///
    /// # Errors
    ///
    /// A present-but-damaged checkpoint is a hard error: it was fsynced
    /// before any WAL it supersedes was deleted, so damage means
    /// something other than a crash-torn tail.
    pub fn read_checkpoint(&self) -> io::Result<Option<Checkpoint>> {
        let mut bytes = match fs::read(self.root.join(CHECKPOINT_FILE)) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err),
        };
        frame::strip_header(&bytes, magic::CHECKPOINT).map_err(corrupt)?;
        let (mut sections, mut pos, mut end) = (Vec::<Range<usize>>::new(), 0, frame::HEADER_LEN);
        loop {
            let (index, len, next) = match frame::frame_at(&bytes[frame::HEADER_LEN..], pos) {
                Ok((index, payload, next)) => (index, payload.len(), next),
                Err(ScanEnd::Clean) if !sections.is_empty() => break,
                Err(_) => return Err(corrupt(DAMAGED)),
            };
            // A frame starts the next section or continues the last; its
            // payload moves down onto checked bytes, joining the section's.
            if index == sections.len() as u64 {
                sections.push(end..end);
            } else if (sections.len() as u64).checked_sub(1) != Some(index) {
                return Err(corrupt(DAMAGED));
            }
            let from = frame::HEADER_LEN + next - len;
            bytes.copy_within(from..from + len, end);
            end += len;
            sections.last_mut().expect("one section at least").end = end;
            pos = next;
        }
        Ok(Some(Checkpoint { bytes, sections }))
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

/// A checkpoint file whose frames all passed [`LogDir::read_checkpoint`]'s
/// checks.
pub struct Checkpoint {
    bytes: Vec<u8>,
    /// Each section's compressed bytes in `bytes`: its frames' payloads.
    sections: Vec<Range<usize>>,
}

impl Checkpoint {
    /// The sections in index order, each decompressed only when it is
    /// reached. A section that is not a block [`lz::decompress`] accepts
    /// is a damaged checkpoint.
    pub fn sections(&self) -> impl ExactSizeIterator<Item = io::Result<Vec<u8>>> + '_ {
        let unpack = |at: &Range<usize>| lz::decompress(&self.bytes[at.clone()]);
        self.sections
            .iter()
            .map(move |at| unpack(at).map_err(|_| corrupt(DAMAGED)))
    }
}

const DAMAGED: &str = "damaged checkpoint";

fn corrupt(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    /// Every section of the checkpoint, decompressed.
    fn read_all(dir: &LogDir) -> io::Result<Option<Vec<Vec<u8>>>> {
        dir.read_checkpoint()?
            .map(|c| c.sections().collect())
            .transpose()
    }

    /// Replaces the checkpoint with `sections`.
    fn write_all(dir: &LogDir, sections: &[Vec<u8>]) -> io::Result<()> {
        let mut each = sections.iter();
        dir.write_checkpoint(|out| each.next().map(|s| out.extend_from_slice(s)).is_some())
    }

    #[test]
    fn header_round_trips_and_refuses_reinit() {
        let tmp = TempDir::new("logdir-header");
        let _ = LogDir::create(tmp.path()).expect("create");
        let header = std::fs::read(tmp.path().join(HEADER_FILE)).expect("header");
        assert_eq!(header.len(), frame::HEADER_LEN, "magic and version only");
        let dir = LogDir::open(tmp.path()).expect("open");
        assert_eq!(dir.root(), tmp.path());
        let err = LogDir::create(tmp.path()).expect_err("second create");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn checkpoint_replace_is_atomic_and_readable() {
        let tmp = TempDir::new("logdir-ckpt");
        let dir = LogDir::create(tmp.path()).expect("create");
        assert_eq!(read_all(&dir).expect("none yet"), None);
        write_all(&dir, &[b"meta".to_vec(), b"stripe0".to_vec()]).expect("write");
        write_all(&dir, &[b"meta2".to_vec()]).expect("rewrite");
        assert_eq!(read_all(&dir).expect("read"), Some(vec![b"meta2".to_vec()]));
    }

    /// Seeded xorshift bytes, which compression cannot shrink: a section
    /// of them keeps its frame count on disk.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    #[test]
    fn oversize_checkpoint_sections_chunk_and_reassemble() {
        let tmp = TempDir::new("logdir-ckpt-chunks");
        let dir = LogDir::create(tmp.path()).expect("create");
        let big = noise(CHECKPOINT_CHUNK * 2 + 123, 0x9e37_79b9_7f4a_7c15);
        let sections = vec![b"meta".to_vec(), big, Vec::new(), b"tail".to_vec()];
        write_all(&dir, &sections).expect("write");
        assert_eq!(read_all(&dir).expect("read"), Some(sections));
        // The big section really was cut into frames and reassembled.
        let bytes = std::fs::read(tmp.path().join(CHECKPOINT_FILE)).expect("checkpoint");
        let scanned = frame::scan(&bytes[frame::HEADER_LEN..]);
        let big_frames = scanned.frames.iter().filter(|f| f.seq == 1).count();
        assert!(big_frames >= 3, "{big_frames} frames");
    }

    #[test]
    fn wal_listing_and_deletion() {
        let tmp = TempDir::new("logdir-wal");
        let dir = LogDir::create(tmp.path()).expect("create");
        for generation in 0..3u64 {
            dir.open_wal_append(generation).expect("open");
        }
        // Foreign names that only look like log files are not listed.
        for name in ["wal-00000007-0001.log", "wal-x.log", "wal-00000009.seg"] {
            std::fs::write(tmp.path().join(name), b"").expect("write");
        }
        assert_eq!(dir.list_wal().expect("list"), vec![0, 1, 2]);
        dir.delete_wal_before(2).expect("delete");
        assert_eq!(dir.list_wal().expect("list"), vec![2]);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let tmp = TempDir::new("logdir-tmp-sweep");
        let _ = LogDir::create(tmp.path()).expect("create");
        // Debris a crash mid-write_atomic would leave behind.
        std::fs::write(tmp.path().join("checkpoint.tmp"), b"torn").expect("write");
        std::fs::write(tmp.path().join("clean.tmp"), b"torn").expect("write");
        let dir = LogDir::open(tmp.path()).expect("open");
        assert!(!tmp.path().join("checkpoint.tmp").exists());
        assert!(!tmp.path().join("clean.tmp").exists());
        // The swept name is free again for a real checkpoint.
        write_all(&dir, &[b"a".to_vec()]).expect("checkpoint");
        assert_eq!(read_all(&dir).expect("read"), Some(vec![b"a".to_vec()]));
    }

    #[test]
    fn clean_marker_round_trips_and_removes() {
        let tmp = TempDir::new("logdir-clean");
        let dir = LogDir::create(tmp.path()).expect("create");
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
        let dir = LogDir::create(tmp.path()).expect("create");
        std::fs::write(tmp.path().join("clean"), b"garbage").expect("write");
        assert_eq!(dir.read_clean_marker().expect("lenient"), None);
    }

    #[test]
    fn short_wal_file_scans_as_fully_torn() {
        // A process killed between creating a generation file and
        // writing its header leaves a short (even empty) file; recovery
        // must see zero frames, not a hard error.
        let tmp = TempDir::new("logdir-short-wal");
        let dir = LogDir::create(tmp.path()).expect("create");
        let no_frames = |_: u64, _: &[u8]| -> io::Result<()> { panic!("a frame") };
        std::fs::write(dir.wal_path(3), b"").expect("empty");
        assert_eq!(
            dir.read_wal(3, no_frames).expect("lenient"),
            ScanEnd::Truncated
        );
        std::fs::write(dir.wal_path(4), b"SLw").expect("partial header");
        assert_eq!(
            dir.read_wal(4, no_frames).expect("lenient"),
            ScanEnd::Truncated
        );
    }

    /// Reading a generation a chunk at a time yields what a scan of the
    /// whole file does — intact, torn on and past a chunk boundary, or
    /// damaged past the first chunk — with frames straddling every
    /// boundary and one larger than a chunk.
    #[test]
    fn wal_read_in_chunks_equals_a_whole_file_scan() {
        let tmp = TempDir::new("logdir-wal-chunks");
        let dir = LogDir::create(tmp.path()).expect("create");
        let mut file = Vec::new();
        frame::write_header(&mut file, magic::WAL);
        for seq in 0..1_000u64 {
            let len = match seq {
                100 => WAL_READ_CHUNK + 3,
                _ => (seq * 7 % 900) as usize,
            };
            frame::write_frame(&mut file, seq, &vec![seq as u8; len]);
        }
        assert!(file.len() > 2 * WAL_READ_CHUNK);
        let mut flipped = file.clone();
        flipped[WAL_READ_CHUNK + 100] ^= 0x04;
        let cases = [
            &file[..],
            &file[..WAL_READ_CHUNK],
            &file[..WAL_READ_CHUNK + 5],
            &file[..file.len() - 1],
            &flipped[..],
        ];
        for (i, bytes) in cases.into_iter().enumerate() {
            std::fs::write(dir.wal_path(0), bytes).expect("write");
            let mut frames = Vec::new();
            let end = dir.read_wal(0, |seq, body| {
                let body = body.to_vec();
                frames.push(frame::Frame { seq, body });
                Ok(())
            });
            let whole = frame::scan(&bytes[frame::HEADER_LEN..]);
            assert_eq!(end.expect("read"), whole.end, "case {i}");
            assert!(frames == whole.frames, "case {i}: {} frames", frames.len());
        }
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

    /// The header is the file header and nothing else: another magic, a
    /// byte past the version, or a header cut short is damage.
    #[test]
    fn open_with_corrupt_header_is_a_clean_error() {
        let tmp = TempDir::new("logdir-bad-header");
        let _ = LogDir::create(tmp.path()).expect("create");
        let path = tmp.path().join(HEADER_FILE);
        let pristine = std::fs::read(&path).expect("header");
        let refused = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("damage");
            let err = LogDir::open(tmp.path()).expect_err("damaged header");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            err.to_string()
        };
        refused(b"XXXXXXXXXXXX");
        let trailing = [&pristine[..], &[0]].concat();
        assert_eq!(refused(&trailing), "damaged header");
        let short = &pristine[..frame::HEADER_LEN - 1];
        assert_eq!(refused(short), "file shorter than header");
        refused(b"SL");
        std::fs::write(&path, &pristine).expect("restore");
        LogDir::open(tmp.path()).expect("the pristine header opens");
    }

    #[test]
    fn directory_disappearing_mid_use_is_a_clean_error() {
        let tmp = TempDir::new("logdir-vanish");
        let dir = LogDir::create(tmp.path()).expect("create");
        std::fs::remove_dir_all(tmp.path()).expect("vanish");
        assert!(dir.list_wal().is_err());
        assert!(write_all(&dir, &[b"meta".to_vec()]).is_err());
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
        let dir = LogDir::create(tmp.path()).expect("create");
        write_all(&dir, &[b"meta".to_vec()]).expect("ckpt");
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
    fn damaged_checkpoint_is_a_hard_error() {
        let tmp = TempDir::new("logdir-ckpt-damage");
        let dir = LogDir::create(tmp.path()).expect("create");
        let section: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
        write_all(&dir, std::slice::from_ref(&section)).expect("write");
        let path = tmp.path().join(CHECKPOINT_FILE);
        let pristine = std::fs::read(&path).expect("read checkpoint");
        let damaged = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("damage");
            let err = read_all(&dir).expect_err("damage must not read");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            err.to_string()
        };
        // A flipped byte anywhere past the file header: length, CRC,
        // section index or compressed section.
        for at in frame::HEADER_LEN..pristine.len() {
            let mut flipped = pristine.clone();
            flipped[at] ^= 0x10;
            assert_eq!(damaged(&flipped), "damaged checkpoint", "byte {at}");
        }
        // A short file, a header alone, and a section whose index
        // skips one.
        assert_eq!(
            damaged(&pristine[..pristine.len() - 3]),
            "damaged checkpoint"
        );
        assert_eq!(
            damaged(&pristine[..frame::HEADER_LEN]),
            "damaged checkpoint"
        );
        let mut skipped = pristine.clone();
        frame::write_frame(&mut skipped, 2, b"stowaway");
        assert_eq!(damaged(&skipped), "damaged checkpoint");
        std::fs::write(&path, &pristine).expect("restore");
        assert_eq!(read_all(&dir).expect("read"), Some(vec![section]));
    }

    #[test]
    fn removing_the_marker_syncs_the_directory() {
        use crate::disk::FaultyDisk;
        let tmp = TempDir::new("logdir-clean-sync");
        let disk = Arc::new(FaultyDisk::scripted(Vec::new()));
        let dir = LogDir::create(tmp.path())
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
