//! Injectable disk I/O under the WAL and checkpoint writers.
//!
//! Every byte the persistence layer puts on disk flows through a
//! [`DiskIo`] implementation held by the [`crate::log::LogDir`]. In
//! production that is [`RealDisk`], a zero-cost passthrough to
//! `File::write_all`/`File::sync_data` (one dynamic call per coalesced
//! multi-kilobyte batch, so the indirection is unmeasurable). In tests
//! it is [`FaultyDisk`], which turns runtime disk trouble — `ENOSPC`,
//! `EIO`, fsync failure — into *deterministic, schedulable events*:
//!
//! * The disk keeps a cumulative count of bytes *attempted* (advanced
//!   whether or not the write succeeds, so retries make progress
//!   through the schedule).
//! * A write fails iff its byte span intersects a scheduled
//!   [`FaultWindow`]; an fsync fails iff the current byte position sits
//!   inside a sync-fault window.
//! * Windows come either from an explicit script
//!   ([`FaultyDisk::scripted`]) for targeted tests, or drawn from a
//!   seeded [`cloud_sim::rng::SimRng`] stream
//!   ([`FaultyDisk::seeded`]) for chaos-style coverage — the same seed
//!   always yields the same fault schedule.
//!
//! This is the runtime complement of [`crate::fault`], which damages
//! bytes *post mortem*: `fault` models what a crash leaves behind,
//! `disk` models the disk misbehaving while the process is alive.

use std::fmt::Debug;
use std::fs::File;
use std::io::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// Raw OS error codes used for injected faults (Linux/Unix values;
/// constructed via `io::Error::from_raw_os_error` so `ErrorKind`
/// mapping matches what a real syscall failure would produce).
const ENOSPC: i32 = 28;
const EIO: i32 = 5;

/// The two file operations the persistence layer performs. Implementors
/// must be shareable across the ingest threads and the WAL writer
/// thread.
pub trait DiskIo: Send + Sync + Debug {
    /// Writes all of `bytes` to `file` (append-position semantics are
    /// the caller's concern — WAL files are opened `O_APPEND`).
    fn write_all(&self, file: &mut File, bytes: &[u8]) -> io::Result<()>;
    /// Flushes `file`'s data (not necessarily metadata) to stable
    /// storage. Handed an open *directory*, it makes the names in it
    /// durable (creations, renames, removals).
    fn sync_data(&self, file: &File) -> io::Result<()>;
}

/// The production disk: a passthrough to the real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealDisk;

impl DiskIo for RealDisk {
    fn write_all(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        file.write_all(bytes)
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }
}

/// Which failure a [`FaultWindow`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Writes inside the window fail with `ENOSPC` (disk full).
    WriteEnospc,
    /// Writes inside the window fail with `EIO` (media error).
    WriteEio,
    /// `sync_data` calls issued while the cumulative write position is
    /// inside the window fail with `EIO`.
    SyncEio,
}

/// A half-open range `[from, to)` of cumulative *attempted-write byte
/// offsets* during which the disk misbehaves. Offsets count every byte
/// handed to [`DiskIo::write_all`] regardless of outcome, so the
/// schedule is a pure function of the caller's write sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// What goes wrong.
    pub kind: FaultKind,
    /// First faulty offset (inclusive).
    pub from: u64,
    /// End of the window (exclusive).
    pub to: u64,
}

/// Parameters for a seeded fault schedule: alternating healthy gaps and
/// fault windows, lengths jittered ±50% around the means.
#[derive(Debug, Clone)]
pub struct FaultProfile {
    /// Mean healthy bytes between consecutive windows.
    pub mean_gap: u64,
    /// Mean faulty bytes per window.
    pub mean_len: u64,
    /// Number of windows to schedule; after the last one the disk is
    /// permanently healthy (lets tests drive degraded → healed).
    pub windows: usize,
    /// Fault kinds to draw from, uniformly.
    pub kinds: Vec<FaultKind>,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            mean_gap: 256 * 1024,
            mean_len: 64 * 1024,
            windows: 4,
            kinds: vec![
                FaultKind::WriteEnospc,
                FaultKind::WriteEio,
                FaultKind::SyncEio,
            ],
        }
    }
}

/// A deterministic misbehaving disk. Wraps [`RealDisk`] and injects the
/// scheduled faults; outside every window it is a normal disk.
#[derive(Debug)]
pub struct FaultyDisk {
    inner: RealDisk,
    windows: Vec<FaultWindow>,
    /// Cumulative bytes attempted (successful or not).
    written: AtomicU64,
    /// Faults fired so far.
    injected: AtomicU64,
    /// Successful fsyncs of a directory (not a file) so far.
    dir_syncs: AtomicU64,
}

impl FaultyDisk {
    /// A disk that fails exactly per the given windows (sorted by
    /// `from` internally; overlapping windows are allowed — the first
    /// match wins).
    pub fn scripted(mut windows: Vec<FaultWindow>) -> FaultyDisk {
        windows.sort_unstable_by_key(|w| w.from);
        FaultyDisk {
            inner: RealDisk,
            windows,
            written: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            dir_syncs: AtomicU64::new(0),
        }
    }

    /// A disk whose fault windows are drawn from a seeded RNG stream:
    /// the same `(seed, profile)` always yields the same schedule.
    pub fn seeded(seed: u64, profile: &FaultProfile) -> FaultyDisk {
        let mut rng = cloud_sim::rng::SimRng::seed_from(seed ^ 0xD15C_FA17);
        let mut windows = Vec::with_capacity(profile.windows);
        let mut cursor = 0u64;
        for _ in 0..profile.windows {
            let gap = (profile.mean_gap.max(1) as f64 * rng.uniform_range(0.5, 1.5)) as u64;
            let len =
                (profile.mean_len.max(1) as f64 * rng.uniform_range(0.5, 1.5)).max(1.0) as u64;
            let kind = match profile.kinds.len() {
                0 => FaultKind::WriteEio,
                1 => profile.kinds[0],
                n => profile.kinds[rng.uniform_usize(0, n)],
            };
            cursor += gap;
            windows.push(FaultWindow {
                kind,
                from: cursor,
                to: cursor + len,
            });
            cursor += len;
        }
        FaultyDisk::scripted(windows)
    }

    /// The scheduled windows, sorted by start offset.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Cumulative bytes attempted so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Successful directory fsyncs so far — how tests see that a file
    /// creation, rename or removal was made durable, not just the
    /// file's bytes.
    pub fn dir_syncs(&self) -> u64 {
        self.dir_syncs.load(Ordering::Relaxed)
    }

    /// True once the write position is past every scheduled window —
    /// the disk has "healed" and will not fault again.
    pub fn exhausted(&self) -> bool {
        let pos = self.written();
        self.windows.iter().all(|w| w.to <= pos)
    }

    fn fault_for_span(&self, from: u64, to: u64) -> Option<FaultKind> {
        self.windows
            .iter()
            .find(|w| {
                matches!(w.kind, FaultKind::WriteEnospc | FaultKind::WriteEio)
                    && w.from < to
                    && from < w.to
            })
            .map(|w| w.kind)
    }
}

impl DiskIo for FaultyDisk {
    fn write_all(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        let len = bytes.len() as u64;
        // Advance the schedule whether or not the write succeeds:
        // retries of a failed write re-attempt at a *later* offset, so
        // bounded retry eventually clears a finite window.
        let start = self.written.fetch_add(len, Ordering::Relaxed);
        if let Some(kind) = self.fault_for_span(start, start + len) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::from_raw_os_error(match kind {
                FaultKind::WriteEnospc => ENOSPC,
                _ => EIO,
            }));
        }
        self.inner.write_all(file, bytes)
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        let pos = self.written.load(Ordering::Relaxed);
        if self
            .windows
            .iter()
            .any(|w| w.kind == FaultKind::SyncEio && w.from <= pos && pos < w.to)
        {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::from_raw_os_error(EIO));
        }
        self.inner.sync_data(file)?;
        if file.metadata()?.is_dir() {
            self.dir_syncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn scratch_file(tmp: &TempDir) -> File {
        File::create(tmp.path().join("scratch")).expect("create scratch")
    }

    #[test]
    fn real_disk_round_trips() {
        let tmp = TempDir::new("disk-real");
        let mut file = scratch_file(&tmp);
        RealDisk.write_all(&mut file, b"hello").expect("write");
        RealDisk.sync_data(&file).expect("sync");
        assert_eq!(
            std::fs::read(tmp.path().join("scratch")).expect("read"),
            b"hello"
        );
    }

    #[test]
    fn scripted_windows_fire_on_span_intersection() {
        let tmp = TempDir::new("disk-scripted");
        let mut file = scratch_file(&tmp);
        let disk = FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::WriteEnospc,
            from: 10,
            to: 20,
        }]);
        // [0, 8): healthy.
        disk.write_all(&mut file, &[0u8; 8]).expect("healthy");
        // [8, 16): intersects [10, 20) -> ENOSPC.
        let err = disk.write_all(&mut file, &[0u8; 8]).expect_err("faulty");
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        // The failed attempt still advanced the schedule: [16, 24)
        // intersects too, but [24, 32) is clear.
        assert!(disk.write_all(&mut file, &[0u8; 8]).is_err());
        disk.write_all(&mut file, &[0u8; 8]).expect("healed");
        assert_eq!(disk.injected(), 2);
        assert!(disk.exhausted());
    }

    #[test]
    fn sync_faults_key_off_the_write_position() {
        let tmp = TempDir::new("disk-sync");
        let mut file = scratch_file(&tmp);
        let disk = FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::SyncEio,
            from: 4,
            to: 8,
        }]);
        disk.sync_data(&file).expect("before the window");
        disk.write_all(&mut file, &[0u8; 5]).expect("write is fine");
        let err = disk.sync_data(&file).expect_err("inside the window");
        assert_eq!(err.raw_os_error(), Some(EIO));
        disk.write_all(&mut file, &[0u8; 5]).expect("write");
        disk.sync_data(&file).expect("past the window");
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let profile = FaultProfile::default();
        let a = FaultyDisk::seeded(42, &profile);
        let b = FaultyDisk::seeded(42, &profile);
        let c = FaultyDisk::seeded(43, &profile);
        assert_eq!(a.windows(), b.windows());
        assert_ne!(a.windows(), c.windows());
        assert_eq!(a.windows().len(), profile.windows);
        // Windows are disjoint and ordered.
        for pair in a.windows().windows(2) {
            assert!(pair[0].to <= pair[1].from);
        }
    }
}
