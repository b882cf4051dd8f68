//! # spotlight-persist
//!
//! Crash-safe persistence for the SpotLight probe store (ROADMAP item
//! 2): a small in-tree binary serialization layer plus an append-only
//! log with checkpoints — the workspace's one
//! on-disk format (`spotlight_core::json` is the one wire format).
//!
//! The crate is deliberately application-agnostic: it moves *byte
//! payloads* through CRC-checked frames and numbered log generations, and
//! knows how to encode the `cloud-sim` vocabulary ([`codec`]).
//! `spotlight-core` layers the store-specific operation log and
//! checkpoint state on top.
//!
//! Layers, bottom up:
//!
//! * [`crc`] — CRC32 (IEEE) over payload bytes;
//! * [`codec`] — [`codec::Encode`]/[`codec::Decode`] for primitives and
//!   the `cloud-sim` id/time/price types: canonical LEB128 varints for
//!   the integers, raw bytes for tags and floats, count-prefixed where
//!   variable;
//! * [`disk`] — the injectable disk-I/O layer ([`disk::DiskIo`]):
//!   [`disk::RealDisk`] in production, the deterministic
//!   [`disk::FaultyDisk`] (seeded ENOSPC/EIO/fsync-failure schedules)
//!   under test, so runtime disk faults are first-class events;
//! * [`frame`] — the versioned record frame
//!   `[len:u32][crc:u32][seq:u64 ++ payload]` and a scanner that stops
//!   at the first torn, truncated, or corrupt frame (prefix-valid
//!   recovery semantics);
//! * [`wal`] — a bounded-queue single-writer append log with one
//!   staging buffer, one file per generation in sequence order, a
//!   configurable fsync policy and generation rotation;
//! * [`lz`] — the LZ block codec every checkpoint section is
//!   compressed with (no level, no off switch; the decoder refuses
//!   hostile input without panicking);
//! * [`log`] — the on-disk directory layout, one file per durable
//!   event (header, a WAL file per generation of one frame per record,
//!   and the checkpoint file — compressed, chunked sections written
//!   temp+rename+fsync);
//! * [`fault`] — the crash-injection helpers the torn-write recovery
//!   tests drive (truncate/corrupt/duplicate-tail at byte offsets);
//! * [`tempdir`] — a tiny RAII scratch-directory helper for tests and
//!   harnesses (no `tempfile` crate offline).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod crc;
pub mod disk;
pub mod fault;
pub mod frame;
pub mod log;
pub mod lz;
pub mod tempdir;
pub mod wal;

pub use codec::{Decode, DecodeError, Encode, Reader};
pub use disk::{DiskIo, FaultKind, FaultProfile, FaultWindow, FaultyDisk, RealDisk};
pub use log::{CleanMarker, LogDir};
pub use wal::{FsyncPolicy, WalConfig, WalHandle, WalStats};
