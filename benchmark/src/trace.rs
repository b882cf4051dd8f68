//! In-memory span recorder for the traced pass.
//!
//! The bench wraps its own calls into each layer's public functions in
//! spans `{name, start_ns, end_ns, parent, op}`; spans of one sentinel
//! or one sampled request share an `op` id. Spans stay in memory and
//! are written out once, at exit. A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Parent id of a root span; also what [`begin`] returns while
/// tracing is off.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

// Relaxed: the flag publishes no other data — a span racing a toggle
// is merely recorded or not.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh id tying together the spans of one operation.
pub fn new_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// Opens a span; returns its id for [`end`] and for children.
pub fn begin(name: &'static str, parent: u32, op: u64) -> u32 {
    if !enabled() {
        return ROOT;
    }
    let start_ns = now_ns();
    let mut spans = SPANS.lock().expect("no span holder panics");
    spans.push(Span {
        name,
        start_ns,
        end_ns: start_ns,
        parent,
        op,
    });
    spans.len() as u32
}

pub fn end(id: u32) {
    if id == ROOT {
        return;
    }
    let end_ns = now_ns();
    SPANS.lock().expect("no span holder panics")[id as usize - 1].end_ns = end_ns;
}

/// Runs `f` inside a span; `f` receives the span's id to parent its
/// own children on.
pub fn span<R>(name: &'static str, parent: u32, op: u64, f: impl FnOnce(u32) -> R) -> R {
    let id = begin(name, parent, op);
    let out = f(id);
    end(id);
    out
}

/// Self times (duration minus child spans), in nanoseconds, of every
/// recorded span called `name`.
pub fn self_times_ns(name: &str) -> Vec<f64> {
    let spans = SPANS.lock().expect("no span holder panics");
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans.iter() {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i + 1]) as f64)
        .collect()
}

/// Writes every span as one JSON array of objects.
pub fn write_json(path: &Path) -> std::io::Result<usize> {
    let spans = SPANS.lock().expect("no span holder panics");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}{comma}",
            i + 1,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent,
            s.op
        )?;
    }
    writeln!(out, "]")?;
    out.flush()?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        let op = new_op();
        span("test.parent", ROOT, op, |parent| {
            span("test.child", parent, op, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        set_enabled(false);
        assert_eq!(begin("test.off", ROOT, 0), ROOT);
        let parent = self_times_ns("test.parent");
        let child = self_times_ns("test.child");
        assert_eq!((parent.len(), child.len()), (1, 1));
        assert!(child[0] >= 5e6);
        assert!(parent[0] < child[0]);
        assert!(self_times_ns("test.off").is_empty());
    }
}
