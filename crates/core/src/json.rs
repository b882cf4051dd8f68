//! A minimal in-tree JSON writer — the serialization the HTTP service
//! and report surfaces need, and the workspace's only text format
//! (`spotlight_persist::codec` is the binary one for disk).
//!
//! The writer is string-building only (no reader): escaped keys and
//! strings, `u64`/`i64`/`f64`/bool/null scalars (non-finite floats
//! serialize as `null` — JSON has no `NaN`), and closure-scoped nested
//! objects and arrays. [`ToJson`] is implemented here for the
//! report types responses are built from ([`AvailabilityStats`],
//! [`Freshness`], [`DurabilityStats`], [`RecoveryInfo`],
//! [`RegionHealth`], [`LiveReport`]); `crates/serve` composes them
//! into response bodies with the same builders.
//!
//! **Invariant: the writer itself never allocates.** Every scalar goes
//! straight into the caller's `&mut String` — integers through a stack
//! digit buffer, floats through `fmt::Write`, strings by one escape
//! scan and a single `push_str` when nothing needs escaping — so a
//! body encoded into a buffer that already has the capacity (the
//! serving tier's per-connection scratch, see `spotlight_serve::router`)
//! costs no heap traffic. The bytes are identical to PR 12's encoder
//! (`format!`/`to_string` based), pinned by a proptest against a copy
//! of it in `tests/serve_bytes.rs`.

use crate::durable::{DurabilityMode, DurabilityStats, RecoveryInfo};
use crate::manager::LiveReport;
use crate::query::{AvailabilityStats, Freshness};
use crate::store::RegionHealth;
use std::fmt::Write;

/// Bytes a JSON string literal cannot carry verbatim.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
#[inline]
pub fn write_str(out: &mut String, s: &str) {
    write_str_parts(out, &[s]);
}

/// Appends the concatenation of `parts` to `out` as one JSON string
/// literal — for values assembled from static pieces (a market id is
/// region + zone letter + type + platform) without an intermediate
/// `String`.
///
/// Inlined, with the escaping loop out of line: for the literal keys
/// every call site passes, the scan folds away at compile time and the
/// copy becomes a few stores.
#[inline]
pub fn write_str_parts(out: &mut String, parts: &[&str]) {
    out.push('"');
    for s in parts {
        // Branch-free so the scan vectorizes (and constant-folds).
        let clean = !s.bytes().fold(false, |dirty, b| dirty | needs_escape(b));
        if clean {
            out.push_str(s);
        } else {
            write_escaped(out, s);
        }
    }
    out.push('"');
}

#[cold]
#[inline(never)]
fn write_escaped(out: &mut String, s: &str) {
    // Every escaped byte is ASCII, so `run..i` always splits `s` on
    // char boundaries.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&s[run..]);
}

/// The ASCII digits of `v` in decimal, written into the caller's stack
/// buffer (`u64::MAX` has 20 digits) — the allocation-free `to_string`.
pub fn decimal(mut v: u64, digits: &mut [u8; 20]) -> &[u8] {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &digits[at..]
}

fn write_u64(out: &mut String, v: u64) {
    // Digit by digit: cheaper than validating the buffer as UTF-8.
    for &digit in decimal(v, &mut [0; 20]) {
        out.push(digit as char);
    }
}

fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        // Whole numbers (the common `0.0` / `1.0` availability
        // readings) skip the shortest-digits search: `Display` would
        // print exactly these digits, sign of `-0.0` included.
        if v.is_sign_negative() {
            out.push('-');
        }
        write_u64(out, v.abs() as u64);
        out.push_str(".0");
    } else {
        // `Display` for finite floats is shortest round-trip and always
        // a valid JSON number (no exponent-less `inf`/`NaN` forms).
        let start = out.len();
        write!(out, "{v}").expect("writing to a String cannot fail");
        if !out.as_bytes()[start..]
            .iter()
            .any(|b| matches!(b, b'.' | b'e' | b'E'))
        {
            out.push_str(".0");
        }
    }
}

/// Writes one JSON object into `out` via the closure.
#[inline]
pub fn object(out: &mut String, f: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    let mut obj = Object { out, first: true };
    f(&mut obj);
    out.push('}');
}

/// Writes one JSON array into `out` via the closure.
#[inline]
pub fn array(out: &mut String, f: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    let mut arr = Array { out, first: true };
    f(&mut arr);
    out.push(']');
}

/// An in-progress JSON object; each method appends one key/value pair.
#[derive(Debug)]
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    #[inline]
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Appends an unsigned integer field.
    #[inline]
    pub fn u64(&mut self, key: &str, v: u64) {
        let out = self.key(key);
        write_u64(out, v);
    }

    /// Appends a signed integer field.
    #[inline]
    pub fn i64(&mut self, key: &str, v: i64) {
        let out = self.key(key);
        write_i64(out, v);
    }

    /// Appends a float field (`null` when non-finite).
    #[inline]
    pub fn f64(&mut self, key: &str, v: f64) {
        let out = self.key(key);
        write_f64(out, v);
    }

    /// Appends a boolean field.
    #[inline]
    pub fn bool(&mut self, key: &str, v: bool) {
        let out = self.key(key);
        out.push_str(if v { "true" } else { "false" });
    }

    /// Appends a string field.
    #[inline]
    pub fn str(&mut self, key: &str, v: &str) {
        let out = self.key(key);
        write_str(out, v);
    }

    /// Appends a string field whose value is the concatenation of
    /// `parts` (see [`write_str_parts`]).
    #[inline]
    pub fn str_parts(&mut self, key: &str, parts: &[&str]) {
        let out = self.key(key);
        write_str_parts(out, parts);
    }

    /// Appends an explicit `null` field.
    #[inline]
    pub fn null(&mut self, key: &str) {
        let out = self.key(key);
        out.push_str("null");
    }

    /// Appends an integer-or-`null` field.
    #[inline]
    pub fn opt_u64(&mut self, key: &str, v: Option<u64>) {
        match v {
            Some(v) => self.u64(key, v),
            None => self.null(key),
        }
    }

    /// Appends a string-or-`null` field.
    #[inline]
    pub fn opt_str(&mut self, key: &str, v: Option<&str>) {
        match v {
            Some(v) => self.str(key, v),
            None => self.null(key),
        }
    }

    /// Appends a nested object field.
    #[inline]
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Object<'_>)) {
        let out = self.key(key);
        object(out, f);
    }

    /// Appends a nested array field.
    #[inline]
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut Array<'_>)) {
        let out = self.key(key);
        array(out, f);
    }

    /// Appends a field whose value is `v`'s [`ToJson`] serialization.
    #[inline]
    pub fn value(&mut self, key: &str, v: &impl ToJson) {
        let out = self.key(key);
        v.write_json(out);
    }
}

/// An in-progress JSON array; each method appends one element.
#[derive(Debug)]
pub struct Array<'a> {
    out: &'a mut String,
    first: bool,
}

impl Array<'_> {
    #[inline]
    fn elem(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// Appends an unsigned integer element.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        let out = self.elem();
        write_u64(out, v);
    }

    /// Appends a float element (`null` when non-finite).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        let out = self.elem();
        write_f64(out, v);
    }

    /// Appends a string element.
    #[inline]
    pub fn str(&mut self, v: &str) {
        let out = self.elem();
        write_str(out, v);
    }

    /// Appends a string element that is the concatenation of `parts`
    /// (see [`write_str_parts`]).
    #[inline]
    pub fn str_parts(&mut self, parts: &[&str]) {
        let out = self.elem();
        write_str_parts(out, parts);
    }

    /// Appends an object element.
    #[inline]
    pub fn object(&mut self, f: impl FnOnce(&mut Object<'_>)) {
        let out = self.elem();
        object(out, f);
    }

    /// Appends an element from `v`'s [`ToJson`] serialization.
    #[inline]
    pub fn value(&mut self, v: &impl ToJson) {
        let out = self.elem();
        v.write_json(out);
    }
}

/// Types that know their own JSON form.
pub trait ToJson {
    /// Appends the value's JSON form to `out`.
    fn write_json(&self, out: &mut String);

    /// The value's JSON form as a fresh string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl ToJson for AvailabilityStats {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.u64("probes", self.probes);
            o.u64("rejections", self.rejections);
            o.f64("unavailable_fraction", self.unavailable_fraction);
            o.f64("availability", self.availability());
            o.u64("intervals", self.intervals);
        });
    }
}

impl ToJson for Freshness {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.opt_u64(
                "last_informative_secs",
                self.last_informative.map(|t| t.as_secs()),
            );
            o.opt_u64("age_secs", self.age.map(|a| a.as_secs()));
            o.bool("region_degraded", self.region_degraded);
            o.opt_u64(
                "durability_lost_secs",
                self.durability_lost.map(|t| t.as_secs()),
            );
        });
    }
}

impl ToJson for DurabilityMode {
    fn write_json(&self, out: &mut String) {
        write_str(
            out,
            match self {
                DurabilityMode::Durable => "durable",
                DurabilityMode::Degraded => "degraded",
            },
        );
    }
}

impl ToJson for DurabilityStats {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.u64("appended_ops", self.appended_ops);
            o.u64("appended_bytes", self.appended_bytes);
            o.u64("fsyncs", self.fsyncs);
            o.u64("checkpoints", self.checkpoints);
            o.u64("spilled_records", self.spilled_records);
            o.u64("io_errors", self.io_errors);
            o.opt_str("last_error", self.last_error.as_deref());
            o.value("mode", &self.mode);
            o.opt_u64(
                "durability_lost_secs",
                self.durability_lost.map(|t| t.as_secs()),
            );
            o.u64("ops_dropped", self.ops_dropped);
            o.u64("dropped_frames", self.dropped_frames);
            o.u64("degraded_transitions", self.degraded_transitions);
            o.u64("heals", self.heals);
        });
    }
}

impl ToJson for RecoveryInfo {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.u64("replayed_ops", self.replayed_ops);
            o.bool("from_clean_shutdown", self.from_clean_shutdown);
            o.bool("checkpoint_loaded", self.checkpoint_loaded);
        });
    }
}

impl ToJson for RegionHealth {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.bool("degraded", self.degraded);
            o.u64("since_secs", self.since.as_secs());
            o.u64("degraded_secs", self.degraded_secs);
            o.u64("trips", self.trips);
        });
    }
}

impl ToJson for LiveReport {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.u64("probes", self.probes as u64);
            o.object("per_region_probes", |o| {
                for (region, n) in &self.per_region_probes {
                    o.u64(region.name(), *n as u64);
                }
            });
            o.u64("ticks", self.ticks);
            o.u64("retries_issued", self.retries_issued);
            o.u64("probes_abandoned", self.probes_abandoned);
            o.u64("breaker_trips", self.breaker_trips);
            o.object("degraded_secs", |o| {
                for (region, secs) in &self.degraded_secs {
                    o.u64(region.name(), *secs);
                }
            });
            o.u64("durable_ops", self.durable_ops);
            o.u64("durable_bytes", self.durable_bytes);
            o.u64("durable_fsyncs", self.durable_fsyncs);
            o.u64("worker_panics", self.worker_panics);
            o.u64("durable_io_errors", self.durable_io_errors);
            o.u64("durable_ops_dropped", self.durable_ops_dropped);
            o.opt_u64(
                "durability_lost_secs",
                self.durability_lost.map(|t| t.as_secs()),
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_sim::time::{SimDuration, SimTime};

    #[test]
    fn scalars_and_nesting_compose() {
        let mut out = String::new();
        object(&mut out, |o| {
            o.u64("n", 3);
            o.str("s", "a\"b\\c\nd\u{1}");
            o.f64("whole", 2.0);
            o.f64("frac", 0.25);
            o.f64("nan", f64::NAN);
            o.bool("ok", true);
            o.null("nothing");
            o.array("xs", |a| {
                a.u64(1);
                a.str("two");
                a.object(|o| o.bool("three", false));
            });
        });
        assert_eq!(
            out,
            "{\"n\":3,\"s\":\"a\\\"b\\\\c\\nd\\u0001\",\"whole\":2.0,\
             \"frac\":0.25,\"nan\":null,\"ok\":true,\"nothing\":null,\
             \"xs\":[1,\"two\",{\"three\":false}]}"
        );
    }

    #[test]
    fn report_types_serialize() {
        let stats = AvailabilityStats {
            probes: 10,
            rejections: 2,
            unavailable_fraction: 0.125,
            intervals: 1,
        };
        let json = stats.to_json();
        assert!(json.contains("\"availability\":0.875"));
        assert!(json.contains("\"probes\":10"));

        let fresh = Freshness {
            last_informative: Some(SimTime::from_secs(600)),
            age: Some(SimDuration::from_secs(30)),
            region_degraded: false,
            durability_lost: None,
        };
        assert_eq!(
            fresh.to_json(),
            "{\"last_informative_secs\":600,\"age_secs\":30,\
             \"region_degraded\":false,\"durability_lost_secs\":null}"
        );

        assert_eq!(DurabilityMode::Degraded.to_json(), "\"degraded\"");
        let recovery = RecoveryInfo {
            replayed_ops: 0,
            from_clean_shutdown: true,
            checkpoint_loaded: true,
        };
        assert!(recovery.to_json().contains("\"replayed_ops\":0"));
        assert!(DurabilityStats::default()
            .to_json()
            .contains("\"mode\":\"durable\""));
        assert!(LiveReport::default().to_json().contains("\"probes\":0"));
    }
}
