//! A minimal in-tree JSON writer — the serialization the HTTP service
//! and report surfaces need, and the workspace's only text format
//! (`spotlight_persist::codec` is the binary one for disk).
//!
//! The writer is string-building only (no reader): escaped keys and
//! strings, `u64`/`i64`/`f64`/bool/null scalars (non-finite floats
//! serialize as `null` — JSON has no `NaN`), and closure-scoped nested
//! objects and arrays. [`ToJson`] is implemented here for the
//! report types responses and `spotlightd`'s reports are built from
//! ([`AvailabilityStats`], [`Freshness`], [`DurabilityStats`],
//! [`RecoveryInfo`]); `crates/serve` composes them into response bodies
//! with the same builders. [`counters!`] declares a group of counters,
//! their snapshot and its JSON fields from one field list.
//!
//! **Invariant: the writer itself never allocates.** Every scalar goes
//! straight into the caller's `&mut String`, so a body encoded into a
//! buffer that already has the capacity (the serving tier's
//! per-connection scratch, see `spotlight_serve::router`) costs no heap
//! traffic — and in as few appends as its shape allows, an append being
//! a capacity check and a copy however short:
//!
//! * a key whose name is known where it is written is a [`key!`]
//!   literal, `,"probes":` composed at compile time and pushed whole
//!   (minus the comma on an object's first field); a `&str` key is for
//!   names only known at run time, and is escaped like any string;
//! * an integer goes out two digits at a time as slices of one static
//!   `"00".."99"` table — already `str`s, so there is no digit buffer
//!   to validate or push byte by byte;
//! * a string is one escape scan and a single `push_str` when nothing
//!   needs escaping; floats go through `fmt::Write` (`Display`'s
//!   shortest round-trip digits, ~110 ns each: the largest term left
//!   in a point answer), whole ones through the integer path.
//!
//! The bytes are identical to PR 12's encoder (`format!`/`to_string`
//! based), pinned by a proptest against a copy of it in
//! `tests/serve_bytes.rs` and by `tests/serve_golden.rs`.

use crate::durable::{DurabilityMode, DurabilityStats, RecoveryInfo};
use crate::query::{AvailabilityStats, Freshness};
use std::fmt::Write;

/// Bytes a JSON string literal cannot carry verbatim.
const fn needs_escape(b: u8) -> bool {
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
/// Inlined, with the escaping loop out of line: for a literal the scan
/// folds away at compile time and the copy becomes a few stores.
#[inline]
fn write_str_parts(out: &mut String, parts: &[&str]) {
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

/// `"00"`, `"01"`, … `"99"`: a slice of it is already a `str`, so an
/// integer goes out two digits at a time with nothing to validate.
const PAIRS: &str = "0001020304050607080910111213141516171819\
                     2021222324252627282930313233343536373839\
                     4041424344454647484950515253545556575859\
                     6061626364656667686970717273747576777879\
                     8081828384858687888990919293949596979899";

/// Hands `emit` the decimal digits of `v`, most significant first, two
/// at a time (the first time one, when their number is odd).
#[inline]
fn digit_pairs(mut v: u64, mut emit: impl FnMut(&'static str)) {
    // `u64::MAX` has 20 digits: a leading pair and nine more.
    let mut low = [0usize; 9];
    let mut n = 0;
    while v >= 100 {
        low[n] = 2 * (v % 100) as usize;
        v /= 100;
        n += 1;
    }
    let lead = 2 * v as usize;
    emit(&PAIRS[lead + usize::from(v < 10)..lead + 2]);
    for &at in low[..n].iter().rev() {
        emit(&PAIRS[at..at + 2]);
    }
}

/// The ASCII digits of `v` in decimal, written into the caller's stack
/// buffer — the allocation-free `to_string` for byte sinks (the
/// response head).
pub fn decimal(v: u64, digits: &mut [u8; 20]) -> &[u8] {
    let mut len = 0;
    digit_pairs(v, |pair| {
        digits[len..len + pair.len()].copy_from_slice(pair.as_bytes());
        len += pair.len();
    });
    &digits[..len]
}

fn write_u64(out: &mut String, v: u64) {
    digit_pairs(v, |pair| out.push_str(pair));
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

/// An object key: a `&str`, escaped as it is written, or — for a name
/// known where it is written — a [`key!`] literal, which is one append.
pub trait Key {
    /// Appends `"name":` to `out`, after a comma unless `first`.
    fn write(self, out: &mut String, first: bool);
}

impl Key for &str {
    #[inline]
    fn write(self, out: &mut String, first: bool) {
        if !first {
            out.push(',');
        }
        write_str(out, self);
        out.push(':');
    }
}

/// A key composed at compile time, comma, quotes and colon included
/// (`,"probes":`); made by [`key!`].
#[derive(Debug, Clone, Copy)]
pub struct Lit(&'static str);

impl Lit {
    /// [`key!`]'s constructor: `text` is `,"name":`, and a name that
    /// would need escaping fails the build.
    #[doc(hidden)]
    pub const fn composed(text: &'static str) -> Lit {
        let mut i = 2;
        while i + 2 < text.len() {
            assert!(
                !needs_escape(text.as_bytes()[i]),
                "key!: the name needs escaping"
            );
            i += 1;
        }
        Lit(text)
    }
}

impl Key for Lit {
    #[inline]
    fn write(self, out: &mut String, first: bool) {
        out.push_str(if first { &self.0[1..] } else { self.0 });
    }
}

/// The object key `$name` (a literal, or `stringify!(field)`) as a [`Lit`](crate::json::Lit).
#[macro_export]
macro_rules! key {
    ($($name:tt)+) => {{
        const KEY: $crate::json::Lit = $crate::json::Lit::composed(concat!(",\"", $($name)+, "\":"));
        KEY
    }};
}
pub use crate::key;

/// Declares a group of `u64` counters from one field list: the struct
/// of `AtomicU64`s (`Default`: all zero), its `Copy` snapshot (named
/// after the `/`), `snapshot()`, and the snapshot's `write_fields` into
/// an [`Object`], keys in list order. They are counts, not
/// synchronization: bump, set and load them with relaxed atomics.
#[macro_export]
macro_rules! counters {
    ($(#[$doc:meta])* $vis:vis struct $name:ident / $snapshot:ident {
        $($(#[$field_doc:meta])* $field:ident),* $(,)?
    }) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        $vis struct $name { $($(#[$field_doc])* pub $field: ::std::sync::atomic::AtomicU64,)* }

        #[doc = concat!("A point-in-time copy of [`", stringify!($name), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snapshot { $($(#[$field_doc])* pub $field: u64,)* }

        impl $name {
            /// Copies every counter.
            pub fn snapshot(&self) -> $snapshot {
                let relaxed = ::std::sync::atomic::Ordering::Relaxed;
                $snapshot { $($field: self.$field.load(relaxed),)* }
            }
        }

        impl $snapshot {
            /// Appends every counter to `o`, in declaration order.
            #[allow(dead_code)] // a group read field by field never calls it
            pub fn write_fields(&self, o: &mut $crate::json::Object<'_>) {
                $(o.u64($crate::key!(stringify!($field)), self.$field);)*
            }
        }
    };
}
pub use crate::counters;

/// An in-progress JSON object; each method appends one key/value pair.
#[derive(Debug)]
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    #[inline]
    fn key(&mut self, key: impl Key) -> &mut String {
        key.write(self.out, self.first);
        self.first = false;
        self.out
    }

    /// Appends an unsigned integer field.
    #[inline]
    pub fn u64(&mut self, key: impl Key, v: u64) {
        let out = self.key(key);
        write_u64(out, v);
    }

    /// Appends a signed integer field.
    #[inline]
    pub fn i64(&mut self, key: impl Key, v: i64) {
        let out = self.key(key);
        write_i64(out, v);
    }

    /// Appends a float field (`null` when non-finite).
    #[inline]
    pub fn f64(&mut self, key: impl Key, v: f64) {
        let out = self.key(key);
        write_f64(out, v);
    }

    /// Appends a boolean field.
    #[inline]
    pub fn bool(&mut self, key: impl Key, v: bool) {
        let out = self.key(key);
        out.push_str(if v { "true" } else { "false" });
    }

    /// Appends a string field.
    #[inline]
    pub fn str(&mut self, key: impl Key, v: &str) {
        let out = self.key(key);
        write_str(out, v);
    }

    /// Appends a string field whose value is the concatenation of
    /// `parts` (see `write_str_parts`).
    #[inline]
    pub fn str_parts(&mut self, key: impl Key, parts: &[&str]) {
        let out = self.key(key);
        write_str_parts(out, parts);
    }

    /// Appends an explicit `null` field.
    #[inline]
    pub fn null(&mut self, key: impl Key) {
        let out = self.key(key);
        out.push_str("null");
    }

    /// Appends an integer-or-`null` field.
    #[inline]
    pub fn opt_u64(&mut self, key: impl Key, v: Option<u64>) {
        match v {
            Some(v) => self.u64(key, v),
            None => self.null(key),
        }
    }

    /// Appends a string-or-`null` field.
    #[inline]
    pub fn opt_str(&mut self, key: impl Key, v: Option<&str>) {
        match v {
            Some(v) => self.str(key, v),
            None => self.null(key),
        }
    }

    /// Appends a nested object field.
    #[inline]
    pub fn object(&mut self, key: impl Key, f: impl FnOnce(&mut Object<'_>)) {
        let out = self.key(key);
        object(out, f);
    }

    /// Appends a nested array field.
    #[inline]
    pub fn array(&mut self, key: impl Key, f: impl FnOnce(&mut Array<'_>)) {
        let out = self.key(key);
        array(out, f);
    }

    /// Appends a field whose value is `v`'s [`ToJson`] serialization.
    #[inline]
    pub fn value(&mut self, key: impl Key, v: &impl ToJson) {
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
    /// (see `write_str_parts`).
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
            o.u64(key!("probes"), self.probes);
            o.u64(key!("rejections"), self.rejections);
            o.f64(key!("unavailable_fraction"), self.unavailable_fraction);
            o.f64(key!("availability"), self.availability());
            o.u64(key!("intervals"), self.intervals);
        });
    }
}

impl ToJson for Freshness {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.opt_u64(
                key!("last_informative_secs"),
                self.last_informative.map(|t| t.as_secs()),
            );
            o.opt_u64(key!("age_secs"), self.age.map(|a| a.as_secs()));
            o.bool(key!("region_degraded"), self.region_degraded);
            o.opt_u64(
                key!("durability_lost_secs"),
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
            o.u64(key!("appended_ops"), self.appended_ops);
            o.u64(key!("appended_bytes"), self.appended_bytes);
            o.u64(key!("fsyncs"), self.fsyncs);
            o.u64(key!("checkpoints"), self.checkpoints);
            o.u64(key!("io_errors"), self.io_errors);
            o.opt_str(key!("last_error"), self.last_error.as_deref());
            o.u64(key!("ops_dropped"), self.ops_dropped);
            o.u64(key!("dropped_frames"), self.dropped_frames);
            o.u64(key!("degraded_transitions"), self.degraded_transitions);
            o.u64(key!("heals"), self.heals);
        });
    }
}

impl ToJson for RecoveryInfo {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.u64(key!("replayed_ops"), self.replayed_ops);
            o.bool(key!("from_clean_shutdown"), self.from_clean_shutdown);
            o.bool(key!("checkpoint_loaded"), self.checkpoint_loaded);
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
        // The mode and the watermark are the status document's, once.
        let durability = DurabilityStats::default().to_json();
        assert!(durability.contains("\"ops_dropped\":0"), "{durability}");
        assert!(!durability.contains("mode") && !durability.contains("lost"));
    }

    crate::counters! {
        /// A group declared out of alphabetical order.
        struct Three / ThreeSnapshot {
            /// Declared first.
            zeta,
            /// Declared second.
            alpha,
            /// Declared third.
            mid,
        }
    }

    #[test]
    fn counters_snapshot_and_serialize_in_declaration_order() {
        use std::sync::atomic::Ordering::Relaxed;
        let three = Three::default();
        let zeros = ThreeSnapshot {
            zeta: 0,
            alpha: 0,
            mid: 0,
        };
        assert_eq!(three.snapshot(), zeros);
        assert_eq!(ThreeSnapshot::default(), zeros);
        three.zeta.fetch_add(3, Relaxed);
        three.alpha.store(u64::MAX, Relaxed);
        three.mid.fetch_add(1, Relaxed);
        let snapshot = three.snapshot();
        let want = ThreeSnapshot {
            zeta: 3,
            alpha: u64::MAX,
            mid: 1,
        };
        assert_eq!(snapshot, want);
        let mut out = String::new();
        object(&mut out, |o| snapshot.write_fields(o));
        assert_eq!(out, "{\"zeta\":3,\"alpha\":18446744073709551615,\"mid\":1}");
        let mut out = String::new();
        object(&mut out, |o| {
            o.bool("before", true);
            snapshot.write_fields(o);
        });
        assert_eq!(
            out,
            "{\"before\":true,\"zeta\":3,\"alpha\":18446744073709551615,\"mid\":1}"
        );
    }
}
