//! Incremental HTTP/1.1 request-head parser with hard size caps.
//!
//! The parser is the first line of defense against malformed and
//! hostile input, so its contract is strict and total:
//!
//! * It never panics, whatever bytes arrive (property-tested in
//!   `tests/http_service.rs`).
//! * It never allocates: requests borrow from the connection buffer.
//! * Every cap — request-line length, total head bytes, header count,
//!   declared body length — maps to a definite [`Reject`] the server
//!   answers with the matching 4xx/5xx and a closed connection, so an
//!   attacker cannot make a worker buffer unboundedly
//!   ([`Limits::max_header_bytes`]) or trickle a head forever (the
//!   server's header deadline rides on top of [`Parsed::Partial`]).
//!
//! Only `GET` and `HEAD` are served (the API is read-only): other
//! known methods get `405`, unknown tokens `501`, `Transfer-Encoding`
//! `501`, and non-HTTP/1.x versions `505`.
//!
//! **One walk.** [`parse`] reads each byte of a head once, through a
//! 256-entry table of *classes* — space, `\n`, `?`, `:` (where the
//! walk stops to cut a piece, a line, the query, a header name) and
//! "not a token byte", "not a target byte", "≥ 0x80" (which it only
//! accumulates, per piece and over the whole head). What a line said
//! is decided from those unions, not by scanning it again; header
//! values are trimmed and read only under the three names the server
//! acts on. A refusal found on the way is held back until the blank
//! line is in, because an unfinished head is `Partial` (or over a cap)
//! whatever it holds, and is then reported in a fixed precedence: byte
//! cap, UTF-8, line cap, request line, method, version, target, first
//! bad header, body cap. UTF-8 is validated only if a byte ≥ 0x80 was
//! seen — an all-ASCII head is valid by construction — and the one
//! `from_utf8` a good request pays is over its target, which is what
//! turns checked bytes into the `&str` path and query without
//! `unsafe`. The five-pass parser this replaced lives on as the
//! reference of `tests/parser_equivalence.rs`, which holds the two
//! equal on mutated, truncated, spliced and pipelined heads under caps
//! at, under and over each length.

/// Hard caps the parser enforces before any routing happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted request line (method + target + version).
    pub max_request_line: usize,
    /// Most bytes a whole head (request line + headers) may occupy.
    pub max_header_bytes: usize,
    /// Most header fields accepted.
    pub max_headers: usize,
    /// Largest accepted `Content-Length` (bodies are read and
    /// discarded — the API takes no request bodies).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 2048,
            max_header_bytes: 8192,
            max_headers: 64,
            max_body: 16 * 1024,
        }
    }
}

/// The request methods the read-only API serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `HEAD` (same routing, body suppressed).
    Head,
}

/// One parsed request head, borrowing from the connection buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'b> {
    /// The (allowed) method.
    pub method: Method,
    /// Request path, without the query string.
    pub path: &'b str,
    /// Raw query string (`""` when absent).
    pub query: &'b str,
    /// Whether the request was HTTP/1.1 (vs 1.0).
    pub http11: bool,
    /// Whether the connection should be kept open after responding
    /// (version default adjusted by any `Connection` header).
    pub keep_alive: bool,
    /// Declared body length (validated against [`Limits::max_body`]).
    pub content_length: usize,
}

/// Why a request (or byte stream) was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// `400` — grammar violations, bad escapes, conflicting lengths.
    BadRequest(&'static str),
    /// `405` — a known method the read-only API does not serve.
    MethodNotAllowed,
    /// `408` — a deadline expired before a full head arrived (issued
    /// by the server's clock, not the parser).
    Timeout,
    /// `413` — declared body over [`Limits::max_body`].
    BodyTooLarge,
    /// `414` — request line over [`Limits::max_request_line`].
    UriTooLong,
    /// `431` — head over [`Limits::max_header_bytes`] or more than
    /// [`Limits::max_headers`] fields.
    HeadersTooLarge,
    /// `501` — an unrecognized method token or `Transfer-Encoding`.
    NotImplemented(&'static str),
    /// `505` — not HTTP/1.0 or HTTP/1.1.
    VersionNotSupported,
}

impl Reject {
    /// The response status code.
    pub fn status(self) -> u16 {
        match self {
            Reject::BadRequest(_) => 400,
            Reject::MethodNotAllowed => 405,
            Reject::Timeout => 408,
            Reject::BodyTooLarge => 413,
            Reject::UriTooLong => 414,
            Reject::HeadersTooLarge => 431,
            Reject::NotImplemented(_) => 501,
            Reject::VersionNotSupported => 505,
        }
    }

    /// A short machine-readable detail for the error body.
    pub fn detail(self) -> &'static str {
        match self {
            Reject::BadRequest(d) => d,
            Reject::MethodNotAllowed => "only GET and HEAD are served",
            Reject::Timeout => "request head did not arrive in time",
            Reject::BodyTooLarge => "declared body exceeds the cap",
            Reject::UriTooLong => "request line exceeds the cap",
            Reject::HeadersTooLarge => "headers exceed the cap",
            Reject::NotImplemented(d) => d,
            Reject::VersionNotSupported => "only HTTP/1.0 and HTTP/1.1",
        }
    }
}

/// Outcome of one parse attempt over the buffered bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parsed<'b> {
    /// A whole request (head + declared body) is buffered; `consumed`
    /// bytes belong to it.
    Complete {
        /// The parsed head.
        request: Request<'b>,
        /// Total bytes (head + body) this request occupies in the
        /// buffer.
        consumed: usize,
    },
    /// More bytes are needed (and no cap is violated yet).
    Partial,
    /// The stream is unsalvageable; answer and close.
    Reject(Reject),
}

/// Parses `1*DIGIT` — RFC 9110's grammar for `Content-Length`, and
/// what the API means by "a non-negative integer": ASCII digits only.
/// `str::parse` alone also takes a leading `+`, and a length two
/// parsers read differently is how a request gets smuggled past a
/// front end. `None` for anything else, overflow included.
pub(crate) fn parse_digits(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

// Byte classes (see the module docs); a byte may carry several.
const SP: u8 = 1;
const LF: u8 = 1 << 1;
const QUERY: u8 = 1 << 2;
const COLON: u8 = 1 << 3;
/// Not an RFC 9110 `tchar`: may not appear in a method or header name.
const NOT_TOKEN: u8 = 1 << 4;
/// ASCII control, space, DEL or non-ASCII: may not appear in a target.
const NOT_TARGET: u8 = 1 << 5;
const HIGH: u8 = 1 << 6;

static CLASS: [u8; 256] = {
    const fn bit(class: u8, when: bool) -> u8 {
        class * when as u8
    }
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        let token = byte.is_ascii_alphanumeric()
            || matches!(byte, b'!' | b'#'..=b'\'' | b'*' | b'+' | b'-' | b'.' | b'^'..=b'`' | b'|' | b'~');
        let target = !(byte.is_ascii_control() || byte == b' ' || byte >= 0x7f);
        table[b] = bit(SP, byte == b' ')
            | bit(LF, byte == b'\n')
            | bit(QUERY, byte == b'?')
            | bit(COLON, byte == b':')
            | bit(NOT_TOKEN, !token)
            | bit(NOT_TARGET, !target)
            | bit(HIGH, byte >= 0x80);
        b += 1;
    }
    table
};

/// Walks `buf` from `from` up to the first byte of a class in `stop`:
/// that byte's index and class, and the union of the classes walked
/// over. `None` when the buffer ends first.
#[inline(always)]
fn walk(buf: &[u8], from: usize, stop: u8) -> Option<(usize, u8, u8)> {
    let mut walked = 0u8;
    for (offset, &byte) in buf[from..].iter().enumerate() {
        let class = CLASS[usize::from(byte)];
        if class & stop != 0 {
            return Some((from + offset, class, walked));
        }
        walked |= class;
    }
    None
}

/// `end`, or one less when the line `[start, end)` ends in a `\r`.
fn strip_cr(buf: &[u8], start: usize, end: usize) -> usize {
    end - usize::from(end > start && buf[end - 1] == b'\r')
}

/// The buffer ended before a blank line did: only the caps can speak.
fn no_head_yet<'b>(buffered: usize, any_line_end: bool, limits: &Limits) -> Parsed<'b> {
    if !any_line_end && buffered > limits.max_request_line {
        Parsed::Reject(Reject::UriTooLong)
    } else if buffered > limits.max_header_bytes {
        Parsed::Reject(Reject::HeadersTooLarge)
    } else {
        Parsed::Partial
    }
}

/// What the header lines walked so far have said.
#[derive(Default)]
struct Headers {
    count: usize,
    content_length: Option<usize>,
    keep_alive: Option<bool>,
}

impl Headers {
    /// Reads one non-blank line: `name` is what precedes its first
    /// colon (`None` without one) with the classes of its bytes,
    /// `value` what follows, untrimmed.
    fn line(
        &mut self,
        name: Option<(&[u8], u8)>,
        value: &[u8],
        limits: &Limits,
    ) -> Result<(), Reject> {
        self.count += 1;
        if self.count > limits.max_headers {
            return Err(Reject::HeadersTooLarge);
        }
        let Some((name, classes)) = name else {
            return Err(Reject::BadRequest("header without colon"));
        };
        if name.is_empty() || classes & NOT_TOKEN != 0 {
            // Also rejects obs-fold continuations (leading whitespace).
            return Err(Reject::BadRequest("malformed header name"));
        }
        // Only these three values are ever looked at, so only they are
        // made a `str` and trimmed (`str::trim` knows the non-ASCII
        // spaces a valid UTF-8 head may carry).
        let trimmed = || {
            std::str::from_utf8(value)
                .map(str::trim)
                .map_err(|_| Reject::BadRequest("head is not valid UTF-8"))
        };
        if name.eq_ignore_ascii_case(b"content-length") {
            let Some(n) = parse_digits(trimmed()?).and_then(|n| usize::try_from(n).ok()) else {
                return Err(Reject::BadRequest("malformed content-length"));
            };
            if self.content_length.is_some_and(|prev| prev != n) {
                return Err(Reject::BadRequest("conflicting content-length"));
            }
            self.content_length = Some(n);
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            return Err(Reject::NotImplemented("transfer-encoding"));
        } else if name.eq_ignore_ascii_case(b"connection") {
            let value = trimmed()?;
            if value.eq_ignore_ascii_case("close") {
                self.keep_alive = Some(false);
            } else if value.eq_ignore_ascii_case("keep-alive") {
                self.keep_alive = Some(true);
            }
        }
        Ok(())
    }
}

/// One space-separated piece of the request line: its span and the
/// union of its bytes' classes.
#[derive(Clone, Copy, Default)]
struct Piece {
    start: usize,
    end: usize,
    classes: u8,
}

/// Attempts to parse one request from the front of `buf`.
pub fn parse<'b>(buf: &'b [u8], limits: &Limits) -> Parsed<'b> {
    // Union of the classes of every byte of the head.
    let mut seen = 0u8;

    // The request line: its non-empty pieces between spaces (the first
    // three are kept, all are counted) and the target's first `?`.
    let mut pieces = [Piece::default(); 3];
    let mut count = 0;
    let mut piece = Piece::default();
    let mut query_at = None;
    let mut i = 0;
    let line_end = loop {
        let Some((at, class, walked)) = walk(buf, i, SP | LF | QUERY) else {
            return no_head_yet(buf.len(), false, limits);
        };
        seen |= walked | class;
        piece.classes |= walked;
        i = at + 1;
        if class & QUERY != 0 {
            piece.classes |= class;
            if count == 1 {
                query_at.get_or_insert(at);
            }
            continue;
        }
        piece.end = if class & LF != 0 {
            strip_cr(buf, piece.start, at)
        } else {
            at
        };
        if piece.end > piece.start {
            if let Some(slot) = pieces.get_mut(count) {
                *slot = piece;
            }
            count += 1;
        }
        piece = Piece {
            start: i,
            end: i,
            classes: 0,
        };
        if class & LF != 0 {
            break at;
        }
    };

    // The header lines, up to the blank one. Their first refusal waits
    // until the whole head is known to be here (and valid UTF-8): the
    // caps and the request line outrank it.
    let mut headers = Headers::default();
    let mut refusal = None;
    let mut line = i;
    let head_len = loop {
        let Some((at, class, name_classes)) = walk(buf, line, COLON | LF) else {
            return no_head_yet(buf.len(), true, limits);
        };
        seen |= name_classes | class;
        let mut end = at;
        if class & COLON != 0 {
            let Some((lf, _, walked)) = walk(buf, at + 1, LF) else {
                return no_head_yet(buf.len(), true, limits);
            };
            seen |= walked;
            end = lf;
        }
        let text_end = strip_cr(buf, line, end);
        if text_end == line {
            break end + 1;
        }
        if refusal.is_none() {
            let name = (class & COLON != 0).then(|| (&buf[line..at], name_classes));
            // Without a colon `at` is the line's end: an empty value.
            let value = &buf[(at + 1).min(text_end)..text_end];
            refusal = headers.line(name, value, limits).err();
        }
        line = end + 1;
    };

    // The whole head is here: refusals in their order of precedence.
    if head_len > limits.max_header_bytes {
        return Parsed::Reject(Reject::HeadersTooLarge);
    }
    if seen & HIGH != 0 && std::str::from_utf8(&buf[..head_len]).is_err() {
        return Parsed::Reject(Reject::BadRequest("head is not valid UTF-8"));
    }
    if strip_cr(buf, 0, line_end) > limits.max_request_line {
        return Parsed::Reject(Reject::UriTooLong);
    }
    if count != 3 {
        return Parsed::Reject(Reject::BadRequest("malformed request line"));
    }
    let [method, target, version] = pieces;

    let method = match &buf[method.start..method.end] {
        b"GET" => Method::Get,
        b"HEAD" => Method::Head,
        b"POST" | b"PUT" | b"DELETE" | b"PATCH" | b"OPTIONS" | b"TRACE" | b"CONNECT" => {
            return Parsed::Reject(Reject::MethodNotAllowed)
        }
        _ if method.classes & NOT_TOKEN == 0 => {
            return Parsed::Reject(Reject::NotImplemented("unknown method"))
        }
        _ => return Parsed::Reject(Reject::BadRequest("malformed method")),
    };

    let http11 = match &buf[version.start..version.end] {
        b"HTTP/1.1" => true,
        b"HTTP/1.0" => false,
        v if v.starts_with(b"HTTP/") => return Parsed::Reject(Reject::VersionNotSupported),
        _ => return Parsed::Reject(Reject::BadRequest("malformed version")),
    };

    // A target free of `NOT_TARGET` bytes is ASCII, so this validation
    // cannot fail; it is what hands out a `str` without `unsafe`.
    let target_str = match std::str::from_utf8(&buf[target.start..target.end]) {
        Ok(t) if t.starts_with('/') && target.classes & NOT_TARGET == 0 => t,
        _ => return Parsed::Reject(Reject::BadRequest("malformed request target")),
    };
    let (path, query) = match query_at {
        Some(at) => (
            &target_str[..at - target.start],
            &target_str[at + 1 - target.start..],
        ),
        None => (target_str, ""),
    };

    if let Some(refusal) = refusal {
        return Parsed::Reject(refusal);
    }
    let content_length = headers.content_length.unwrap_or(0);
    if content_length > limits.max_body {
        return Parsed::Reject(Reject::BodyTooLarge);
    }
    let total = head_len.saturating_add(content_length);
    if buf.len() < total {
        return Parsed::Partial;
    }
    Parsed::Complete {
        request: Request {
            method,
            path,
            query,
            http11,
            keep_alive: headers.keep_alive.unwrap_or(http11),
            content_length,
        },
        consumed: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(input: &[u8]) -> (Request<'_>, usize) {
        match parse(input, &Limits::default()) {
            Parsed::Complete { request, consumed } => (request, consumed),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    fn parse_reject(input: &[u8]) -> Reject {
        match parse(input, &Limits::default()) {
            Parsed::Reject(r) => r,
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn plain_get_parses() {
        let (req, used) = parse_ok(b"GET /v1/availability?market=x HTTP/1.1\r\nHost: a\r\n\r\n");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/v1/availability");
        assert_eq!(req.query, "market=x");
        assert!(req.http11 && req.keep_alive);
        assert_eq!(
            used,
            b"GET /v1/availability?market=x HTTP/1.1\r\nHost: a\r\n\r\n".len()
        );
    }

    #[test]
    fn pipelined_requests_consume_one_at_a_time() {
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (req, used) = parse_ok(two);
        assert_eq!(req.path, "/a");
        let (req2, _) = parse_ok(&two[used..]);
        assert_eq!(req2.path, "/b");
    }

    #[test]
    fn bare_lf_and_http10_defaults() {
        let (req, _) = parse_ok(b"GET / HTTP/1.0\n\n");
        assert!(!req.http11 && !req.keep_alive);
        let (req, _) = parse_ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
        let (req, _) = parse_ok(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
    }

    #[test]
    fn body_rides_behind_the_head() {
        let input = b"GET / HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let (req, used) = parse_ok(input);
        assert_eq!(req.content_length, 4);
        assert_eq!(used, input.len());
        assert_eq!(
            parse(&input[..input.len() - 1], &Limits::default()),
            Parsed::Partial
        );
    }

    #[test]
    fn rejection_matrix() {
        assert_eq!(
            parse_reject(b"POST / HTTP/1.1\r\n\r\n"),
            Reject::MethodNotAllowed
        );
        assert_eq!(
            parse_reject(b"BREW / HTTP/1.1\r\n\r\n"),
            Reject::NotImplemented("unknown method")
        );
        assert_eq!(
            parse_reject(b"GET / HTTP/2\r\n\r\n"),
            Reject::VersionNotSupported
        );
        assert_eq!(
            parse_reject(b"GET / HTTP/0.9\r\n\r\n"),
            Reject::VersionNotSupported
        );
        assert_eq!(parse_reject(b"GET /\r\n\r\n").status(), 400);
        assert_eq!(parse_reject(b"GET x HTTP/1.1\r\n\r\n").status(), 400);
        assert_eq!(
            parse_reject(b"GET / HTTP/1.1\r\nContent-Length: zero\r\n\r\n").status(),
            400
        );
        // `1*DIGIT` and nothing else: no sign, no inner space, no
        // fraction, no hex, no empty value, no overflow.
        for value in [
            "+5",
            "-0",
            "+0",
            "5 5",
            "5.0",
            "0x5",
            "",
            "٥",
            "99999999999999999999",
        ] {
            let request = format!("GET / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcde");
            assert_eq!(
                parse_reject(request.as_bytes()),
                Reject::BadRequest("malformed content-length"),
                "Content-Length: {value:?}"
            );
        }
        assert_eq!(
            parse_reject(b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n")
                .status(),
            400
        );
        assert_eq!(
            parse_reject(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Reject::NotImplemented("transfer-encoding")
        );
        assert_eq!(
            parse_reject(b"GET / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"),
            Reject::BodyTooLarge
        );
    }

    #[test]
    fn digits_only_integers() {
        assert_eq!(parse_digits("0"), Some(0));
        assert_eq!(parse_digits("007"), Some(7));
        assert_eq!(parse_digits("18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_digits("18446744073709551616"), None);
        for bad in ["", "+5", "-5", " 5", "5 ", "5_0", "1e3", "５"] {
            assert_eq!(parse_digits(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn caps_fire_before_the_head_completes() {
        let limits = Limits::default();
        let long_line = vec![b'a'; limits.max_request_line + 1];
        assert_eq!(
            parse(&long_line, &limits),
            Parsed::Reject(Reject::UriTooLong)
        );

        let mut many_headers = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..limits.max_headers + 1 {
            many_headers.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        many_headers.extend_from_slice(b"\r\n");
        assert_eq!(
            parse(&many_headers, &limits),
            Parsed::Reject(Reject::HeadersTooLarge)
        );

        // An endless trickle of header bytes trips the byte cap even
        // with no blank line in sight.
        let mut trickle = b"GET / HTTP/1.1\r\n".to_vec();
        while trickle.len() <= limits.max_header_bytes {
            trickle.extend_from_slice(b"X: yyyyyyyyyyyyyyyy\r\n");
        }
        assert_eq!(
            parse(&trickle, &limits),
            Parsed::Reject(Reject::HeadersTooLarge)
        );
    }

    #[test]
    fn incomplete_heads_are_partial() {
        assert_eq!(parse(b"", &Limits::default()), Parsed::Partial);
        assert_eq!(parse(b"GET / HT", &Limits::default()), Parsed::Partial);
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nHost: a\r\n", &Limits::default()),
            Parsed::Partial
        );
    }
}
