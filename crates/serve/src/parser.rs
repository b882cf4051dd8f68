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

/// Finds the end of the head: the byte index one past the blank line.
/// Tolerates bare-LF line endings alongside CRLF.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            let rest = &buf[i + 1..];
            if rest.first() == Some(&b'\n') {
                return Some(i + 2);
            }
            if rest.len() >= 2 && rest[0] == b'\r' && rest[1] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
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

fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Attempts to parse one request from the front of `buf`.
pub fn parse<'b>(buf: &'b [u8], limits: &Limits) -> Parsed<'b> {
    let Some(head_len) = head_end(buf) else {
        // No full head yet: check the caps against what has arrived so
        // a trickler cannot buffer unboundedly.
        if !buf.contains(&b'\n') && buf.len() > limits.max_request_line {
            return Parsed::Reject(Reject::UriTooLong);
        }
        if buf.len() > limits.max_header_bytes {
            return Parsed::Reject(Reject::HeadersTooLarge);
        }
        return Parsed::Partial;
    };
    if head_len > limits.max_header_bytes {
        return Parsed::Reject(Reject::HeadersTooLarge);
    }
    let Ok(head) = std::str::from_utf8(&buf[..head_len]) else {
        return Parsed::Reject(Reject::BadRequest("head is not valid UTF-8"));
    };

    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > limits.max_request_line {
        return Parsed::Reject(Reject::UriTooLong);
    }
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Parsed::Reject(Reject::BadRequest("malformed request line"));
    };

    let method = match method {
        "GET" => Method::Get,
        "HEAD" => Method::Head,
        "POST" | "PUT" | "DELETE" | "PATCH" | "OPTIONS" | "TRACE" | "CONNECT" => {
            return Parsed::Reject(Reject::MethodNotAllowed)
        }
        m if is_token(m) => return Parsed::Reject(Reject::NotImplemented("unknown method")),
        _ => return Parsed::Reject(Reject::BadRequest("malformed method")),
    };

    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => return Parsed::Reject(Reject::VersionNotSupported),
        _ => return Parsed::Reject(Reject::BadRequest("malformed version")),
    };

    if !target.starts_with('/')
        || target
            .bytes()
            .any(|b| b.is_ascii_control() || b == b' ' || b >= 0x7f)
    {
        return Parsed::Reject(Reject::BadRequest("malformed request target"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut keep_alive = http11;
    let mut content_length: Option<usize> = None;
    let mut headers = 0usize;
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator (and the split's tail)
        }
        headers += 1;
        if headers > limits.max_headers {
            return Parsed::Reject(Reject::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Reject(Reject::BadRequest("header without colon"));
        };
        if !is_token(name) {
            // Also rejects obs-fold continuations (leading whitespace).
            return Parsed::Reject(Reject::BadRequest("malformed header name"));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Some(n) = parse_digits(value).and_then(|n| usize::try_from(n).ok()) else {
                return Parsed::Reject(Reject::BadRequest("malformed content-length"));
            };
            if content_length.is_some_and(|prev| prev != n) {
                return Parsed::Reject(Reject::BadRequest("conflicting content-length"));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Parsed::Reject(Reject::NotImplemented("transfer-encoding"));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    let content_length = content_length.unwrap_or(0);
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
            keep_alive,
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
