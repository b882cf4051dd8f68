//! The one-pass request parser against the five-pass one it replaced,
//! on every byte string we can think of: `parse(b, l) == legacy::parse(b, l)`
//! — the same `Complete` (path, query, flags, bytes consumed), the same
//! `Partial`, the same refusal with the same detail — for the hostile
//! matrix's requests, real heads, and those heads byte-mutated,
//! truncated, spliced, CR-LF-mangled and pipelined, under the default
//! caps and under caps at, one under and one over each length.

use proptest::prelude::*;
use spotlight_serve::parser::{parse, Limits, Parsed};

/// PR 23's `parser::parse`, verbatim (its private helpers included):
/// `head_end`, `from_utf8`, `split('\n')`, `split(' ')`, a target scan
/// and `split_once`, one after the other.
mod legacy {
    use spotlight_serve::parser::{Limits, Method, Parsed, Reject, Request};

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
    fn parse_digits(s: &str) -> Option<u64> {
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
}

// ------------------------------------------------------------------ seeds

/// Requests the differential walks start from: what well-behaved
/// clients send, the hostile matrix of the retired HTTP smoke harness
/// (now `tests/http_service.rs`), the unit tests'
/// rejection matrix, and heads built to sit on the parser's own edges
/// (which `\r` is stripped, what `trim` trims, what ends a head).
fn seeds() -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = [
        // Served traffic.
        "GET /v1/availability?market=us-east-1a/c3.large/linux&kind=od HTTP/1.1\r\nHost: spotlight\r\n\r\n",
        "GET /v1/freshness?market=us-east-1b%2fc3.large%2flinux&kind=spot HTTP/1.1\r\nHost: spotlight\r\nX-Pad: pppp\r\n\r\n",
        "HEAD /v1/advisor/top?n=3 HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n",
        "GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
        "GET /v1/spike-rates?thresholds=1.5%2C3&window_secs=3600 HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello",
        "GET /a?b?c=d HTTP/1.1\r\nhost:a\r\nCONNECTION:close\r\ncontent-length:0\r\n\r\n",
        "GET / HTTP/1.0\n\n",
        "GET / HTTP/1.1\nHost: a\nConnection: close\n\n",
        "GET /? HTTP/1.1\r\n\r\n",
        // The hostile matrix and `rejection_matrix`.
        "GARBAGE\r\n\r\n",
        "POST /v1/availability HTTP/1.1\r\n\r\n",
        "BREW / HTTP/1.1\r\n\r\n",
        "G@T / HTTP/1.1\r\n\r\n",
        "GET / HTTP/2.0\r\n\r\n",
        "GET / HTTP/0.9\r\n\r\n",
        "GET / http/1.1\r\n\r\n",
        "GET /\r\n\r\n",
        "GET x HTTP/1.1\r\n\r\n",
        "GET /a b HTTP/1.1\r\n\r\n",
        "GET  /  HTTP/1.1 \r\n\r\n",
        "GET /no/such/route HTTP/1.1\r\n\r\n",
        "GET /v1/availability?market=bogus HTTP/1.1\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
        "GET / HTTP/1.1\r\nContent-Length: zero\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
        "GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab",
        "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        "GET / HTTP/1.1\r\nno colon here\r\n\r\n",
        "GET / HTTP/1.1\r\n folded: x\r\n\r\n",
        "GET / HTTP/1.1\r\n: empty name\r\n\r\n",
        "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
        // Edges: which `\r` goes, what ends a head, what `trim` trims
        // (NBSP, NEL, EM SPACE, vertical tab, form feed, a bare `\r`).
        "\r\n\r\n",
        "\n\n",
        "\r\nGET / HTTP/1.1\r\n\r\n",
        "GET / HTTP/1.1\r\r\n\r\n",
        "GET / HTTP/1.1\r\n\r\r\n\r\n",
        "GET /\r HTTP/1.1\r\n\r\n",
        "GET /\t HTTP/1.1\r\n\r\n",
        "GET /\u{7f} HTTP/1.1\r\n\r\n",
        "GET /caf\u{e9} HTTP/1.1\r\n\r\n",
        "G\u{e9}T / HTTP/1.1\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length:\u{a0}3\u{2003}\r\n\r\nabc",
        "GET / HTTP/1.1\r\nContent-Length: \u{b}\u{c}3\r \r\n\r\nabc",
        "GET / HTTP/1.1\r\nConnection: \u{85}close\u{a0}\r\n\r\n",
        "GET / HTTP/1.1\r\nConnection: close, x\r\nConnection:\tKEEP-ALIVE\t\r\n\r\n",
        "GET / HTTP/1.1\r\nX-Caf\u{e9}: x\r\n\r\n",
        "GET / HTTP/1.1\r\nX: caf\u{e9} \u{1f600}\r\n\r\n",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    // Invalid UTF-8 in a header value, and in the target.
    seeds.push(b"GET / HTTP/1.1\r\nX: \xff\xfe\r\nContent-Length: 1\r\n\r\nz".to_vec());
    seeds.push(b"GET /\xc3 HTTP/1.1\r\nContent-Length:\xc2\xa03\r\n\r\nabc".to_vec());
    // Over each default cap, and a head the caps just allow.
    seeds.push(format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(4096)).into_bytes());
    seeds.push(vec![b'a'; 2049]);
    seeds.push(
        format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n".repeat(300)
        )
        .into_bytes(),
    );
    let many: String = (0..65).map(|i| format!("H{i}: v\r\n")).collect();
    seeds.push(format!("GET / HTTP/1.1\r\n{many}\r\n").into_bytes());
    seeds
}

/// Bytes the grammar turns on, for mutations to land on its edges more
/// often than uniform noise does.
const PALETTE: &[u8] = b"\r\n \t:?/%+&=.-_~!@(),;\"\\\x00\x0b\x0c\x7f\x80\xa0\xc2\xe2\xff01G";

// ------------------------------------------------------------ comparison

/// Length of the first line (its `\r` stripped), of the head, and the
/// number of header lines — by plain scans that share nothing with
/// either parser; only used to aim the caps.
fn measure(bytes: &[u8]) -> (usize, usize, usize) {
    let first_lf = bytes.iter().position(|&b| b == b'\n');
    let line = match first_lf {
        Some(at) if at > 0 && bytes[at - 1] == b'\r' => at - 1,
        Some(at) => at,
        None => bytes.len(),
    };
    let head = (0..bytes.len())
        .find(|&i| bytes[i..].starts_with(b"\n\n") || bytes[i..].starts_with(b"\n\r\n"))
        .map_or(bytes.len(), |i| i + 2);
    let lines = bytes[..head].iter().filter(|&&b| b == b'\n').count();
    (line, head, lines.saturating_sub(2))
}

/// A cap `choice` picks relative to a measured length: the default, or
/// one under, at, or one over it.
fn cap(choice: usize, measured: usize, default: usize) -> usize {
    match choice {
        0 => default,
        under_at_over => (measured + under_at_over).saturating_sub(2),
    }
}

fn limits_for(bytes: &[u8], choices: [usize; 4]) -> Limits {
    let (line, head, headers) = measure(bytes);
    let default = Limits::default();
    Limits {
        max_request_line: cap(choices[0], line, default.max_request_line),
        max_header_bytes: cap(choices[1], head, default.max_header_bytes),
        max_headers: cap(choices[2], headers, default.max_headers),
        // Declared bodies in the seeds are 0–5 bytes (or absurd).
        max_body: cap(choices[3], 3, default.max_body),
    }
}

fn assert_same(bytes: &[u8], limits: &Limits) {
    let (new, old) = (parse(bytes, limits), legacy::parse(bytes, limits));
    assert!(
        new == old,
        "parsers disagree under {limits:?} on {:?}\n one-pass: {new:?}\n legacy:   {old:?}",
        String::from_utf8_lossy(bytes)
    );
    if let Parsed::Complete { consumed, .. } = new {
        assert!(consumed > 0 && consumed <= bytes.len());
    }
}

/// Every combination of the four cap choices.
fn all_cap_choices() -> impl Iterator<Item = [usize; 4]> {
    (0..256usize).map(|n| [n % 4, n / 4 % 4, n / 16 % 4, n / 64 % 4])
}

// ------------------------------------------------------------------ tests

#[test]
fn seeds_agree_at_every_truncation_and_cap() {
    for seed in seeds() {
        // Whole, under every cap combination aimed at its own lengths.
        for choices in all_cap_choices() {
            assert_same(&seed, &limits_for(&seed, choices));
        }
        // Every prefix (what a trickling client has sent so far): under
        // the default caps and under caps tight around the *whole*
        // request, which the prefix then grows into.
        let tight = limits_for(&seed, [2, 2, 2, 2]);
        let step = 1 + seed.len() / 600;
        for cut in (0..seed.len()).step_by(step) {
            assert_same(&seed[..cut], &Limits::default());
            assert_same(&seed[..cut], &tight);
        }
    }
}

#[test]
fn pipelined_pairs_agree_and_consume_alike() {
    let seeds = seeds();
    for (a, first) in seeds.iter().enumerate() {
        for second in seeds.iter().skip(a % 3).step_by(3) {
            let pair = [first.as_slice(), second.as_slice()].concat();
            let limits = Limits::default();
            assert_same(&pair, &limits);
            if let Parsed::Complete { consumed, .. } = parse(&pair, &limits) {
                assert_same(&pair[consumed..], &limits);
            }
        }
    }
}

/// One edit of a mutation script.
fn mutate(bytes: &mut Vec<u8>, donor: &[u8], (kind, at, byte): (u8, usize, u8)) {
    let palette = PALETTE[usize::from(byte) % PALETTE.len()];
    let at_or_end = at % (bytes.len() + 1);
    match kind {
        // Overwrite, insert, delete.
        0 | 1 if !bytes.is_empty() => {
            let at = at % bytes.len();
            bytes[at] = if kind == 0 { byte } else { palette };
        }
        2 => bytes.insert(at_or_end, palette),
        3 if !bytes.is_empty() => {
            bytes.remove(at % bytes.len());
        }
        // Splice a run of another request in.
        4 if !donor.is_empty() => {
            let from = at % donor.len();
            let run = &donor[from..(from + 1 + usize::from(byte) % 40).min(donor.len())];
            bytes.splice(at_or_end..at_or_end, run.iter().copied());
        }
        // Mangle the line ends.
        5 => {
            let text = std::mem::take(bytes);
            for (i, &b) in text.iter().enumerate() {
                let crlf = b == b'\r' && text.get(i + 1) == Some(&b'\n');
                match (byte % 4, b) {
                    (0, b'\r') => {}
                    (1, b'\r') if crlf => bytes.extend_from_slice(b"\r\r"),
                    (2, b'\n') => bytes.extend_from_slice(b"\r\n"),
                    (3, b'\r') if crlf => bytes.push(b'\n'),
                    (3, b'\n') if i > 0 && text[i - 1] == b'\r' => bytes.push(b'\r'),
                    _ => bytes.push(b),
                }
            }
        }
        // A non-ASCII space, whole or cut short.
        6 => {
            let spaces: [&[u8]; 4] = [b"\xc2\xa0", b"\xe2\x80\x83", b"\xc2\x85", b"\xc2"];
            let space = spaces[usize::from(byte) % 4];
            bytes.splice(at_or_end..at_or_end, space.iter().copied());
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    // Real heads, edited: byte writes (uniform and from the grammar's
    // own alphabet), inserts, deletes, splices from another request,
    // mangled line ends, non-ASCII spaces; then maybe a second request
    // behind (pipelining) and a cut (a partial read); caps chosen
    // around the result's own lengths.
    #[test]
    fn mutated_requests_parse_alike(
        picked in (0usize..1000, 0usize..1000),
        edits in proptest::collection::vec((0u8..7, 0usize..10_000, any::<u8>()), 0..10),
        framing in (any::<bool>(), 0usize..2_000),
        choices in (0usize..4, 0usize..4, 0usize..4, 0usize..4),
    ) {
        let seeds = seeds();
        // The four oversized seeds sit at the end: draw them less often.
        let small = seeds.len() - 4;
        let pick = |n: usize| &seeds[if n.is_multiple_of(16) { n % seeds.len() } else { n % small }];
        let (mut bytes, donor) = (pick(picked.0).clone(), pick(picked.1));
        let (pipelined, cut) = framing;
        for edit in edits {
            mutate(&mut bytes, donor, edit);
        }
        if pipelined {
            bytes.extend_from_slice(donor);
        }
        if cut < 1_000 {
            bytes.truncate(bytes.len() * cut / 1_000);
        }
        let choices = [choices.0, choices.1, choices.2, choices.3];
        assert_same(&bytes, &limits_for(&bytes, choices));
        assert_same(&bytes, &Limits::default());
    }

    // Byte soup from the grammar's alphabet: short lines, stray `\r`s,
    // colons and spaces everywhere, tiny caps.
    #[test]
    fn grammar_soup_parses_alike(
        picks in proptest::collection::vec(any::<u8>(), 0..120),
        max_line in 0usize..40,
        max_head in 0usize..120,
        max_counts in (0usize..4, 0usize..4),
    ) {
        const SOUP: &[&[u8]] = &[
            b"GET", b"HEAD", b"POST", b"/", b"/a?b", b"HTTP/1.1", b"HTTP/1.0", b"HTTP/3",
            b" ", b" ", b"\r\n", b"\r\n", b"\n", b"\r", b":", b"?", b"\t", b"x",
            b"Content-Length", b"content-length: 2", b"Connection", b"close", b"keep-alive",
            b"Transfer-Encoding", b"\xc2\xa0", b"\xff", b"1", b"\r\n\r\n", b"\n\n",
        ];
        let bytes: Vec<u8> = picks
            .iter()
            .flat_map(|&p| SOUP[usize::from(p) % SOUP.len()].iter().copied())
            .collect();
        let limits = Limits {
            max_request_line: max_line,
            max_header_bytes: max_head,
            max_headers: max_counts.0,
            max_body: max_counts.1,
        };
        assert_same(&bytes, &limits);
        assert_same(&bytes, &Limits::default());
    }
}
