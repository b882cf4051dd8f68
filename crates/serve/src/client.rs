//! A minimal blocking HTTP/1.1 client for the query service — used by
//! the end-to-end benchmark, the smoke harness, and the integration
//! tests.
//!
//! Supports keep-alive and explicit pipelining: [`Client::send_get`]
//! queues a request without waiting, [`Client::read_response`] pulls the
//! next response off the wire, and [`Client::get`] does one round-trip.

use crate::readbuf::ReadBuf;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The head as received, status line included: one allocation a
    /// response, scanned only when a header is asked for.
    head: String,
    /// Response body.
    pub body: String,
}

impl Response {
    /// Looks up a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lines(&self.head)
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, value)| value)
    }
}

/// The `name: value` lines of a response head, both sides trimmed
/// (of each line's `\r` too: the cut is at `\n`, a byte search).
fn header_lines(head: &str) -> impl Iterator<Item = (&str, &str)> {
    head.split('\n')
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim(), value.trim()))
}

/// A keep-alive connection to the server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    rbuf: ReadBuf,
    /// Outgoing request of [`Client::send_get`], reused across calls.
    wbuf: Vec<u8>,
}

fn invalid(message: &'static str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, message)
}

impl Client {
    /// Connects with the given socket timeouts.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            // Room for a pipelined batch of point answers in one read.
            rbuf: ReadBuf::new(16 * 1024),
            wbuf: Vec::new(),
        })
    }

    /// The underlying stream (for tests that need raw writes).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Queues a `GET` (one write) without waiting for the response.
    pub fn send_get(&mut self, path_and_query: &str) -> io::Result<()> {
        self.wbuf.clear();
        self.wbuf.extend_from_slice(b"GET ");
        self.wbuf.extend_from_slice(path_and_query.as_bytes());
        self.wbuf
            .extend_from_slice(b" HTTP/1.1\r\nHost: spotlight\r\n\r\n");
        self.stream.write_all(&self.wbuf)
    }

    /// Reads the next pipelined response. The head is parsed in place
    /// and consumed with a cursor; the buffer is compacted once per
    /// socket read, not once per response.
    pub fn read_response(&mut self) -> io::Result<Response> {
        // Buffer until the blank line.
        let head_len = loop {
            if let Some(len) = find_blank_line(self.rbuf.unread()) {
                break len;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.rbuf.unread()[..head_len])
            .map_err(|_| invalid("non-UTF-8 response head"))?;
        let status: u16 = head
            .split('\n')
            .next()
            .and_then(|status_line| status_line.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut content_length = 0usize;
        for (name, value) in header_lines(head) {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| invalid("bad content-length"))?;
            }
        }
        let head = head.to_owned();
        let response_len = head_len + content_length;
        while self.rbuf.unread().len() < response_len {
            self.fill()?;
        }
        let body =
            String::from_utf8_lossy(&self.rbuf.unread()[head_len..response_len]).into_owned();
        self.rbuf.consume(response_len);
        Ok(Response { status, head, body })
    }

    /// One round-trip.
    pub fn get(&mut self, path_and_query: &str) -> io::Result<Response> {
        self.send_get(path_and_query)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.rbuf.fill_from(&mut self.stream)? == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }
}

/// Index one past the `\r\n\r\n` terminating a response head.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|pos| pos + 4)
}
