//! The socket read buffer both ends of a connection use: bytes are
//! consumed from the front with a cursor and the remainder is moved to
//! the front once per read — not once per message, which on a
//! pipelined batch is a memmove of the whole batch every time — and a
//! read lands directly in the free tail instead of going through a
//! stack chunk and a copy.

use std::io::{self, Read};

/// Unconsumed bytes are `bytes[start..end]`; reads land in
/// `bytes[end..]`.
#[derive(Debug)]
pub(crate) struct ReadBuf {
    bytes: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// A buffer of `size` bytes. It doubles only while one unconsumed
    /// message fills it, so whoever caps message size caps the buffer.
    pub(crate) fn new(size: usize) -> Self {
        ReadBuf {
            bytes: vec![0; size],
            start: 0,
            end: 0,
        }
    }

    /// The bytes read and not yet consumed.
    pub(crate) fn unread(&self) -> &[u8] {
        &self.bytes[self.start..self.end]
    }

    /// Drops the first `n` unread bytes.
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.end - self.start);
        self.start += n;
    }

    /// One `read` from `source` into the free tail, after moving the
    /// unread bytes to the front. Returns what `read` returned.
    pub(crate) fn fill_from(&mut self, source: &mut impl Read) -> io::Result<usize> {
        self.bytes.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.end == self.bytes.len() {
            self.bytes.resize(self.bytes.len() * 2, 0);
        }
        let n = source.read(&mut self.bytes[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumes_with_a_cursor_and_grows_only_when_full() {
        let mut source: &[u8] = b"abcdefghij";
        let mut buf = ReadBuf::new(4);
        assert_eq!(buf.fill_from(&mut source).unwrap(), 4);
        assert_eq!(buf.unread(), b"abcd");
        buf.consume(3);
        assert_eq!(buf.unread(), b"d");
        // The tail moves to the front; the buffer is not full, so it
        // keeps its size and reads three more bytes.
        assert_eq!(buf.fill_from(&mut source).unwrap(), 3);
        assert_eq!(buf.unread(), b"defg");
        // Full and nothing consumed: doubles.
        assert_eq!(buf.fill_from(&mut source).unwrap(), 3);
        assert_eq!(buf.unread(), b"defghij");
        assert_eq!(buf.fill_from(&mut source).unwrap(), 0);
        buf.consume(7);
        assert!(buf.unread().is_empty());
    }
}
