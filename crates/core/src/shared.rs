//! The two containers a stripe shares with its captures: [`CowVec`], a
//! growable list in one `Arc`'d allocation, and [`ChunkVec`], the
//! append-mostly record slab built from chunks of it. Cloning either —
//! what a snapshot capture or a checkpoint does under the stripe lock —
//! copies no element.
//!
//! Both are copy-on-write with [`Arc::get_mut`] as the test: a write
//! lands in place when no clone holds the buffer, and first copies that
//! one buffer (a list, or one chunk of a slab) when one does. With no
//! capture alive nothing is ever copied beyond `Vec`'s own growth.

use std::iter;
use std::ops::{Deref, Index, IndexMut};
use std::sync::Arc;

/// A list whose elements and spare capacity sit in one shared
/// allocation, one pointer hop from its owner as a `Vec`'s are:
/// `buf[..len]` holds the elements, the rest is slack (copies of
/// whatever element was inserted when the buffer was built, never
/// read). Reads go through `Deref<Target = [T]>`.
#[derive(Debug, Clone)]
pub(crate) struct CowVec<T> {
    buf: Arc<[T]>,
    len: usize,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            buf: Arc::default(),
            len: 0,
        }
    }
}

impl<T> Deref for CowVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T: PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T> CowVec<T> {
    /// Heap bytes held: capacity × element size. A buffer shared with
    /// a clone is counted in full.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of_val(&*self.buf)
    }
}

impl<T: Copy> CowVec<T> {
    /// Inserts `item` at `at`, shifting the tail: in place when the
    /// buffer is unshared and has room, into a fresh buffer otherwise —
    /// of the same capacity if a clone held the old one, doubled (like
    /// `Vec`) if it was full.
    pub(crate) fn insert(&mut self, at: usize, item: T) {
        let len = self.len;
        match Arc::get_mut(&mut self.buf) {
            Some(buf) if len < buf.len() => {
                buf.copy_within(at..len, at + 1);
                buf[at] = item;
            }
            _ => {
                let capacity = if len < self.buf.len() {
                    self.buf.len()
                } else {
                    (2 * len).max(4)
                };
                let (before, after) = self.buf[..len].split_at(at);
                self.buf = before
                    .iter()
                    .chain(iter::once(&item))
                    .chain(after)
                    .copied()
                    .chain(iter::repeat_n(item, capacity - len - 1))
                    .collect();
            }
        }
        self.len += 1;
    }

    pub(crate) fn push(&mut self, item: T) {
        self.insert(self.len, item);
    }

    /// The elements, writable: first unshares the buffer if a clone
    /// holds it.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        if Arc::get_mut(&mut self.buf).is_none() {
            self.buf = self.buf.iter().copied().collect();
        }
        let buf = Arc::get_mut(&mut self.buf).expect("the buffer was just unshared");
        &mut buf[..self.len]
    }
}

/// Collects into a buffer with no slack.
impl<T> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let buf: Arc<[T]> = iter.into_iter().collect();
        CowVec {
            len: buf.len(),
            buf,
        }
    }
}

/// Elements per chunk: a power of two (indexing is a shift and a mask,
/// and a chunk doubling from 4 fills with no slack). A chunk is the
/// unit a writer may have to copy under its stripe lock, so it is kept
/// small — 8 KiB of the largest record (`ProbeRecord`, 64 bytes) —
/// while a 500k-probe store's spines still stay a few thousand chunks.
const CHUNK_LEN: usize = 128;

/// A vector of [`CowVec`] chunks. Every chunk but the last holds
/// exactly [`CHUNK_LEN`] elements and none is empty; full chunks are
/// shared by every capture taken since they filled, until somebody
/// writes into them.
#[derive(Debug, Clone)]
pub(crate) struct ChunkVec<T> {
    chunks: Vec<CowVec<T>>,
    len: usize,
}

impl<T> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> ChunkVec<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The elements in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + Clone + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Heap bytes held: chunk capacities × element size, plus the
    /// spine. Chunks shared with a clone are counted in full.
    pub(crate) fn heap_bytes(&self) -> usize {
        let chunks: usize = self.chunks.iter().map(CowVec::heap_bytes).sum();
        chunks + self.chunks.capacity() * size_of::<CowVec<T>>()
    }
}

impl<T: Copy> ChunkVec<T> {
    /// Appends `item`, first unsharing the tail chunk if a clone holds
    /// it.
    pub(crate) fn push(&mut self, item: T) {
        if self.len.is_multiple_of(CHUNK_LEN) {
            self.chunks.push(CowVec::default());
        }
        let tail = self.chunks.last_mut().expect("a tail chunk exists");
        tail.push(item);
        self.len += 1;
    }
}

impl<T> Index<usize> for ChunkVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK_LEN][i % CHUNK_LEN]
    }
}

impl<T: Copy> IndexMut<usize> for ChunkVec<T> {
    /// Unshares the chunk holding `i` if a clone holds it.
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / CHUNK_LEN].as_mut_slice()[i % CHUNK_LEN]
    }
}

impl<T: Copy> FromIterator<T> for ChunkVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = ChunkVec::default();
        for item in iter {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> CowVec<T> {
        /// Whether `self` and `other` hold one buffer: neither has been
        /// written since one was cloned from the other.
        pub(crate) fn shares_buffer_with(&self, other: &CowVec<T>) -> bool {
            Arc::ptr_eq(&self.buf, &other.buf)
        }
    }

    #[test]
    fn cow_vec_inserts_like_a_vec_and_doubles_when_full() {
        let mut list = CowVec::default();
        let mut model = Vec::new();
        assert_eq!(list.buf.len(), 0);
        for (at, item) in [(0, 5u32), (1, 7), (0, 1), (2, 6), (4, 9), (1, 3)] {
            list.insert(at, item);
            model.insert(at, item);
            assert_eq!(&*list, &model[..]);
        }
        assert_eq!(list.buf.len(), 8, "4, then doubled at the fifth element");
        list.as_mut_slice()[0] = 2;
        assert_eq!(list[0], 2);
        let exact: CowVec<u32> = model.iter().copied().collect();
        assert_eq!((exact.len(), exact.buf.len()), (6, 6));
        assert_ne!(exact, list);
    }

    #[test]
    fn a_cow_vec_clone_is_isolated_until_dropped() {
        let mut live: CowVec<u32> = (0..5).collect();
        live.push(5); // capacity 10
        let frozen = live.clone();
        assert!(
            Arc::ptr_eq(&live.buf, &frozen.buf),
            "a clone copies nothing"
        );
        live.push(6); // has room, but shared: copied at the same capacity
        assert!(!Arc::ptr_eq(&live.buf, &frozen.buf));
        assert_eq!(live.buf.len(), 10);
        live.as_mut_slice()[0] = 9;
        assert_eq!(&*frozen, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(&*live, &[9, 1, 2, 3, 4, 5, 6]);
        let again = live.clone();
        live.as_mut_slice()[1] = 8; // shared again: unshared by the write
        assert_eq!((again[1], live[1]), (1, 8));
        // Once the clones are gone, writes copy nothing.
        drop((frozen, again));
        let before = Arc::as_ptr(&live.buf);
        live.push(7);
        live.as_mut_slice()[2] = 0;
        assert_eq!(Arc::as_ptr(&live.buf), before);
    }

    #[test]
    fn push_index_and_iter_agree_with_a_vec() {
        let n = 3 * CHUNK_LEN + 7;
        let chunked: ChunkVec<usize> = (0..n).collect();
        assert_eq!(chunked.len(), n);
        assert!(chunked.iter().copied().eq(0..n));
        for i in [0, CHUNK_LEN - 1, CHUNK_LEN, n - 1] {
            assert_eq!(chunked[i], i);
        }
        // Full chunks carry no slack; the 7-element tail doubled to 8.
        let spine = chunked.chunks.capacity() * size_of::<CowVec<usize>>();
        assert_eq!(
            chunked.heap_bytes(),
            (3 * CHUNK_LEN + 8) * size_of::<usize>() + spine
        );
        assert_eq!(ChunkVec::<usize>::default().heap_bytes(), 0);
    }

    #[test]
    fn a_clone_is_isolated_and_shares_untouched_chunks() {
        let mut live: ChunkVec<u64> = (0..2 * CHUNK_LEN as u64 + 10).collect();
        let frozen = live.clone();
        let shared = |live: &ChunkVec<u64>| -> Vec<bool> {
            live.chunks
                .iter()
                .zip(&frozen.chunks)
                .map(|(a, b)| Arc::ptr_eq(&a.buf, &b.buf))
                .collect()
        };
        assert_eq!(shared(&live), [true, true, true], "a clone copies no chunk");
        live.push(99); // unshares the tail
        live[3] = 77; // unshares chunk 0
        assert_eq!(frozen.len(), 2 * CHUNK_LEN + 10);
        assert!(frozen.iter().copied().eq(0..2 * CHUNK_LEN as u64 + 10));
        assert_eq!((live[3], live[2 * CHUNK_LEN + 10]), (77, 99));
        assert_eq!(shared(&live), [false, true, false]);
    }
}
