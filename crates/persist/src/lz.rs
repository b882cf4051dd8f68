//! The LZ block codec every sealed section goes through ([`crate::log`]):
//! `varint raw length ++ sequence*`, LZ4-block style. A sequence is
//! `token ++ [literal length bytes] ++ literals ++ [offset: u16 LE ++
//! [match length bytes]]`; the token's nibbles are the literal count and
//! the match length minus 4, a nibble of 15 continuing in bytes that add
//! 255 each until one below 255. A match copies from `offset` bytes back
//! (overlapping forwards, as a run does); the last sequence has no match.
//! One setting (a greedy parse over a fixed hash table), no raw mode. The
//! decoder checks each length, before it allocates or copies, against
//! the declared one and that against what the input can encode.

use crate::codec::{Decode, DecodeError, Encode, Reader};

/// Shortest match a sequence can carry.
const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 14;

/// Appends `input`, compressed, to `out`.
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    (input.len() as u64).encode(out);
    out.reserve(input.len() + input.len() / 255 + 16);
    // A slot holds the last position whose four bytes hashed there, tagged
    // with them (`bytes << 32 | position mod 2^32`): a miss reads no input
    // back, and a hit is still checked, so a stale slot is only a miss.
    let mut table = [0u64; 1 << HASH_BITS];
    let tagged = |w: u32, at: usize| u64::from(w) << 32 | at as u64 & 0xffff_ffff;
    let word = |at: usize| u32::from_le_bytes(input[at..at + 4].try_into().expect("4 bytes"));
    let slot = |w: u32| (w.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize;
    let (mut anchor, mut pos, mut misses) = (0, 0, 0usize);
    while pos + MIN_MATCH <= input.len() {
        let w = word(pos);
        let entry = std::mem::replace(&mut table[slot(w)], tagged(w, pos));
        let back = (pos as u32).wrapping_sub(entry as u32) as usize;
        if (entry >> 32) as u32 != w || back == 0 || back > 0xffff || word(pos - back) != w {
            misses += 1;
            pos += 1 + (misses >> 6); // skip faster through input that keeps missing
            continue;
        }
        misses = 0;
        let mut start = pos;
        let mut len = MIN_MATCH + common_len(&input[pos - back + 4..], &input[pos + 4..]);
        while start > anchor && start > back && input[start - 1] == input[start - 1 - back] {
            start -= 1;
            len += 1;
        }
        put_sequence(out, &input[anchor..start], Some((back as u16, len)));
        pos = start + len;
        anchor = pos;
    }
    put_sequence(out, &input[anchor..], None);
}

/// How many leading bytes `a` and `b` share (`b` no longer than `a`).
fn common_len(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    while n + 8 <= b.len() {
        let word = |s: &[u8]| u64::from_le_bytes(s[n..n + 8].try_into().expect("8 bytes"));
        match word(a) ^ word(b) {
            0 => n += 8,
            diff => return n + (diff.trailing_zeros() / 8) as usize,
        }
    }
    while n < b.len() && a[n] == b[n] {
        n += 1;
    }
    n
}

fn put_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(u16, usize)>) {
    let extra = matched.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push(((literals.len().min(15) as u8) << 4) | extra.min(15) as u8);
    put_length(out, literals.len());
    out.extend_from_slice(literals);
    if let Some((offset, _)) = matched {
        out.extend_from_slice(&offset.to_le_bytes());
        put_length(out, extra);
    }
}

/// The continuation bytes of a length whose nibble is 15.
fn put_length(out: &mut Vec<u8>, len: usize) {
    if let Some(rest) = len.checked_sub(15) {
        out.extend(std::iter::repeat_n(255, rest / 255));
        out.push((rest % 255) as u8);
    }
}

/// Decompresses one [`compress`] block.
///
/// # Errors
///
/// [`DecodeError::Eof`] on truncated input, [`DecodeError::Invalid`] on
/// a declared length the input cannot encode, a zero or out-of-range
/// offset, or sequences that overrun or fall short of that length.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut r = Reader::new(input);
    let raw = u64::decode(&mut r)?;
    let body = r.take(r.remaining())?;
    // No input byte stands for more than 255 output bytes.
    if raw > body.len() as u64 * 255 {
        return Err(DecodeError::Invalid("lz declared length"));
    }
    let (mut out, mut o, mut i) = (vec![0; raw as usize], 0, 0);
    let overrun = DecodeError::Invalid("lz length overrun");
    loop {
        let token = *body.get(i).ok_or(DecodeError::Eof)?;
        i += 1;
        let n = take_length(body, &mut i, token >> 4)?;
        let literals = body.get(i..i + n).ok_or(DecodeError::Eof)?;
        if n > out.len() - o {
            return Err(overrun);
        }
        // Short copies move 16 bytes; later sequences overwrite the excess.
        match body.get(i..i + 16) {
            Some(wide) if n <= 16 && o + 16 <= out.len() => out[o..o + 16].copy_from_slice(wide),
            _ => out[o..o + n].copy_from_slice(literals),
        }
        (i, o) = (i + n, o + n);
        if i == body.len() {
            break;
        }
        let offset = body.get(i..i + 2).ok_or(DecodeError::Eof)?;
        let offset = usize::from(u16::from_le_bytes([offset[0], offset[1]]));
        i += 2;
        let len = take_length(body, &mut i, token & 15)? + MIN_MATCH;
        if offset == 0 || offset > o {
            return Err(DecodeError::Invalid("lz match offset"));
        }
        if len > out.len() - o {
            return Err(overrun);
        }
        let short = offset >= 16 && len <= 16 && o + 16 <= out.len();
        let wide = if short { 16 } else { len };
        if offset >= wide {
            out.copy_within(o - offset..o - offset + wide, o);
        } else {
            // A run: the match reads bytes it has just written.
            (o..o + len).for_each(|k| out[k] = out[k - offset]);
        }
        o += len;
    }
    if o != out.len() {
        return Err(DecodeError::Invalid("lz short block"));
    }
    Ok(out)
}

fn take_length(body: &[u8], i: &mut usize, nibble: u8) -> Result<usize, DecodeError> {
    let (mut len, mut byte) = (usize::from(nibble), if nibble == 15 { 255 } else { 0 });
    while byte == 255 {
        byte = *body.get(*i).ok_or(DecodeError::Eof)?;
        *i += 1;
        len += usize::from(byte);
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn packed(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        compress(input, &mut out);
        out
    }

    /// Seeded bytes no LZ parse can shorten.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    #[test]
    fn hand_built_blocks_decode_and_bad_ones_are_refused() {
        // "abc" then a 9-byte match one back: a run overlapping itself.
        let run = [12, 0x35, b'a', b'b', b'c', 1, 0, 0x00];
        assert_eq!(decompress(&run).as_deref(), Ok(&b"abcccccccccc"[..]));
        let refused = |bytes: &[u8], why: DecodeError| assert_eq!(decompress(bytes), Err(why));
        refused(&[], DecodeError::Eof);
        refused(&[0], DecodeError::Eof);
        refused(
            &[12, 0x35, b'a', b'b', b'c', 0, 0, 0],
            DecodeError::Invalid("lz match offset"),
        );
        refused(
            &[12, 0x35, b'a', b'b', b'c', 4, 0, 0],
            DecodeError::Invalid("lz match offset"),
        );
        refused(
            &[11, 0x35, b'a', b'b', b'c', 1, 0, 0],
            DecodeError::Invalid("lz length overrun"),
        );
        refused(
            &[13, 0x35, b'a', b'b', b'c', 1, 0, 0],
            DecodeError::Invalid("lz short block"),
        );
        refused(&[12, 0x35, b'a', b'b', b'c', 1], DecodeError::Eof);
        refused(&[4, 0x40, b'a', b'b'], DecodeError::Eof);
        // A length no input that short could encode, refused before
        // allocating: 2 body bytes make at most 510.
        refused(
            &[0xff, 0x03, 0x10, b'a'],
            DecodeError::Invalid("lz declared length"),
        );
        refused(
            &[0xff, 0xff, 0xff, 0xff, 0x0f, 0],
            DecodeError::Invalid("lz declared length"),
        );
    }

    #[test]
    fn long_runs_and_far_repeats_compress() {
        let run = vec![7u8; 100_000];
        assert!(packed(&run).len() < 500);
        // A 40 KiB block repeated: a match at the window's far side.
        let block = noise(40_000, 3);
        let twice = [block.clone(), block].concat();
        let out = packed(&twice);
        assert!(out.len() < 40_600, "{}", out.len());
        assert_eq!(decompress(&out), Ok(twice));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Empty, one byte, all-equal, incompressible and repetitive
        // inputs of drawn lengths all come back exactly; noise grows by
        // at most its varint and one byte in 255 (plus the last token).
        #[test]
        fn lz_round_trips_every_shape(len in 0usize..70_000, seed in 1u64..u64::MAX, byte in any::<u8>(), period in 1usize..300) {
            let noisy = noise(len, seed);
            let periodic: Vec<u8> = noisy.iter().take(period).copied().cycle().take(len).collect();
            for input in [Vec::new(), vec![byte], vec![byte; len], noisy.clone(), periodic] {
                prop_assert_eq!(decompress(&packed(&input)), Ok(input));
            }
            prop_assert!(packed(&noisy).len() <= 10 + len + len / 255 + 2);
        }
    }
}
