//! Compact binary serialization of access traces.
//!
//! Workload traces can run to millions of accesses; re-generating a graph
//! and re-running BFS for every experiment is wasteful when the same trace
//! is replayed across five systems. This module holds two encodings of a
//! trace that share one per-access header:
//!
//! * [`encode`] / [`decode`], the versioned v1 byte format (~9 bytes per
//!   single-page access), for storing a trace or importing traces
//!   captured outside this workspace;
//! * [`Recording`], an in-memory recording that writes page ids in
//!   LEB128, so a graph trace's small page ids take one to two bytes.
//!   `gmt_analysis::runner::Recorded` keeps one per seed, so the `paper`
//!   driver, `gmt-cli` and the end-to-end benchmark generate each graph
//!   app's trace once and rebuild it from the recording for every
//!   further system.
//!
//! # Format
//!
//! ```text
//! magic   b"GMTTRACE"     8 bytes
//! version u16 LE          currently 1
//! count   u64 LE          number of accesses
//! per access:
//!   header u8             bit 7 = write, bits 0..7 = page count (1..=127)
//!   pages  count x u64 LE
//! ```

use crate::{PageId, PageSet, WarpAccess};

const MAGIC: &[u8; 8] = b"GMTTRACE";
const VERSION: u16 = 1;

/// Error decoding a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeTraceError {
    /// The buffer does not start with the trace magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared access count was read.
    Truncated,
    /// An access header declared zero pages.
    EmptyAccess,
}

impl std::fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeTraceError::BadMagic => f.write_str("not a GMT trace (bad magic)"),
            DecodeTraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v}")
            }
            DecodeTraceError::Truncated => f.write_str("trace ends before declared count"),
            DecodeTraceError::EmptyAccess => f.write_str("access with zero pages"),
        }
    }
}

impl std::error::Error for DecodeTraceError {}

/// Serializes a trace into a freshly allocated buffer.
///
/// # Examples
///
/// ```
/// use gmt_mem::{trace, PageId, WarpAccess};
/// let t = vec![WarpAccess::read(PageId(1)), WarpAccess::write(PageId(2))];
/// let bytes = trace::encode(&t);
/// assert_eq!(trace::decode(&bytes)?, t);
/// # Ok::<(), gmt_mem::trace::DecodeTraceError>(())
/// ```
///
/// # Panics
///
/// Panics if an access touches no page or more than 127 distinct pages
/// (a warp can touch at most 32).
pub fn encode(accesses: &[WarpAccess]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18 + accesses.len() * 9);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(accesses.len() as u64).to_le_bytes());
    for access in accesses {
        buf.push(header(access));
        for page in access.pages.iter() {
            buf.extend_from_slice(&page.0.to_le_bytes());
        }
    }
    buf
}

/// Deserializes a trace produced by [`encode`].
///
/// # Errors
///
/// Returns a [`DecodeTraceError`] if the buffer is not a well-formed
/// version-1 trace.
pub fn decode(buf: &[u8]) -> Result<Vec<WarpAccess>, DecodeTraceError> {
    use DecodeTraceError::{BadMagic, EmptyAccess, Truncated, UnsupportedVersion};
    if buf.len() < 18 || !buf.starts_with(MAGIC) {
        return Err(BadMagic);
    }
    let mut body = &buf[MAGIC.len()..];
    let version = take(&mut body).map(u16::from_le_bytes).ok_or(BadMagic)?;
    if version != VERSION {
        return Err(UnsupportedVersion(version));
    }
    let count = take(&mut body).map(u64::from_le_bytes).ok_or(BadMagic)?;
    // Every access takes at least 9 bytes, so the body bounds the
    // reservation whatever count the header claims.
    let mut out = Vec::with_capacity(count.min(body.len() as u64 / 9) as usize);
    for _ in 0..count {
        let [header] = take(&mut body).ok_or(Truncated)?;
        if header & 0x7F == 0 {
            return Err(EmptyAccess);
        }
        let access = read_access(header, || take(&mut body).map(u64::from_le_bytes));
        out.push(access.ok_or(Truncated)?);
    }
    Ok(out)
}

/// A trace held in memory in a compact form, to be rebuilt any number of
/// times.
///
/// Each access is the v1 header byte followed by its page ids in LEB128
/// (7 bits a byte, low bits first): a page id below 128 takes one byte
/// and one below 16,384 two, where [`encode`] always spends eight. At
/// the default scale a graph app's page ids are below 2,304, so its
/// recording is about a quarter of its v1 encoding. A recording is
/// built from accesses this process holds, so unlike [`decode`],
/// [`Recording::to_trace`] has no malformed input to reject.
///
/// # Examples
///
/// ```
/// use gmt_mem::{trace::Recording, PageId, WarpAccess};
/// let t = vec![
///     WarpAccess::read(PageId(1)),
///     WarpAccess::scattered(vec![PageId(300), PageId(u64::MAX)], true),
/// ];
/// let recording = Recording::new(&t);
/// assert_eq!(recording.byte_len(), 2 + 1 + 2 + 10);
/// assert_eq!(recording.to_trace(), t);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    bytes: Box<[u8]>,
    accesses: usize,
}

impl Recording {
    /// Records `accesses`.
    ///
    /// # Panics
    ///
    /// Panics if an access touches no page or more than 127 distinct
    /// pages, as [`encode`] does.
    pub fn new(accesses: &[WarpAccess]) -> Recording {
        let mut bytes = Vec::with_capacity(accesses.len() * 3);
        for access in accesses {
            bytes.push(header(access));
            for page in access.pages.iter() {
                let mut id = page.0;
                while id >= 0x80 {
                    bytes.push(id as u8 | 0x80);
                    id >>= 7;
                }
                bytes.push(id as u8);
            }
        }
        Recording {
            bytes: bytes.into_boxed_slice(),
            accesses: accesses.len(),
        }
    }

    /// Bytes the recording holds.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Rebuilds the recorded trace, equal to the one passed to
    /// [`Recording::new`].
    pub fn to_trace(&self) -> Vec<WarpAccess> {
        let mut out = Vec::with_capacity(self.accesses);
        let mut body = &self.bytes[..];
        while let Some(access) =
            take(&mut body).and_then(|[header]| read_access(header, || read_leb128(&mut body)))
        {
            out.push(access);
        }
        out
    }
}

/// An access's header byte: bit 7 the write flag, bits 0..7 the page
/// count.
///
/// # Panics
///
/// Panics if the access touches no page or more than 127.
fn header(access: &WarpAccess) -> u8 {
    let n = access.pages.len();
    assert!(n > 0 && n <= 127, "access page count {n} out of range");
    (n as u8) | if access.write { 0x80 } else { 0 }
}

/// Builds the access `header` announces, reading each of its page ids
/// with `page`; `None` if `page` runs out first. A one-page access goes
/// straight into [`PageSet::One`], with no `Vec` on the way.
fn read_access(header: u8, mut page: impl FnMut() -> Option<u64>) -> Option<WarpAccess> {
    let n = usize::from(header & 0x7F);
    let pages = if n == 1 {
        PageSet::One(PageId(page()?))
    } else {
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            pages.push(PageId(page()?));
        }
        PageSet::Many(pages.into_boxed_slice())
    };
    Some(WarpAccess {
        pages,
        write: header & 0x80 != 0,
    })
}

/// Consumes one LEB128-encoded `u64` from the front of `buf`, or returns
/// `None` if `buf` ends inside it.
fn read_leb128(buf: &mut &[u8]) -> Option<u64> {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let [byte] = take(buf)?;
        value |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Consumes the first `N` bytes of `buf`, or returns `None` if fewer
/// remain.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<WarpAccess> {
        vec![
            WarpAccess::read(PageId(0)),
            WarpAccess::write(PageId(u64::MAX)),
            WarpAccess::scattered(vec![PageId(5), PageId(9), PageId(1)], false),
            WarpAccess::scattered((0..32).map(PageId).collect(), true),
        ]
    }

    /// `encode(&sample())`, byte for byte: the format is a contract with
    /// traces recorded earlier.
    const SAMPLE_BYTES: [u8; 318] = [
        71, 77, 84, 84, 82, 65, 67, 69, 1, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0,
        129, 255, 255, 255, 255, 255, 255, 255, 255, 3, 5, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0,
        0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 160, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0,
        0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 6,
        0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0,
        0, 10, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 13, 0, 0, 0,
        0, 0, 0, 0, 14, 0, 0, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 17,
        0, 0, 0, 0, 0, 0, 0, 18, 0, 0, 0, 0, 0, 0, 0, 19, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0,
        0, 0, 21, 0, 0, 0, 0, 0, 0, 0, 22, 0, 0, 0, 0, 0, 0, 0, 23, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0,
        0, 0, 0, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0, 26, 0, 0, 0, 0, 0, 0, 0, 27, 0, 0, 0, 0, 0, 0, 0,
        28, 0, 0, 0, 0, 0, 0, 0, 29, 0, 0, 0, 0, 0, 0, 0, 30, 0, 0, 0, 0, 0, 0, 0, 31, 0, 0, 0, 0,
        0, 0, 0,
    ];

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        assert_eq!(encode(&t), SAMPLE_BYTES);
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t: Vec<WarpAccess> = Vec::new();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = encode(&sample());
        b[0] = b'X';
        assert_eq!(decode(&b), Err(DecodeTraceError::BadMagic));
        assert_eq!(decode(&[]), Err(DecodeTraceError::BadMagic));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut b = encode(&sample());
        b[8] = 9;
        assert_eq!(decode(&b), Err(DecodeTraceError::UnsupportedVersion(9)));
    }

    #[test]
    fn truncation_detected() {
        let b = encode(&sample());
        for cut in [19, b.len() - 1] {
            assert_eq!(
                decode(&b[..cut]),
                Err(DecodeTraceError::Truncated),
                "cut {cut}"
            );
        }
        // A header that declares more accesses than any body could hold.
        let mut huge = b[..10].to_vec();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&huge), Err(DecodeTraceError::Truncated));
    }

    #[test]
    fn zero_page_access_rejected() {
        let mut b = encode(&[WarpAccess::read(PageId(1))]);
        b[18] &= 0x80; // clear the page count
        assert_eq!(decode(&b), Err(DecodeTraceError::EmptyAccess));
    }

    #[test]
    fn single_page_accesses_decode_inline() {
        let decoded = decode(&SAMPLE_BYTES).unwrap();
        assert!(matches!(decoded[0].pages, PageSet::One(PageId(0))));
        assert!(matches!(decoded[1].pages, PageSet::One(PageId(u64::MAX))));
        assert!(matches!(decoded[2].pages, PageSet::Many(_)));
        let replayed = Recording::new(&sample()).to_trace();
        assert!(matches!(replayed[0].pages, PageSet::One(PageId(0))));
    }

    #[test]
    fn recording_replays_the_sample() {
        let t = sample();
        let recording = Recording::new(&t);
        assert_eq!(recording.to_trace(), t);
        assert_eq!(
            recording.to_trace(),
            t,
            "a recording replays any number of times"
        );
        // Headers 4; page 0 one byte; u64::MAX ten; 5, 9 and 1 one each;
        // 0..32 one each.
        assert_eq!(recording.byte_len(), 4 + 1 + 10 + 3 + 32);
        assert_eq!(Recording::new(&[]).byte_len(), 0);
        assert_eq!(Recording::new(&[]).to_trace(), Vec::new());
    }

    #[test]
    fn recording_page_ids_take_seven_bits_a_byte() {
        for (id, bytes) in [
            (127, 1),
            (128, 2),
            (2_303, 2),
            (16_383, 2),
            (16_384, 3),
            (1 << 63, 10),
        ] {
            let t = [WarpAccess::read(PageId(id))];
            let recording = Recording::new(&t);
            assert_eq!(recording.byte_len(), 1 + bytes, "page {id}");
            assert_eq!(recording.to_trace(), t, "page {id}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn recording_rejects_an_empty_access() {
        Recording::new(&[WarpAccess::scattered(Vec::new(), false)]);
    }

    #[test]
    fn size_is_compact() {
        let t = vec![WarpAccess::read(PageId(1)); 1000];
        assert_eq!(encode(&t).len(), 18 + 1000 * 9);
    }
}
