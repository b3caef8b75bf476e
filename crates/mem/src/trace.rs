//! Compact binary serialization of access traces.
//!
//! Workload traces can run to millions of accesses; re-generating a graph
//! and re-running BFS for every experiment is wasteful when the same trace
//! is replayed across five systems. This module provides a compact binary
//! encoding (~9 bytes per single-page access) for recording a trace once
//! and replaying it many times, or for importing traces captured outside
//! this workspace.
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

use crate::{PageId, WarpAccess};

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
/// Panics if an access touches more than 127 distinct pages (a warp can
/// touch at most 32).
pub fn encode(accesses: &[WarpAccess]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18 + accesses.len() * 9);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(accesses.len() as u64).to_le_bytes());
    for access in accesses {
        let n = access.pages.len();
        assert!(n > 0 && n <= 127, "access page count {n} out of range");
        buf.push((n as u8) | if access.write { 0x80 } else { 0 });
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
        let n = (header & 0x7F) as usize;
        if n == 0 {
            return Err(EmptyAccess);
        }
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            let page = take(&mut body).map(u64::from_le_bytes).ok_or(Truncated)?;
            pages.push(PageId(page));
        }
        out.push(WarpAccess::scattered(pages, header & 0x80 != 0));
    }
    Ok(out)
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
    fn size_is_compact() {
        let t = vec![WarpAccess::read(PageId(1)); 1000];
        assert_eq!(encode(&t).len(), 18 + 1000 * 9);
    }
}
