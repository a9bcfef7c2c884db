//! Versioned, digest-protected on-disk checkpoints of a sweep in flight.
//!
//! ## Layout (little-endian)
//!
//! ```text
//! magic    "QXSWEEP1"                       8 bytes
//! version  u32                              currently 3
//! length   u64                              payload bytes
//! digest   u64                              FNV-1a 64 over the payload
//! payload:
//!   n_energies u64 | n_blocks u64 | block_size u64     shape fingerprint
//!   n_finished u64
//!   per finished point:
//!     bias f64 | temperature f64
//!     current f64 | electron_charge f64 | peak_spectral_current f64
//!     iterations u64 | converged u8 | residual f64
//!     n_residuals u64, then n_residuals × f64
//!     n_contractions u64, then n_contractions × f64 | mixing_restarts u64
//!     warm_started u8 | warm_source i64 | bytes_restored u64
//!     bytes_per_rank_per_iteration u64
//!     warm-state wire: n_values u64, then n_values × (re f64, im f64)
//!   n_pending u64
//!   per pending point: bias f64 | temperature f64
//! ```
//!
//! The warm-state wire section is byte-for-byte the
//! [`quatrex_core::dist::WarmState`] stream, so a resumed engine warm-starts its remaining points from exactly the
//! state the interrupted run would have used. Phase timings are *not*
//! checkpointed: they are measurements of a run, not solver state.
//!
//! Every malformation — wrong magic, unknown version, truncation, a flipped
//! payload byte, a fingerprint from a different device — decodes to a named
//! [`SweepError`], never a panic.

use quatrex_core::dist::WarmStateWireError;
use quatrex_linalg::c64;

/// File magic of the sweep checkpoint format.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"QXSWEEP1";
/// Current checkpoint format version.
pub(crate) const CHECKPOINT_VERSION: u32 = 3;

/// Named failures of sweep serving and checkpoint decode.
#[derive(Debug)]
pub enum SweepError {
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file's format version is not the one this build reads and writes.
    UnsupportedVersion(u32),
    /// The file ends before the structure it promises.
    Truncated,
    /// The payload digest disagrees with the header — the file is corrupt.
    DigestMismatch {
        /// Digest recorded in the header.
        expected: u64,
        /// Digest of the payload as read.
        found: u64,
    },
    /// The checkpoint's device/grid shape disagrees with the engine it is
    /// being resumed into.
    ShapeMismatch {
        /// `(n_energies, n_blocks, block_size)` in the checkpoint.
        checkpoint: (usize, usize, usize),
        /// `(n_energies, n_blocks, block_size)` of the resuming engine.
        engine: (usize, usize, usize),
    },
    /// A warm-state wire section failed to decode.
    Wire(WarmStateWireError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            Self::BadMagic => write!(f, "not a sweep checkpoint (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {CHECKPOINT_VERSION})")
            }
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::DigestMismatch { expected, found } => write!(
                f,
                "checkpoint integrity digest mismatch (header {expected:#018x}, payload {found:#018x})"
            ),
            Self::ShapeMismatch { checkpoint, engine } => write!(
                f,
                "checkpoint shape {checkpoint:?} disagrees with engine shape {engine:?}"
            ),
            Self::Wire(e) => write!(f, "checkpoint warm-state stream invalid: {e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WarmStateWireError> for SweepError {
    fn from(e: WarmStateWireError) -> Self {
        Self::Wire(e)
    }
}

/// FNV-1a 64-bit digest — the payload integrity check.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// --------------------------------------------------------------------------
// Little-endian payload primitives.

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_wire(buf: &mut Vec<u8>, values: &[c64]) {
    put_u64(buf, values.len() as u64);
    for v in values {
        put_f64(buf, v.re);
        put_f64(buf, v.im);
    }
}

/// Bounds-checked read cursor over a checkpoint payload: every overrun is
/// [`SweepError::Truncated`].
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SweepError> {
        if self.pos + n > self.data.len() {
            return Err(SweepError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SweepError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, SweepError> {
        Ok(self.u64()? as i64)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SweepError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SweepError> {
        Ok(self.take(1)?[0])
    }

    /// A length-prefixed run of `f64`s.
    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, SweepError> {
        let n = self.u64()? as usize;
        // Bound the count by the bytes left before allocating for it.
        if self.data.len().saturating_sub(self.pos) < n.saturating_mul(8) {
            return Err(SweepError::Truncated);
        }
        (0..n).map(|_| self.f64()).collect()
    }

    pub(crate) fn wire(&mut self) -> Result<Vec<c64>, SweepError> {
        let n = self.u64()? as usize;
        // Cheap sanity bound before allocating: every value needs 16 bytes.
        if self.data.len().saturating_sub(self.pos) < n.saturating_mul(16) {
            return Err(SweepError::Truncated);
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let re = self.f64()?;
            let im = self.f64()?;
            values.push(c64::new(re, im));
        }
        Ok(values)
    }

    pub(crate) fn finished(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Frame `payload` with the magic/version/length/digest header.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut file = Vec::with_capacity(28 + payload.len());
    file.extend_from_slice(CHECKPOINT_MAGIC);
    file.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&fnv1a(payload).to_le_bytes());
    file.extend_from_slice(payload);
    file
}

/// Strip and verify the header; returns the payload slice.
pub(crate) fn unframe(file: &[u8]) -> Result<&[u8], SweepError> {
    if file.len() < 8 {
        return Err(SweepError::BadMagic);
    }
    if &file[..8] != CHECKPOINT_MAGIC {
        return Err(SweepError::BadMagic);
    }
    if file.len() < 28 {
        return Err(SweepError::Truncated);
    }
    let version = u32::from_le_bytes([file[8], file[9], file[10], file[11]]);
    if version != CHECKPOINT_VERSION {
        return Err(SweepError::UnsupportedVersion(version));
    }
    let length = u64::from_le_bytes([
        file[12], file[13], file[14], file[15], file[16], file[17], file[18], file[19],
    ]) as usize;
    let expected = u64::from_le_bytes([
        file[20], file[21], file[22], file[23], file[24], file[25], file[26], file[27],
    ]);
    let payload = &file[28..];
    if payload.len() != length {
        return Err(SweepError::Truncated);
    }
    let found = fnv1a(payload);
    if found != expected {
        return Err(SweepError::DigestMismatch { expected, found });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let payload = b"sweep payload".to_vec();
        let file = frame(&payload);
        assert_eq!(unframe(&file).expect("clean frame"), payload.as_slice());
    }

    #[test]
    fn corruption_is_a_named_error() {
        let file = frame(b"sweep payload");
        let mut bad = file.clone();
        *bad.last_mut().expect("non-empty") ^= 0x01;
        assert!(matches!(
            unframe(&bad),
            Err(SweepError::DigestMismatch { .. })
        ));
        assert!(matches!(
            unframe(&file[..file.len() - 1]),
            Err(SweepError::Truncated)
        ));
        let mut wrong = file.clone();
        wrong[0] = b'Z';
        assert!(matches!(unframe(&wrong), Err(SweepError::BadMagic)));
        // Any version but the current one is refused by number — the
        // previous format (no residual history) as much as a future one.
        for version in [1u8, 9] {
            let mut other = file.clone();
            other[8] = version;
            assert!(matches!(
                unframe(&other),
                Err(SweepError::UnsupportedVersion(v)) if v == u32::from(version)
            ));
        }
    }

    #[test]
    fn cursor_overrun_is_truncated() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 7);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u64().expect("in bounds"), 7);
        assert!(matches!(cur.f64(), Err(SweepError::Truncated)));
        assert!(cur.finished());
    }
}
