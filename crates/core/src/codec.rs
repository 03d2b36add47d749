//! The one byte-level reader behind all three binary formats: ADSN telemetry
//! streams ([`ingest`](crate::ingest)), ADSR fleet reports and ADSP summary
//! spools ([`shard`](crate::shard)).  Layouts are specified in
//! `docs/WIRE_FORMAT.md`.
//!
//! Every format opens with the same 8-byte header — 4 magic bytes, a
//! little-endian `u16` version, a `u16` flags field that must be zero — and
//! is read through a [`ByteCursor`], which bounds-checks each read and
//! reports failures in its format's error variant
//! ([`AdaSenseError::Ingest`] for ADSN, [`AdaSenseError::Shard`] for ADSR and
//! ADSP).

use crate::error::AdaSenseError;

/// One binary format: its header identity and the error variant its decoder
/// reports.
#[derive(Debug)]
pub(crate) struct Format {
    /// Magic bytes opening the header.
    pub(crate) magic: [u8; 4],
    /// Versions a reader accepts.
    pub(crate) versions: &'static [u16],
    /// Builds this format's error from a reason.
    pub(crate) error: fn(String) -> AdaSenseError,
}

impl Format {
    /// A cursor over `bytes` reporting this format's errors.
    pub(crate) fn cursor<'a>(&'static self, bytes: &'a [u8]) -> ByteCursor<'a> {
        ByteCursor { bytes, format: self }
    }
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteCursor<'a> {
    bytes: &'a [u8],
    format: &'static Format,
}

impl<'a> ByteCursor<'a> {
    /// Wraps encoded ADSR report bytes; errors are [`AdaSenseError::Shard`].
    pub fn new(bytes: &'a [u8]) -> Self {
        crate::shard::ADSR.cursor(bytes)
    }

    fn error(&self, reason: String) -> AdaSenseError {
        (self.format.error)(reason)
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Reads the next `n` bytes as a slice.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], AdaSenseError> {
        let Some((head, tail)) = self.bytes.split_at_checked(n) else {
            return Err(self.truncated(n));
        };
        self.bytes = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], AdaSenseError> {
        let Some((head, tail)) = self.bytes.split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.bytes = tail;
        Ok(*head)
    }

    fn truncated(&self, needed: usize) -> AdaSenseError {
        self.error(format!("encoding truncated: needed {needed} bytes, {} left", self.bytes.len()))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, AdaSenseError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads one little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, AdaSenseError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads one little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, AdaSenseError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads one little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, AdaSenseError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads one little-endian `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, AdaSenseError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads `rows` rows of `N` little-endian `f64` bit patterns each, with
    /// one bounds check for the whole block.
    pub(crate) fn f64_rows<const N: usize>(
        &mut self,
        rows: usize,
    ) -> Result<impl ExactSizeIterator<Item = [f64; N]> + 'a, AdaSenseError> {
        let bytes = self.take(rows.saturating_mul(8 * N))?;
        let (rows, _) = bytes.as_chunks::<8>().0.as_chunks::<N>();
        Ok(rows.iter().map(|row| row.map(f64::from_le_bytes)))
    }

    /// Reads and checks the 8-byte format header: the magic, an accepted
    /// version and zero flags.
    pub(crate) fn header(&mut self) -> Result<(), AdaSenseError> {
        let format = self.format;
        let magic = self.array::<4>()?;
        let name = String::from_utf8_lossy(&format.magic);
        if magic != format.magic {
            return Err(self.error(format!("bad magic {magic:02x?} (expected `{name}`)")));
        }
        let version = self.u16()?;
        if !format.versions.contains(&version) {
            return Err(self.error(format!(
                "unsupported {name} version {version} (this build speaks {:?})",
                format.versions
            )));
        }
        let flags = self.u16()?;
        if flags != 0 {
            return Err(self.error(format!("unsupported {name} header flags {flags:#06x}")));
        }
        Ok(())
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), AdaSenseError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(self.error(format!("{} trailing bytes after the encoded value", self.bytes.len())))
        }
    }
}

/// Writes a `u16`-length-prefixed UTF-8 string.
pub(crate) fn encode_str(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "label longer than a spool string frame");
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a `u16`-length-prefixed UTF-8 string.
pub(crate) fn decode_str(cursor: &mut ByteCursor<'_>) -> Result<String, AdaSenseError> {
    let len = cursor.u16()? as usize;
    let bytes = cursor.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| cursor.error("label is not valid UTF-8".into()))
}
