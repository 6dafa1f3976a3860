//! Serialization of LUTs to a compact binary file format.
//!
//! The paper stores its LUT as an `.npy` file; here we use an equally
//! language-neutral little-endian binary layout (documented below) with the
//! extension `.vlut`:
//!
//! ```text
//! magic "VLUT"            4 bytes
//! version                 u8  (currently 1)
//! backend                 u8  (0 = sparse, the only backend)
//! scheme                  u8  (0 = full, 1 = compact)
//! receptive_field         u8
//! bins                    u16 LE
//! key_space               u128 LE   (reserved; written as 0, ignored)
//! entry_count             u64 LE
//! entries                 entry_count × (key u128 LE, 3 × f16 LE)
//! ```
//!
//! [`decode`] is bounded by its input: the entries must fill the buffer
//! exactly, so a header can never ask for more table than its bytes hold.

use super::f16::{f16_bits_to_f32, f32_to_f16_bits};
use super::sparse::SparseLut;
use super::Lut;
use crate::encoding::KeyScheme;
use crate::error::Error;
use crate::Result;
use std::path::Path;

const MAGIC: &[u8; 4] = b"VLUT";
const VERSION: u8 = 1;
const BACKEND_SPARSE: u8 = 0;
/// Magic, four header bytes, bins, key space and entry count.
const HEADER_BYTES: usize = 4 + 4 + 2 + 16 + 8;
/// One serialized entry: a `u128` key and three `f16` offset components.
const ENTRY_BYTES: usize = 16 + 3 * 2;

/// Metadata describing how a serialized LUT was built; stored in the file
/// header so the client can reconstruct a compatible [`crate::encoding::PositionEncoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutHeader {
    /// Key scheme the LUT was built with.
    pub scheme: KeyScheme,
    /// Receptive-field size `n`.
    pub receptive_field: usize,
    /// Quantization bins `b`.
    pub bins: usize,
}

/// A deserialized LUT plus its header.
#[derive(Debug, Clone)]
pub struct LoadedLut {
    /// Header metadata.
    pub header: LutHeader,
    /// The table itself.
    pub lut: SparseLut,
}

fn scheme_byte(s: KeyScheme) -> u8 {
    match s {
        KeyScheme::Full => 0,
        KeyScheme::Compact => 1,
    }
}

fn scheme_from_byte(b: u8) -> Result<KeyScheme> {
    match b {
        0 => Ok(KeyScheme::Full),
        1 => Ok(KeyScheme::Compact),
        other => Err(Error::LutFormat(format!("unknown key scheme byte {other}"))),
    }
}

/// Cursor over a received buffer; a read past the end is a format error.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.data.len() < n {
            return Err(Error::LutFormat(format!(
                "truncated: needed {n} more bytes, found {}",
                self.data.len()
            )));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self.take(N)?;
        Ok(bytes.try_into().expect("take returns N bytes"))
    }
}

/// Serializes a sparse LUT.
pub fn encode_sparse(lut: &SparseLut, header: LutHeader) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + lut.populated() * ENTRY_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&[
        VERSION,
        BACKEND_SPARSE,
        scheme_byte(header.scheme),
        header.receptive_field as u8,
    ]);
    buf.extend_from_slice(&(header.bins as u16).to_le_bytes());
    buf.extend_from_slice(&0u128.to_le_bytes());
    buf.extend_from_slice(&(lut.populated() as u64).to_le_bytes());
    for (key, offset) in lut.iter() {
        buf.extend_from_slice(&key.to_le_bytes());
        for c in offset {
            buf.extend_from_slice(&f32_to_f16_bits(c).to_le_bytes());
        }
    }
    buf
}

/// Deserializes a LUT produced by [`encode_sparse`].
///
/// # Errors
/// Returns [`Error::LutFormat`] for truncated or malformed input, an
/// unknown backend, or an entry count that does not fill the buffer
/// exactly.
pub fn decode(data: &[u8]) -> Result<LoadedLut> {
    let mut r = Reader { data };
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(Error::LutFormat(format!("bad magic {magic:?}")));
    }
    let [version, backend, scheme, receptive_field] = r.array()?;
    if version != VERSION {
        return Err(Error::LutFormat(format!("unsupported version {version}")));
    }
    if backend != BACKEND_SPARSE {
        return Err(Error::LutFormat(format!("unknown backend byte {backend}")));
    }
    let header = LutHeader {
        scheme: scheme_from_byte(scheme)?,
        receptive_field: usize::from(receptive_field),
        bins: usize::from(u16::from_le_bytes(r.array()?)),
    };
    r.take(16)?; // key_space, reserved
    let count = u64::from_le_bytes(r.array()?);
    if count.checked_mul(ENTRY_BYTES as u64) != Some(r.data.len() as u64) {
        return Err(Error::LutFormat(format!(
            "{count} entries of {ENTRY_BYTES} bytes do not fill the {} bytes left",
            r.data.len()
        )));
    }
    let mut lut = SparseLut::with_capacity(count as usize);
    for _ in 0..count {
        let key = u128::from_le_bytes(r.array()?);
        let mut offset = [0.0; 3];
        for c in &mut offset {
            *c = f16_bits_to_f32(u16::from_le_bytes(r.array()?));
        }
        lut.set(key, offset)?;
    }
    Ok(LoadedLut { header, lut })
}

/// Writes a sparse LUT to a `.vlut` file.
///
/// # Errors
/// Propagates any underlying I/O error.
pub fn write_sparse<P: AsRef<Path>>(lut: &SparseLut, header: LutHeader, path: P) -> Result<()> {
    std::fs::write(path, encode_sparse(lut, header))?;
    Ok(())
}

/// Reads a `.vlut` file written by [`write_sparse`].
///
/// # Errors
/// Propagates I/O errors and format errors.
pub fn read_lut<P: AsRef<Path>>(path: P) -> Result<LoadedLut> {
    decode(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> LutHeader {
        LutHeader {
            scheme: KeyScheme::Full,
            receptive_field: 4,
            bins: 128,
        }
    }

    /// A header of the given backend, key space and entry count, followed
    /// by `tail` bytes of entry data.
    fn crafted(backend: u8, key_space: u128, count: u64, tail: usize) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[VERSION, backend, 0, 4]);
        bytes.extend_from_slice(&128u16.to_le_bytes());
        bytes.extend_from_slice(&key_space.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.resize(bytes.len() + tail, 0);
        bytes
    }

    #[test]
    fn sparse_roundtrip() {
        let mut lut = SparseLut::new();
        lut.set(1, [0.5, -0.5, 0.25]).unwrap();
        lut.set(u128::MAX / 2, [0.0, 1.0, 0.0]).unwrap();
        let loaded = decode(&encode_sparse(&lut, header())).unwrap();
        assert_eq!(loaded.header, header());
        assert_eq!(loaded.lut.populated(), 2);
        assert_eq!(loaded.lut.get(1), Some([0.5, -0.5, 0.25]));
        assert_eq!(loaded.lut.get(u128::MAX / 2), Some([0.0, 1.0, 0.0]));
    }

    #[test]
    fn file_roundtrip() {
        let mut lut = SparseLut::new();
        for i in 0..50u128 {
            lut.set(i * 7, [i as f32 * 0.01, 0.0, -0.25]).unwrap();
        }
        let dir = std::env::temp_dir().join("volut_lut_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.vlut");
        write_sparse(&lut, header(), &path).unwrap();
        let loaded = read_lut(&path).unwrap();
        assert_eq!(loaded.lut.populated(), 50);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(decode(b"short").is_err());
        let mut lut = SparseLut::new();
        lut.set(1, [0.0; 3]).unwrap();
        let bytes = encode_sparse(&lut, header());
        // Corrupt the magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode(&bad).is_err());
        // Truncate the entries.
        assert!(decode(&bytes[..bytes.len() - 4]).is_err());
        // Trailing bytes.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(decode(&bad).is_err());
        // Corrupt the backend byte; 1 was the retired dense backend.
        for backend in [1, 9] {
            let mut bad = bytes.clone();
            bad[5] = backend;
            assert!(decode(&bad).is_err());
        }
    }

    /// A 40-byte file whose entry count times 22 wraps to the 6 bytes that
    /// follow the header: rejected before any table is allocated. An
    /// unchecked multiply would pass the length check and size a 2^60-slot
    /// table.
    #[test]
    fn decode_rejects_an_entry_count_that_overflows() {
        let count = u64::MAX / ENTRY_BYTES as u64 + 1;
        assert_eq!(count.wrapping_mul(ENTRY_BYTES as u64), 6);
        let bytes = crafted(BACKEND_SPARSE, 0, count, 6);
        assert_eq!(bytes.len(), HEADER_BYTES + 6);
        assert!(decode(&bytes).is_err());
    }

    /// A 34-byte file in the retired dense backend claiming a 2^40-key
    /// space: rejected as an unknown backend, not sized as a 6 TiB table.
    #[test]
    fn decode_rejects_a_dense_header_without_allocating_its_key_space() {
        let bytes = crafted(1, 1 << 40, 0, 0);
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert!(decode(&bytes).is_err());
    }
}
