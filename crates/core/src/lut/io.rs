//! Serialization of LUTs to a compact binary file format.
//!
//! The paper stores its LUT as an `.npy` file; here we use an equally
//! language-neutral little-endian binary layout (documented below) with the
//! extension `.vlut`. The file lists the populated entries of a
//! [`DenseLut`]:
//!
//! ```text
//! magic "VLUT"            4 bytes
//! version                 u8  (currently 2)
//! receptive_field         u8
//! bins                    u16 LE
//! entry_count             u64 LE
//! entries                 entry_count × (key u128 LE, 3 × f16 LE)
//! ```
//!
//! Keys are absolute, as the encoder emits them. [`decode`] sizes the
//! table from the header's receptive field and bins, which must form a
//! valid encoder configuration: the table covers the encoder's
//! [`PositionEncoder::reachable_keys`], so the memory it allocates is
//! bounded by [`DenseLut::DEFAULT_BYTE_BUDGET`] on that range. The entries
//! must fill the buffer exactly and every key must lie in the key space;
//! a key inside the key space that no probe can reach is dropped, as
//! [`crate::registry::ContentModel::from_dense`] drops it.

use super::dense::DenseLut;
use super::f16::{f16_bits_to_f32, f32_to_f16_bits};
use super::Lut;
use crate::config::SrConfig;
use crate::encoding::{KeyScheme, PositionEncoder};
use crate::error::Error;
use crate::Result;
use std::path::Path;

const MAGIC: &[u8; 4] = b"VLUT";
const VERSION: u8 = 2;
/// Magic, version, receptive field, bins and entry count.
const HEADER_BYTES: usize = 4 + 1 + 1 + 2 + 8;
/// One serialized entry: a `u128` key and three `f16` offset components.
const ENTRY_BYTES: usize = 16 + 3 * 2;

/// Metadata describing how a serialized LUT was built; stored in the file
/// header so the client can reconstruct a compatible [`PositionEncoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutHeader {
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
    pub lut: DenseLut,
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

/// Serializes the populated entries of a LUT.
pub fn encode(lut: &DenseLut, header: LutHeader) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + lut.populated() * ENTRY_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&[VERSION, header.receptive_field as u8]);
    buf.extend_from_slice(&(header.bins as u16).to_le_bytes());
    buf.extend_from_slice(&(lut.populated() as u64).to_le_bytes());
    for (key, offset) in lut.iter() {
        buf.extend_from_slice(&key.to_le_bytes());
        for c in offset {
            buf.extend_from_slice(&f32_to_f16_bits(c).to_le_bytes());
        }
    }
    buf
}

/// Deserializes a LUT produced by [`encode`].
///
/// # Errors
/// Returns [`Error::LutFormat`] for truncated or malformed input, a header
/// that is not a valid encoder configuration or whose table exceeds the
/// byte budget on its reachable range, an entry count that does not fill
/// the buffer exactly, or a key outside the key space.
pub fn decode(data: &[u8]) -> Result<LoadedLut> {
    let mut r = Reader { data };
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(Error::LutFormat(format!("bad magic {magic:?}")));
    }
    let [version, receptive_field] = r.array()?;
    if version != VERSION {
        return Err(Error::LutFormat(format!("unsupported version {version}")));
    }
    let header = LutHeader {
        receptive_field: usize::from(receptive_field),
        bins: usize::from(u16::from_le_bytes(r.array()?)),
    };
    let config = SrConfig {
        receptive_field: header.receptive_field,
        bins: header.bins,
        ..SrConfig::default()
    };
    let encoder = PositionEncoder::new(&config, KeyScheme::Compact)
        .map_err(|e| Error::LutFormat(format!("header: {e}")))?;
    let (key_space, reachable) = (encoder.key_space(), encoder.reachable_keys());
    let count = u64::from_le_bytes(r.array()?);
    if count.checked_mul(ENTRY_BYTES as u64) != Some(r.data.len() as u64) {
        return Err(Error::LutFormat(format!(
            "{count} entries of {ENTRY_BYTES} bytes do not fill the {} bytes left",
            r.data.len()
        )));
    }
    let mut lut = DenseLut::over(reachable.clone())?;
    for _ in 0..count {
        let key = u128::from_le_bytes(r.array()?);
        let mut offset = [0.0; 3];
        for c in &mut offset {
            *c = f16_bits_to_f32(u16::from_le_bytes(r.array()?));
        }
        if key >= key_space {
            return Err(Error::LutFormat(format!(
                "key {key} outside the key space {key_space}"
            )));
        }
        if reachable.contains(&key) {
            lut.set(key, offset)?;
        }
    }
    Ok(LoadedLut { header, lut })
}

/// Writes a LUT to a `.vlut` file.
///
/// # Errors
/// Propagates any underlying I/O error.
pub fn write<P: AsRef<Path>>(lut: &DenseLut, header: LutHeader, path: P) -> Result<()> {
    std::fs::write(path, encode(lut, header))?;
    Ok(())
}

/// Reads a `.vlut` file written by [`write()`].
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
            receptive_field: 4,
            bins: 16,
        }
    }

    /// An empty table of [`header`]'s whole key space, 16⁴ keys.
    fn table() -> DenseLut {
        DenseLut::new(1 << 16).unwrap()
    }

    /// [`header`]'s reachable keys: the centre's code 0b1110 heads each.
    const REACHABLE: std::ops::Range<u128> = 14 << 12..15 << 12;

    /// A header of the given receptive field, bins and entry count, followed
    /// by `tail` bytes of entry data.
    fn crafted(receptive_field: u8, bins: u16, count: u64, tail: usize) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[VERSION, receptive_field]);
        bytes.extend_from_slice(&bins.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.resize(bytes.len() + tail, 0);
        bytes
    }

    /// The file lists only the populated keys: a sparse entry list of a
    /// dense table, loaded back into a table of the header's reachable
    /// keys. A key the encoder cannot emit is dropped.
    #[test]
    fn sparse_roundtrip() {
        let mut lut = table();
        lut.set(REACHABLE.start, [0.5, -0.5, 0.25]).unwrap();
        lut.set(REACHABLE.end - 1, [0.0, 1.0, 0.0]).unwrap();
        lut.set(1, [1.0, 1.0, 1.0]).unwrap();
        let loaded = decode(&encode(&lut, header())).unwrap();
        assert_eq!(loaded.header, header());
        assert_eq!(loaded.lut.keys(), REACHABLE);
        assert_eq!(loaded.lut.populated(), 2);
        assert_eq!(loaded.lut.get(REACHABLE.start), Some([0.5, -0.5, 0.25]));
        assert_eq!(loaded.lut.get(REACHABLE.end - 1), Some([0.0, 1.0, 0.0]));
        assert_eq!(loaded.lut.get(1), None);
    }

    /// A table over the reachable keys round-trips exactly at the ledger's
    /// 32 bins and the paper's 128, whose whole key space is over budget.
    #[test]
    fn reachable_roundtrip_at_32_and_128_bins() {
        for bins in [32, 128] {
            let header = LutHeader {
                receptive_field: 4,
                bins,
            };
            let config = SrConfig {
                bins,
                ..SrConfig::default()
            };
            let keys = PositionEncoder::new(&config, KeyScheme::Compact)
                .unwrap()
                .reachable_keys();
            let mut lut = DenseLut::over(keys.clone()).unwrap();
            for key in keys.clone().step_by(997).chain([keys.end - 1]) {
                lut.set(key, [key as f32 * 1e-9, -0.125, 0.5]).unwrap();
            }
            let loaded = decode(&encode(&lut, header)).unwrap();
            assert_eq!(loaded.header, header);
            assert_eq!(loaded.lut.keys(), keys);
            assert_eq!(loaded.lut.populated(), lut.populated());
            assert!(loaded.lut.iter().eq(lut.iter()), "b {bins}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let mut lut = table();
        for i in 0..50u128 {
            lut.set(REACHABLE.start + i * 7, [i as f32 * 0.01, 0.0, -0.25])
                .unwrap();
        }
        let dir = std::env::temp_dir().join("volut_lut_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.vlut");
        write(&lut, header(), &path).unwrap();
        let loaded = read_lut(&path).unwrap();
        assert_eq!(loaded.lut.populated(), 50);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(decode(b"short").is_err());
        let mut lut = table();
        lut.set(1, [0.0; 3]).unwrap();
        let bytes = encode(&lut, header());
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
        // Version 1 carried backend and scheme bytes.
        let mut bad = bytes.clone();
        bad[4] = 1;
        assert!(decode(&bad).is_err());
        // A key outside the 16⁴-key space.
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + 2] = 1;
        assert!(decode(&bad).is_err());
        // Headers that are no encoder configuration: too few bins or
        // points, or a key wider than 128 bits (9 points × 16 bits).
        for (receptive_field, bins) in [(4, 0), (4, 1), (1, 16), (0, 16), (9, u16::MAX)] {
            let bytes = crafted(receptive_field, bins, 0, 0);
            assert!(decode(&bytes).is_err(), "n {receptive_field} b {bins}");
        }
    }

    /// A 22-byte file whose entry count times 22 wraps to the 6 bytes that
    /// follow the header: rejected before any table is allocated. An
    /// unchecked multiply would pass the length check and read 2^60 entries.
    #[test]
    fn decode_rejects_an_entry_count_that_overflows() {
        let count = u64::MAX / ENTRY_BYTES as u64 + 1;
        let tail = count.wrapping_mul(ENTRY_BYTES as u64) as usize;
        assert_eq!(tail, 6);
        let bytes = crafted(4, 16, count, tail);
        assert_eq!(bytes.len(), HEADER_BYTES + 6);
        assert!(decode(&bytes).is_err());
    }

    /// A 16-byte header whose reachable range is over the byte budget —
    /// 128⁴ keys at n = 5 (1.5 GiB), and 2¹¹² at n = 8, b = 65 535 — is
    /// rejected, not allocated.
    #[test]
    fn decode_rejects_a_dense_header_without_allocating_its_key_space() {
        for (receptive_field, bins) in [(5, 128), (8, u16::MAX)] {
            let bytes = crafted(receptive_field, bins, 0, 0);
            assert_eq!(bytes.len(), HEADER_BYTES);
            assert!(decode(&bytes).is_err(), "n {receptive_field} b {bins}");
        }
    }
}
