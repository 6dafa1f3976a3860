//! Dense (flat-array) LUT storage.

use super::f16::{f16_bits_to_f32, f32_to_f16_bits};
use super::{Lut, Offset};
use crate::error::Error;
use crate::Result;
use std::ops::Range;

/// Dense LUT: a flat array over one contiguous range of keys, three
/// `float16` offsets per entry, plus an occupancy bitmap.
///
/// This is the storage layout whose footprint Table 1 analyzes. A table
/// over a whole `b^n` key space is what [`DenseLut::new`] builds; a table
/// that is served or distilled covers only
/// [`crate::encoding::PositionEncoder::reachable_keys`], the `1/b` of the
/// key space that the constant centre code leaves reachable
/// ([`DenseLut::over`], [`DenseLut::narrowed`]). Keys stay absolute: `get`,
/// `set` and `iter` take and yield the encoder's own keys. A table is only
/// allowed up to a byte budget on its range length: the paper's `b = 128`,
/// `n = 4` configuration needs 1.5 GiB over the whole key space and
/// 12.3 MiB over its reachable range.
///
/// # Example
///
/// ```
/// use volut_core::lut::{dense::DenseLut, Lut};
/// let mut lut = DenseLut::over(1000..1100).unwrap();
/// lut.set(1042, [0.1, -0.2, 0.05]).unwrap();
/// let got = lut.get(1042).unwrap();
/// assert!((got[0] - 0.1).abs() < 1e-3);
/// assert!(lut.get(1043).is_none());
/// assert!(lut.get(42).is_none());
/// assert!(lut.set(42, [0.0; 3]).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct DenseLut {
    /// `float16` bit patterns, one `[x, y, z]` per entry; entry `i` holds
    /// key `start + i`.
    offsets: Vec<[u16; 3]>,
    /// One bit per entry marking populated slots. Key `key` sits at bit
    /// `key % 64` of its word, so the words of two tables over different
    /// ranges line up and a narrowed copy is one slice.
    occupancy: Vec<u64>,
    start: u128,
    populated: usize,
}

impl DenseLut {
    /// Default maximum allowed allocation: 256 MiB of offset storage.
    pub const DEFAULT_BYTE_BUDGET: u128 = 256 * 1024 * 1024;

    /// Creates an empty dense LUT over the keys `0..key_space`.
    ///
    /// # Errors
    /// Returns [`Error::LutFormat`] when `key_space` is zero or the table
    /// would exceed [`Self::DEFAULT_BYTE_BUDGET`].
    pub fn new(key_space: u128) -> Result<Self> {
        if key_space == 0 {
            return Err(Error::LutFormat(
                "dense lut key space must be non-zero".into(),
            ));
        }
        Self::over(0..key_space)
    }

    /// Creates an empty dense LUT over the keys in `keys` (empty when
    /// `keys` is).
    ///
    /// # Errors
    /// Returns [`Error::LutFormat`] when the range's offset storage would
    /// exceed [`Self::DEFAULT_BYTE_BUDGET`].
    pub fn over(keys: Range<u128>) -> Result<Self> {
        let len = keys.end.saturating_sub(keys.start);
        let bytes = len.saturating_mul(6);
        let budget = Self::DEFAULT_BYTE_BUDGET;
        if bytes > budget {
            return Err(Error::LutFormat(format!(
                "dense lut of {len} entries needs {bytes} bytes, exceeding the budget of {budget}; use fewer bins"
            )));
        }
        let len = len as usize;
        let lead = (keys.start % 64) as usize;
        Ok(Self {
            offsets: vec![[0u16; 3]; len],
            occupancy: vec![0u64; words(lead, len).len()],
            start: keys.start,
            populated: 0,
        })
    }

    /// The keys this table covers.
    pub fn keys(&self) -> Range<u128> {
        self.start..self.start + self.offsets.len() as u128
    }

    /// The entries whose keys lie in `keys`, in a table over the overlap of
    /// `keys` with [`Self::keys`] (empty when they do not meet). This
    /// table's storage is freed: publishing a table built over a whole key
    /// space keeps only its reachable range.
    pub fn narrowed(self, keys: Range<u128>) -> Self {
        let own = self.keys();
        let lo = keys.start.clamp(own.start, own.end);
        let hi = keys.end.clamp(lo, own.end);
        let (a, b) = ((lo - self.start) as usize, (hi - self.start) as usize);
        // Bits sit at `key % 64` in both tables: the overlap's words are
        // one slice, with the bits of keys outside it cleared at the edges.
        let lead = (self.start % 64) as usize;
        let (first, last) = (a + lead, b + lead);
        let mut occupancy = self.occupancy[words(first, b - a)].to_vec();
        if let Some(word) = occupancy.first_mut() {
            *word &= u64::MAX << (first % 64);
        }
        if let (Some(word), tail @ 1..) = (occupancy.last_mut(), last % 64) {
            *word &= u64::MAX >> (64 - tail);
        }
        Self {
            offsets: self.offsets[a..b].to_vec(),
            populated: occupancy.iter().map(|w| w.count_ones() as usize).sum(),
            occupancy,
            start: lo,
        }
    }

    /// Entry index of `key`, when it lies in the table's range.
    #[inline]
    fn index(&self, key: u128) -> Option<usize> {
        let idx = key.wrapping_sub(self.start);
        (idx < self.offsets.len() as u128).then_some(idx as usize)
    }

    /// Word and bit mask of entry `idx` in the occupancy bitmap.
    #[inline]
    fn bit(&self, idx: usize) -> (usize, u64) {
        let at = idx + (self.start % 64) as usize;
        (at / 64, 1u64 << (at % 64))
    }

    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        let (word, bit) = self.bit(idx);
        self.occupancy[word] & bit != 0
    }

    /// Iterates over `(key, offset)` pairs of populated entries, in key
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, Offset)> + '_ {
        (0..self.offsets.len())
            .filter(move |&i| self.is_occupied(i))
            .map(move |i| (self.start + i as u128, self.read(i)))
    }

    #[inline]
    fn read(&self, idx: usize) -> Offset {
        let [x, y, z] = self.offsets[idx];
        [f16_bits_to_f32(x), f16_bits_to_f32(y), f16_bits_to_f32(z)]
    }
}

/// The occupancy words holding bits `first..first + len`: none when the
/// range is empty.
fn words(first: usize, len: usize) -> Range<usize> {
    match len {
        0 => 0..0,
        _ => first / 64..(first + len).div_ceil(64),
    }
}

/// The error of a `set` outside the key range, kept out of line so that
/// `set` stays small enough to inline.
#[cold]
#[inline(never)]
fn key_outside(key: u128, keys: Range<u128>) -> Error {
    Error::LutFormat(format!("key {key} outside dense lut key range {keys:?}"))
}

// `get` and `set` are `#[inline]` so that a per-entry fill or probe loop in
// another crate (the e2e ledger's content build fills 2²⁰ entries) inlines
// the f16 codec instead of calling it three times per entry.
impl Lut for DenseLut {
    #[inline]
    fn get(&self, key: u128) -> Option<Offset> {
        let idx = self.index(key)?;
        self.is_occupied(idx).then(|| self.read(idx))
    }

    #[inline]
    fn set(&mut self, key: u128, offset: Offset) -> Result<()> {
        let Some(idx) = self.index(key) else {
            return Err(key_outside(key, self.keys()));
        };
        // Three explicit calls: `array::map` does not inline here.
        let [x, y, z] = offset;
        self.offsets[idx] = [f32_to_f16_bits(x), f32_to_f16_bits(y), f32_to_f16_bits(z)];
        let (word, bit) = self.bit(idx);
        let word = &mut self.occupancy[word];
        self.populated += usize::from(*word & bit == 0);
        *word |= bit;
        Ok(())
    }

    fn populated(&self) -> usize {
        self.populated
    }

    fn memory_bytes(&self) -> usize {
        self.offsets.len() * 6 + self.occupancy.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_with_f16_precision() {
        let mut lut = DenseLut::new(100).unwrap();
        lut.set(7, [0.25, -0.5, 1.0]).unwrap();
        assert_eq!(lut.get(7), Some([0.25, -0.5, 1.0]));
        assert_eq!(lut.populated(), 1);
        // Overwrite does not increase the population count.
        lut.set(7, [0.1, 0.1, 0.1]).unwrap();
        assert_eq!(lut.populated(), 1);
    }

    #[test]
    fn misses_return_none() {
        let lut = DenseLut::new(16).unwrap();
        assert!(lut.get(3).is_none());
        assert!(lut.get(999).is_none());
    }

    #[test]
    fn out_of_range_set_is_rejected() {
        let mut lut = DenseLut::new(8).unwrap();
        assert!(lut.set(8, [0.0; 3]).is_err());
    }

    #[test]
    fn budget_is_enforced() {
        // 128^4 entries * 6 bytes ≈ 1.6 GB exceeds the default budget; the
        // budget is on the range's length, not on where it starts.
        assert!(DenseLut::new(128u128.pow(4)).is_err());
        assert!(DenseLut::over(1 << 100..(1 << 100) + (1 << 20)).is_ok());
        assert!(DenseLut::over(1 << 100..(1 << 100) + 128u128.pow(4)).is_err());
        assert!(DenseLut::new(0).is_err());
        assert_eq!(DenseLut::over(5..5).unwrap().memory_bytes(), 0);
    }

    /// A table over `keys` with every third key populated, each with its
    /// own offset.
    fn every_third(keys: Range<u128>) -> DenseLut {
        let mut lut = DenseLut::over(keys.clone()).unwrap();
        for key in keys.step_by(3) {
            lut.set(key, [key as f32 * 1e-3, 0.5, -0.25]).unwrap();
        }
        lut
    }

    #[test]
    fn a_range_table_takes_absolute_keys() {
        let lut = every_third(70..200);
        assert_eq!(lut.keys(), 70..200);
        assert_eq!(lut.populated(), 44);
        assert!(lut.iter().map(|(key, _)| key).eq((70..200).step_by(3)));
        assert_eq!(lut.get(73).map(|[_, y, z]| [y, z]), Some([0.5, -0.25]));
        assert!(lut.get(69).is_none() && lut.get(200).is_none() && lut.get(74).is_none());
        // 130 entries whose bits start at bit 6 of the first word: three words.
        assert_eq!(lut.memory_bytes(), 130 * 6 + 3 * 8);
    }

    /// Narrowing keeps exactly the entries inside the range, for ranges on
    /// and off a word boundary, inside, across either edge of and outside
    /// the table's own range.
    #[test]
    fn narrowing_keeps_the_overlap() {
        for own in [0..1000u128, 64..640, 70..1001] {
            let full = every_third(own.clone());
            for keys in [
                128..512u128,
                100..131,
                3..67,
                900..5000,
                0..5000,
                2000..3000,
                300..300,
            ] {
                let narrow = full.clone().narrowed(keys.clone());
                let lo = keys.start.clamp(own.start, own.end);
                assert_eq!(
                    narrow.keys(),
                    lo..keys.end.clamp(lo, own.end),
                    "{own:?} ∩ {keys:?}"
                );
                let expect: Vec<_> = full.iter().filter(|(key, _)| keys.contains(key)).collect();
                assert!(
                    narrow.iter().eq(expect.iter().copied()),
                    "{own:?} ∩ {keys:?}"
                );
                assert_eq!(narrow.populated(), expect.len());
                for key in 0..1100 {
                    let want = full.get(key).filter(|_| keys.contains(&key));
                    assert_eq!(narrow.get(key), want, "key {key}");
                }
            }
        }
    }

    #[test]
    fn memory_accounting_matches_layout() {
        let lut = DenseLut::new(1024).unwrap();
        assert_eq!(lut.memory_bytes(), 1024 * 6 + (1024 / 64) * 8);
    }

    #[test]
    fn get_batch_matches_get() {
        let mut lut = DenseLut::new(1 << 12).unwrap();
        for key in (0..1u128 << 12).step_by(3) {
            lut.set(key, [0.125, -0.25, 0.5]).unwrap();
        }
        // Mix of populated, unpopulated and out-of-range keys.
        let keys: Vec<u128> = (0..500u128).map(|i| i * 11).collect();
        let mut batch = vec![None; keys.len()];
        lut.get_batch(&keys, &mut batch);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(batch[i], lut.get(key), "key {key}");
        }
    }

    #[test]
    fn iteration_yields_only_populated() {
        let mut lut = DenseLut::new(64).unwrap();
        lut.set(1, [1.0, 0.0, 0.0]).unwrap();
        lut.set(63, [0.0, 1.0, 0.0]).unwrap();
        let entries: Vec<(u128, Offset)> = lut.iter().collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 1);
        assert_eq!(entries[1].0, 63);
    }
}
