//! LUT memory model (Table 1, Eq. 5 and Eq. 7).
//!
//! The paper analyzes the memory footprint of dense lookup tables for
//! different receptive-field sizes `n` and bin counts `b`. The prose gives
//! `N_entries = b^(n×3)` (Eq. 5), but the byte figures in Table 1 follow
//! `b^n` entries of three `float16` offsets (6 bytes per entry); both
//! quantities are exposed here, and [`table1_rows`] reproduces the table
//! using the accounting that matches its published numbers.

/// Memory model for a dense LUT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    /// Receptive-field size `n`.
    pub receptive_field: usize,
    /// Quantization bins `b`.
    pub bins: usize,
}

impl MemoryModel {
    /// Creates a memory model for the given configuration.
    pub fn new(receptive_field: usize, bins: usize) -> Self {
        Self {
            receptive_field,
            bins,
        }
    }

    /// Number of dense entries under the *compact* (per-point) indexing that
    /// matches Table 1: `b^n`. Saturates at `u128::MAX`.
    pub fn compact_entries(&self) -> u128 {
        checked_pow(self.bins as u128, self.receptive_field as u32)
    }

    /// Number of entries under the *full* per-coordinate indexing of Eq. 5:
    /// `b^(3n)`. Saturates at `u128::MAX`.
    pub fn full_entries(&self) -> u128 {
        checked_pow(self.bins as u128, (self.receptive_field * 3) as u32)
    }

    /// Bytes needed to store one entry: three offsets × 2 bytes (`float16`).
    pub const fn bytes_per_entry() -> u128 {
        6
    }

    /// Total bytes of a dense compact LUT (`compact_entries × 6`).
    pub fn compact_bytes(&self) -> u128 {
        self.compact_entries()
            .saturating_mul(Self::bytes_per_entry())
    }

    /// Human-friendly size string (B/KB/MB/GB/TB with one decimal).
    pub fn format_bytes(bytes: u128) -> String {
        const UNITS: [&str; 6] = ["B", "KB", "MB", "GB", "TB", "PB"];
        let mut value = bytes as f64;
        let mut unit = 0;
        while value >= 1024.0 && unit < UNITS.len() - 1 {
            value /= 1024.0;
            unit += 1;
        }
        if unit == 0 {
            format!("{bytes} B")
        } else {
            format!("{value:.2} {}", UNITS[unit])
        }
    }
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryRow {
    /// Receptive-field size `n`.
    pub receptive_field: usize,
    /// Bins `b`.
    pub bins: usize,
    /// Dense entry count used for the byte figure (`b^n`).
    pub entries: u128,
    /// Total bytes (`entries × 6`).
    pub bytes: u128,
    /// Pretty-printed size.
    pub formatted: String,
}

/// Reproduces Table 1: memory requirements for
/// `(n, b) ∈ {3, 4, 5} × {128, 64}` in the paper's row order.
pub fn table1_rows() -> Vec<MemoryRow> {
    let configs = [(3, 128), (3, 64), (4, 128), (4, 64), (5, 128), (5, 64)];
    configs
        .iter()
        .map(|&(n, b)| {
            let model = MemoryModel::new(n, b);
            let entries = model.compact_entries();
            let bytes = model.compact_bytes();
            MemoryRow {
                receptive_field: n,
                bins: b,
                entries,
                bytes,
                formatted: MemoryModel::format_bytes(bytes),
            }
        })
        .collect()
}

fn checked_pow(base: u128, exp: u32) -> u128 {
    let mut acc: u128 = 1;
    for _ in 0..exp {
        acc = acc.saturating_mul(base);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        // Paper Table 1 (with 2-byte float16 per offset component):
        //   n=3 b=128 -> ~12 MB     n=3 b=64 -> ~1.5 MB
        //   n=4 b=128 -> ~1.61 GB   n=4 b=64 -> ~100 MB
        //   n=5 b=128 -> ~201 GB    n=5 b=64 -> ~6.25 GB
        let rows = table1_rows();
        assert_eq!(rows.len(), 6);
        let gb = 1024f64 * 1024.0 * 1024.0;
        let mb = 1024f64 * 1024.0;
        let approx = |actual: u128, expected: f64| {
            let a = actual as f64;
            (a - expected).abs() / expected < 0.15
        };
        assert!(
            approx(rows[0].bytes, 12.0 * mb),
            "n=3 b=128: {}",
            rows[0].formatted
        );
        assert!(
            approx(rows[1].bytes, 1.5 * mb),
            "n=3 b=64: {}",
            rows[1].formatted
        );
        assert!(
            approx(rows[2].bytes, 1.61 * gb),
            "n=4 b=128: {}",
            rows[2].formatted
        );
        assert!(
            approx(rows[3].bytes, 100.0 * mb),
            "n=4 b=64: {}",
            rows[3].formatted
        );
        assert!(
            approx(rows[4].bytes, 201.0 * gb),
            "n=5 b=128: {}",
            rows[4].formatted
        );
        assert!(
            approx(rows[5].bytes, 6.25 * gb),
            "n=5 b=64: {}",
            rows[5].formatted
        );
    }

    #[test]
    fn entry_counts() {
        let m = MemoryModel::new(4, 128);
        assert_eq!(m.compact_entries(), 128u128.pow(4));
        assert_eq!(m.full_entries(), 128u128.pow(12));
        assert_eq!(m.compact_bytes(), 128u128.pow(4) * 6);
    }

    #[test]
    fn saturation_does_not_overflow() {
        let m = MemoryModel::new(20, 65536);
        assert_eq!(m.full_entries(), u128::MAX);
    }

    #[test]
    fn formatting() {
        assert_eq!(MemoryModel::format_bytes(512), "512 B");
        assert!(MemoryModel::format_bytes(2048).contains("KB"));
        assert!(MemoryModel::format_bytes(3 * 1024 * 1024).contains("MB"));
        assert!(MemoryModel::format_bytes(5u128 * 1024 * 1024 * 1024).contains("GB"));
    }
}
