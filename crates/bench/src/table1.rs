//! Table 1: LUT memory analysis for different receptive-field sizes and bin
//! counts.

use crate::report::Report;
use volut_core::lut::memory::{table1_rows, MemoryModel};

/// Regenerates Table 1.
pub fn run() -> Report {
    let mut report = Report::new(
        "table1",
        "Memory analysis for different LUT configurations (float16 offsets)",
        &["RF size (n)", "Bins (b)", "Entries", "Size", "Paper"],
    );
    let paper = ["12 MB", "1.5 MB", "1.61 GB", "100 MB", "201 GB", "6.25 GB"];
    for (row, paper_size) in table1_rows().iter().zip(paper.iter()) {
        report.add_row(vec![
            row.receptive_field.to_string(),
            row.bins.to_string(),
            row.entries.to_string(),
            row.formatted.clone(),
            (*paper_size).to_string(),
        ]);
    }
    report.push_note(
        "entry count follows the byte figures of the paper's Table 1 (b^n entries x 6 bytes); \
         the prose formula b^(3n) is exposed as MemoryModel::full_entries",
    );
    report.push_note(&format!(
        "deployed configuration (n=4, b=128) = {}",
        MemoryModel::format_bytes(MemoryModel::new(4, 128).compact_bytes())
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_six_rows_matching_paper_sizes() {
        let r = run();
        assert_eq!(r.rows.len(), 6);
        assert!(r.rows[2][3].contains("GB")); // n=4, b=128 ~ 1.5 GB
        assert!(r.rows[0][3].contains("MB")); // n=3, b=128 ~ 12 MB
        assert!(!r.notes.is_empty());
    }
}
