//! Experiment report formatting and persistence.

use serde::{Serialize, Value};
use std::fs;
use std::path::Path;

/// A table of results corresponding to one paper table or figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment identifier, e.g. "table1" or "fig12".
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (substitutions, caveats, paper-reported values).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn add_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn push_note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }

    /// Renders the report as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
            .collect();
        out.push_str(&header_line.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join(" | ").len()));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes the report as JSON to `dir/<id>.json`, creating `dir` if needed.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_json<P: AsRef<Path>>(&self, dir: P) -> std::io::Result<()> {
        fs::create_dir_all(&dir)?;
        let path = dir.as_ref().join(format!("{}.json", self.id));
        let json = serde_json::to_string_pretty(self).expect("report serializes");
        fs::write(path, json)
    }
}

/// A JSON object with the fields in declaration order.
impl Serialize for Report {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("id".to_string(), self.id.to_value()),
            ("title".to_string(), self.title.to_value()),
            ("headers".to_string(), self.headers.to_value()),
            ("rows".to_string(), self.rows.to_value()),
            ("notes".to_string(), self.notes.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_headers_rows_and_notes() {
        let mut r = Report::new("figX", "Example", &["a", "bb"]);
        r.add_row(vec!["1".into(), "2".into()]);
        r.add_row(vec!["333".into(), "4".into()]);
        r.push_note("synthetic data");
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("a "));
        assert!(text.contains("333"));
        assert!(text.contains("note: synthetic data"));
    }

    #[test]
    fn json_roundtrip() {
        let mut r = Report::new("t", "T", &["x"]);
        r.add_row(vec!["y".into()]);
        let dir = std::env::temp_dir().join("volut_bench_report_test");
        r.write_json(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("t.json")).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r.to_value());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pins the exact bytes `write_json` writes: the experiments' JSON
    /// files must not change with the serializer.
    #[test]
    fn write_json_bytes_are_pinned() {
        let mut r = Report::new("fig0", "Demo", &["a", "b"]);
        r.add_row(vec!["1".into(), "x".into()]);
        r.add_row(vec!["2".into(), "y".into()]);
        r.push_note("paper: \"42 FPS\"");
        let dir = std::env::temp_dir().join("volut_bench_report_pin_test");
        r.write_json(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("fig0.json")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let expected = r#"{
  "id": "fig0",
  "title": "Demo",
  "headers": [
    "a",
    "b"
  ],
  "rows": [
    [
      "1",
      "x"
    ],
    [
      "2",
      "y"
    ]
  ],
  "notes": [
    "paper: \"42 FPS\""
  ]
}"#;
        assert_eq!(text, expected);
    }
}
