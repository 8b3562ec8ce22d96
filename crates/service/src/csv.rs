//! The one CSV codec behind [`crate::csvio`]'s AIS, track and gap
//! formats: a typed, line-numbering decoder and a buffered writer.

use crate::csvio::IoError;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::str::FromStr;

/// The one CSV decoder every reader shares: a header row naming the
/// columns (in any order; unknown ones are ignored), then one record per
/// non-blank line. Fields are comma-separated and trimmed. A row must
/// have exactly the header's field count, and every field a reader
/// asks for must parse — an empty field is an error, never a default.
pub(crate) struct CsvDecoder<'t> {
    header: Vec<&'t str>,
    lines: std::iter::Enumerate<std::str::Lines<'t>>,
    /// 1-based line number of the current row.
    line: usize,
    fields: Vec<&'t str>,
}

impl<'t> CsvDecoder<'t> {
    pub(crate) fn new(text: &'t str) -> Self {
        let mut lines = text.lines().enumerate();
        let header = lines.next().map_or("", |(_, h)| h);
        Self {
            header: header.split(',').map(str::trim).collect(),
            lines,
            line: 1,
            fields: Vec::new(),
        }
    }

    /// Position of the column `name`, when the header has it.
    pub(crate) fn column(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| *h == name)
    }

    /// Position of the column `name`, which the header must have.
    pub(crate) fn required(&self, name: &'static str) -> Result<usize, IoError> {
        self.column(name).ok_or(IoError::MissingColumn(name))
    }

    /// Advances to the next non-blank row; `false` past the last one.
    pub(crate) fn next_row(&mut self) -> Result<bool, IoError> {
        let Some((index, row)) = self.lines.by_ref().find(|(_, row)| !row.trim().is_empty()) else {
            return Ok(false);
        };
        self.line = index + 1;
        self.fields.clear();
        self.fields.extend(row.split(',').map(str::trim));
        let (found, expected) = (self.fields.len(), self.header.len());
        if found < expected {
            return Err(IoError::BadField {
                line: self.line,
                column: self.header[found].to_string(),
                value: None,
            });
        }
        if found > expected {
            return Err(IoError::ExtraFields {
                line: self.line,
                expected,
                found,
            });
        }
        Ok(true)
    }

    /// The current row's field in column `index`, parsed.
    pub(crate) fn field<T: FromStr>(&self, index: usize) -> Result<T, IoError> {
        let raw = self.fields[index];
        raw.parse().map_err(|_| IoError::BadField {
            line: self.line,
            column: self.header[index].to_string(),
            value: Some(raw.to_string()),
        })
    }

    /// [`CsvDecoder::field`] of an optional column; `default` when the
    /// header lacks it.
    pub(crate) fn field_or<T: FromStr>(
        &self,
        index: Option<usize>,
        default: T,
    ) -> Result<T, IoError> {
        index.map_or(Ok(default), |i| self.field(i))
    }
}

/// Everything `reader` yields, as text.
pub(crate) fn read_text<R: Read>(mut reader: R) -> Result<String, IoError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    Ok(text)
}

/// Writes `header` and then whatever `rows` writes to a new file at
/// `path`, buffered.
pub(crate) fn write_csv(
    path: &Path,
    header: &str,
    rows: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), IoError> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    rows(&mut out)?;
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row's fields, decoded as `T`.
    fn decode<T: FromStr + std::fmt::Debug>(text: &str) -> Result<Vec<Vec<T>>, IoError> {
        let mut csv = CsvDecoder::new(text);
        let columns = csv.header.len();
        let mut rows = Vec::new();
        while csv.next_row()? {
            rows.push(
                (0..columns)
                    .map(|i| csv.field(i))
                    .collect::<Result<_, _>>()?,
            );
        }
        Ok(rows)
    }

    #[test]
    fn round_trip() {
        let text = "mmsi,t,lat\n123,-60,55.5\n456,0,56.25\n";
        let mut csv = CsvDecoder::new(text);
        let mut rows: Vec<(u64, i64, f64)> = Vec::new();
        while csv.next_row().unwrap() {
            rows.push((
                csv.field(0).unwrap(),
                csv.field(1).unwrap(),
                csv.field(2).unwrap(),
            ));
        }
        let path = std::env::temp_dir().join(format!("habit-csv-{}.csv", std::process::id()));
        write_csv(&path, "mmsi,t,lat", |out| {
            for (mmsi, t, lat) in &rows {
                writeln!(out, "{mmsi},{t},{lat}")?;
            }
            Ok(())
        })
        .unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, text);
    }

    #[test]
    fn type_promotion_int_to_float() {
        assert_eq!(
            decode::<f64>("v\n1\n2.5\n3\n").unwrap(),
            [[1.0], [2.5], [3.0]]
        );
    }

    #[test]
    fn crlf_and_blank_lines() {
        assert_eq!(
            decode::<i64>("a\r\n1\r\n\r\n  \n2\r\n").unwrap(),
            [[1], [2]]
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = decode::<i64>("a,b\n1,2\n\n3,x\n").unwrap_err();
        assert!(
            matches!(&err, IoError::BadField { line: 4, column, value: Some(v) } if column == "b" && v == "x"),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "line 4, field `b`: cannot parse `x`");
        // An empty field is an error, not a null or a zero.
        let err = decode::<f64>("a,b\n1,\n").unwrap_err();
        assert!(
            matches!(&err, IoError::BadField { line: 2, column, value: Some(v) } if column == "b" && v.is_empty()),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "line 2, field `b` is empty");
        // No header names no column.
        assert!(matches!(
            CsvDecoder::new("").required("a"),
            Err(IoError::MissingColumn("a"))
        ));
    }

    /// The field-count rule: every row has exactly the header's field
    /// count. A short row names the first column it lacks, a long row
    /// its count; both name the line.
    #[test]
    fn rows_must_have_the_header_field_count() {
        let err = decode::<i64>("a,b,c\n1,2,3\n4\n").unwrap_err();
        assert!(
            matches!(&err, IoError::BadField { line: 3, column, value: None } if column == "b"),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "line 3: row has no field for column `b`");
        let err = decode::<i64>("a,b\n1,2,\n").unwrap_err();
        assert!(
            matches!(
                err,
                IoError::ExtraFields {
                    line: 2,
                    expected: 2,
                    found: 3
                }
            ),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "line 2: 3 fields, the header has 2");
    }
}
