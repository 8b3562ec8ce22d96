//! CSV I/O between the system's file formats and the library types.
//!
//! Moved here from `habit-cli` so every frontend — the CLI adapters,
//! the daemon's `fit` operation, tests — shares one set of converters.
//! Three formats:
//!
//! * **AIS CSV** — `mmsi,t,lon,lat,sog,cog,heading`, one row per report
//!   (the format `habit synth` writes and `habit fit` reads);
//! * **track CSV** — `t,lon,lat`, a single vessel's time-ordered track
//!   (`habit repair` / `habit impute` output);
//! * **gap CSV** — `lon1,lat1,t1,lon2,lat2,t2`, one gap query per row
//!   (`habit batch` input; output is a track CSV with a leading `gap`
//!   column tying points back to their query row).
//!
//! Each reader has a path-based and a `Read`-based variant; the latter
//! is what `--input -` (stdin) plumbs into. All readers share one typed
//! decoder: a row must have the header's field count, and an empty or
//! unparsable field in any column the header names is an error naming
//! its line and column — never a default. Only a column the header
//! lacks takes its default.

use crate::csv::{read_text, write_csv, CsvDecoder};
use ais::{AisPoint, Trajectory};
use geo_kernel::TimedPoint;
use habit_core::{GapQuery, Imputation, PointProvenance};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::path::Path;

/// I/O errors with file context.
#[derive(Debug)]
pub enum IoError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file is missing a required column.
    MissingColumn(&'static str),
    /// One field of one row is missing or could not be parsed (1-based
    /// line number, the header counting as line 1).
    BadField {
        /// 1-based line number of the offending row.
        line: usize,
        /// Name of the offending column.
        column: String,
        /// The raw field text, or `None` when the row ended before it.
        value: Option<String>,
    },
    /// A row has more fields than the header names.
    ExtraFields {
        /// 1-based line number of the offending row.
        line: usize,
        /// Number of header columns.
        expected: usize,
        /// Number of fields in the row.
        found: usize,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "csv: io error: {e}"),
            IoError::MissingColumn(c) => write!(f, "missing column `{c}`"),
            IoError::BadField {
                line,
                column,
                value: None,
            } => write!(f, "line {line}: row has no field for column `{column}`"),
            IoError::BadField {
                line,
                column,
                value: Some(value),
            } if value.is_empty() => write!(f, "line {line}, field `{column}` is empty"),
            IoError::BadField {
                line,
                column,
                value: Some(value),
            } => write!(f, "line {line}, field `{column}`: cannot parse `{value}`"),
            IoError::ExtraFields {
                line,
                expected,
                found,
            } => write!(f, "line {line}: {found} fields, the header has {expected}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<IoError> for crate::ServiceError {
    fn from(e: IoError) -> Self {
        let code = match &e {
            IoError::Io(_) => crate::ErrorCode::Io,
            IoError::BadField { .. } | IoError::ExtraFields { .. } => crate::ErrorCode::Csv,
            IoError::MissingColumn(_) => crate::ErrorCode::BadInput,
        };
        crate::ServiceError::new(code, e.to_string())
    }
}

fn ais_from_text(text: &str) -> Result<Vec<Trajectory>, IoError> {
    let mut csv = CsvDecoder::new(text);
    let mmsi = csv.required("mmsi")?;
    let t = csv.required("t")?;
    let lon = csv.required("lon")?;
    let lat = csv.required("lat")?;
    let [sog, cog, heading] = ["sog", "cog", "heading"].map(|name| csv.column(name));

    let mut per_vessel: BTreeMap<u64, Vec<AisPoint>> = BTreeMap::new();
    while csv.next_row()? {
        let mut p = AisPoint::new(
            csv.field(mmsi)?,
            csv.field(t)?,
            csv.field(lon)?,
            csv.field(lat)?,
            csv.field_or(sog, 0.0)?,
            csv.field_or(cog, 0.0)?,
        );
        p.heading = csv.field_or(heading, p.cog)?;
        per_vessel.entry(p.mmsi).or_default().push(p);
    }
    Ok(per_vessel
        .into_iter()
        .map(|(mmsi, points)| Trajectory::new(mmsi, points))
        .collect())
}

/// Reads an AIS CSV into one trajectory per MMSI (sorted by time).
///
/// Required columns: `mmsi`, `t`, `lon`, `lat`; optional: `sog`, `cog`
/// (0 when absent) and `heading` (the course when absent).
pub fn read_ais_csv(path: &Path) -> Result<Vec<Trajectory>, IoError> {
    ais_from_text(&std::fs::read_to_string(path)?)
}

/// Reads an AIS CSV from any reader (e.g. stdin).
pub fn read_ais_csv_reader<R: Read>(reader: R) -> Result<Vec<Trajectory>, IoError> {
    ais_from_text(&read_text(reader)?)
}

/// Writes trajectories as an AIS CSV.
pub fn write_ais_csv(trajectories: &[Trajectory], path: &Path) -> Result<(), IoError> {
    write_csv(path, "mmsi,t,lon,lat,sog,cog,heading", |out| {
        for p in trajectories.iter().flat_map(|traj| &traj.points) {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                p.mmsi, p.t, p.pos.lon, p.pos.lat, p.sog, p.cog, p.heading
            )?;
        }
        Ok(())
    })
}

fn track_from_text(text: &str) -> Result<Vec<TimedPoint>, IoError> {
    let mut csv = CsvDecoder::new(text);
    let t = csv.required("t")?;
    let lon = csv.required("lon")?;
    let lat = csv.required("lat")?;
    let mut points = Vec::new();
    while csv.next_row()? {
        points.push(TimedPoint::new(
            csv.field(lon)?,
            csv.field(lat)?,
            csv.field(t)?,
        ));
    }
    points.sort_by_key(|p| p.t);
    Ok(points)
}

/// Reads a single-vessel track CSV (`t,lon,lat`), sorted by time.
pub fn read_track_csv(path: &Path) -> Result<Vec<TimedPoint>, IoError> {
    track_from_text(&std::fs::read_to_string(path)?)
}

/// Reads a track CSV from any reader (e.g. stdin).
pub fn read_track_csv_reader<R: Read>(reader: R) -> Result<Vec<TimedPoint>, IoError> {
    track_from_text(&read_text(reader)?)
}

/// Writes a track CSV (`t,lon,lat`).
pub fn write_track_csv(points: &[TimedPoint], path: &Path) -> Result<(), IoError> {
    write_csv(path, "t,lon,lat", |out| {
        for p in points {
            writeln!(out, "{},{},{}", p.t, p.pos.lon, p.pos.lat)?;
        }
        Ok(())
    })
}

fn gaps_from_text(text: &str) -> Result<Vec<GapQuery>, IoError> {
    let mut csv = CsvDecoder::new(text);
    let [lon1, lat1, t1, lon2, lat2, t2] =
        ["lon1", "lat1", "t1", "lon2", "lat2", "t2"].map(|name| csv.required(name));
    let (lon1, lat1, t1, lon2, lat2, t2) = (lon1?, lat1?, t1?, lon2?, lat2?, t2?);
    let mut gaps = Vec::new();
    while csv.next_row()? {
        gaps.push(GapQuery::new(
            csv.field(lon1)?,
            csv.field(lat1)?,
            csv.field(t1)?,
            csv.field(lon2)?,
            csv.field(lat2)?,
            csv.field(t2)?,
        ));
    }
    Ok(gaps)
}

/// Reads a gap-query CSV (`lon1,lat1,t1,lon2,lat2,t2`), one query per
/// row, in row order. Parse failures name the 1-based line and field.
pub fn read_gaps_csv(path: &Path) -> Result<Vec<GapQuery>, IoError> {
    gaps_from_text(&std::fs::read_to_string(path)?)
}

/// Reads a gap-query CSV from any reader (e.g. stdin).
pub fn read_gaps_csv_reader<R: Read>(reader: R) -> Result<Vec<GapQuery>, IoError> {
    gaps_from_text(&read_text(reader)?)
}

/// Writes imputed batch results as a track CSV with a leading `gap`
/// column (`gap,t,lon,lat`); failed queries contribute no rows.
pub fn write_batch_csv(results: &[Option<&Imputation>], path: &Path) -> Result<(), IoError> {
    write_csv(path, "gap,t,lon,lat", |out| {
        for (i, result) in results.iter().enumerate() {
            for p in result.iter().flat_map(|imp| &imp.points) {
                writeln!(out, "{i},{},{},{}", p.t, p.pos.lon, p.pos.lat)?;
            }
        }
        Ok(())
    })
}

/// Header of the provenance CSV (`habit impute --provenance`).
pub const PROVENANCE_HEADER: &str =
    "t,lon,lat,kind,cell,from_cell,cell_msgs,edge_transitions,cost_share,confidence";

/// One provenance CSV row (without the trailing newline or any leading
/// columns). Coordinates and shares use fixed 6-decimal formatting so
/// the bytes are identical across runs and backends.
fn provenance_row(out: &mut String, p: &TimedPoint, r: &PointProvenance) {
    let cell = r.cell.map_or(String::new(), |c| format!("{:#x}", c.raw()));
    let from = r
        .from_cell
        .map_or(String::new(), |c| format!("{:#x}", c.raw()));
    let _ = write!(
        out,
        "{},{:.6},{:.6},{},{},{},{},{},{:.6},{:.6}",
        p.t,
        p.pos.lon,
        p.pos.lat,
        r.kind.as_str(),
        cell,
        from,
        r.cell_msgs,
        r.edge_transitions,
        r.cost_share,
        r.confidence
    );
}

/// Renders an imputation's per-point provenance as CSV text
/// (`t,lon,lat,kind,cell,from_cell,…`); rows pair points with their
/// provenance records positionally.
pub fn render_provenance_csv(imp: &Imputation) -> String {
    let records = imp.provenance.as_deref().unwrap_or(&[]);
    let mut out = String::from(PROVENANCE_HEADER);
    out.push('\n');
    for (p, r) in imp.points.iter().zip(records) {
        provenance_row(&mut out, p, r);
        out.push('\n');
    }
    out
}

/// Writes [`render_provenance_csv`] to `path`.
pub fn write_provenance_csv(imp: &Imputation, path: &Path) -> Result<(), IoError> {
    Ok(std::fs::write(path, render_provenance_csv(imp))?)
}

/// Writes batch results with provenance as a provenance CSV with a
/// leading `gap` column; failed queries and results without provenance
/// contribute no rows.
pub fn write_batch_provenance_csv(
    results: &[Option<&Imputation>],
    path: &Path,
) -> Result<(), IoError> {
    let mut out = String::from("gap,");
    out.push_str(PROVENANCE_HEADER);
    out.push('\n');
    for (i, result) in results.iter().enumerate() {
        let Some(imp) = result else { continue };
        let records = imp.provenance.as_deref().unwrap_or(&[]);
        for (p, r) in imp.points.iter().zip(records) {
            let _ = write!(out, "{i},");
            provenance_row(&mut out, p, r);
            out.push('\n');
        }
    }
    Ok(std::fs::write(path, out)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("habit-svc-io-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn ais_csv_round_trip() {
        let trajs = vec![
            Trajectory::new(
                111,
                (0..20)
                    .map(|i| AisPoint::new(111, i * 60, 10.0 + i as f64 * 0.01, 56.0, 12.5, 90.0))
                    .collect(),
            ),
            Trajectory::new(
                222,
                (0..10)
                    .map(|i| AisPoint::new(222, i * 30, 23.5, 37.9 + i as f64 * 0.01, 8.0, 0.0))
                    .collect(),
            ),
        ];
        let path = tmp("ais.csv");
        write_ais_csv(&trajs, &path).expect("write");
        let back = read_ais_csv(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].mmsi, 111);
        assert_eq!(back[1].mmsi, 222);
        assert_eq!(back[0].len(), 20);
        for (a, b) in trajs[0].points.iter().zip(&back[0].points) {
            assert_eq!(a.t, b.t);
            assert!((a.pos.lon - b.pos.lon).abs() < 1e-9);
            assert!((a.sog - b.sog).abs() < 1e-9);
        }
    }

    #[test]
    fn track_csv_round_trip_sorts() {
        let pts = vec![
            TimedPoint::new(10.2, 56.0, 300),
            TimedPoint::new(10.0, 56.0, 0),
            TimedPoint::new(10.1, 56.0, 120),
        ];
        let path = tmp("track.csv");
        write_track_csv(&pts, &path).expect("write");
        let back = read_track_csv(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), 3);
        assert!(back.windows(2).all(|w| w[0].t <= w[1].t));
        assert_eq!(back[0].t, 0);
    }

    #[test]
    fn gap_csv_read_and_batch_write() {
        let path = tmp("gaps.csv");
        std::fs::write(
            &path,
            "lon1,lat1,t1,lon2,lat2,t2\n10.1,56.0,0,10.4,56.0,3600\n10.2,56.1,100,10.5,56.2,7200\n",
        )
        .unwrap();
        let gaps = read_gaps_csv(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!(gaps.len(), 2);
        assert_eq!(gaps[0].start.t, 0);
        assert_eq!(gaps[1].end.t, 7200);
        assert!((gaps[1].start.pos.lon - 10.2).abs() < 1e-12);

        let bad = tmp("gaps-bad.csv");
        std::fs::write(&bad, "lon1,lat1\n1,2\n").unwrap();
        let err = read_gaps_csv(&bad).unwrap_err();
        std::fs::remove_file(&bad).ok();
        assert!(matches!(err, IoError::MissingColumn("t1")), "{err:?}");

        // Batch output: failed queries (None) leave no rows; point rows
        // carry their query index.
        let imp = Imputation {
            points: vec![
                TimedPoint::new(10.0, 56.0, 0),
                TimedPoint::new(10.1, 56.0, 60),
            ],
            cells: Vec::new(),
            start_cell: hexgrid::HexCell::from_axial(9, 0, 0).unwrap(),
            end_cell: hexgrid::HexCell::from_axial(9, 1, 0).unwrap(),
            cost: 1.0,
            expanded: 1,
            raw_point_count: 2,
            provenance: None,
        };
        let out = tmp("batch-out.csv");
        write_batch_csv(&[Some(&imp), None, Some(&imp)], &out).expect("write");
        let text = std::fs::read_to_string(&out).unwrap();
        std::fs::remove_file(&out).ok();
        assert!(text.starts_with("gap,t,lon,lat"));
        let gap_ids: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        assert_eq!(gap_ids, vec!["0", "0", "2", "2"]);
    }

    #[test]
    fn provenance_csv_layout_is_pinned() {
        use habit_core::ProvenanceKind;
        let cell = hexgrid::HexCell::from_axial(9, 0, 0).unwrap();
        let imp = Imputation {
            points: vec![
                TimedPoint::new(10.05, 56.0, 0),
                TimedPoint::new(10.123456789, 56.5, 1800),
            ],
            cells: vec![cell],
            start_cell: cell,
            end_cell: cell,
            cost: 1.0,
            expanded: 1,
            raw_point_count: 2,
            provenance: Some(vec![
                PointProvenance {
                    kind: ProvenanceKind::Observed,
                    cell: Some(cell),
                    from_cell: None,
                    cell_msgs: 42,
                    edge_transitions: 0,
                    cost_share: 0.0,
                    confidence: 1.0,
                },
                PointProvenance {
                    kind: ProvenanceKind::Route,
                    cell: Some(cell),
                    from_cell: Some(cell),
                    cell_msgs: 7,
                    edge_transitions: 3,
                    cost_share: 0.125,
                    confidence: 0.75,
                },
            ]),
        };
        let text = render_provenance_csv(&imp);
        let hex = format!("{:#x}", cell.raw());
        assert_eq!(
            text,
            format!(
                "{PROVENANCE_HEADER}\n\
                 0,10.050000,56.000000,observed,{hex},,42,0,0.000000,1.000000\n\
                 1800,10.123457,56.500000,route,{hex},{hex},7,3,0.125000,0.750000\n"
            )
        );

        // Batch variant: leading gap column; provenance-free results
        // contribute no rows.
        let plain = Imputation {
            provenance: None,
            ..imp.clone()
        };
        let out = tmp("prov-batch.csv");
        write_batch_provenance_csv(&[Some(&imp), None, Some(&plain)], &out).expect("write");
        let batch = std::fs::read_to_string(&out).unwrap();
        std::fs::remove_file(&out).ok();
        assert!(batch.starts_with("gap,t,lon,lat,kind,"));
        let gap_ids: Vec<&str> = batch
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        assert_eq!(gap_ids, vec!["0", "0"]);
    }

    #[test]
    fn reader_variants_match_path_variants() {
        let csv = "lon1,lat1,t1,lon2,lat2,t2\n10.1,56.0,0,10.4,56.0,3600\n";
        let gaps = read_gaps_csv_reader(csv.as_bytes()).expect("read gaps");
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].end.t, 3600);

        let track = read_track_csv_reader("t,lon,lat\n60,10.1,56.0\n0,10.0,56.0\n".as_bytes())
            .expect("read track");
        assert_eq!(track[0].t, 0, "reader variant sorts too");

        let ais = read_ais_csv_reader("mmsi,t,lon,lat\n5,0,10.0,56.0\n".as_bytes()).expect("ais");
        assert_eq!(ais.len(), 1);
        assert_eq!(ais[0].points[0].sog, 0.0, "optional columns default");
    }

    #[test]
    fn gap_csv_errors_name_the_line_and_field() {
        // A bad value: 1-based line number (header is line 1) and the
        // offending column, with the raw text quoted.
        let err = read_gaps_csv_reader(
            "lon1,lat1,t1,lon2,lat2,t2\n10.1,56.0,0,10.4,56.0,3600\n10.2,north,100,10.5,56.2,7200\n"
                .as_bytes(),
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                IoError::BadField { line: 3, column, value: Some(value) }
                    if column == "lat1" && value == "north"
            ),
            "{err:?}"
        );
        let svc: crate::ServiceError = err.into();
        assert_eq!(svc.code, crate::ErrorCode::Csv);
        assert!(svc.message.contains("line 3"), "{svc}");
        assert!(svc.message.contains("`lat1`"), "{svc}");
        assert!(svc.message.contains("`north`"), "{svc}");

        // Timestamps must be integer seconds.
        let err = read_gaps_csv_reader(
            "lon1,lat1,t1,lon2,lat2,t2\n10.1,56.0,half past,10.4,56.0,3600\n".as_bytes(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, IoError::BadField { line: 2, column, .. } if column == "t1"),
            "{err:?}"
        );

        // A short row names the column the row ran out before.
        let err = read_gaps_csv_reader("lon1,lat1,t1,lon2,lat2,t2\n10.1,56.0,0\n".as_bytes())
            .unwrap_err();
        assert!(
            matches!(&err, IoError::BadField { line: 2, column, value: None } if column == "lon2"),
            "{err:?}"
        );
        assert!(err.to_string().contains("line 2"), "{err}");

        // Shuffled headers and blank lines still parse.
        let gaps = read_gaps_csv_reader(
            "t2,lon1,lat1,t1,lon2,lat2\n\n3600,10.1,56.0,0,10.4,56.0\n".as_bytes(),
        )
        .expect("shuffled header");
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].end.t, 3600);
        assert!((gaps[0].start.pos.lon - 10.1).abs() < 1e-12);
    }

    /// A present field must parse: a blank or unparsable value in any
    /// column, required or optional, is a `csv` error naming the line
    /// and the column — never a default.
    #[test]
    fn ais_fields_that_do_not_parse_are_csv_errors() {
        let header = "mmsi,t,lon,lat,sog,cog,heading\n5,0,10.0,56.0,12.5,90.0,91.0\n";
        for (row, column) in [
            ("5,60,10.1,,12.5,90.0,91.0", "lat"),
            ("5,60,10.1,56.0,n/a,90.0,91.0", "sog"),
            ("5,60,10.1,56.0,12.5,90.0,", "heading"),
            ("-5,60,10.1,56.0,12.5,90.0,91.0", "mmsi"),
            ("5,1.5,10.1,56.0,12.5,90.0,91.0", "t"),
        ] {
            let err = read_ais_csv_reader(format!("{header}{row}\n").as_bytes()).unwrap_err();
            assert!(
                matches!(&err, IoError::BadField { line: 3, column: c, .. } if c == column),
                "{row}: {err:?}"
            );
            let svc: crate::ServiceError = err.into();
            assert_eq!(svc.code, crate::ErrorCode::Csv);
            assert!(svc.message.contains("line 3"), "{svc}");
            assert!(svc.message.contains(&format!("`{column}`")), "{svc}");
        }
        let good =
            read_ais_csv_reader(format!("{header}5,60,10.1,56.0,12.5,90.0,91.0\n").as_bytes());
        assert_eq!(good.expect("valid rows").len(), 1);
    }

    #[test]
    fn track_fields_that_do_not_parse_are_csv_errors() {
        let err =
            read_track_csv_reader("t,lon,lat\n0,10.0,56.0\n60,,56.0\n".as_bytes()).unwrap_err();
        assert!(
            matches!(&err, IoError::BadField { line: 3, column, value: Some(v) } if column == "lon" && v.is_empty()),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "line 3, field `lon` is empty");
    }

    #[test]
    fn missing_columns_reported() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "a,b\n1,2\n").unwrap();
        let err = read_ais_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, IoError::MissingColumn("mmsi")), "{err:?}");
    }

    #[test]
    fn io_errors_map_to_the_taxonomy() {
        let missing = read_gaps_csv(Path::new("/nonexistent/gaps.csv")).unwrap_err();
        let svc: crate::ServiceError = missing.into();
        assert_eq!(svc.code, crate::ErrorCode::Io);
        assert!(svc.message.contains("csv"), "{svc}");

        let bad: crate::ServiceError = IoError::MissingColumn("t1").into();
        assert_eq!(bad.code, crate::ErrorCode::BadInput);
    }
}
