//! Structured experiment reports and their markdown/JSON serializers.
//!
//! Every experiment assembles an [`ExperimentReport`] — the experiment
//! id, its paper reference, the parameters it swept, one or more
//! [`ReportSection`]s of tables and notes, its [`Provenance`] and the
//! run's [`Measurement`] — instead of printing ad-hoc text. One report
//! renders two ways:
//!
//! * [`ExperimentReport::to_markdown`] — the human-readable section
//!   that `EXPERIMENTS.md` is concatenated from;
//! * [`ExperimentReport::to_json`] / [`ExperimentReport::from_json`] —
//!   the machine-readable baseline (`reports/<id>.json`) that CI diffs
//!   against and `habit-bench` regenerates the committed
//!   `EXPERIMENTS.md` from, byte-identically.
//!
//! The JSON schema is versioned ([`REPORT_SCHEMA`]); table cells are
//! stored as already-formatted strings so a parse → render cycle cannot
//! drift through float formatting.
//!
//! Answers and measurements are kept apart. Everything a report holds is
//! a deterministic function of the seed and scale except its
//! measurement parts: the run-wide [`Measurement`] (host cores, wall
//! clock, peak RSS) and each section's [`Measured`] block (latencies and
//! other timings, keyed by the answer table's row labels).
//! [`ExperimentReport::answers`] strips exactly those, so two runs can be
//! compared field by field.

use habit_json::{Json, JsonError};
use std::fmt;

/// Schema tag embedded in every serialized report.
pub const REPORT_SCHEMA: &str = "habit-experiment-report/v2";

/// Errors raised while assembling or deserializing a report.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// A table row's cell count does not match its header.
    Arity {
        /// Experiment id (or empty for a free-standing table).
        context: String,
        /// Header width.
        expected: usize,
        /// Offending row width.
        got: usize,
        /// Zero-based index the row would have had.
        row: usize,
    },
    /// The JSON document failed to parse.
    Parse(JsonError),
    /// A required field is missing or has the wrong type.
    Field {
        /// Experiment id if known, else the document path.
        context: String,
        /// The offending field name.
        field: String,
    },
    /// The document's schema tag is not [`REPORT_SCHEMA`].
    Schema(String),
    /// The experiment itself failed to run (model fit, data
    /// preparation) — named so the failing experiment is in the message.
    Experiment {
        /// Experiment id.
        context: String,
        /// What went wrong.
        message: String,
    },
}

impl ReportError {
    /// Builds an [`ReportError::Experiment`] for the given experiment.
    pub fn experiment(context: &str, message: impl ToString) -> Self {
        ReportError::Experiment {
            context: context.to_string(),
            message: message.to_string(),
        }
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Arity {
                context,
                expected,
                got,
                row,
            } => {
                if !context.is_empty() {
                    write!(f, "experiment `{context}`: ")?;
                }
                write!(f, "row {row} has {got} cells but the header has {expected}")
            }
            ReportError::Parse(e) => write!(f, "report {e}"),
            ReportError::Field { context, field } => {
                write!(
                    f,
                    "report `{context}`: missing or ill-typed field `{field}`"
                )
            }
            ReportError::Schema(found) => {
                write!(
                    f,
                    "unsupported report schema `{found}` (expected `{REPORT_SCHEMA}`)"
                )
            }
            ReportError::Experiment { context, message } => {
                write!(f, "experiment `{context}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::Parse(e)
    }
}

/// A rendered markdown table. Two tables are equal when their header
/// and rows are: the experiment tag only names a table in its errors.
#[derive(Debug, Clone)]
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Experiment id carried into error messages.
    context: String,
}

impl PartialEq for MarkdownTable {
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header && self.rows == other.rows
    }
}

impl MarkdownTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            context: String::new(),
        }
    }

    /// Tags the table with an experiment id so a malformed row fails
    /// with the experiment named in the message.
    pub fn with_context<S: Into<String>>(mut self, context: S) -> Self {
        self.context = context.into();
        self
    }

    /// Appends a row; errors (with the experiment id, when set) if its
    /// arity does not match the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> Result<&mut Self, ReportError> {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        if cells.len() != self.header.len() {
            return Err(ReportError::Arity {
                context: self.context.clone(),
                expected: self.header.len(),
                got: cells.len(),
                row: self.rows.len(),
            });
        }
        self.rows.push(cells);
        Ok(self)
    }

    /// Builds a table from its header and rows, validating every row's
    /// arity; `context` names the experiment in an arity error.
    pub fn from_parts<S: Into<String>>(
        context: &str,
        header: impl IntoIterator<Item = S>,
        rows: impl IntoIterator<Item = Vec<String>>,
    ) -> Result<Self, ReportError> {
        let header = header.into_iter().map(Into::into).collect();
        let mut table = MarkdownTable::new(header).with_context(context);
        for row in rows {
            table.row(row)?;
        }
        Ok(table)
    }

    /// Column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders as github-flavored markdown with padded columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.header));
        out.push('\n');
        let sep: Vec<String> = (0..ncols).map(|i| "-".repeat(widths[i])).collect();
        out.push_str(&format!("|-{}-|", sep.join("-|-")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// What produced a report: the answers are a function of these.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Tool and version that produced the report.
    pub generator: String,
    /// RNG seed the experiment ran with.
    pub seed: u64,
    /// `HABIT_EVAL_SCALE` dataset scale factor.
    pub scale: f64,
}

/// The run that produced a report, measured once for the whole run and
/// carried by every report of it: one grid serves all the experiments,
/// so no share of the time or memory belongs to one of them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measurement {
    /// Cores available to the process (`available_parallelism`).
    pub host_cores: u64,
    /// Wall-clock time of the whole run, seconds.
    pub wall_clock_s: f64,
    /// Process peak resident set size (`VmHWM`) at the end of the run,
    /// bytes (0 where the platform exposes no procfs).
    pub peak_rss_bytes: u64,
}

/// A section's host-dependent timings, apart from its answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Sentences over the timings, rendered before the table.
    pub notes: Vec<String>,
    /// The timings, keyed by the answer table's row labels.
    pub table: MarkdownTable,
}

/// One titled block of a report: free-text notes followed by an
/// optional table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportSection {
    /// Sub-heading (empty for a report's single anonymous section).
    pub heading: String,
    /// Paragraphs rendered before the table (ASCII maps, outcome
    /// sentences); rendered verbatim.
    pub notes: Vec<String>,
    /// The section's data table, if any.
    pub table: Option<MarkdownTable>,
    /// Timings of the table's rows, if any.
    pub measured: Option<Measured>,
}

impl ReportSection {
    /// A heading-less section holding just a table.
    pub fn table(table: MarkdownTable) -> Self {
        Self::titled("", table)
    }

    /// A titled section holding a table.
    pub fn titled<S: Into<String>>(heading: S, table: MarkdownTable) -> Self {
        let heading = heading.into();
        Self {
            heading,
            table: Some(table),
            ..Self::default()
        }
    }

    /// A text-only section.
    pub fn notes<S: Into<String>>(heading: S, notes: Vec<String>) -> Self {
        let heading = heading.into();
        Self {
            heading,
            notes,
            ..Self::default()
        }
    }
}

/// A structured, serializable experiment result — the unit every
/// `habit-bench` binary returns and `EXPERIMENTS.md` is generated from.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Stable experiment id (`table1`, `fig3`, `ablation_weights`, …);
    /// also the JSON file stem under `reports/`.
    pub id: String,
    /// Human title, e.g. "Table 1 — characteristics of the AIS datasets".
    pub title: String,
    /// Where the experiment lives in the paper ("Table 1", "Figure 3"),
    /// or the code item an ablation beyond the paper measures.
    pub paper_ref: String,
    /// The paper's claim this experiment verifies.
    pub paper_expected: String,
    /// One-sentence reproduction outcome, computed from the rows —
    /// the "reproduction" column of the comparison table.
    pub reproduction: String,
    /// Swept parameters, as `(name, value)` in display order.
    pub params: Vec<(String, String)>,
    /// Ordered content blocks.
    pub sections: Vec<ReportSection>,
    /// What produced the answers.
    pub provenance: Provenance,
    /// The run that produced them.
    pub measurement: Measurement,
}

impl ExperimentReport {
    /// The report without its measurement parts: what two runs at the
    /// same seed and scale must agree on.
    pub fn answers(&self) -> Self {
        let mut out = self.clone();
        out.measurement = Measurement::default();
        for section in &mut out.sections {
            section.measured = None;
        }
        out
    }

    /// Renders the report as one `EXPERIMENTS.md` section.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        out.push_str(&format!(
            "*`{}` · paper ref: {}*\n\n",
            self.id, self.paper_ref
        ));
        out.push_str(&format!("**Paper expects:** {}\n\n", self.paper_expected));
        out.push_str(&format!("**Reproduction:** {}\n\n", self.reproduction));
        if !self.params.is_empty() {
            let rendered: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("`{k}={v}`"))
                .collect();
            out.push_str(&format!("Parameters: {}\n\n", rendered.join(" · ")));
        }
        for section in &self.sections {
            if !section.heading.is_empty() {
                out.push_str(&format!("### {}\n\n", section.heading));
            }
            for note in &section.notes {
                out.push_str(note);
                out.push_str("\n\n");
            }
            if let Some(table) = &section.table {
                out.push_str(&table.render());
                out.push('\n');
            }
            if let Some(measured) = &section.measured {
                out.push_str("Measured on the generating host (not an answer):\n\n");
                for note in &measured.notes {
                    out.push_str(note);
                    out.push_str("\n\n");
                }
                out.push_str(&measured.table.render());
                out.push('\n');
            }
        }
        out
    }

    /// Serializes to the versioned JSON document (pretty-printed, the
    /// on-disk `reports/<id>.json` format).
    pub fn to_json(&self) -> String {
        let text = |s: &str| Json::from(s);
        let texts = |v: &[String]| Json::Arr(v.iter().map(|s| text(s)).collect());
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let params = self
            .params
            .iter()
            .map(|(k, v)| obj(vec![("name", text(k)), ("value", text(v))]));
        let table = |t: &MarkdownTable| {
            let rows = t.rows().iter().map(|r| texts(r)).collect();
            obj(vec![
                ("header", texts(t.header())),
                ("rows", Json::Arr(rows)),
            ])
        };
        let sections = self.sections.iter().map(|s| {
            let measured = s.measured.as_ref().map_or(Json::Null, |m| {
                obj(vec![("notes", texts(&m.notes)), ("table", table(&m.table))])
            });
            obj(vec![
                ("heading", text(&s.heading)),
                ("notes", texts(&s.notes)),
                ("table", s.table.as_ref().map_or(Json::Null, table)),
                ("measured", measured),
            ])
        });
        let p = &self.provenance;
        let provenance = obj(vec![
            ("generator", text(&p.generator)),
            ("seed", p.seed.into()),
            ("scale", p.scale.into()),
        ]);
        let m = &self.measurement;
        let measurement = obj(vec![
            ("host_cores", m.host_cores.into()),
            ("wall_clock_s", m.wall_clock_s.into()),
            ("peak_rss_bytes", m.peak_rss_bytes.into()),
        ]);
        obj(vec![
            ("schema", text(REPORT_SCHEMA)),
            ("id", text(&self.id)),
            ("title", text(&self.title)),
            ("paper_ref", text(&self.paper_ref)),
            ("paper_expected", text(&self.paper_expected)),
            ("reproduction", text(&self.reproduction)),
            ("params", Json::Arr(params.collect())),
            ("sections", Json::Arr(sections.collect())),
            ("provenance", provenance),
            ("measurement", measurement),
        ])
        .render_pretty()
    }

    /// Deserializes a report previously written by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, ReportError> {
        let doc = Json::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != REPORT_SCHEMA {
            return Err(ReportError::Schema(schema.to_string()));
        }
        let id = &read(&doc, "", "id", string)?;
        let mut params = Vec::new();
        for p in read(&doc, id, "params", Json::as_arr)? {
            params.push((read(p, id, "name", string)?, read(p, id, "value", string)?));
        }
        let table = |t: &Json| {
            let header = read(t, id, "header", strings)?;
            let rows: Vec<Vec<String>> =
                read(t, id, "rows", |r| r.as_arr()?.iter().map(strings).collect())?;
            MarkdownTable::from_parts(id, header, rows)
        };
        let mut sections = Vec::new();
        for s in read(&doc, id, "sections", Json::as_arr)? {
            let measured = match read(s, id, "measured", Some)? {
                Json::Null => None,
                m => Some(Measured {
                    notes: read(m, id, "notes", strings)?,
                    table: table(read(m, id, "table", Some)?)?,
                }),
            };
            sections.push(ReportSection {
                heading: read(s, id, "heading", string)?,
                notes: read(s, id, "notes", strings)?,
                table: match read(s, id, "table", Some)? {
                    Json::Null => None,
                    t => Some(table(t)?),
                },
                measured,
            });
        }
        let prov = read(&doc, id, "provenance", Some)?;
        let m = read(&doc, id, "measurement", Some)?;
        Ok(ExperimentReport {
            id: id.clone(),
            title: read(&doc, id, "title", string)?,
            paper_ref: read(&doc, id, "paper_ref", string)?,
            paper_expected: read(&doc, id, "paper_expected", string)?,
            reproduction: read(&doc, id, "reproduction", string)?,
            params,
            sections,
            provenance: Provenance {
                generator: read(prov, id, "generator", string)?,
                seed: read(prov, id, "seed", Json::as_u64)?,
                scale: read(prov, id, "scale", Json::as_f64)?,
            },
            measurement: Measurement {
                host_cores: read(m, id, "host_cores", Json::as_u64)?,
                wall_clock_s: read(m, id, "wall_clock_s", Json::as_f64)?,
                peak_rss_bytes: read(m, id, "peak_rss_bytes", Json::as_u64)?,
            },
        })
    }
}

/// Reads field `name` of `j` with `read`; the error names the field and
/// the report `id`.
fn read<'j, T>(
    j: &'j Json,
    id: &str,
    name: &str,
    read: impl FnOnce(&'j Json) -> Option<T>,
) -> Result<T, ReportError> {
    j.get(name)
        .and_then(read)
        .ok_or_else(|| ReportError::Field {
            context: id.to_string(),
            field: name.to_string(),
        })
}

fn string(j: &Json) -> Option<String> {
    j.as_str().map(str::to_string)
}

fn strings(j: &Json) -> Option<Vec<String>> {
    j.as_arr()?.iter().map(string).collect()
}

/// Process peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`); 0 on platforms without procfs. Monotone over
/// the process lifetime — see [`Measurement::peak_rss_bytes`].
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|line| line.strip_prefix("VmHWM:"));
    let kb = hwm.and_then(|kb| kb.trim_end_matches("kB").trim().parse::<u64>().ok());
    kb.map_or(0, |kb| kb * 1024)
}

/// Formats meters with one decimal.
pub fn fmt_m(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats bytes as megabytes with two decimals (Table 2 units).
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / 1_048_576.0)
}

/// Formats seconds with five decimals (Table 4 units; laptop-scale
/// datasets answer in fractions of a millisecond).
pub fn fmt_s(v: f64) -> String {
    format!("{v:.5}")
}

/// Formats seconds with two decimals (wall-clock provenance units).
pub fn fmt_s2(v: f64) -> String {
    format!("{v:.2}")
}

/// Mean of a sample (0 for empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a sample (0 for empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) * 0.5
    }
}

/// p-th percentile (nearest-rank), 0 for empty samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExperimentReport {
        let mut table = MarkdownTable::new(vec!["Method", "DTW"]).with_context("sample");
        table.row(vec!["HABIT", "123.4"]).unwrap();
        table.row(vec!["SLI", "999.9"]).unwrap();
        let mut timed = ReportSection::titled("Timed", table.clone());
        let mut latency = MarkdownTable::new(vec!["Method", "Avg"]).with_context("sample");
        latency.row(vec!["HABIT", "0.00012"]).unwrap();
        timed.measured = Some(Measured {
            notes: vec!["HABIT avg 0.00012 s".into()],
            table: latency,
        });
        ExperimentReport {
            id: "sample".into(),
            title: "Sample — a test report".into(),
            paper_ref: "Table 0".into(),
            paper_expected: "HABIT beats SLI".into(),
            reproduction: "HABIT 123.4 m vs SLI 999.9 m".into(),
            params: vec![("gap_s".into(), "3600".into())],
            sections: vec![
                ReportSection::table(table),
                ReportSection::notes("Notes", vec!["free text with | pipes".into()]),
                timed,
            ],
            provenance: Provenance {
                generator: "habit-bench 0.1.0".into(),
                seed: 42,
                scale: 1.0,
            },
            measurement: Measurement {
                host_cores: 2,
                wall_clock_s: 1.5,
                peak_rss_bytes: 2 * 1_048_576,
            },
        }
    }

    #[test]
    fn table_renders_padded_markdown() {
        let mut t = MarkdownTable::new(vec!["Method", "DTW"]);
        t.row(vec!["HABIT", "123.4"]).unwrap();
        t.row(vec!["SLI", "999.9"]).unwrap();
        let s = t.render();
        assert!(s.contains("| Method | DTW   |"), "{s}");
        assert!(s.lines().count() == 4);
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn arity_error_names_the_experiment() {
        let err = MarkdownTable::new(vec!["a", "b"])
            .with_context("fig3")
            .row(vec!["only one"])
            .unwrap_err();
        assert_eq!(
            err,
            ReportError::Arity {
                context: "fig3".into(),
                expected: 2,
                got: 1,
                row: 0
            }
        );
        assert!(err.to_string().contains("`fig3`"), "{err}");
        // Without context the message still explains the mismatch.
        let bare = MarkdownTable::new(vec!["a", "b"])
            .row(vec!["x", "y", "z"])
            .unwrap_err();
        assert!(bare.to_string().contains("3 cells"), "{bare}");
    }

    #[test]
    fn report_json_round_trips_to_identical_markdown() {
        let report = sample_report();
        let json = report.to_json();
        let back = ExperimentReport::from_json(&json).expect("parse back");
        assert_eq!(back, report);
        assert_eq!(back.to_markdown(), report.to_markdown());
        // Serialization is a fixpoint, too.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn an_untagged_table_equals_its_read_back() {
        let mut table = MarkdownTable::new(vec!["Method", "DTW"]);
        table.row(vec!["HABIT", "123.4"]).unwrap();
        let mut report = sample_report();
        report.sections = vec![ReportSection::table(table.clone())];
        let back = ExperimentReport::from_json(&report.to_json()).expect("parse back");
        assert_eq!(back.sections[0].table.as_ref(), Some(&table));
        assert_eq!(back, report);
    }

    #[test]
    fn answers_strip_only_the_measurement_parts() {
        let report = sample_report();
        let answers = report.answers();
        assert_eq!(answers.measurement, Measurement::default());
        assert!(answers.sections.iter().all(|s| s.measured.is_none()));
        assert_eq!(answers.sections[2].table, report.sections[2].table);
        assert_eq!(answers.reproduction, report.reproduction);
        // The measured block renders apart from the answer table.
        let md = report.to_markdown();
        assert!(md.contains("not an answer"), "{md}");
        assert!(!answers.to_markdown().contains("not an answer"));
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(matches!(
            ExperimentReport::from_json("{}"),
            Err(ReportError::Schema(_))
        ));
        assert!(matches!(
            ExperimentReport::from_json("not json"),
            Err(ReportError::Parse(_))
        ));
        // A row with the wrong arity fails with the experiment id.
        let doc = format!(
            r#"{{"schema":"{REPORT_SCHEMA}","id":"sample","title":"t","paper_ref":"p",
                "paper_expected":"e","reproduction":"r","params":[],
                "sections":[{{"heading":"","notes":[],"measured":null,
                              "table":{{"header":["a","b"],"rows":[["only one"]]}}}}],
                "provenance":{{"generator":"g","seed":1,"scale":1}},
                "measurement":{{"host_cores":1,"wall_clock_s":0.1,"peak_rss_bytes":0}}}}"#
        );
        let err = ExperimentReport::from_json(&doc).unwrap_err();
        assert!(
            matches!(&err, ReportError::Arity { context, .. } if context == "sample"),
            "{err:?}"
        );
        assert!(err.to_string().contains("`sample`"), "{err}");
        // Only v2 is read: a v1 document is refused by its tag.
        let v1 = sample_report()
            .to_json()
            .replace(REPORT_SCHEMA, "habit-experiment-report/v1");
        assert_eq!(
            ExperimentReport::from_json(&v1),
            Err(ReportError::Schema("habit-experiment-report/v1".into()))
        );
    }

    #[test]
    fn peak_rss_is_plausible() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 1024 * 1024, "peak RSS {rss} should exceed 1 MiB");
        }
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_mb(1_048_576), "1.00");
        assert_eq!(fmt_s(0.12345), "0.12345");
        assert_eq!(fmt_m(12.34), "12.3");
        assert_eq!(fmt_s2(1.005), "1.00");
    }
}
