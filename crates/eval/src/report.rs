//! Structured experiment reports and their markdown/JSON serializers.
//!
//! Every experiment binary assembles an [`ExperimentReport`] — the
//! experiment id, its paper reference, the parameters it swept, one or
//! more [`ReportSection`]s of tables and notes, and wall-clock/peak-RSS
//! [`Provenance`] — instead of printing ad-hoc text. One report renders
//! two ways:
//!
//! * [`ExperimentReport::to_markdown`] — the human-readable section
//!   that `EXPERIMENTS.md` is concatenated from;
//! * [`ExperimentReport::to_json`] / [`ExperimentReport::from_json`] —
//!   the machine-readable baseline (`reports/<id>.json`) that CI diffs
//!   against and [`render_experiments_md`] regenerates the committed
//!   `EXPERIMENTS.md` from, byte-identically.
//!
//! The JSON schema is versioned ([`REPORT_SCHEMA`]); table cells are
//! stored as already-formatted strings so a parse → render cycle cannot
//! drift through float formatting.

use crate::json::{Json, JsonError};
use std::fmt;

/// Schema tag embedded in every serialized report.
pub const REPORT_SCHEMA: &str = "habit-experiment-report/v1";

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
                if context.is_empty() {
                    write!(
                        f,
                        "table row {row} has {got} cells but the header has {expected}"
                    )
                } else {
                    write!(
                        f,
                        "experiment `{context}`: row {row} has {got} cells but the header has {expected}"
                    )
                }
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

/// A rendered markdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Experiment id carried into error messages.
    context: String,
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

    /// Rebuilds a table from raw parts, validating every row's arity
    /// (the deserialization path).
    pub fn from_parts(
        context: &str,
        header: Vec<String>,
        rows: Vec<Vec<String>>,
    ) -> Result<Self, ReportError> {
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

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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

/// Execution provenance recorded with every report.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Tool and version that produced the report.
    pub generator: String,
    /// RNG seed the experiment ran with.
    pub seed: u64,
    /// `HABIT_EVAL_SCALE` dataset scale factor.
    pub scale: f64,
    /// Wall-clock duration of the experiment, seconds.
    pub wall_clock_s: f64,
    /// Process-wide peak resident set size (`VmHWM`) when the
    /// experiment finished, bytes (0 where the platform exposes no
    /// procfs). NOTE: a high-water mark is monotone over the process
    /// lifetime, so in an `all_experiments` run this is the peak *up to
    /// and including* this experiment, not an isolated per-experiment
    /// peak; run a single binary for an isolated measurement.
    pub peak_rss_bytes: u64,
}

/// One titled block of a report: free-text notes followed by an
/// optional table.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSection {
    /// Sub-heading (empty for a report's single anonymous section).
    pub heading: String,
    /// Paragraphs rendered before the table (ASCII maps, outcome
    /// sentences); rendered verbatim.
    pub notes: Vec<String>,
    /// The section's data table, if any.
    pub table: Option<MarkdownTable>,
}

impl ReportSection {
    /// A heading-less section holding just a table.
    pub fn table(table: MarkdownTable) -> Self {
        Self {
            heading: String::new(),
            notes: Vec::new(),
            table: Some(table),
        }
    }

    /// A titled section holding a table.
    pub fn titled<S: Into<String>>(heading: S, table: MarkdownTable) -> Self {
        Self {
            heading: heading.into(),
            notes: Vec::new(),
            table: Some(table),
        }
    }

    /// A text-only section.
    pub fn notes<S: Into<String>>(heading: S, notes: Vec<String>) -> Self {
        Self {
            heading: heading.into(),
            notes,
            table: None,
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
    /// Where the experiment lives in the paper ("Table 1", "Figure 3",
    /// or "DESIGN.md §5.1" for ablations beyond the paper).
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
    /// Execution provenance.
    pub provenance: Provenance,
}

impl ExperimentReport {
    /// Renders the report as one `EXPERIMENTS.md` section.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        out.push_str(&format!(
            "*`{}` · paper ref: {} · wall clock {} s · process peak RSS {} MB*\n\n",
            self.id,
            self.paper_ref,
            fmt_s2(self.provenance.wall_clock_s),
            fmt_mb(self.provenance.peak_rss_bytes as usize),
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
        }
        out
    }

    /// Serializes to the versioned JSON document (pretty-printed, the
    /// on-disk `reports/<id>.json` format).
    pub fn to_json(&self) -> String {
        let params: Vec<Json> = self
            .params
            .iter()
            .map(|(k, v)| {
                Json::Obj(vec![
                    ("name".into(), k.as_str().into()),
                    ("value".into(), v.as_str().into()),
                ])
            })
            .collect();
        let sections: Vec<Json> = self
            .sections
            .iter()
            .map(|s| {
                let table = match &s.table {
                    None => Json::Null,
                    Some(t) => Json::Obj(vec![
                        (
                            "header".into(),
                            Json::Arr(t.header().iter().map(|h| h.as_str().into()).collect()),
                        ),
                        (
                            "rows".into(),
                            Json::Arr(
                                t.rows()
                                    .iter()
                                    .map(|r| {
                                        Json::Arr(r.iter().map(|c| c.as_str().into()).collect())
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                };
                Json::Obj(vec![
                    ("heading".into(), s.heading.as_str().into()),
                    (
                        "notes".into(),
                        Json::Arr(s.notes.iter().map(|n| n.as_str().into()).collect()),
                    ),
                    ("table".into(), table),
                ])
            })
            .collect();
        let provenance = Json::Obj(vec![
            (
                "generator".into(),
                self.provenance.generator.as_str().into(),
            ),
            ("seed".into(), self.provenance.seed.into()),
            ("scale".into(), self.provenance.scale.into()),
            ("wall_clock_s".into(), self.provenance.wall_clock_s.into()),
            (
                "peak_rss_bytes".into(),
                self.provenance.peak_rss_bytes.into(),
            ),
        ]);
        Json::Obj(vec![
            ("schema".into(), REPORT_SCHEMA.into()),
            ("id".into(), self.id.as_str().into()),
            ("title".into(), self.title.as_str().into()),
            ("paper_ref".into(), self.paper_ref.as_str().into()),
            ("paper_expected".into(), self.paper_expected.as_str().into()),
            ("reproduction".into(), self.reproduction.as_str().into()),
            ("params".into(), Json::Arr(params)),
            ("sections".into(), Json::Arr(sections)),
            ("provenance".into(), provenance),
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
        let id = require_str(&doc, "", "id")?.to_string();
        let field = |name: &'static str| -> Result<String, ReportError> {
            Ok(require_str(&doc, &id, name)?.to_string())
        };
        let title = field("title")?;
        let paper_ref = field("paper_ref")?;
        let paper_expected = field("paper_expected")?;
        let reproduction = field("reproduction")?;

        let mut params = Vec::new();
        for p in require_arr(&doc, &id, "params")? {
            params.push((
                require_str(p, &id, "name")?.to_string(),
                require_str(p, &id, "value")?.to_string(),
            ));
        }

        let mut sections = Vec::new();
        for s in require_arr(&doc, &id, "sections")? {
            let heading = require_str(s, &id, "heading")?.to_string();
            let mut notes = Vec::new();
            for n in require_arr(s, &id, "notes")? {
                notes.push(
                    n.as_str()
                        .ok_or_else(|| field_err(&id, "notes"))?
                        .to_string(),
                );
            }
            let table = match s.get("table") {
                None | Some(Json::Null) => None,
                Some(t) => {
                    let header: Vec<String> = require_arr(t, &id, "header")?
                        .iter()
                        .map(|h| h.as_str().map(str::to_string))
                        .collect::<Option<_>>()
                        .ok_or_else(|| field_err(&id, "header"))?;
                    let mut rows: Vec<Vec<String>> = Vec::new();
                    for r in require_arr(t, &id, "rows")? {
                        rows.push(
                            r.as_arr()
                                .ok_or_else(|| field_err(&id, "rows"))?
                                .iter()
                                .map(|c| c.as_str().map(str::to_string))
                                .collect::<Option<_>>()
                                .ok_or_else(|| field_err(&id, "rows"))?,
                        );
                    }
                    Some(MarkdownTable::from_parts(&id, header, rows)?)
                }
            };
            sections.push(ReportSection {
                heading,
                notes,
                table,
            });
        }

        let prov = doc
            .get("provenance")
            .ok_or_else(|| field_err(&id, "provenance"))?;
        let provenance = Provenance {
            generator: require_str(prov, &id, "generator")?.to_string(),
            seed: prov
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| field_err(&id, "seed"))?,
            scale: prov
                .get("scale")
                .and_then(Json::as_f64)
                .ok_or_else(|| field_err(&id, "scale"))?,
            wall_clock_s: prov
                .get("wall_clock_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| field_err(&id, "wall_clock_s"))?,
            peak_rss_bytes: prov
                .get("peak_rss_bytes")
                .and_then(Json::as_u64)
                .ok_or_else(|| field_err(&id, "peak_rss_bytes"))?,
        };

        Ok(ExperimentReport {
            id,
            title,
            paper_ref,
            paper_expected,
            reproduction,
            params,
            sections,
            provenance,
        })
    }
}

fn field_err(context: &str, field: &str) -> ReportError {
    ReportError::Field {
        context: context.to_string(),
        field: field.to_string(),
    }
}

fn require_str<'a>(
    doc: &'a Json,
    context: &str,
    field: &'static str,
) -> Result<&'a str, ReportError> {
    doc.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| field_err(context, field))
}

fn require_arr<'a>(
    doc: &'a Json,
    context: &str,
    field: &'static str,
) -> Result<&'a [Json], ReportError> {
    doc.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| field_err(context, field))
}

/// Assembles the full `EXPERIMENTS.md` document from a set of reports
/// (in the given order): a regeneration banner, a summary table, the
/// paper-vs-reproduction comparison, then every report section.
pub fn render_experiments_md(reports: &[&ExperimentReport]) -> String {
    let mut out = String::new();
    out.push_str("# HABIT — experiment baselines\n\n");
    out.push_str(
        "<!-- GENERATED FILE — do not edit by hand.\n\
         Regenerate (re-runs every experiment and rewrites reports/*.json):\n\
         \n\
         \x20   cargo run -p habit-bench --release --bin all_experiments -- --out-dir reports/\n\
         \n\
         Re-render from the committed JSON without re-running (what CI diffs):\n\
         \n\
         \x20   cargo run -p habit-bench --release --bin all_experiments -- --render-only --out-dir reports/\n\
         -->\n\n",
    );
    if let Some(first) = reports.first() {
        out.push_str(&format!(
            "{} experiments · generator {} · seed {} · scale {} · total wall clock {} s\n\n",
            reports.len(),
            first.provenance.generator,
            first.provenance.seed,
            first.provenance.scale,
            fmt_s2(reports.iter().map(|r| r.provenance.wall_clock_s).sum()),
        ));
        out.push_str(
            "Datasets are the seeded synthetic analogues of the paper's AIS feeds \
             (see PAPER.md); absolute numbers differ from the paper's real-data \
             tables, the *shapes* the paper argues from are what each experiment \
             verifies. Serving and fitting performance is measured by `benchmark/` \
             (see `benchmark/README.md`, `BENCHMARK.json`) over the real binary, not \
             here: only Tables 2 and 4 below are speed or size claims.\n\n",
        );
    }

    out.push_str("## Summary\n\n");
    let mut summary = MarkdownTable::new(vec![
        "Experiment",
        "Paper ref",
        "Rows",
        "Wall clock (s)",
        "Peak RSS so far (MB)",
    ]);
    for r in reports {
        let rows: usize = r
            .sections
            .iter()
            .filter_map(|s| s.table.as_ref().map(MarkdownTable::len))
            .sum();
        summary
            .row(vec![
                format!("`{}`", r.id),
                r.paper_ref.clone(),
                rows.to_string(),
                fmt_s2(r.provenance.wall_clock_s),
                fmt_mb(r.provenance.peak_rss_bytes as usize),
            ])
            .expect("summary arity is static");
    }
    out.push_str(&summary.render());
    out.push('\n');

    out.push_str("## Paper vs reproduction\n\n");
    let mut comparison = MarkdownTable::new(vec!["Experiment", "Paper expects", "Reproduction"]);
    for r in reports {
        comparison
            .row(vec![
                format!("`{}`", r.id),
                r.paper_expected.clone(),
                r.reproduction.clone(),
            ])
            .expect("comparison arity is static");
    }
    out.push_str(&comparison.render());
    out.push('\n');

    for r in reports {
        out.push_str(&r.to_markdown());
    }
    out
}

/// Process peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`); 0 on platforms without procfs. Monotone over
/// the process lifetime — see [`Provenance::peak_rss_bytes`].
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    0
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
            ],
            provenance: Provenance {
                generator: "habit-bench 0.1.0".into(),
                seed: 42,
                scale: 1.0,
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
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
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
                "sections":[{{"heading":"","notes":[],
                              "table":{{"header":["a","b"],"rows":[["only one"]]}}}}],
                "provenance":{{"generator":"g","seed":1,"scale":1,
                               "wall_clock_s":0.1,"peak_rss_bytes":0}}}}"#
        );
        let err = ExperimentReport::from_json(&doc).unwrap_err();
        assert!(
            matches!(&err, ReportError::Arity { context, .. } if context == "sample"),
            "{err:?}"
        );
        assert!(err.to_string().contains("`sample`"), "{err}");
    }

    #[test]
    fn experiments_md_contains_comparison_and_sections() {
        let report = sample_report();
        let md = render_experiments_md(&[&report]);
        assert!(md.starts_with("# HABIT — experiment baselines"));
        assert!(md.contains("GENERATED FILE"));
        assert!(md.contains("## Paper vs reproduction"));
        assert!(md.contains("HABIT beats SLI"));
        assert!(md.contains("## Sample — a test report"));
        assert!(md.contains("### Notes"));
        // Deterministic: same input renders the same bytes.
        assert_eq!(md, render_experiments_md(&[&report]));
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
