//! Span records as line-delimited JSON.
//!
//! One object per line, newest last — the `GET /spans` debug surface
//! of the metrics endpoint. All times are integer µs ticks, so every
//! number is exact on the wire.

use habit_json::Json;
use habit_obs::SpanRecord;

/// Renders spans as one JSON object per line.
pub(crate) fn render_spans(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Json::Obj(vec![
            ("name".into(), s.name.into()),
            ("op".into(), s.op.as_ref().into()),
            ("start_us".into(), s.start_ticks.into()),
            ("dur_us".into(), s.duration_ticks.into()),
            ("ok".into(), Json::Bool(s.ok)),
        ]);
        out.push_str(&line.render_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_span_lines() {
        let spans = vec![
            SpanRecord {
                name: "parse",
                op: "impute".into(),
                start_ticks: 10,
                duration_ticks: 3,
                ok: true,
            },
            SpanRecord {
                name: "handle",
                op: "unknown".into(),
                start_ticks: 13,
                duration_ticks: 40,
                ok: false,
            },
        ];
        assert_eq!(
            render_spans(&spans),
            "{\"name\":\"parse\",\"op\":\"impute\",\"start_us\":10,\"dur_us\":3,\"ok\":true}\n\
             {\"name\":\"handle\",\"op\":\"unknown\",\"start_us\":13,\"dur_us\":40,\"ok\":false}\n"
        );
    }

    #[test]
    fn op_labels_are_escaped() {
        let spans = vec![SpanRecord {
            name: "s",
            op: "a\"b\\c\nd\u{1}".into(),
            start_ticks: 0,
            duration_ticks: 0,
            ok: true,
        }];
        let line = render_spans(&spans);
        assert!(line.contains("a\\\"b\\\\c\\nd\\u0001"), "{line}");
    }

    #[test]
    fn empty_input_renders_nothing() {
        assert_eq!(render_spans(&[]), "");
    }
}
