//! Span records as line-delimited JSON.
//!
//! One object per line, newest last — the `GET /spans` debug surface
//! of the metrics endpoint. Hand-rolled like the wire codec: the only
//! dynamic strings are the stage name and op label, escaped per JSON's
//! required set; all times are integer µs ticks, so every number is
//! exact on the wire.

use crate::span::SpanRecord;

/// Renders spans as one JSON object per line.
pub fn render_spans(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str("{\"name\":\"");
        push_escaped(&mut out, s.name);
        out.push_str("\",\"op\":\"");
        push_escaped(&mut out, &s.op);
        out.push_str(&format!(
            "\",\"start_us\":{},\"dur_us\":{},\"ok\":{}}}\n",
            s.start_ticks, s.duration_ticks, s.ok
        ));
    }
    out
}

fn push_escaped(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
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
