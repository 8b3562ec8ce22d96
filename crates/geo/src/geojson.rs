//! Minimal GeoJSON (RFC 7946) writers.
//!
//! Density cells become instantly inspectable in any GIS tool (QGIS,
//! kepler.gl, geojson.io). Writing is string-assembly — the subset we
//! emit (FeatureCollections of Polygons with scalar properties) needs no
//! serializer dependency.

use crate::point::GeoPoint;
use std::fmt::Write;

/// A property value on a feature.
#[derive(Debug, Clone)]
pub enum PropValue {
    /// A JSON string (escaped on write).
    Str(String),
    /// A JSON number.
    Num(f64),
    /// A JSON integer.
    Int(i64),
}

/// Escapes a string for JSON embedding.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to string");
            }
            c => out.push(c),
        }
    }
    out
}

fn write_props(out: &mut String, properties: &[(&str, PropValue)]) {
    out.push('{');
    for (i, (k, v)) in properties.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "\"{}\":", escape(k)).expect("write to string");
        match v {
            PropValue::Str(s) => write!(out, "\"{}\"", escape(s)),
            PropValue::Num(n) => {
                if n.is_finite() {
                    write!(out, "{n}")
                } else {
                    write!(out, "null")
                }
            }
            PropValue::Int(n) => write!(out, "{n}"),
        }
        .expect("write to string");
    }
    out.push('}');
}

fn write_coords(out: &mut String, points: &[GeoPoint]) {
    out.push('[');
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "[{:.6},{:.6}]", p.lon, p.lat).expect("write to string");
    }
    out.push(']');
}

/// A `Polygon` feature from an exterior ring (closed automatically).
pub fn polygon_feature(ring: &[GeoPoint], properties: &[(&str, PropValue)]) -> String {
    let mut out =
        String::from("{\"type\":\"Feature\",\"geometry\":{\"type\":\"Polygon\",\"coordinates\":[");
    let mut closed: Vec<GeoPoint> = ring.to_vec();
    if closed.first() != closed.last() {
        if let Some(&first) = closed.first() {
            closed.push(first);
        }
    }
    write_coords(&mut out, &closed);
    out.push_str("]},\"properties\":");
    write_props(&mut out, properties);
    out.push('}');
    out
}

/// Wraps features into a `FeatureCollection` document.
pub fn feature_collection<I: IntoIterator<Item = String>>(features: I) -> String {
    let mut out = String::from("{\"type\":\"FeatureCollection\",\"features\":[");
    for (i, f) in features.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced(s: &str) -> bool {
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0 && !in_str
    }

    #[test]
    fn polygon_ring_closes() {
        let ring = vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(1.0, 0.0),
            GeoPoint::new(1.0, 1.0),
        ];
        let f = polygon_feature(&ring, &[("cells", PropValue::Int(3))]);
        assert!(balanced(&f), "{f}");
        // First coordinate repeated at the end.
        assert_eq!(f.matches("[0.000000,0.000000]").count(), 2);
        assert!(f.contains("\"cells\":3"));
    }

    #[test]
    fn strings_are_escaped() {
        let ring = [GeoPoint::new(0.0, 0.0)];
        let f = polygon_feature(
            &ring,
            &[("name", PropValue::Str("Ferry \"Nord\"\nline\\x".into()))],
        );
        assert!(balanced(&f), "{f}");
        assert!(f.contains("Ferry \\\"Nord\\\"\\nline\\\\x"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let ring = [GeoPoint::new(0.0, 0.0)];
        let f = polygon_feature(&ring, &[("bad", PropValue::Num(f64::NAN))]);
        assert!(balanced(&f));
        assert!(f.contains("\"bad\":null"));
    }

    #[test]
    fn empty_collection_is_valid() {
        let doc = feature_collection(Vec::<String>::new());
        assert_eq!(doc, "{\"type\":\"FeatureCollection\",\"features\":[]}");
    }
}
