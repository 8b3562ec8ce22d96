//! Inspection output: ASCII heat maps, CSV, and GeoJSON export.

use crate::map::DensityMap;
use geo_kernel::BBox;
use habit_json::Json;
use hexgrid::HexGrid;

/// Log-scaled intensity shades, sparse → dense.
const SHADES: [u8; 6] = [b'.', b':', b'+', b'*', b'#', b'@'];

/// Renders the map as an ASCII heat map of `width` × `height` characters.
///
/// Cells are projected to the character raster by their centers; where
/// several cells land on one character the densest wins. Intensity is
/// log-scaled against the busiest cell. Returns an empty string for an
/// empty map.
pub fn render_ascii(map: &DensityMap, width: usize, height: usize) -> String {
    assert!(width >= 2 && height >= 2, "canvas too small");
    let centers: Vec<_> = map.iter().map(|(cell, _)| map.cell_center(cell)).collect();
    let Some(bbox) = BBox::from_points(&centers) else {
        return String::new();
    };
    let lon_span = (bbox.max_lon - bbox.min_lon).max(1e-9);
    let lat_span = (bbox.max_lat - bbox.min_lat).max(1e-9);
    let max_msgs = map.max_messages().max(1) as f64;

    let mut canvas = vec![vec![0u64; width]; height];
    for (cell, d) in map.iter() {
        let c = map.cell_center(cell);
        let x = ((c.lon - bbox.min_lon) / lon_span * (width - 1) as f64) as usize;
        let y = ((bbox.max_lat - c.lat) / lat_span * (height - 1) as f64) as usize;
        let slot = &mut canvas[y.min(height - 1)][x.min(width - 1)];
        *slot = (*slot).max(d.messages);
    }

    let mut out = String::with_capacity(height * (width + 1));
    for row in canvas {
        for msgs in row {
            if msgs == 0 {
                out.push(' ');
            } else {
                let level = ((msgs as f64).ln() / max_msgs.ln().max(1.0)
                    * (SHADES.len() - 1) as f64)
                    .round() as usize;
                out.push(SHADES[level.min(SHADES.len() - 1)] as char);
            }
        }
        out.push('\n');
    }
    out
}

/// Exports the map as CSV: `cell,lon,lat,messages,vessels,mean_sog`,
/// one row per cell, sorted by cell id for reproducible output.
pub fn to_csv(map: &DensityMap) -> String {
    let mut rows: Vec<(u64, String)> = map
        .iter()
        .map(|(cell, d)| {
            let c = map.cell_center(cell);
            (
                cell.raw(),
                format!(
                    "{},{:.6},{:.6},{},{},{:.2}",
                    cell.raw(),
                    c.lon,
                    c.lat,
                    d.messages,
                    d.vessels(),
                    d.mean_sog()
                ),
            )
        })
        .collect();
    rows.sort_by_key(|(raw, _)| *raw);
    let mut out = String::from("cell,lon,lat,messages,vessels,mean_sog\n");
    for (_, row) in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Exports the map as a GeoJSON `FeatureCollection`: one hexagon polygon
/// per cell with `cell`, `messages`, `vessels` and `mean_sog`
/// properties — drop the output into QGIS / kepler.gl / geojson.io to
/// see the density surface (the paper's Fig. 1 visual). `cell` is the
/// id as a `"0x…"` hex string, the wire's form: a packed id exceeds
/// JSON's exact-integer range.
pub fn to_geojson(map: &DensityMap) -> String {
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    };
    // Degrees at 6 decimals (~0.1 m), the export's precision.
    let degrees = |v: f64| Json::Num(format!("{v:.6}").parse().expect("a formatted f64"));
    let grid = HexGrid::new();
    let mut cells: Vec<_> = map.iter().collect();
    cells.sort_by_key(|(c, _)| c.raw());
    let features = cells.into_iter().map(|(cell, d)| {
        let boundary = grid.boundary(cell);
        // A GeoJSON ring is closed: it repeats its first vertex.
        let ring = boundary.iter().chain(&boundary[..1]);
        let ring = ring.map(|p| Json::Arr(vec![degrees(p.lon), degrees(p.lat)]));
        let geometry = obj(vec![
            ("type", "Polygon".into()),
            ("coordinates", Json::Arr(vec![Json::Arr(ring.collect())])),
        ]);
        let properties = obj(vec![
            ("cell", format!("{:#x}", cell.raw()).into()),
            ("messages", d.messages.into()),
            ("vessels", d.vessels().into()),
            ("mean_sog", d.mean_sog().into()),
        ]);
        obj(vec![
            ("type", "Feature".into()),
            ("geometry", geometry),
            ("properties", properties),
        ])
    });
    obj(vec![
        ("type", "FeatureCollection".into()),
        ("features", Json::Arr(features.collect())),
    ])
    .render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_kernel::GeoPoint;

    fn sample_map() -> DensityMap {
        let mut map = DensityMap::new(8);
        for i in 0..60 {
            map.record(&GeoPoint::new(10.0 + i as f64 * 0.004, 56.0), 1, 10.0);
        }
        for _ in 0..200 {
            map.record(&GeoPoint::new(10.12, 56.0), 2, 10.0);
        }
        map
    }

    #[test]
    fn ascii_shows_lane_and_hotspot() {
        let map = sample_map();
        let art = render_ascii(&map, 60, 8);
        assert_eq!(art.lines().count(), 8);
        assert!(art.lines().all(|l| l.chars().count() == 60));
        // The hotspot renders with the densest shade.
        assert!(art.contains('@'), "{art}");
        // The lane renders with sparse shades.
        assert!(art.contains('.') || art.contains(':'), "{art}");
    }

    #[test]
    fn empty_map_renders_empty() {
        assert_eq!(render_ascii(&DensityMap::new(8), 10, 4), "");
    }

    #[test]
    #[should_panic(expected = "canvas too small")]
    fn tiny_canvas_rejected() {
        render_ascii(&DensityMap::new(8), 1, 1);
    }

    #[test]
    fn geojson_has_one_polygon_per_cell() {
        let map = sample_map();
        let doc = to_geojson(&map);
        assert!(doc.starts_with("{\"type\":\"FeatureCollection\""));
        assert_eq!(doc.matches("\"Polygon\"").count(), map.cell_count());
        // The hotspot cell's count appears verbatim as a property.
        let hottest = format!("\"messages\":{}", map.max_messages());
        assert!(doc.contains(&hottest), "missing {hottest}");
        // Balanced braces (rough well-formedness).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn empty_map_geojson_is_an_empty_feature_collection() {
        assert_eq!(
            to_geojson(&DensityMap::new(8)),
            "{\"type\":\"FeatureCollection\",\"features\":[]}"
        );
    }

    #[test]
    fn geojson_rings_close_and_cells_are_the_csv_cells_in_hex() {
        let map = sample_map();
        let doc = Json::parse(&to_geojson(&map)).expect("valid JSON");
        let features = doc.get("features").and_then(Json::as_arr).unwrap();
        let mut cells = Vec::new();
        for feature in features {
            let coordinates = feature.get("geometry").and_then(|g| g.get("coordinates"));
            let [ring] = coordinates.and_then(Json::as_arr).unwrap() else {
                panic!("one exterior ring");
            };
            let ring = ring.as_arr().unwrap();
            assert_eq!(ring.len(), 7, "six vertices and the closing one");
            assert_eq!(ring.first(), ring.last(), "the ring is closed");
            let cell = feature.get("properties").and_then(|p| p.get("cell"));
            cells.push(cell.and_then(Json::as_str).unwrap().to_string());
        }
        let csv = to_csv(&map);
        let csv_cells: Vec<String> = csv
            .lines()
            .skip(1)
            .map(|row| {
                let raw: u64 = row.split(',').next().unwrap().parse().unwrap();
                format!("{raw:#x}")
            })
            .collect();
        assert_eq!(cells, csv_cells);
        assert!(cells.iter().all(|c| c.starts_with("0x")));
    }

    #[test]
    fn csv_is_sorted_and_parseable() {
        let map = sample_map();
        let csv = to_csv(&map);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "cell,lon,lat,messages,vessels,mean_sog"
        );
        let mut last_cell = 0u64;
        let mut rows = 0usize;
        for line in lines {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 6, "{line}");
            let cell: u64 = fields[0].parse().unwrap();
            assert!(cell > last_cell, "rows must be sorted by cell id");
            last_cell = cell;
            let msgs: u64 = fields[3].parse().unwrap();
            assert!(msgs > 0);
            rows += 1;
        }
        assert_eq!(rows, map.cell_count());
    }
}
