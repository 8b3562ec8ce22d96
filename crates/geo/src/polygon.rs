//! Simple polygons and multi-polygons used as land masks.
//!
//! The synthetic world (crate `synth`) models coastlines as polygons; sea
//! routing and navigability checks ("imputed paths must not cross
//! coastlines", paper §1) reduce to point-in-polygon and
//! segment-intersection tests against these shapes.

use crate::bbox::BBox;
use crate::point::GeoPoint;

/// A simple polygon: one outer ring of vertices in degrees, implicitly
/// closed (last vertex connects back to the first). No holes.
#[derive(Debug, Clone)]
pub struct Polygon {
    ring: Vec<GeoPoint>,
    bbox: BBox,
}

impl Polygon {
    /// Builds a polygon from its outer ring (≥ 3 vertices).
    ///
    /// # Panics
    /// Panics if fewer than 3 vertices are supplied.
    pub fn new(ring: Vec<GeoPoint>) -> Self {
        assert!(ring.len() >= 3, "polygon needs at least 3 vertices");
        let bbox = BBox::from_points(&ring).expect("non-empty ring");
        Self { ring, bbox }
    }

    /// The outer ring.
    pub fn ring(&self) -> &[GeoPoint] {
        &self.ring
    }

    /// The precomputed bounding box.
    pub fn bbox(&self) -> &BBox {
        &self.bbox
    }

    /// Even–odd point-in-polygon test (boundary points count as inside).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        if !self.bbox.contains(p) {
            return false;
        }
        let mut inside = false;
        let n = self.ring.len();
        let mut j = n - 1;
        for i in 0..n {
            let a = &self.ring[i];
            let b = &self.ring[j];
            if (a.lat > p.lat) != (b.lat > p.lat) {
                let x_cross = (b.lon - a.lon) * (p.lat - a.lat) / (b.lat - a.lat) + a.lon;
                if p.lon < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Returns `true` if the open segment `a`–`b` crosses any polygon edge.
    pub fn intersects_segment(&self, a: &GeoPoint, b: &GeoPoint) -> bool {
        // Cheap reject: segment bbox vs polygon bbox.
        let seg_box = BBox::new(
            a.lon.min(b.lon),
            a.lat.min(b.lat),
            a.lon.max(b.lon),
            a.lat.max(b.lat),
        );
        if seg_box.max_lon < self.bbox.min_lon
            || seg_box.min_lon > self.bbox.max_lon
            || seg_box.max_lat < self.bbox.min_lat
            || seg_box.min_lat > self.bbox.max_lat
        {
            return false;
        }
        let n = self.ring.len();
        let mut j = n - 1;
        for i in 0..n {
            if segments_intersect(a, b, &self.ring[j], &self.ring[i]) {
                return true;
            }
            j = i;
        }
        false
    }
}

/// Proper + touching segment intersection via orientation tests.
fn segments_intersect(p1: &GeoPoint, p2: &GeoPoint, q1: &GeoPoint, q2: &GeoPoint) -> bool {
    fn orient(a: &GeoPoint, b: &GeoPoint, c: &GeoPoint) -> f64 {
        (b.lon - a.lon) * (c.lat - a.lat) - (b.lat - a.lat) * (c.lon - a.lon)
    }
    fn on_segment(a: &GeoPoint, b: &GeoPoint, c: &GeoPoint) -> bool {
        c.lon >= a.lon.min(b.lon)
            && c.lon <= a.lon.max(b.lon)
            && c.lat >= a.lat.min(b.lat)
            && c.lat <= a.lat.max(b.lat)
    }
    let d1 = orient(q1, q2, p1);
    let d2 = orient(q1, q2, p2);
    let d3 = orient(p1, p2, q1);
    let d4 = orient(p1, p2, q2);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && on_segment(q1, q2, p1))
        || (d2 == 0.0 && on_segment(q1, q2, p2))
        || (d3 == 0.0 && on_segment(p1, p2, q1))
        || (d4 == 0.0 && on_segment(p1, p2, q2))
}

/// A collection of polygons treated as a single mask (e.g. mainland plus
/// islands).
#[derive(Debug, Clone, Default)]
pub struct MultiPolygon {
    polys: Vec<Polygon>,
}

impl MultiPolygon {
    /// Creates a mask from polygons.
    pub fn new(polys: Vec<Polygon>) -> Self {
        Self { polys }
    }

    /// The member polygons.
    pub fn polygons(&self) -> &[Polygon] {
        &self.polys
    }

    /// Point containment in any member polygon.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        self.polys.iter().any(|poly| poly.contains(p))
    }

    /// Segment intersection with any member polygon.
    pub fn intersects_segment(&self, a: &GeoPoint, b: &GeoPoint) -> bool {
        self.polys.iter().any(|poly| poly.intersects_segment(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(1.0, 0.0),
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(0.0, 1.0),
        ])
    }

    #[test]
    fn point_in_square() {
        let sq = unit_square();
        assert!(sq.contains(&GeoPoint::new(0.5, 0.5)));
        assert!(!sq.contains(&GeoPoint::new(1.5, 0.5)));
        assert!(!sq.contains(&GeoPoint::new(-0.1, 0.5)));
    }

    #[test]
    fn concave_polygon() {
        // A "U" shape; the notch interior is outside.
        let u = Polygon::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(3.0, 0.0),
            GeoPoint::new(3.0, 3.0),
            GeoPoint::new(2.0, 3.0),
            GeoPoint::new(2.0, 1.0),
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(1.0, 3.0),
            GeoPoint::new(0.0, 3.0),
        ]);
        assert!(u.contains(&GeoPoint::new(0.5, 2.0)));
        assert!(u.contains(&GeoPoint::new(2.5, 2.0)));
        assert!(!u.contains(&GeoPoint::new(1.5, 2.0)), "notch is outside");
    }

    #[test]
    fn segment_crossing_square() {
        let sq = unit_square();
        assert!(sq.intersects_segment(&GeoPoint::new(-1.0, 0.5), &GeoPoint::new(2.0, 0.5)));
        assert!(!sq.intersects_segment(&GeoPoint::new(-1.0, 2.0), &GeoPoint::new(2.0, 2.0)));
        // Entirely inside: does not cross any edge.
        assert!(!sq.intersects_segment(&GeoPoint::new(0.2, 0.2), &GeoPoint::new(0.8, 0.8)));
    }

    #[test]
    fn multipolygon_mask() {
        let mask = MultiPolygon::new(vec![
            unit_square(),
            Polygon::new(vec![
                GeoPoint::new(2.0, 2.0),
                GeoPoint::new(3.0, 2.0),
                GeoPoint::new(3.0, 3.0),
                GeoPoint::new(2.0, 3.0),
            ]),
        ]);
        assert!(mask.contains(&GeoPoint::new(0.5, 0.5)));
        assert!(mask.contains(&GeoPoint::new(2.5, 2.5)));
        assert!(!mask.contains(&GeoPoint::new(1.5, 1.5)));
    }
}
