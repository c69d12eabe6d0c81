//! Planar geometry primitives shared by every KDV method.
//!
//! The paper works in a projected coordinate system (metres), so all
//! geometry here is plain Euclidean `f64` geometry. Points are `Copy`
//! 16-byte values; algorithms store them in flat `Vec<Point>` buffers for
//! cache-friendly scans.

use std::fmt;

/// A location data point `p = (p.x, p.y)` in projected (metric) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// x-coordinate (e.g. easting in metres).
    pub x: f64,
    /// y-coordinate (e.g. northing in metres).
    pub y: f64,
}

impl Point {
    /// Creates a point from its two coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Kernels compare against `b²`, so the square root is never needed on
    /// the hot path.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared L2 norm `‖p‖²`, used by the aggregate decomposition (Eq. 5).
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Component-wise translation by `(-dx, -dy)`; used to recentre data
    /// around the query region for numerical conditioning.
    #[inline]
    pub fn shifted(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x - dx, self.y - dy)
    }

    /// Swaps the two coordinates. The resolution-aware optimization (RAO)
    /// runs the row engines on transposed inputs.
    #[inline]
    pub fn transposed(&self) -> Point {
        Point::new(self.y, self.x)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle, used for query regions, dataset MBRs and
/// spatial-index node bounds.
///
/// A `Rect` is closed on all sides: it contains points with
/// `min_x ≤ x ≤ max_x` and `min_y ≤ y ≤ max_y`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// # Panics
    /// Panics (debug builds) if the rectangle is inverted.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rect");
        Self { min_x, min_y, max_x, max_y }
    }

    /// The empty rectangle: an identity for [`Rect::expand`].
    pub const EMPTY: Rect = Rect {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Minimum bounding rectangle of a point set, or [`Rect::EMPTY`] when
    /// `points` is empty.
    pub fn mbr(points: &[Point]) -> Rect {
        let mut r = Rect::EMPTY;
        for p in points {
            r.expand(p);
        }
        r
    }

    /// Grows the rectangle to contain `p`.
    #[inline]
    pub fn expand(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Width along the x-axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height along the y-axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// The centre point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(0.5 * (self.min_x + self.max_x), 0.5 * (self.min_y + self.max_y))
    }

    /// Whether the (closed) rectangle contains `p`.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Squared distance from `p` to the nearest point of the rectangle
    /// (zero when `p` is inside). Used for index pruning: a node can be
    /// skipped when `min_dist_sq(q) > b²`.
    #[inline]
    pub fn min_dist_sq(&self, p: &Point) -> f64 {
        let dx = if p.x < self.min_x {
            self.min_x - p.x
        } else if p.x > self.max_x {
            p.x - self.max_x
        } else {
            0.0
        };
        let dy = if p.y < self.min_y {
            self.min_y - p.y
        } else if p.y > self.max_y {
            p.y - self.max_y
        } else {
            0.0
        };
        dx * dx + dy * dy
    }

    /// Squared distance from `p` to the farthest point of the rectangle.
    /// A node lies entirely within range when `max_dist_sq(q) ≤ b²`, in
    /// which case its pre-computed aggregates can be added in O(1)
    /// (the QUAD/aKDE trick).
    #[inline]
    pub fn max_dist_sq(&self, p: &Point) -> f64 {
        let dx = (p.x - self.min_x).abs().max((p.x - self.max_x).abs());
        let dy = (p.y - self.min_y).abs().max((p.y - self.max_y).abs());
        dx * dx + dy * dy
    }

    /// Rectangle with x/y swapped (for RAO transposition).
    #[inline]
    pub fn transposed(&self) -> Rect {
        Rect::new(self.min_y, self.min_x, self.max_y, self.max_x)
    }

    /// A rectangle scaled about its centre by `(sx, sy)` (zoom operation).
    pub fn scaled_about_center(&self, sx: f64, sy: f64) -> Rect {
        let c = self.center();
        let hw = 0.5 * self.width() * sx;
        let hh = 0.5 * self.height() * sy;
        Rect::new(c.x - hw, c.y - hh, c.x + hw, c.y + hh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_and_norm() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.norm_sq(), 5.0);
    }

    #[test]
    fn point_transposed_is_involution() {
        let p = Point::new(3.5, -2.0);
        assert_eq!(p.transposed().transposed(), p);
    }

    #[test]
    fn mbr_covers_all_points() {
        let pts = [Point::new(0.0, 5.0), Point::new(-3.0, 2.0), Point::new(7.0, -1.0)];
        let r = Rect::mbr(&pts);
        assert_eq!(r, Rect::new(-3.0, -1.0, 7.0, 5.0));
        for p in &pts {
            assert!(r.contains(p));
        }
    }

    #[test]
    fn mbr_of_empty_is_empty() {
        let r = Rect::mbr(&[]);
        assert!(r.min_x > r.max_x);
    }

    #[test]
    fn min_dist_sq_inside_is_zero() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(r.min_dist_sq(&Point::new(5.0, 5.0)), 0.0);
        assert_eq!(r.min_dist_sq(&Point::new(13.0, 14.0)), 9.0 + 16.0);
    }

    #[test]
    fn max_dist_sq_is_farthest_corner() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        // farthest corner from (0,0)-adjacent exterior point (-1, 0) is (2, 2)
        assert_eq!(r.max_dist_sq(&Point::new(-1.0, 0.0)), 9.0 + 4.0);
    }

    #[test]
    fn zoom_and_pan() {
        let r = Rect::new(0.0, 0.0, 10.0, 20.0);
        let z = r.scaled_about_center(0.5, 0.5);
        assert_eq!(z, Rect::new(2.5, 5.0, 7.5, 15.0));
    }

    #[test]
    fn rect_transposed_swaps_axes() {
        let r = Rect::new(1.0, 2.0, 3.0, 5.0);
        let t = r.transposed();
        assert_eq!(t, Rect::new(2.0, 1.0, 5.0, 3.0));
        assert_eq!(t.transposed(), r);
    }
}
