//! A 2-d kd-tree (Bentley 1975) supporting circular range queries.
//!
//! This is the substrate for the paper's `RQS_kd` baseline (Section 2.2):
//! for every pixel `q`, find all points within distance `b` and sum the
//! kernel. The tree is built once per dataset (`O(n log n)` via
//! median-of-medians style `select_nth_unstable`), stored as an implicit
//! flat array of nodes for cache locality.

use kdv_core::geom::{Point, Rect};

/// A node of the flattened kd-tree.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Split coordinate (x at even depth, y at odd depth).
    split: f64,
    /// Bounding rectangle of the subtree, used for pruning.
    bounds: Rect,
    /// Index of the left child in `nodes`, `u32::MAX` for leaves.
    left: u32,
    /// Index of the right child in `nodes`, `u32::MAX` for leaves.
    right: u32,
    /// Range of `points` covered by this subtree: `[start, end)`.
    start: u32,
    end: u32,
}

const NIL: u32 = u32::MAX;
/// Subtrees of at most this many points become leaves.
const LEAF_SIZE: usize = 16;

/// A static 2-d kd-tree over a point set.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
    /// Points reordered so each subtree owns a contiguous slice.
    points: Vec<Point>,
    root: u32,
}

impl KdTree {
    /// Builds the tree in `O(n log n)`; `points` may be empty.
    pub fn build(points: &[Point]) -> Self {
        let mut pts = points.to_vec();
        let mut nodes = Vec::with_capacity(points.len() / LEAF_SIZE * 2 + 1);
        let n = pts.len();
        let root = if n == 0 { NIL } else { Self::build_rec(&mut pts, 0, n, 0, &mut nodes) };
        Self { nodes, points: pts, root }
    }

    fn build_rec(
        pts: &mut [Point],
        start: usize,
        end: usize,
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> u32 {
        let slice = &mut pts[start..end];
        let bounds = Rect::mbr(slice);
        let id = nodes.len() as u32;
        nodes.push(Node {
            split: 0.0,
            bounds,
            left: NIL,
            right: NIL,
            start: start as u32,
            end: end as u32,
        });
        if slice.len() > LEAF_SIZE {
            let mid = slice.len() / 2;
            if depth.is_multiple_of(2) {
                slice.select_nth_unstable_by(mid, |a, b| a.x.total_cmp(&b.x));
                nodes[id as usize].split = slice[mid].x;
            } else {
                slice.select_nth_unstable_by(mid, |a, b| a.y.total_cmp(&b.y));
                nodes[id as usize].split = slice[mid].y;
            }
            let left = Self::build_rec(pts, start, start + mid, depth + 1, nodes);
            let right = Self::build_rec(pts, start + mid, end, depth + 1, nodes);
            nodes[id as usize].left = left;
            nodes[id as usize].right = right;
        }
        id
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Calls `f(p)` for every point with `dist(q, p) ≤ radius`.
    ///
    /// Classic branch-and-bound: a subtree is skipped when the query circle
    /// misses its bounding rectangle. Worst case `O(n)`, typical
    /// `O(√n + k)` for `k` results.
    pub fn for_each_in_range<F: FnMut(&Point)>(&self, q: &Point, radius: f64, mut f: F) {
        if self.root == NIL {
            return;
        }
        let r2 = radius * radius;
        self.range_rec(self.root, q, r2, &mut f);
    }

    fn range_rec<F: FnMut(&Point)>(&self, id: u32, q: &Point, r2: f64, f: &mut F) {
        let node = &self.nodes[id as usize];
        if node.bounds.min_dist_sq(q) > r2 {
            return;
        }
        if node.left == NIL {
            for p in &self.points[node.start as usize..node.end as usize] {
                if q.dist_sq(p) <= r2 {
                    f(p);
                }
            }
            return;
        }
        self.range_rec(node.left, q, r2, f);
        self.range_rec(node.right, q, r2, f);
    }

    /// Counts points within `radius` of `q` without materialising them.
    pub fn count_in_range(&self, q: &Point, radius: f64) -> usize {
        let mut n = 0usize;
        self.for_each_in_range(q, radius, |_| n += 1);
        n
    }

    /// Heap bytes held by the index (space-consumption experiment).
    pub fn space_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.points.capacity() * std::mem::size_of::<Point>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..30 {
            for j in 0..30 {
                pts.push(Point::new(i as f64, j as f64));
            }
        }
        pts
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.count_in_range(&Point::new(0.0, 0.0), 10.0), 0);
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let pts = grid_points();
        let t = KdTree::build(&pts);
        assert_eq!(t.len(), pts.len());
        for (q, r) in [
            (Point::new(15.0, 15.0), 4.5),
            (Point::new(0.0, 0.0), 2.0),
            (Point::new(-5.0, -5.0), 3.0),   // fully outside
            (Point::new(29.0, 29.0), 100.0), // covers everything
            (Point::new(10.5, 10.5), 0.0),   // zero radius between points
            (Point::new(10.0, 10.0), 0.0),   // zero radius on a point
        ] {
            let expect = pts.iter().filter(|p| q.dist_sq(p) <= r * r).count();
            assert_eq!(t.count_in_range(&q, r), expect, "q={q}, r={r}");
        }
    }

    #[test]
    fn range_query_returns_correct_points() {
        let pts = grid_points();
        let t = KdTree::build(&pts);
        let q = Point::new(3.0, 3.0);
        let mut got = Vec::new();
        t.for_each_in_range(&q, 1.0, |p| got.push(*p));
        got.sort_by(|a, b| (a.x, a.y).partial_cmp(&(b.x, b.y)).unwrap());
        let mut expect: Vec<Point> = pts.iter().filter(|p| q.dist(p) <= 1.0).copied().collect();
        expect.sort_by(|a, b| (a.x, a.y).partial_cmp(&(b.x, b.y)).unwrap());
        assert_eq!(got, expect);
        assert_eq!(got.len(), 5); // centre + 4 neighbours
    }

    #[test]
    fn duplicates_preserved() {
        let pts = vec![Point::new(1.0, 1.0); 40];
        let t = KdTree::build(&pts);
        assert_eq!(t.count_in_range(&Point::new(1.0, 1.0), 0.5), 40);
    }

    #[test]
    fn boundary_inclusive() {
        let pts = vec![Point::new(3.0, 4.0)];
        let t = KdTree::build(&pts);
        // dist from origin is exactly 5
        assert_eq!(t.count_in_range(&Point::new(0.0, 0.0), 5.0), 1);
        assert_eq!(t.count_in_range(&Point::new(0.0, 0.0), 4.999_999), 0);
    }
}
