//! An aggregate-augmented quadtree — substrate for the QUAD and aKDE
//! baselines.
//!
//! Each node stores the [`RangeAggregates`] of its subtree. During a query
//! for pixel `q` with bandwidth `b`:
//!
//! * a node entirely **outside** the circle (`min_dist > b`) contributes 0
//!   and is pruned;
//! * a node entirely **inside** (`max_dist ≤ b`) contributes its aggregates
//!   in O(1) — because the Table-2 kernels decompose over aggregates, this
//!   preserves exactness (the quadratic-bound idea of QUAD, Chan et al.
//!   SIGMOD 2020);
//! * straddling nodes recurse; leaves fall back to per-point evaluation.
//!
//! The node accessors additionally expose bounds/aggregates/children so the
//! aKDE (Gray & Moore 2003) baseline can run its own bounded traversal with
//! an approximation budget.

use kdv_core::aggregate::RangeAggregates;
use kdv_core::geom::{Point, Rect};

/// Sentinel child index meaning "absent".
pub(crate) const NIL: u32 = u32::MAX;
const LEAF_SIZE: usize = 32;
const MAX_DEPTH: usize = 24;

#[derive(Debug, Clone)]
struct Node {
    /// Tight bounding rectangle (MBR of the subtree's points).
    bounds: Rect,
    /// Aggregates of every point in the subtree.
    agg: RangeAggregates,
    /// Child node indices (SW, SE, NW, NE); `NIL` for absent. A leaf has
    /// all four absent.
    children: [u32; 4],
    /// Point range `[start, end)` owned by the subtree.
    start: u32,
    end: u32,
}

impl Node {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.children == [NIL; 4]
    }
}

/// A static aggregate quadtree over a 2-d point set.
#[derive(Debug, Clone)]
pub struct QuadTree {
    nodes: Vec<Node>,
    points: Vec<Point>,
    root: u32,
}

impl QuadTree {
    /// Builds the tree in `O(n log n)` expected time.
    pub fn build(points: &[Point]) -> Self {
        let mut pts = points.to_vec();
        let mut nodes = Vec::new();
        let n = pts.len();
        let root = if n == 0 {
            NIL
        } else {
            let bounds = Rect::mbr(&pts);
            Self::build_rec(&mut pts, 0, n, bounds, 0, &mut nodes)
        };
        Self { nodes, points: pts, root }
    }

    fn build_rec(
        pts: &mut [Point],
        start: usize,
        end: usize,
        bounds: Rect,
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> u32 {
        let slice = &mut pts[start..end];
        let agg = RangeAggregates::from_points(slice);
        let tight = Rect::mbr(slice);
        let id = nodes.len() as u32;
        nodes.push(Node {
            bounds: tight,
            agg,
            children: [NIL; 4],
            start: start as u32,
            end: end as u32,
        });
        if slice.len() > LEAF_SIZE && depth < MAX_DEPTH {
            let c = bounds.center();
            // partition into quadrants [SW | SE | NW | NE] via two passes
            let split_y = partition(slice, |p| p.y < c.y);
            let split_x_bottom = partition(&mut slice[..split_y], |p| p.x < c.x);
            let split_x_top = partition(&mut slice[split_y..], |p| p.x < c.x);

            let q_bounds = [
                Rect::new(bounds.min_x, bounds.min_y, c.x, c.y),
                Rect::new(c.x, bounds.min_y, bounds.max_x, c.y),
                Rect::new(bounds.min_x, c.y, c.x, bounds.max_y),
                Rect::new(c.x, c.y, bounds.max_x, bounds.max_y),
            ];
            let ranges = [
                (start, start + split_x_bottom),
                (start + split_x_bottom, start + split_y),
                (start + split_y, start + split_y + split_x_top),
                (start + split_y + split_x_top, end),
            ];
            // a degenerate split (all points in one quadrant, e.g. all
            // identical) stays a leaf to guarantee termination
            let degenerate = ranges.iter().any(|(s, e)| e - s == end - start);
            if !degenerate {
                let mut children = [NIL; 4];
                for (slot, ((s, e), qb)) in ranges.iter().zip(q_bounds).enumerate() {
                    if e > s {
                        children[slot] = Self::build_rec(pts, *s, *e, qb, depth + 1, nodes);
                    }
                }
                nodes[id as usize].children = children;
            }
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

    /// Visits the tree for a circular query: `on_agg` receives the
    /// aggregates of subtrees entirely inside the circle, `on_point`
    /// each individual in-range point of straddling leaves.
    pub fn visit_range<A: FnMut(&RangeAggregates), P: FnMut(&Point)>(
        &self,
        q: &Point,
        radius: f64,
        mut on_agg: A,
        mut on_point: P,
    ) {
        if self.root == NIL {
            return;
        }
        self.visit_rec(self.root, q, radius * radius, &mut on_agg, &mut on_point);
    }

    fn visit_rec<A: FnMut(&RangeAggregates), P: FnMut(&Point)>(
        &self,
        id: u32,
        q: &Point,
        r2: f64,
        on_agg: &mut A,
        on_point: &mut P,
    ) {
        let node = &self.nodes[id as usize];
        if node.agg.count == 0 || node.bounds.min_dist_sq(q) > r2 {
            return;
        }
        if node.bounds.max_dist_sq(q) <= r2 {
            on_agg(&node.agg);
            return;
        }
        if node.is_leaf() {
            for p in &self.points[node.start as usize..node.end as usize] {
                if q.dist_sq(p) <= r2 {
                    on_point(p);
                }
            }
            return;
        }
        for &child in &node.children {
            if child != NIL {
                self.visit_rec(child, q, r2, on_agg, on_point);
            }
        }
    }

    /// Root node id, or `u32::MAX` when the tree is empty.
    pub fn root_id(&self) -> u32 {
        self.root
    }

    /// Raw node accessor for custom traversals (aKDE): returns
    /// `(bounds, aggregates, children, point_range)`; children entries are
    /// `u32::MAX` when absent.
    pub fn node_info(&self, id: u32) -> (Rect, &RangeAggregates, [u32; 4], (u32, u32)) {
        let n = &self.nodes[id as usize];
        (n.bounds, &n.agg, n.children, (n.start, n.end))
    }

    /// The reordered point slice `[start, end)` of a node.
    pub fn points_slice(&self, start: u32, end: u32) -> &[Point] {
        &self.points[start as usize..end as usize]
    }

    /// Heap bytes held by the index.
    pub fn space_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.points.capacity() * std::mem::size_of::<Point>()
    }
}

/// In-place partition; returns the count of elements satisfying `pred`,
/// which end up in the prefix.
fn partition<F: Fn(&Point) -> bool>(slice: &mut [Point], pred: F) -> usize {
    let mut i = 0usize;
    for j in 0..slice.len() {
        if pred(&slice[j]) {
            slice.swap(i, j);
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_points() -> Vec<Point> {
        let mut pts = Vec::new();
        let mut state = 123u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..500 {
            pts.push(Point::new(next() * 100.0, next() * 100.0));
        }
        // dense clump to force deep subdivision
        for _ in 0..300 {
            pts.push(Point::new(20.0 + next(), 20.0 + next()));
        }
        pts
    }

    /// Count via the visitor must equal a linear scan: aggregates for
    /// inside nodes + per-point hits for straddlers.
    #[test]
    fn visit_range_counts_match_scan() {
        let pts = mixed_points();
        let t = QuadTree::build(&pts);
        for (q, r) in [
            (Point::new(20.5, 20.5), 2.0),
            (Point::new(50.0, 50.0), 30.0),
            (Point::new(-10.0, -10.0), 5.0),
            (Point::new(50.0, 50.0), 500.0),
        ] {
            let count = std::cell::Cell::new(0u64);
            t.visit_range(
                &q,
                r,
                |agg| count.set(count.get() + agg.count),
                |_| count.set(count.get() + 1),
            );
            let expect = pts.iter().filter(|p| q.dist_sq(p) <= r * r).count() as u64;
            assert_eq!(count.get(), expect, "q={q}, r={r}");
        }
    }

    /// Aggregate sums collected through the visitor must equal the sums
    /// over the scan-based range set.
    #[test]
    fn visit_range_aggregates_match_scan() {
        let pts = mixed_points();
        let t = QuadTree::build(&pts);
        let q = Point::new(40.0, 35.0);
        let r = 25.0;
        let got = std::cell::RefCell::new(RangeAggregates::default());
        t.visit_range(&q, r, |agg| got.borrow_mut().merge(agg), |p| got.borrow_mut().add(p));
        let got = got.into_inner();
        let mut expect = RangeAggregates::default();
        for p in pts.iter().filter(|p| q.dist_sq(p) <= r * r) {
            expect.add(p);
        }
        assert_eq!(got.count, expect.count);
        assert!((got.ax - expect.ax).abs() < 1e-9 * expect.ax.abs().max(1.0));
        assert!((got.s - expect.s).abs() < 1e-9 * expect.s.abs().max(1.0));
        assert!((got.q4 - expect.q4).abs() < 1e-9 * expect.q4.abs().max(1.0));
    }

    #[test]
    fn all_identical_points_degenerate_split() {
        let pts = vec![Point::new(5.0, 5.0); 200];
        let t = QuadTree::build(&pts);
        let count = std::cell::Cell::new(0u64);
        t.visit_range(
            &Point::new(5.0, 5.0),
            1.0,
            |agg| count.set(count.get() + agg.count),
            |_| count.set(count.get() + 1),
        );
        assert_eq!(count.get(), 200);
    }

    #[test]
    fn empty_tree() {
        let t = QuadTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.root_id(), NIL);
        let visited = std::cell::Cell::new(false);
        t.visit_range(&Point::new(0.0, 0.0), 10.0, |_| visited.set(true), |_| visited.set(true));
        assert!(!visited.get());
    }

    #[test]
    fn root_aggregates_cover_everything() {
        let pts = mixed_points();
        let t = QuadTree::build(&pts);
        let (bounds, agg, _, _) = t.node_info(t.root_id());
        assert_eq!(agg.count as usize, pts.len());
        for p in &pts {
            assert!(bounds.contains(p));
        }
    }

    #[test]
    fn node_info_children_consistent() {
        let pts = mixed_points();
        let t = QuadTree::build(&pts);
        // BFS over the tree: every child's point range must nest within
        // its parent's and child counts must sum to the parent count when
        // all quadrants exist.
        let mut stack = vec![t.root_id()];
        while let Some(id) = stack.pop() {
            let (_, agg, children, (s, e)) = t.node_info(id);
            assert_eq!(agg.count as usize, (e - s) as usize);
            let mut child_total = 0u64;
            let mut has_children = false;
            for c in children {
                if c != NIL {
                    has_children = true;
                    let (_, cagg, _, (cs, ce)) = t.node_info(c);
                    assert!(cs >= s && ce <= e, "child range nests");
                    child_total += cagg.count;
                    stack.push(c);
                }
            }
            if has_children {
                assert_eq!(child_total, agg.count, "children partition parent");
            }
        }
    }
}
