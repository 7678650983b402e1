//! Spatial indexing and viewport windowing.
//!
//! graphVizdb \[22, 23\] — by the survey's own authors — is "*built on top
//! of spatial and database techniques offering interactive visualization
//! over very large (RDF) graphs*": lay the graph out **once**, store node
//! positions in a spatial index, and serve every pan/zoom by a *window
//! query* that touches O(result) data instead of O(n). [`QuadTree`] is
//! that index; together with the `wodex-seg` block store (E5) it
//! reproduces the disk-backed windowed rendering architecture
//! (experiment E10).

use crate::layout::{Layout, Point};

/// An axis-aligned rectangle (min/max corners).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum x.
    pub x0: f32,
    /// Minimum y.
    pub y0: f32,
    /// Maximum x.
    pub x1: f32,
    /// Maximum y.
    pub y1: f32,
}

impl Rect {
    /// Creates a rect, normalizing the corner order.
    pub fn new(x0: f32, y0: f32, x1: f32, y1: f32) -> Rect {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// True if the point is inside (inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.x0 && p.x <= self.x1 && p.y >= self.y0 && p.y <= self.y1
    }

    /// True if the rects overlap (inclusive).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && self.x1 >= other.x0 && self.y0 <= other.y1 && self.y1 >= other.y0
    }

    /// Width of the rect.
    pub fn width(&self) -> f32 {
        self.x1 - self.x0
    }

    /// Height of the rect.
    pub fn height(&self) -> f32 {
        self.y1 - self.y0
    }

    /// Translates the rect by (dx, dy) — a pan.
    pub fn translated(&self, dx: f32, dy: f32) -> Rect {
        Rect {
            x0: self.x0 + dx,
            y0: self.y0 + dy,
            x1: self.x1 + dx,
            y1: self.y1 + dy,
        }
    }

    /// Scales the rect around its center by `factor` — a zoom
    /// (`factor < 1` zooms in).
    pub fn zoomed(&self, factor: f32) -> Rect {
        let cx = (self.x0 + self.x1) / 2.0;
        let cy = (self.y0 + self.y1) / 2.0;
        let w = self.width() * factor / 2.0;
        let h = self.height() * factor / 2.0;
        Rect::new(cx - w, cy - h, cx + w, cy + h)
    }
}

const MAX_ITEMS: usize = 16;
const MAX_DEPTH: usize = 12;

/// A point quadtree storing `(position, node_id)` entries.
#[derive(Debug)]
pub struct QuadTree {
    bounds: Rect,
    items: Vec<(Point, u32)>,
    children: Option<Box<[QuadTree; 4]>>,
    depth: usize,
    len: usize,
}

impl QuadTree {
    /// Creates an empty tree over the given bounds.
    pub fn new(bounds: Rect) -> QuadTree {
        QuadTree {
            bounds,
            items: Vec::new(),
            children: None,
            depth: 0,
            len: 0,
        }
    }

    /// Builds a tree over a layout (node ids = positions indexes).
    pub fn from_layout(layout: &Layout) -> QuadTree {
        let (min, max) = layout
            .bounds()
            .unwrap_or((Point::default(), Point::new(1.0, 1.0)));
        let mut qt = QuadTree::new(Rect::new(
            min.x,
            min.y,
            max.x.max(min.x + 1e-3),
            max.y.max(min.y + 1e-3),
        ));
        for (i, p) in layout.positions.iter().enumerate() {
            qt.insert(*p, i as u32);
        }
        qt
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a point (clamped into bounds if outside).
    pub fn insert(&mut self, p: Point, id: u32) {
        let p = Point::new(
            p.x.clamp(self.bounds.x0, self.bounds.x1),
            p.y.clamp(self.bounds.y0, self.bounds.y1),
        );
        self.insert_inner(p, id);
    }

    fn insert_inner(&mut self, p: Point, id: u32) {
        self.len += 1;
        if self.children.is_none() {
            if self.items.len() < MAX_ITEMS || self.depth >= MAX_DEPTH {
                self.items.push((p, id));
                return;
            }
            self.split();
        }
        let q = self.quadrant(&p);
        self.children.as_mut().expect("split above")[q].insert_inner(p, id);
    }

    fn split(&mut self) {
        let b = self.bounds;
        let cx = (b.x0 + b.x1) / 2.0;
        let cy = (b.y0 + b.y1) / 2.0;
        let mk = |r: Rect, depth: usize| QuadTree {
            bounds: r,
            items: Vec::new(),
            children: None,
            depth,
            len: 0,
        };
        let d = self.depth + 1;
        self.children = Some(Box::new([
            mk(Rect::new(b.x0, b.y0, cx, cy), d),
            mk(Rect::new(cx, b.y0, b.x1, cy), d),
            mk(Rect::new(b.x0, cy, cx, b.y1), d),
            mk(Rect::new(cx, cy, b.x1, b.y1), d),
        ]));
        let items = std::mem::take(&mut self.items);
        for (p, id) in items {
            let q = self.quadrant(&p);
            let child = &mut self.children.as_mut().expect("just set")[q];
            child.len += 1;
            child.items.push((p, id));
        }
    }

    fn quadrant(&self, p: &Point) -> usize {
        let cx = (self.bounds.x0 + self.bounds.x1) / 2.0;
        let cy = (self.bounds.y0 + self.bounds.y1) / 2.0;
        (usize::from(p.x >= cx)) | (usize::from(p.y >= cy) << 1)
    }

    /// All `(position, id)` entries inside the window. Also reports how
    /// many tree nodes were visited (the work accounting of E10).
    pub fn query(&self, window: &Rect) -> (Vec<(Point, u32)>, usize) {
        let mut out = Vec::new();
        let mut visited = 0usize;
        self.query_into(window, &mut out, &mut visited);
        (out, visited)
    }

    fn query_into(&self, window: &Rect, out: &mut Vec<(Point, u32)>, visited: &mut usize) {
        *visited += 1;
        if !self.bounds.intersects(window) {
            return;
        }
        for (p, id) in &self.items {
            if window.contains(p) {
                out.push((*p, *id));
            }
        }
        if let Some(children) = &self.children {
            for c in children.iter() {
                c.query_into(window, out, visited);
            }
        }
    }

    /// The nearest stored point to `p` (None when empty) — the "click on
    /// a node" hit test.
    pub fn nearest(&self, p: &Point) -> Option<(Point, u32)> {
        let mut best: Option<((Point, u32), f32)> = None;
        self.nearest_inner(p, &mut best);
        best.map(|(e, _)| e)
    }

    fn nearest_inner(&self, p: &Point, best: &mut Option<((Point, u32), f32)>) {
        // Prune: skip boxes farther than the current best.
        if let Some((_, bd)) = best {
            let dx = (self.bounds.x0 - p.x).max(0.0).max(p.x - self.bounds.x1);
            let dy = (self.bounds.y0 - p.y).max(0.0).max(p.y - self.bounds.y1);
            if dx * dx + dy * dy > *bd {
                return;
            }
        }
        for (q, id) in &self.items {
            let d = (q.x - p.x).powi(2) + (q.y - p.y).powi(2);
            if best.is_none() || d < best.expect("checked").1 {
                *best = Some(((*q, *id), d));
            }
        }
        if let Some(children) = &self.children {
            // Visit the quadrant containing p first for better pruning.
            let first = self.quadrant(p);
            children[first].nearest_inner(p, best);
            for (i, c) in children.iter().enumerate() {
                if i != first {
                    c.nearest_inner(p, best);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Layout {
        let cols = (n as f32).sqrt().ceil() as usize;
        Layout {
            positions: (0..n)
                .map(|i| Point::new((i % cols) as f32, (i / cols) as f32))
                .collect(),
        }
    }

    #[test]
    fn rect_geometry() {
        let r = Rect::new(10.0, 10.0, 0.0, 0.0); // normalized
        assert_eq!((r.x0, r.y1), (0.0, 10.0));
        assert!(r.contains(&Point::new(5.0, 5.0)));
        assert!(!r.contains(&Point::new(11.0, 5.0)));
        assert!(r.intersects(&Rect::new(9.0, 9.0, 20.0, 20.0)));
        assert!(!r.intersects(&Rect::new(11.0, 11.0, 20.0, 20.0)));
        let panned = r.translated(5.0, 0.0);
        assert_eq!(panned.x0, 5.0);
        let zoomed = r.zoomed(0.5);
        assert_eq!(zoomed.width(), 5.0);
        assert_eq!((zoomed.x0 + zoomed.x1) / 2.0, 5.0);
    }

    #[test]
    fn query_matches_brute_force() {
        let layout = grid_points(900);
        let qt = QuadTree::from_layout(&layout);
        assert_eq!(qt.len(), 900);
        for window in [
            Rect::new(0.0, 0.0, 5.0, 5.0),
            Rect::new(10.5, 10.5, 20.0, 15.0),
            Rect::new(-5.0, -5.0, 100.0, 100.0),
            Rect::new(3.2, 3.2, 3.8, 3.8), // no points
        ] {
            let (mut got, _) = qt.query(&window);
            got.sort_by_key(|&(_, id)| id);
            let want: Vec<u32> = layout
                .positions
                .iter()
                .enumerate()
                .filter(|(_, p)| window.contains(p))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(
                got.iter().map(|&(_, id)| id).collect::<Vec<_>>(),
                want,
                "window {window:?}"
            );
        }
    }

    #[test]
    fn small_window_visits_few_nodes() {
        let layout = grid_points(10_000);
        let qt = QuadTree::from_layout(&layout);
        let (_, visited_small) = qt.query(&Rect::new(0.0, 0.0, 3.0, 3.0));
        let (_, visited_all) = qt.query(&Rect::new(-1.0, -1.0, 101.0, 101.0));
        assert!(
            visited_small * 5 < visited_all,
            "small window visited {visited_small}, full {visited_all}"
        );
    }

    #[test]
    fn nearest_finds_the_closest_point() {
        let layout = grid_points(100);
        let qt = QuadTree::from_layout(&layout);
        let (p, id) = qt.nearest(&Point::new(5.4, 5.4)).unwrap();
        assert_eq!((p.x, p.y), (5.0, 5.0));
        assert_eq!(id, 55);
        assert!(QuadTree::new(Rect::new(0.0, 0.0, 1.0, 1.0))
            .nearest(&Point::new(0.5, 0.5))
            .is_none());
    }

    #[test]
    fn nearest_matches_brute_force_on_random_queries() {
        let layout = grid_points(400);
        let qt = QuadTree::from_layout(&layout);
        for i in 0..50 {
            let p = Point::new((i as f32 * 0.37) % 20.0, (i as f32 * 0.73) % 20.0);
            let (_, got) = qt.nearest(&p).unwrap();
            let want = layout
                .positions
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.dist(&p).partial_cmp(&b.dist(&p)).unwrap())
                .map(|(i, _)| i as u32)
                .unwrap();
            assert_eq!(
                layout.positions[got as usize].dist(&p),
                layout.positions[want as usize].dist(&p),
                "query {p:?}"
            );
        }
    }

    #[test]
    fn duplicate_positions_are_kept() {
        let mut qt = QuadTree::new(Rect::new(0.0, 0.0, 10.0, 10.0));
        for i in 0..100 {
            qt.insert(Point::new(5.0, 5.0), i);
        }
        assert_eq!(qt.len(), 100);
        let (hits, _) = qt.query(&Rect::new(4.0, 4.0, 6.0, 6.0));
        assert_eq!(hits.len(), 100);
    }

    #[test]
    fn out_of_bounds_inserts_are_clamped() {
        let mut qt = QuadTree::new(Rect::new(0.0, 0.0, 10.0, 10.0));
        qt.insert(Point::new(-5.0, 20.0), 1);
        let (hits, _) = qt.query(&Rect::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn pan_zoom_session_over_index() {
        // Simulated exploration: pan right, zoom in — every step a window
        // query that returns the right result set.
        let layout = grid_points(2500);
        let qt = QuadTree::from_layout(&layout);
        let mut view = Rect::new(0.0, 0.0, 10.0, 10.0);
        let mut sizes = Vec::new();
        for _ in 0..5 {
            view = view.translated(5.0, 0.0);
            sizes.push(qt.query(&view).0.len());
        }
        view = view.zoomed(0.5);
        let zoomed_size = qt.query(&view).0.len();
        assert!(zoomed_size < *sizes.last().unwrap());
    }
}
