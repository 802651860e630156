//! Plane geometry primitives shared across the workspace.
//!
//! Everything here is deliberately small and `Copy`: points, displacement
//! vectors and axis-aligned rectangles are passed around by value throughout
//! the codec, the recognition pipelines and the detection metrics.

/// A position in continuous frame coordinates (x grows right, y grows down).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in pixels.
    pub x: f32,
    /// Vertical coordinate in pixels.
    pub y: f32,
}

impl Point {
    /// Creates a point from its two coordinates.
    pub fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Returns the point displaced by `v`.
    pub fn offset(self, v: Vec2) -> Self {
        Self::new(self.x + v.dx, self.y + v.dy)
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f32 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A displacement in continuous frame coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal displacement in pixels.
    pub dx: f32,
    /// Vertical displacement in pixels.
    pub dy: f32,
}

impl Vec2 {
    /// Creates a displacement from its two components.
    pub fn new(dx: f32, dy: f32) -> Self {
        Self { dx, dy }
    }

    /// Vector length (L2 norm).
    pub fn norm(self) -> f32 {
        (self.dx * self.dx + self.dy * self.dy).sqrt()
    }

    /// Component-wise scaling.
    pub fn scaled(self, k: f32) -> Self {
        Self::new(self.dx * k, self.dy * k)
    }
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.dx + rhs.dx, self.dy + rhs.dy)
    }
}

/// An axis-aligned rectangle in pixel coordinates.
///
/// `x0/y0` are inclusive, `x1/y1` are exclusive, matching slice-style
/// half-open ranges. An empty rectangle has `x1 <= x0` or `y1 <= y0`.
///
/// Rectangles are the unit of currency for the detection task: ground-truth
/// boxes, Euphrates' propagated boxes and VR-DANN's reconstructed boxes are
/// all `Rect`s compared with [`Rect::iou`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: i32,
    /// Top edge (inclusive).
    pub y0: i32,
    /// Right edge (exclusive).
    pub x1: i32,
    /// Bottom edge (exclusive).
    pub y1: i32,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    pub fn new(x0: i32, y0: i32, x1: i32, y1: i32) -> Self {
        Self { x0, y0, x1, y1 }
    }

    /// Creates a rectangle from a corner plus a size.
    pub fn from_size(x0: i32, y0: i32, w: i32, h: i32) -> Self {
        Self::new(x0, y0, x0 + w, y0 + h)
    }

    /// Width in pixels; zero for empty rectangles.
    pub fn width(&self) -> i32 {
        (self.x1 - self.x0).max(0)
    }

    /// Height in pixels; zero for empty rectangles.
    pub fn height(&self) -> i32 {
        (self.y1 - self.y0).max(0)
    }

    /// Area in pixels; zero for empty rectangles.
    pub fn area(&self) -> i64 {
        self.width() as i64 * self.height() as i64
    }

    /// Whether the rectangle covers no pixels.
    pub fn is_empty(&self) -> bool {
        self.area() == 0
    }

    /// Intersection with `other` (possibly empty).
    pub fn intersect(&self, other: &Rect) -> Rect {
        Rect::new(
            self.x0.max(other.x0),
            self.y0.max(other.y0),
            self.x1.min(other.x1),
            self.y1.min(other.y1),
        )
    }

    /// Smallest rectangle containing both `self` and `other`.
    ///
    /// Empty rectangles are treated as the identity element.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect::new(
            self.x0.min(other.x0),
            self.y0.min(other.y0),
            self.x1.max(other.x1),
            self.y1.max(other.y1),
        )
    }

    /// Intersection-over-union of the two boxes, in `[0, 1]`.
    ///
    /// Two empty boxes have IoU 0.
    pub fn iou(&self, other: &Rect) -> f64 {
        let inter = self.intersect(other).area();
        let uni = self.area() + other.area() - inter;
        if uni <= 0 {
            0.0
        } else {
            inter as f64 / uni as f64
        }
    }

    /// Translates the rectangle by an integer displacement.
    pub fn shifted(&self, dx: i32, dy: i32) -> Rect {
        Rect::new(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)
    }

    /// Clamps the rectangle into a `w`×`h` frame.
    pub fn clamped(&self, w: usize, h: usize) -> Rect {
        Rect::new(
            self.x0.clamp(0, w as i32),
            self.y0.clamp(0, h as i32),
            self.x1.clamp(0, w as i32),
            self.y1.clamp(0, h as i32),
        )
    }

    /// Whether the point `(x, y)` falls inside the rectangle.
    pub fn contains(&self, x: i32, y: i32) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }
}

/// A scored detection box, the output unit of every detection pipeline and
/// the input unit of the mAP metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The detected bounding box.
    pub rect: Rect,
    /// Confidence score in `[0, 1]`; higher ranks earlier in AP computation.
    pub score: f32,
}

impl Detection {
    /// Creates a detection.
    pub fn new(rect: Rect, score: f32) -> Self {
        Self { rect, score }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_holds_box_and_score() {
        let d = Detection::new(Rect::new(0, 0, 4, 4), 0.9);
        assert_eq!(d.rect.area(), 16);
        assert!((d.score - 0.9).abs() < 1e-6);
    }

    #[test]
    fn point_offset_and_distance() {
        let p = Point::new(1.0, 2.0).offset(Vec2::new(3.0, -2.0));
        assert_eq!(p, Point::new(4.0, 0.0));
        assert!((p.distance(Point::new(0.0, 3.0)) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn vec2_norm_scale_add() {
        let v = Vec2::new(3.0, 4.0);
        assert!((v.norm() - 5.0).abs() < 1e-6);
        let w = v.scaled(2.0) + Vec2::new(-6.0, -8.0);
        assert_eq!(w, Vec2::new(0.0, 0.0));
    }

    #[test]
    fn rect_basic_accessors() {
        let r = Rect::from_size(2, 3, 4, 5);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 5);
        assert_eq!(r.area(), 20);
        assert!(!r.is_empty());
        assert!(r.contains(2, 3));
        assert!(!r.contains(6, 3));
    }

    #[test]
    fn rect_empty_when_degenerate() {
        assert!(Rect::new(5, 5, 5, 9).is_empty());
        assert!(Rect::new(5, 5, 2, 9).is_empty());
        assert_eq!(Rect::new(5, 5, 2, 9).width(), 0);
    }

    #[test]
    fn rect_intersection_and_union() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersect(&b), Rect::new(5, 5, 10, 10));
        assert_eq!(a.union(&b), Rect::new(0, 0, 15, 15));
        let empty = Rect::default();
        assert_eq!(a.union(&empty), a);
        assert_eq!(empty.union(&b), b);
    }

    #[test]
    fn rect_iou_values() {
        let a = Rect::new(0, 0, 10, 10);
        assert!((a.iou(&a) - 1.0).abs() < 1e-9);
        let disjoint = Rect::new(20, 20, 30, 30);
        assert_eq!(a.iou(&disjoint), 0.0);
        let half = Rect::new(0, 0, 5, 10);
        assert!((a.iou(&half) - 0.5).abs() < 1e-9);
        assert_eq!(Rect::default().iou(&Rect::default()), 0.0);
    }

    #[test]
    fn rect_shift_and_clamp() {
        let r = Rect::new(-4, -4, 4, 4).clamped(10, 10);
        assert_eq!(r, Rect::new(0, 0, 4, 4));
        assert_eq!(r.shifted(2, 3), Rect::new(2, 3, 6, 7));
        let over = Rect::new(5, 5, 20, 20).clamped(10, 8);
        assert_eq!(over, Rect::new(5, 5, 10, 8));
    }
}
