//! Connected-component extraction: masks → detection boxes.
//!
//! The VR-DANN detection pipeline (§III-B) treats "a rectangle box and the
//! data inside as an object", reconstructs/refines it as a mask, and reads
//! the resulting boxes back out. This module does the read-out: 4-connected
//! component labelling with a minimum-size filter, each component scored by
//! its fill ratio.

use vrd_video::{Detection, Rect, SegMask};

/// Extracts scored bounding boxes of the 4-connected foreground components
/// of `mask`, dropping components smaller than `min_pixels`.
///
/// The score is the component's fill ratio of its bounding box (a compact
/// reconstructed object scores high; scattered noise scores low), which
/// gives the mAP metric a meaningful ranking signal.
pub fn extract_components(mask: &SegMask, min_pixels: usize) -> Vec<Detection> {
    let (w, h) = (mask.width(), mask.height());
    let mut visited = vec![false; w * h];
    let mut out = Vec::new();
    let mut stack = Vec::new();
    for sy in 0..h {
        for sx in 0..w {
            if mask.get(sx, sy) == 0 || visited[sy * w + sx] {
                continue;
            }
            // Flood-fill this component.
            let mut count = 0usize;
            let mut bbox = Rect::new(sx as i32, sy as i32, sx as i32 + 1, sy as i32 + 1);
            stack.push((sx, sy));
            visited[sy * w + sx] = true;
            while let Some((x, y)) = stack.pop() {
                count += 1;
                bbox = bbox.union(&Rect::new(x as i32, y as i32, x as i32 + 1, y as i32 + 1));
                let mut visit = |nx: i64, ny: i64, stack: &mut Vec<(usize, usize)>| {
                    if nx >= 0 && ny >= 0 && (nx as usize) < w && (ny as usize) < h {
                        let (nx, ny) = (nx as usize, ny as usize);
                        if mask.get(nx, ny) == 1 && !visited[ny * w + nx] {
                            visited[ny * w + nx] = true;
                            stack.push((nx, ny));
                        }
                    }
                };
                visit(x as i64 + 1, y as i64, &mut stack);
                visit(x as i64 - 1, y as i64, &mut stack);
                visit(x as i64, y as i64 + 1, &mut stack);
                visit(x as i64, y as i64 - 1, &mut stack);
            }
            if count >= min_pixels {
                let fill = count as f32 / bbox.area().max(1) as f32;
                out.push(Detection::new(bbox, fill.clamp(0.05, 1.0)));
            }
        }
    }
    // Highest-confidence first, deterministic order.
    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| (a.rect.x0, a.rect.y0).cmp(&(b.rect.x0, b.rect.y0)))
    });
    out
}

/// Rasterises detection boxes into a mask (the inverse direction, used to
/// seed the detection pipeline's reconstruction).
pub fn boxes_to_mask(boxes: &[Rect], width: usize, height: usize) -> SegMask {
    let mut m = SegMask::new(width, height);
    for b in boxes {
        m.fill_rect(*b);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_separate_components() {
        let mut m = SegMask::new(32, 16);
        m.fill_rect(Rect::new(2, 2, 8, 8));
        m.fill_rect(Rect::new(20, 4, 30, 12));
        let dets = extract_components(&m, 4);
        assert_eq!(dets.len(), 2);
        let rects: Vec<Rect> = dets.iter().map(|d| d.rect).collect();
        assert!(rects.contains(&Rect::new(2, 2, 8, 8)));
        assert!(rects.contains(&Rect::new(20, 4, 30, 12)));
        // Solid rectangles fill their boxes completely.
        assert!(dets.iter().all(|d| d.score > 0.99));
    }

    #[test]
    fn min_size_filters_noise() {
        let mut m = SegMask::new(16, 16);
        m.fill_rect(Rect::new(0, 0, 8, 8));
        m.set(15, 15, 1); // speckle
        let dets = extract_components(&m, 4);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].rect, Rect::new(0, 0, 8, 8));
    }

    #[test]
    fn diagonal_pixels_are_separate_components() {
        let mut m = SegMask::new(4, 4);
        m.set(0, 0, 1);
        m.set(1, 1, 1);
        let dets = extract_components(&m, 1);
        assert_eq!(dets.len(), 2, "4-connectivity must not join diagonals");
    }

    #[test]
    fn sparse_component_scores_low() {
        let mut m = SegMask::new(16, 16);
        // An L-shaped sparse component.
        for i in 0..10 {
            m.set(i, 0, 1);
        }
        for i in 1..10 {
            m.set(0, i, 1);
        }
        let dets = extract_components(&m, 4);
        assert_eq!(dets.len(), 1);
        assert!(dets[0].score < 0.3, "score {}", dets[0].score);
    }

    #[test]
    fn boxes_roundtrip_through_mask() {
        let boxes = vec![Rect::new(1, 1, 6, 5), Rect::new(10, 8, 14, 12)];
        let m = boxes_to_mask(&boxes, 16, 16);
        let dets = extract_components(&m, 1);
        let rects: Vec<Rect> = dets.iter().map(|d| d.rect).collect();
        assert_eq!(rects.len(), 2);
        assert!(rects.contains(&boxes[0]));
        assert!(rects.contains(&boxes[1]));
    }

    #[test]
    fn empty_mask_yields_nothing() {
        assert!(extract_components(&SegMask::new(8, 8), 1).is_empty());
    }
}
