//! PGM (portable graymap) export for visual inspection.
//!
//! The suites are synthetic, so "what does this sequence look like?" comes
//! up constantly while debugging reconstruction quality. These helpers
//! serialise frames and masks to binary PGM (P5) — viewable by effectively
//! every image tool — without pulling in an image dependency. The `vrddump`
//! binary writes whole sequences.

use crate::frame::Frame;
use crate::mask::SegMask;

/// Serialises a frame as a binary PGM (P5) image.
///
/// # Example
/// ```
/// use vrd_video::pgm::frame_to_pgm;
/// use vrd_video::Frame;
///
/// let pgm = frame_to_pgm(&Frame::new(16, 8));
/// let header = b"P5\n16 8\n255\n";
/// assert!(pgm.starts_with(header));
/// assert_eq!(pgm.len() - header.len(), 16 * 8);
/// ```
pub fn frame_to_pgm(frame: &Frame) -> Vec<u8> {
    let mut out = format!("P5\n{} {}\n255\n", frame.width(), frame.height()).into_bytes();
    out.extend_from_slice(frame.as_slice());
    out
}

/// Serialises a mask as a binary PGM (foreground white).
pub fn mask_to_pgm(mask: &SegMask) -> Vec<u8> {
    let mut out = format!("P5\n{} {}\n255\n", mask.width(), mask.height()).into_bytes();
    out.extend(
        mask.to_byte_vec()
            .iter()
            .map(|&v| if v == 1 { 255 } else { 0 }),
    );
    out
}

/// Renders a frame with the mask's boundary burned in as white pixels
/// (the usual segmentation-overlay visualisation).
///
/// # Panics
/// Panics if the mask dimensions differ from the frame's.
pub fn overlay(frame: &Frame, mask: &SegMask) -> Frame {
    assert_eq!(frame.width(), mask.width(), "overlay width mismatch");
    assert_eq!(frame.height(), mask.height(), "overlay height mismatch");
    let (w, h) = (frame.width(), frame.height());
    let mut out = frame.clone();
    for y in 0..h {
        for x in 0..w {
            if mask.get(x, y) == 0 {
                continue;
            }
            let boundary = (x > 0 && mask.get(x - 1, y) == 0)
                || (x + 1 < w && mask.get(x + 1, y) == 0)
                || (y > 0 && mask.get(x, y - 1) == 0)
                || (y + 1 < h && mask.get(x, y + 1) == 0);
            if boundary {
                out.set(x, y, 255);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;

    #[test]
    fn pgm_roundtrip_header_and_pixels() {
        let mut f = Frame::new(6, 4);
        f.set(2, 1, 200);
        let pgm = frame_to_pgm(&f);
        let header = b"P5\n6 4\n255\n";
        assert!(pgm.starts_with(header));
        assert_eq!(&pgm[header.len()..], f.as_slice());
    }

    #[test]
    fn mask_pgm_is_black_and_white() {
        let mut m = SegMask::new(4, 4);
        m.fill_rect(Rect::new(1, 1, 3, 3));
        let pgm = mask_to_pgm(&m);
        let px = &pgm[b"P5\n4 4\n255\n".len()..];
        assert!(px.iter().all(|&v| v == 0 || v == 255));
        assert_eq!(px.iter().filter(|&&v| v == 255).count(), 4);
    }

    #[test]
    fn overlay_marks_only_the_boundary() {
        let f = Frame::new(8, 8);
        let mut m = SegMask::new(8, 8);
        m.fill_rect(Rect::new(2, 2, 6, 6));
        let o = overlay(&f, &m);
        // Boundary pixel is white, interior untouched.
        assert_eq!(o.get(2, 2), 255);
        assert_eq!(o.get(3, 3), 0);
        assert_eq!(o.get(0, 0), 0);
    }
}
