//! Save/load trained NN-S models.
//!
//! A small, self-contained little-endian binary format (no external
//! serialisation crates): magic, version, hidden width, then each
//! convolution's weights and biases. Training NN-S takes seconds, but a
//! deployed pipeline wants the exact shipped weights — and reproducibility
//! audits want byte-stable artefacts.

use crate::conv::Conv2d;
use crate::nns::{NnS, SANDWICH_CHANNELS};
use crate::quant::ActScales;

/// Magic bytes of a serialised NN-S model.
pub(crate) const MAGIC: [u8; 4] = *b"VRNS";
/// Format version.
pub(crate) const VERSION: u8 = 1;
/// The widest NN-S a model file may hold: [`load_nns`] refuses any other.
pub const MAX_HIDDEN: usize = 4096;
/// Magic bytes of the optional calibration trailer: activation scales for
/// the quantized inference path, appended after the f32 parameters so
/// pre-quantization files (which simply end after conv3) keep loading.
pub(crate) const SCALES_MAGIC: [u8; 4] = *b"QSC1";

fn put_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Splits `n` bytes off the front of `buf`, if it holds that many.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = buf.split_at_checked(n)?;
    *buf = tail;
    Some(head)
}

/// Reads one length-prefixed block that must hold exactly `expected`
/// values; the claimed length is checked before anything is decoded.
fn get_f32s(buf: &mut &[u8], expected: usize, what: &str) -> Result<Vec<f32>, String> {
    let n = take(buf, 4).ok_or_else(|| format!("truncated before the {what} length"))?;
    let n = u32::from_le_bytes(n.try_into().expect("slice of 4")) as usize;
    if n != expected {
        return Err(format!("expected {expected} {what}, got {n}"));
    }
    let block = take(buf, 4 * n).ok_or_else(|| format!("truncated {what} block"))?;
    Ok(block
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect())
}

fn put_conv(out: &mut Vec<u8>, conv: &Conv2d) {
    put_f32s(out, conv.weights());
    put_f32s(out, conv.bias());
}

/// Reads the layer called `name`, whose shape the header fixed: both block
/// lengths are compared with that shape before a value is decoded, and the
/// values are validated by [`Conv2d::from_params`].
fn get_conv(buf: &mut &[u8], name: &str, cin: usize, cout: usize) -> Result<Conv2d, String> {
    let mut read = || {
        let w = get_f32s(buf, cout * cin * 9, "weights")?;
        let b = get_f32s(buf, cout, "biases")?;
        Conv2d::from_params(cin, cout, 3, w, b)
    };
    read().map_err(|e| format!("{name}: {e}"))
}

/// Serialises a trained NN-S to bytes.
///
/// # Example
/// ```
/// use vrd_nn::{load_nns, save_nns, NnS, Tensor};
///
/// # fn main() -> Result<(), String> {
/// let model = NnS::new(4, 7);
/// let bytes = save_nns(&model);
/// let restored = load_nns(&bytes)?;
/// let x = Tensor::zeros(3, 8, 8);
/// assert_eq!(model.infer(&x).as_slice(), restored.infer(&x).as_slice());
/// # Ok(())
/// # }
/// ```
pub fn save_nns(model: &NnS) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(model.hidden() as u32).to_le_bytes());
    let (c1, c2, c3) = model.convs();
    put_conv(&mut out, c1);
    put_conv(&mut out, c2);
    put_conv(&mut out, c3);
    if let Some(s) = model.act_scales() {
        out.extend_from_slice(&SCALES_MAGIC);
        out.extend_from_slice(&s.input.to_le_bytes());
        out.extend_from_slice(&s.a1.to_le_bytes());
        out.extend_from_slice(&s.a2.to_le_bytes());
    }
    out
}

/// Deserialises an NN-S from bytes produced by [`save_nns`].
///
/// # Errors
/// Returns a message on bad magic/version, truncation, a block whose length
/// disagrees with the header's width, a non-finite parameter or unusable
/// calibration scales.
pub fn load_nns(buf: &[u8]) -> Result<NnS, String> {
    if buf.len() < 9 || buf[..4] != MAGIC {
        return Err("not an NN-S model (bad magic)".into());
    }
    if buf[4] != VERSION {
        return Err(format!("unsupported model version {}", buf[4]));
    }
    let hidden = u32::from_le_bytes(buf[5..9].try_into().expect("slice of 4")) as usize;
    if !(1..=MAX_HIDDEN).contains(&hidden) {
        return Err(format!("implausible hidden width {hidden}"));
    }
    // The widest model's largest block is 4096·4096·9 values: every length
    // below fits `usize` with room to spare.
    let mut rest = &buf[9..];
    let c1 = get_conv(&mut rest, "conv1", SANDWICH_CHANNELS, hidden)?;
    let c2 = get_conv(&mut rest, "conv2", hidden, hidden)?;
    let c3 = get_conv(&mut rest, "conv3", 2 * hidden, 1)?;
    // A pre-quantization file ends here: no calibration trailer.
    let scales = if rest.is_empty() {
        None
    } else if rest.len() == 16 && rest[..4] == SCALES_MAGIC {
        let f =
            |i: usize| f32::from_le_bytes(rest[4 + 4 * i..8 + 4 * i].try_into().expect("4 bytes"));
        Some(ActScales {
            input: f(0),
            a1: f(1),
            a2: f(2),
        })
    } else {
        return Err(format!("{} trailing bytes", rest.len()));
    };
    NnS::from_parts(c1, c2, c3, scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::trainer::{train, Sample};

    #[test]
    fn roundtrip_preserves_inference() {
        let mut model = NnS::new(4, 99);
        // Nudge it away from the raw init so the test is not vacuous.
        let x = Tensor::from_vec(3, 8, 8, (0..192).map(|v| v as f32 / 192.0).collect());
        let sample = Sample {
            input: x.clone(),
            target: Tensor::zeros(1, 8, 8),
        };
        train(&mut model, &[sample]);

        let bytes = save_nns(&model);
        let loaded = load_nns(&bytes).expect("loads");
        assert_eq!(loaded.n_params(), model.n_params());
        assert_eq!(model.infer(&x).as_slice(), loaded.infer(&x).as_slice());
    }

    #[test]
    fn save_is_deterministic() {
        let model = NnS::new(8, 7);
        assert_eq!(save_nns(&model), save_nns(&model));
    }

    #[test]
    fn roundtrips_calibration_scales() {
        let mut model = NnS::new(4, 11);
        let x = Tensor::from_vec(3, 8, 8, (0..192).map(|v| v as f32 / 192.0).collect());
        model.calibrate(&[&x]);
        let scales = model.act_scales().expect("calibrated");
        let bytes = save_nns(&model);
        let loaded = load_nns(&bytes).expect("loads");
        assert_eq!(loaded.act_scales(), Some(scales));
        // The quantized twin is byte-for-byte reproducible after reload.
        assert_eq!(
            model.quantize().infer(&x).as_slice(),
            loaded.quantize().infer(&x).as_slice()
        );
    }

    #[test]
    fn old_format_without_trailer_still_loads() {
        // A model never calibrated serialises to the original format and a
        // calibrated model's bytes are exactly that plus the 16B trailer.
        let mut model = NnS::new(4, 5);
        let plain = save_nns(&model);
        let loaded = load_nns(&plain).expect("pre-quantization format loads");
        assert!(loaded.act_scales().is_none());
        let x = Tensor::from_vec(3, 8, 8, (0..192).map(|v| v as f32 / 250.0).collect());
        model.calibrate(&[&x]);
        let with_trailer = save_nns(&model);
        assert_eq!(with_trailer.len(), plain.len() + 16);
        assert_eq!(&with_trailer[..plain.len()], &plain[..]);
    }

    #[test]
    fn rejects_corrupt_trailer() {
        let mut model = NnS::new(4, 5);
        let x = Tensor::from_vec(3, 8, 8, vec![0.5; 192]);
        model.calibrate(&[&x]);
        let good = save_nns(&model);
        let mut bad_magic = good.clone();
        let n = bad_magic.len();
        bad_magic[n - 16] = b'X';
        assert!(load_nns(&bad_magic).is_err());
        let mut short = good.clone();
        short.truncate(n - 1);
        assert!(load_nns(&short).is_err());
        let mut bad_scale = good;
        // input scale := -1.0
        bad_scale[n - 12..n - 8].copy_from_slice(&(-1.0f32).to_le_bytes());
        assert!(load_nns(&bad_scale).is_err());
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(load_nns(b"garbage").is_err());
        let mut bytes = save_nns(&NnS::new(4, 1));
        bytes[4] = 99; // bad version
        assert!(load_nns(&bytes).is_err());
        let mut truncated = save_nns(&NnS::new(4, 1));
        truncated.truncate(truncated.len() / 2);
        assert!(load_nns(&truncated).is_err());
        let mut trailing = save_nns(&NnS::new(4, 1));
        trailing.push(0);
        assert!(load_nns(&trailing).is_err());
    }

    #[test]
    fn reserialising_a_loaded_model_reproduces_the_file() {
        let mut model = NnS::new(4, 3);
        let x = Tensor::from_vec(3, 8, 8, (0..192).map(|v| (v % 3) as f32 / 2.0).collect());
        let sample = Sample {
            input: x.clone(),
            target: Tensor::from_vec(1, 8, 8, x.channel(1).to_vec()),
        };
        train(&mut model, &[sample]);
        let plain = save_nns(&model);
        assert_eq!(save_nns(&load_nns(&plain).unwrap()), plain);
        model.calibrate(&[&x]);
        let with_trailer = save_nns(&model);
        assert_eq!(save_nns(&load_nns(&with_trailer).unwrap()), with_trailer);
    }

    #[test]
    fn block_lengths_are_checked_against_the_header_before_anything_is_built() {
        // Under half a megabyte claiming the widest model the format
        // allows: a well-formed conv1, then conv2 blocks of length zero.
        let hidden = MAX_HIDDEN;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.extend_from_slice(&(hidden as u32).to_le_bytes());
        put_f32s(&mut bytes, &vec![0.0; SANDWICH_CHANNELS * hidden * 9]);
        put_f32s(&mut bytes, &vec![0.0; hidden]);
        put_f32s(&mut bytes, &[]);
        put_f32s(&mut bytes, &[]);
        assert!(bytes.len() < 500_000);
        let err = load_nns(&bytes).unwrap_err();
        assert_eq!(err, "conv2: expected 150994944 weights, got 0");
        // A length field edited upwards is refused the same way, without
        // reading past the buffer.
        let mut long = save_nns(&NnS::new(4, 1));
        long[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = load_nns(&long).unwrap_err();
        assert_eq!(err, "conv1: expected 108 weights, got 4294967295");
    }

    #[test]
    fn rejects_non_finite_parameters_naming_layer_and_index() {
        let good = save_nns(&NnS::new(4, 1));
        // Bytes 13..17 hold conv1's first weight.
        let mut inf = good.clone();
        inf[13..17].copy_from_slice(&f32::INFINITY.to_le_bytes());
        assert_eq!(load_nns(&inf).unwrap_err(), "conv1: weight 0 is inf");
        // conv3's only bias is the last value of an uncalibrated file.
        let mut nan = good.clone();
        let n = nan.len();
        nan[n - 4..].copy_from_slice(&f32::NAN.to_le_bytes());
        assert_eq!(load_nns(&nan).unwrap_err(), "conv3: bias 0 is NaN");
    }
}
