//! Int8 implementations of the non-matmul operators.
//!
//! These layers are outside the paper's contribution (its kernels cover
//! convolutions and FC layers); they exist so complete networks execute
//! deterministically. Numerical conventions follow common int8 inference
//! practice (Deeploy-style): integer accumulation, shift-based rescaling,
//! and lookup tables for the nonlinearities. [`gelu`] reads a 256-entry
//! table indexed by the input byte, and [`softmax`] reads its exponential
//! from a 129-entry Q16 table indexed by `max - v` (clamped to 128). Both
//! tables are built once, on first use, from the closed forms they
//! replace, so every output equals the closed form's bit for bit.
//!
//! `dot` is the int8 dot product behind every matmul of the reference
//! executor ([`crate::exec`]).

use nm_core::quant::clip_i8;
use nm_core::Tensor;
use std::sync::OnceLock;

/// Accumulator lanes of `dot`: one 16-byte vector of `i8` inputs per
/// step.
const DOT_LANES: usize = 16;

/// Wrapping int8 dot product of two equal-length slices.
///
/// The body runs [`DOT_LANES`] independent `i32` accumulator chains, each
/// fed an `i8 × i8` product computed in `i16` (exact: the products lie in
/// `[-16256, 16384]`), the shape the backend vectorizes. Wrapping `i32`
/// addition is associative and commutative, so the lane split is a pure
/// reassociation and the sum equals the serial walk bit for bit.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub(crate) fn dot(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot operands differ in length");
    let mut lanes = [0i32; DOT_LANES];
    let a_chunks = a.chunks_exact(DOT_LANES);
    let b_chunks = b.chunks_exact(DOT_LANES);
    let (a_tail, b_tail) = (a_chunks.remainder(), b_chunks.remainder());
    for (x, y) in a_chunks.zip(b_chunks) {
        for j in 0..DOT_LANES {
            lanes[j] = lanes[j].wrapping_add(i32::from(i16::from(x[j]) * i16::from(y[j])));
        }
    }
    let mut sum = lanes.iter().fold(0i32, |s, &l| s.wrapping_add(l));
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        sum = sum.wrapping_add(i32::from(i16::from(x) * i16::from(y)));
    }
    sum
}

/// Elementwise ReLU.
pub fn relu(x: &Tensor<i8>) -> Tensor<i8> {
    let data = x.data().iter().map(|&v| v.max(0)).collect();
    Tensor::from_vec(x.shape(), data).expect("shape preserved")
}

/// Elementwise saturating add of two same-shape tensors (residual
/// connections; both inputs assumed to share a scale).
///
/// # Panics
/// Panics if shapes differ.
pub fn add(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i8> {
    assert_eq!(a.shape(), b.shape(), "residual add needs matching shapes");
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| clip_i8(i32::from(x) + i32::from(y)))
        .collect();
    Tensor::from_vec(a.shape(), data).expect("shape preserved")
}

/// `k x k` max pooling with stride `s` over an HWC tensor.
///
/// # Panics
/// Panics if the input is not 3-D or smaller than the window.
pub fn max_pool(x: &Tensor<i8>, k: usize, s: usize) -> Tensor<i8> {
    pool(x, k, s, |vals| vals.iter().copied().max().unwrap_or(0))
}

/// `k x k` average pooling with stride `s` (integer mean, round to
/// nearest).
///
/// # Panics
/// Panics if the input is not 3-D or smaller than the window.
pub fn avg_pool(x: &Tensor<i8>, k: usize, s: usize) -> Tensor<i8> {
    let n = (k * k) as i32;
    pool(x, k, s, move |vals| {
        let sum: i32 = vals.iter().map(|&v| i32::from(v)).sum();
        clip_i8((sum + n / 2).div_euclid(n))
    })
}

fn pool(x: &Tensor<i8>, k: usize, s: usize, f: impl Fn(&[i8]) -> i8) -> Tensor<i8> {
    let shape = x.shape();
    assert_eq!(shape.len(), 3, "pooling expects HWC");
    let (h, w, c) = (shape[0], shape[1], shape[2]);
    assert!(h >= k && w >= k, "input smaller than pooling window");
    let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
    let mut out = Tensor::<i8>::zeros(&[oh, ow, c]);
    let mut vals = Vec::with_capacity(k * k);
    for y in 0..oh {
        for xo in 0..ow {
            for ch in 0..c {
                vals.clear();
                for ky in 0..k {
                    for kx in 0..k {
                        vals.push(*x.at(&[y * s + ky, xo * s + kx, ch]));
                    }
                }
                *out.at_mut(&[y, xo, ch]) = f(&vals);
            }
        }
    }
    out
}

/// Global average pooling: HWC → C (integer mean).
///
/// # Panics
/// Panics if the input is not 3-D.
pub fn global_avg_pool(x: &Tensor<i8>) -> Tensor<i8> {
    let shape = x.shape();
    assert_eq!(shape.len(), 3, "global pooling expects HWC");
    let (h, w, c) = (shape[0], shape[1], shape[2]);
    let n = (h * w) as i32;
    let mut out = Tensor::<i8>::zeros(&[c]);
    for ch in 0..c {
        let mut sum = 0i32;
        for y in 0..h {
            for xo in 0..w {
                sum += i32::from(*x.at(&[y, xo, ch]));
            }
        }
        out.data_mut()[ch] = clip_i8((sum + n / 2).div_euclid(n));
    }
    out
}

/// Row-wise integer LayerNorm over the last axis: subtract the mean,
/// scale by the quantized reciprocal standard deviation (computed in
/// f32, applied in fixed point — the hybrid Deeploy uses).
pub fn layer_norm(x: &Tensor<i8>) -> Tensor<i8> {
    let shape = x.shape().to_vec();
    let d = *shape.last().expect("layernorm needs at least 1-D");
    let rows = x.len() / d;
    let mut out = vec![0i8; x.len()];
    for r in 0..rows {
        let row = &x.data()[r * d..(r + 1) * d];
        let mean: i32 = {
            let s: i32 = row.iter().map(|&v| i32::from(v)).sum();
            (s + (d as i32) / 2).div_euclid(d as i32)
        };
        let var: f64 = row
            .iter()
            .map(|&v| {
                let diff = f64::from(i32::from(v) - mean);
                diff * diff
            })
            .sum::<f64>()
            / d as f64;
        // Fixed-point reciprocal std scaled to map one sigma to ~32.
        let inv_std_q = (32.0 / (var.sqrt() + 1e-3)).min(127.0);
        let mult = (inv_std_q * 256.0) as i32;
        for (i, &v) in row.iter().enumerate() {
            out[r * d + i] = clip_i8(((i32::from(v) - mean) * mult) >> 8);
        }
    }
    Tensor::from_vec(&shape, out).expect("shape preserved")
}

/// Row-wise int8 softmax over the last axis: subtract the max, read
/// `exp((v - max) / 16)` in Q16 from a 129-entry table over
/// `max - v ∈ [0, 128]` (shifts beyond 128 clamp to the last entry),
/// normalize so outputs sum to ≈127.
pub fn softmax(x: &Tensor<i8>) -> Tensor<i8> {
    let shape = x.shape().to_vec();
    let d = *shape.last().expect("softmax needs at least 1-D");
    let mut out = vec![0i8; x.len()];
    softmax_rows(x.data(), d, &mut out);
    Tensor::from_vec(&shape, out).expect("shape preserved")
}

/// [`softmax`] over the `d`-wide rows of `x`, written into `out`.
pub(crate) fn softmax_rows(x: &[i8], d: usize, out: &mut [i8]) {
    debug_assert_eq!(x.len(), out.len());
    if d == 0 {
        return;
    }
    let table = exp_table();
    let mut exps = vec![0i64; d];
    for (row, o) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        let max = row.iter().copied().max().unwrap_or(0);
        for (e, &v) in exps.iter_mut().zip(row) {
            *e = table[(i32::from(max) - i32::from(v)).min(EXP_SPAN) as usize];
        }
        let sum: i64 = exps.iter().sum::<i64>().max(1);
        for (o, &e) in o.iter_mut().zip(&exps) {
            *o = clip_i8(((e * 127 + sum / 2) / sum) as i32);
        }
    }
}

/// Largest tabulated shift `max - v` of the softmax exponential; larger
/// shifts read this entry (the closed form clamps its input there).
const EXP_SPAN: i32 = 128;

/// The softmax exponential table: entry `s` is [`exp_q16`]`(-s)` for
/// `s ∈ [0, EXP_SPAN]`, built once.
fn exp_table() -> &'static [i64; EXP_SPAN as usize + 1] {
    static TABLE: OnceLock<[i64; EXP_SPAN as usize + 1]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|s| exp_q16(-(s as i32))))
}

/// `exp(v / 16)` in Q16 for `v <= 0` (clamped below -128) — the closed
/// form the softmax table is built from.
fn exp_q16(v: i32) -> i64 {
    let v = v.max(-EXP_SPAN);
    let x = f64::from(v) / 16.0;
    (x.exp() * 65536.0) as i64
}

/// Elementwise int8 GELU with an implicit input scale of 1/16, read from
/// a 256-entry table indexed by the input byte (the lookup real
/// deployments use). The table is built once from the tanh-approximation
/// closed form `0.5·x·(1 + tanh(0.7978846·x·(1 + 0.044715·x²)))` of
/// `x = v / 16`, requantized to scale 1/16 with rounding.
pub fn gelu(x: &Tensor<i8>) -> Tensor<i8> {
    let table = gelu_table();
    let data = x
        .data()
        .iter()
        .map(|&v| table[usize::from(v as u8)])
        .collect();
    Tensor::from_vec(x.shape(), data).expect("shape preserved")
}

/// The GELU table: entry `b` is [`gelu_closed`] of the byte `b` read as
/// `i8`, built once.
fn gelu_table() -> &'static [i8; 256] {
    static TABLE: OnceLock<[i8; 256]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|b| gelu_closed(b as u8 as i8)))
}

/// The tanh-approximation GELU of `v / 16`, requantized to scale 1/16 —
/// the closed form the GELU table is built from.
fn gelu_closed(v: i8) -> i8 {
    let x = f64::from(v) / 16.0;
    let g = 0.5 * x * (1.0 + (x * 0.797_884_560_8 * (1.0 + 0.044_715 * x * x)).tanh());
    clip_i8((g * 16.0).round() as i32)
}

/// Scalar int8 matrix multiply `A (m x k) · B (k x n)` with
/// requantization: the strided walk of the reference attention the
/// tests check [`crate::exec::attention`] against.
#[cfg(test)]
pub(crate) fn matmul(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    rq: nm_core::quant::Requant,
) -> Vec<i8> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut out = vec![0i8; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc = acc.wrapping_add(i32::from(a[i * k + p]) * i32::from(b[p * n + j]));
            }
            out[i * n + j] = rq.apply(acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift;
    use nm_core::quant::Requant;

    #[test]
    fn relu_zeroes_negatives() {
        let t = Tensor::from_vec(&[4], vec![-3i8, 0, 5, -128]).unwrap();
        assert_eq!(relu(&t).data(), &[0, 0, 5, 0]);
    }

    #[test]
    fn add_saturates() {
        let a = Tensor::from_vec(&[2], vec![100i8, -100]).unwrap();
        let b = Tensor::from_vec(&[2], vec![100i8, -100]).unwrap();
        assert_eq!(add(&a, &b).data(), &[127, -128]);
    }

    #[test]
    fn max_pool_2x2() {
        let t = Tensor::from_vec(&[2, 2, 1], vec![1i8, 5, 3, -2]).unwrap();
        let p = max_pool(&t, 2, 2);
        assert_eq!(p.shape(), &[1, 1, 1]);
        assert_eq!(p.data(), &[5]);
    }

    #[test]
    fn avg_pool_rounds_to_nearest() {
        let t = Tensor::from_vec(&[2, 2, 1], vec![1i8, 2, 3, 4]).unwrap();
        assert_eq!(avg_pool(&t, 2, 2).data(), &[3]); // 10/4 = 2.5 -> 3
    }

    #[test]
    fn global_avg_pool_per_channel() {
        let t = Tensor::from_vec(&[1, 2, 2], vec![10i8, -4, 20, -8]).unwrap();
        assert_eq!(global_avg_pool(&t).data(), &[15, -6]);
    }

    #[test]
    fn layer_norm_centers_rows() {
        let t = Tensor::from_vec(&[2, 4], vec![10i8, 10, 10, 10, 0, 20, 40, 60]).unwrap();
        let n = layer_norm(&t);
        // Constant row -> all zeros; varying row -> centered, monotone.
        assert_eq!(&n.data()[..4], &[0, 0, 0, 0]);
        let row = &n.data()[4..];
        assert!(row[0] < row[1] && row[1] < row[2] && row[2] < row[3]);
        let sum: i32 = row.iter().map(|&v| i32::from(v)).sum();
        assert!(sum.abs() <= 4, "row roughly centered, sum={sum}");
    }

    #[test]
    fn softmax_rows_sum_to_127ish_and_order_preserved() {
        let t = Tensor::from_vec(&[1, 4], vec![0i8, 16, 32, 48]).unwrap();
        let s = softmax(&t);
        let sum: i32 = s.data().iter().map(|&v| i32::from(v)).sum();
        assert!((120..=134).contains(&sum), "sum {sum}");
        assert!(s.data()[0] < s.data()[3]);
    }

    #[test]
    fn softmax_uniform_is_uniform() {
        let t = Tensor::from_vec(&[1, 4], vec![5i8; 4]).unwrap();
        let s = softmax(&t);
        assert!(s.data().windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn gelu_fixes_zero_and_is_monotone_above() {
        let t = Tensor::from_vec(&[3], vec![0i8, 16, 32]).unwrap();
        let g = gelu(&t);
        assert_eq!(g.data()[0], 0);
        assert!(g.data()[1] < g.data()[2]);
        // gelu(1.0) ~ 0.841 -> ~13 at scale 16
        assert!((12..=14).contains(&g.data()[1]));
    }

    #[test]
    fn matmul_small_identity() {
        let a = vec![1i8, 2, 3, 4]; // 2x2
        let id = vec![1i8, 0, 0, 1];
        assert_eq!(matmul(&a, &id, 2, 2, 2, Requant::IDENTITY), a);
    }

    #[test]
    fn gelu_table_equals_closed_form_for_every_input() {
        let all: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        let t = Tensor::from_vec(&[256], all.clone()).unwrap();
        let want: Vec<i8> = all.iter().map(|&v| gelu_closed(v)).collect();
        assert_eq!(gelu(&t).data(), want.as_slice());
    }

    #[test]
    fn exp_table_equals_closed_form_for_every_shift() {
        let table = exp_table();
        for s in 0..=EXP_SPAN {
            assert_eq!(table[s as usize], exp_q16(-s), "shift {s}");
        }
        // Shifts past the span clamp, in the table as in the closed form.
        assert_eq!(exp_q16(-255), table[EXP_SPAN as usize]);
    }

    // The table-driven rows must match a softmax that computes each
    // exponential from the closed form, on random and extreme rows.
    #[test]
    fn softmax_matches_closed_form_rows() {
        fn closed(row: &[i8]) -> Vec<i8> {
            let max = row.iter().copied().max().unwrap_or(0);
            let exps: Vec<i64> = row
                .iter()
                .map(|&v| exp_q16(i32::from(v) - i32::from(max)))
                .collect();
            let sum: i64 = exps.iter().sum::<i64>().max(1);
            exps.iter()
                .map(|&e| clip_i8(((e * 127 + sum / 2) / sum) as i32))
                .collect()
        }
        let mut rng = XorShift::new(29);
        for case in 0..200 {
            let d = 1 + case % 37;
            let mut row: Vec<i8> = rng.fill_weights(d, 127);
            if case % 3 == 0 {
                row[case % d] = i8::MIN;
            }
            if case % 5 == 0 {
                row[(case / 5) % d] = i8::MAX;
            }
            let t = Tensor::from_vec(&[1, d], row.clone()).unwrap();
            assert_eq!(softmax(&t).data(), closed(&row).as_slice(), "row {row:?}");
        }
    }

    #[test]
    fn dot_matches_serial_walk_at_every_length() {
        let mut rng = XorShift::new(31);
        for len in 0..70 {
            let a = rng.fill_weights(len, 127);
            let b = rng.fill_weights(len, 127);
            let serial = a.iter().zip(&b).fold(0i32, |s, (&x, &y)| {
                s.wrapping_add(i32::from(x) * i32::from(y))
            });
            assert_eq!(dot(&a, &b), serial, "len {len}");
        }
        // All-extreme operands: the largest products, every lane.
        let lo = vec![i8::MIN; 67];
        let hi = vec![i8::MAX; 67];
        assert_eq!(dot(&lo, &lo), 67 * 16384);
        assert_eq!(dot(&lo, &hi), 67 * -16256);
    }
}
