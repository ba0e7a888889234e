//! Int8 implementations of the host operators: the non-matmul layers and
//! the matrix product behind the reference executor's Linear and
//! attention.
//!
//! These operators are outside the paper's contribution (its kernels
//! cover convolutions and FC layers); they exist so complete networks
//! execute deterministically. Numerical conventions follow common int8
//! inference practice (Deeploy-style): integer accumulation, shift-based
//! rescaling, and lookup tables for the nonlinearities. [`gelu`] reads a
//! 256-entry table indexed by the input byte, and [`softmax`] reads its
//! exponential from a 129-entry Q16 table indexed by `max - v` (clamped
//! to 128). Both tables are built once, on first use, from the closed
//! forms they replace, so every output equals the closed form's bit for
//! bit.
//!
//! `matmul` is the one inner loop of the reference executor's matrix
//! products ([`crate::exec`]): each Linear layer is one call, and an
//! attention block four (QKV projection, per-head scores, per-head
//! context, output projection). It computes 2 × 4 output tiles in
//! registers, so every loaded operand feeds several outputs, over
//! operands sign-extended to `i16` in a bounded stack block; the outputs
//! equal the serial wrapping walk bit for bit.

use nm_core::quant::{clip_i8, Requant};
use nm_core::Tensor;
use std::sync::OnceLock;

/// `i16` entries of the stack block [`matmul`] widens its operands into
/// (8 KiB): one row pair of A and as many rows of B as fit beside it.
const WIDE: usize = 4096;

/// Longest stretch of the shared dimension [`matmul`] widens at once
/// (a multiple of 8): a longer `k` runs in chunks whose tile sums carry
/// over, so a chunk leaves room for 2 A rows and 4 B rows in the block.
const KC: usize = 512;

/// Rows of B per tile: the output columns one row pair computes at once.
const QUAD: usize = 4;

/// Int8 matrix product with requantization over row-major A (`m x k`)
/// and B (`n x k`): `out[i * stride + j] = rq.apply(Σ_p a[i * k + p] ·
/// b[j * k + p])` for `i < m`, `j < n`, with wrapping `i32` sums; the
/// other bytes of `out` are untouched.
///
/// The outputs come in tiles of 2 rows of A × 4 rows of B ([`tile`]): on
/// x86-64 eight SSE2 `pmaddwd` accumulators per tile, 8 shared-dimension
/// entries per step, each loaded A and B register feeding four and two
/// of them. The operands are sign-extended to `i16` into a stack block
/// of [`WIDE`] entries (a quarter of that when the call fits in it), rows
/// zero-padded to a whole number of steps: B block by block, each once
/// per call, and A row pair by row pair, once per block of B (one block
/// holds every row of B up to `n · k` ≈ 3,500). A `k` past [`KC`] runs in
/// chunks that carry each tile's sums, widening both operands again per
/// chunk.
///
/// `pmaddwd` adds two `i8 × i8` products exactly in `i32` (the pair sum
/// is at most 32,768, so its sole saturation case cannot occur), and
/// wrapping `i32` addition is associative and commutative, so every
/// output equals the serial wrapping walk bit for bit.
///
/// # Panics
/// Panics if A is not `m x k`, B is not `n x k`, `stride < n`, or `out`
/// is too short for the last row.
pub(crate) fn matmul(
    a: &[i8],
    b: &[i8],
    (m, n, k): (usize, usize, usize),
    rq: Requant,
    out: &mut [i8],
    stride: usize,
) {
    assert_eq!(a.len(), m * k, "matmul A is not m x k");
    assert_eq!(b.len(), n * k, "matmul B is not n x k");
    assert!(n <= stride, "matmul output rows overlap");
    if m == 0 || n == 0 {
        return;
    }
    assert!((m - 1) * stride + n <= out.len(), "matmul output too short");
    // Widened row length: one chunk of the shared dimension, padded.
    let kc = k.clamp(1, KC).next_multiple_of(8);
    let nb = ((WIDE / kc - 2) / QUAD * QUAD).min(n.next_multiple_of(QUAD));
    let chunked = k > KC;
    // A block a quarter the size when the call fits it: zeroing 8 KiB
    // would outweigh a small product.
    let (mut small, mut big);
    let block: &mut [i16] = if (2 + nb) * kc <= WIDE / 4 {
        small = [0i16; WIDE / 4];
        &mut small
    } else {
        big = [0i16; WIDE];
        &mut big
    };
    let (aw, bw) = block.split_at_mut(2 * kc);
    let bw = &mut bw[..nb * kc];
    // Each tile's sums between chunks (a chunk fits one quad of B).
    let mut carry = [[[0i32; QUAD]; 2]; (WIDE / KC - 2) / QUAD];
    for j0 in (0..n).step_by(nb) {
        let cols = (n - j0).min(nb);
        for i0 in (0..m).step_by(2) {
            let rows = (m - i0).min(2);
            for p0 in (0..k.max(1)).step_by(KC) {
                let p = p0..(p0 + KC).min(k);
                if chunked || i0 == 0 {
                    widen(b, k, j0..j0 + cols, p.clone(), bw, kc);
                }
                widen(a, k, i0..i0 + rows, p.clone(), aw, kc);
                for (q, bq) in bw
                    .chunks_exact(QUAD * kc)
                    .take(cols.div_ceil(QUAD))
                    .enumerate()
                {
                    let mut sums = tile(aw, bq, kc);
                    if chunked {
                        if p0 > 0 {
                            for (s, c) in sums.iter_mut().flatten().zip(carry[q].iter().flatten()) {
                                *s = s.wrapping_add(*c);
                            }
                        }
                        carry[q] = sums;
                        if p.end < k {
                            continue;
                        }
                    }
                    let bytes = requant_tile(rq, &sums);
                    let (j, live) = (j0 + QUAD * q, (cols - QUAD * q).min(QUAD));
                    for (r, row) in bytes.chunks_exact(QUAD).take(rows).enumerate() {
                        let at = (i0 + r) * stride + j;
                        if live == QUAD {
                            out[at..at + QUAD].copy_from_slice(row);
                        } else {
                            out[at..at + live].copy_from_slice(&row[..live]);
                        }
                    }
                }
            }
        }
    }
}

/// Sign-extends columns `p` of rows `rows` of the row-major `src` (row
/// length `k`) into consecutive `kc`-entry rows of `dst`, each
/// zero-padded past `p.len()`.
fn widen(
    src: &[i8],
    k: usize,
    rows: std::ops::Range<usize>,
    p: std::ops::Range<usize>,
    dst: &mut [i16],
    kc: usize,
) {
    for (r, d) in rows.zip(dst.chunks_exact_mut(kc)) {
        let s = &src[r * k..][p.clone()];
        let (head, pad) = d.split_at_mut(s.len());
        for (d, &s) in head.iter_mut().zip(s) {
            *d = i16::from(s);
        }
        pad.fill(0);
    }
}

/// One 2 × 4 tile of [`matmul`]: `sums[r][c] = Σ_p a[r * kc + p] ·
/// b[c * kc + p]` (wrapping `i32`) over the widened row pair `a` and
/// quad `b`, rows `kc` entries long (a multiple of 8).
///
/// On x86-64, each 8-entry step loads both A rows and the four B rows
/// once and `pmaddwd`s every (A, B) pair into its own `i32x4`
/// accumulator; one transpose-add then folds each A row's four
/// accumulators into one register of its four column sums.
#[inline(always)]
fn tile(a: &[i16], b: &[i16], kc: usize) -> [[i32; QUAD]; 2] {
    let (a, b) = (&a[..2 * kc], &b[..QUAD * kc]);
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::*;
        assert!(kc.is_multiple_of(8));
        // SAFETY: SSE2 is part of the x86-64 baseline ABI; every load
        // reads the 8 entries at `r * kc + p` with `p + 8 <= kc`, inside
        // the `2 * kc` and `4 * kc` entries `a` and `b` were sliced to
        // above, and the stores write the two `[i32; 4]` rows of `sums`.
        unsafe {
            let ld = |s: &[i16], at: usize| _mm_loadu_si128(s.as_ptr().add(at).cast());
            let mut acc = [_mm_setzero_si128(); 2 * QUAD];
            for p in (0..kc).step_by(8) {
                let (x0, x1) = (ld(a, p), ld(a, kc + p));
                for c in 0..QUAD {
                    let y = ld(b, c * kc + p);
                    acc[c] = _mm_add_epi32(acc[c], _mm_madd_epi16(x0, y));
                    acc[QUAD + c] = _mm_add_epi32(acc[QUAD + c], _mm_madd_epi16(x1, y));
                }
            }
            // Column pairs, then pairs of pairs: lane `c` of the result
            // sums the four lanes of `v[c]`.
            let pair = |x, y| _mm_add_epi32(_mm_unpacklo_epi32(x, y), _mm_unpackhi_epi32(x, y));
            let fold = |v: &[__m128i]| {
                let (s01, s23) = (pair(v[0], v[1]), pair(v[2], v[3]));
                _mm_add_epi32(_mm_unpacklo_epi64(s01, s23), _mm_unpackhi_epi64(s01, s23))
            };
            let mut sums = [[0i32; QUAD]; 2];
            for (s, v) in sums.iter_mut().zip(acc.chunks_exact(QUAD)) {
                _mm_storeu_si128(s.as_mut_ptr().cast(), fold(v));
            }
            sums
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let dot = |x: &[i16], y: &[i16]| {
            x.iter().zip(y).fold(0i32, |s, (&x, &y)| {
                s.wrapping_add(i32::from(x) * i32::from(y))
            })
        };
        let (a0, a1) = a.split_at(kc);
        core::array::from_fn(|r| {
            let x = if r == 0 { a0 } else { a1 };
            core::array::from_fn(|c| dot(x, &b[c * kc..(c + 1) * kc]))
        })
    }
}

/// [`Requant::apply`] on a tile's 8 sums, row 0's four outputs first. On
/// x86-64 in SSE2 registers, as the lane sweeps' epilogue does it:
/// wrapping bias add, arithmetic shift, then `packs_epi32` and
/// `packs_epi16`, whose saturations to `i16` and then `i8` compose to
/// exactly `clip_i8`.
#[inline(always)]
fn requant_tile(rq: Requant, sums: &[[i32; QUAD]; 2]) -> [i8; 2 * QUAD] {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::*;
        // SAFETY: SSE2 is part of the x86-64 baseline ABI; the loads read
        // the two `[i32; 4]` rows of `sums`.
        unsafe {
            let bias = _mm_set1_epi32(rq.bias());
            let shift = _mm_cvtsi32_si128(i32::from(rq.shift()));
            let q = |s: &[i32; QUAD]| {
                let v = _mm_loadu_si128(s.as_ptr().cast());
                _mm_sra_epi32(_mm_add_epi32(v, bias), shift)
            };
            let w = _mm_packs_epi32(q(&sums[0]), q(&sums[1]));
            (_mm_cvtsi128_si64(_mm_packs_epi16(w, w)) as u64)
                .to_le_bytes()
                .map(|b| b as i8)
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        core::array::from_fn(|i| rq.apply(sums[i / QUAD][i % QUAD]))
    }
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
/// Panics if the input is not 3-D or its spatial map is empty
/// ([`crate::GraphBuilder::global_avg_pool`] rejects both).
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
/// f32, applied in fixed point — the hybrid Deeploy uses). The variance
/// is an integer sum of squares converted to f64 once: every partial sum
/// is an integer below 2^53, so this equals the f64 sum bit for bit.
///
/// # Panics
/// Panics if `x` is 0-D or its last axis is empty
/// ([`crate::GraphBuilder::layer_norm`] rejects both).
pub fn layer_norm(x: &Tensor<i8>) -> Tensor<i8> {
    let shape = x.shape().to_vec();
    let d = *shape.last().expect("layernorm needs at least 1-D");
    assert!(d > 0, "layernorm over an empty last axis");
    let mut out = vec![0i8; x.len()];
    for (row, o) in x.data().chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        let mean = row_mean(row);
        let squares: i64 = row
            .iter()
            .map(|&v| i64::from(i32::from(v) - mean).pow(2))
            .sum();
        normalize_row(row, mean, squares as f64 / d as f64, o);
    }
    Tensor::from_vec(&shape, out).expect("shape preserved")
}

/// A LayerNorm row's integer mean, rounded to nearest.
fn row_mean(row: &[i8]) -> i32 {
    let d = row.len() as i32;
    let s: i32 = row.iter().map(|&v| i32::from(v)).sum();
    (s + d / 2).div_euclid(d)
}

/// Writes a LayerNorm row given its mean and variance: a fixed-point
/// reciprocal standard deviation scaled to map one sigma to ~32.
fn normalize_row(row: &[i8], mean: i32, var: f64, out: &mut [i8]) {
    let inv_std_q = (32.0 / (var.sqrt() + 1e-3)).min(127.0);
    let mult = (inv_std_q * 256.0) as i32;
    for (o, &v) in out.iter_mut().zip(row) {
        *o = clip_i8(((i32::from(v) - mean) * mult) >> 8);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift;

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

    // The f64 variance sum the integer sum of squares replaced.
    fn layer_norm_f64(x: &Tensor<i8>) -> Tensor<i8> {
        let d = *x.shape().last().unwrap();
        let mut out = vec![0i8; x.len()];
        for (row, o) in x.data().chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            let mean = row_mean(row);
            let var: f64 = row
                .iter()
                .map(|&v| {
                    let diff = f64::from(i32::from(v) - mean);
                    diff * diff
                })
                .sum::<f64>()
                / d as f64;
            normalize_row(row, mean, var, o);
        }
        Tensor::from_vec(x.shape(), out).unwrap()
    }

    #[test]
    fn layer_norm_matches_f64_variance() {
        let mut rng = XorShift::new(37);
        for d in 1..=97 {
            let mut rows = rng.fill_weights(3 * d, 127);
            // Constant, alternating ±128 (the largest squares) and all -128.
            rows.extend(std::iter::repeat_n((d % 256) as u8 as i8, d));
            rows.extend((0..d).map(|i| if i % 2 == 0 { i8::MIN } else { i8::MAX }));
            rows.extend(std::iter::repeat_n(i8::MIN, d));
            let t = Tensor::from_vec(&[6, d], rows).unwrap();
            assert_eq!(layer_norm(&t), layer_norm_f64(&t), "d {d}");
        }
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
        let mut out = vec![0i8; 4];
        matmul(&a, &id, (2, 2, 2), Requant::IDENTITY, &mut out, 2);
        assert_eq!(out, a);
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

    /// The serial wrapping walk of output `(i, j)`: row `i` of A against
    /// row `j` of B.
    fn serial(a: &[i8], b: &[i8], k: usize, i: usize, j: usize) -> i32 {
        (0..k).fold(0i32, |s, p| {
            s.wrapping_add(i32::from(a[i * k + p]) * i32::from(b[j * k + p]))
        })
    }

    /// Runs [`matmul`] into a sentinel-filled buffer and checks every
    /// output against `rq` over the serial walk, and every byte between
    /// and past the output rows untouched.
    fn check(a: &[i8], b: &[i8], (m, n, k): (usize, usize, usize), stride: usize, rq: Requant) {
        let mut out = vec![0x5Ai8; m * stride + 3];
        matmul(a, b, (m, n, k), rq, &mut out, stride);
        for (at, &o) in out.iter().enumerate() {
            let (i, j) = (at / stride, at % stride);
            let want = if i < m && j < n {
                rq.apply(serial(a, b, k, i, j))
            } else {
                0x5A
            };
            assert_eq!(
                o, want,
                "m {m} n {n} k {k} stride {stride} rq {rq:?} at ({i}, {j})"
            );
        }
    }

    /// Checks every output's wrapping sum exactly: with its own bias set
    /// to the negated serial walk and no shift, an output is 0 only when
    /// the sums agree.
    fn check_sums(a: &[i8], b: &[i8], (m, n, k): (usize, usize, usize)) {
        for i in 0..m {
            for j in 0..n {
                let rq = Requant::new(serial(a, b, k, i, j).wrapping_neg(), 0).unwrap();
                let mut out = vec![0i8; m * n];
                matmul(a, b, (m, n, k), rq, &mut out, n);
                assert_eq!(out[i * n + j], 0, "m {m} n {n} k {k} at ({i}, {j})");
            }
        }
    }

    /// Random operands with every 5th entry at an extreme.
    fn operand(rng: &mut XorShift, len: usize) -> Vec<i8> {
        let mut v = rng.fill_weights(len, 127);
        for (i, x) in v.iter_mut().enumerate().step_by(5) {
            *x = if i % 2 == 0 { i8::MIN } else { i8::MAX };
        }
        v
    }

    // Every tile edge: odd and even row counts (a half-live last row
    // pair), every column count mod 4 (a partly live last quad), every
    // shared length mod 8 (zero-padded steps), and an output stride past
    // the row (the per-head context write).
    #[test]
    fn matmul_matches_serial_walk_across_tile_edges() {
        let mut rng = XorShift::new(53);
        for m in 0..=9 {
            for n in 1..=12 {
                for k in 0..=17 {
                    let (a, b) = (operand(&mut rng, m * k), operand(&mut rng, n * k));
                    let shift = (rng.next_u64() % 16) as u8;
                    let rq = Requant::new((rng.next_u64() % 512) as i32 - 256, shift).unwrap();
                    check(&a, &b, (m, n, k), n, rq);
                    check(&a, &b, (m, n, k), n + 1 + (k % 5), Requant::IDENTITY);
                }
            }
        }
    }

    #[test]
    fn matmul_sums_match_serial_walk_at_every_k() {
        let mut rng = XorShift::new(31);
        for k in 0..70 {
            let (a, b) = (operand(&mut rng, 3 * k), operand(&mut rng, 5 * k));
            check_sums(&a, &b, (3, 5, k));
        }
        // All-extreme operands: the largest products, every entry.
        let (lo, hi) = (vec![i8::MIN; 2 * 67], vec![i8::MAX; 4 * 67]);
        check_sums(&lo, &lo[..67], (2, 1, 67));
        check_sums(&lo, &vec![i8::MIN; 4 * 67], (2, 4, 67));
        check_sums(&lo, &hi, (2, 4, 67));
        assert_eq!(serial(&lo, &hi, 67, 1, 3), 67 * -16256);
    }

    // A shared dimension past `KC` runs in chunks that carry each tile's
    // sums; wide B runs in several blocks, each against every row pair.
    #[test]
    fn matmul_chunks_and_blocks_match_serial_walk() {
        let mut rng = XorShift::new(59);
        for (m, n, k) in [
            (1, 1, 513),
            (3, 9, 1031),
            (2, 5, 1536),
            (3, 130, 32),
            (5, 20, 300),
        ] {
            let (a, b) = (operand(&mut rng, m * k), operand(&mut rng, n * k));
            check(&a, &b, (m, n, k), n + 2, Requant::new(-77, 9).unwrap());
            let (m2, n2) = (m.min(3), n.min(5));
            check_sums(&a[..m2 * k], &b[..n2 * k], (m2, n2, k));
        }
    }

    // 2^17 products of (-128)·(-128) sum to 2^31, past `i32::MAX`: every
    // output must wrap exactly as the serial walk does.
    #[test]
    fn matmul_wraps_like_the_serial_walk() {
        let k = 1 << 17;
        let (a, b) = (vec![i8::MIN; 2 * k], vec![i8::MIN; 4 * k]);
        assert!(k as i64 * 16384 > i64::from(i32::MAX));
        assert_eq!(serial(&a, &b, k, 0, 0), i32::MIN);
        check_sums(&a, &b, (2, 4, k));
    }
}
