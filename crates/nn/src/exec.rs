//! The int8 reference executor.
//!
//! Executes a [`Graph`] node by node, producing deterministic int8
//! tensors. This is the golden model against which compiled (tiled,
//! sparse-packed) execution is verified bit-exactly. [`eval`] is the
//! single-node step: [`execute`] loops over it, and the compiled
//! executor calls it for every node it does not run on the kernels.

use crate::graph::{Graph, Node, OpKind};
use crate::layer::{AttentionLayer, ConvLayer, LinearLayer};
use crate::ops::{self, matmul};
use nm_core::{Error, Result, Tensor};

/// Runs the graph on `input`, returning the output tensor.
///
/// # Errors
/// [`Error::ShapeMismatch`] if the input shape disagrees with the graph.
pub fn execute(graph: &Graph, input: &Tensor<i8>) -> Result<Tensor<i8>> {
    if input.shape() != graph.input_shape() {
        return Err(Error::ShapeMismatch(format!(
            "input shape {:?} != graph input {:?}",
            input.shape(),
            graph.input_shape()
        )));
    }
    let mut values: Vec<Option<Tensor<i8>>> = vec![None; graph.nodes().len()];
    values[0] = Some(input.clone());
    for (id, node) in graph.nodes().iter().enumerate().skip(1) {
        let out = eval(node, |i| {
            values[node.inputs[i]].as_ref().expect("topological order")
        })?;
        debug_assert_eq!(out.shape(), node.out_shape.as_slice(), "node {id} shape");
        values[id] = Some(out);
    }
    Ok(values[graph.output()].take().expect("output computed"))
}

/// Evaluates one node with the reference operators. `get(i)` resolves
/// the node's `i`-th input value.
///
/// # Errors
/// [`Error::Unsupported`] for the [`OpKind::Input`] node, which has no
/// operator (its value is the graph input); otherwise propagates reshape
/// errors.
pub fn eval<'v>(node: &Node, get: impl Fn(usize) -> &'v Tensor<i8>) -> Result<Tensor<i8>> {
    Ok(match &node.op {
        OpKind::Input => {
            return Err(Error::Unsupported(
                "the input node has no operator to evaluate".into(),
            ))
        }
        OpKind::Conv2d(l) => conv2d(get(0), l),
        OpKind::Linear(l) => linear(get(0), l),
        OpKind::Attention(a) => attention(get(0), a),
        OpKind::Relu => ops::relu(get(0)),
        OpKind::Gelu => ops::gelu(get(0)),
        OpKind::LayerNorm => ops::layer_norm(get(0)),
        OpKind::MaxPool { k, s } => ops::max_pool(get(0), *k, *s),
        OpKind::AvgPool { k, s } => ops::avg_pool(get(0), *k, *s),
        OpKind::GlobalAvgPool => ops::global_avg_pool(get(0)),
        OpKind::Add => ops::add(get(0), get(1)),
        OpKind::Flatten => {
            let t = get(0).clone();
            let len = t.len();
            t.reshape(&[len])?
        }
        OpKind::Tokens => get(0).clone().reshape(&node.out_shape)?,
    })
}

/// Direct HWC convolution with the layer's requantization.
pub fn conv2d(x: &Tensor<i8>, l: &ConvLayer) -> Tensor<i8> {
    let g = &l.geom;
    let mut out = Tensor::<i8>::zeros(&[g.oy(), g.ox(), g.k]);
    for y in 0..g.oy() {
        for xo in 0..g.ox() {
            for k in 0..g.k {
                let mut acc = 0i32;
                for ky in 0..g.fy {
                    for kx in 0..g.fx {
                        let iy = (y * g.stride + ky) as isize - g.pad as isize;
                        let ix = (xo * g.stride + kx) as isize - g.pad as isize;
                        for c in 0..g.c {
                            let a = x.hwc_get_padded(iy, ix, c);
                            let w = l.weights[k * g.patch_len() + (ky * g.fx + kx) * g.c + c];
                            acc = acc.wrapping_add(i32::from(a) * i32::from(w));
                        }
                    }
                }
                *out.at_mut(&[y, xo, k]) = l.requant.apply(acc);
            }
        }
    }
    out
}

/// Linear layer over `[C]` or row-wise over `[T, C]`: one
/// register-tiled int8 matmul of the input rows against the weight rows.
pub fn linear(x: &Tensor<i8>, l: &LinearLayer) -> Tensor<i8> {
    let (t, c) = match x.shape() {
        [c] => (1, *c),
        [t, c] => (*t, *c),
        s => panic!("linear over unsupported shape {s:?}"),
    };
    assert_eq!(c, l.geom.c);
    let k = l.geom.k;
    let mut data = vec![0i8; t * k];
    matmul(x.data(), &l.weights, (t, k, c), l.requant, &mut data, k);
    let shape: Vec<usize> = if x.shape().len() == 1 {
        vec![k]
    } else {
        vec![t, k]
    };
    Tensor::from_vec(&shape, data).expect("shape consistent")
}

/// Multi-head self-attention over `[T, D]` in four calls of the
/// register-tiled int8 matmul behind [`linear`]: the QKV projection; per
/// head, the scores of its Q rows against its K rows and the context of
/// the softmax rows against its Vᵀ, written into the head's columns of
/// the `[T, D]` context; and the output projection. Each head's Q, K and
/// Vᵀ are copied out of the fused QKV rows into one buffer first, so
/// every operand is row-major.
pub fn attention(x: &Tensor<i8>, a: &AttentionLayer) -> Tensor<i8> {
    let t = x.shape()[0];
    let d = a.dim;
    let hd = a.head_dim();
    let qkv = linear(x, &a.qkv); // [T, 3D]
    let qkv = qkv.data();
    let mut context = vec![0i8; t * d];
    let mut scores = vec![0i8; t * t];
    let mut probs = vec![0i8; t * t];
    // One head's Q (`t x hd`), K (`t x hd`) and Vᵀ (`hd x t`).
    let mut head = vec![0i8; 3 * t * hd];
    for h in 0..a.heads {
        let (q, rest) = head.split_at_mut(t * hd);
        let (k, vt) = rest.split_at_mut(t * hd);
        for i in 0..t {
            let row = |part: usize| &qkv[i * 3 * d + part * d + h * hd..][..hd];
            q[i * hd..][..hd].copy_from_slice(row(0));
            k[i * hd..][..hd].copy_from_slice(row(1));
            for (jv, &v) in row(2).iter().enumerate() {
                vt[jv * t + i] = v;
            }
        }
        matmul(q, k, (t, t, hd), a.score_requant, &mut scores, t);
        ops::softmax_rows(&scores, t, &mut probs);
        let cols = &mut context[h * hd..]; // the head's columns, rows `d` apart
        matmul(&probs, vt, (t, hd, t), a.context_requant, cols, d);
    }
    let ctx_t = Tensor::from_vec(&[t, d], context).expect("t x d");
    linear(&ctx_t, &a.proj)
}

/// The scalar triple-loop linear and attention (strided `matmul` over an
/// explicit Kᵀ) that the register-tiled [`linear`] and [`attention`]
/// replaced, kept as the references the tests check them against.
#[cfg(test)]
mod reference {
    use crate::layer::{AttentionLayer, LinearLayer};
    use crate::ops;
    use nm_core::quant::Requant;
    use nm_core::Tensor;

    /// Scalar `A (m x k) · B (k x n)` with requantization, B walked down
    /// its columns.
    pub fn matmul(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, rq: Requant) -> Vec<i8> {
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

    pub fn linear(x: &Tensor<i8>, l: &LinearLayer) -> Tensor<i8> {
        let (t, c) = match x.shape() {
            [c] => (1, *c),
            [t, c] => (*t, *c),
            s => panic!("linear over unsupported shape {s:?}"),
        };
        assert_eq!(c, l.geom.c);
        let mut data = vec![0i8; t * l.geom.k];
        for row in 0..t {
            let xrow = &x.data()[row * c..(row + 1) * c];
            for k in 0..l.geom.k {
                let mut acc = 0i32;
                for i in 0..c {
                    acc = acc.wrapping_add(i32::from(l.weights[k * c + i]) * i32::from(xrow[i]));
                }
                data[row * l.geom.k + k] = l.requant.apply(acc);
            }
        }
        let shape: Vec<usize> = if x.shape().len() == 1 {
            vec![l.geom.k]
        } else {
            vec![t, l.geom.k]
        };
        Tensor::from_vec(&shape, data).expect("shape consistent")
    }

    pub fn attention(x: &Tensor<i8>, a: &AttentionLayer) -> Tensor<i8> {
        let t = x.shape()[0];
        let d = a.dim;
        let hd = a.head_dim();
        let qkv = linear(x, &a.qkv); // [T, 3D]
        let mut context = vec![0i8; t * d];
        for h in 0..a.heads {
            let slice = |part: usize| -> Vec<i8> {
                let base = part * d + h * hd;
                let mut out = Vec::with_capacity(t * hd);
                for row in 0..t {
                    out.extend_from_slice(&qkv.data()[row * 3 * d + base..][..hd]);
                }
                out
            };
            let (q, k, v) = (slice(0), slice(1), slice(2));
            let mut kt = vec![0i8; hd * t];
            for row in 0..t {
                for j in 0..hd {
                    kt[j * t + row] = k[row * hd + j];
                }
            }
            let scores = matmul(&q, &kt, t, hd, t, a.score_requant);
            let probs = ops::softmax(&Tensor::from_vec(&[t, t], scores).expect("t x t"));
            let ctx = matmul(probs.data(), &v, t, t, hd, a.context_requant);
            for row in 0..t {
                for j in 0..hd {
                    context[row * d + h * hd + j] = ctx[row * hd + j];
                }
            }
        }
        let ctx_t = Tensor::from_vec(&[t, d], context).expect("t x d");
        linear(&ctx_t, &a.proj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::rng::XorShift;
    use nm_core::quant::Requant;
    use nm_core::{ConvGeom, FcGeom};

    /// Random int8 data with every `period`-th element forced to an
    /// extreme (alternating -128 and 127), so the dots see the largest
    /// products.
    fn extreme_data(rng: &mut XorShift, n: usize, period: usize) -> Vec<i8> {
        let mut v = rng.fill_weights(n, 127);
        for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % period == 0) {
            *x = if (i / period).is_multiple_of(2) {
                i8::MIN
            } else {
                i8::MAX
            };
        }
        v
    }

    fn random_linear(rng: &mut XorShift, c: usize, k: usize) -> LinearLayer {
        let shift = rng.next_u64() % 12;
        LinearLayer::new(
            FcGeom::new(c, k).unwrap(),
            extreme_data(rng, c * k, 7),
            Requant::new((rng.next_u64() % 64) as i32 - 32, shift as u8).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn linear_matches_scalar_reference_on_random_shapes() {
        let mut rng = XorShift::new(41);
        // Every tile edge: token counts 0-9, K mod 4 and C mod 8.
        for t in 0..=9 {
            for k in 1..=8 {
                for c in 1..=16 {
                    let l = random_linear(&mut rng, c, k);
                    let x = Tensor::from_vec(&[t, c], extreme_data(&mut rng, t * c, 3)).unwrap();
                    assert_eq!(
                        linear(&x, &l),
                        reference::linear(&x, &l),
                        "t {t} c {c} k {k}"
                    );
                }
            }
        }
        for case in 0..120 {
            // Dims off the tile grid, single tokens and 1-D inputs.
            let c = 1 + (rng.next_u64() % 53) as usize;
            let k = 1 + (rng.next_u64() % 70) as usize;
            let t = (rng.next_u64() % 41) as usize;
            let l = random_linear(&mut rng, c, k);
            let x = if case % 4 == 0 {
                Tensor::from_vec(&[c], extreme_data(&mut rng, c, 3)).unwrap()
            } else {
                Tensor::from_vec(&[t, c], extreme_data(&mut rng, t * c, 3)).unwrap()
            };
            assert_eq!(linear(&x, &l), reference::linear(&x, &l), "c {c} k {k}");
        }
    }

    /// One random attention block of `heads` heads of width `hd` over
    /// `t` tokens, against the scalar reference.
    fn check_attention(rng: &mut XorShift, t: usize, heads: usize, hd: usize, period: usize) {
        let d = heads * hd;
        let att = AttentionLayer::new(
            d,
            heads,
            random_linear(rng, d, 3 * d),
            random_linear(rng, d, d),
            Requant::new(0, (rng.next_u64() % 10) as u8).unwrap(),
            Requant::new(0, (rng.next_u64() % 10) as u8).unwrap(),
        )
        .unwrap();
        let x = Tensor::from_vec(&[t, d], extreme_data(rng, t * d, period)).unwrap();
        let want = reference::attention(&x, &att);
        assert_eq!(attention(&x, &att), want, "heads {heads} hd {hd} t {t}");
    }

    #[test]
    fn attention_matches_scalar_reference_on_random_shapes() {
        let mut rng = XorShift::new(43);
        // Every tile edge of the four matmuls: token counts 1-9 (rows of
        // every product, columns of the scores) and head widths 1-9
        // (columns of the context, shared length of the scores).
        for t in 1..=9 {
            for heads in 1..=2 {
                for hd in 1..=9 {
                    check_attention(&mut rng, t, heads, hd, 2);
                }
            }
        }
        // Up to 40 tokens and a model width of 69.
        for case in 0..90 {
            let hd = 1 + (rng.next_u64() % 23) as usize;
            let t = 1 + (rng.next_u64() % 40) as usize;
            let period = if case % 2 == 0 { 2 } else { 11 };
            check_attention(&mut rng, t, 1 + case % 3, hd, period);
        }
    }

    #[test]
    fn eval_rejects_the_input_node() {
        let g = GraphBuilder::new(&[4]).finish(0).unwrap();
        let x = Tensor::<i8>::zeros(&[4]);
        assert!(matches!(
            eval(g.node(0), |_| &x),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn chain_executes_and_matches_shapes() {
        let mut rng = XorShift::new(5);
        let geom = ConvGeom::square(3, 8, 6, 3, 1, 1).unwrap();
        let conv = ConvLayer::new(
            geom,
            rng.fill_weights(geom.weight_elems(), 20),
            Requant::new(0, 6).unwrap(),
        )
        .unwrap();
        let fc = LinearLayer::new(
            FcGeom::new(8, 4).unwrap(),
            rng.fill_weights(32, 20),
            Requant::new(0, 4).unwrap(),
        )
        .unwrap();
        let mut b = GraphBuilder::new(&[6, 6, 3]);
        let x = b.conv(b.input(), conv).unwrap();
        let x = b.relu(x).unwrap();
        let x = b.global_avg_pool(x).unwrap();
        let x = b.linear(x, fc).unwrap();
        let g = b.finish(x).unwrap();

        let input = Tensor::from_vec(&[6, 6, 3], rng.fill_weights(108, 40)).unwrap();
        let out = execute(&g, &input).unwrap();
        assert_eq!(out.shape(), &[4]);
    }

    #[test]
    fn execute_rejects_wrong_input_shape() {
        let b = GraphBuilder::new(&[4, 4, 1]);
        let g = b.finish(0).unwrap();
        let input = Tensor::<i8>::zeros(&[4, 4, 2]);
        assert!(execute(&g, &input).is_err());
    }

    #[test]
    fn residual_add_identity() {
        // conv with zero weights + residual add returns the input.
        let geom = ConvGeom::square(2, 2, 4, 3, 1, 1).unwrap();
        let conv = ConvLayer::new(geom, vec![0; geom.weight_elems()], Requant::IDENTITY).unwrap();
        let mut b = GraphBuilder::new(&[4, 4, 2]);
        let x = b.input();
        let c = b.conv(x, conv).unwrap();
        let s = b.add(c, x).unwrap();
        let g = b.finish(s).unwrap();
        let mut rng = XorShift::new(8);
        let input = Tensor::from_vec(&[4, 4, 2], rng.fill_weights(32, 30)).unwrap();
        let out = execute(&g, &input).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn attention_executes_with_plausible_output() {
        let d = 8;
        let t = 5;
        let mut rng = XorShift::new(11);
        let qkv = LinearLayer::new(
            FcGeom::new(d, 3 * d).unwrap(),
            rng.fill_weights(3 * d * d, 15),
            Requant::new(0, 5).unwrap(),
        )
        .unwrap();
        let proj = LinearLayer::new(
            FcGeom::new(d, d).unwrap(),
            rng.fill_weights(d * d, 15),
            Requant::new(0, 5).unwrap(),
        )
        .unwrap();
        let att = AttentionLayer::new(
            d,
            2,
            qkv,
            proj,
            Requant::new(0, 6).unwrap(),
            Requant::new(0, 7).unwrap(),
        )
        .unwrap();
        let x = Tensor::from_vec(&[t, d], rng.fill_weights(t * d, 40)).unwrap();
        let out = attention(&x, &att);
        assert_eq!(out.shape(), &[t, d]);
        // Deterministic:
        assert_eq!(out, attention(&x, &att));
        assert!(out.data().iter().any(|&v| v != 0));
    }

    #[test]
    fn uniform_attention_averages_values() {
        // With zero Q/K, scores are uniform, so the context is the mean
        // of V rows; with identity-ish proj the op is a row-mean mixer.
        let d = 4;
        let t = 3;
        let mut qkv_w = vec![0i8; 3 * d * d];
        // V part = identity (rows 2d..3d of the weight matrix).
        for i in 0..d {
            qkv_w[(2 * d + i) * d + i] = 1;
        }
        let qkv =
            LinearLayer::new(FcGeom::new(d, 3 * d).unwrap(), qkv_w, Requant::IDENTITY).unwrap();
        let mut proj_w = vec![0i8; d * d];
        for i in 0..d {
            proj_w[i * d + i] = 1;
        }
        let proj = LinearLayer::new(FcGeom::new(d, d).unwrap(), proj_w, Requant::IDENTITY).unwrap();
        let att = AttentionLayer::new(
            d,
            1,
            qkv,
            proj,
            Requant::IDENTITY,
            Requant::new(0, 7).unwrap(),
        )
        .unwrap();
        let x = Tensor::from_vec(
            &[t, d],
            vec![
                100, 0, 0, 0, //
                0, 100, 0, 0, //
                0, 0, 100, 0,
            ],
        )
        .unwrap();
        let out = attention(&x, &att);
        // Each context row ≈ mean of V rows scaled by softmax(127/3)·
        // requant shift; just check rows are identical and non-trivial.
        let rows: Vec<&[i8]> = out.data().chunks(d).collect();
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[1], rows[2]);
    }
}
