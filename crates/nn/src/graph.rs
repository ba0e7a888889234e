//! The DNN graph: a builder-constructed DAG with shape inference.

use crate::layer::{AttentionLayer, ConvLayer, LinearLayer};
use nm_core::{Error, Result};

/// Identifies a node in a [`Graph`].
pub type NodeId = usize;

/// The operator set needed by the paper's benchmark networks (ResNet18,
/// ViT-Small) plus the related-work models (LeNet, DS-CNN).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// The graph input placeholder (node 0).
    Input,
    /// 2-D convolution over an HWC tensor.
    Conv2d(ConvLayer),
    /// Linear layer applied to `[C]` or row-wise to `[T, C]`.
    Linear(LinearLayer),
    /// Multi-head self-attention over `[T, D]`.
    Attention(AttentionLayer),
    /// Elementwise ReLU.
    Relu,
    /// Elementwise GELU (int8 LUT).
    Gelu,
    /// Row-wise LayerNorm over the last axis.
    LayerNorm,
    /// Max pooling.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        s: usize,
    },
    /// Average pooling.
    AvgPool {
        /// Window size.
        k: usize,
        /// Stride.
        s: usize,
    },
    /// Global average pooling HWC → C.
    GlobalAvgPool,
    /// Saturating elementwise add (residual connections).
    Add,
    /// Flatten to 1-D.
    Flatten,
    /// Reshape an HWC feature map into a token sequence `[H*W, C]`
    /// (ViT patch embedding).
    Tokens,
}

impl OpKind {
    /// A short operator name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Input => "input",
            OpKind::Conv2d(_) => "conv2d",
            OpKind::Linear(_) => "linear",
            OpKind::Attention(_) => "attention",
            OpKind::Relu => "relu",
            OpKind::Gelu => "gelu",
            OpKind::LayerNorm => "layernorm",
            OpKind::MaxPool { .. } => "maxpool",
            OpKind::AvgPool { .. } => "avgpool",
            OpKind::GlobalAvgPool => "gap",
            OpKind::Add => "add",
            OpKind::Flatten => "flatten",
            OpKind::Tokens => "tokens",
        }
    }

    /// Parameter count (weights only).
    pub fn params(&self) -> usize {
        match self {
            OpKind::Conv2d(l) => l.weights.len(),
            OpKind::Linear(l) => l.weights.len(),
            OpKind::Attention(a) => a.qkv.weights.len() + a.proj.weights.len(),
            _ => 0,
        }
    }
}

/// One graph node: operator + input edges + inferred output shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The operator.
    pub op: OpKind,
    /// Producer nodes (all with smaller ids — the builder enforces
    /// topological order).
    pub inputs: Vec<NodeId>,
    /// Inferred output shape.
    pub out_shape: Vec<usize>,
}

/// A topologically ordered DNN graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    nodes: Vec<Node>,
    output: NodeId,
}

impl Graph {
    /// All nodes in topological (construction) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Mutable node access (used by the pruner).
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// The output node id.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// The input shape (node 0's output shape).
    pub fn input_shape(&self) -> &[usize] {
        &self.nodes[0].out_shape
    }

    /// Total parameter count.
    pub fn params(&self) -> usize {
        self.nodes.iter().map(|n| n.op.params()).sum()
    }

    /// Total dense MACs of one inference.
    pub fn dense_macs(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                OpKind::Conv2d(l) => l.geom.macs(),
                OpKind::Linear(l) => {
                    let t = if n.out_shape.len() == 2 {
                        n.out_shape[0]
                    } else {
                        1
                    };
                    t * l.geom.macs()
                }
                OpKind::Attention(a) => a.macs(n.out_shape[0]),
                _ => 0,
            })
            .sum()
    }
}

/// Incrementally builds a [`Graph`] with shape checking at every step.
///
/// # Example
/// ```
/// use nm_nn::graph::GraphBuilder;
/// use nm_nn::layer::ConvLayer;
/// use nm_core::{ConvGeom, quant::Requant};
///
/// # fn main() -> Result<(), nm_core::Error> {
/// let mut b = GraphBuilder::new(&[8, 8, 4]);
/// let geom = ConvGeom::square(4, 8, 8, 3, 1, 1)?;
/// let conv = ConvLayer::new(geom, vec![0; geom.weight_elems()], Requant::IDENTITY)?;
/// let x = b.conv(b.input(), conv)?;
/// let x = b.relu(x)?;
/// let g = b.finish(x)?;
/// assert_eq!(g.node(g.output()).out_shape, vec![8, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Starts a graph with the given input shape.
    pub fn new(input_shape: &[usize]) -> Self {
        GraphBuilder {
            nodes: vec![Node {
                op: OpKind::Input,
                inputs: vec![],
                out_shape: input_shape.to_vec(),
            }],
        }
    }

    /// The input node id (always 0).
    pub fn input(&self) -> NodeId {
        0
    }

    fn shape(&self, id: NodeId) -> Result<&[usize]> {
        self.nodes
            .get(id)
            .map(|n| n.out_shape.as_slice())
            .ok_or_else(|| Error::ShapeMismatch(format!("unknown node {id}")))
    }

    fn push(&mut self, op: OpKind, inputs: Vec<NodeId>, out_shape: Vec<usize>) -> NodeId {
        self.nodes.push(Node {
            op,
            inputs,
            out_shape,
        });
        self.nodes.len() - 1
    }

    /// Adds a convolution.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if the input is not HWC with the layer's
    /// `IY x IX x C`.
    pub fn conv(&mut self, x: NodeId, layer: ConvLayer) -> Result<NodeId> {
        let s = self.shape(x)?;
        let g = layer.geom;
        if s != [g.iy, g.ix, g.c] {
            return Err(Error::ShapeMismatch(format!(
                "conv expects [{}, {}, {}], got {s:?}",
                g.iy, g.ix, g.c
            )));
        }
        let out = vec![g.oy(), g.ox(), g.k];
        Ok(self.push(OpKind::Conv2d(layer), vec![x], out))
    }

    /// Adds a linear layer over `[C]` or `[T, C]`.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if the last axis is not `C`.
    pub fn linear(&mut self, x: NodeId, layer: LinearLayer) -> Result<NodeId> {
        let s = self.shape(x)?.to_vec();
        let out = match s.as_slice() {
            [c] if *c == layer.geom.c => vec![layer.geom.k],
            [t, c] if *c == layer.geom.c => vec![*t, layer.geom.k],
            _ => {
                return Err(Error::ShapeMismatch(format!(
                    "linear expects [..., {}], got {s:?}",
                    layer.geom.c
                )))
            }
        };
        Ok(self.push(OpKind::Linear(layer), vec![x], out))
    }

    /// Adds a multi-head attention block over `[T, D]`.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if the input is not `[T, D]`.
    pub fn attention(&mut self, x: NodeId, layer: AttentionLayer) -> Result<NodeId> {
        let s = self.shape(x)?.to_vec();
        if s.len() != 2 || s[1] != layer.dim {
            return Err(Error::ShapeMismatch(format!(
                "attention expects [T, {}], got {s:?}",
                layer.dim
            )));
        }
        Ok(self.push(OpKind::Attention(layer), vec![x], s))
    }

    /// Adds an elementwise/unary op preserving the shape.
    fn unary(&mut self, x: NodeId, op: OpKind) -> Result<NodeId> {
        let s = self.shape(x)?.to_vec();
        Ok(self.push(op, vec![x], s))
    }

    /// Adds a ReLU.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if `x` is unknown.
    pub fn relu(&mut self, x: NodeId) -> Result<NodeId> {
        self.unary(x, OpKind::Relu)
    }

    /// Adds a GELU.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if `x` is unknown.
    pub fn gelu(&mut self, x: NodeId) -> Result<NodeId> {
        self.unary(x, OpKind::Gelu)
    }

    /// Adds a LayerNorm over the last axis.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if `x` is unknown, 0-D, or its last axis
    /// is empty (a row with no mean).
    pub fn layer_norm(&mut self, x: NodeId) -> Result<NodeId> {
        let s = self.shape(x)?;
        if s.last().is_none_or(|&d| d == 0) {
            return Err(Error::ShapeMismatch(format!("layernorm over {s:?}")));
        }
        self.unary(x, OpKind::LayerNorm)
    }

    fn pool(&mut self, x: NodeId, k: usize, s: usize, max: bool) -> Result<NodeId> {
        let shape = self.shape(x)?.to_vec();
        if shape.len() != 3 || shape[0] < k || shape[1] < k {
            return Err(Error::ShapeMismatch(format!("pool {k}x{k} over {shape:?}")));
        }
        let out = vec![(shape[0] - k) / s + 1, (shape[1] - k) / s + 1, shape[2]];
        let op = if max {
            OpKind::MaxPool { k, s }
        } else {
            OpKind::AvgPool { k, s }
        };
        Ok(self.push(op, vec![x], out))
    }

    /// Adds max pooling.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if the input is not HWC or too small.
    pub fn max_pool(&mut self, x: NodeId, k: usize, s: usize) -> Result<NodeId> {
        self.pool(x, k, s, true)
    }

    /// Adds average pooling.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if the input is not HWC or too small.
    pub fn avg_pool(&mut self, x: NodeId, k: usize, s: usize) -> Result<NodeId> {
        self.pool(x, k, s, false)
    }

    /// Adds global average pooling (HWC → C).
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if the input is not 3-D or its spatial
    /// map is empty (a mean over no positions).
    pub fn global_avg_pool(&mut self, x: NodeId) -> Result<NodeId> {
        let s = self.shape(x)?.to_vec();
        if s.len() != 3 || s[0] == 0 || s[1] == 0 {
            return Err(Error::ShapeMismatch(format!("global pool over {s:?}")));
        }
        Ok(self.push(OpKind::GlobalAvgPool, vec![x], vec![s[2]]))
    }

    /// Adds a residual add.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if the operand shapes differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let sa = self.shape(a)?.to_vec();
        let sb = self.shape(b)?.to_vec();
        if sa != sb {
            return Err(Error::ShapeMismatch(format!("add of {sa:?} and {sb:?}")));
        }
        Ok(self.push(OpKind::Add, vec![a, b], sa))
    }

    /// Adds a flatten to 1-D.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if `x` is unknown.
    pub fn flatten(&mut self, x: NodeId) -> Result<NodeId> {
        let s = self.shape(x)?;
        let len = s.iter().product();
        Ok(self.push(OpKind::Flatten, vec![x], vec![len]))
    }

    /// Reshapes an HWC map into tokens `[H*W, C]`.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if the input is not 3-D.
    pub fn tokens(&mut self, x: NodeId) -> Result<NodeId> {
        let s = self.shape(x)?.to_vec();
        if s.len() != 3 {
            return Err(Error::ShapeMismatch(format!("tokens over {s:?}")));
        }
        Ok(self.push(OpKind::Tokens, vec![x], vec![s[0] * s[1], s[2]]))
    }

    /// Finishes the graph with `output` as the result node.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if `output` is unknown.
    pub fn finish(self, output: NodeId) -> Result<Graph> {
        if output >= self.nodes.len() {
            return Err(Error::ShapeMismatch(format!(
                "unknown output node {output}"
            )));
        }
        Ok(Graph {
            nodes: self.nodes,
            output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_core::quant::Requant;
    use nm_core::{ConvGeom, FcGeom};

    fn conv_layer(c: usize, k: usize, i: usize) -> ConvLayer {
        let geom = ConvGeom::square(c, k, i, 3, 1, 1).unwrap();
        ConvLayer::new(geom, vec![1; geom.weight_elems()], Requant::IDENTITY).unwrap()
    }

    #[test]
    fn residual_block_shapes() {
        let mut b = GraphBuilder::new(&[8, 8, 4]);
        let x = b.input();
        let c1 = b.conv(x, conv_layer(4, 4, 8)).unwrap();
        let r1 = b.relu(c1).unwrap();
        let c2 = b.conv(r1, conv_layer(4, 4, 8)).unwrap();
        let s = b.add(c2, x).unwrap();
        let g = b.finish(s).unwrap();
        assert_eq!(g.node(g.output()).out_shape, vec![8, 8, 4]);
        assert_eq!(g.params(), 2 * 4 * 4 * 9);
        assert_eq!(g.dense_macs(), 2 * 64 * 4 * 36);
    }

    #[test]
    fn linear_over_tokens() {
        let mut b = GraphBuilder::new(&[5, 16]);
        let l =
            LinearLayer::new(FcGeom::new(16, 8).unwrap(), vec![0; 128], Requant::IDENTITY).unwrap();
        let y = b.linear(b.input(), l).unwrap();
        let g = b.finish(y).unwrap();
        assert_eq!(g.node(y).out_shape, vec![5, 8]);
        assert_eq!(g.dense_macs(), 5 * 128);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut b = GraphBuilder::new(&[8, 8, 3]);
        assert!(b.conv(b.input(), conv_layer(4, 4, 8)).is_err()); // C mismatch
        let x = b.input();
        assert!(b.add(x, x).is_ok());
        let mut b2 = GraphBuilder::new(&[4]);
        assert!(b2.global_avg_pool(b2.input()).is_err());
        assert!(b2.clone().finish(99).is_err());
    }

    #[test]
    fn zero_width_layer_norm_is_rejected() {
        let mut b = GraphBuilder::new(&[4, 0]);
        assert!(matches!(
            b.layer_norm(b.input()),
            Err(Error::ShapeMismatch(_))
        ));
        let mut scalar = GraphBuilder::new(&[]);
        assert!(scalar.layer_norm(scalar.input()).is_err());
        let mut ok = GraphBuilder::new(&[4, 1]);
        assert!(ok.layer_norm(ok.input()).is_ok());
    }

    #[test]
    fn empty_global_avg_pool_is_rejected() {
        for shape in [[0, 4, 3], [4, 0, 3]] {
            let mut b = GraphBuilder::new(&shape);
            assert!(
                matches!(b.global_avg_pool(b.input()), Err(Error::ShapeMismatch(_))),
                "{shape:?}"
            );
        }
        // No channels is an empty output, not an empty mean.
        let mut b = GraphBuilder::new(&[2, 2, 0]);
        assert!(b.global_avg_pool(b.input()).is_ok());
    }

    #[test]
    fn pooling_and_flatten_shapes() {
        let mut b = GraphBuilder::new(&[6, 6, 2]);
        let p = b.max_pool(b.input(), 2, 2).unwrap();
        let f = b.flatten(p).unwrap();
        let g = b.finish(f).unwrap();
        assert_eq!(g.node(p).out_shape, vec![3, 3, 2]);
        assert_eq!(g.node(f).out_shape, vec![18]);
    }
}
