//! Define-by-run reverse-mode autodiff tape.
//!
//! A [`Graph`] is rebuilt for every optimization step: builder methods
//! (`matmul`, `spmm`, `sigmoid`, …) compute forward values eagerly and record
//! an [`Op`]; [`Graph::backward`] then walks the tape in reverse, accumulating
//! gradients into each node. Because operands always precede their consumers
//! on the tape, the backward pass is a single reverse sweep with
//! `split_at_mut` providing disjoint access to a node and its operands.

use std::sync::Arc;

use graphaug_par::dot8;
use graphaug_sparse::Csr;

use crate::mat::Mat;
use crate::ops::{sigmoid, softplus, Adj, Op, SpPair};

/// Identifier of a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

struct Node {
    op: Op,
    value: Mat,
    grad: Option<Mat>,
}

/// The autodiff tape. See the module docs for the usage model.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(128),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a node.
    pub fn value(&self, id: NodeId) -> &Mat {
        &self.nodes[id.0].value
    }

    /// Gradient of a node after [`Graph::backward`], if it received one.
    pub fn grad(&self, id: NodeId) -> Option<&Mat> {
        self.nodes[id.0].grad.as_ref()
    }

    fn push(&mut self, op: Op, value: Mat) -> NodeId {
        debug_assert!(value.all_finite(), "non-finite forward value");
        self.nodes.push(Node {
            op,
            value,
            grad: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Truncates the tape back to its first `len` nodes, dropping every
    /// later node together with its value and gradient (freed buffers go
    /// back to the thread-local pool). Lets a stepper record a static
    /// prefix once and rewind before re-recording the per-step suffix,
    /// instead of growing one tape without bound. Gradients already stored
    /// on surviving prefix nodes are left untouched.
    pub fn truncate(&mut self, len: usize) {
        self.nodes.truncate(len);
    }

    /// Leaf node holding a constant (or a parameter snapshot).
    pub fn constant(&mut self, value: Mat) -> NodeId {
        self.push(Op::Leaf, value)
    }

    /// `a + b`
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip_map(self.value(b), |x, y| x + y);
        self.push(Op::Add(a, b), v)
    }

    /// `a - b`
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip_map(self.value(b), |x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    /// Element-wise `a ⊙ b`
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip_map(self.value(b), |x, y| x * y);
        self.push(Op::Mul(a, b), v)
    }

    /// `c · a`
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.value(a).map(|x| c * x);
        self.push(Op::Scale(a, c), v)
    }

    /// `a + c`
    pub fn add_scalar(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.value(a).map(|x| x + c);
        self.push(Op::AddScalar(a, c), v)
    }

    /// Element-wise product with a constant matrix (mask / noise injection).
    pub fn mul_const(&mut self, a: NodeId, k: Arc<Mat>) -> NodeId {
        let v = self.value(a).zip_map(&k, |x, y| x * y);
        self.push(Op::MulConst(a, k), v)
    }

    /// Element-wise sum with a constant matrix.
    pub fn add_const(&mut self, a: NodeId, k: Arc<Mat>) -> NodeId {
        let v = self.value(a).zip_map(&k, |x, y| x + y);
        self.push(Op::AddConst(a, k), v)
    }

    /// Dense `a × b`
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// Dense `a × bᵀ`
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul_nt(self.value(b));
        self.push(Op::MatMulNT(a, b), v)
    }

    /// Broadcasts the `1 × d` node `bias` over the rows of `a`.
    pub fn add_row_broadcast(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(bias));
        assert_eq!(bv.rows(), 1, "bias must be 1 x d");
        assert_eq!(av.cols(), bv.cols(), "bias width mismatch");
        let mut v = av.clone();
        for r in 0..v.rows() {
            for (o, &b) in v.row_mut(r).iter_mut().zip(bv.row(0)) {
                *o += b;
            }
        }
        self.push(Op::AddRowBroadcast(a, bias), v)
    }

    /// Sparse × dense product with a constant sparse operand.
    pub fn spmm(&mut self, sp: &SpPair, h: NodeId) -> NodeId {
        let hv = self.value(h);
        let d = hv.cols();
        let mut out = Mat::zeros(sp.m.n_rows(), d);
        sp.m.spmm_into(hv.as_slice(), d, out.as_mut_slice());
        self.push(Op::Spmm { sp: sp.clone(), h }, out)
    }

    /// Edge-weighted sparse × dense product: the values of `pattern` are
    /// replaced by the `nnz × 1` node `w`, and gradients flow into both `w`
    /// and `h`. This is what makes GraphAug's sampled views differentiable.
    pub fn spmm_ew(&mut self, pattern: Arc<Csr>, w: NodeId, h: NodeId) -> NodeId {
        let (wv, hv) = (self.value(w), self.value(h));
        assert_eq!(wv.shape(), (pattern.nnz(), 1), "weights must be nnz x 1");
        assert_eq!(hv.rows(), pattern.n_cols(), "dense operand height mismatch");
        let d = hv.cols();
        let mut out = Mat::zeros(pattern.n_rows(), d);
        pattern.spmm_ew_into(wv.as_slice(), hv.as_slice(), d, out.as_mut_slice());
        self.push(Op::SpmmEw { pattern, w, h }, out)
    }

    /// One propagation step `Ã h` over either kind of adjacency — the one
    /// operator every graph encoder calls.
    pub fn propagate(&mut self, adj: Adj<'_>, h: NodeId) -> NodeId {
        match adj {
            Adj::Fixed(sp) => self.spmm(sp, h),
            Adj::Weighted { pattern, weights } => self.spmm_ew(Arc::clone(pattern), weights, h),
        }
    }

    /// Row gather: `y[i] = src[idx[i]]`. Backward scatter-adds.
    pub fn gather_rows(&mut self, src: NodeId, idx: Arc<Vec<u32>>) -> NodeId {
        let sv = self.value(src);
        let d = sv.cols();
        let mut v = Mat::zeros(idx.len(), d);
        for (i, &r) in idx.iter().enumerate() {
            v.row_mut(i).copy_from_slice(sv.row(r as usize));
        }
        self.push(Op::GatherRows { src, idx }, v)
    }

    /// Column-wise concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.rows(), bv.rows(), "concat_cols row mismatch");
        let (n, da, db) = (av.rows(), av.cols(), bv.cols());
        let mut v = Mat::zeros(n, da + db);
        for r in 0..n {
            v.row_mut(r)[..da].copy_from_slice(av.row(r));
            v.row_mut(r)[da..].copy_from_slice(bv.row(r));
        }
        self.push(Op::ConcatCols(a, b), v)
    }

    /// Column slice `src[:, start..end]`.
    pub fn slice_cols(&mut self, src: NodeId, start: usize, end: usize) -> NodeId {
        let sv = self.value(src);
        assert!(start < end && end <= sv.cols(), "bad column slice");
        let mut v = Mat::zeros(sv.rows(), end - start);
        for r in 0..sv.rows() {
            v.row_mut(r).copy_from_slice(&sv.row(r)[start..end]);
        }
        self.push(Op::SliceCols { src, start, end }, v)
    }

    /// Row slice `src[start..end, :]`.
    pub fn slice_rows(&mut self, src: NodeId, start: usize, end: usize) -> NodeId {
        let sv = self.value(src);
        assert!(start < end && end <= sv.rows(), "bad row slice");
        let c = sv.cols();
        let mut v = Mat::zeros(end - start, c);
        v.as_mut_slice()
            .copy_from_slice(&sv.as_slice()[start * c..end * c]);
        self.push(Op::SliceRows { src, start, end }, v)
    }

    /// Logistic sigmoid, element-wise.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(sigmoid);
        self.push(Op::Sigmoid(a), v)
    }

    /// LeakyReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: NodeId, slope: f32) -> NodeId {
        let v = self.value(a).map(|x| if x > 0.0 { x } else { slope * x });
        self.push(Op::LeakyRelu(a, slope), v)
    }

    /// Hyperbolic tangent, element-wise.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Exponential, element-wise.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::exp);
        self.push(Op::Exp(a), v)
    }

    /// Natural log, element-wise. The input must be strictly positive.
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::ln);
        self.push(Op::Ln(a), v)
    }

    /// Element-wise square.
    pub fn square(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x * x);
        self.push(Op::Square(a), v)
    }

    /// Numerically-stable softplus, element-wise.
    pub fn softplus(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(softplus);
        self.push(Op::Softplus(a), v)
    }

    /// Row-wise L2 normalization (unit rows; zero rows stay zero).
    pub fn l2_normalize_rows(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let mut v = av.clone();
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            let n = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            for x in row.iter_mut() {
                *x /= n;
            }
        }
        self.push(Op::L2NormalizeRows(a), v)
    }

    /// Row-wise dot product → `n × 1`.
    pub fn rowwise_dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape(), bv.shape(), "rowwise_dot shape mismatch");
        let v = Mat::from_fn(av.rows(), 1, |r, _| {
            av.row(r).iter().zip(bv.row(r)).map(|(x, y)| x * y).sum()
        });
        self.push(Op::RowwiseDot(a, b), v)
    }

    /// Row-wise log-sum-exp → `n × 1` (stable).
    pub fn logsumexp_rows(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let v = Mat::from_fn(av.rows(), 1, |r, _| {
            let row = av.row(r);
            let m = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln()
        });
        self.push(Op::LogsumexpRows(a), v)
    }

    /// Diagonal of a square matrix → `n × 1`.
    pub fn diag_nn(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        assert_eq!(av.rows(), av.cols(), "diag_nn requires a square matrix");
        let v = Mat::from_fn(av.rows(), 1, |r, _| av.get(r, r));
        self.push(Op::DiagNN(a), v)
    }

    /// Sum of all elements → `1 × 1`.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let v = Mat::scalar(self.value(a).as_slice().iter().sum());
        self.push(Op::SumAll(a), v)
    }

    /// Mean of all elements → `1 × 1`.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let v = Mat::scalar(av.as_slice().iter().sum::<f32>() / av.len() as f32);
        self.push(Op::MeanAll(a), v)
    }

    /// Broadcast-multiplies `a` by the `1 × 1` scalar node `s` — the
    /// learnable hop-mixing primitive of the mixhop encoder.
    pub fn scale_by_scalar(&mut self, a: NodeId, s: NodeId) -> NodeId {
        assert_eq!(self.value(s).shape(), (1, 1), "scale factor must be 1 x 1");
        let sv = self.value(s).item();
        let v = self.value(a).map(|x| sv * x);
        self.push(Op::ScaleByScalar(a, s), v)
    }

    /// Runs the reverse pass from the scalar node `loss`.
    ///
    /// Gradients accumulate into every node reachable from `loss`; query them
    /// with [`Graph::grad`]. Panics if `loss` is not `1 × 1`.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "loss must be a scalar node"
        );
        self.nodes[loss.0].grad = Some(Mat::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            if self.nodes[i].grad.is_none() {
                continue;
            }
            let (left, right) = self.nodes.split_at_mut(i);
            let node = &right[0];
            let g = node.grad.as_ref().expect("checked above");
            match &node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    Self::acc_scaled(&mut left[a.0].grad, g, 1.0);
                    Self::acc_scaled(&mut left[b.0].grad, g, 1.0);
                }
                Op::Sub(a, b) => {
                    Self::acc_scaled(&mut left[a.0].grad, g, 1.0);
                    Self::acc_scaled(&mut left[b.0].grad, g, -1.0);
                }
                Op::Mul(a, b) => {
                    let da = g.zip_map(&left[b.0].value, |x, y| x * y);
                    let db = g.zip_map(&left[a.0].value, |x, y| x * y);
                    Self::acc(&mut left[a.0].grad, da);
                    Self::acc(&mut left[b.0].grad, db);
                }
                Op::Scale(a, c) => Self::acc_scaled(&mut left[a.0].grad, g, *c),
                Op::AddScalar(a, _) | Op::AddConst(a, _) => {
                    Self::acc_scaled(&mut left[a.0].grad, g, 1.0);
                }
                Op::MulConst(a, k) => {
                    let da = g.zip_map(k, |x, y| x * y);
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::MatMul(a, b) => {
                    let da = g.matmul_nt(&left[b.0].value);
                    let db = left[a.0].value.matmul_tn(g);
                    Self::acc(&mut left[a.0].grad, da);
                    Self::acc(&mut left[b.0].grad, db);
                }
                Op::MatMulNT(a, b) => {
                    let da = g.matmul(&left[b.0].value);
                    let db = g.matmul_tn(&left[a.0].value);
                    Self::acc(&mut left[a.0].grad, da);
                    Self::acc(&mut left[b.0].grad, db);
                }
                Op::AddRowBroadcast(a, bias) => {
                    let d = g.cols();
                    let mut db = Mat::zeros(1, d);
                    for r in 0..g.rows() {
                        for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    Self::acc_scaled(&mut left[a.0].grad, g, 1.0);
                    Self::acc(&mut left[bias.0].grad, db);
                }
                Op::Spmm { sp, h } => {
                    let d = g.cols();
                    // Accumulate straight into the existing gradient buffer
                    // (taken out of its slot to sidestep aliasing) instead of
                    // materializing a temporary and adding it.
                    let mut dh = left[h.0]
                        .grad
                        .take()
                        .unwrap_or_else(|| Mat::zeros(sp.mt.n_rows(), d));
                    sp.mt.spmm_acc_into(g.as_slice(), d, dh.as_mut_slice());
                    left[h.0].grad = Some(dh);
                }
                Op::SpmmEw { pattern, w, h } => {
                    let d = g.cols();
                    // dW_e = dY[r] · H[c]: disjoint per entry, overwrite.
                    let mut dw = Mat::zeros(pattern.nnz(), 1);
                    pattern.spmm_ew_dw_into(
                        left[h.0].value.as_slice(),
                        g.as_slice(),
                        d,
                        dw.as_mut_slice(),
                    );
                    Self::acc(&mut left[w.0].grad, dw);
                    // dH = (w ∘ pattern)ᵀ dY, accumulated in place via the
                    // cached transpose plan.
                    let h_rows = left[h.0].value.rows();
                    let mut dh = left[h.0]
                        .grad
                        .take()
                        .unwrap_or_else(|| Mat::zeros(h_rows, d));
                    pattern.spmm_ew_dh_acc_into(
                        left[w.0].value.as_slice(),
                        g.as_slice(),
                        d,
                        dh.as_mut_slice(),
                    );
                    left[h.0].grad = Some(dh);
                }
                Op::GatherRows { src, idx } => {
                    let d = g.cols();
                    let mut ds = Mat::zeros(left[src.0].value.rows(), d);
                    for (i, &r) in idx.iter().enumerate() {
                        let drow = ds.row_mut(r as usize);
                        for (o, &x) in drow.iter_mut().zip(g.row(i)) {
                            *o += x;
                        }
                    }
                    Self::acc(&mut left[src.0].grad, ds);
                }
                Op::ConcatCols(a, b) => {
                    let da_w = left[a.0].value.cols();
                    let n = g.rows();
                    let mut da = Mat::zeros(n, da_w);
                    let mut db = Mat::zeros(n, g.cols() - da_w);
                    for r in 0..n {
                        da.row_mut(r).copy_from_slice(&g.row(r)[..da_w]);
                        db.row_mut(r).copy_from_slice(&g.row(r)[da_w..]);
                    }
                    Self::acc(&mut left[a.0].grad, da);
                    Self::acc(&mut left[b.0].grad, db);
                }
                Op::SliceCols { src, start, end } => {
                    let sv = &left[src.0].value;
                    let mut ds = Mat::zeros(sv.rows(), sv.cols());
                    for r in 0..g.rows() {
                        ds.row_mut(r)[*start..*end].copy_from_slice(g.row(r));
                    }
                    Self::acc(&mut left[src.0].grad, ds);
                }
                Op::SliceRows { src, start, end } => {
                    let (rows, c) = left[src.0].value.shape();
                    let mut ds = left[src.0]
                        .grad
                        .take()
                        .unwrap_or_else(|| Mat::zeros(rows, c));
                    for (o, &x) in ds.as_mut_slice()[start * c..end * c]
                        .iter_mut()
                        .zip(g.as_slice())
                    {
                        *o += x;
                    }
                    left[src.0].grad = Some(ds);
                }
                Op::Sigmoid(a) => {
                    let da = g.zip_map(&node.value, |gx, y| gx * y * (1.0 - y));
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::LeakyRelu(a, slope) => {
                    let s = *slope;
                    let da = g.zip_map(&left[a.0].value, |gx, x| if x > 0.0 { gx } else { s * gx });
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::Tanh(a) => {
                    let da = g.zip_map(&node.value, |gx, y| gx * (1.0 - y * y));
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::Exp(a) => {
                    let da = g.zip_map(&node.value, |gx, y| gx * y);
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::Ln(a) => {
                    let da = g.zip_map(&left[a.0].value, |gx, x| gx / x);
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::Square(a) => {
                    let da = g.zip_map(&left[a.0].value, |gx, x| 2.0 * x * gx);
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::Softplus(a) => {
                    let da = g.zip_map(&left[a.0].value, |gx, x| gx * sigmoid(x));
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::L2NormalizeRows(a) => {
                    let av = &left[a.0].value;
                    let y = &node.value;
                    let mut da = Mat::zeros(av.rows(), av.cols());
                    for r in 0..av.rows() {
                        let n = av
                            .row(r)
                            .iter()
                            .map(|x| x * x)
                            .sum::<f32>()
                            .sqrt()
                            .max(1e-12);
                        let dot: f32 = g.row(r).iter().zip(y.row(r)).map(|(gx, yx)| gx * yx).sum();
                        for ((o, &gx), &yx) in da.row_mut(r).iter_mut().zip(g.row(r)).zip(y.row(r))
                        {
                            *o = (gx - yx * dot) / n;
                        }
                    }
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::RowwiseDot(a, b) => {
                    let (av, bv) = (&left[a.0].value, &left[b.0].value);
                    let mut da = Mat::zeros(av.rows(), av.cols());
                    let mut db = Mat::zeros(av.rows(), av.cols());
                    for r in 0..av.rows() {
                        let gr = g.get(r, 0);
                        for ((o, &x), (p, &y)) in da
                            .row_mut(r)
                            .iter_mut()
                            .zip(bv.row(r))
                            .zip(db.row_mut(r).iter_mut().zip(av.row(r)))
                        {
                            *o = gr * x;
                            *p = gr * y;
                        }
                    }
                    Self::acc(&mut left[a.0].grad, da);
                    Self::acc(&mut left[b.0].grad, db);
                }
                Op::LogsumexpRows(a) => {
                    let av = &left[a.0].value;
                    let y = &node.value;
                    let mut da = Mat::zeros(av.rows(), av.cols());
                    for r in 0..av.rows() {
                        let gr = g.get(r, 0);
                        let yr = y.get(r, 0);
                        for (o, &x) in da.row_mut(r).iter_mut().zip(av.row(r)) {
                            *o = gr * (x - yr).exp();
                        }
                    }
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::DiagNN(a) => {
                    let n = left[a.0].value.rows();
                    let mut da = Mat::zeros(n, n);
                    for r in 0..n {
                        da.set(r, r, g.get(r, 0));
                    }
                    Self::acc(&mut left[a.0].grad, da);
                }
                Op::SumAll(a) => {
                    let gs = g.item();
                    let (r, c) = left[a.0].value.shape();
                    Self::acc(&mut left[a.0].grad, Mat::filled(r, c, gs));
                }
                Op::MeanAll(a) => {
                    let (r, c) = left[a.0].value.shape();
                    let gs = g.item() / (r * c) as f32;
                    Self::acc(&mut left[a.0].grad, Mat::filled(r, c, gs));
                }
                Op::ScaleByScalar(a, s) => {
                    let sv = left[s.0].value.item();
                    let ds = dot8(g.as_slice(), left[a.0].value.as_slice());
                    Self::acc_scaled(&mut left[a.0].grad, g, sv);
                    Self::acc(&mut left[s.0].grad, Mat::scalar(ds));
                }
            }
        }
    }

    fn acc(slot: &mut Option<Mat>, delta: Mat) {
        match slot {
            Some(m) => m.add_assign_scaled(&delta, 1.0),
            None => *slot = Some(delta),
        }
    }

    /// `slot += c·g` without materialising `c·g` when the slot is already
    /// populated — the bits of [`Graph::acc`] of `g.map(|x| c * x)`, and of a
    /// clone or a negation at `c = ±1`, where the product is exact.
    fn acc_scaled(slot: &mut Option<Mat>, g: &Mat, c: f32) {
        match slot {
            Some(m) => m.add_assign_scaled(g, c),
            None => *slot = Some(g.map(|x| c * x)),
        }
    }
}
