//! The graph mixhop encoder (paper Eq. 11–13).
//!
//! Per layer, the embeddings propagated over the hop powers `Ã⁰, Ã¹, Ã²` are
//! combined by a **learnable mixing row** — the `l`-th row of the paper's
//! mixing matrix `M`, which "controls the contribution of different hop
//! embeddings to the `(l+1)`-order embedding". Keeping the hop-0 (self)
//! signal in every layer is what counteracts oversmoothing (Table III
//! measures this via MAD). Powers are applied iteratively (`Ã(Ã(…H))`),
//! never materialized, as the paper's complexity analysis prescribes.
//!
//! Following the transform-free design the paper adopts for modern graph CF
//! (LightGCN / GCCF — the paper's refs 3 and 27: dense per-layer transforms degrade
//! recommendation quality), the combination is a scalar mixture rather than
//! a concatenation-projection; `bench_baseline mixhop_forward` and the
//! Fig. 2 ablation quantify this choice.
//!
//! The "w/o Mixhop" ablation is single-hop propagation with a mean readout
//! — exactly LightGCN message passing, [`crate::nn::lightgcn_propagate`].
//! Both encoders take either adjacency kind ([`Adj`]): the clean graph or a
//! sampled view.

use graphaug_tensor::{Adj, Graph, NodeId};

/// Shape of one layer's mixing-row parameter: `(1, n_hops)` for the mixhop
/// encoder; the vanilla ablation has no per-layer parameters.
pub fn mixing_row_shape(n_hops: usize) -> (usize, usize) {
    (1, n_hops)
}

/// Softmax-normalizes a `1 × k` mixing-row node into `k` scalar weight
/// nodes. The simplex constraint keeps the mixture scale-invariant: a free
/// row would inflate under BPR (uniformly scaling embeddings shrinks the
/// loss without changing the ranking) and saturate the objective.
fn simplex_weights(g: &mut Graph, alpha: NodeId, k: usize) -> Vec<NodeId> {
    let lse = g.logsumexp_rows(alpha);
    (0..k)
        .map(|c| {
            let x = g.slice_cols(alpha, c, c + 1);
            let d = g.sub(x, lse);
            g.exp(d)
        })
        .collect()
}

/// One mixhop layer: `Σ_m softmax(α)_m Ã^m H` with the `1 × |hops|` mixing
/// row `alpha` (hops sorted ascending).
fn mixhop_layer(g: &mut Graph, adj: Adj<'_>, h: NodeId, alpha: NodeId, hops: &[usize]) -> NodeId {
    let max_hop = *hops.last().expect("at least one hop");
    let weights = simplex_weights(g, alpha, hops.len());
    let mut power = h;
    let mut out: Option<NodeId> = None;
    let mut slot = 0usize;
    for m in 0..=max_hop {
        if hops.contains(&m) {
            let term = g.scale_by_scalar(power, weights[slot]);
            out = Some(match out {
                Some(acc) => g.add(acc, term),
                None => term,
            });
            slot += 1;
        }
        if m < max_hop {
            power = g.propagate(adj, power);
        }
    }
    out.expect("non-empty hops")
}

/// Full mixhop encoding: one mixing row per layer, mean readout over the
/// layer outputs `{H¹, …, H^L}` (the hop-0 term inside every layer already
/// carries the self signal, so including `H⁰` in the readout would
/// over-weight it and wash out propagation).
pub fn encode_mixhop<'a>(
    g: &mut Graph,
    adj: impl Into<Adj<'a>>,
    h0: NodeId,
    mixing_rows: &[NodeId],
    hops: &[usize],
) -> NodeId {
    assert!(
        !hops.is_empty() && hops.windows(2).all(|w| w[0] < w[1]),
        "hops must be sorted"
    );
    assert!(!mixing_rows.is_empty(), "need at least one mixhop layer");
    let adj = adj.into();
    let mut h = h0;
    let mut acc: Option<NodeId> = None;
    for &alpha in mixing_rows {
        h = mixhop_layer(g, adj, h, alpha, hops);
        acc = Some(match acc {
            Some(a) => g.add(a, h),
            None => h,
        });
    }
    let total = acc.expect("non-empty layers");
    g.scale(total, 1.0 / mixing_rows.len() as f32)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use graphaug_sparse::Csr;
    use graphaug_tensor::{Mat, SpPair};

    fn path_adj() -> SpPair {
        SpPair::symmetric(Csr::from_coo(
            3,
            3,
            vec![(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 0.5)],
        ))
    }

    #[test]
    fn mixing_row_shape_matches_hops() {
        assert_eq!(mixing_row_shape(3), (1, 3));
    }

    #[test]
    fn mixhop_shapes_are_preserved() {
        let mut g = Graph::new();
        let adj = path_adj();
        let h0 = g.constant(Mat::from_fn(3, 4, |r, c| (r + c) as f32 * 0.1));
        let a0 = g.constant(Mat::zeros(1, 3));
        let a1 = g.constant(Mat::from_vec(1, 3, vec![0.5, 0.3, 0.2]));
        let out = encode_mixhop(&mut g, &adj, h0, &[a0, a1], &[0, 1, 2]);
        assert_eq!(g.value(out).shape(), (3, 4));
        assert!(g.value(out).all_finite());
    }

    #[test]
    fn unit_hop1_mixing_is_layer_mean_of_propagations() {
        // With hops = [1] the softmax weight is 1 regardless of the logit,
        // so the two-layer readout is mean{ÃH, Ã²H}.
        let mut g = Graph::new();
        let adj = path_adj();
        let h0 = g.constant(Mat::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.2));
        let logit = g.constant(Mat::filled(1, 1, -2.5));
        let mix = encode_mixhop(&mut g, &adj, h0, &[logit, logit], &[1]);
        let p1 = g.spmm(&adj, h0);
        let p2 = g.spmm(&adj, p1);
        let s = g.add(p1, p2);
        let want = g.scale(s, 0.5);
        for (a, b) in g.value(mix).as_slice().iter().zip(g.value(want).as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn edge_weighted_matches_dense_when_weights_equal_values() {
        let csr = Csr::from_coo(
            3,
            3,
            vec![(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 0.5)],
        );
        let pattern = Arc::new(csr.clone());
        let mut g = Graph::new();
        let adj = SpPair::symmetric(csr.clone());
        let h0 = g.constant(Mat::from_fn(3, 2, |r, c| (r + c) as f32 * 0.3));
        let alpha = g.constant(Mat::from_vec(1, 3, vec![0.2, 0.5, 0.3]));
        let dense = encode_mixhop(&mut g, &adj, h0, &[alpha], &[0, 1, 2]);
        let wn = g.constant(Mat::from_vec(4, 1, csr.data().to_vec()));
        let view = Adj::Weighted {
            pattern: &pattern,
            weights: wn,
        };
        let ew = encode_mixhop(&mut g, view, h0, &[alpha], &[0, 1, 2]);
        for (a, b) in g.value(dense).as_slice().iter().zip(g.value(ew).as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn hop_zero_only_ignores_graph() {
        // hops = [0] with α = [1]: no propagation, so node 0's output must
        // not depend on node 2's input.
        let mut g = Graph::new();
        let adj = path_adj();
        let mk = |v: f32| Mat::from_fn(3, 2, move |r, c| if r == 2 { v } else { (r + c) as f32 });
        let one = g.constant(Mat::filled(1, 1, 1.0));
        let h0a = g.constant(mk(5.0));
        let outa = encode_mixhop(&mut g, &adj, h0a, &[one], &[0]);
        let h0b = g.constant(mk(-3.0));
        let outb = encode_mixhop(&mut g, &adj, h0b, &[one], &[0]);
        assert_eq!(g.value(outa).row(0), g.value(outb).row(0));
    }

    #[test]
    fn mixing_rows_receive_gradients() {
        let mut g = Graph::new();
        let adj = path_adj();
        let h0 = g.constant(Mat::from_fn(3, 2, |r, c| (r + c) as f32 * 0.4 + 0.1));
        let alpha = g.constant(Mat::from_vec(1, 3, vec![0.4, 0.3, 0.3]));
        let out = encode_mixhop(&mut g, &adj, h0, &[alpha], &[0, 1, 2]);
        let sq = g.square(out);
        let loss = g.sum_all(sq);
        g.backward(loss);
        let grad = g.grad(alpha).expect("mixing row must receive gradient");
        assert!(grad.max_abs() > 0.0);
    }

    #[test]
    #[should_panic(expected = "hops must be sorted")]
    fn rejects_unsorted_hops() {
        let mut g = Graph::new();
        let adj = path_adj();
        let h0 = g.constant(Mat::zeros(3, 2));
        let a = g.constant(Mat::zeros(1, 2));
        encode_mixhop(&mut g, &adj, h0, &[a], &[2, 1]);
    }
}
