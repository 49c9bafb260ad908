//! Top-K ranking metrics: Recall@K and NDCG@K (the paper's Table II
//! metrics), plus the partial top-K selection they share.

/// `(score, index)` with the ranking order as `Ord`: an entry is *greater*
/// when it ranks **worse** (lower score, or equal score and larger index).
/// A max-heap of these keeps the worst kept candidate on top. Panics on
/// NaN, like the comparator it replaces.
#[derive(Clone, Copy)]
struct Worst(f32, u32);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .partial_cmp(&self.0)
            .expect("scores must not be NaN")
            .then(self.1.cmp(&other.1))
    }
}

/// Returns the indices of the `k` largest scores, ordered descending.
///
/// **Tie-breaking is part of the contract**: equal scores rank the lower
/// index first, both within the returned order and when deciding which of
/// two equal-scored candidates survives the `k` cutoff. Offline evaluation
/// and the online serving engine (`graphaug-serve`) both rank through this
/// function, and the serving parity tests compare their outputs hex-exactly
/// — any tie-break drift would surface as a cross-process mismatch, so the
/// rule is locked by a regression proptest over duplicate-heavy score
/// vectors.
///
/// One pass over the scores with a bounded
/// min-heap of size `k` — after warm-up almost every element is rejected by
/// a single comparison against the current `k`-th best — then an
/// `O(k log k)` sort of the survivors.
pub fn topk_indices(scores: &[f32], k: usize) -> Vec<u32> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut heap = std::collections::BinaryHeap::with_capacity(k + 1);
    for (i, &s) in scores.iter().enumerate() {
        let cand = Worst(s, i as u32);
        if heap.len() < k {
            heap.push(cand);
        } else if cand < *heap.peek().expect("heap holds k entries") {
            heap.pop();
            heap.push(cand);
        }
    }
    let mut kept = heap.into_vec();
    kept.sort_unstable();
    kept.into_iter().map(|w| w.1).collect()
}

/// Bounded-heap top-K over an arbitrary `(index, score)` candidate stream —
/// the sparse-candidate sibling of [`topk_indices`], used by the IVF ANN
/// search path in `graphaug-serve` where only the probed inverted lists'
/// items are scored.
///
/// The selection shares [`topk_indices`]'s comparator, so the **tie-break
/// contract is identical**: equal scores rank the lower index first, both in
/// the returned order and at the `k` cutoff. Because that comparator is a
/// total order, the result does not depend on the order candidates arrive
/// in — which is what lets a full-probe ANN search (`nprobe = nlists`, all
/// items visited in cluster order) reproduce the dense exact ranking
/// hex-exactly.
///
/// A candidate for which `masked(index)` holds competes with score `-inf`
/// (the dense path's seen-item mask), and the result is exactly that of
/// masking every candidate up front. The predicate is asked lazily: once
/// `k` candidates are kept, only a candidate whose *raw* score would enter
/// the top-`k` is looked up — masking can only lower a score, so one that
/// loses unmasked loses masked too.
pub fn topk_pairs(
    candidates: impl IntoIterator<Item = (u32, f32)>,
    k: usize,
    masked: impl Fn(u32) -> bool,
) -> Vec<(u32, f32)> {
    if k == 0 {
        return Vec::new();
    }
    let mask = |i: u32, s: f32| Worst(if masked(i) { f32::NEG_INFINITY } else { s }, i);
    let mut candidates = candidates.into_iter();
    let mut heap = std::collections::BinaryHeap::with_capacity(k);
    for (i, s) in candidates.by_ref() {
        heap.push(mask(i, s));
        if heap.len() == k {
            break;
        }
    }
    if let Some(&first) = heap.peek() {
        let mut worst = first;
        for (i, s) in candidates {
            // Most candidates lose to the k-th score outright. A NaN falls
            // through to the comparator, which panics unless it is masked —
            // as it did when every candidate was masked first.
            if s < worst.0 || (!s.is_nan() && Worst(s, i) >= worst) {
                continue;
            }
            let cand = mask(i, s);
            if cand < worst {
                *heap.peek_mut().expect("heap holds k entries") = cand;
                worst = *heap.peek().expect("heap holds k entries");
            }
        }
    }
    let mut kept = heap.into_vec();
    kept.sort_unstable();
    kept.into_iter().map(|w| (w.1, w.0)).collect()
}

/// Recall@K: fraction of this user's held-out items appearing in the top-K
/// ranked list.
pub fn recall_at_k(ranked: &[u32], relevant: &[u32], k: usize) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let hits = ranked
        .iter()
        .take(k)
        .filter(|v| relevant.binary_search(v).is_ok())
        .count();
    hits as f64 / relevant.len() as f64
}

/// Count of `approx` items that also appear in `exact` (set overlap, order
/// ignored). This is the shared numerator of every approximate-vs-oracle
/// recall estimate in the serving stack — the ANN recall gate, the
/// quantization drift gate, and the engines' online self-audits all divide
/// it by the oracle list length. Sorts a copy of `exact`; neither input
/// needs to be pre-sorted.
pub fn overlap_count(approx: &[u32], exact: &[u32]) -> usize {
    let mut sorted: Vec<u32> = exact.to_vec();
    sorted.sort_unstable();
    approx
        .iter()
        .filter(|v| sorted.binary_search(v).is_ok())
        .count()
}

/// NDCG@K with binary relevance: `DCG = Σ 1/log₂(rank+1)` over hits,
/// normalized by the ideal DCG of `min(k, |relevant|)` leading hits.
pub fn ndcg_at_k(ranked: &[u32], relevant: &[u32], k: usize) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let dcg: f64 = ranked
        .iter()
        .take(k)
        .enumerate()
        .filter(|(_, v)| relevant.binary_search(v).is_ok())
        .map(|(i, _)| 1.0 / ((i + 2) as f64).log2())
        .sum();
    let ideal: f64 = (0..relevant.len().min(k))
        .map(|i| 1.0 / ((i + 2) as f64).log2())
        .sum();
    dcg / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_selects_largest_in_order() {
        let scores = vec![0.1, 0.9, 0.3, 0.7, 0.5];
        assert_eq!(topk_indices(&scores, 3), vec![1, 3, 4]);
    }

    #[test]
    fn topk_handles_k_larger_than_n() {
        let scores = vec![0.2, 0.1];
        assert_eq!(topk_indices(&scores, 10), vec![0, 1]);
    }

    #[test]
    fn topk_ties_break_by_index() {
        let scores = vec![0.5, 0.5, 0.5];
        assert_eq!(topk_indices(&scores, 2), vec![0, 1]);
    }

    #[test]
    fn topk_pairs_agrees_with_topk_indices_on_dense_input() {
        let scores = vec![0.1, 0.9, 0.3, 0.9, 0.5, -2.0, 0.9];
        for k in 0..=scores.len() + 2 {
            let dense = topk_indices(&scores, k);
            let pairs = topk_pairs(
                scores.iter().enumerate().map(|(i, &s)| (i as u32, s)),
                k,
                |_| false,
            );
            assert_eq!(
                pairs.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                dense,
                "k={k}"
            );
            for &(i, s) in &pairs {
                assert_eq!(s.to_bits(), scores[i as usize].to_bits());
            }
        }
    }

    #[test]
    fn topk_pairs_is_candidate_order_invariant_under_ties() {
        // Duplicate-heavy scores, candidates delivered in two different
        // orders: the total-order comparator must give the same answer.
        let scores = [0.5f32, 0.5, 0.25, 0.5, 0.25, 0.5];
        let forward: Vec<(u32, f32)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        let mut shuffled = forward.clone();
        shuffled.reverse();
        shuffled.swap(0, 3);
        for k in 1..=scores.len() {
            assert_eq!(
                topk_pairs(forward.iter().copied(), k, |_| false),
                topk_pairs(shuffled.iter().copied(), k, |_| false),
                "k={k}"
            );
        }
        // Ties break toward the lower index, same as topk_indices.
        assert_eq!(
            topk_pairs(shuffled.iter().copied(), 3, |_| false),
            vec![(0, 0.5), (1, 0.5), (3, 0.5)]
        );
    }

    #[test]
    fn masked_topk_pairs_equals_masking_every_candidate_up_front() {
        // Duplicate-heavy scores (ties at every k-th score, raw `-inf`
        // among them), masks from none through every other item to all of
        // them, k from 0 past the candidate count; candidates arrive in a
        // scrambled order.
        let n = 23u32;
        let cands: Vec<(u32, f32)> = (0..n)
            .map(|j| {
                let i = (j * 7) % n;
                let palette = [0.5f32, -1.0, 0.5, 2.0, 0.0, -0.0, 0.5, f32::NEG_INFINITY];
                (i, palette[i as usize % palette.len()])
            })
            .collect();
        let masks: [fn(u32) -> bool; 4] = [
            |_| false,
            |i| i % 2 == 0,
            |i| i % 7 == 0 || i % 7 == 2,
            |_| true,
        ];
        for (m, masked) in masks.iter().enumerate() {
            let eager: Vec<(u32, f32)> = cands
                .iter()
                .map(|&(i, s)| (i, if masked(i) { f32::NEG_INFINITY } else { s }))
                .collect();
            for k in 0..=n as usize + 3 {
                let bits = |v: Vec<(u32, f32)>| {
                    v.into_iter()
                        .map(|(i, s)| (i, s.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(topk_pairs(cands.iter().copied(), k, masked)),
                    bits(topk_pairs(eager.iter().copied(), k, |_| false)),
                    "mask {m} k={k}"
                );
            }
        }
    }

    #[test]
    fn recall_counts_hits_over_relevant() {
        // relevant sorted.
        let ranked = vec![4, 2, 9, 1];
        let relevant = vec![1, 2, 7];
        assert!((recall_at_k(&ranked, &relevant, 4) - 2.0 / 3.0).abs() < 1e-12);
        assert!((recall_at_k(&ranked, &relevant, 2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn recall_empty_relevant_is_zero() {
        assert_eq!(recall_at_k(&[1, 2], &[], 2), 0.0);
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let ranked = vec![3, 8, 5, 0, 1];
        let relevant = vec![3, 5, 8];
        assert!((ndcg_at_k(&ranked, &relevant, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_rewards_early_hits() {
        let relevant = vec![7];
        let early = ndcg_at_k(&[7, 1, 2], &relevant, 3);
        let late = ndcg_at_k(&[1, 2, 7], &relevant, 3);
        assert!(early > late);
        assert!((early - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_caps_ideal_at_k() {
        // 5 relevant items but k=2: a ranking with the top-2 slots filled by
        // relevant items is ideal.
        let relevant = vec![0, 1, 2, 3, 4];
        assert!((ndcg_at_k(&[0, 1], &relevant, 2) - 1.0).abs() < 1e-12);
    }
}
