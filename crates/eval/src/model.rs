//! The `Recommender` trait — the uniform scoring interface every model in
//! the workspace (GraphAug and all 18 baselines) implements.

use graphaug_tensor::Mat;

/// A trained recommender that can score all items for a user.
///
/// Most models are embedding-dot-product scorers and should implement
/// [`Recommender::embeddings`], inheriting the default `score_items`; models
/// with non-factored scoring functions (NCF's MLP head, AutoRec's decoder)
/// override `score_items` directly and return `None` from `embeddings`.
/// That split is a contract the serving tier relies on: whenever
/// `embeddings` is `Some`, `score_items` is the default, so the exported
/// tables score the same bits the model does.
///
/// `Sync` is a supertrait because the evaluation harness scores users in
/// parallel — `score_items` must be callable from worker threads through a
/// shared reference.
pub trait Recommender: Sync {
    /// Human-readable model name (used in experiment tables).
    fn name(&self) -> &str;

    /// Final `(user, item)` embedding matrices when the model is a
    /// dot-product scorer. Used for scoring, MAD, and uniformity statistics.
    fn embeddings(&self) -> Option<(&Mat, &Mat)>;

    /// Preference scores for every item for `user`: the default is
    /// [`graphaug_par::score_rows_f32`] over the item table, so item `v`
    /// scores `Σ ie[v][d]·ue[user][d]` summed in ascending `d` from `-0.0`.
    fn score_items(&self, user: usize) -> Vec<f32> {
        let (ue, ie) = self
            .embeddings()
            .expect("models without embeddings must override score_items");
        assert_eq!(
            ue.cols(),
            ie.cols(),
            "user and item embeddings differ in width"
        );
        let mut scores = Vec::with_capacity(ie.rows());
        graphaug_par::score_rows_f32(ie.as_slice(), ue.row(user), &mut scores);
        scores
    }

    /// Concatenated user+item embedding matrix, when available (for the
    /// MAD/oversmoothing analyses that operate on all nodes).
    fn all_node_embeddings(&self) -> Option<Mat> {
        let (ue, ie) = self.embeddings()?;
        debug_assert_eq!(ue.cols(), ie.cols());
        let mut out = Mat::zeros(ue.rows() + ie.rows(), ue.cols());
        for r in 0..ue.rows() {
            out.row_mut(r).copy_from_slice(ue.row(r));
        }
        for r in 0..ie.rows() {
            out.row_mut(ue.rows() + r).copy_from_slice(ie.row(r));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        u: Mat,
        i: Mat,
    }

    impl Recommender for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn embeddings(&self) -> Option<(&Mat, &Mat)> {
            Some((&self.u, &self.i))
        }
    }

    #[test]
    fn default_scoring_is_dot_product() {
        let t = Toy {
            u: Mat::from_vec(1, 2, vec![1.0, 2.0]),
            i: Mat::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
        };
        assert_eq!(t.score_items(0), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn node_embeddings_concatenate() {
        let t = Toy {
            u: Mat::filled(2, 3, 1.0),
            i: Mat::filled(4, 3, 2.0),
        };
        let all = t.all_node_embeddings().unwrap();
        assert_eq!(all.shape(), (6, 3));
        assert_eq!(all.get(0, 0), 1.0);
        assert_eq!(all.get(5, 2), 2.0);
    }
}
