//! A compact tensor + reverse-mode autodiff engine for the GraphAug
//! reproduction.
//!
//! The paper's training loop needs exactly one unusual capability beyond a
//! textbook autodiff tape: **differentiable edge-weighted sparse message
//! passing** ([`Graph::spmm_ew`]), so that gradients flow from the
//! recommendation losses back into the Gumbel-sampled edge weights of the
//! augmented views (paper Eq. 4–5). Everything else — dense matmuls,
//! activations, gather/scatter, normalized-row cosine machinery, reductions —
//! is the standard vocabulary of GNN collaborative filtering, implemented
//! over a row-major [`Mat`].
//!
//! # Usage model
//!
//! ```
//! use graphaug_tensor::{Graph, Mat, Optimizer, ParamStore};
//!
//! let mut store = ParamStore::new();
//! let w = store.register(Mat::scalar(4.0));
//! for _ in 0..100 {
//!     let mut g = Graph::new();
//!     let wn = store.node(&mut g, w);
//!     let shifted = g.add_scalar(wn, -1.5);
//!     let sq = g.square(shifted);
//!     let loss = g.sum_all(sq);
//!     g.backward(loss);
//!     store.apply_grads(&g, &[(w, wn)], Optimizer::adam(0.1));
//! }
//! assert!((store.value(w).item() - 1.5).abs() < 1e-2);
//! ```

pub mod init;
pub mod mat;
pub mod ops;
pub mod optim;
mod pool;
pub mod tape;

pub use mat::Mat;
pub use ops::{sigmoid, softplus, Adj, SpPair};
pub use optim::{Optimizer, ParamId, ParamState, ParamStore, ParamStoreState, RestoreError};
pub use tape::{Graph, NodeId};

/// The 8-lane SIMD layer the kernel crates build on (`F32x8`, `dot8`, the
/// `GRAPHAUG_SIMD` dispatch switches). Lives in `graphaug-par` so the sparse
/// kernels can share it; re-exported here as the public surface.
pub use graphaug_par::simd;
pub use graphaug_par::{dot8, set_simd_enabled, simd_available, simd_enabled, F32x8};
