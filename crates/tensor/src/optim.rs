//! Parameter storage and the Adam optimizer.
//!
//! Parameters live in a [`ParamStore`] that outlives the per-step tapes.
//! Each training step snapshots parameters onto the tape with
//! [`ParamStore::node`], runs forward/backward, and then applies the
//! collected gradients with [`ParamStore::apply_grads`].

use crate::mat::Mat;
use crate::tape::{Graph, NodeId};

/// Identifier of a stored parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

struct ParamSlot {
    value: Mat,
    /// Adam first moment.
    m: Mat,
    /// Adam second moment.
    v: Mat,
}

/// The update rule of [`ParamStore::apply_grads`]: Adam with the usual bias
/// correction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Optimizer {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay (typically 0.9).
    pub beta1: f32,
    /// Second-moment decay (typically 0.999).
    pub beta2: f32,
    /// Denominator fuzz (typically 1e-8).
    pub eps: f32,
}

impl Optimizer {
    /// Adam with standard hyperparameters at the given learning rate.
    pub fn adam(lr: f32) -> Self {
        Optimizer {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Holds model parameters and their optimizer state across steps.
#[derive(Default)]
pub struct ParamStore {
    slots: Vec<ParamSlot>,
    /// Global step counter (for Adam bias correction).
    t: u64,
}

/// Snapshot of one parameter slot: value plus both Adam moments.
#[derive(Clone, Debug)]
pub struct ParamState {
    /// Parameter value.
    pub value: Mat,
    /// Adam first moment.
    pub m: Mat,
    /// Adam second moment.
    pub v: Mat,
}

/// Full optimizer-state snapshot of a [`ParamStore`] — everything needed to
/// resume training bit-identically: values, Adam moments, and the shared
/// step counter behind the bias correction.
#[derive(Clone, Debug)]
pub struct ParamStoreState {
    /// The shared Adam step counter.
    pub t: u64,
    /// One entry per registered parameter, in registration order.
    pub slots: Vec<ParamState>,
}

/// Why a [`ParamStore::restore`] was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot holds a different number of parameters than the store.
    SlotCount {
        /// Parameters registered in the store.
        expected: usize,
        /// Parameters present in the snapshot.
        got: usize,
    },
    /// A snapshot slot's shape does not match the registered parameter.
    Shape {
        /// Index of the mismatched slot.
        slot: usize,
        /// Registered `(rows, cols)`.
        expected: (usize, usize),
        /// Snapshot `(rows, cols)`.
        got: (usize, usize),
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::SlotCount { expected, got } => {
                write!(f, "snapshot has {got} parameters, store has {expected}")
            }
            RestoreError::Shape {
                slot,
                expected,
                got,
            } => write!(
                f,
                "snapshot slot {slot} has shape {got:?}, store expects {expected:?}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore {
            slots: Vec::new(),
            t: 0,
        }
    }

    /// Registers a parameter, returning its id.
    pub fn register(&mut self, value: Mat) -> ParamId {
        let (r, c) = value.shape();
        self.slots.push(ParamSlot {
            value,
            m: Mat::zeros(r, c),
            v: Mat::zeros(r, c),
        });
        ParamId(self.slots.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Mat {
        &self.slots[id.0].value
    }

    /// Mutable access (e.g. for loading pretrained values in tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Mat {
        &mut self.slots[id.0].value
    }

    /// Snapshots the parameter onto a tape as a leaf node.
    pub fn node(&self, g: &mut Graph, id: ParamId) -> NodeId {
        g.constant(self.slots[id.0].value.clone())
    }

    /// Total number of scalar parameters (for cost reporting).
    pub fn scalar_count(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// Snapshots every parameter value, both Adam moments, and the step
    /// counter — the optimizer half of a training checkpoint.
    pub fn snapshot(&self) -> ParamStoreState {
        ParamStoreState {
            t: self.t,
            slots: self
                .slots
                .iter()
                .map(|s| ParamState {
                    value: s.value.clone(),
                    m: s.m.clone(),
                    v: s.v.clone(),
                })
                .collect(),
        }
    }

    /// Restores a snapshot taken by [`ParamStore::snapshot`]. The snapshot
    /// must cover exactly the registered parameters with matching shapes;
    /// on error the store is left untouched.
    pub fn restore(&mut self, state: &ParamStoreState) -> Result<(), RestoreError> {
        if state.slots.len() != self.slots.len() {
            return Err(RestoreError::SlotCount {
                expected: self.slots.len(),
                got: state.slots.len(),
            });
        }
        for (i, (slot, snap)) in self.slots.iter().zip(&state.slots).enumerate() {
            if slot.value.shape() != snap.value.shape()
                || slot.m.shape() != snap.m.shape()
                || slot.v.shape() != snap.v.shape()
            {
                return Err(RestoreError::Shape {
                    slot: i,
                    expected: slot.value.shape(),
                    got: snap.value.shape(),
                });
            }
        }
        self.t = state.t;
        for (slot, snap) in self.slots.iter_mut().zip(&state.slots) {
            slot.value = snap.value.clone();
            slot.m = snap.m.clone();
            slot.v = snap.v.clone();
        }
        Ok(())
    }

    /// Applies one optimizer step from explicit `(param, gradient)` pairs,
    /// each gradient multiplied by `scale` (the global gradient-clipping
    /// factor — `1.0` for no clipping). Advances the shared step counter
    /// once. Unlike [`ParamStore::apply_grads`] the caller owns the
    /// gradients, which lets a training supervisor inspect them (finiteness,
    /// norms) *before* committing the update.
    pub fn apply_step(&mut self, grads: &[(ParamId, Mat)], opt: Optimizer, scale: f32) {
        self.t += 1;
        for (pid, grad) in grads {
            self.step_one_scaled(*pid, grad, opt, scale);
        }
    }

    /// Applies one optimizer step for the given `(param, tape-node)` pairs,
    /// reading gradients from `graph`. Parameters whose node received no
    /// gradient are left untouched. Advances the shared step counter once.
    pub fn apply_grads(&mut self, graph: &Graph, pairs: &[(ParamId, NodeId)], opt: Optimizer) {
        self.t += 1;
        for &(pid, nid) in pairs {
            let Some(grad) = graph.grad(nid) else {
                continue;
            };
            self.step_one(pid, grad, opt);
        }
    }

    /// Applies one optimizer update to a single parameter from an explicit
    /// gradient matrix.
    pub fn step_one(&mut self, id: ParamId, grad: &Mat, opt: Optimizer) {
        self.step_one_scaled(id, grad, opt, 1.0);
    }

    /// [`ParamStore::step_one`] with the gradient multiplied by `scale`
    /// (global-norm clipping) without materializing a scaled copy.
    fn step_one_scaled(&mut self, id: ParamId, grad: &Mat, opt: Optimizer, scale: f32) {
        let slot = &mut self.slots[id.0];
        assert_eq!(slot.value.shape(), grad.shape(), "gradient shape mismatch");
        let Optimizer {
            lr,
            beta1,
            beta2,
            eps,
        } = opt;
        let t = self.t.max(1) as i32;
        let bc1 = 1.0 - beta1.powi(t);
        let bc2 = 1.0 - beta2.powi(t);
        let val = slot.value.as_mut_slice();
        let m = slot.m.as_mut_slice();
        let v = slot.v.as_mut_slice();
        for i in 0..val.len() {
            let gi = grad.as_slice()[i] * scale;
            m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
            v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            val[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize f(x) = (x - 3)^2 with analytic gradient 2(x-3).
        let mut store = ParamStore::new();
        let p = store.register(Mat::scalar(0.0));
        for _ in 0..600 {
            store.t += 1;
            let x = store.value(p).item();
            let g = Mat::scalar(2.0 * (x - 3.0));
            store.step_one(p, &g, Optimizer::adam(0.05));
        }
        assert!((store.value(p).item() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn apply_grads_skips_untouched_params() {
        let mut store = ParamStore::new();
        let p = store.register(Mat::scalar(2.0));
        let mut g = Graph::new();
        let node = store.node(&mut g, p);
        // No backward ran: node has no gradient.
        store.apply_grads(&g, &[(p, node)], Optimizer::adam(1.0));
        assert_eq!(store.value(p).item(), 2.0);
    }

    #[test]
    fn apply_grads_uses_tape_gradients() {
        let mut store = ParamStore::new();
        let p = store.register(Mat::scalar(2.0));
        let mut g = Graph::new();
        let node = store.node(&mut g, p);
        let sq = g.square(node);
        let loss = g.sum_all(sq);
        g.backward(loss);
        // A large eps makes Adam's first step lr·g/(|g| + eps) depend on the
        // gradient's size, not only its sign.
        let opt = Optimizer {
            eps: 1.0,
            ..Optimizer::adam(0.25)
        };
        store.apply_grads(&g, &[(p, node)], opt);
        // d(x^2)/dx = 4 at x = 2: the update must be exactly the one an
        // explicit gradient of 4 gives (x = 2 − 0.25·4/5 = 1.8), and not the
        // one a gradient of 2 gives.
        let stepped = |grad: f32| {
            let mut twin = ParamStore::new();
            let q = twin.register(Mat::scalar(2.0));
            twin.apply_step(&[(q, Mat::scalar(grad))], opt, 1.0);
            twin.value(q).item()
        };
        assert!((store.value(p).item() - 1.8).abs() < 1e-6);
        assert_eq!(store.value(p).item().to_bits(), stepped(4.0).to_bits());
        assert_ne!(store.value(p).item().to_bits(), stepped(2.0).to_bits());
    }

    #[test]
    fn snapshot_restore_round_trips_values_moments_and_step() {
        let mut store = ParamStore::new();
        let p = store.register(Mat::scalar(0.0));
        for _ in 0..5 {
            store.t += 1;
            let x = store.value(p).item();
            store.step_one(p, &Mat::scalar(2.0 * (x - 3.0)), Optimizer::adam(0.05));
        }
        let snap = store.snapshot();
        assert_eq!(snap.t, 5);
        // Diverge, then restore: continuing from the snapshot must replay
        // the exact trajectory of a store that never diverged.
        let mut twin = ParamStore::new();
        let q = twin.register(Mat::scalar(0.0));
        twin.restore(&snap).unwrap();
        for _ in 0..3 {
            store.t += 1;
            twin.t += 1;
            let gx = Mat::scalar(2.0 * (store.value(p).item() - 3.0));
            let gy = Mat::scalar(2.0 * (twin.value(q).item() - 3.0));
            store.step_one(p, &gx, Optimizer::adam(0.05));
            twin.step_one(q, &gy, Optimizer::adam(0.05));
        }
        assert_eq!(
            store.value(p).item().to_bits(),
            twin.value(q).item().to_bits(),
            "restored store must continue bit-identically"
        );
    }

    #[test]
    fn restore_rejects_mismatched_snapshots() {
        let mut store = ParamStore::new();
        store.register(Mat::filled(2, 3, 1.0));
        let mut other = ParamStore::new();
        other.register(Mat::filled(2, 3, 0.0));
        other.register(Mat::filled(1, 1, 0.0));
        assert_eq!(
            store.restore(&other.snapshot()),
            Err(RestoreError::SlotCount {
                expected: 1,
                got: 2
            })
        );
        let mut wrong_shape = ParamStore::new();
        wrong_shape.register(Mat::filled(3, 2, 0.0));
        assert!(matches!(
            store.restore(&wrong_shape.snapshot()),
            Err(RestoreError::Shape { slot: 0, .. })
        ));
        // The failed restores must not have touched the store.
        assert_eq!(store.value(ParamId(0)).as_slice(), &[1.0; 6]);
    }

    #[test]
    fn apply_step_scales_the_gradient() {
        // With eps = 1 Adam's first step lr·g/(|g| + 1) depends on |g|, so a
        // scale that were ignored would show.
        let opt = Optimizer {
            eps: 1.0,
            ..Optimizer::adam(0.1)
        };
        let stepped = |grad: f32, scale: f32| {
            let mut store = ParamStore::new();
            let p = store.register(Mat::scalar(1.0));
            store.apply_step(&[(p, Mat::scalar(grad))], opt, scale);
            assert_eq!(store.t, 1);
            store.value(p).item()
        };
        let scaled = stepped(4.0, 0.5);
        assert_eq!(scaled.to_bits(), stepped(2.0, 1.0).to_bits());
        assert_ne!(scaled.to_bits(), stepped(4.0, 1.0).to_bits());
    }

    #[test]
    fn scalar_count_sums_every_slot() {
        let mut store = ParamStore::new();
        store.register(Mat::filled(2, 3, 1.0));
        store.register(Mat::filled(1, 4, 2.0));
        assert_eq!(store.scalar_count(), 10);
    }
}
