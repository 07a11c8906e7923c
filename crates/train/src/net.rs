//! Multi-layer perceptrons with manual backpropagation.
//!
//! The network is a stack of `Linear → ReLU` layers with a final linear
//! classifier trained by softmax cross-entropy and SGD with momentum.
//! Masks (when sparse training) are applied to the *effective* weights on
//! the forward/backward pass while gradients update the dense weights —
//! the straight-through scheme of the paper's sparse-training flow.

use std::cell::{Ref, RefCell};

use tbstc_matrix::gemm::{self, GemmScratch};
use tbstc_matrix::rng::MatrixRng;
use tbstc_matrix::Matrix;
use tbstc_sparsity::Mask;

/// MLP hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Input feature count.
    pub inputs: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Output class count.
    pub classes: usize,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum coefficient.
    pub momentum: f32,
}

impl MlpConfig {
    /// A small default network for the synthetic tasks.
    pub fn small(inputs: usize, classes: usize) -> Self {
        MlpConfig {
            inputs,
            hidden: vec![128, 64],
            classes,
            lr: 0.05,
            momentum: 0.9,
        }
    }
}

/// The cached masked weights behind [`Linear`]'s dirty flag.
#[derive(Debug, Clone)]
struct EffCache {
    w: Matrix,
    dirty: bool,
}

/// One linear layer with its optimizer state and optional mask.
#[derive(Debug, Clone)]
struct Linear {
    /// Dense weights, `out × in`.
    w: Matrix,
    /// Bias, length `out`.
    b: Vec<f32>,
    /// Momentum buffer for `w`.
    vw: Matrix,
    /// Momentum buffer for `b`.
    vb: Vec<f32>,
    /// Active mask (None = dense).
    mask: Option<Mask>,
    /// Masked effective weights, recomputed in place only when `w` or
    /// `mask` changed since the last use (`backward_update`, `set_mask`
    /// and `set_weights` set the dirty flag). `RefCell` keeps `forward`
    /// usable through `&self`.
    eff: RefCell<EffCache>,
    /// Reused per-column gradient accumulator for the bias update.
    db: Vec<f32>,
}

impl Linear {
    fn new(inputs: usize, outputs: usize, rng: &mut MatrixRng) -> Self {
        Linear {
            w: rng.weights(outputs, inputs),
            b: vec![0.0; outputs],
            vw: Matrix::zeros(outputs, inputs),
            vb: vec![0.0; outputs],
            mask: None,
            eff: RefCell::new(EffCache {
                w: Matrix::zeros(0, 0),
                dirty: true,
            }),
            db: vec![0.0; outputs],
        }
    }

    /// The weights the forward pass actually uses: masked on a cache miss,
    /// straight from the cache afterwards.
    fn effective(&self) -> Ref<'_, Matrix> {
        {
            let mut cache = self.eff.borrow_mut();
            if cache.dirty {
                let EffCache { w, dirty } = &mut *cache;
                match &self.mask {
                    Some(m) => m.apply_into(&self.w, w),
                    None => w.copy_from(&self.w),
                }
                *dirty = false;
            }
        }
        Ref::map(self.eff.borrow(), |c| &c.w)
    }

    /// Marks the cached effective weights stale. Every mutation of `w` or
    /// `mask` must come through here.
    fn invalidate(&mut self) {
        self.eff.get_mut().dirty = true;
    }

    /// Owned copy of the effective weights (test/inspection helper).
    #[cfg(test)]
    fn effective_w(&self) -> Matrix {
        self.effective().clone()
    }

    /// `X (out×in W)ᵀ + b` for a row-major batch `X` (`n × in`).
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = Matrix::zeros(0, 0);
        let mut scratch = GemmScratch::new();
        self.forward_into(x, &mut h, &mut scratch);
        h
    }

    /// [`Linear::forward`] into a caller-owned buffer: on a cache hit with
    /// stable shapes this performs no heap allocation.
    fn forward_into(&self, x: &Matrix, out: &mut Matrix, scratch: &mut GemmScratch) {
        let eff = self.effective();
        gemm::matmul_transb_into(x, &eff, out, scratch);
        for r in 0..out.rows() {
            for (v, &bias) in out.row_mut(r).iter_mut().zip(&self.b) {
                *v += bias;
            }
        }
    }

    /// Backward: given `dH` (`n × out`) and the input `x`, writes `dX`
    /// into `dx` and applies the SGD-momentum update to the dense weights.
    ///
    /// `dw` and `scratch` are caller-owned workspaces (the raw `dHᵀ·X`
    /// gradient and the GEMM packing buffer); nothing here allocates once
    /// their capacities have grown to the layer's shape.
    #[allow(
        clippy::too_many_arguments,
        reason = "the layer state plus its two caller-owned workspaces"
    )]
    fn backward_update(
        &mut self,
        x: &Matrix,
        dh: &Matrix,
        lr: f32,
        momentum: f32,
        dw: &mut Matrix,
        dx: &mut Matrix,
        scratch: &mut GemmScratch,
    ) {
        let n = x.rows().max(1) as f32;
        // dW = dHᵀ X / n ; dB = mean(dH) ; dX = dH W_eff.
        gemm::matmul_at_b_into(dh, x, dw, scratch);
        {
            // dH in multiplier position: ReLU-gated gradients are mostly
            // exact zeros, which the kernel skips.
            let eff = self.effective();
            gemm::matmul_into(dh, &eff, dx);
        }
        self.db.clear();
        self.db.resize(self.b.len(), 0.0);
        for r in 0..dh.rows() {
            for (acc, &g) in self.db.iter_mut().zip(dh.row(r)) {
                *acc += g;
            }
        }
        for ((vb, b), &db) in self.vb.iter_mut().zip(self.b.iter_mut()).zip(&self.db) {
            *vb = momentum * *vb - lr * (db / n);
            *b += *vb;
        }
        for r in 0..self.w.rows() {
            let dw_row = dw.row(r);
            let vw_row = self.vw.row_mut(r);
            let w_row = self.w.row_mut(r);
            for ((vw, w), &g) in vw_row.iter_mut().zip(w_row).zip(dw_row) {
                *vw = momentum * *vw - lr * (g / n);
                *w += *vw;
            }
        }
        self.invalidate();
    }
}

/// Reusable buffers for [`Mlp::train_batch`] and [`Mlp::forward_into`]:
/// activations, gradients and GEMM workspaces grow to the batch shape once
/// and are rewritten in place afterwards.
#[derive(Debug, Clone)]
struct TrainScratch {
    gemm: GemmScratch,
    dw: Matrix,
    grad: Matrix,
    dx: Matrix,
    acts: Vec<Matrix>,
    probs: Matrix,
}

impl Default for TrainScratch {
    fn default() -> Self {
        TrainScratch {
            gemm: GemmScratch::new(),
            dw: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
            dx: Matrix::zeros(0, 0),
            acts: Vec::new(),
            probs: Matrix::zeros(0, 0),
        }
    }
}

/// Runs the layer stack over `x`, storing each layer's input in `acts`
/// (post-ReLU activations, `acts[0]` = `x`) and the final logits in
/// `probs` — all into reused buffers.
fn forward_through(
    layers: &[Linear],
    x: &Matrix,
    acts: &mut Vec<Matrix>,
    probs: &mut Matrix,
    scratch: &mut GemmScratch,
) {
    let nl = layers.len();
    if acts.len() != nl {
        acts.resize(nl, Matrix::zeros(0, 0));
    }
    acts[0].copy_from(x);
    for i in 0..nl {
        if i + 1 < nl {
            let (head, tail) = acts.split_at_mut(i + 1);
            layers[i].forward_into(&head[i], &mut tail[0], scratch);
            tail[0].map_inplace(|v| v.max(0.0)); // ReLU
        } else {
            layers[i].forward_into(&acts[i], probs, scratch);
        }
    }
}

/// A multi-layer perceptron classifier.
///
/// # Examples
///
/// ```
/// use tbstc_train::{Mlp, MlpConfig};
/// use tbstc_matrix::Matrix;
///
/// let mut net = Mlp::new(&MlpConfig::small(8, 3), 0);
/// let x = Matrix::zeros(4, 8);
/// let probs = net.forward(&x);
/// assert_eq!(probs.shape(), (4, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    lr: f32,
    momentum: f32,
    scratch: TrainScratch,
}

impl Mlp {
    /// Creates a randomly initialized network.
    pub fn new(cfg: &MlpConfig, seed: u64) -> Self {
        let mut rng = MatrixRng::seed_from(seed);
        let mut dims = vec![cfg.inputs];
        dims.extend(&cfg.hidden);
        dims.push(cfg.classes);
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], &mut rng))
            .collect();
        Mlp {
            layers,
            lr: cfg.lr,
            momentum: cfg.momentum,
            scratch: TrainScratch::default(),
        }
    }

    /// Number of weight layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Borrows layer `i`'s dense weights.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn weights(&self, i: usize) -> &Matrix {
        &self.layers[i].w
    }

    /// Replaces layer `i`'s dense weights (used by one-shot pruners that
    /// apply weight updates).
    ///
    /// # Panics
    ///
    /// Panics when shapes mismatch or `i` is out of range.
    pub fn set_weights(&mut self, i: usize, w: Matrix) {
        assert_eq!(self.layers[i].w.shape(), w.shape(), "weight shape mismatch");
        self.layers[i].w = w;
        self.layers[i].invalidate();
    }

    /// Borrows layer `i`'s active mask, if any.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn mask(&self, i: usize) -> Option<&Mask> {
        self.layers[i].mask.as_ref()
    }

    /// Sets (or clears) layer `i`'s mask.
    ///
    /// # Panics
    ///
    /// Panics when the mask shape mismatches or `i` is out of range.
    pub fn set_mask(&mut self, i: usize, mask: Option<Mask>) {
        if let Some(m) = &mask {
            assert_eq!(self.layers[i].w.shape(), m.shape(), "mask shape mismatch");
        }
        self.layers[i].mask = mask;
        self.layers[i].invalidate();
    }

    /// Forward pass returning class probabilities (`n × classes`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let (probs, _) = self.forward_cached(x);
        probs
    }

    /// Forward pass into a caller-owned buffer.
    ///
    /// After a warm-up call with the same batch shape (and with the masked
    /// effective weights cached), this path performs **no heap
    /// allocation**: activations live in the network's scratch buffers and
    /// `out` is rewritten in place.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix) {
        let Mlp {
            layers, scratch, ..
        } = self;
        forward_through(layers, x, &mut scratch.acts, out, &mut scratch.gemm);
        softmax_rows_inplace(out);
    }

    /// Forward pass that also returns the per-layer inputs (activations
    /// before each linear layer) for backprop and for Wanda calibration.
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, Vec<Matrix>) {
        let mut acts = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            acts.push(h.clone());
            h = layer.forward(&h);
            if i + 1 < self.layers.len() {
                h.map_inplace(|v| v.max(0.0)); // ReLU
            }
        }
        (softmax_rows(&h), acts)
    }

    /// One SGD step on a batch; returns the mean cross-entropy loss.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len() != x.rows()` or a label is out of range.
    pub fn train_batch(&mut self, x: &Matrix, labels: &[usize]) -> f64 {
        assert_eq!(labels.len(), x.rows(), "one label per sample");
        let Mlp {
            layers,
            lr,
            momentum,
            scratch,
        } = self;
        let TrainScratch {
            gemm: gemm_scratch,
            dw,
            grad,
            dx,
            acts,
            probs,
        } = scratch;

        forward_through(layers, x, acts, probs, gemm_scratch);
        softmax_rows_inplace(probs);
        let classes = probs.cols();
        assert!(labels.iter().all(|&y| y < classes), "label out of range");

        let n = x.rows();
        let mut loss = 0.0f64;
        // dLogits = probs - onehot.
        grad.copy_from(probs);
        for (i, &y) in labels.iter().enumerate() {
            loss -= f64::from(probs[(i, y)].max(1e-12).ln());
            grad[(i, y)] -= 1.0;
        }
        loss /= n as f64;

        // Backprop through the stack; ReLU derivative gates hidden grads.
        // `grad` and `dx` ping-pong so each step reads the previous layer's
        // gradient while writing the next one — no per-layer allocation.
        for li in (0..layers.len()).rev() {
            layers[li].backward_update(&acts[li], grad, *lr, *momentum, dw, dx, gemm_scratch);
            if li > 0 {
                // Gate by the ReLU that produced acts[li].
                let act = &acts[li];
                for r in 0..dx.rows() {
                    for (v, &a) in dx.row_mut(r).iter_mut().zip(act.row(r)) {
                        if a <= 0.0 {
                            *v = 0.0;
                        }
                    }
                }
            }
            std::mem::swap(grad, dx);
        }
        loss
    }

    /// Classification accuracy on a labelled set.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len() != x.rows()`.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f64 {
        assert_eq!(labels.len(), x.rows(), "one label per sample");
        if labels.is_empty() {
            return 1.0;
        }
        let probs = self.forward(x);
        let correct = labels
            .iter()
            .enumerate()
            .filter(|&(i, &y)| {
                let row = probs.row(i);
                let best = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(c, _)| c)
                    .unwrap_or(0);
                best == y
            })
            .count();
        correct as f64 / labels.len() as f64
    }
}

/// Row-wise softmax with max-subtraction for stability.
fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// [`softmax_rows`] in place — the allocation-free path `train_batch` and
/// `forward_into` use on their scratch buffers.
fn softmax_rows_inplace(out: &mut Matrix) {
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum.max(1e-12);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]).unwrap();
        let p = softmax_rows(&l);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(p[(0, 2)] > p[(0, 0)]);
    }

    #[test]
    fn forward_shapes() {
        let net = Mlp::new(&MlpConfig::small(10, 4), 0);
        let x = Matrix::zeros(3, 10);
        assert_eq!(net.forward(&x).shape(), (3, 4));
        assert_eq!(net.layer_count(), 3);
    }

    #[test]
    fn training_reduces_loss() {
        let d = Dataset::gaussian_mixture(16, 3, 128, 64, 0.3, 5);
        let mut net = Mlp::new(&MlpConfig::small(16, 3), 1);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..10 {
            for (x, y) in d.batches(32) {
                last = net.train_batch(&x, &y);
                first.get_or_insert(last);
            }
        }
        assert!(last < first.unwrap() * 0.5, "{last} vs {first:?}");
    }

    #[test]
    fn trained_net_beats_chance() {
        let d = Dataset::gaussian_mixture(16, 4, 256, 128, 0.3, 6);
        let mut net = Mlp::new(&MlpConfig::small(16, 4), 2);
        for _ in 0..20 {
            for (x, y) in d.batches(32) {
                net.train_batch(&x, &y);
            }
        }
        let acc = net.accuracy(&d.test_x, &d.test_y);
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn mask_zeroes_effective_weights() {
        let mut net = Mlp::new(&MlpConfig::small(8, 2), 3);
        let shape = net.weights(0).shape();
        net.set_mask(0, Some(Mask::none(shape.0, shape.1)));
        let x = Matrix::filled(2, 8, 1.0);
        let p = net.forward(&x);
        // First layer output is all bias -> ReLU -> same for every sample;
        // probabilities become uniform across samples.
        assert!((p[(0, 0)] - p[(1, 0)]).abs() < 1e-6);
    }

    #[test]
    fn masked_training_keeps_mask_effective() {
        let d = Dataset::gaussian_mixture(16, 2, 64, 32, 0.4, 7);
        let mut net = Mlp::new(&MlpConfig::small(16, 2), 4);
        let shape = net.weights(0).shape();
        let mask = Mask::from_fn(shape.0, shape.1, |r, c| (r + c) % 2 == 0);
        net.set_mask(0, Some(mask.clone()));
        for (x, y) in d.batches(16) {
            net.train_batch(&x, &y);
        }
        // The mask still gates the forward pass after updates.
        let eff = net.layers[0].effective_w();
        for (r, c) in (0..shape.0).flat_map(|r| (0..shape.1).map(move |c| (r, c))) {
            if !mask.get(r, c) {
                assert_eq!(eff[(r, c)], 0.0);
            }
        }
    }

    #[test]
    fn forward_into_matches_forward() {
        let d = Dataset::gaussian_mixture(12, 3, 64, 32, 0.3, 9);
        let mut net = Mlp::new(&MlpConfig::small(12, 3), 8);
        for (x, y) in d.batches(16) {
            net.train_batch(&x, &y);
        }
        let x = d.test_x.block(0, 0, 8, 12);
        let reference = net.forward(&x);
        let mut out = Matrix::zeros(0, 0);
        net.forward_into(&x, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    fn forward_steady_state_reuses_buffers() {
        // Scratch-reuse check: after warm-up, neither the output buffer
        // nor the cached effective weights move in memory.
        let mut net = Mlp::new(&MlpConfig::small(16, 4), 9);
        let shape = net.weights(0).shape();
        net.set_mask(
            0,
            Some(Mask::from_fn(shape.0, shape.1, |r, c| (r + c) % 2 == 0)),
        );
        let x = Matrix::filled(8, 16, 0.5);
        let mut out = Matrix::zeros(0, 0);
        net.forward_into(&x, &mut out); // warm-up: buffers grow, cache fills
        let out_ptr = out.as_slice().as_ptr();
        let eff_ptr = net.layers[0].effective().as_slice().as_ptr();
        net.forward_into(&x, &mut out);
        assert_eq!(out.as_slice().as_ptr(), out_ptr, "output buffer moved");
        assert_eq!(
            net.layers[0].effective().as_slice().as_ptr(),
            eff_ptr,
            "effective-weight cache recomputed into a new allocation"
        );
    }

    #[test]
    fn effective_cache_invalidated_by_mutations() {
        let mut net = Mlp::new(&MlpConfig::small(8, 2), 10);
        let shape = net.weights(0).shape();
        let dense_eff = net.layers[0].effective_w();
        assert_eq!(dense_eff, *net.weights(0));

        // set_mask must invalidate.
        net.set_mask(0, Some(Mask::none(shape.0, shape.1)));
        assert_eq!(net.layers[0].effective_w(), Matrix::zeros(shape.0, shape.1));

        // set_weights must invalidate.
        net.set_mask(0, None);
        net.set_weights(0, Matrix::filled(shape.0, shape.1, 2.0));
        assert_eq!(
            net.layers[0].effective_w(),
            Matrix::filled(shape.0, shape.1, 2.0)
        );

        // backward_update must invalidate: train once, cache must track w.
        let d = Dataset::gaussian_mixture(8, 2, 32, 16, 0.4, 11);
        let mut net = Mlp::new(&MlpConfig::small(8, 2), 12);
        for (x, y) in d.batches(8) {
            net.train_batch(&x, &y);
        }
        assert_eq!(net.layers[0].effective_w(), *net.weights(0));
    }

    #[test]
    #[should_panic(expected = "one label per sample")]
    fn label_count_checked() {
        let mut net = Mlp::new(&MlpConfig::small(4, 2), 5);
        let x = Matrix::zeros(2, 4);
        let _ = net.train_batch(&x, &[0]);
    }

    #[test]
    fn forward_cached_exposes_activations() {
        let net = Mlp::new(&MlpConfig::small(8, 2), 6);
        let x = Matrix::filled(3, 8, 0.5);
        let (_, acts) = net.forward_cached(&x);
        assert_eq!(acts.len(), net.layer_count());
        assert_eq!(acts[0].shape(), (3, 8));
    }
}
