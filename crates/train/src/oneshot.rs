//! One-shot pruning evaluation (paper Table II protocol).
//!
//! For the LLM-scale models the paper cannot retrain, it prunes a trained
//! model in one shot with Wanda \[59\] or SparseGPT \[12\] under each
//! sparsity pattern and evaluates without any fine-tuning. This module
//! runs the same protocol on a dense teacher trained by this crate:
//!
//! 1. train a dense teacher on the dataset,
//! 2. collect calibration activations from a training batch,
//! 3. score weights with the chosen criterion,
//! 4. project the scores onto each pattern's constraint at 50 % sparsity,
//! 5. (SparseGPT only) apply the error-compensating weight update,
//! 6. evaluate the pruned model on the held-out split.

use tbstc_matrix::Matrix;
use tbstc_sparsity::criteria::{activation_norms, wanda_scores, Criterion, SparseGpt};
use tbstc_sparsity::pattern::paper_pattern;
use tbstc_sparsity::PatternKind;

use crate::data::Dataset;
use crate::net::{Mlp, MlpConfig};

/// A dense teacher plus its calibration activations.
#[derive(Debug, Clone)]
pub struct Teacher {
    net: Mlp,
    /// Per-layer calibration inputs (`samples × layer inputs`).
    calibration: Vec<Matrix>,
}

impl Teacher {
    /// Trains a dense teacher on `data` and caches calibration
    /// activations from the first training batch.
    pub fn train(data: &Dataset, epochs: usize, seed: u64) -> Self {
        let mut net = Mlp::new(&MlpConfig::small(data.features(), data.classes), seed);
        for _ in 0..epochs {
            for (x, y) in data.batches(32) {
                net.train_batch(&x, &y);
            }
        }
        let calib_x = data
            .train_x
            .block(0, 0, data.train_len().min(64), data.features());
        let (_, calibration) = net.forward_cached(&calib_x);
        Teacher { net, calibration }
    }

    /// The dense test accuracy (the Table II "Dense" row).
    pub fn dense_accuracy(&self, data: &Dataset) -> f64 {
        self.net.accuracy(&data.test_x, &data.test_y)
    }

    /// Prunes with TBS then applies symmetric int8 weight quantization —
    /// the "Q+S" configuration of Fig. 15(b). Returns the test accuracy.
    pub fn prune_quantize_and_eval(&self, data: &Dataset, sparsity: f64) -> f64 {
        use tbstc_matrix::quant::QuantizedMatrix;
        let projector = paper_pattern(PatternKind::Tbs);
        let mut pruned = self.net.clone();
        for li in 0..pruned.layer_count() - 1 {
            let w = pruned.weights(li).clone();
            let mask = projector.project(&w, sparsity);
            let quantized = QuantizedMatrix::quantize(&mask.apply(&w)).dequantize();
            pruned.set_weights(li, quantized);
            pruned.set_mask(li, Some(mask));
        }
        pruned.accuracy(&data.test_x, &data.test_y)
    }

    /// Prunes with a custom TBS block-size configuration (Fig. 15(a)).
    pub fn prune_and_eval_with_tbs(
        &self,
        data: &Dataset,
        tbs_config: &tbstc_sparsity::TbsConfig,
        criterion: Criterion,
        sparsity: f64,
    ) -> f64 {
        let projector = tbstc_sparsity::pattern::Tbs(tbs_config.clone());
        self.prune_and_eval_with(data, &projector, criterion, sparsity)
    }

    /// Prunes a copy of the teacher with `criterion` × `pattern` at
    /// `sparsity` and returns its test accuracy. Hidden layers are
    /// pruned; the classifier stays dense (matching the retraining
    /// protocol).
    pub fn prune_and_eval(
        &self,
        data: &Dataset,
        pattern: PatternKind,
        criterion: Criterion,
        sparsity: f64,
    ) -> f64 {
        let projector = paper_pattern(pattern);
        self.prune_and_eval_with(data, projector.as_ref(), criterion, sparsity)
    }

    /// Prunes with an explicit pattern projector.
    pub fn prune_and_eval_with(
        &self,
        data: &Dataset,
        projector: &dyn tbstc_sparsity::Pattern,
        criterion: Criterion,
        sparsity: f64,
    ) -> f64 {
        let mut pruned = self.net.clone();
        for li in 0..pruned.layer_count() - 1 {
            let w = pruned.weights(li).clone();
            let x = &self.calibration[li];
            match criterion {
                Criterion::Magnitude => {
                    let mask = projector.project(&w, sparsity);
                    pruned.set_mask(li, Some(mask));
                }
                Criterion::Wanda => {
                    let scores = wanda_scores(&w, &activation_norms(x));
                    let mask = projector.project(&scores, sparsity);
                    pruned.set_mask(li, Some(mask));
                }
                Criterion::SparseGpt => {
                    let gpt = SparseGpt::new(x, 0.01);
                    let mask = projector.project(&gpt.scores(&w), sparsity);
                    let updated = gpt.prune_with_update(&w, &mask);
                    pruned.set_weights(li, updated);
                    pruned.set_mask(li, Some(mask));
                }
            }
        }
        pruned.accuracy(&data.test_x, &data.test_y)
    }
}

/// A synthetic "pre-trained LLM" for the Table II protocol: an MLP whose
/// weights carry the block-local row/column structure of trained large
/// models (paper Fig. 17), evaluated by *agreement with its own dense
/// outputs* on held-out inputs — the analogue of perplexity against the
/// original model.
///
/// The dense model scores 100 % by construction; one-shot pruning
/// degrades agreement in proportion to how much functional weight mass
/// the pattern's mask destroys.
#[derive(Debug, Clone)]
pub struct SyntheticLlm {
    net: Mlp,
    calibration: Vec<Matrix>,
    eval_x: Matrix,
    eval_y: Vec<usize>,
}

impl SyntheticLlm {
    /// Builds the model with block-structured weights and samples its
    /// calibration and evaluation sets.
    pub fn new(features: usize, hidden: usize, classes: usize, eval_n: usize, seed: u64) -> Self {
        Self::with_contrast(features, hidden, classes, eval_n, seed, 2.0, 0.15)
    }

    /// [`SyntheticLlm::new`] with explicit lane-contrast parameters: lower
    /// contrast models weights whose importance is spread more evenly
    /// (smaller US-vs-structured accuracy gaps, as in large pre-trained
    /// models).
    pub fn with_contrast(
        features: usize,
        hidden: usize,
        classes: usize,
        eval_n: usize,
        seed: u64,
        heavy: f32,
        light: f32,
    ) -> Self {
        use tbstc_matrix::rng::MatrixRng;
        let mut rng = MatrixRng::seed_from(seed);
        let mut net = Mlp::new(
            &crate::net::MlpConfig {
                inputs: features,
                hidden: vec![hidden],
                classes,
                lr: 0.0,
                momentum: 0.0,
            },
            seed,
        );
        net.set_weights(
            0,
            rng.block_structured_weights_with(hidden, features, 8, heavy, light, 1.0),
        );
        net.set_weights(
            1,
            rng.block_structured_weights_with(classes, hidden, 8, heavy, light, 1.0),
        );

        let calib_x = rng.gaussian(64, features, 0.0, 1.0);
        let (_, calibration) = net.forward_cached(&calib_x);

        let eval_x = rng.gaussian(eval_n, features, 0.0, 1.0);
        let probs = net.forward(&eval_x);
        let eval_y = (0..eval_n)
            .map(|i| {
                probs
                    .row(i)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            })
            .collect();
        SyntheticLlm {
            net,
            calibration,
            eval_x,
            eval_y,
        }
    }

    /// Agreement of the dense model with itself (1.0 by construction).
    pub fn dense_accuracy(&self) -> f64 {
        self.net.accuracy(&self.eval_x, &self.eval_y)
    }

    /// One-shot prunes every weight layer (including the output head, as
    /// LLM pruning does) and returns agreement with the dense outputs.
    pub fn prune_and_eval(&self, pattern: PatternKind, criterion: Criterion, sparsity: f64) -> f64 {
        let projector = paper_pattern(pattern);
        let mut pruned = self.net.clone();
        for li in 0..pruned.layer_count() {
            let w = pruned.weights(li).clone();
            let x = &self.calibration[li];
            match criterion {
                Criterion::Magnitude => {
                    pruned.set_mask(li, Some(projector.project(&w, sparsity)));
                }
                Criterion::Wanda => {
                    let scores = wanda_scores(&w, &activation_norms(x));
                    pruned.set_mask(li, Some(projector.project(&scores, sparsity)));
                }
                Criterion::SparseGpt => {
                    let gpt = SparseGpt::new(x, 0.01);
                    let mask = projector.project(&gpt.scores(&w), sparsity);
                    let updated = gpt.prune_with_update(&w, &mask);
                    pruned.set_weights(li, updated);
                    pruned.set_mask(li, Some(mask));
                }
            }
        }
        pruned.accuracy(&self.eval_x, &self.eval_y)
    }

    /// One-shot prunes with a custom TBS block-size configuration and
    /// returns agreement with the dense outputs (Fig. 15(a)).
    pub fn prune_and_eval_with_tbs(
        &self,
        tbs_config: &tbstc_sparsity::TbsConfig,
        sparsity: f64,
    ) -> f64 {
        use tbstc_sparsity::Pattern as _;
        let projector = tbstc_sparsity::pattern::Tbs(tbs_config.clone());
        let mut pruned = self.net.clone();
        for li in 0..pruned.layer_count() {
            let w = pruned.weights(li).clone();
            let scores = wanda_scores(&w, &activation_norms(&self.calibration[li]));
            pruned.set_mask(li, Some(projector.project(&scores, sparsity)));
        }
        pruned.accuracy(&self.eval_x, &self.eval_y)
    }

    /// TBS-prunes then int8-quantizes the weights ("Q+S", Fig. 15(b)).
    pub fn prune_quantize_and_eval(&self, sparsity: f64) -> f64 {
        use tbstc_matrix::quant::QuantizedMatrix;
        let projector = paper_pattern(PatternKind::Tbs);
        let mut pruned = self.net.clone();
        for li in 0..pruned.layer_count() {
            let w = pruned.weights(li).clone();
            let scores = wanda_scores(&w, &activation_norms(&self.calibration[li]));
            let mask = projector.project(&scores, sparsity);
            pruned.set_weights(li, QuantizedMatrix::quantize(&mask.apply(&w)).dequantize());
            pruned.set_mask(li, Some(mask));
        }
        pruned.accuracy(&self.eval_x, &self.eval_y)
    }

    /// TBS-prunes (without quantization) with the same Wanda criterion,
    /// the "S" baseline for Fig. 15(b).
    pub fn prune_sparse_only(&self, sparsity: f64) -> f64 {
        self.prune_and_eval(PatternKind::Tbs, Criterion::Wanda, sparsity)
    }

    /// Runs the Table II grid (both criteria, all sparse patterns).
    pub fn one_shot_table(&self, sparsity: f64) -> Vec<OneShotRow> {
        PatternKind::SPARSE
            .iter()
            .map(|&pattern| OneShotRow {
                pattern,
                wanda: self.prune_and_eval(pattern, Criterion::Wanda, sparsity),
                sparsegpt: self.prune_and_eval(pattern, Criterion::SparseGpt, sparsity),
            })
            .collect()
    }
}

/// One row of the Table II grid: a pattern's accuracy under both one-shot
/// criteria.
#[derive(Debug, Clone, PartialEq)]
pub struct OneShotRow {
    /// Pattern evaluated.
    pub pattern: PatternKind,
    /// Accuracy with the Wanda criterion.
    pub wanda: f64,
    /// Accuracy with the SparseGPT criterion.
    pub sparsegpt: f64,
}

/// Runs the full Table II grid at 50 % sparsity on one dataset.
pub fn one_shot_table(data: &Dataset, teacher: &Teacher, sparsity: f64) -> Vec<OneShotRow> {
    PatternKind::SPARSE
        .iter()
        .map(|&pattern| OneShotRow {
            pattern,
            wanda: teacher.prune_and_eval(data, pattern, Criterion::Wanda, sparsity),
            sparsegpt: teacher.prune_and_eval(data, pattern, Criterion::SparseGpt, sparsity),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Dataset, Teacher) {
        let data = Dataset::gaussian_mixture(32, 4, 384, 192, 0.35, 17);
        let teacher = Teacher::train(&data, 15, 3);
        (data, teacher)
    }

    #[test]
    fn teacher_learns() {
        let (data, teacher) = setup();
        assert!(teacher.dense_accuracy(&data) > 0.75);
    }

    #[test]
    fn pruned_accuracy_below_dense_but_above_chance() {
        let (data, teacher) = setup();
        let dense = teacher.dense_accuracy(&data);
        for pattern in [PatternKind::Unstructured, PatternKind::Tbs] {
            let acc = teacher.prune_and_eval(&data, pattern, Criterion::Wanda, 0.5);
            assert!(acc <= dense + 0.05, "{pattern}: {acc} vs dense {dense}");
            assert!(acc > 0.4, "{pattern}: {acc}");
        }
    }

    #[test]
    fn unstructured_at_least_as_good_as_tile() {
        // The core Table II ordering at its endpoints.
        let (data, teacher) = setup();
        let us = teacher.prune_and_eval(&data, PatternKind::Unstructured, Criterion::Wanda, 0.5);
        let ts = teacher.prune_and_eval(&data, PatternKind::TileNm, Criterion::Wanda, 0.5);
        assert!(us >= ts - 0.02, "US {us} vs TS {ts}");
    }

    #[test]
    fn sparsegpt_update_helps_over_plain_masking() {
        // SparseGPT's weight update should not hurt (usually helps).
        let (data, teacher) = setup();
        let plain = teacher.prune_and_eval(&data, PatternKind::Tbs, Criterion::Magnitude, 0.6);
        let gpt = teacher.prune_and_eval(&data, PatternKind::Tbs, Criterion::SparseGpt, 0.6);
        assert!(gpt >= plain - 0.06, "SparseGPT {gpt} vs magnitude {plain}");
    }

    #[test]
    fn table_covers_all_sparse_patterns() {
        let (data, teacher) = setup();
        let rows = one_shot_table(&data, &teacher, 0.5);
        assert_eq!(rows.len(), PatternKind::SPARSE.len());
        assert!(rows.iter().all(|r| r.wanda > 0.0 && r.sparsegpt > 0.0));
    }
}
