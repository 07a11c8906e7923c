//! Cross-cutting experiment helpers: accuracy-vs-sparsity curves,
//! iso-accuracy sparsity selection (the Fig. 13 protocol) and Pareto
//! frontiers (Fig. 1).

use tbstc_runner::{parallel_map, Runner};
use tbstc_sparsity::PatternKind;
use tbstc_train::sparse::{SparseTrainer, TrainConfig};
use tbstc_train::Dataset;

use crate::error::Error;

/// An accuracy-vs-sparsity curve for one pattern on one task.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyCurve {
    /// The pattern measured.
    pub pattern: PatternKind,
    /// `(sparsity, accuracy)` points, sorted by sparsity ascending.
    pub points: Vec<(f64, f64)>,
}

impl AccuracyCurve {
    /// Measures the curve by sparse-training at each sparsity in
    /// `sparsities` (each run uses the same seed and epoch budget, the
    /// Table I protocol). `base` supplies the network shape, epochs and
    /// seed; its pattern and sparsity fields are overridden per point.
    ///
    /// Training points run on the default parallel [`Runner`]; use
    /// [`AccuracyCurve::measure_with`] to control scheduling.
    pub fn measure(
        data: &Dataset,
        pattern: PatternKind,
        sparsities: &[f64],
        base: &TrainConfig,
    ) -> Self {
        Self::measure_with(&Runner::new(), data, pattern, sparsities, base)
    }

    /// [`AccuracyCurve::measure`] on an explicit runner. Each point owns
    /// its full training config (same seed, different sparsity), so the
    /// curve is bit-identical for any worker count.
    pub fn measure_with(
        runner: &Runner,
        data: &Dataset,
        pattern: PatternKind,
        sparsities: &[f64],
        base: &TrainConfig,
    ) -> Self {
        let mut points: Vec<(f64, f64)> = parallel_map(sparsities, runner.workers(), |_, &s| {
            let mut cfg = base.clone();
            cfg.pattern = pattern;
            cfg.sparsity = s;
            let rec = SparseTrainer::new(cfg).train(data);
            (s, rec.test_accuracy)
        })
        .into_iter()
        .map(|(point, _)| point)
        .collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        AccuracyCurve { pattern, points }
    }

    /// Accuracy at `sparsity` by linear interpolation (clamped to the
    /// measured range).
    ///
    /// # Errors
    ///
    /// [`Error::EmptyCurve`] when the curve has no points.
    pub fn accuracy_at(&self, sparsity: f64) -> Result<f64, Error> {
        if self.points.is_empty() {
            return Err(Error::EmptyCurve);
        }
        Ok(self.interp(sparsity))
    }

    /// Interpolation body shared by the accessors (curve known non-empty).
    fn interp(&self, sparsity: f64) -> f64 {
        let pts = &self.points;
        if sparsity <= pts[0].0 {
            return pts[0].1;
        }
        if sparsity >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            if sparsity >= w[0].0 && sparsity <= w[1].0 {
                let t = (sparsity - w[0].0) / (w[1].0 - w[0].0).max(1e-12);
                return w[0].1 + t * (w[1].1 - w[0].1);
            }
        }
        pts[pts.len() - 1].1
    }

    /// The highest sparsity whose (interpolated) accuracy still meets
    /// `target` — the iso-accuracy operating point of the Fig. 13
    /// protocol ("the end-to-end evaluation keeps the same accuracy for
    /// all works"). Returns 0.0 when even dense misses the target.
    ///
    /// Walks the measured segments from the sparsest end and bisects the
    /// first segment that straddles `target`, so the answer sits on the
    /// interpolated curve itself (the previous fixed-step scan both
    /// over-shot between grid points and drifted below 0 when no point
    /// qualified).
    ///
    /// # Errors
    ///
    /// [`Error::EmptyCurve`] when the curve has no points.
    pub fn max_sparsity_at_accuracy(&self, target: f64) -> Result<f64, Error> {
        if self.points.is_empty() {
            return Err(Error::EmptyCurve);
        }
        let pts = &self.points;
        if pts[pts.len() - 1].1 >= target {
            return Ok(pts[pts.len() - 1].0);
        }
        // Curves are noisy, not monotone: scan segments right-to-left for
        // the first one whose left end still meets the target (its right
        // end cannot — everything further right already failed).
        for w in pts.windows(2).rev() {
            let (left, right) = (w[0], w[1]);
            if left.1 < target {
                continue;
            }
            // Bisect [left.0, right.0]: `lo` always meets the target,
            // `hi` never does. Converges to f64 resolution.
            let (mut lo, mut hi) = (left.0, right.0);
            for _ in 0..64 {
                let mid = 0.5 * (lo + hi);
                if self.interp(mid) >= target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            return Ok(lo);
        }
        Ok(0.0)
    }
}

/// A point on the accuracy–EDP plane (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Label of the architecture/configuration.
    pub arch: tbstc_sim::Arch,
    /// Normalized EDP (lower is better).
    pub edp: f64,
    /// Model accuracy (higher is better).
    pub accuracy: f64,
}

/// Marks which points lie on the Pareto frontier (no other point has both
/// lower EDP and higher-or-equal accuracy).
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<bool> {
    points
        .iter()
        .map(|p| {
            !points.iter().any(|q| {
                (q.edp < p.edp && q.accuracy >= p.accuracy)
                    || (q.edp <= p.edp && q.accuracy > p.accuracy)
            })
        })
        .collect()
}

/// Geometric mean of a slice of positive ratios (the paper averages
/// speedups/EDP gains across workloads).
///
/// Returns 1.0 for an empty slice.
///
/// # Errors
///
/// [`Error::NonPositive`] when any value is not strictly positive (the
/// geometric mean of ratios is undefined there).
pub fn geomean(values: &[f64]) -> Result<f64, Error> {
    if values.is_empty() {
        return Ok(1.0);
    }
    if let Some(&value) = values.iter().find(|&&v| v.is_nan() || v <= 0.0) {
        return Err(Error::NonPositive { value });
    }
    Ok((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc_sim::Arch;

    fn curve(points: Vec<(f64, f64)>) -> AccuracyCurve {
        AccuracyCurve {
            pattern: PatternKind::Tbs,
            points,
        }
    }

    #[test]
    fn interpolation_between_points() {
        let c = curve(vec![(0.0, 0.9), (0.5, 0.8), (1.0, 0.2)]);
        assert!((c.accuracy_at(0.25).unwrap() - 0.85).abs() < 1e-12);
        assert_eq!(c.accuracy_at(-1.0).unwrap(), 0.9);
        assert_eq!(c.accuracy_at(2.0).unwrap(), 0.2);
    }

    #[test]
    fn empty_curve_reports_error() {
        let c = curve(vec![]);
        assert_eq!(c.accuracy_at(0.5), Err(Error::EmptyCurve));
        assert_eq!(c.max_sparsity_at_accuracy(0.9), Err(Error::EmptyCurve));
    }

    #[test]
    fn iso_accuracy_selection() {
        let c = curve(vec![(0.0, 0.9), (0.5, 0.85), (0.75, 0.7), (0.9, 0.5)]);
        let s = c.max_sparsity_at_accuracy(0.8).unwrap();
        assert!((0.5..0.75).contains(&s), "{s}");
        // Unreachable accuracy -> sparsity 0.
        assert_eq!(c.max_sparsity_at_accuracy(0.99).unwrap(), 0.0);
    }

    #[test]
    fn iso_accuracy_lands_on_the_interpolated_crossing() {
        // Segment (0.5, 0.85) -> (0.75, 0.7) crosses 0.8 exactly at
        // s = 0.5 + (0.85 - 0.8) / (0.85 - 0.7) * 0.25 = 0.58333…
        let c = curve(vec![(0.0, 0.9), (0.5, 0.85), (0.75, 0.7)]);
        let s = c.max_sparsity_at_accuracy(0.8).unwrap();
        assert!((s - (0.5 + 0.05 / 0.15 * 0.25)).abs() < 1e-9, "{s}");
        assert!((c.accuracy_at(s).unwrap() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn iso_accuracy_saturates_at_the_sparsest_point() {
        // The sparsest measured point still meets the target: answer is
        // that point, never beyond the measured range.
        let c = curve(vec![(0.0, 0.9), (0.5, 0.85)]);
        assert_eq!(c.max_sparsity_at_accuracy(0.8).unwrap(), 0.5);
    }

    #[test]
    fn iso_accuracy_handles_non_monotone_curves() {
        // Accuracy dips then recovers (noisy retraining): the sparsest
        // qualifying segment wins.
        let c = curve(vec![(0.0, 0.9), (0.3, 0.7), (0.6, 0.85), (0.9, 0.4)]);
        let s = c.max_sparsity_at_accuracy(0.8).unwrap();
        assert!(s > 0.6, "{s}");
        assert!((c.accuracy_at(s).unwrap() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn pareto_marks_dominated_points() {
        let pts = vec![
            ParetoPoint {
                arch: Arch::TbStc,
                edp: 1.0,
                accuracy: 0.9,
            },
            ParetoPoint {
                arch: Arch::Stc,
                edp: 2.0,
                accuracy: 0.85,
            }, // dominated
            ParetoPoint {
                arch: Arch::RmStc,
                edp: 0.5,
                accuracy: 0.8,
            },
            ParetoPoint {
                arch: Arch::Tc,
                edp: 3.0,
                accuracy: 0.95,
            },
        ];
        let front = pareto_frontier(&pts);
        assert_eq!(front, vec![true, false, true, true]);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), Ok(1.0));
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_nonpositive() {
        assert_eq!(geomean(&[1.0, 0.0]), Err(Error::NonPositive { value: 0.0 }));
        assert_eq!(geomean(&[-2.0]), Err(Error::NonPositive { value: -2.0 }));
        assert!(geomean(&[1.0, f64::NAN]).is_err());
    }
}
