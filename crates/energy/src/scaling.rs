//! Technology scaling (DeepScaleTool / Stillmaker-Baas style).
//!
//! The paper scales all synthesized components to 7 nm "according to
//! \[53\], \[58\]". This module provides the same service: factors to convert
//! area, power and delay between process nodes, from a table fitted to the
//! published scaling equations for standard-cell logic.

/// A process node supported by the scaling table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// 45 nm planar.
    N45,
    /// 32 nm planar.
    N32,
    /// 22 nm planar/early FinFET.
    N22,
    /// 16 nm FinFET.
    N16,
    /// 10 nm FinFET.
    N10,
    /// 7 nm FinFET (the paper's target).
    N7,
}

impl Node {
    /// All nodes, oldest first.
    pub const ALL: [Node; 6] = [
        Node::N45,
        Node::N32,
        Node::N22,
        Node::N16,
        Node::N10,
        Node::N7,
    ];

    /// Nominal feature size in nm.
    pub fn nm(self) -> f64 {
        match self {
            Node::N45 => 45.0,
            Node::N32 => 32.0,
            Node::N22 => 22.0,
            Node::N16 => 16.0,
            Node::N10 => 10.0,
            Node::N7 => 7.0,
        }
    }

    /// Relative logic density (area per gate) normalized to 45 nm = 1.0.
    ///
    /// Fitted to Stillmaker-Baas: real density gains lag the ideal
    /// `(s1/s2)²` because of FinFET design rules.
    fn area_per_gate(self) -> f64 {
        match self {
            Node::N45 => 1.0,
            Node::N32 => 0.53,
            Node::N22 => 0.27,
            Node::N16 => 0.16,
            Node::N10 => 0.095,
            Node::N7 => 0.06,
        }
    }

    /// Relative energy per operation normalized to 45 nm = 1.0.
    fn energy_per_op(self) -> f64 {
        match self {
            Node::N45 => 1.0,
            Node::N32 => 0.62,
            Node::N22 => 0.41,
            Node::N16 => 0.28,
            Node::N10 => 0.21,
            Node::N7 => 0.16,
        }
    }
}

/// Multiplier converting an area at `from` into the equivalent at `to`.
///
/// # Examples
///
/// ```
/// use tbstc_energy::scaling::{area_factor, Node};
///
/// // Shrinking 45 nm -> 7 nm reduces area by ~16x.
/// let f = area_factor(Node::N45, Node::N7);
/// assert!(f < 0.1);
/// ```
pub fn area_factor(from: Node, to: Node) -> f64 {
    to.area_per_gate() / from.area_per_gate()
}

/// Multiplier converting energy-per-op at `from` into `to`.
pub fn energy_factor(from: Node, to: Node) -> f64 {
    to.energy_per_op() / from.energy_per_op()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_scaling_is_one() {
        for n in Node::ALL {
            assert_eq!(area_factor(n, n), 1.0);
            assert_eq!(energy_factor(n, n), 1.0);
        }
    }

    #[test]
    fn scaling_is_monotone_with_node() {
        for w in Node::ALL.windows(2) {
            assert!(area_factor(w[0], w[1]) < 1.0, "{:?} -> {:?}", w[0], w[1]);
            assert!(energy_factor(w[0], w[1]) < 1.0);
        }
    }

    #[test]
    fn factors_compose() {
        let direct = area_factor(Node::N45, Node::N7);
        let via16 = area_factor(Node::N45, Node::N16) * area_factor(Node::N16, Node::N7);
        assert!((direct - via16).abs() < 1e-12);
    }

    #[test]
    fn scaling_lags_ideal_shrink() {
        // Real area shrink 45->7 is worse than the ideal (45/7)^2 ≈ 41x.
        let real = 1.0 / area_factor(Node::N45, Node::N7);
        let ideal = (45.0f64 / 7.0).powi(2);
        assert!(real < ideal, "real {real} < ideal {ideal}");
        assert!(real > 10.0, "still a large shrink: {real}");
    }

    #[test]
    fn upscaling_inverts_downscaling() {
        let down = energy_factor(Node::N16, Node::N7);
        let up = energy_factor(Node::N7, Node::N16);
        assert!((down * up - 1.0).abs() < 1e-12);
    }
}
