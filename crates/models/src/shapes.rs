//! Layer-shape tables for the evaluated models.

/// Which model a workload describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// ResNet-50 (CNN, ImageNet-class).
    ResNet50,
    /// ResNet-18 (CNN).
    ResNet18,
    /// BERT-base encoder.
    BertBase,
    /// OPT-6.7B decoder.
    Opt6_7b,
    /// Llama2-7B decoder.
    Llama2_7b,
    /// A single GCN aggregation layer (Fig. 15(d) baseline workload).
    Gcn,
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ModelKind::ResNet50 => "ResNet-50",
            ModelKind::ResNet18 => "ResNet-18",
            ModelKind::BertBase => "BERT-base",
            ModelKind::Opt6_7b => "OPT-6.7B",
            ModelKind::Llama2_7b => "Llama2-7B",
            ModelKind::Gcn => "GCN",
        };
        f.write_str(name)
    }
}

/// One GEMM-shaped layer: weights are `M × K`, activations `K × N`.
///
/// `M` is the independent dimension of the weight operand, `K` the
/// reduction dimension (paper Fig. 3 terminology), `N` the batch/spatial
/// token count. `repeats` collapses identical layers (e.g. the 12 BERT
/// encoder layers).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerShape {
    /// Layer name, e.g. `"conv2_x 3x3"` or `"ffn.fc1"`.
    pub name: String,
    /// Output-channel / row dimension of the weight.
    pub m: usize,
    /// Reduction dimension of the weight.
    pub k: usize,
    /// Activation columns (tokens or output pixels).
    pub n: usize,
    /// How many identical layers the model contains.
    pub repeats: usize,
    /// Whether this layer is pruned (the paper keeps the CNN stem and the
    /// final classifier dense).
    pub prunable: bool,
}

impl LayerShape {
    fn new(name: &str, m: usize, k: usize, n: usize, repeats: usize, prunable: bool) -> Self {
        LayerShape {
            name: name.to_string(),
            m,
            k,
            n,
            repeats,
            prunable,
        }
    }

    /// MACs of one instance of this layer.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }

    /// Weight-element count of one instance.
    pub fn weight_elems(&self) -> u64 {
        self.m as u64 * self.k as u64
    }
}

/// A whole model: ordered layers with repeat counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// Which model this is.
    pub kind: ModelKind,
    /// The layers in execution order.
    pub layers: Vec<LayerShape>,
}

impl Model {
    /// Total MACs over all layers and repeats.
    pub fn total_macs(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.macs() * l.repeats as u64)
            .sum()
    }

    /// Total weight elements over all layers and repeats.
    pub fn total_weights(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.weight_elems() * l.repeats as u64)
            .sum()
    }
}

/// ResNet-50 lowered to GEMMs at `input` × `input` resolution (224 for
/// ImageNet, 32 for CIFAR).
///
/// Distinct bottleneck shapes are listed once with their repeat counts;
/// spatial sizes follow the standard stage striding.
pub fn resnet50(input: usize) -> Model {
    let s = input / 4; // resolution after stem (conv7x7/2 + pool/2)
    let sq = |x: usize| x * x;
    let layers = vec![
        LayerShape::new("stem conv7x7", 64, 3 * 49, sq(input / 2), 1, false),
        // conv2_x: 3 bottlenecks at s×s.
        LayerShape::new("conv2 1x1a", 64, 64, sq(s), 1, true),
        LayerShape::new("conv2 1x1a'", 64, 256, sq(s), 2, true),
        LayerShape::new("conv2 3x3", 64, 64 * 9, sq(s), 3, true),
        LayerShape::new("conv2 1x1b", 256, 64, sq(s), 3, true),
        LayerShape::new("conv2 proj", 256, 64, sq(s), 1, true),
        // conv3_x: 4 bottlenecks at s/2.
        LayerShape::new("conv3 1x1a", 128, 256, sq(s / 2), 1, true),
        LayerShape::new("conv3 1x1a'", 128, 512, sq(s / 2), 3, true),
        LayerShape::new("conv3 3x3", 128, 128 * 9, sq(s / 2), 4, true),
        LayerShape::new("conv3 1x1b", 512, 128, sq(s / 2), 4, true),
        LayerShape::new("conv3 proj", 512, 256, sq(s / 2), 1, true),
        // conv4_x: 6 bottlenecks at s/4.
        LayerShape::new("conv4 1x1a", 256, 512, sq(s / 4), 1, true),
        LayerShape::new("conv4 1x1a'", 256, 1024, sq(s / 4), 5, true),
        LayerShape::new("conv4 3x3", 256, 256 * 9, sq(s / 4), 6, true),
        LayerShape::new("conv4 1x1b", 1024, 256, sq(s / 4), 6, true),
        LayerShape::new("conv4 proj", 1024, 512, sq(s / 4), 1, true),
        // conv5_x: 3 bottlenecks at s/8.
        LayerShape::new("conv5 1x1a", 512, 1024, sq(s / 8), 1, true),
        LayerShape::new("conv5 1x1a'", 512, 2048, sq(s / 8), 2, true),
        LayerShape::new("conv5 3x3", 512, 512 * 9, sq(s / 8), 3, true),
        LayerShape::new("conv5 1x1b", 2048, 512, sq(s / 8), 3, true),
        LayerShape::new("conv5 proj", 2048, 1024, sq(s / 8), 1, true),
        LayerShape::new("fc", 1000, 2048, 1, 1, false),
    ];
    Model {
        kind: ModelKind::ResNet50,
        layers,
    }
}

/// ResNet-18 lowered to GEMMs at `input` × `input` resolution.
pub fn resnet18(input: usize) -> Model {
    let s = input / 4;
    let sq = |x: usize| x * x;
    let layers = vec![
        LayerShape::new("stem conv7x7", 64, 3 * 49, sq(input / 2), 1, false),
        LayerShape::new("conv2 3x3", 64, 64 * 9, sq(s), 4, true),
        LayerShape::new("conv3 3x3a", 128, 64 * 9, sq(s / 2), 1, true),
        LayerShape::new("conv3 3x3", 128, 128 * 9, sq(s / 2), 3, true),
        LayerShape::new("conv3 proj", 128, 64, sq(s / 2), 1, true),
        LayerShape::new("conv4 3x3a", 256, 128 * 9, sq(s / 4), 1, true),
        LayerShape::new("conv4 3x3", 256, 256 * 9, sq(s / 4), 3, true),
        LayerShape::new("conv4 proj", 256, 128, sq(s / 4), 1, true),
        LayerShape::new("conv5 3x3a", 512, 256 * 9, sq(s / 8), 1, true),
        LayerShape::new("conv5 3x3", 512, 512 * 9, sq(s / 8), 3, true),
        LayerShape::new("conv5 proj", 512, 256, sq(s / 8), 1, true),
        LayerShape::new("fc", 1000, 512, 1, 1, false),
    ];
    Model {
        kind: ModelKind::ResNet18,
        layers,
    }
}

/// BERT-base: 12 encoder layers, hidden 768, FFN 3072, at `seq` tokens.
pub fn bert_base(seq: usize) -> Model {
    let h = 768;
    let layers = vec![
        LayerShape::new("attn.q", h, h, seq, 12, true),
        LayerShape::new("attn.k", h, h, seq, 12, true),
        LayerShape::new("attn.v", h, h, seq, 12, true),
        LayerShape::new("attn.out", h, h, seq, 12, true),
        LayerShape::new("ffn.fc1", 4 * h, h, seq, 12, true),
        LayerShape::new("ffn.fc2", h, 4 * h, seq, 12, true),
    ];
    Model {
        kind: ModelKind::BertBase,
        layers,
    }
}

/// OPT-6.7B: 32 decoder layers, hidden 4096, FFN 16384, at `seq` tokens.
pub fn opt_6_7b(seq: usize) -> Model {
    let h = 4096;
    let layers = vec![
        LayerShape::new("attn.q", h, h, seq, 32, true),
        LayerShape::new("attn.k", h, h, seq, 32, true),
        LayerShape::new("attn.v", h, h, seq, 32, true),
        LayerShape::new("attn.out", h, h, seq, 32, true),
        LayerShape::new("ffn.fc1", 4 * h, h, seq, 32, true),
        LayerShape::new("ffn.fc2", h, 4 * h, seq, 32, true),
    ];
    Model {
        kind: ModelKind::Opt6_7b,
        layers,
    }
}

/// Llama2-7B: 32 decoder layers, hidden 4096, gated FFN 11008, at `seq`
/// tokens.
pub fn llama2_7b(seq: usize) -> Model {
    let h = 4096;
    let ffn = 11008;
    let layers = vec![
        LayerShape::new("attn.q", h, h, seq, 32, true),
        LayerShape::new("attn.k", h, h, seq, 32, true),
        LayerShape::new("attn.v", h, h, seq, 32, true),
        LayerShape::new("attn.out", h, h, seq, 32, true),
        LayerShape::new("ffn.gate", ffn, h, seq, 32, true),
        LayerShape::new("ffn.up", ffn, h, seq, 32, true),
        LayerShape::new("ffn.down", h, ffn, seq, 32, true),
    ];
    Model {
        kind: ModelKind::Llama2_7b,
        layers,
    }
}

/// One GCN aggregation+transform layer: `nodes × nodes` adjacency times
/// `nodes × features` — the Fig. 15(d) sparsity-sweep workload.
pub fn gcn_layer(nodes: usize, features: usize) -> Model {
    Model {
        kind: ModelKind::Gcn,
        layers: vec![LayerShape::new(
            "aggregate",
            nodes,
            nodes,
            features,
            1,
            true,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_macs_in_known_range() {
        // ResNet-50 at 224² is ~4.1 GMACs.
        let g = resnet50(224).total_macs() as f64 / 1e9;
        assert!((3.4..4.8).contains(&g), "{g} GMACs");
    }

    #[test]
    fn resnet50_params_in_known_range() {
        // ~25.6 M parameters; conv weights alone ~23.5 M.
        let p = resnet50(224).total_weights() as f64 / 1e6;
        assert!((20.0..28.0).contains(&p), "{p} M params");
    }

    #[test]
    fn resnet18_smaller_than_resnet50() {
        let r18 = resnet18(224);
        let r50 = resnet50(224);
        assert!(r18.total_weights() < r50.total_weights());
        assert!(r18.total_macs() < r50.total_macs());
    }

    #[test]
    fn bert_base_params_in_known_range() {
        // Encoder matmul weights: 12 × (4·768² + 2·768·3072) ≈ 85 M.
        let p = bert_base(128).total_weights() as f64 / 1e6;
        assert!((80.0..90.0).contains(&p), "{p} M");
    }

    #[test]
    fn opt_params_match_6_7b_scale() {
        // Decoder matmul weights ≈ 32 × (4·4096² + 2·4096·16384) ≈ 6.4 B.
        let p = opt_6_7b(128).total_weights() as f64 / 1e9;
        assert!((6.0..7.0).contains(&p), "{p} B");
    }

    #[test]
    fn llama_params_match_7b_scale() {
        let p = llama2_7b(128).total_weights() as f64 / 1e9;
        assert!((6.2..7.0).contains(&p), "{p} B");
    }

    #[test]
    fn stem_and_fc_not_prunable() {
        let m = resnet50(32);
        let frozen: Vec<_> = m.layers.iter().filter(|l| !l.prunable).collect();
        assert_eq!(frozen.len(), 2);
        assert!(frozen.iter().any(|l| l.name.contains("stem")));
        assert!(frozen.iter().any(|l| l.name == "fc"));
    }

    #[test]
    fn macs_scale_with_sequence_length() {
        assert_eq!(bert_base(256).total_macs(), 2 * bert_base(128).total_macs());
    }

    #[test]
    fn gcn_layer_shape() {
        let g = gcn_layer(1024, 128);
        assert_eq!(g.layers.len(), 1);
        assert_eq!(g.layers[0].macs(), 1024 * 1024 * 128);
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelKind::Opt6_7b.to_string(), "OPT-6.7B");
        assert_eq!(ModelKind::ResNet50.to_string(), "ResNet-50");
    }
}
