//! The MlBench workloads (paper Table III).
//!
//! Six NN designs: CNN-1 and CNN-2 (MNIST-scale convolutional networks),
//! MLP-S/M/L (small/medium/large multilayer perceptrons), and VGG-D — the
//! extremely large ImageNet CNN with 16 weight layers, ~1.4x10^8 synapses
//! and ~1.6x10^10 operations (paper §V-A).
//!
//! Workloads exist at two levels: *shape-only* [`NetworkSpec`]s (used by
//! the mapping compiler and the performance simulator, so VGG-D never has
//! to allocate half a gigabyte of weights) and executable
//! [`Network`](crate::Network)s instantiated from the spec for the
//! MNIST-scale benchmarks.

use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::layer::{Activation, Conv2d, FullyConnected, Pool2d, PoolKind};
use crate::network::{Layer, Network};

/// Shape-only description of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Fully-connected `inputs -> outputs`.
    FullyConnected {
        /// Input width.
        inputs: usize,
        /// Output width.
        outputs: usize,
    },
    /// 2-D convolution over `[in_ch, in_h, in_w]`.
    Conv {
        /// Input channels.
        in_ch: usize,
        /// Output channels (feature maps).
        out_ch: usize,
        /// Square kernel edge.
        kernel: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Zero padding on each side.
        padding: usize,
    },
    /// Non-overlapping pooling with stride = window.
    Pool {
        /// Pooling flavour.
        kind: PoolKind,
        /// Channels.
        channels: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Window edge.
        window: usize,
    },
    /// Local response normalization across `window` adjacent channels.
    /// PRIME has no LRN hardware (paper §III-E: state-of-the-art CNNs
    /// dropped LRN); when present, the layer falls back to the CPU.
    Lrn {
        /// Channels.
        channels: usize,
        /// Feature-map height.
        in_h: usize,
        /// Feature-map width.
        in_w: usize,
        /// Normalization window across channels.
        window: usize,
    },
}

impl LayerSpec {
    /// Input element count.
    pub fn inputs(&self) -> usize {
        match *self {
            LayerSpec::FullyConnected { inputs, .. } => inputs,
            LayerSpec::Conv { in_ch, in_h, in_w, .. } => in_ch * in_h * in_w,
            LayerSpec::Pool { channels, in_h, in_w, .. } => channels * in_h * in_w,
            LayerSpec::Lrn { channels, in_h, in_w, .. } => channels * in_h * in_w,
        }
    }

    /// Output element count.
    pub fn outputs(&self) -> usize {
        match *self {
            LayerSpec::FullyConnected { outputs, .. } => outputs,
            LayerSpec::Conv { out_ch, .. } => {
                self.conv_out_dims().map_or(0, |(out_h, out_w)| out_ch * out_h * out_w)
            }
            LayerSpec::Pool { channels, in_h, in_w, window, .. } => match window {
                0 => 0,
                w => channels * (in_h / w) * (in_w / w),
            },
            LayerSpec::Lrn { channels, in_h, in_w, .. } => channels * in_h * in_w,
        }
    }

    /// For conv layers, the output feature-map dimensions (zero along an
    /// edge the kernel overhangs).
    pub fn conv_out_dims(&self) -> Option<(usize, usize)> {
        match *self {
            LayerSpec::Conv { kernel, in_h, in_w, padding, .. } => Some((
                (in_h + 2 * padding + 1).saturating_sub(kernel),
                (in_w + 2 * padding + 1).saturating_sub(kernel),
            )),
            _ => None,
        }
    }

    /// Refuses a shape that computes nothing: a conv kernel that is zero
    /// or wider than its padded input, or a zero pooling window.
    fn check(&self) -> Result<(), NnError> {
        let reason = match *self {
            LayerSpec::Conv { kernel, in_h, in_w, padding, .. }
                if kernel == 0 || kernel > in_h.min(in_w) + 2 * padding =>
            {
                "conv kernel must be nonzero and fit its padded input"
            }
            LayerSpec::Pool { window: 0, .. } => "pooling window must be nonzero",
            _ => return Ok(()),
        };
        Err(NnError::DegenerateLayer { layer: self.describe(), reason })
    }

    /// Synaptic weight count (pooling has none; biases excluded, as in the
    /// paper's synapse accounting).
    pub fn synapses(&self) -> u64 {
        match *self {
            LayerSpec::FullyConnected { inputs, outputs } => (inputs * outputs) as u64,
            LayerSpec::Conv { in_ch, out_ch, kernel, .. } => {
                (out_ch * in_ch * kernel * kernel) as u64
            }
            LayerSpec::Pool { .. } | LayerSpec::Lrn { .. } => 0,
        }
    }

    /// Multiply-accumulate operations for one inference.
    pub fn mac_ops(&self) -> u64 {
        match *self {
            LayerSpec::FullyConnected { inputs, outputs } => (inputs * outputs) as u64,
            LayerSpec::Conv { in_ch, kernel, .. } => {
                let per_output = in_ch * kernel * kernel;
                self.outputs() as u64 * per_output as u64
            }
            LayerSpec::Pool { window, .. } => self.outputs() as u64 * (window * window) as u64,
            // Each LRN output reads `window` neighbouring channels plus a
            // square, divide, and power — roughly 2 ops per neighbour.
            LayerSpec::Lrn { window, .. } => self.outputs() as u64 * 2 * window as u64,
        }
    }

    /// Whether the layer carries weights an FF mat must store.
    pub fn is_weight_layer(&self) -> bool {
        self.synapses() > 0
    }

    /// Whether PRIME must fall back to the CPU for this layer (LRN only,
    /// paper §III-E).
    pub fn needs_cpu_fallback(&self) -> bool {
        matches!(self, LayerSpec::Lrn { .. })
    }

    /// Short description matching the paper's notation.
    pub fn describe(&self) -> String {
        match *self {
            LayerSpec::FullyConnected { inputs, outputs } => format!("{inputs}-{outputs}"),
            LayerSpec::Conv { out_ch, kernel, .. } => format!("conv{kernel}x{out_ch}"),
            LayerSpec::Pool { window, .. } => format!("pool{window}"),
            LayerSpec::Lrn { window, .. } => format!("lrn{window}"),
        }
    }
}

/// Shape-only description of a whole network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkSpec {
    name: String,
    layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Creates a spec, validating interface widths.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`], [`NnError::DegenerateLayer`] or
    /// [`NnError::ShapeMismatch`].
    pub fn new(name: impl Into<String>, layers: Vec<LayerSpec>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        for layer in &layers {
            layer.check()?;
        }
        for pair in layers.windows(2) {
            if pair[0].outputs() != pair[1].inputs() {
                return Err(NnError::ShapeMismatch {
                    expected: vec![pair[0].outputs()],
                    got: vec![pair[1].inputs()],
                });
            }
        }
        Ok(NetworkSpec { name: name.into(), layers })
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer shapes.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Network input width.
    pub fn inputs(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Network output width.
    pub fn outputs(&self) -> usize {
        // `new` rejects empty stacks, so the 0 default never fires.
        self.layers.last().map_or(0, LayerSpec::outputs)
    }

    /// Total synapses across all layers.
    pub fn synapses(&self) -> u64 {
        self.layers.iter().map(LayerSpec::synapses).sum()
    }

    /// Total MAC operations per inference.
    pub fn mac_ops(&self) -> u64 {
        self.layers.iter().map(LayerSpec::mac_ops).sum()
    }

    /// Builds an executable zero-weight network from the spec. Hidden
    /// fully-connected layers use sigmoid, convolutions ReLU, and the last
    /// layer identity — the activation placement PRIME supports in
    /// hardware.
    ///
    /// # Errors
    ///
    /// Propagates [`NnError`] from network construction.
    pub fn to_network(&self) -> Result<Network, NnError> {
        let last = self.layers.len().saturating_sub(1);
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, spec)| match *spec {
                LayerSpec::FullyConnected { inputs, outputs } => {
                    let act =
                        if i == last { Activation::Identity } else { Activation::Sigmoid };
                    Ok(Layer::Fc(FullyConnected::new(inputs, outputs, act)))
                }
                LayerSpec::Conv { in_ch, out_ch, kernel, in_h, in_w, padding } => {
                    Ok(Layer::Conv(Conv2d::new(
                        in_ch,
                        out_ch,
                        kernel,
                        in_h,
                        in_w,
                        padding,
                        Activation::Relu,
                    )))
                }
                LayerSpec::Pool { kind, channels, in_h, in_w, window } => {
                    Ok(Layer::Pool(Pool2d::new(kind, channels, in_h, in_w, window)))
                }
                // LRN is modelled at the performance level only (CPU
                // fallback); no executable layer exists.
                LayerSpec::Lrn { .. } => Err(NnError::Untrainable { layer: spec.describe() }),
            })
            .collect::<Result<Vec<_>, NnError>>()?;
        Network::new(layers)
    }

    /// Builds a full-weight ReLU network for the device command runner:
    /// ReLU on every hidden weight layer (the activation modern CNN
    /// stacks such as VGG actually use), identity on the last, weights
    /// initialized from `seed`. This is how the full-size VGG-D spec
    /// becomes a deployable network — ~1.4x10^8 synapses are allocated,
    /// so reserve it for benchmarks, not unit tests.
    ///
    /// # Errors
    ///
    /// Propagates [`NnError`] from network construction (e.g. an LRN
    /// layer, which has no executable form).
    pub fn to_runner_network(&self, seed: u64) -> Result<Network, NnError> {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let last = self.layers.len().saturating_sub(1);
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, spec)| match *spec {
                LayerSpec::FullyConnected { inputs, outputs } => {
                    let act = if i == last { Activation::Identity } else { Activation::Relu };
                    Ok(Layer::Fc(FullyConnected::new(inputs, outputs, act)))
                }
                LayerSpec::Conv { in_ch, out_ch, kernel, in_h, in_w, padding } => {
                    Ok(Layer::Conv(Conv2d::new(
                        in_ch,
                        out_ch,
                        kernel,
                        in_h,
                        in_w,
                        padding,
                        Activation::Relu,
                    )))
                }
                LayerSpec::Pool { kind, channels, in_h, in_w, window } => {
                    Ok(Layer::Pool(Pool2d::new(kind, channels, in_h, in_w, window)))
                }
                LayerSpec::Lrn { .. } => Err(NnError::Untrainable { layer: spec.describe() }),
            })
            .collect::<Result<Vec<_>, NnError>>()?;
        let mut net = Network::new(layers)?;
        net.init_random(&mut SmallRng::seed_from_u64(seed));
        Ok(net)
    }
}

impl Network {
    /// Extracts the shape-only [`NetworkSpec`] of an executable network —
    /// the form the mapping compiler consumes, so deployment can derive
    /// stage placement from the very network it is about to run.
    ///
    /// # Errors
    ///
    /// Propagates [`NnError`] from spec validation.
    pub fn to_spec(&self, name: impl Into<String>) -> Result<NetworkSpec, NnError> {
        let layers = self
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Fc(l) => {
                    LayerSpec::FullyConnected { inputs: l.inputs(), outputs: l.outputs() }
                }
                Layer::Conv(l) => LayerSpec::Conv {
                    in_ch: l.in_channels(),
                    out_ch: l.out_channels(),
                    kernel: l.kernel(),
                    in_h: l.in_h(),
                    in_w: l.in_w(),
                    padding: l.padding(),
                },
                Layer::Pool(l) => LayerSpec::Pool {
                    kind: l.kind(),
                    channels: l.channels(),
                    in_h: l.in_h(),
                    in_w: l.in_w(),
                    window: l.window(),
                },
            })
            .collect();
        NetworkSpec::new(name, layers)
    }
}

/// The six MlBench workloads of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MlBench {
    /// `conv5x5-pool-720-70-10` on 28x28 MNIST images.
    Cnn1,
    /// `conv7x10-pool-1210-120-10` on 28x28 MNIST images.
    Cnn2,
    /// `784-500-250-10`.
    MlpS,
    /// `784-1000-500-250-10`.
    MlpM,
    /// `784-1500-1000-500-10`.
    MlpL,
    /// The 16-weight-layer VGG-D for ImageNet.
    VggD,
}

impl MlBench {
    /// Every benchmark, in the paper's presentation order.
    pub const ALL: [MlBench; 6] =
        [MlBench::Cnn1, MlBench::Cnn2, MlBench::MlpS, MlBench::MlpM, MlBench::MlpL, MlBench::VggD];

    /// The paper's name for the benchmark.
    pub fn name(&self) -> &'static str {
        match self {
            MlBench::Cnn1 => "CNN-1",
            MlBench::Cnn2 => "CNN-2",
            MlBench::MlpS => "MLP-S",
            MlBench::MlpM => "MLP-M",
            MlBench::MlpL => "MLP-L",
            MlBench::VggD => "VGG-D",
        }
    }

    /// The Table III topology string.
    pub fn topology(&self) -> &'static str {
        match self {
            MlBench::Cnn1 => "conv5x5-pool-720-70-10",
            MlBench::Cnn2 => "conv7x10-pool-1210-120-10",
            MlBench::MlpS => "784-500-250-10",
            MlBench::MlpM => "784-1000-500-250-10",
            MlBench::MlpL => "784-1500-1000-500-10",
            MlBench::VggD => {
                "conv3x64-conv3x64-pool-conv3x128-conv3x128-pool-conv3x256-conv3x256-conv3x256-\
                 pool-conv3x512-conv3x512-conv3x512-pool-conv3x512-conv3x512-conv3x512-pool-\
                 25088-4096-4096-1000"
            }
        }
    }

    /// Builds the layer-shape spec.
    pub fn spec(&self) -> NetworkSpec {
        match self {
            MlBench::Cnn1 => table_spec(
                self.name(),
                vec![
                    LayerSpec::Conv { in_ch: 1, out_ch: 5, kernel: 5, in_h: 28, in_w: 28, padding: 0 },
                    LayerSpec::Pool { kind: PoolKind::Max, channels: 5, in_h: 24, in_w: 24, window: 2 },
                    LayerSpec::FullyConnected { inputs: 720, outputs: 70 },
                    LayerSpec::FullyConnected { inputs: 70, outputs: 10 },
                ],
            ),
            MlBench::Cnn2 => table_spec(
                self.name(),
                vec![
                    LayerSpec::Conv { in_ch: 1, out_ch: 10, kernel: 7, in_h: 28, in_w: 28, padding: 0 },
                    LayerSpec::Pool { kind: PoolKind::Max, channels: 10, in_h: 22, in_w: 22, window: 2 },
                    LayerSpec::FullyConnected { inputs: 1210, outputs: 120 },
                    LayerSpec::FullyConnected { inputs: 120, outputs: 10 },
                ],
            ),
            MlBench::MlpS => mlp_spec(self.name(), &[784, 500, 250, 10]),
            MlBench::MlpM => mlp_spec(self.name(), &[784, 1000, 500, 250, 10]),
            MlBench::MlpL => mlp_spec(self.name(), &[784, 1500, 1000, 500, 10]),
            MlBench::VggD => vgg_d_spec(),
        }
    }

    /// Whether the workload is small enough to execute numerically in
    /// tests and examples. VGG-D is excluded — not because it cannot run
    /// (see [`NetworkSpec::to_runner_network`], which the throughput
    /// bench deploys at full size), but because allocating ~1.4x10^8
    /// weights is far too heavy for the unit-test tier.
    pub fn is_executable(&self) -> bool {
        !matches!(self, MlBench::VggD)
    }
}

/// CNN-1 with an AlexNet-style LRN layer after the convolution — the
/// workload used to measure PRIME's CPU-fallback cost for layers it has
/// no hardware for (paper §III-E).
pub fn cnn1_with_lrn() -> NetworkSpec {
    table_spec(
        "CNN-1+LRN",
        vec![
            LayerSpec::Conv { in_ch: 1, out_ch: 5, kernel: 5, in_h: 28, in_w: 28, padding: 0 },
            LayerSpec::Lrn { channels: 5, in_h: 24, in_w: 24, window: 5 },
            LayerSpec::Pool { kind: PoolKind::Max, channels: 5, in_h: 24, in_w: 24, window: 2 },
            LayerSpec::FullyConnected { inputs: 720, outputs: 70 },
            LayerSpec::FullyConnected { inputs: 70, outputs: 10 },
        ],
    )
}

/// Builds a spec from one of the fixed Table III stacks. The constant
/// topologies always pass width validation (pinned by the unit tests); if
/// one were ever edited inconsistently, the raw stack is returned
/// unvalidated rather than panicking at every `spec()` call site.
fn table_spec(name: &str, layers: Vec<LayerSpec>) -> NetworkSpec {
    NetworkSpec::new(name, layers.clone())
        .unwrap_or(NetworkSpec { name: name.to_string(), layers })
}

fn mlp_spec(name: &str, widths: &[usize]) -> NetworkSpec {
    let layers = widths
        .windows(2)
        .map(|w| LayerSpec::FullyConnected { inputs: w[0], outputs: w[1] })
        .collect();
    table_spec(name, layers)
}

fn vgg_d_spec() -> NetworkSpec {
    let mut layers = Vec::new();
    let mut ch = 3usize;
    let mut dim = 224usize;
    // (output channels, convs in the block) per VGG-D block.
    for &(out_ch, convs) in &[(64usize, 2usize), (128, 2), (256, 3), (512, 3), (512, 3)] {
        for _ in 0..convs {
            layers.push(LayerSpec::Conv {
                in_ch: ch,
                out_ch,
                kernel: 3,
                in_h: dim,
                in_w: dim,
                padding: 1,
            });
            ch = out_ch;
        }
        layers.push(LayerSpec::Pool {
            kind: PoolKind::Max,
            channels: ch,
            in_h: dim,
            in_w: dim,
            window: 2,
        });
        dim /= 2;
    }
    layers.push(LayerSpec::FullyConnected { inputs: 25_088, outputs: 4096 });
    layers.push(LayerSpec::FullyConnected { inputs: 4096, outputs: 4096 });
    layers.push(LayerSpec::FullyConnected { inputs: 4096, outputs: 1000 });
    table_spec("VGG-D", layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnn1_dimensions_reconstruct_table_iii() {
        let spec = MlBench::Cnn1.spec();
        // conv5x5 with 5 maps on 28x28 -> 24x24x5; pool2 -> 12x12x5 = 720.
        assert_eq!(spec.layers()[1].outputs(), 720);
        assert_eq!(spec.inputs(), 784);
        assert_eq!(spec.outputs(), 10);
    }

    #[test]
    fn cnn2_dimensions_reconstruct_table_iii() {
        let spec = MlBench::Cnn2.spec();
        // conv7x10 on 28x28 -> 22x22x10; pool2 -> 11x11x10 = 1210.
        assert_eq!(spec.layers()[1].outputs(), 1210);
    }

    #[test]
    fn mlp_specs_match_topology_strings() {
        let s = MlBench::MlpS.spec();
        assert_eq!(s.synapses(), 784 * 500 + 500 * 250 + 250 * 10);
        let l = MlBench::MlpL.spec();
        assert_eq!(l.synapses(), 784 * 1500 + 1500 * 1000 + 1000 * 500 + 500 * 10);
    }

    #[test]
    fn vgg_d_matches_paper_scale() {
        let spec = MlBench::VggD.spec();
        // 16 weight layers (13 conv + 3 fc).
        let weight_layers = spec.layers().iter().filter(|l| l.is_weight_layer()).count();
        assert_eq!(weight_layers, 16);
        // ~1.4x10^8 synapses (paper §IV-B1 / §V-A).
        let synapses = spec.synapses() as f64;
        assert!((synapses / 1.38e8 - 1.0).abs() < 0.02, "synapses {synapses}");
        // ~1.6x10^10 operations (paper: ~1.6e10; MACs ~1.55e10).
        let ops = spec.mac_ops() as f64;
        assert!(ops > 1.4e10 && ops < 1.7e10, "ops {ops}");
    }

    #[test]
    fn executable_specs_build_networks() {
        for bench in MlBench::ALL {
            if bench.is_executable() {
                let net = bench.spec().to_network().unwrap();
                assert_eq!(net.inputs(), bench.spec().inputs());
                assert_eq!(net.outputs(), 10);
            }
        }
    }

    #[test]
    fn names_and_topologies_are_stable() {
        assert_eq!(MlBench::Cnn1.name(), "CNN-1");
        assert_eq!(MlBench::MlpM.topology(), "784-1000-500-250-10");
        assert_eq!(MlBench::ALL.len(), 6);
    }

    #[test]
    fn lrn_variant_is_spec_only() {
        let spec = cnn1_with_lrn();
        assert_eq!(spec.layers()[1].describe(), "lrn5");
        assert!(spec.layers()[1].needs_cpu_fallback());
        assert_eq!(spec.layers()[1].inputs(), spec.layers()[1].outputs());
        // LRN layers cannot be built into an executable network.
        assert!(matches!(spec.to_network(), Err(NnError::Untrainable { .. })));
        // But the shape chain stays consistent with plain CNN-1.
        assert_eq!(spec.outputs(), 10);
        assert_eq!(spec.synapses(), MlBench::Cnn1.spec().synapses());
    }

    #[test]
    fn spec_validates_interfaces() {
        let bad = NetworkSpec::new(
            "bad",
            vec![
                LayerSpec::FullyConnected { inputs: 4, outputs: 5 },
                LayerSpec::FullyConnected { inputs: 6, outputs: 2 },
            ],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn spec_refuses_a_kernel_wider_than_its_padded_input() {
        let conv = |kernel, padding| LayerSpec::Conv {
            in_ch: 1,
            out_ch: 2,
            kernel,
            in_h: 3,
            in_w: 3,
            padding,
        };
        for (kernel, padding) in [(5, 0), (0, 0)] {
            let err = NetworkSpec::new("degenerate", vec![conv(kernel, padding)]);
            assert!(matches!(err, Err(NnError::DegenerateLayer { .. })), "{err:?}");
        }
        // Padding that makes room admits the same kernel.
        assert!(NetworkSpec::new("padded", vec![conv(5, 1)]).is_ok());
    }

    #[test]
    fn spec_refuses_a_zero_pooling_window() {
        let pool =
            LayerSpec::Pool { kind: PoolKind::Max, channels: 1, in_h: 4, in_w: 4, window: 0 };
        let err = NetworkSpec::new("degenerate", vec![pool]);
        assert!(matches!(err, Err(NnError::DegenerateLayer { .. })), "{err:?}");
    }
}
