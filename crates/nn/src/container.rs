//! Model containers: the [`LayerNode`] enum tree, [`Sequential`] models
//! and [`ResidualBlock`]s.
//!
//! Models are closed enum trees so that `fedmp-pruning` can pattern-match
//! on layer kinds when computing importance scores and materialising
//! sub-models. Every container exposes:
//!
//! * `forward` / `backward` — training passes with per-layer caches,
//! * `state` / `load_state` — ordered named snapshots (the FL interchange
//!   format),
//! * `for_each_param_mut` — optimizer access in deterministic order.

use crate::activation::{relu_mask_select, Dropout, ReLU};
use crate::batchnorm::BatchNorm2d;
use crate::conv_layer::Conv2d;
use crate::flatten::Flatten;
use crate::linear::Linear;
use crate::param::{Param, StateEntry};
use crate::pool_layer::{AvgPool2d, MaxPool2d};
use fedmp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// One node of a model tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LayerNode {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully connected layer.
    Linear(Linear),
    /// Batch normalisation.
    BatchNorm2d(BatchNorm2d),
    /// ReLU activation.
    ReLU(ReLU),
    /// Inverted dropout.
    Dropout(Dropout),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// NCHW → `[batch, features]`.
    Flatten(Flatten),
    /// Residual block with optional projection shortcut.
    Residual(ResidualBlock),
}

impl LayerNode {
    /// Forward pass through this node.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        match self {
            LayerNode::Conv2d(l) => l.forward(input, training),
            LayerNode::Linear(l) => l.forward(input, training),
            LayerNode::BatchNorm2d(l) => l.forward(input, training),
            LayerNode::ReLU(l) => l.forward(input, training),
            LayerNode::Dropout(l) => l.forward(input, training),
            LayerNode::MaxPool2d(l) => l.forward(input, training),
            LayerNode::AvgPool2d(l) => l.forward(input, training),
            LayerNode::Flatten(l) => l.forward(input, training),
            LayerNode::Residual(l) => l.forward(input, training),
        }
    }

    /// Backward pass through this node.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self {
            LayerNode::Conv2d(l) => l.backward(grad_out),
            LayerNode::Linear(l) => l.backward(grad_out),
            LayerNode::BatchNorm2d(l) => l.backward(grad_out),
            LayerNode::ReLU(l) => l.backward(grad_out),
            LayerNode::Dropout(l) => l.backward(grad_out),
            LayerNode::MaxPool2d(l) => l.backward(grad_out),
            LayerNode::AvgPool2d(l) => l.backward(grad_out),
            LayerNode::Flatten(l) => l.backward(grad_out),
            LayerNode::Residual(l) => l.backward(grad_out),
        }
    }

    /// [`Self::backward`] for a node whose input gradient nobody reads:
    /// accumulates the same parameter gradients, and `Conv2d`/`Linear`
    /// skip computing the input gradient.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        match self {
            LayerNode::Conv2d(l) => l.backward_params(grad_out),
            LayerNode::Linear(l) => l.backward_params(grad_out),
            _ => drop(self.backward(grad_out)),
        }
    }

    /// Visits every trainable parameter in deterministic order.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            LayerNode::Conv2d(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            LayerNode::Linear(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            LayerNode::BatchNorm2d(l) => {
                f(&mut l.gamma);
                f(&mut l.beta);
            }
            LayerNode::Residual(l) => l.for_each_param_mut(f),
            LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_) => {}
        }
    }

    /// Appends this node's state entries under the name prefix.
    pub fn collect_state(&self, prefix: &str, out: &mut Vec<StateEntry>) {
        match self {
            LayerNode::Conv2d(l) => {
                out.push(StateEntry::trainable(format!("{prefix}.weight"), l.weight.value.clone()));
                out.push(StateEntry::trainable(format!("{prefix}.bias"), l.bias.value.clone()));
            }
            LayerNode::Linear(l) => {
                out.push(StateEntry::trainable(format!("{prefix}.weight"), l.weight.value.clone()));
                out.push(StateEntry::trainable(format!("{prefix}.bias"), l.bias.value.clone()));
            }
            LayerNode::BatchNorm2d(l) => {
                out.push(StateEntry::trainable(format!("{prefix}.gamma"), l.gamma.value.clone()));
                out.push(StateEntry::trainable(format!("{prefix}.beta"), l.beta.value.clone()));
                out.push(StateEntry::tracked(
                    format!("{prefix}.running_mean"),
                    l.running_mean.clone(),
                ));
                out.push(StateEntry::tracked(
                    format!("{prefix}.running_var"),
                    l.running_var.clone(),
                ));
            }
            LayerNode::Residual(l) => l.collect_state(prefix, out),
            LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_) => {}
        }
    }

    /// Loads state entries in the same order `collect_state` emitted them.
    /// Returns how many entries were consumed.
    pub fn load_state(&mut self, prefix: &str, entries: &[StateEntry]) -> usize {
        fn take<'a>(entries: &'a [StateEntry], i: &mut usize, name: &str) -> &'a Tensor {
            let e = entries.get(*i).unwrap_or_else(|| panic!("load_state: missing entry {name}"));
            assert_eq!(e.name, name, "load_state: expected {name}, found {}", e.name);
            *i += 1;
            &e.tensor
        }
        let mut i = 0usize;
        match self {
            LayerNode::Conv2d(l) => {
                let w = take(entries, &mut i, &format!("{prefix}.weight"));
                assert_eq!(w.dims(), l.weight.value.dims(), "load_state: conv weight shape");
                l.weight.value = w.clone();
                l.bias.value = take(entries, &mut i, &format!("{prefix}.bias")).clone();
            }
            LayerNode::Linear(l) => {
                let w = take(entries, &mut i, &format!("{prefix}.weight"));
                assert_eq!(w.dims(), l.weight.value.dims(), "load_state: linear weight shape");
                l.weight.value = w.clone();
                l.bias.value = take(entries, &mut i, &format!("{prefix}.bias")).clone();
            }
            LayerNode::BatchNorm2d(l) => {
                l.gamma.value = take(entries, &mut i, &format!("{prefix}.gamma")).clone();
                l.beta.value = take(entries, &mut i, &format!("{prefix}.beta")).clone();
                l.running_mean = take(entries, &mut i, &format!("{prefix}.running_mean")).clone();
                l.running_var = take(entries, &mut i, &format!("{prefix}.running_var")).clone();
            }
            LayerNode::Residual(l) => {
                i += l.load_state(prefix, entries);
            }
            LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_) => {}
        }
        i
    }

    /// This node's kind and geometry with its tensors taken from
    /// `entries`, in the order [`Self::collect_state`] emits them; see
    /// [`Sequential::with_state`].
    fn with_state(
        &self,
        prefix: &str,
        entries: &mut std::slice::Iter<'_, StateEntry>,
    ) -> Result<LayerNode, StateError> {
        let mut take = |field: &str, rank: usize| -> Result<Tensor, StateError> {
            let name = format!("{prefix}.{field}");
            let e = entries.next().ok_or_else(|| StateError::Missing { expected: name.clone() })?;
            if e.name != name {
                return Err(StateError::Misnamed { expected: name, found: e.name.clone() });
            }
            let found = e.tensor.dims().len();
            if found != rank {
                return Err(StateError::Rank { name, expected: rank, found });
            }
            Ok(e.tensor.clone())
        };
        // `axis` is always below the rank `take` already checked.
        let extent = |t: &Tensor, field: &str, axis: usize, expected: usize| {
            let found = t.dims()[axis];
            if found == expected {
                return Ok(());
            }
            Err(StateError::Extent { name: format!("{prefix}.{field}"), expected, found })
        };
        Ok(match self {
            LayerNode::Conv2d(l) => {
                let (weight, bias) = (take("weight", 4)?, take("bias", 1)?);
                extent(&weight, "weight", 2, l.spec.kh)?;
                extent(&weight, "weight", 3, l.spec.kw)?;
                extent(&bias, "bias", 0, weight.dims()[0])?;
                LayerNode::Conv2d(Conv2d::from_parts(weight, bias, l.spec))
            }
            LayerNode::Linear(_) => {
                let (weight, bias) = (take("weight", 2)?, take("bias", 1)?);
                extent(&bias, "bias", 0, weight.dims()[0])?;
                LayerNode::Linear(Linear::from_parts(weight, bias))
            }
            LayerNode::BatchNorm2d(l) => {
                let gamma = take("gamma", 1)?;
                let c = gamma.numel();
                let beta = take("beta", 1)?;
                extent(&beta, "beta", 0, c)?;
                let mean = take("running_mean", 1)?;
                extent(&mean, "running_mean", 0, c)?;
                let var = take("running_var", 1)?;
                extent(&var, "running_var", 0, c)?;
                let mut bn = BatchNorm2d::from_parts(gamma, beta, mean, var);
                bn.momentum = l.momentum;
                bn.eps = l.eps;
                LayerNode::BatchNorm2d(bn)
            }
            LayerNode::Residual(l) => LayerNode::Residual(l.with_state(prefix, entries)?),
            LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_) => self.clone(),
        })
    }

    /// Replaces every tensor of this node with an empty one.
    fn clear_tensors(&mut self) {
        let empty = || Tensor::zeros(&[0]);
        match self {
            LayerNode::Conv2d(l) => {
                l.weight = Param::new(empty());
                l.bias = Param::new(empty());
            }
            LayerNode::Linear(l) => {
                l.weight = Param::new(empty());
                l.bias = Param::new(empty());
            }
            LayerNode::BatchNorm2d(l) => {
                l.gamma = Param::new(empty());
                l.beta = Param::new(empty());
                l.running_mean = empty();
                l.running_var = empty();
            }
            LayerNode::Residual(l) => {
                l.body.iter_mut().chain(l.shortcut.iter_mut()).for_each(LayerNode::clear_tensors)
            }
            LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_) => {}
        }
    }
}

/// Why a snapshot does not fit a model architecture
/// ([`Sequential::with_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The snapshot ended before this entry.
    Missing {
        /// Name of the entry the architecture needed next.
        expected: String,
    },
    /// An entry arrived under another name than the architecture's next.
    Misnamed {
        /// Name the architecture needed.
        expected: String,
        /// Name the snapshot carried.
        found: String,
    },
    /// A tensor's rank is not its layer's (conv weight 4, linear weight
    /// 2, every bias and batch-norm vector 1).
    Rank {
        /// Entry name.
        name: String,
        /// Rank the layer needs.
        expected: usize,
        /// Rank the snapshot carried.
        found: usize,
    },
    /// A tensor's extent along one axis disagrees with its layer: a
    /// bias or batch-norm vector whose length is not the layer's channel
    /// count, or a conv kernel that is not the layer's `kh × kw`.
    Extent {
        /// Entry name.
        name: String,
        /// Extent the layer needs.
        expected: usize,
        /// Extent the snapshot carried.
        found: usize,
    },
    /// Entries remained after the last layer.
    Leftover {
        /// How many.
        count: usize,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Missing { expected } => write!(f, "snapshot ends before {expected}"),
            StateError::Misnamed { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            StateError::Rank { name, expected, found } => {
                write!(f, "{name}: rank {found}, layer needs {expected}")
            }
            StateError::Extent { name, expected, found } => {
                write!(f, "{name}: extent {found}, layer needs {expected}")
            }
            StateError::Leftover { count } => write!(f, "{count} entries past the last layer"),
        }
    }
}

impl std::error::Error for StateError {}

/// A residual block: `out = relu(body(x) + shortcut(x))`, where the
/// shortcut is identity or a 1×1 conv (+BN) projection when dimensions
/// change.
///
/// Structured pruning only touches the *internal* convolutions of the
/// body (the block's output width is pinned by the skip connection), the
/// standard constraint for channel pruning of residual networks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResidualBlock {
    /// Main path.
    pub body: Vec<LayerNode>,
    /// Projection path; `None` means identity shortcut.
    pub shortcut: Vec<LayerNode>,
    #[serde(skip)]
    relu_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Builds a block from a body and an optional projection path.
    pub fn new(body: Vec<LayerNode>, shortcut: Vec<LayerNode>) -> Self {
        ResidualBlock { body, shortcut, relu_mask: None }
    }

    /// Forward pass.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let mut main = input.clone();
        for l in &mut self.body {
            main = l.forward(&main, training);
        }
        let mut side = input.clone();
        for l in &mut self.shortcut {
            side = l.forward(&side, training);
        }
        assert_eq!(main.dims(), side.dims(), "residual block: body/shortcut output shapes differ");
        let pre = main.add(&side);
        self.relu_mask = Some(pre.data().iter().map(|&v| v > 0.0).collect());
        pre.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    /// Backward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.relu_mask.as_ref().expect("residual backward before forward");
        let g = relu_mask_select(grad_out, mask);
        let mut g_body = g.clone();
        for l in self.body.iter_mut().rev() {
            g_body = l.backward(&g_body);
        }
        let mut g_side = g;
        for l in self.shortcut.iter_mut().rev() {
            g_side = l.backward(&g_side);
        }
        g_body.add(&g_side)
    }

    /// Visits trainable parameters (body then shortcut).
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.body {
            l.for_each_param_mut(f);
        }
        for l in &mut self.shortcut {
            l.for_each_param_mut(f);
        }
    }

    /// Appends state entries under `prefix`.
    pub fn collect_state(&self, prefix: &str, out: &mut Vec<StateEntry>) {
        for (i, l) in self.body.iter().enumerate() {
            l.collect_state(&format!("{prefix}.body.{i}"), out);
        }
        for (i, l) in self.shortcut.iter().enumerate() {
            l.collect_state(&format!("{prefix}.shortcut.{i}"), out);
        }
    }

    /// Loads state entries in emission order; returns entries consumed.
    pub fn load_state(&mut self, prefix: &str, entries: &[StateEntry]) -> usize {
        let mut consumed = 0usize;
        for (i, l) in self.body.iter_mut().enumerate() {
            consumed += l.load_state(&format!("{prefix}.body.{i}"), &entries[consumed..]);
        }
        for (i, l) in self.shortcut.iter_mut().enumerate() {
            consumed += l.load_state(&format!("{prefix}.shortcut.{i}"), &entries[consumed..]);
        }
        consumed
    }

    /// This block's layout with its tensors taken from `entries`, in
    /// emission order.
    fn with_state(
        &self,
        prefix: &str,
        entries: &mut std::slice::Iter<'_, StateEntry>,
    ) -> Result<ResidualBlock, StateError> {
        let mut path = |nodes: &[LayerNode], part: &str| {
            nodes
                .iter()
                .enumerate()
                .map(|(i, l)| l.with_state(&format!("{prefix}.{part}.{i}"), entries))
                .collect::<Result<Vec<_>, _>>()
        };
        let body = path(&self.body, "body")?;
        Ok(ResidualBlock::new(body, path(&self.shortcut, "shortcut")?))
    }
}

/// A sequential model: layers applied in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential {
    /// The layer pipeline.
    pub layers: Vec<LayerNode>,
}

impl Sequential {
    /// Builds a model from a layer list.
    pub fn new(layers: Vec<LayerNode>) -> Self {
        Sequential { layers }
    }

    /// Forward pass through every layer.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let mut x = input.clone();
        for l in &mut self.layers {
            x = l.forward(&x, training);
        }
        x
    }

    /// Backward pass through every layer in reverse; accumulates parameter
    /// gradients and returns the input gradient.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_through(grad_out, true).expect("input gradient requested")
    }

    /// Params-only backward pass, for training loops that drop the input
    /// gradient: every parameter gradient is accumulated bit-identically
    /// to [`Self::backward`], but the first layer never computes the
    /// gradient of the model input (no parameter depends on it).
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward_through(grad_out, false);
    }

    /// The one reverse loop behind both passes; returns the input
    /// gradient only when `input_grad` is set.
    fn backward_through(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let mut g = grad_out.clone();
        for (i, l) in self.layers.iter_mut().enumerate().rev() {
            if i == 0 && !input_grad {
                l.backward_params(&g);
                return None;
            }
            g = l.backward(&g);
        }
        Some(g)
    }

    /// Visits every trainable parameter in deterministic order.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.for_each_param_mut(f);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.for_each_param_mut(&mut |p| p.zero_grad());
    }

    /// Ordered, named snapshot of all weights and tracked statistics.
    pub fn state(&self) -> Vec<StateEntry> {
        let mut out = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            l.collect_state(&i.to_string(), &mut out);
        }
        out
    }

    /// Loads a snapshot previously produced by [`Sequential::state`] on a
    /// model of identical architecture.
    ///
    /// # Panics
    /// Panics on any name/shape mismatch or leftover entries.
    pub fn load_state(&mut self, entries: &[StateEntry]) {
        let mut consumed = 0usize;
        for (i, l) in self.layers.iter_mut().enumerate() {
            consumed += l.load_state(&i.to_string(), &entries[consumed..]);
        }
        assert_eq!(
            consumed,
            entries.len(),
            "load_state: {} leftover entries",
            entries.len() - consumed
        );
    }

    /// A model with this one's layer kinds and geometry (conv spec,
    /// pooling, dropout, batch-norm momentum and epsilon) whose tensors
    /// come from `entries`, a snapshot in [`Self::state`] order. Shapes
    /// are the snapshot's, so a pruned sub-model can be rebuilt on its
    /// global model's architecture; every gradient starts at zero.
    /// `self`'s own tensors are never read (see [`Self::architecture`]).
    ///
    /// Unlike [`Self::load_state`] this never panics: a snapshot that
    /// does not fit the architecture returns a [`StateError`].
    pub fn with_state(&self, entries: &[StateEntry]) -> Result<Sequential, StateError> {
        let mut it = entries.iter();
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| l.with_state(&i.to_string(), &mut it))
            .collect::<Result<Vec<_>, _>>()?;
        match it.len() {
            0 => Ok(Sequential::new(layers)),
            count => Err(StateError::Leftover { count }),
        }
    }

    /// This model with every tensor emptied: layer kinds and geometry
    /// only, all that [`Self::with_state`] reads.
    pub fn architecture(&self) -> Sequential {
        let mut arch = self.clone();
        arch.layers.iter_mut().for_each(LayerNode::clear_tensors);
        arch
    }

    /// Total trainable parameter count.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0usize;
        self.for_each_param_mut(&mut |p| n += p.numel());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::{cross_entropy_loss, seeded_rng};

    fn tiny_cnn(rng: &mut rand::rngs::StdRng) -> Sequential {
        Sequential::new(vec![
            LayerNode::Conv2d(Conv2d::new(1, 4, 3, 1, 1, rng)),
            LayerNode::BatchNorm2d(BatchNorm2d::new(4)),
            LayerNode::ReLU(ReLU::new()),
            LayerNode::MaxPool2d(MaxPool2d::new(2)),
            LayerNode::Flatten(Flatten::new()),
            LayerNode::Linear(Linear::new(4 * 4 * 4, 3, rng)),
        ])
    }

    #[test]
    fn sequential_forward_backward_shapes() {
        let mut rng = seeded_rng(80);
        let mut m = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        let logits = m.forward(&x, true);
        assert_eq!(logits.dims(), &[2, 3]);
        let out = cross_entropy_loss(&logits, &[0, 2]);
        let gx = m.backward(&out.grad_logits);
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn state_roundtrip() {
        let mut rng = seeded_rng(81);
        let m = tiny_cnn(&mut rng);
        let state = m.state();
        // conv w+b, bn γ/β/mean/var, linear w+b
        assert_eq!(state.len(), 8);
        assert_eq!(state[0].name, "0.weight");
        assert_eq!(state[4].name, "1.running_mean");
        assert_eq!(state[5].name, "1.running_var");
        let mut m2 = tiny_cnn(&mut rng); // different random weights
        m2.load_state(&state);
        assert_eq!(m2.state()[0].tensor, state[0].tensor);
        assert_eq!(m2.state()[7].tensor, state[7].tensor);
    }

    #[test]
    fn param_count() {
        let mut rng = seeded_rng(82);
        let mut m = tiny_cnn(&mut rng);
        // conv: 4*1*3*3 + 4 = 40; bn: 4 + 4 = 8; linear: 3*64 + 3 = 195
        assert_eq!(m.num_params(), 40 + 8 + 195);
    }

    #[test]
    fn residual_block_identity_shortcut() {
        let mut rng = seeded_rng(83);
        let block = ResidualBlock::new(
            vec![
                LayerNode::Conv2d(Conv2d::new(4, 4, 3, 1, 1, &mut rng)),
                LayerNode::ReLU(ReLU::new()),
                LayerNode::Conv2d(Conv2d::new(4, 4, 3, 1, 1, &mut rng)),
            ],
            vec![],
        );
        let mut m = Sequential::new(vec![LayerNode::Residual(block)]);
        let x = Tensor::randn(&[1, 4, 6, 6], &mut rng);
        let y = m.forward(&x, true);
        assert_eq!(y.dims(), x.dims());
        let gx = m.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn residual_block_gradient_check() {
        let mut rng = seeded_rng(84);
        let block = ResidualBlock::new(
            vec![LayerNode::Conv2d(Conv2d::new(2, 2, 3, 1, 1, &mut rng))],
            vec![],
        );
        let mut m = Sequential::new(vec![LayerNode::Residual(block)]);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);

        let y = m.forward(&x, true);
        let gx = m.backward(&Tensor::ones(y.dims()));

        let eps = 1e-2f32;
        for idx in [0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let mut mp = m.clone();
            let mut mm = m.clone();
            let num = (mp.forward(&xp, true).sum() - mm.forward(&xm, true).sum()) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 0.05, "idx {idx}");
        }
    }

    #[test]
    fn residual_projection_shortcut() {
        let mut rng = seeded_rng(85);
        // Body downsamples 4→8 channels, stride 2; shortcut projects.
        let block = ResidualBlock::new(
            vec![
                LayerNode::Conv2d(Conv2d::new(4, 8, 3, 2, 1, &mut rng)),
                LayerNode::BatchNorm2d(BatchNorm2d::new(8)),
            ],
            vec![
                LayerNode::Conv2d(Conv2d::new(4, 8, 1, 2, 0, &mut rng)),
                LayerNode::BatchNorm2d(BatchNorm2d::new(8)),
            ],
        );
        let mut m = Sequential::new(vec![LayerNode::Residual(block)]);
        let x = Tensor::randn(&[2, 4, 8, 8], &mut rng);
        let y = m.forward(&x, true);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
        let gx = m.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = seeded_rng(86);
        let mut m = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], &mut rng);
        let y = m.forward(&x, true);
        m.backward(&Tensor::ones(y.dims()));
        m.zero_grad();
        m.for_each_param_mut(&mut |p| assert_eq!(p.grad.l1_norm(), 0.0));
    }

    /// One node of every kind, `c` channels wide, for `[n, 1, 8, 8]`
    /// inputs; batch norm with non-default momentum and epsilon.
    fn every_kind(c: usize, rng: &mut rand::rngs::StdRng) -> Sequential {
        let bn = |ch: usize| {
            let mut bn = BatchNorm2d::new(ch);
            bn.momentum = 0.3;
            bn.eps = 1e-3;
            LayerNode::BatchNorm2d(bn)
        };
        let block = ResidualBlock::new(
            vec![LayerNode::Conv2d(Conv2d::new(c, 2 * c, 3, 2, 1, rng)), bn(2 * c)],
            vec![LayerNode::Conv2d(Conv2d::new(c, 2 * c, 1, 2, 0, rng)), bn(2 * c)],
        );
        Sequential::new(vec![
            LayerNode::Conv2d(Conv2d::new(1, c, 3, 1, 1, rng)),
            bn(c),
            LayerNode::ReLU(ReLU::new()),
            LayerNode::Residual(block), // 8 → 4
            LayerNode::MaxPool2d(MaxPool2d::new(2)),
            LayerNode::AvgPool2d(AvgPool2d::new(2)),
            LayerNode::Dropout(Dropout::new(0.25, 7)),
            LayerNode::Flatten(Flatten::new()),
            LayerNode::Linear(Linear::new(2 * c, 3, rng)),
        ])
    }

    fn assert_same_bits(a: &[StateEntry], b: &[StateEntry]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                (&x.name, x.trainable, x.tensor.dims()),
                (&y.name, y.trainable, y.tensor.dims())
            );
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.tensor), bits(&y.tensor), "{}", x.name);
        }
    }

    #[test]
    fn with_state_round_trips_every_layer_kind() {
        let mut rng = seeded_rng(87);
        let mut m = every_kind(3, &mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        // A training pass moves the running statistics off their
        // defaults, so the tracked entries are exercised too.
        m.forward(&x, true);
        let state = m.state();
        let arch = m.architecture();
        assert!(arch.state().iter().all(|e| e.tensor.numel() == 0));
        let mut rebuilt = arch.with_state(&state).expect("own state fits");
        assert_same_bits(&rebuilt.state(), &state);
        rebuilt.for_each_param_mut(&mut |p| {
            assert_eq!(p.grad.dims(), p.value.dims());
            assert!(p.grad.data().iter().all(|&g| g.to_bits() == 0));
        });
        // Geometry survives: same inference output, same BN constants.
        assert_eq!(m.forward(&x, false), rebuilt.forward(&x, false));
        let LayerNode::BatchNorm2d(bn) = &rebuilt.layers[1] else { panic!("layer 1 is BN") };
        assert_eq!((bn.momentum, bn.eps), (0.3, 1e-3));
    }

    #[test]
    fn with_state_takes_shapes_from_the_snapshot() {
        // A narrower model of the same layout stands in for a pruned
        // sub-model: the wide architecture rebuilds it exactly.
        let mut rng = seeded_rng(88);
        let wide = every_kind(4, &mut rng);
        let mut narrow = every_kind(2, &mut rng);
        let mut rebuilt = wide.architecture().with_state(&narrow.state()).expect("narrow fits");
        assert_same_bits(&rebuilt.state(), &narrow.state());
        let x = Tensor::randn(&[1, 1, 8, 8], &mut rng);
        assert_eq!(narrow.forward(&x, false), rebuilt.forward(&x, false));
    }

    #[test]
    fn with_state_rejects_misfits_with_typed_errors() {
        let mut rng = seeded_rng(89);
        let m = every_kind(3, &mut rng);
        let arch = m.architecture();
        let state = m.state();
        let edit = |f: &dyn Fn(&mut Vec<StateEntry>)| {
            let mut s = state.clone();
            f(&mut s);
            arch.with_state(&s).expect_err("misfit accepted")
        };
        let last = state.len() - 1;
        assert_eq!(
            edit(&|s| s.truncate(last)),
            StateError::Missing { expected: state[last].name.clone() }
        );
        assert_eq!(
            edit(&|s| s[1].name = "0.beta".into()),
            StateError::Misnamed { expected: "0.bias".into(), found: "0.beta".into() }
        );
        assert_eq!(
            edit(&|s| s[0].tensor = Tensor::zeros(&[3, 9])),
            StateError::Rank { name: "0.weight".into(), expected: 4, found: 2 }
        );
        assert_eq!(
            edit(&|s| s[1].tensor = Tensor::zeros(&[4])),
            StateError::Extent { name: "0.bias".into(), expected: 3, found: 4 }
        );
        assert_eq!(
            edit(&|s| s[0].tensor = Tensor::zeros(&[3, 1, 3, 5])),
            StateError::Extent { name: "0.weight".into(), expected: 3, found: 5 }
        );
        assert_eq!(
            edit(&|s| s[4].tensor = Tensor::zeros(&[2])),
            StateError::Extent { name: "1.running_mean".into(), expected: 3, found: 2 }
        );
        assert_eq!(edit(&|s| s.push(s[0].clone())), StateError::Leftover { count: 1 });
    }
}
