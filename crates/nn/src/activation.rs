//! Parameter-free activation layers: ReLU and (inverted) dropout.

use fedmp_tensor::{seeded_rng, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Rectified linear unit, applied elementwise.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReLU {
    #[serde(skip)]
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// A fresh ReLU layer.
    pub fn new() -> Self {
        ReLU { mask: None }
    }

    /// Forward pass.
    pub fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let mask: Vec<bool> = input.data().iter().map(|&v| v > 0.0).collect();
        let out = input.map(|v| if v > 0.0 { v } else { 0.0 });
        self.mask = Some(mask);
        out
    }

    /// Backward pass: zeroes gradients where the input was non-positive.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        relu_mask_select(grad_out, self.mask.as_ref().expect("relu backward before forward"))
    }
}

/// The ReLU gradient: `grad_out` where `mask` is set, `+0.0` elsewhere,
/// written into a fresh tensor.
///
/// The select compiles to a branchless blend. It must stay a select: a
/// multiply by a 0/1 mask would turn a masked negative gradient into
/// `-0.0` (and a masked infinity into NaN), changing bits downstream.
pub(crate) fn relu_mask_select(grad_out: &Tensor, mask: &[bool]) -> Tensor {
    assert_eq!(mask.len(), grad_out.numel(), "relu backward: shape changed");
    let data: Vec<f32> =
        grad_out.data().iter().zip(mask).map(|(&g, &keep)| if keep { g } else { 0.0 }).collect();
    Tensor::from_vec(data, grad_out.dims()).expect("same element count as grad_out")
}

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so inference is
/// a no-op.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    #[serde(skip, default = "default_dropout_rng")]
    rng: StdRng,
    #[serde(skip)]
    mask: Option<Vec<f32>>,
}

fn default_dropout_rng() -> StdRng {
    seeded_rng(0)
}

impl Dropout {
    /// A dropout layer with drop probability `p`, seeded for
    /// reproducibility.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout { p, rng: seeded_rng(seed), mask: None }
    }

    /// Forward pass.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        if !training || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..input.numel())
            .map(|_| if self.rng.gen::<f32>() < keep { scale } else { 0.0 })
            .collect();
        let mut out = input.clone();
        for (v, &m) in out.data_mut().iter_mut().zip(mask.iter()) {
            *v *= m;
        }
        self.mask = Some(mask);
        out
    }

    /// Backward pass: applies the same mask to the gradient.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_out.clone(),
            Some(mask) => {
                assert_eq!(mask.len(), grad_out.numel(), "dropout backward: shape changed");
                let mut g = grad_out.clone();
                for (v, &m) in g.data_mut().iter_mut().zip(mask.iter()) {
                    *v *= m;
                }
                g
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = relu.backward(&Tensor::ones(&[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_masked_negative_gradient_is_positive_zero() {
        let mut relu = ReLU::new();
        relu.forward(&Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[4]).unwrap(), true);
        let g = relu
            .backward(&Tensor::from_vec(vec![-5.0, -0.5, -7.0, f32::NEG_INFINITY], &[4]).unwrap());
        let bits: Vec<u32> = g.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [0.0f32.to_bits(), 0.0f32.to_bits(), (-7.0f32).to_bits(), 0.0f32.to_bits()]
        );
    }

    #[test]
    fn dropout_inference_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, false);
        assert_eq!(y, x);
        // Backward without a mask passes gradients through unchanged.
        assert_eq!(d.backward(&x), x);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones(&[20_000]);
        let y = d.forward(&x, true);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Dropped positions propagate zero gradient.
        let g = d.backward(&Tensor::ones(&[20_000]));
        for (gv, yv) in g.data().iter().zip(y.data().iter()) {
            assert_eq!(*gv == 0.0, *yv == 0.0);
        }
    }

    #[test]
    fn dropout_zero_p_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 3);
        let x = Tensor::ones(&[8]);
        assert_eq!(d.forward(&x, true), x);
    }
}
