//! Finite-difference gradient checks across random layer configurations
//! — the ground truth every hand-written backward pass must match.

use fedmp_nn::{zoo, BatchNorm2d, Conv2d, LayerNode, Linear, LstmLm, MaxPool2d, ReLU, Sequential};
use fedmp_tensor::{cross_entropy_loss, seeded_rng, Tensor};
use proptest::prelude::*;

/// Central-difference gradient of the CE loss w.r.t. one weight.
fn numeric_grad(
    model: &Sequential,
    x: &Tensor,
    labels: &[usize],
    param_path: impl Fn(&mut Sequential) -> &mut f32,
    eps: f32,
) -> f32 {
    let mut mp = model.clone();
    *param_path(&mut mp) += eps;
    let lp = cross_entropy_loss(&mp.forward(x, true), labels).loss;
    let mut mm = model.clone();
    *param_path(&mut mm) -= eps;
    let lm = cross_entropy_loss(&mm.forward(x, true), labels).loss;
    (lp - lm) / (2.0 * eps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conv_relu_pool_linear_gradients(seed in 0u64..2000, oc in 2usize..5) {
        let mut rng = seeded_rng(seed);
        let mut model = Sequential::new(vec![
            LayerNode::Conv2d(Conv2d::new(1, oc, 3, 1, 1, &mut rng)),
            LayerNode::ReLU(ReLU::new()),
            LayerNode::MaxPool2d(MaxPool2d::new(2)),
            LayerNode::Flatten(fedmp_nn::Flatten::new()),
            LayerNode::Linear(Linear::new(oc * 4 * 4, 3, &mut rng)),
        ]);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        let labels = vec![0usize, 2];

        model.zero_grad();
        let out = cross_entropy_loss(&model.forward(&x, true), &labels);
        model.backward(&out.grad_logits);

        // Check a handful of conv weights against finite differences.
        let analytic: Vec<f32> = match &model.layers[0] {
            LayerNode::Conv2d(c) => c.weight.grad.data().to_vec(),
            _ => unreachable!(),
        };
        for idx in [0usize, 3, 7] {
            let grad_at = |eps: f32| {
                numeric_grad(&model, &x, &labels, |m| {
                    match &mut m.layers[0] {
                        LayerNode::Conv2d(c) => &mut c.weight.value.data_mut()[idx],
                        _ => unreachable!(),
                    }
                }, eps)
            };
            // The max-pool argmax is a kink: when the ±eps interval
            // crosses a pooling-winner change, central differences are
            // meaningless (they average the two slopes). Detect kinks by
            // comparing two step sizes and skip those coordinates.
            let num_a = grad_at(1e-2);
            let num_b = grad_at(4e-3);
            let kink = (num_a - num_b).abs() > 0.02 + 0.1 * num_a.abs();
            if kink {
                continue;
            }
            prop_assert!(
                (num_b - analytic[idx]).abs() < 5e-2 + 0.15 * num_b.abs(),
                "conv grad {}: numeric {} vs analytic {}", idx, num_b, analytic[idx]
            );
        }
    }

    #[test]
    fn batchnorm_gamma_gradients(seed in 0u64..2000) {
        let mut rng = seeded_rng(seed);
        let mut model = Sequential::new(vec![
            LayerNode::Conv2d(Conv2d::new(1, 3, 3, 1, 1, &mut rng)),
            LayerNode::BatchNorm2d(BatchNorm2d::new(3)),
            LayerNode::ReLU(ReLU::new()),
            LayerNode::Flatten(fedmp_nn::Flatten::new()),
            LayerNode::Linear(Linear::new(3 * 6 * 6, 2, &mut rng)),
        ]);
        let x = Tensor::randn(&[3, 1, 6, 6], &mut rng);
        let labels = vec![0usize, 1, 0];

        model.zero_grad();
        let out = cross_entropy_loss(&model.forward(&x, true), &labels);
        model.backward(&out.grad_logits);

        let analytic: Vec<f32> = match &model.layers[1] {
            LayerNode::BatchNorm2d(b) => b.gamma.grad.data().to_vec(),
            _ => unreachable!(),
        };
        for (idx, &a) in analytic.iter().enumerate() {
            let num = numeric_grad(&model, &x, &labels, |m| {
                match &mut m.layers[1] {
                    LayerNode::BatchNorm2d(b) => &mut b.gamma.value.data_mut()[idx],
                    _ => unreachable!(),
                }
            }, 1e-2);
            prop_assert!(
                (num - a).abs() < 2e-2,
                "gamma grad {}: numeric {} vs analytic {}", idx, num, a
            );
        }
    }

    #[test]
    fn linear_bias_gradients(seed in 0u64..2000, classes in 2usize..6) {
        let mut rng = seeded_rng(seed);
        let mut model = Sequential::new(vec![
            LayerNode::Linear(Linear::new(5, classes, &mut rng)),
        ]);
        let x = Tensor::randn(&[4, 5], &mut rng);
        let labels: Vec<usize> = (0..4).map(|i| i % classes).collect();

        model.zero_grad();
        let out = cross_entropy_loss(&model.forward(&x, true), &labels);
        model.backward(&out.grad_logits);

        let analytic: Vec<f32> = match &model.layers[0] {
            LayerNode::Linear(l) => l.bias.grad.data().to_vec(),
            _ => unreachable!(),
        };
        for (idx, &a) in analytic.iter().enumerate() {
            let num = numeric_grad(&model, &x, &labels, |m| {
                match &mut m.layers[0] {
                    LayerNode::Linear(l) => &mut l.bias.value.data_mut()[idx],
                    _ => unreachable!(),
                }
            }, 1e-3);
            prop_assert!((num - a).abs() < 1e-2);
        }
    }
}

/// Central-difference gradient of the LM loss w.r.t. one scalar of
/// parameter group `pi` (in `for_each_param_mut` order), element `ei`.
fn lstm_numeric_grad(
    lm: &LstmLm,
    tokens: &[Vec<usize>],
    targets: &[usize],
    pi: usize,
    ei: usize,
    eps: f32,
) -> f32 {
    let eval = |delta: f32| {
        let mut m = lm.clone();
        let mut idx = 0usize;
        m.for_each_param_mut(&mut |p| {
            if idx == pi {
                p.value.data_mut()[ei] += delta;
            }
            idx += 1;
        });
        cross_entropy_loss(&m.forward(tokens), targets).loss
    };
    (eval(eps) - eval(-eps)) / (2.0 * eps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conv weight AND bias gradients on a pooling-free path. Unlike the
    /// max-pool stack above, conv → flatten → linear → CE is smooth in
    /// every parameter, so central differences converge without kink
    /// detection and the tolerance can be tight.
    #[test]
    fn conv_gradients_on_smooth_path(seed in 0u64..2000, ic in 1usize..3) {
        let mut rng = seeded_rng(seed);
        let mut model = Sequential::new(vec![
            LayerNode::Conv2d(Conv2d::new(ic, 3, 3, 1, 1, &mut rng)),
            LayerNode::Flatten(fedmp_nn::Flatten::new()),
            LayerNode::Linear(Linear::new(3 * 6 * 6, 3, &mut rng)),
        ]);
        let x = Tensor::randn(&[2, ic, 6, 6], &mut rng);
        let labels = vec![1usize, 2];

        model.zero_grad();
        let out = cross_entropy_loss(&model.forward(&x, true), &labels);
        model.backward(&out.grad_logits);

        let (analytic_w, analytic_b) = match &model.layers[0] {
            LayerNode::Conv2d(c) => (c.weight.grad.data().to_vec(), c.bias.grad.data().to_vec()),
            _ => unreachable!(),
        };
        let n_w = analytic_w.len();
        for idx in [0usize, n_w / 2, n_w - 1] {
            let num = numeric_grad(&model, &x, &labels, |m| {
                match &mut m.layers[0] {
                    LayerNode::Conv2d(c) => &mut c.weight.value.data_mut()[idx],
                    _ => unreachable!(),
                }
            }, 1e-2);
            prop_assert!(
                (num - analytic_w[idx]).abs() < 1e-2 + 0.05 * num.abs(),
                "conv weight grad {}: numeric {} vs analytic {}", idx, num, analytic_w[idx]
            );
        }
        for (idx, &a) in analytic_b.iter().enumerate() {
            let num = numeric_grad(&model, &x, &labels, |m| {
                match &mut m.layers[0] {
                    LayerNode::Conv2d(c) => &mut c.bias.value.data_mut()[idx],
                    _ => unreachable!(),
                }
            }, 1e-2);
            prop_assert!(
                (num - a).abs() < 1e-2 + 0.05 * num.abs(),
                "conv bias grad {}: numeric {} vs analytic {}", idx, num, a
            );
        }
    }

    /// Full BPTT gradients of the stacked-LSTM language model: one
    /// coordinate from every parameter group (embedding, both LSTMs'
    /// w_x / w_h / bias, decoder weight and bias) against central
    /// differences of the sequence CE loss.
    #[test]
    fn lstm_lm_bptt_gradients(seed in 0u64..2000) {
        const VOCAB: usize = 7;
        let mut rng = seeded_rng(seed);
        let mut lm = LstmLm::new(VOCAB, 4, 5, 2, &mut rng);

        // batch 2 × seq 3, tokens and targets derived from the seed.
        let s = seed as usize;
        let tokens: Vec<Vec<usize>> =
            (0..2).map(|b| (0..3).map(|t| (s + 3 * b + 5 * t) % VOCAB).collect()).collect();
        // Targets in the same time-major order the logits are stacked in.
        let targets: Vec<usize> = (0..6).map(|i| (s + 7 * i + 1) % VOCAB).collect();

        lm.zero_grad();
        let out = cross_entropy_loss(&lm.forward(&tokens), &targets);
        lm.backward(&out.grad_logits);

        let mut analytic: Vec<Vec<f32>> = Vec::new();
        lm.for_each_param_mut(&mut |p| analytic.push(p.grad.data().to_vec()));

        for (pi, grads) in analytic.iter().enumerate() {
            // First, middle and last coordinate of each group.
            for &ei in &[0usize, grads.len() / 2, grads.len() - 1] {
                let num = lstm_numeric_grad(&lm, &tokens, &targets, pi, ei, 1e-2);
                prop_assert!(
                    (num - grads[ei]).abs() < 2e-2 + 0.1 * num.abs(),
                    "lstm param {} elem {}: numeric {} vs analytic {}", pi, ei, num, grads[ei]
                );
            }
        }
    }
}

/// `backward_params` skips only the model-input gradient, so every
/// parameter gradient must match `backward` bit for bit — over two
/// accumulated steps, on the zoo models local training runs.
#[test]
fn backward_params_matches_backward_bitwise() {
    let mut rng = seeded_rng(90);
    for (name, model, input) in [
        ("cnn_mnist", zoo::cnn_mnist(0.25, &mut rng), [2, 1, 28, 28]),
        ("alexnet_cifar", zoo::alexnet_cifar(0.1, &mut rng), [2, 3, 32, 32]),
        ("resnet_tiny", zoo::resnet_tiny(0.1, &mut rng), [2, 3, 64, 64]),
    ] {
        let batches: Vec<Tensor> = (0..2).map(|_| Tensor::randn(&input, &mut rng)).collect();
        let grad_bits = |params_only: bool| {
            let mut m = model.clone();
            for x in &batches {
                let out = cross_entropy_loss(&m.forward(x, true), &[0, 1]);
                if params_only {
                    m.backward_params(&out.grad_logits);
                } else {
                    m.backward(&out.grad_logits);
                }
            }
            let mut bits = Vec::new();
            m.for_each_param_mut(&mut |p| bits.extend(p.grad.data().iter().map(|v| v.to_bits())));
            bits
        };
        let full = grad_bits(false);
        assert!(full.iter().any(|&b| b != 0), "{name}: no gradient reached the parameters");
        assert_eq!(full, grad_bits(true), "{name}: parameter gradients differ");
    }
}
