//! A small multi-layer perceptron regressor trained with Adam.
//!
//! Used two ways in the reproduction: as the "MLP fitting" baseline of
//! Tab. 2 and as one of the Interference Modeler's candidate learners.
//! The network is fully connected with tanh activations and a linear
//! output; inputs and the target are standardized internally.
//!
//! Weights are stored flat and row-major per layer, and training runs
//! in a workspace sized once per fit, so the epoch loop performs no
//! allocation. Every floating-point operation keeps the order of the
//! straightforward nested-`Vec` formulation (same `dot` folds, same
//! per-sample accumulation, same Adam update order): a trained model's
//! predictions are bit-for-bit those of that formulation, pinned by
//! `golden_prediction_bits` below.

use simcore::SimRng;

use crate::regressor::{Dataset, Regressor, Standardizer};

/// One dense layer: `y = W x + b` with optional tanh.
#[derive(Clone, Debug)]
struct Layer {
    /// `[out][in]`, flattened row-major.
    weights: Vec<f64>,
    biases: Vec<f64>,
    inputs: usize,
    tanh: bool,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, tanh: bool, rng: &mut SimRng) -> Self {
        // Xavier-style initialization, drawn row by row.
        let scale = (2.0 / (inputs + outputs) as f64).sqrt();
        Layer {
            weights: (0..outputs * inputs)
                .map(|_| (rng.f64() * 2.0 - 1.0) * scale)
                .collect(),
            biases: vec![0.0; outputs],
            inputs,
            tanh,
        }
    }

    fn outputs(&self) -> usize {
        self.biases.len()
    }

    /// Writes the layer's activations for input `x` into `out`.
    ///
    /// Each output is `dot(row, x) + b`, its dot product folded over the
    /// inputs in order exactly as [`crate::linalg::dot`] folds it; the
    /// outputs' folds advance together, one input at a time, so the
    /// independent accumulations overlap instead of waiting on each
    /// other.
    fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.inputs);
        out.fill(fold_start());
        for (j, &xj) in x.iter().enumerate() {
            let column = self.weights[j..].iter().step_by(self.inputs);
            for (acc, &w) in out.iter_mut().zip(column) {
                *acc += w * xj;
            }
        }
        for (y, &b) in out.iter_mut().zip(&self.biases) {
            let z = *y + b;
            *y = if self.tanh { z.tanh() } else { z };
        }
    }
}

/// The starting value of an `f64` [`Iterator::sum`] fold (the neutral
/// element it adds onto), so hand-written folds match `sum()` bit for
/// bit, signed zeros included.
fn fold_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Adam optimizer state for one parameter tensor.
#[derive(Clone, Debug)]
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    fn new(len: usize) -> Self {
        Adam {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// Per-fit training buffers, one entry per layer, sized at construction.
struct Workspace {
    /// Each layer's output activations for the current sample.
    post: Vec<Vec<f64>>,
    /// Each layer's pre-activation gradient for the current sample.
    dz: Vec<Vec<f64>>,
    /// Batch-accumulated weight gradients (row-major like the weights).
    w_grads: Vec<Vec<f64>>,
    /// Batch-accumulated bias gradients.
    b_grads: Vec<Vec<f64>>,
    /// Adam state for each layer's `(weights, biases)`.
    adams: Vec<(Adam, Adam)>,
}

impl Workspace {
    fn new(layers: &[Layer]) -> Self {
        let per_out = |l: &Layer| vec![0.0; l.outputs()];
        Workspace {
            post: layers.iter().map(per_out).collect(),
            dz: layers.iter().map(per_out).collect(),
            w_grads: layers.iter().map(|l| vec![0.0; l.weights.len()]).collect(),
            b_grads: layers.iter().map(per_out).collect(),
            adams: layers
                .iter()
                .map(|l| (Adam::new(l.weights.len()), Adam::new(l.outputs())))
                .collect(),
        }
    }
}

/// A trained MLP regressor.
#[derive(Clone, Debug)]
pub struct MlpRegressor {
    layers: Vec<Layer>,
    standardizer: Standardizer,
    target_mean: f64,
    target_std: f64,
}

impl MlpRegressor {
    /// Trains an MLP with the given hidden-layer widths.
    ///
    /// `epochs` full passes of mini-batch (size 8) Adam at learning rate
    /// `lr`. Returns `None` for an empty dataset.
    pub fn train(
        data: &Dataset,
        hidden: &[usize],
        epochs: usize,
        lr: f64,
        rng: &mut SimRng,
    ) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let standardizer = Standardizer::fit(&data.features);
        let xs = standardizer.apply_all(&data.features);
        let target_mean = data.targets.iter().sum::<f64>() / data.len() as f64;
        let target_std = (data
            .targets
            .iter()
            .map(|&t| (t - target_mean).powi(2))
            .sum::<f64>()
            / data.len() as f64)
            .sqrt()
            .max(1e-9);
        let ys: Vec<f64> = data
            .targets
            .iter()
            .map(|&t| (t - target_mean) / target_std)
            .collect();

        let mut net_rng = rng.fork("mlp-init");
        let mut dims = vec![data.width()];
        dims.extend_from_slice(hidden);
        dims.push(1);
        let mut layers: Vec<Layer> = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Layer::new(w[0], w[1], i + 2 < dims.len(), &mut net_rng))
            .collect();

        let mut ws = Workspace::new(&layers);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut shuffle_rng = rng.fork("mlp-shuffle");
        const BATCH: usize = 8;

        for _ in 0..epochs {
            shuffle_rng.shuffle(&mut order);
            for chunk in order.chunks(BATCH) {
                train_batch(&mut layers, &mut ws, &xs, &ys, chunk, lr);
            }
        }

        Some(MlpRegressor {
            layers,
            standardizer,
            target_mean,
            target_std,
        })
    }
}

/// One mini-batch: accumulates per-sample gradients in batch order,
/// then applies one Adam step per tensor.
fn train_batch(
    layers: &mut [Layer],
    ws: &mut Workspace,
    xs: &[Vec<f64>],
    ys: &[f64],
    batch: &[usize],
    lr: f64,
) {
    for g in ws.w_grads.iter_mut().chain(ws.b_grads.iter_mut()) {
        g.fill(0.0);
    }
    let out = layers.len() - 1;
    for &i in batch {
        // Forward pass, caching every layer's output.
        for (l, layer) in layers.iter().enumerate() {
            let (below, rest) = ws.post.split_at_mut(l);
            let input: &[f64] = if l == 0 { &xs[i] } else { &below[l - 1] };
            layer.forward_into(input, &mut rest[0]);
        }
        // d(MSE)/d(pred), per-example.
        ws.dz[out][0] = 2.0 * (ws.post[out][0] - ys[i]) / batch.len() as f64;

        // Backward pass: on entry `dz[l]` holds the gradient w.r.t.
        // layer l's output; it becomes the pre-activation gradient.
        for (l, layer) in layers.iter().enumerate().rev() {
            if layer.tanh {
                // tanh' = 1 − tanh², from the cached forward output.
                for (d, &p) in ws.dz[l].iter_mut().zip(&ws.post[l]) {
                    *d *= 1.0 - p.powi(2);
                }
            }
            let input: &[f64] = if l == 0 { &xs[i] } else { &ws.post[l - 1] };
            let in_dim = layer.inputs;
            for (o, &dzo) in ws.dz[l].iter().enumerate() {
                ws.b_grads[l][o] += dzo;
                let grads = &mut ws.w_grads[l][o * in_dim..(o + 1) * in_dim];
                for (g, &xj) in grads.iter_mut().zip(input) {
                    *g += dzo * xj;
                }
            }
            // Propagate to the previous layer's output: the gradient
            // w.r.t. input j folds `dz[o] * W[o][j]` over o in order,
            // all inputs' folds advancing together row by row.
            if l > 0 {
                let (below, rest) = ws.dz.split_at_mut(l);
                let delta = &mut below[l - 1];
                delta.fill(fold_start());
                for (row, &dzo) in layer.weights.chunks_exact(in_dim).zip(&rest[0]) {
                    for (d, &w) in delta.iter_mut().zip(row) {
                        *d += dzo * w;
                    }
                }
            }
        }
    }

    // Apply Adam updates.
    for ((layer, (w_adam, b_adam)), (w_grads, b_grads)) in layers
        .iter_mut()
        .zip(&mut ws.adams)
        .zip(ws.w_grads.iter().zip(&ws.b_grads))
    {
        w_adam.step(&mut layer.weights, w_grads, lr);
        b_adam.step(&mut layer.biases, b_grads, lr);
    }
}

impl Regressor for MlpRegressor {
    fn predict(&self, features: &[f64]) -> f64 {
        let mut x = self.standardizer.apply(features);
        let mut y = Vec::new();
        for layer in &self.layers {
            y.clear();
            y.resize(layer.outputs(), 0.0);
            layer.forward_into(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
        }
        x[0] * self.target_std + self.target_mean
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_function() {
        let mut d = Dataset::new();
        for i in 0..60 {
            let x = i as f64 / 10.0;
            d.push(vec![x], 3.0 * x - 2.0);
        }
        let mut rng = SimRng::seed(1);
        let m = MlpRegressor::train(&d, &[8], 300, 0.01, &mut rng).unwrap();
        for probe in [0.5, 2.5, 5.0] {
            let truth = 3.0 * probe - 2.0;
            let pred = m.predict(&[probe]);
            assert!(
                (pred - truth).abs() < 0.8,
                "at {probe}: pred {pred}, truth {truth}"
            );
        }
    }

    #[test]
    fn learns_nonlinear_function() {
        let mut d = Dataset::new();
        for i in 0..80 {
            let x = i as f64 / 8.0;
            d.push(vec![x], (x).sin() * 2.0);
        }
        let mut rng = SimRng::seed(2);
        let m = MlpRegressor::train(&d, &[16, 16], 500, 0.01, &mut rng).unwrap();
        let mut err = 0.0;
        for i in 0..20 {
            let x = 0.25 + i as f64 / 2.0;
            err += (m.predict(&[x]) - x.sin() * 2.0).abs();
        }
        assert!(err / 20.0 < 0.35, "mean abs err {}", err / 20.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut d = Dataset::new();
        for i in 0..20 {
            d.push(vec![i as f64], i as f64 * 2.0);
        }
        let a = MlpRegressor::train(&d, &[4], 50, 0.01, &mut SimRng::seed(9)).unwrap();
        let b = MlpRegressor::train(&d, &[4], 50, 0.01, &mut SimRng::seed(9)).unwrap();
        assert_eq!(a.predict(&[3.0]), b.predict(&[3.0]));
    }

    /// Prediction bits recorded from the nested-`Vec` implementation
    /// this flat, workspace-based one replaced. A 37-row set leaves a
    /// short final mini-batch, and the two shapes cover the modeler's
    /// production network (`[16, 16]`, 120 epochs) and a one-hidden-
    /// layer net. Any change to the order of floating-point operations
    /// in the forward, backward or Adam step shows up here.
    #[test]
    fn golden_prediction_bits() {
        let mut d = Dataset::new();
        for i in 0..37 {
            let x = i as f64;
            d.push(
                vec![x * 0.3, x.sin(), (i % 7) as f64],
                (x * 0.2).cos() * 3.0 + x * 0.05,
            );
        }
        let deep = MlpRegressor::train(&d, &[16, 16], 120, 0.02, &mut SimRng::seed(42)).unwrap();
        let shallow = MlpRegressor::train(&d, &[5], 7, 0.05, &mut SimRng::seed(7)).unwrap();
        let probes = [
            [0.0, 0.0, 0.0],
            [1.5, -0.5, 3.0],
            [10.0, 0.9, 6.0],
            [-2.0, 2.0, 9.0],
        ];
        let expect: [(u64, u64); 4] = [
            (0x40074d4b5720394f, 0x3fc6c29c60f7a888),
            (0x3ff98000904c828e, 0x3fb6b7d52e970380),
            (0x4012db64988647c4, 0x400a43c3e52613bc),
            (0x400b83cd9cda1d96, 0x3f9cba36aba6fc00),
        ];
        for (p, &(d_bits, s_bits)) in probes.iter().zip(&expect) {
            assert_eq!(deep.predict(p).to_bits(), d_bits, "[16, 16] at {p:?}");
            assert_eq!(shallow.predict(p).to_bits(), s_bits, "[5] at {p:?}");
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut rng = SimRng::seed(1);
        assert!(MlpRegressor::train(&Dataset::new(), &[4], 10, 0.01, &mut rng).is_none());
    }
}
