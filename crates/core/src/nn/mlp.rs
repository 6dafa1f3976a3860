//! Dense layers and a ReLU multi-layer perceptron with backpropagation.

use rand::prelude::*;
use rand::rngs::StdRng;

/// A fully connected layer `y = W x + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Row-major weights with shape `(out_dim, in_dim)`.
    pub weights: Vec<f32>,
    /// Bias vector of length `out_dim`.
    pub bias: Vec<f32>,
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// Accumulated weight gradients (same layout as `weights`).
    pub grad_weights: Vec<f32>,
    /// Accumulated bias gradients.
    pub grad_bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer with He-style random initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / in_dim as f32).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Self {
            weights,
            bias: vec![0.0; out_dim],
            in_dim,
            out_dim,
            grad_weights: vec![0.0; in_dim * out_dim],
            grad_bias: vec![0.0; out_dim],
        }
    }

    /// Forward pass for a single input vector.
    ///
    /// # Panics
    /// Panics in debug builds when `input.len() != in_dim`.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        debug_assert_eq!(input.len(), self.in_dim);
        let mut out = self.bias.clone();
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = 0.0f32;
            for (w, x) in row.iter().zip(input.iter()) {
                acc += w * x;
            }
            *out_v += acc;
        }
        out
    }

    /// Forward pass writing into a reusable output buffer (cleared first).
    pub fn forward_into(&self, input: &[f32], out: &mut Vec<f32>) {
        debug_assert_eq!(input.len(), self.in_dim);
        out.clear();
        out.extend_from_slice(&self.bias);
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = 0.0f32;
            for (w, x) in row.iter().zip(input.iter()) {
                acc += w * x;
            }
            *out_v += acc;
        }
    }

    /// GEMM-style forward over a transposed micro-batch: `xt` holds the
    /// inputs lane-major (`in_dim × b`, i.e. `xt[i * b + l]` is feature `i`
    /// of point `l`) and `yt` receives the outputs in the same layout
    /// (`out_dim × b`). With the batch as the contiguous lane dimension the
    /// inner loop is a broadcast-multiply-accumulate the compiler
    /// vectorizes, and each weight row is read once per micro-batch instead
    /// of once per point.
    ///
    /// Per element the accumulation order is identical to
    /// [`Self::forward_into`] (features in order, bias added last), so the
    /// result is **bit-identical** to `b` single-point passes.
    ///
    /// # Panics
    /// Panics in debug builds when `xt.len() != in_dim * b`.
    pub fn forward_batch_t(&self, xt: &[f32], b: usize, yt: &mut Vec<f32>) {
        debug_assert_eq!(xt.len(), self.in_dim * b);
        yt.clear();
        yt.resize(self.out_dim * b, 0.0);
        for (o, acc) in yt.chunks_exact_mut(b).enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            for (i, &w) in row.iter().enumerate() {
                let x = &xt[i * b..(i + 1) * b];
                for (a, &xv) in acc.iter_mut().zip(x.iter()) {
                    *a += w * xv;
                }
            }
            let bias = self.bias[o];
            #[allow(clippy::assign_op_pattern)] // written as `bias + acc` to mirror
            // `forward_into`'s exact operand order (the bit-identity contract)
            for a in acc.iter_mut() {
                *a = bias + *a;
            }
        }
    }

    /// Backward pass: accumulates gradients for this layer and returns the
    /// gradient with respect to the input.
    pub fn backward(&mut self, input: &[f32], grad_out: &[f32]) -> Vec<f32> {
        debug_assert_eq!(input.len(), self.in_dim);
        debug_assert_eq!(grad_out.len(), self.out_dim);
        let mut grad_in = vec![0.0f32; self.in_dim];
        for (o, &go) in grad_out.iter().enumerate() {
            self.grad_bias[o] += go;
            let row_start = o * self.in_dim;
            for i in 0..self.in_dim {
                self.grad_weights[row_start + i] += go * input[i];
                grad_in[i] += go * self.weights[row_start + i];
            }
        }
        grad_in
    }

    /// Clears the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weights.iter_mut().for_each(|g| *g = 0.0);
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

/// Reusable activation buffers for [`Mlp::forward_into`].
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    ping: Vec<f32>,
    pong: Vec<f32>,
}

/// Number of points processed per layer pass by [`Mlp::forward_batch_into`].
/// 32 lanes keep the whole transposed activation block of a 512-wide layer
/// (`512 × 32 × 4 B = 64 KB`) inside L2 while amortizing each weight-row
/// load across four AVX2 registers' worth of points.
pub const MICRO_BATCH: usize = 32;

/// Reusable transposed-activation buffers for [`Mlp::forward_batch_into`].
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    ping: Vec<f32>,
    pong: Vec<f32>,
}

/// A ReLU multi-layer perceptron.
///
/// # Example
///
/// ```
/// use volut_core::nn::Mlp;
/// let mlp = Mlp::new(&[4, 8, 2], 7);
/// let y = mlp.forward(&[0.1, -0.2, 0.3, 0.4]);
/// assert_eq!(y.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    dims: Vec<usize>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[12, 64, 64, 3]`.
    ///
    /// # Panics
    /// Panics when fewer than two dimensions are given or any dimension is zero.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least an input and an output dimension"
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "layer dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], &mut rng))
            .collect();
        Self {
            layers,
            dims: dims.to_vec(),
        }
    }

    /// The layer dimensions this network was built with.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        *self.dims.last().expect("dims is non-empty")
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Linear::parameter_count).sum()
    }

    /// Forward pass for a single input vector.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut scratch = ForwardScratch::default();
        self.forward_into(input, &mut scratch).to_vec()
    }

    /// Allocation-free forward pass: ping-pongs between the two scratch
    /// buffers and returns a slice of the final activations. The hot path
    /// of batched NN refinement — after warm-up it never touches the heap.
    pub fn forward_into<'s>(&self, input: &[f32], scratch: &'s mut ForwardScratch) -> &'s [f32] {
        scratch.ping.clear();
        scratch.ping.extend_from_slice(input);
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward_into(&scratch.ping, &mut scratch.pong);
            if i + 1 < self.layers.len() {
                scratch.pong.iter_mut().for_each(|v| *v = v.max(0.0));
            }
            std::mem::swap(&mut scratch.ping, &mut scratch.pong);
        }
        &scratch.ping
    }

    /// Batched forward pass: `inputs` holds `n` input vectors row-major
    /// (`n × in_dim`), `out` receives `n` output vectors row-major
    /// (`n × out_dim`, cleared first). Points are processed in
    /// [`MICRO_BATCH`]-sized micro-batches, each pushed through **all**
    /// layers (transposed to lane-major at the block edges) before the next
    /// block starts, so activations stay cache-resident and every weight row
    /// is streamed once per block instead of once per point.
    ///
    /// Results are bit-identical to `n` calls of [`Self::forward_into`]; the
    /// parity is asserted by tests because the batched refiners and the NN
    /// baselines rely on it.
    ///
    /// # Panics
    /// Panics when `inputs.len() != n * input_dim`.
    pub fn forward_batch_into(
        &self,
        inputs: &[f32],
        n: usize,
        out: &mut Vec<f32>,
        scratch: &mut BatchScratch,
    ) {
        let in_dim = self.input_dim();
        let out_dim = self.output_dim();
        assert_eq!(
            inputs.len(),
            n * in_dim,
            "inputs must hold n x input_dim values"
        );
        out.clear();
        out.resize(n * out_dim, 0.0);
        for block_start in (0..n).step_by(MICRO_BATCH) {
            let b = MICRO_BATCH.min(n - block_start);
            // Transpose the block to lane-major: ping[i * b + l] = feature i
            // of point block_start + l.
            scratch.ping.clear();
            scratch.ping.resize(in_dim * b, 0.0);
            for l in 0..b {
                let row = &inputs[(block_start + l) * in_dim..(block_start + l + 1) * in_dim];
                for (i, &v) in row.iter().enumerate() {
                    scratch.ping[i * b + l] = v;
                }
            }
            for (li, layer) in self.layers.iter().enumerate() {
                layer.forward_batch_t(&scratch.ping, b, &mut scratch.pong);
                if li + 1 < self.layers.len() {
                    scratch.pong.iter_mut().for_each(|v| *v = v.max(0.0));
                }
                std::mem::swap(&mut scratch.ping, &mut scratch.pong);
            }
            // Transpose back to row-major output.
            for l in 0..b {
                let row = &mut out[(block_start + l) * out_dim..(block_start + l + 1) * out_dim];
                for (o, slot) in row.iter_mut().enumerate() {
                    *slot = scratch.ping[o * b + l];
                }
            }
        }
    }

    /// Forward pass that keeps every intermediate activation (pre-ReLU
    /// outputs are clamped in place, so activations[i] is the *input* to
    /// layer i). Needed for backpropagation.
    fn forward_trace(&self, input: &[f32]) -> Vec<Vec<f32>> {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input.to_vec());
        let mut x = input.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(&x);
            if i + 1 < self.layers.len() {
                x.iter_mut().for_each(|v| *v = v.max(0.0));
            }
            activations.push(x.clone());
        }
        activations
    }

    /// Runs one backpropagation step for a single `(input, target)` pair
    /// using MSE loss, accumulating parameter gradients. Returns the loss.
    pub fn backward_mse(&mut self, input: &[f32], target: &[f32]) -> f32 {
        let activations = self.forward_trace(input);
        let output = activations.last().expect("trace includes output");
        debug_assert_eq!(output.len(), target.len());
        let n = output.len() as f32;
        let loss: f32 = output
            .iter()
            .zip(target.iter())
            .map(|(o, t)| (o - t) * (o - t))
            .sum::<f32>()
            / n;
        // dL/do = 2 (o - t) / n
        let mut grad: Vec<f32> = output
            .iter()
            .zip(target.iter())
            .map(|(o, t)| 2.0 * (o - t) / n)
            .collect();
        for i in (0..self.layers.len()).rev() {
            // The stored activation i+1 is post-ReLU for hidden layers; apply
            // the ReLU mask to the incoming gradient (derivative is 0 where
            // the activation is 0).
            if i + 1 < self.layers.len() {
                for (g, &a) in grad.iter_mut().zip(activations[i + 1].iter()) {
                    if a <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            grad = self.layers[i].backward(&activations[i], &grad);
        }
        loss
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.layers.iter_mut().for_each(Linear::zero_grad);
    }

    /// Mutable access to the layers (used by the optimizer).
    pub(crate) fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&[3, 5, 2], 1);
        assert_eq!(mlp.forward(&[1.0, 2.0, 3.0]).len(), 2);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        assert_eq!(mlp.parameter_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    #[should_panic(expected = "at least an input")]
    fn single_dim_panics() {
        let _ = Mlp::new(&[3], 1);
    }

    #[test]
    fn deterministic_initialization() {
        let a = Mlp::new(&[4, 8, 3], 42);
        let b = Mlp::new(&[4, 8, 3], 42);
        assert_eq!(
            a.forward(&[0.1, 0.2, 0.3, 0.4]),
            b.forward(&[0.1, 0.2, 0.3, 0.4])
        );
        let c = Mlp::new(&[4, 8, 3], 43);
        assert_ne!(
            a.forward(&[0.1, 0.2, 0.3, 0.4]),
            c.forward(&[0.1, 0.2, 0.3, 0.4])
        );
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut mlp = Mlp::new(&[2, 4, 1], 7);
        let input = [0.3f32, -0.7];
        let target = [0.25f32];
        mlp.zero_grad();
        mlp.backward_mse(&input, &target);
        // Check a handful of weight gradients against central differences.
        let eps = 1e-3f32;
        for layer_idx in 0..2 {
            for w_idx in [0usize, 1] {
                let analytic = mlp.layers()[layer_idx].grad_weights[w_idx];
                let mut plus = mlp.clone();
                plus.layers_mut()[layer_idx].weights[w_idx] += eps;
                let mut minus = mlp.clone();
                minus.layers_mut()[layer_idx].weights[w_idx] -= eps;
                let loss = |m: &Mlp| {
                    let o = m.forward(&input);
                    (o[0] - target[0]) * (o[0] - target[0])
                };
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 2e-2,
                    "layer {layer_idx} weight {w_idx}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    /// The GEMM-style batched forward must agree with the per-point path to
    /// exact f32 equality — the contract the batched refiners and baselines
    /// rely on for their own parity tests.
    #[test]
    fn forward_batch_matches_forward_into_exactly() {
        for dims in [&[12usize, 64, 64, 3][..], &[4, 7, 2], &[3, 33, 3]] {
            let mlp = Mlp::new(dims, 11);
            let in_dim = mlp.input_dim();
            let out_dim = mlp.output_dim();
            // Sizes around the micro-batch boundary: empty, one, partial,
            // exact and spill-over blocks.
            for n in [
                0usize,
                1,
                5,
                MICRO_BATCH - 1,
                MICRO_BATCH,
                MICRO_BATCH + 3,
                3 * MICRO_BATCH,
            ] {
                let inputs: Vec<f32> = (0..n * in_dim)
                    .map(|i| ((i as f32) * 0.37).sin() * 2.0 - 0.5)
                    .collect();
                let mut batched = Vec::new();
                let mut scratch = BatchScratch::default();
                mlp.forward_batch_into(&inputs, n, &mut batched, &mut scratch);
                assert_eq!(batched.len(), n * out_dim);
                let mut fwd = ForwardScratch::default();
                for p in 0..n {
                    let single = mlp.forward_into(&inputs[p * in_dim..(p + 1) * in_dim], &mut fwd);
                    assert_eq!(
                        &batched[p * out_dim..(p + 1) * out_dim],
                        single,
                        "dims {dims:?} n {n} point {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_grad_clears_gradients() {
        let mut mlp = Mlp::new(&[2, 3, 1], 3);
        mlp.backward_mse(&[1.0, 1.0], &[0.0]);
        assert!(mlp.layers()[0].grad_weights.iter().any(|&g| g != 0.0));
        mlp.zero_grad();
        assert!(mlp.layers()[0].grad_weights.iter().all(|&g| g == 0.0));
    }
}
