//! The Adam optimizer used to train the refinement network.

use super::mlp::Mlp;

/// Adam optimizer state for an [`Mlp`].
///
/// # Example
///
/// ```
/// use volut_core::nn::{Adam, Mlp};
/// let mut mlp = Mlp::new(&[2, 4, 1], 1);
/// let mut adam = Adam::new(&mlp, 1e-2);
/// mlp.zero_grad();
/// mlp.backward_mse(&[0.5, -0.5], &[1.0]);
/// adam.step(&mut mlp);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step: u64,
    /// First-moment estimates, one pair (weights, bias) per layer.
    moment1: Vec<(Vec<f32>, Vec<f32>)>,
    /// Second-moment estimates.
    moment2: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Creates an optimizer matching the shape of `mlp` with the standard
    /// Adam hyperparameters (β1 = 0.9, β2 = 0.999, ε = 1e-8).
    pub fn new(mlp: &Mlp, learning_rate: f32) -> Self {
        let moment1 = mlp
            .layers()
            .iter()
            .map(|l| (vec![0.0; l.weights.len()], vec![0.0; l.bias.len()]))
            .collect::<Vec<_>>();
        let moment2 = moment1.clone();
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step: 0,
            moment1,
            moment2,
        }
    }

    /// Applies one Adam update using the gradients currently accumulated in
    /// `mlp`, then leaves the gradients untouched (call
    /// [`Mlp::zero_grad`] before the next accumulation).
    ///
    /// # Panics
    /// Panics when `mlp` has a different shape than the network this
    /// optimizer was created for.
    pub fn step(&mut self, mlp: &mut Mlp) {
        assert_eq!(
            mlp.layers().len(),
            self.moment1.len(),
            "optimizer and network layer counts differ"
        );
        self.step += 1;
        let b1t = 1.0 - self.beta1.powi(self.step as i32);
        let b2t = 1.0 - self.beta2.powi(self.step as i32);
        for (layer_idx, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let (m_w, m_b) = &mut self.moment1[layer_idx];
            let (v_w, v_b) = &mut self.moment2[layer_idx];
            assert_eq!(
                m_w.len(),
                layer.weights.len(),
                "optimizer and layer weight shapes differ"
            );
            for i in 0..layer.weights.len() {
                let g = layer.grad_weights[i];
                m_w[i] = self.beta1 * m_w[i] + (1.0 - self.beta1) * g;
                v_w[i] = self.beta2 * v_w[i] + (1.0 - self.beta2) * g * g;
                let m_hat = m_w[i] / b1t;
                let v_hat = v_w[i] / b2t;
                layer.weights[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
            for i in 0..layer.bias.len() {
                let g = layer.grad_bias[i];
                m_b[i] = self.beta1 * m_b[i] + (1.0 - self.beta1) * g;
                v_b[i] = self.beta2 * v_b[i] + (1.0 - self.beta2) * g * g;
                let m_hat = m_b[i] / b1t;
                let v_hat = v_b[i] / b2t;
                layer.bias[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizes_a_simple_regression() {
        // Learn y = x0 - x1 from random samples.
        let mut mlp = Mlp::new(&[2, 16, 1], 3);
        let mut adam = Adam::new(&mlp, 5e-3);
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<([f32; 2], [f32; 1])> = (0..256)
            .map(|_| {
                let x0: f32 = rng.random_range(-1.0..1.0);
                let x1: f32 = rng.random_range(-1.0..1.0);
                ([x0, x1], [x0 - x1])
            })
            .collect();
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for epoch in 0..60 {
            let mut total = 0.0;
            for (x, y) in &data {
                mlp.zero_grad();
                total += mlp.backward_mse(x, y);
                adam.step(&mut mlp);
            }
            let mean = total / data.len() as f32;
            if epoch == 0 {
                first_loss = mean;
            }
            last_loss = mean;
        }
        assert!(
            last_loss < first_loss * 0.2,
            "loss did not decrease: {first_loss} -> {last_loss}"
        );
        assert!(last_loss < 0.05);
    }

    #[test]
    #[should_panic(expected = "layer counts differ")]
    fn shape_mismatch_panics() {
        let mlp_a = Mlp::new(&[2, 2, 1], 1);
        let mut mlp_b = Mlp::new(&[2, 3, 3, 1], 1);
        let mut adam = Adam::new(&mlp_a, 1e-3);
        adam.step(&mut mlp_b);
    }
}
