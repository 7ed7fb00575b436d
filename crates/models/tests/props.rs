//! Property-based tests for the model zoo.

use proptest::prelude::*;
use spyker_models::linear::SoftmaxRegression;
use spyker_models::lstm::CharLstm;
use spyker_models::mlp::Mlp;
use spyker_models::model::{DenseModel, SeqModel};
use spyker_tensor::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// write/read round-trips are the identity for arbitrary parameter
    /// contents, for every dense architecture.
    #[test]
    fn dense_param_round_trip(
        features in 1usize..12,
        classes in 2usize..8,
        hidden in 1usize..10,
        seed in 0u64..100,
    ) {
        let models: Vec<Box<dyn DenseModel>> = vec![
            Box::new(SoftmaxRegression::new(features, classes, seed)),
            Box::new(Mlp::new(&[features, hidden, classes], seed)),
        ];
        for mut model in models {
            let flat = model.params_vec();
            prop_assert_eq!(flat.len(), model.num_params());
            // Perturb deterministically, then restore.
            let perturbed: Vec<f32> = flat.iter().map(|v| v + 1.0).collect();
            model.read_params(&perturbed);
            prop_assert_eq!(model.params_vec(), perturbed.clone());
            model.read_params(&flat);
            prop_assert_eq!(model.params_vec(), flat);
        }
    }

    /// The LSTM's parameter layout round-trips too.
    #[test]
    fn lstm_param_round_trip(
        vocab in 2usize..12,
        embed in 1usize..6,
        hidden in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut model = CharLstm::new(vocab, embed, hidden, seed);
        let flat = model.params_vec();
        prop_assert_eq!(flat.len(), model.num_params());
        let doubled: Vec<f32> = flat.iter().map(|v| v * 2.0).collect();
        model.read_params(&doubled);
        prop_assert_eq!(model.params_vec(), doubled);
    }

    /// Evaluation is pure w.r.t. the parameters: calling it twice gives
    /// identical results and leaves the parameters untouched (it may reuse
    /// internal scratch buffers, hence `mut`).
    #[test]
    fn eval_is_pure(seed in 0u64..100, batch in 1usize..8) {
        let mut model = SoftmaxRegression::new(6, 4, seed);
        let data: Vec<f32> = (0..batch * 6)
            .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f32 / 500.0 - 1.0)
            .collect();
        let x = Matrix::from_vec(batch, 6, data);
        let y: Vec<usize> = (0..batch).map(|i| i % 4).collect();
        let before = model.params_vec();
        let a = model.eval_batch(&x, &y);
        let b = model.eval_batch(&x, &y);
        prop_assert_eq!(a, b);
        prop_assert_eq!(model.params_vec(), before);
    }

    /// One SGD step at a tiny learning rate never increases the loss on
    /// the same batch (descent property of a correct gradient).
    #[test]
    fn small_steps_descend(seed in 0u64..60) {
        let mut model = Mlp::new(&[5, 8, 3], seed);
        let data: Vec<f32> = (0..30)
            .map(|i| ((i as u64 * 40503 + seed) % 1000) as f32 / 500.0 - 1.0)
            .collect();
        let x = Matrix::from_vec(6, 5, data);
        let y = vec![0usize, 1, 2, 0, 1, 2];
        let before = model.eval_batch(&x, &y).0;
        model.train_batch(&x, &y, 1e-3);
        let after = model.eval_batch(&x, &y).0;
        prop_assert!(after <= before + 1e-5, "loss rose: {before} -> {after}");
    }

    /// Training at learning rate zero is a no-op on the parameters.
    #[test]
    fn zero_lr_is_identity(seed in 0u64..60) {
        let mut model = SoftmaxRegression::new(4, 3, seed);
        let before = model.params_vec();
        let x = Matrix::from_vec(2, 4, vec![0.5; 8]);
        model.train_batch(&x, &[0, 2], 0.0);
        prop_assert_eq!(model.params_vec(), before);
    }
}
