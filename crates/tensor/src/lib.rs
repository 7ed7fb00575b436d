//! Dense tensor and neural-network math for the Spyker reproduction.
//!
//! The paper trains its models with PyTorch; this crate is the from-scratch
//! substitute. It provides a row-major [`Matrix`] type with the linear-algebra
//! kernels needed by the model zoo in `spyker-models` (matrix products,
//! activations, softmax/cross-entropy, im2col convolution helpers) plus
//! deterministic weight initialisation.
//!
//! The crate is deliberately small and allocation-transparent: everything is
//! `Vec<f32>` under the hood, there is no autograd — models in
//! `spyker-models` write their backward passes explicitly and are verified
//! against finite differences in tests.
//!
//! # Example
//!
//! ```
//! use spyker_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

// `deny` rather than `forbid`: the worker pool in `pool` is the one module
// allowed to opt back in (lifetime erasure for scoped parallel jobs).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod quant;
pub mod reduce;
pub mod scratch;

pub use conv::{col2im, col2im_into, im2col, im2col_into, Conv2dShape, MaxPool2d};
pub use init::{he_init, sample_normal, sample_standard_normal, xavier_init};
pub use matrix::Matrix;
pub use ops::{
    apply_relu_grad_mask, cross_entropy_from_logits, cross_entropy_from_logits_into,
    log_softmax_rows, relu, relu_grad_mask, relu_into, scalar_sigmoid, sigmoid, softmax_rows,
    softmax_rows_into, tanh_deriv_from_output,
};
pub use quant::{
    dequantize_into, pack_nibbles, quantize_into, top_k_indices, top_k_indices_with, unpack_nibbles,
};
pub use reduce::{
    coordinate_median, coordinate_trimmed_mean, median_inplace, trimmed_mean_inplace,
};
pub use scratch::Scratch;
