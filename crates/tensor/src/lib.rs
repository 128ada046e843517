#![warn(missing_docs)]

//! # muse-tensor
//!
//! Dense, row-major, `f32` tensor substrate for the MUSE-Net reproduction.
//!
//! The crate deliberately keeps a small surface: contiguous tensors, numpy
//! style broadcasting, matrix multiplication, and the im2row-based 2-D
//! convolution kernels that the CNN encoders of MUSE-Net and its baselines
//! are built from. Everything is CPU-only `f32`; the training workloads in
//! this repository are sized for that.
//!
//! ## Conventions
//!
//! * Tensors are always contiguous in row-major (C) order. Operations that
//!   would produce a view (`transpose`, `permute`, slicing) materialize a new
//!   tensor instead — simplicity over zero-copy, which profiling showed is
//!   irrelevant at the grid sizes used here.
//! * Shape errors are programming errors and panic with a descriptive
//!   message; fallible variants are provided (`try_*`) where a caller may
//!   reasonably recover (e.g. parsing user-provided shapes).
//! * Broadcasting follows numpy rules: trailing dimensions are aligned, a
//!   dimension of 1 stretches.
//!
//! ```
//! use muse_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::full(&[2], 10.0);
//! let c = a.add(&b); // broadcast over rows
//! assert_eq!(c.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
//! ```

pub mod arena;
pub mod conv;
pub mod init;
pub mod linalg;
pub mod ops;
pub mod reduce;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use conv::Conv2dSpec;
pub use shape::{broadcast_shapes, Shape, ShapeError};
pub use tensor::Tensor;
