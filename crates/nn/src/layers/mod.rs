//! Neural-network layers with manual backpropagation: the ones the
//! paper's models use. The Table I trunk is three [`ConvBlock`]s
//! (fused Conv → ReLU → MaxPool), [`Flatten`], [`Linear`] + [`Relu`],
//! and a [`Sigmoid`] selection head; the Algorithm 1 auto-encoder adds
//! [`Conv2d`] and [`Upsample2d`] in its decoder. [`MaxPool2d`] is the
//! unfused pooling half of [`ConvBlock`], kept as its reference.
//!
//! All layers implement [`crate::Layer`]. Convolutional layers expect
//! 4-D `[batch, channels, height, width]` tensors; [`Linear`] expects
//! 2-D `[batch, features]`; [`Flatten`] bridges the two.

mod activation;
mod conv;
mod conv_block;
pub(crate) mod conv_narrow;
mod linear;
mod pool;
mod shape;
mod upsample;

pub use activation::{stable_sigmoid, Relu, Sigmoid};
pub use conv::Conv2d;
pub use conv_block::ConvBlock;
pub use linear::Linear;
pub use pool::MaxPool2d;
pub use shape::Flatten;
pub use upsample::Upsample2d;
