//! Neural-network layers with manual backpropagation.
//!
//! All layers implement [`crate::Layer`]. Convolutional layers expect
//! 4-D `[batch, channels, height, width]` tensors; [`Linear`] expects
//! 2-D `[batch, features]`; [`Flatten`] bridges the two.

mod activation;
mod avgpool;
mod batchnorm;
mod conv;
mod conv_block;
pub(crate) mod conv_narrow;
mod convtranspose;
mod dropout;
mod linear;
mod pool;
mod shape;
mod upsample;

pub use activation::{stable_sigmoid, Relu, Sigmoid, Tanh};
pub use avgpool::AvgPool2d;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use conv_block::ConvBlock;
pub use convtranspose::ConvTranspose2d;
pub use dropout::Dropout;
pub use linear::Linear;
pub use pool::MaxPool2d;
pub use shape::Flatten;
pub use upsample::Upsample2d;
