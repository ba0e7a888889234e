//! # nm-train
//!
//! A pure-Rust reproduction of the *training side* of the paper's
//! pipeline at proxy scale: the combined training-and-pruning scheme of
//! Zhou et al. 2021 (**SR-STE** — sparse-refined straight-through
//! estimator) applied to a small MLP on a synthetic classification task.
//!
//! The paper trains ResNet18/CIFAR-100 and ViT-S/CIFAR-10 for 200 GPU
//! epochs; that is substituted here (see DESIGN.md) by a task small
//! enough to train in seconds while exhibiting the paper's qualitative
//! accuracy result: **1:4 and 1:8 match the dense baseline, 1:16 loses
//! about a point**. `nm-bench`'s `accuracy` binary prints the proxy
//! numbers next to the paper's Table 2 accuracies (DESIGN.md).

// Indexed loops in this crate deliberately mirror the register-level
// structure of the kernels / math notation of the paper.
#![allow(clippy::needless_range_loop)]

pub mod data;
pub mod mlp;
pub mod srste;

pub use data::Dataset;
pub use mlp::Mlp;
pub use srste::{train, TrainConfig, TrainResult};
