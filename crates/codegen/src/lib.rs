//! Lowering from partitioned graphs to device programs.
//!
//! This crate is HTVM's code-generation layer (paper §III, Fig. 1): after
//! the pattern matcher has carved accelerator regions out of the graph,
//! lowering
//!
//! 1. extracts each matched chain into a normalized accelerator layer
//!    ([`extract`]) — geometry, weights, bias, requantization parameters,
//! 2. runs the DORY tiling solver for the target engine's memory budget and
//!    bakes the solution into an [`htvm_soc::AccelLayerDesc`],
//! 3. fuses leftover CPU operators into linear kernels the way TVM's
//!    native lowering pipeline does ([`fuse_cpu_nodes`]),
//! 4. emits the single sequential entry function as an
//!    [`htvm_soc::Program`], together with the L2 activation memory
//!    schedule (reusing buffers, or deliberately *not* reusing them for the
//!    plain-TVM baseline — which is how the paper's MobileNet
//!    out-of-memory case arises), and
//! 5. models the deployed binary size ([`binsize`]): runtime, per-kernel
//!    code, and weight storage including the analog IMC padding the paper
//!    discusses in §IV-C.
//!
//! The public entry point is [`lower`]; [`single_layer_program`] builds
//! one-layer programs for the Fig. 4/Fig. 5 characterization benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
pub mod binsize;
mod error;
mod extract;
mod fuse;
mod lower;
mod single;

pub use artifact::{Artifact, CompileStats, LayerAssignment};
pub use error::LowerError;
pub use extract::{extract, ExtractedLayer};
pub use fuse::fuse_cpu_nodes;
pub use lower::{lower, LowerOptions};
pub use single::single_layer_program;
