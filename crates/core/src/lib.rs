//! # alia-core — umbrella API and experiment harness
//!
//! Reproduces Lyons, *"Meeting the Embedded Design Needs of Automotive
//! Applications"* (DATE 2005). The experiment table in [`experiments`]
//! is the full experiment index.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod experiments;
mod runner;

use std::fmt;

pub use runner::{
    compile_kernel, geometric_mean, machine_for, profile_kernel, run_kernel, run_kernel_cached,
    BlockProfileRow, KernelRun, RunCache, STACK_TOP, TRAMPOLINE,
};

/// Re-exports of the component crates for one-stop usage.
pub mod prelude {
    pub use alia_can as can;
    pub use alia_codegen as codegen;
    pub use alia_isa as isa;
    pub use alia_obs as obs;
    pub use alia_rtos as rtos;
    pub use alia_sim as sim;
    pub use alia_tir as tir;
    pub use alia_workloads as workloads;
}

/// Errors surfaced by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Compilation failed.
    Compile(alia_codegen::CodegenError),
    /// A simulated run misbehaved.
    Run {
        /// Description.
        what: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Compile(e) => write!(f, "{e}"),
            CoreError::Run { what } => write!(f, "run failed: {what}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<alia_codegen::CodegenError> for CoreError {
    fn from(e: alia_codegen::CodegenError) -> CoreError {
        CoreError::Compile(e)
    }
}
