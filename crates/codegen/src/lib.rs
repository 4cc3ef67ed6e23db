//! # alia-codegen — compiling TIR to the three ALIA encodings
//!
//! The paper's Table 1 compares *compiled* automotive kernels across the
//! `A32`, `T16` and `T2` encodings of one ISA. This crate is the compiler:
//! it lowers [`alia_tir`] modules with per-encoding idioms (IT blocks vs.
//! conditional execution vs. branch ladders; `TBB` vs. jump tables vs.
//! compare chains; `MOVW`/`MOVT` vs. literal pools; hardware divide vs. a
//! runtime library), runs linear-scan register allocation under each
//! encoding's register constraints, and emits linked machine code.
//!
//! # Examples
//!
//! Compile one function for all three encodings and compare code size:
//!
//! ```
//! use alia_codegen::{compile, CodegenOptions};
//! use alia_isa::IsaMode;
//! use alia_tir::{FunctionBuilder, Module, BinOp};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = FunctionBuilder::new("triple", 1);
//! let x = f.param(0);
//! let r = f.bin(BinOp::Mul, x, 3u32);
//! f.ret(Some(r.into()));
//! let mut m = Module::new();
//! m.add_function(f.build());
//!
//! let opts = CodegenOptions::default();
//! let a32 = compile(&m, IsaMode::A32, &opts)?;
//! let t16 = compile(&m, IsaMode::T16, &opts)?;
//! assert!(t16.code_size() < a32.code_size());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod layout;
mod lower;
mod program;
mod softops;

use std::fmt;

use alia_isa::IsaMode;

pub use alloc::{allocate, Allocation, Loc, RegPlan};
pub use layout::{size_function, CallReloc, LaidOutFunction, SizedFunction};
pub use lower::{lower_function, Item, LoweredFunction};
pub use program::{compile, CompiledProgram, FuncStats};
pub use softops::{lower_soft_ops, RuntimeFuncs, TargetFeatures};

/// How 32-bit constants that do not fit an immediate are materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstStrategy {
    /// `MOVW`/`MOVT` pairs — keeps instruction fetch sequential (§2.2).
    /// Only available in `T2`; other modes fall back to the pool.
    MovwMovt,
    /// PC-relative loads from a per-function literal pool — the classic
    /// scheme whose data fetches break flash streaming (§2.2).
    LiteralPool,
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodegenOptions {
    /// Address the image will be loaded at.
    pub base_addr: u32,
    /// Constant materialization strategy for `T2` (ignored elsewhere:
    /// `A32`/`T16` always use literal pools).
    pub const_strategy: ConstStrategy,
    /// Whether to use predication for selects — IT blocks in `T2`,
    /// conditional execution in `A32`. Disabling forces branch diamonds
    /// everywhere (the ablation for the paper's §2.3 IT-block argument).
    pub predication: bool,
    /// Synthesize out-of-immediate constants from byte pieces (`MOV`+`ORR`
    /// chains) instead of using a literal pool. Normally left `false`; the
    /// compiler retries a function with this set when its literal pool
    /// ends up beyond PC-relative range (very large function bodies).
    pub synthesize_consts: bool,
}

impl Default for CodegenOptions {
    fn default() -> CodegenOptions {
        CodegenOptions {
            base_addr: 0x100,
            const_strategy: ConstStrategy::MovwMovt,
            predication: true,
            synthesize_consts: false,
        }
    }
}

/// An error produced while compiling a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    /// Function being compiled.
    pub func: String,
    /// Target mode.
    pub mode: IsaMode,
    /// Description.
    pub msg: String,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compiling `{}` for {}: {}", self.func, self.mode, self.msg)
    }
}

impl std::error::Error for CodegenError {}
