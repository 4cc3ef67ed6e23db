//! Whole-module compilation driver.

use std::collections::HashMap;

use alia_isa::{encode, Instr, IsaMode};
use alia_tir::Module;

use crate::layout::size_function;
use crate::lower::lower_function;
use crate::softops::{lower_soft_ops, TargetFeatures};
use crate::{CodegenError, CodegenOptions};

/// Per-function statistics of a compiled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncStats {
    /// Function name.
    pub name: String,
    /// Offset of the function within the program image.
    pub offset: u32,
    /// Size in bytes (code + literal pool + tables).
    pub size: u32,
    /// Literal-pool bytes.
    pub pool_bytes: u32,
    /// Instructions emitted.
    pub instr_count: u32,
}

/// A fully-linked program image for one ISA mode.
///
/// Load `bytes` at `base_addr` in the simulator, point `pc` at
/// [`CompiledProgram::entry_address`] and set up `sp`; the program follows
/// the ALIA ABI (arguments in `r0..r3`, result in `r0`).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The encoding the program uses.
    pub mode: IsaMode,
    /// The address the image must be loaded at.
    pub base_addr: u32,
    /// The image.
    pub bytes: Vec<u8>,
    /// Function name to offset.
    pub symbols: HashMap<String, u32>,
    /// Per-function statistics.
    pub funcs: Vec<FuncStats>,
}

impl CompiledProgram {
    /// Total code size in bytes — the paper's Table 1 metric.
    #[must_use]
    pub fn code_size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// The absolute address of `name`.
    ///
    /// # Panics
    ///
    /// Panics when the function does not exist.
    #[must_use]
    pub fn entry_address(&self, name: &str) -> u32 {
        self.base_addr
            + *self
                .symbols
                .get(name)
                .unwrap_or_else(|| panic!("no function `{name}` in program"))
    }

    /// Total literal-pool bytes across functions.
    #[must_use]
    pub fn pool_bytes(&self) -> u32 {
        self.funcs.iter().map(|f| f.pool_bytes).sum()
    }
}

/// Compiles a TIR module to machine code for `mode`.
///
/// The module is first rewritten by
/// [`lower_soft_ops`](crate::lower_soft_ops) so that divides and
/// bit-reverses unavailable in `mode` become runtime-library calls.
///
/// # Errors
///
/// Returns [`CodegenError`] when lowering or layout fails.
pub fn compile(
    module: &Module,
    mode: IsaMode,
    opts: &CodegenOptions,
) -> Result<CompiledProgram, CodegenError> {
    alia_tir::validate(module).map_err(|e| CodegenError {
        func: e.func.clone(),
        mode,
        msg: format!("invalid TIR: {e}"),
    })?;
    let features = match mode {
        IsaMode::T2 => TargetFeatures::t2(),
        IsaMode::A32 | IsaMode::T16 => TargetFeatures::classic(),
    };
    let (module, _) = lower_soft_ops(module, features);

    // Lower every function, then relax each once. A function whose
    // literal pool lands beyond PC-relative range is retried with
    // synthesized constants instead of pool loads.
    let mut lowered = Vec::with_capacity(module.funcs.len());
    for f in &module.funcs {
        lowered.push(lower_function(f, mode, opts)?);
    }
    let mut sized = Vec::with_capacity(lowered.len());
    for (f, lf) in module.funcs.iter().zip(lowered) {
        sized.push(match size_function(lf, mode) {
            Ok(s) => s,
            Err(e) if e.msg.contains("literal out of range") => {
                let retry_opts = CodegenOptions { synthesize_consts: true, ..*opts };
                size_function(lower_function(f, mode, &retry_opts)?, mode)?
            }
            Err(e) => return Err(e),
        });
    }
    // Place functions (sizes are address-independent), then emit each
    // once at its address: only absolute jump tables read it.
    let mut offsets = Vec::with_capacity(sized.len());
    let mut at = 0u32;
    for s in &sized {
        offsets.push(at);
        at += s.size();
    }
    let mut laid = Vec::with_capacity(sized.len());
    for (s, off) in sized.iter().zip(&offsets) {
        laid.push(s.emit(opts.base_addr + off)?);
    }

    // Concatenate and patch calls.
    let mut bytes = vec![0u8; at as usize];
    let mut symbols = HashMap::new();
    let mut funcs = Vec::new();
    for (lof, off) in laid.iter().zip(&offsets) {
        let o = *off as usize;
        bytes[o..o + lof.bytes.len()].copy_from_slice(&lof.bytes);
        symbols.insert(lof.name.clone(), *off);
        funcs.push(FuncStats {
            name: lof.name.clone(),
            offset: *off,
            size: lof.bytes.len() as u32,
            pool_bytes: lof.pool_bytes,
            instr_count: lof.instr_count,
        });
    }
    for (lof, off) in laid.iter().zip(&offsets) {
        for reloc in &lof.relocs {
            let callee_off = offsets[reloc.func.0 as usize];
            let site = off + reloc.offset;
            let rel = callee_off as i64 - i64::from(site);
            let bl = Instr::Bl { offset: rel as i32 };
            let e = encode(&bl, mode).map_err(|e| CodegenError {
                func: lof.name.clone(),
                mode,
                msg: format!("call out of range: {e}"),
            })?;
            let s = site as usize;
            bytes[s..s + e.len() as usize].copy_from_slice(e.as_bytes());
        }
    }

    Ok(CompiledProgram { mode, base_addr: opts.base_addr, bytes, symbols, funcs })
}
