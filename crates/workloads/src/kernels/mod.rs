//! The kernel collection.

pub mod a2time;
pub mod bitmnp;
pub mod canrdr;
pub mod matrix;
pub mod puwmod;
pub mod rspeed;
pub mod tblook;
pub mod ttsprk;

use crate::kernel::Kernel;

/// Builds one kernel, TIR module included.
type Build = fn() -> Kernel;

/// Every kernel in the suite by entry-function name, each built only
/// when asked for: the AutoIndy six first, then `bitmnp` and `matrix`.
const SUITE: [(&str, Build); 8] = [
    ("a2time", a2time::kernel),
    ("tblook", tblook::kernel),
    ("ttsprk", ttsprk::kernel),
    ("puwmod", puwmod::kernel),
    ("rspeed", rspeed::kernel),
    ("canrdr", canrdr::kernel),
    ("bitmnp", bitmnp::kernel),
    ("matrix", matrix::kernel),
];

/// The six kernels used for the Table 1 reproduction — our stand-in for
/// the "6 available AutoIndy benchmarks" the paper's geometric mean is
/// computed over.
#[must_use]
pub fn autoindy() -> Vec<Kernel> {
    SUITE[..6].iter().map(|(_, build)| build()).collect()
}

/// Every kernel in the suite (the AutoIndy six plus `bitmnp` and
/// `matrix`).
#[must_use]
pub fn all_kernels() -> Vec<Kernel> {
    SUITE.iter().map(|(_, build)| build()).collect()
}

/// Looks a suite kernel up by entry-function name (e.g. `"rspeed"`) —
/// the handle task-set builders use to name task bodies. Only the named
/// kernel's TIR module is built.
#[must_use]
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    SUITE.iter().find(|(n, _)| *n == name).map(|(_, build)| build())
}
