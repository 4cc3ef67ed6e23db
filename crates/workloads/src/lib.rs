//! # alia-workloads — AutoIndy-like automotive benchmark kernels
//!
//! The paper's Table 1 reports the geometric mean of "the 6 available
//! AutoIndy benchmarks". The EEMBC sources are licensed, so this crate
//! implements the *documented function* of each kernel from scratch in
//! TIR: angle-to-time conversion, calibration-table interpolation,
//! tooth-to-spark timing, PWM, road speed and CAN frame decoding, plus
//! `bitmnp` and `matrix` as extras. Each kernel ships a deterministic
//! input generator and a pure-Rust reference implementation; the TIR is
//! validated against the reference in this crate's tests, and the
//! compiled machine code is validated against the TIR downstream.
//!
//! # Examples
//!
//! ```
//! use alia_workloads::{autoindy, all_kernels};
//! let suite = autoindy();
//! assert_eq!(suite.len(), 6);
//! for k in &suite {
//!     // interpreter and reference agree
//!     assert_eq!(k.run_interp(1, 32), k.run_reference(1, 32));
//! }
//! assert_eq!(all_kernels().len(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod kernel;
mod kernels;

pub use kernel::{masked, rng, Kernel, DATA_BASE};
pub use kernels::{all_kernels, autoindy, kernel_by_name};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_matches_its_reference() {
        for k in all_kernels() {
            for seed in [0u64, 1, 42, 0xDEAD] {
                k.verify(seed, 64);
            }
        }
    }

    #[test]
    fn kernels_are_seed_deterministic() {
        for k in all_kernels() {
            assert_eq!(k.run_interp(7, 32), k.run_interp(7, 32), "{}", k.name);
        }
    }

    #[test]
    fn different_seeds_differ() {
        // Sanity: the generators actually vary with the seed.
        let k = all_kernels().remove(0);
        assert_ne!(k.run_interp(1, 64), k.run_interp(2, 64));
    }

    #[test]
    fn edge_element_counts() {
        for k in all_kernels() {
            k.verify(5, 1);
            if k.name != "matrix" {
                k.verify(5, 2);
            }
        }
    }

    #[test]
    fn autoindy_is_subset_of_all() {
        let all: Vec<&str> = all_kernels().iter().map(|k| k.name).collect();
        for k in autoindy() {
            assert!(all.contains(&k.name));
        }
    }

    #[test]
    fn kernel_by_name_builds_the_same_kernel_as_the_suite() {
        for k in all_kernels() {
            let named = kernel_by_name(k.name).expect("every suite name resolves");
            assert_eq!(
                (named.name, named.description, &named.module, named.default_elems),
                (k.name, k.description, &k.module, k.default_elems)
            );
            let input = (k.gen_input)(7, 16);
            assert_eq!((named.gen_input)(7, 16), input, "{}", k.name);
            assert_eq!((named.reference)(&input, 16), (k.reference)(&input, 16), "{}", k.name);
        }
        assert!(kernel_by_name("nosuch").is_none());
        assert!(kernel_by_name("").is_none());
    }

    #[test]
    fn kernel_metadata_consistent() {
        for k in all_kernels() {
            assert!(!k.description.is_empty());
            assert!(k.default_elems > 0);
            assert!(k.module.func_by_name(k.name).is_some(), "{} entry missing", k.name);
            assert!(k.input_len(4) > 0);
            assert!(k.output_base(4) > DATA_BASE);
        }
    }
}
