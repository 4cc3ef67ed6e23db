//! Golden compiler outputs: every suite kernel compiled for A32, T16 and
//! T2, with default options and with `synthesize_consts`, at base 0 and
//! at E13's first task base (0x4000). Each row pins the image's byte
//! length, its FNV-1a and every function's offset and size, so a change
//! to liveness, allocation, lowering or layout that moves a single byte
//! of compiled code fails here.
//!
//! On a mismatch the test prints every row as it now compiles, in the
//! table's own syntax.

use alia_codegen::{compile, CodegenOptions};
use alia_isa::IsaMode;
use alia_workloads::all_kernels;

const MODES: [IsaMode; 3] = [IsaMode::A32, IsaMode::T16, IsaMode::T2];
const BASES: [u32; 2] = [0, 0x4000];

/// 64-bit FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// `(kernel, mode, synthesize_consts, base, length, fnv, functions)`,
/// the functions as `name@offset+size` in image order.
type Row = (&'static str, &'static str, bool, u32, usize, u64, &'static str);

const CASES: &[Row] = &[
    ("a2time", "A32", false, 0x0, 396, 0xff2f5b1bd189de6e, "a2time@0x0+224 __udiv@0xe0+172"),
    ("a2time", "A32", false, 0x4000, 396, 0xff2f5b1bd189de6e, "a2time@0x0+224 __udiv@0xe0+172"),
    ("a2time", "A32", true, 0x0, 396, 0x0b349236049c2515, "a2time@0x0+224 __udiv@0xe0+172"),
    ("a2time", "A32", true, 0x4000, 396, 0x0b349236049c2515, "a2time@0x0+224 __udiv@0xe0+172"),
    ("a2time", "T16", false, 0x0, 264, 0x22d2e43885943626, "a2time@0x0+164 __udiv@0xa4+100"),
    ("a2time", "T16", false, 0x4000, 264, 0x22d2e43885943626, "a2time@0x0+164 __udiv@0xa4+100"),
    ("a2time", "T16", true, 0x0, 288, 0x4cb1a8f4141bfbed, "a2time@0x0+184 __udiv@0xb8+104"),
    ("a2time", "T16", true, 0x4000, 288, 0x4cb1a8f4141bfbed, "a2time@0x0+184 __udiv@0xb8+104"),
    ("a2time", "T2", false, 0x0, 148, 0x5e208be4cd6a0dd1, "a2time@0x0+148"),
    ("a2time", "T2", false, 0x4000, 148, 0x5e208be4cd6a0dd1, "a2time@0x0+148"),
    ("a2time", "T2", true, 0x0, 148, 0x5e208be4cd6a0dd1, "a2time@0x0+148"),
    ("a2time", "T2", true, 0x4000, 148, 0x5e208be4cd6a0dd1, "a2time@0x0+148"),
    ("tblook", "A32", false, 0x0, 124, 0x1c8d9bb31ec61a64, "tblook@0x0+124"),
    ("tblook", "A32", false, 0x4000, 124, 0x1c8d9bb31ec61a64, "tblook@0x0+124"),
    ("tblook", "A32", true, 0x0, 124, 0xd7e957fc9af6219c, "tblook@0x0+124"),
    ("tblook", "A32", true, 0x4000, 124, 0xd7e957fc9af6219c, "tblook@0x0+124"),
    ("tblook", "T16", false, 0x0, 96, 0xed3dcb368977165c, "tblook@0x0+96"),
    ("tblook", "T16", false, 0x4000, 96, 0xed3dcb368977165c, "tblook@0x0+96"),
    ("tblook", "T16", true, 0x0, 108, 0xc52baeeb550b65b3, "tblook@0x0+108"),
    ("tblook", "T16", true, 0x4000, 108, 0xc52baeeb550b65b3, "tblook@0x0+108"),
    ("tblook", "T2", false, 0x0, 96, 0x3cc36c6e58b7acc9, "tblook@0x0+96"),
    ("tblook", "T2", false, 0x4000, 96, 0x3cc36c6e58b7acc9, "tblook@0x0+96"),
    ("tblook", "T2", true, 0x0, 96, 0x3cc36c6e58b7acc9, "tblook@0x0+96"),
    ("tblook", "T2", true, 0x4000, 96, 0x3cc36c6e58b7acc9, "tblook@0x0+96"),
    ("ttsprk", "A32", false, 0x0, 528, 0xe869f2ac0aa5dc6a, "ttsprk@0x0+356 __udiv@0x164+172"),
    ("ttsprk", "A32", false, 0x4000, 528, 0x75b88834507fe6aa, "ttsprk@0x0+356 __udiv@0x164+172"),
    ("ttsprk", "A32", true, 0x0, 532, 0xa85b11c223a5b30a, "ttsprk@0x0+360 __udiv@0x168+172"),
    ("ttsprk", "A32", true, 0x4000, 532, 0x868a58952c97424a, "ttsprk@0x0+360 __udiv@0x168+172"),
    ("ttsprk", "T16", false, 0x0, 360, 0x332371cd764f7c8c, "ttsprk@0x0+260 __udiv@0x104+100"),
    ("ttsprk", "T16", false, 0x4000, 360, 0x332371cd764f7c8c, "ttsprk@0x0+260 __udiv@0x104+100"),
    ("ttsprk", "T16", true, 0x0, 384, 0x835d1a2708f4ddd5, "ttsprk@0x0+280 __udiv@0x118+104"),
    ("ttsprk", "T16", true, 0x4000, 384, 0x835d1a2708f4ddd5, "ttsprk@0x0+280 __udiv@0x118+104"),
    ("ttsprk", "T2", false, 0x0, 228, 0xcf5ea021bc17a6d0, "ttsprk@0x0+228"),
    ("ttsprk", "T2", false, 0x4000, 228, 0xcf5ea021bc17a6d0, "ttsprk@0x0+228"),
    ("ttsprk", "T2", true, 0x0, 228, 0xcf5ea021bc17a6d0, "ttsprk@0x0+228"),
    ("ttsprk", "T2", true, 0x4000, 228, 0xcf5ea021bc17a6d0, "ttsprk@0x0+228"),
    ("puwmod", "A32", false, 0x0, 204, 0x7bc7239626652ad0, "puwmod@0x0+204"),
    ("puwmod", "A32", false, 0x4000, 204, 0x7bc7239626652ad0, "puwmod@0x0+204"),
    ("puwmod", "A32", true, 0x0, 204, 0x7bc7239626652ad0, "puwmod@0x0+204"),
    ("puwmod", "A32", true, 0x4000, 204, 0x7bc7239626652ad0, "puwmod@0x0+204"),
    ("puwmod", "T16", false, 0x0, 136, 0xabd88577792c4982, "puwmod@0x0+136"),
    ("puwmod", "T16", false, 0x4000, 136, 0xabd88577792c4982, "puwmod@0x0+136"),
    ("puwmod", "T16", true, 0x0, 136, 0xabd88577792c4982, "puwmod@0x0+136"),
    ("puwmod", "T16", true, 0x4000, 136, 0xabd88577792c4982, "puwmod@0x0+136"),
    ("puwmod", "T2", false, 0x0, 92, 0x07cd918877c84047, "puwmod@0x0+92"),
    ("puwmod", "T2", false, 0x4000, 92, 0x07cd918877c84047, "puwmod@0x0+92"),
    ("puwmod", "T2", true, 0x0, 92, 0x07cd918877c84047, "puwmod@0x0+92"),
    ("puwmod", "T2", true, 0x4000, 92, 0x07cd918877c84047, "puwmod@0x0+92"),
    ("rspeed", "A32", false, 0x0, 404, 0xe0700d1d8bbb2cc9, "rspeed@0x0+232 __udiv@0xe8+172"),
    ("rspeed", "A32", false, 0x4000, 404, 0xe0700d1d8bbb2cc9, "rspeed@0x0+232 __udiv@0xe8+172"),
    ("rspeed", "A32", true, 0x0, 412, 0x9627af630205b5aa, "rspeed@0x0+240 __udiv@0xf0+172"),
    ("rspeed", "A32", true, 0x4000, 412, 0x9627af630205b5aa, "rspeed@0x0+240 __udiv@0xf0+172"),
    ("rspeed", "T16", false, 0x0, 288, 0xcc31394a25af2e56, "rspeed@0x0+188 __udiv@0xbc+100"),
    ("rspeed", "T16", false, 0x4000, 288, 0xcc31394a25af2e56, "rspeed@0x0+188 __udiv@0xbc+100"),
    ("rspeed", "T16", true, 0x0, 320, 0xd3bcc75d35257ddf, "rspeed@0x0+216 __udiv@0xd8+104"),
    ("rspeed", "T16", true, 0x4000, 320, 0xd3bcc75d35257ddf, "rspeed@0x0+216 __udiv@0xd8+104"),
    ("rspeed", "T2", false, 0x0, 168, 0x2d2c25e6890ac2a6, "rspeed@0x0+168"),
    ("rspeed", "T2", false, 0x4000, 168, 0x2d2c25e6890ac2a6, "rspeed@0x0+168"),
    ("rspeed", "T2", true, 0x0, 168, 0x2d2c25e6890ac2a6, "rspeed@0x0+168"),
    ("rspeed", "T2", true, 0x4000, 168, 0x2d2c25e6890ac2a6, "rspeed@0x0+168"),
    ("canrdr", "A32", false, 0x0, 248, 0xd0382d2fa132ffed, "canrdr@0x0+248"),
    ("canrdr", "A32", false, 0x4000, 248, 0xe19cc2e25cd145ad, "canrdr@0x0+248"),
    ("canrdr", "A32", true, 0x0, 248, 0xee50878262fe03f0, "canrdr@0x0+248"),
    ("canrdr", "A32", true, 0x4000, 248, 0x15b3b91494947930, "canrdr@0x0+248"),
    ("canrdr", "T16", false, 0x0, 184, 0x1e09fac216438959, "canrdr@0x0+184"),
    ("canrdr", "T16", false, 0x4000, 184, 0x1e09fac216438959, "canrdr@0x0+184"),
    ("canrdr", "T16", true, 0x0, 188, 0x4f56ea6c777dacd5, "canrdr@0x0+188"),
    ("canrdr", "T16", true, 0x4000, 188, 0x4f56ea6c777dacd5, "canrdr@0x0+188"),
    ("canrdr", "T2", false, 0x0, 140, 0xd22554c6f4de20da, "canrdr@0x0+140"),
    ("canrdr", "T2", false, 0x4000, 140, 0xd22554c6f4de20da, "canrdr@0x0+140"),
    ("canrdr", "T2", true, 0x0, 140, 0xd22554c6f4de20da, "canrdr@0x0+140"),
    ("canrdr", "T2", true, 0x4000, 140, 0xd22554c6f4de20da, "canrdr@0x0+140"),
    ("bitmnp", "A32", false, 0x0, 344, 0xab160ef459147e56, "bitmnp@0x0+164 __bitrev@0xa4+180"),
    ("bitmnp", "A32", false, 0x4000, 344, 0xab160ef459147e56, "bitmnp@0x0+164 __bitrev@0xa4+180"),
    ("bitmnp", "A32", true, 0x0, 412, 0x43ce1bf166f1bf38, "bitmnp@0x0+164 __bitrev@0xa4+248"),
    ("bitmnp", "A32", true, 0x4000, 412, 0x43ce1bf166f1bf38, "bitmnp@0x0+164 __bitrev@0xa4+248"),
    ("bitmnp", "T16", false, 0x0, 244, 0x9b91356eb4587022, "bitmnp@0x0+112 __bitrev@0x70+132"),
    ("bitmnp", "T16", false, 0x4000, 244, 0x9b91356eb4587022, "bitmnp@0x0+112 __bitrev@0x70+132"),
    ("bitmnp", "T16", true, 0x0, 336, 0x93ab2b0a70b6aa26, "bitmnp@0x0+112 __bitrev@0x70+224"),
    ("bitmnp", "T16", true, 0x4000, 336, 0x93ab2b0a70b6aa26, "bitmnp@0x0+112 __bitrev@0x70+224"),
    ("bitmnp", "T2", false, 0x0, 68, 0x8f604db20f9d3774, "bitmnp@0x0+68"),
    ("bitmnp", "T2", false, 0x4000, 68, 0x8f604db20f9d3774, "bitmnp@0x0+68"),
    ("bitmnp", "T2", true, 0x0, 68, 0x8f604db20f9d3774, "bitmnp@0x0+68"),
    ("bitmnp", "T2", true, 0x4000, 68, 0x8f604db20f9d3774, "bitmnp@0x0+68"),
    ("matrix", "A32", false, 0x0, 256, 0x52c6d5308f0680a9, "matrix@0x0+256"),
    ("matrix", "A32", false, 0x4000, 256, 0x52c6d5308f0680a9, "matrix@0x0+256"),
    ("matrix", "A32", true, 0x0, 256, 0x52c6d5308f0680a9, "matrix@0x0+256"),
    ("matrix", "A32", true, 0x4000, 256, 0x52c6d5308f0680a9, "matrix@0x0+256"),
    ("matrix", "T16", false, 0x0, 220, 0x8a87324530d7fa29, "matrix@0x0+220"),
    ("matrix", "T16", false, 0x4000, 220, 0x8a87324530d7fa29, "matrix@0x0+220"),
    ("matrix", "T16", true, 0x0, 220, 0x8a87324530d7fa29, "matrix@0x0+220"),
    ("matrix", "T16", true, 0x4000, 220, 0x8a87324530d7fa29, "matrix@0x0+220"),
    ("matrix", "T2", false, 0x0, 200, 0xce9a2d1f8b0d7366, "matrix@0x0+200"),
    ("matrix", "T2", false, 0x4000, 200, 0xce9a2d1f8b0d7366, "matrix@0x0+200"),
    ("matrix", "T2", true, 0x0, 200, 0xce9a2d1f8b0d7366, "matrix@0x0+200"),
    ("matrix", "T2", true, 0x4000, 200, 0xce9a2d1f8b0d7366, "matrix@0x0+200"),
];

#[test]
fn every_suite_kernel_compiles_to_its_recorded_image() {
    let mut expected = CASES.iter();
    let mut mismatches = 0;
    let mut table = String::new();
    for kernel in all_kernels() {
        for mode in MODES {
            for synth in [false, true] {
                for base in BASES {
                    let opts = CodegenOptions {
                        base_addr: base,
                        synthesize_consts: synth,
                        ..CodegenOptions::default()
                    };
                    let prog = compile(&kernel.module, mode, &opts).expect("suite kernel compiles");
                    let funcs: Vec<String> = prog
                        .funcs
                        .iter()
                        .map(|f| format!("{}@{:#x}+{}", f.name, f.offset, f.size))
                        .collect();
                    let funcs = funcs.join(" ");
                    let (len, hash) = (prog.bytes.len(), fnv(&prog.bytes));
                    let row = format!(
                        "    ({:?}, \"{mode}\", {synth}, {base:#x}, {len}, {hash:#018x}, {funcs:?}),\n",
                        kernel.name
                    );
                    let matches = expected.next().is_some_and(|e| {
                        (e.0, e.1, e.2, e.3, e.4, e.5, e.6)
                            == (kernel.name, &*mode.to_string(), synth, base, len, hash, &*funcs)
                    });
                    if !matches {
                        mismatches += 1;
                    }
                    table.push_str(&row);
                }
            }
        }
    }
    mismatches += expected.count();
    assert_eq!(mismatches, 0, "{mismatches} rows differ; the table now reads:\n{table}");
}
