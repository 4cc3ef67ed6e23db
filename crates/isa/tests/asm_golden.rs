//! Golden assembler outputs: one row per accepted syntax form, each
//! assembled for A32, T16 and T2, with the bytes, symbols and error
//! messages pinned. A mode that rejects a form pins its error, so the
//! table also fixes which forms each mode accepts.
//!
//! The rows pin behaviour as it is. A condition suffix on a form whose
//! `Instr` carries no condition (`bleq`, `nopeq`, `svceq`, `cbzeq`...:
//! A32 defines some of these, the assembler does not encode them) is an
//! error, `[pc, #off]` is a literal load for a word `ldr` only (in any
//! case) and an error for every other load or store, `ITE EQ`
//! assembles as `ite eq` does, an AL `it` with an else slot (`ite al`,
//! UNPREDICTABLE in ARM) is an error, and an immediate outside its field's
//! range (a shift amount above 31, a bit-field outside 0..=31 / 1..=32,
//! an address offset beyond `i32`, an `svc`/`bkpt` immediate above 255)
//! is an error in every mode rather than a truncated encoding.
//!
//! On a mismatch the test prints every row as it now assembles, in the
//! table's own syntax.

use alia_isa::{Assembler, IsaMode};

const MODES: [IsaMode; 3] = [IsaMode::A32, IsaMode::T16, IsaMode::T2];

/// Bytes as hex, then `name=offset` per symbol in name order; or the
/// error as `Display` prints it.
fn render(src: &str, mode: IsaMode) -> String {
    match Assembler::new(mode).assemble(src) {
        Ok(out) => {
            let mut s: String = out.bytes.iter().map(|b| format!("{b:02x}")).collect();
            let mut syms: Vec<_> = out.symbols.iter().collect();
            syms.sort();
            for (name, off) in syms {
                s.push_str(&format!(" {name}={off}"));
            }
            s
        }
        Err(e) => format!("error: {e}"),
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// `(source, [A32, T16, T2])`.
const CASES: &[(&str, [&str; 3])] = &[
    // ALU: immediate, register, shifted and two-address operands.
    ("add r0, r1, #4", ["040081e2", "081d", "081d"]),
    ("adds r0, r1, r2", ["020091e0", "error: line 1: cannot encode `adds r0, r1, r2` in T16: does not fit the 16-bit encoding", "40ea0250"]),
    ("add r0, r1", ["010080e0", "4018", "4018"]),
    ("add r0, #1", ["010080e2", "401c", "401c"]),
    ("add r0, r1, r2, lsl #3", ["820181e0", "error: line 1: cannot encode `add r0, r1, r2, lsl #3` in T16: does not fit the 16-bit encoding", "00ea8251"]),
    ("add r8, r9, #0x100", ["018c89e2", "error: line 1: cannot encode `add r8, r9, #256` in T16: does not fit the 16-bit encoding", "22ea804f"]),
    ("add sp, sp, #16", ["10d08de2", "04b0", "04b0"]),
    ("sub sp, #8", ["08d04de2", "82b0", "82b0"]),
    ("add r0, pc, #4", ["04008fe2", "error: line 1: cannot encode `add r0, pc, #4` in T16: does not fit the 16-bit encoding", "03ea04c0"]),
    ("sub r3, r3, #255", ["ff3043e2", "ff3b", "ff3b"]),
    ("subs r1, r1, #1", ["011051e2", "error: line 1: cannot encode `subs r1, r1, #1` in T16: does not fit the 16-bit encoding", "44e90140"]),
    ("rsb r2, r3, #0", ["002063e2", "error: line 1: cannot encode `rsb r2, r3, #0` in T16: does not fit the 16-bit encoding", "88e900c0"]),
    ("and r0, r1, r2, lsr #1", ["a20001e0", "error: line 1: cannot encode `and r0, r1, r2, lsr #1` in T16: does not fit the 16-bit encoding", "00e8a250"]),
    ("orr r3, r3, r1, lsl #24", ["013c83e1", "error: line 1: cannot encode `orr r3, r3, r1, lsl #24` in T16: does not fit the 16-bit encoding", "0cee01dc"]),
    ("eor r4, r5, r6, asr r7", ["564725e0", "error: line 1: cannot encode `eor r4, r5, r6, asr r7` in T16: does not fit the 16-bit encoding", "error: line 1: cannot encode `eor r4, r5, r6, asr r7` in T2: register-shifted register requires A32"]),
    ("bic r0, r0, #0xff", ["ff00c0e3", "error: line 1: cannot encode `bic r0, r0, #255` in T16: does not fit the 16-bit encoding", "00efff00"]),
    ("bics r0, r0, r1", ["0100d0e1", "error: line 1: cannot encode `bics r0, r0, r1` in T16: does not fit the 16-bit encoding", "40ef0110"]),
    ("adc r1, r2, r3", ["0310a2e0", "error: line 1: cannot encode `adc r1, r2, r3` in T16: does not fit the 16-bit encoding", "84ea0390"]),
    ("sbcs r1, r1, r2", ["0210d1e0", "error: line 1: cannot encode `sbcs r1, r1, r2` in T16: does not fit the 16-bit encoding", "44eb0250"]),
    ("addeq r0, r0, #1", ["01008002", "error: line 1: cannot encode `addeq r0, r0, #1` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `addeq r0, r0, #1` in T2: condition fields require A32 (use IT in T2)"]),
    ("subne r0, r0, r1, ror #4", ["61024010", "error: line 1: cannot encode `subne r0, r0, r1, ror #4` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `subne r0, r0, r1, ror #4` in T2: condition fields require A32 (use IT in T2)"]),
    ("add r0, r1, #-1", ["error: line 1: cannot encode `add r0, r1, #4294967295` in A32: immediate 0xffffffff not a rotated imm8", "error: line 1: cannot encode `add r0, r1, #4294967295` in T16: does not fit the 16-bit encoding", "00eaff43"]),
    ("add r0, r0, #0b1010", ["0a0080e2", "0a30", "0a30"]),
    ("orr r0, r0, #0X10", ["100080e3", "error: line 1: cannot encode `orr r0, r0, #16` in T16: does not fit the 16-bit encoding", "00ee1000"]),
    ("and r2, r2", ["022002e0", "1240", "1240"]),
    // mov / mvn.
    ("mov r0, #0", ["0000a0e3", "0020", "0020"]),
    ("movs r1, #255", ["ff10b0e3", "error: line 1: cannot encode `movs r1, #255` in T16: does not fit the 16-bit encoding", "c4eeff00"]),
    ("mov r2, r3", ["0320a0e1", "3246", "3246"]),
    ("mov r8, r1", ["0180a0e1", "1846", "1846"]),
    ("mov ip, fp", ["0bc0a0e1", "bc46", "bc46"]),
    ("mvn r0, #0", ["0000e0e3", "error: line 1: cannot encode `mvn r0, #0` in T16: does not fit the 16-bit encoding", "80ef0000"]),
    ("mvns r1, r2", ["0210f0e1", "error: line 1: cannot encode `mvns r1, r2` in T16: does not fit the 16-bit encoding", "c4ef0210"]),
    ("mov r0, r1, lsl #2", ["0101a0e1", "8800", "8800"]),
    ("movs r0, r1, lsr r2", ["3102b0e1", "error: line 1: cannot encode `lsrs r0, r1, r2` in T16: does not fit the 16-bit encoding", "c0ee2121"]),
    ("movhi r2, #0", ["0020a083", "error: line 1: cannot encode `movhi r2, #0` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `movhi r2, #0` in T2: condition fields require A32 (use IT in T2)"]),
    ("mov r0, #0x10000", ["0108a0e3", "error: line 1: cannot encode `mov r0, #65536` in T16: does not fit the 16-bit encoding", "80ee800b"]),
    ("mov r0, #0x12345678", ["error: line 1: cannot encode `mov r0, #305419896` in A32: immediate 0x12345678 not a rotated imm8", "error: line 1: cannot encode `mov r0, #305419896` in T16: does not fit the 16-bit encoding", "error: line 1: cannot encode `mov r0, #305419896` in T2: immediate 0x12345678 not a T2 modified immediate (use movw/movt)"]),
    ("mvneq r3, r4", ["0430e001", "error: line 1: cannot encode `mvneq r3, r4` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `mvneq r3, r4` in T2: condition fields require A32 (use IT in T2)"]),
    // Shifts.
    ("lsl r0, r1, #3", ["8101a0e1", "c800", "c800"]),
    ("lsls r0, r1, #3", ["8101b0e1", "error: line 1: cannot encode `lsls r0, r1, #3` in T16: does not fit the 16-bit encoding", "c0ee8111"]),
    ("lsr r2, r3, r4", ["3324a0e1", "error: line 1: cannot encode `lsr r2, r3, r4` in T16: does not fit the 16-bit encoding", "88ee4321"]),
    ("asr r0, r0, #31", ["c00fa0e1", "c017", "c017"]),
    ("asrs r0, r1, r2", ["5102b0e1", "error: line 1: cannot encode `asrs r0, r1, r2` in T16: does not fit the 16-bit encoding", "c0ee2122"]),
    ("ror r1, r2, #8", ["6214a0e1", "error: line 1: cannot encode `ror r1, r2, #8` in T16: does not fit the 16-bit encoding", "84ee6214"]),
    ("rors r1, r1, r2", ["7112b0e1", "error: line 1: cannot encode `rors r1, r1, r2` in T16: does not fit the 16-bit encoding", "c4ee2123"]),
    ("lslne r0, r0, #1", ["8000a011", "error: line 1: cannot encode `lslne r0, r0, #1` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `lslne r0, r0, #1` in T2: condition fields require A32 (use IT in T2)"]),
    // Compares.
    ("cmp r0, #10", ["0a0050e3", "0a28", "0a28"]),
    ("cmp r1, r2", ["020051e1", "2145", "2145"]),
    ("cmp r8, r9", ["090058e1", "9845", "9845"]),
    ("cmn r0, #1", ["010070e3", "error: line 1: cannot encode `cmn r0, #1` in T16: does not fit the 16-bit encoding", "c0ed0100"]),
    ("tst r3, #1", ["010013e3", "error: line 1: cannot encode `tst r3, #1` in T16: does not fit the 16-bit encoding", "40ec01c0"]),
    ("tst r0, r1, lsl #2", ["010110e1", "error: line 1: cannot encode `tst r0, r1, lsl #2` in T16: does not fit the 16-bit encoding", "40ec0111"]),
    ("teq r0, r1", ["010030e1", "error: line 1: cannot encode `teq r0, r1` in T16: does not fit the 16-bit encoding", "error: line 1: cannot encode `teq r0, r1` in T2: teq unavailable in T2"]),
    ("cmpne r0, #0", ["00005013", "error: line 1: cannot encode `cmpne r0, #0` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `cmpne r0, #0` in T2: condition fields require A32 (use IT in T2)"]),
    // movw / movt.
    ("movw r0, #0x1234", ["error: line 1: cannot encode `movw r0, #4660` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `movw r0, #4660` in T16: wide-only operation unavailable in T16", "00f03412"]),
    ("movt r0, #0xA000", ["error: line 1: cannot encode `movt r0, #40960` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `movt r0, #40960` in T16: wide-only operation unavailable in T16", "20f000a0"]),
    ("movw r1, #65535", ["error: line 1: cannot encode `movw r1, #65535` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `movw r1, #65535` in T16: wide-only operation unavailable in T16", "01f0ffff"]),
    ("movw r0, #65536", ["error: line 1: imm16 overflow", "error: line 1: imm16 overflow", "error: line 1: imm16 overflow"]),
    ("movwne r0, #1", ["error: line 1: cannot encode `movwne r0, #1` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `movwne r0, #1` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `movwne r0, #1` in T2: condition fields require A32 (use IT in T2)"]),
    // Multiply, divide, bit-field and bit-reverse ops.
    ("mul r0, r1, r2", ["910200e0", "error: line 1: cannot encode `mul r0, r1, r2` in T16: does not fit the 16-bit encoding", "40f11200"]),
    ("muls r0, r0, r1", ["900110e0", "error: line 1: cannot encode `muls r0, r0, r1` in T16: does not fit the 16-bit encoding", "40f10110"]),
    ("mla r0, r1, r2, r3", ["error: line 1: cannot encode `mla r0, r1, r2, r3` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `mla r0, r1, r2, r3` in T16: mla unavailable in T16", "60f11230"]),
    ("sdiv r0, r1, r2", ["error: line 1: cannot encode `sdiv r0, r1, r2` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `sdiv r0, r1, r2` in T16: wide-only operation unavailable in T16", "00f11200"]),
    ("udiv r3, r4, r5", ["error: line 1: cannot encode `udiv r3, r4, r5` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `udiv r3, r4, r5` in T16: wide-only operation unavailable in T16", "20f14503"]),
    ("bfi r0, r1, #4, #8", ["error: line 1: cannot encode `bfi r0, r1, #4, #8` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `bfi r0, r1, #4, #8` in T16: wide-only operation unavailable in T16", "80f08704"]),
    ("bfc r2, #0, #16", ["error: line 1: cannot encode `bfc r2, #0, #16` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `bfc r2, #0, #16` in T16: wide-only operation unavailable in T16", "a0f00f08"]),
    ("ubfx r0, r1, #3, #5", ["error: line 1: cannot encode `ubfx r0, r1, #3, #5` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `ubfx r0, r1, #3, #5` in T16: wide-only operation unavailable in T16", "c0f06404"]),
    ("sbfx r0, r1, #0, #8", ["error: line 1: cannot encode `sbfx r0, r1, #0, #8` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `sbfx r0, r1, #0, #8` in T16: wide-only operation unavailable in T16", "e0f00704"]),
    ("rbit r0, r1", ["error: line 1: cannot encode `rbit r0, r1` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `rbit r0, r1` in T16: wide-only operation unavailable in T16", "80f10100"]),
    ("rev r2, r3", ["332fbfe6", "1aba", "1aba"]),
    // Loads and stores: offset, pre-index, post-index, register-lsl and
    // pc-relative addressing.
    ("ldr r0, [r1]", ["000091e5", "0868", "0868"]),
    ("ldr r0, [r1, #8]", ["080091e5", "8868", "8868"]),
    ("ldr r0, [r1, #-4]", ["040011e5", "error: line 1: cannot encode `ldr r0, [r1, #-4]` in T16: does not fit the 16-bit encoding", "00f2fc27"]),
    ("str r2, [r3, #124]", ["7c2083e5", "da67", "da67"]),
    ("ldr r0, [sp, #16]", ["10009de5", "0498", "0498"]),
    ("str r1, [sp]", ["00108de5", "0091", "0091"]),
    ("ldrb r0, [r1, #1]", ["0100d1e5", "4878", "4878"]),
    ("strb r0, [r1, r2]", ["0200c1e7", "8854", "8854"]),
    ("ldrh r0, [r1, #2]", ["b200d1e1", "4888", "4888"]),
    ("strh r2, [r3]", ["b020c3e1", "1a80", "1a80"]),
    ("ldrsb r0, [r1, r2]", ["d20091e1", "8856", "8856"]),
    ("ldrsh r0, [r1, #2]", ["f200d1e1", "error: line 1: cannot encode `ldrsh r0, [r1, #2]` in T16: does not fit the 16-bit encoding", "80f20220"]),
    ("ldr r0, [r1, #4]!", ["0400b1e5", "error: line 1: cannot encode `ldr r0, [r1, #4]!` in T16: does not fit the 16-bit encoding", "00f20428"]),
    ("str r0, [sp, #-8]!", ["08002de5", "error: line 1: cannot encode `str r0, [sp, #-8]!` in T16: does not fit the 16-bit encoding", "a1f2f8af"]),
    ("ldr r0, [r1], #4", ["040091e4", "error: line 1: cannot encode `ldr r0, [r1], #4` in T16: does not fit the 16-bit encoding", "00f20430"]),
    ("str r1, [r2], #-4", ["041002e4", "error: line 1: cannot encode `str r1, [r2], #-4` in T16: does not fit the 16-bit encoding", "a2f2fc57"]),
    ("ldrb r3, [r4], #1", ["0130d4e4", "error: line 1: cannot encode `ldrb r3, [r4], #1` in T16: does not fit the 16-bit encoding", "26f20190"]),
    ("ldr r0, [r1, r2, lsl #2]", ["020191e7", "error: line 1: cannot encode `ldr r0, [r1, r2, lsl #2]` in T16: does not fit the 16-bit encoding", "00f34a00"]),
    ("ldr r0, [r1, r2]", ["020091e7", "8858", "8858"]),
    ("str r0, [r1, r2, LSL #1]", ["820081e7", "error: line 1: cannot encode `str r0, [r1, r2, lsl #1]` in T16: does not fit the 16-bit encoding", "60f34900"]),
    ("ldr r0, [pc, #8]", ["08009fe5", "0248", "0248"]),
    ("ldr r1, [pc]", ["00109fe5", "0049", "0049"]),
    ("str r0, [pc, #8]", ["error: line 1: `str` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `str` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `str` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal"]),
    ("strb r0, [pc, #4]", ["error: line 1: `strb` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `strb` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `strb` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal"]),
    ("ldrh r0, [pc, #2]", ["error: line 1: `ldrh` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `ldrh` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `ldrh` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal"]),
    ("ldrsb r0, [pc, #1]", ["error: line 1: `ldrsb` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `ldrsb` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `ldrsb` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal"]),
    ("ldr r0, [pc, #8]!", ["error: line 1: `ldr` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `ldr` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `ldr` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal"]),
    ("ldr r0, [pc], #4", ["error: line 1: `ldr` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `ldr` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `ldr` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal"]),
    ("ldreq r0, [r1]", ["00009105", "error: line 1: cannot encode `ldreq r0, [r1]` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `ldreq r0, [r1]` in T2: condition fields require A32 (use IT in T2)"]),
    ("ldrhi r0, [r1]", ["00009185", "error: line 1: cannot encode `ldrhi r0, [r1]` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `ldrhi r0, [r1]` in T2: condition fields require A32 (use IT in T2)"]),
    ("ldrhhi r0, [r1]", ["b000d181", "error: line 1: cannot encode `ldrhhi r0, [r1]` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `ldrhhi r0, [r1]` in T2: condition fields require A32 (use IT in T2)"]),
    ("ldr r9, [r10, #4096]", ["error: line 1: cannot encode `ldr r9, [r10, #4096]` in A32: offset 4096 out of range", "error: line 1: cannot encode `ldr r9, [r10, #4096]` in T16: does not fit the 16-bit encoding", "error: line 1: cannot encode `ldr r9, [r10, #4096]` in T2: offset 4096 exceeds wide imm range"]),
    ("ldr r0, [r1],#4", ["040091e4", "error: line 1: cannot encode `ldr r0, [r1], #4` in T16: does not fit the 16-bit encoding", "00f20430"]),
    ("ldr r0,[r1,#4]", ["040091e5", "4868", "4868"]),
    // ldm / stm with and without writeback; push / pop with ranges.
    ("ldm r0!, {r1, r2}", ["0600b0e8", "06c8", "06c8"]),
    ("stm r0!, {r1-r3}", ["0e00a0e8", "0ec0", "0ec0"]),
    ("ldm r4, {r0, r1}", ["030094e8", "error: line 1: cannot encode `ldm r4, {r0, r1}` in T16: does not fit the 16-bit encoding", "24f40300"]),
    ("stm r0, {r4-r11}", ["f00f80e8", "error: line 1: cannot encode `stm r0, {r4, r5, r6, r7, r8, r9, r10, r11}` in T16: does not fit the 16-bit encoding", "40f4f00f"]),
    ("push {r4-r6, lr}", ["70402de9", "70b5", "70b5"]),
    ("pop {r4-r6, pc}", ["7080bde8", "70bd", "70bd"]),
    ("push {r0}", ["01002de9", "01b4", "01b4"]),
    ("pop {r4, r5}", ["3000bde8", "30bc", "30bc"]),
    ("push {r4-r11, lr}", ["f04f2de9", "error: line 1: cannot encode `push {r4, r5, r6, r7, r8, r9, r10, r11, lr}` in T16: does not fit the 16-bit encoding", "60f4f04f"]),
    ("pop {pc}", ["0080bde8", "00bd", "00bd"]),
    // Branches.
    ("loop: nop\nb loop", ["00f020e3fdffffea loop=0", "00bffde7 loop=0", "00bffde7 loop=0"]),
    ("b fwd\nnop\nfwd: nop", ["000000ea00f020e300f020e3 fwd=8", "00e000bf00bf fwd=4", "00e000bf00bf fwd=4"]),
    ("top: nop\nbne top", ["00f020e3fdffff1a top=0", "00bffdd1 top=0", "00bffdd1 top=0"]),
    ("beq end\nnop\nend: bx lr", ["0000000a00f020e31eff2fe1 end=8", "00d000bfe047 end=4", "00d000bfe047 end=4"]),
    ("bl func\nfunc: bx lr", ["ffffffeb1eff2fe1 func=4", "60f00000e047 func=4", "60f00000e047 func=4"]),
    ("bls done\ndone: nop", ["ffffff9a00f020e3 done=4", "ffd900bf done=2", "ffd900bf done=2"]),
    ("blt x\nx: nop", ["ffffffba00f020e3 x=4", "ffdb00bf x=2", "ffdb00bf x=2"]),
    ("bge x\nx: nop", ["ffffffaa00f020e3 x=4", "ffda00bf x=2", "ffda00bf x=2"]),
    ("bhs x\nx: nop", ["ffffff2a00f020e3 x=4", "ffd200bf x=2", "ffd200bf x=2"]),
    ("blo x\nx:", ["ffffff3a x=4", "ffd3 x=2", "ffd3 x=2"]),
    ("bal x\nx: nop", ["ffffffea00f020e3 x=4", "ffe700bf x=2", "ffe700bf x=2"]),
    ("bleq x\nx: nop", ["error: line 1: `bleq`: no condition suffix is supported on this instruction", "error: line 1: `bleq`: no condition suffix is supported on this instruction", "error: line 1: `bleq`: no condition suffix is supported on this instruction"]),
    ("here: b here", ["feffffea here=0", "fee7 here=0", "fee7 here=0"]),
    ("bx lr", ["1eff2fe1", "e047", "e047"]),
    ("bx r3", ["13ff2fe1", "3047", "3047"]),
    ("bxeq lr", ["1eff2f01", "error: line 1: cannot encode `bxeq lr` in T16: condition fields require A32 (use IT in T2)", "error: line 1: cannot encode `bxeq lr` in T2: condition fields require A32 (use IT in T2)"]),
    ("cbz r0, done\nnop\ndone: nop", ["error: line 1: cannot encode `cbz r0, .+4` in A32: cbz/it require T2", "error: line 1: cannot encode `cbz r0, .+4` in T16: cbz/it require T2", "00b100bf00bf done=4"]),
    ("cbnz r1, done\nnop\nnop\ndone: nop", ["error: line 1: cannot encode `cbnz r1, .+4` in A32: cbz/it require T2", "error: line 1: cannot encode `cbnz r1, .+4` in T16: cbz/it require T2", "09b900bf00bf00bf done=6"]),
    ("cbz r0, next\nnext: nop", ["error: line 1: cannot encode `cbz r0, .+4` in A32: cbz/it require T2", "error: line 1: cannot encode `cbz r0, .+4` in T16: cbz/it require T2", "error: line 1: cannot encode `cbz r0, .+2` in T2: cbz offset must be 4..=130, even"]),
    ("tbb [r0, r1]", ["error: line 1: cannot encode `tbb [r0, r1]` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `tbb [r0, r1]` in T16: wide-only operation unavailable in T16", "c0f10100"]),
    ("tbh [r0, r1, lsl #1]", ["error: line 1: cannot encode `tbh [r0, r1, lsl #1]` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `tbh [r0, r1, lsl #1]` in T16: wide-only operation unavailable in T16", "e0f10100"]),
    // IT blocks.
    ("it eq", ["error: line 1: cannot encode `it Eq` in A32: cbz/it require T2", "error: line 1: cannot encode `it Eq` in T16: cbz/it require T2", "08bf"]),
    ("ite eq", ["error: line 1: cannot encode `ite Eq` in A32: cbz/it require T2", "error: line 1: cannot encode `ite Eq` in T16: cbz/it require T2", "0cbf"]),
    ("itte ne", ["error: line 1: cannot encode `itte Ne` in A32: cbz/it require T2", "error: line 1: cannot encode `itte Ne` in T16: cbz/it require T2", "1abf"]),
    ("ittt gt", ["error: line 1: cannot encode `ittt Gt` in A32: cbz/it require T2", "error: line 1: cannot encode `ittt Gt` in T16: cbz/it require T2", "c2bf"]),
    ("itee lt", ["error: line 1: cannot encode `itee Lt` in A32: cbz/it require T2", "error: line 1: cannot encode `itee Lt` in T16: cbz/it require T2", "b2bf"]),
    ("cmp r0, #0\nite eq\nmov r1, #1\nmov r1, #0", ["error: line 2: cannot encode `ite Eq` in A32: cbz/it require T2", "error: line 2: cannot encode `ite Eq` in T16: cbz/it require T2", "00280cbf01210021"]),
    // System.
    ("svc #1", ["010000ef", "01df", "01df"]),
    ("bkpt #7", ["770020e1", "07be", "07be"]),
    ("nop", ["00f020e3", "00bf", "00bf"]),
    ("wfi", ["03f020e3", "30bf", "30bf"]),
    ("cpsid", ["80000cf1", "72b6", "72b6"]),
    ("cpsie", ["800008f1", "62b6", "62b6"]),
    ("nopeq", ["error: line 1: `nopeq`: no condition suffix is supported on this instruction", "error: line 1: `nopeq`: no condition suffix is supported on this instruction", "error: line 1: `nopeq`: no condition suffix is supported on this instruction"]),
    ("svceq #1", ["error: line 1: `svceq`: no condition suffix is supported on this instruction", "error: line 1: `svceq`: no condition suffix is supported on this instruction", "error: line 1: `svceq`: no condition suffix is supported on this instruction"]),
    ("bkptne #1", ["error: line 1: `bkptne`: no condition suffix is supported on this instruction", "error: line 1: `bkptne`: no condition suffix is supported on this instruction", "error: line 1: `bkptne`: no condition suffix is supported on this instruction"]),
    ("wfieq", ["error: line 1: `wfieq`: no condition suffix is supported on this instruction", "error: line 1: `wfieq`: no condition suffix is supported on this instruction", "error: line 1: `wfieq`: no condition suffix is supported on this instruction"]),
    ("cpsideq", ["error: line 1: `cpsideq`: no condition suffix is supported on this instruction", "error: line 1: `cpsideq`: no condition suffix is supported on this instruction", "error: line 1: `cpsideq`: no condition suffix is supported on this instruction"]),
    ("cpsiene", ["error: line 1: `cpsiene`: no condition suffix is supported on this instruction", "error: line 1: `cpsiene`: no condition suffix is supported on this instruction", "error: line 1: `cpsiene`: no condition suffix is supported on this instruction"]),
    ("cbzeq r0, x\nnop\nx: nop", ["error: line 1: `cbzeq`: no condition suffix is supported on this instruction", "error: line 1: `cbzeq`: no condition suffix is supported on this instruction", "error: line 1: `cbzeq`: no condition suffix is supported on this instruction"]),
    ("tbbeq [r0, r1]", ["error: line 1: `tbbeq`: no condition suffix is supported on this instruction", "error: line 1: `tbbeq`: no condition suffix is supported on this instruction", "error: line 1: `tbbeq`: no condition suffix is supported on this instruction"]),
    ("nopal", ["00f020e3", "00bf", "00bf"]),
    // Directives and labels.
    (".word 0xDEADBEEF", ["efbeadde", "efbeadde", "efbeadde"]),
    (".word 42", ["2a000000", "2a000000", "2a000000"]),
    (".word -1", ["ffffffff", "ffffffff", "ffffffff"]),
    (".word 0b1010", ["0a000000", "0a000000", "0a000000"]),
    (".word #5", ["05000000", "05000000", "05000000"]),
    ("nop\n.align 4\n.word 1", ["00f020e301000000", "00bf000001000000", "00bf000001000000"]),
    ("nop\n.align 8\nd: .word 0x11223344", ["00f020e30000000044332211 d=8", "00bf00000000000044332211 d=8", "00bf00000000000044332211 d=8"]),
    (".align 1", ["", "", ""]),
    ("a: b: nop", ["00f020e3 a=0 b=0", "00bf a=0 b=0", "00bf a=0 b=0"]),
    ("a:\nb:\nnop", ["00f020e3 a=0 b=0", "00bf a=0 b=0", "00bf a=0 b=0"]),
    ("x: .word 1\ny: .word 2", ["0100000002000000 x=0 y=4", "0100000002000000 x=0 y=4", "0100000002000000 x=0 y=4"]),
    ("nop\nend:", ["00f020e3 end=4", "00bf end=2", "00bf end=2"]),
    ("start: nop\nmid: nop\n.align 4\nend:", ["00f020e300f020e3 end=8 mid=4 start=0", "00bf00bf end=4 mid=2 start=0", "00bf00bf end=4 mid=2 start=0"]),
    // Comments and whitespace.
    ("nop ; trailing", ["00f020e3", "00bf", "00bf"]),
    ("nop @ trailing", ["00f020e3", "00bf", "00bf"]),
    ("; whole line\nnop", ["00f020e3", "00bf", "00bf"]),
    ("@ at\n\nnop", ["00f020e3", "00bf", "00bf"]),
    ("add r0, r0, #1 ; x @ y", ["010080e2", "401c", "401c"]),
    ("lbl: ; label then comment\nnop", ["00f020e3 lbl=0", "00bf lbl=0", "00bf lbl=0"]),
    ("\tadd\tr0, r1, #4", ["040081e2", "081d", "081d"]),
    ("  mov   r0 ,  r1  ", ["0100a0e1", "1046", "1046"]),
    ("add r0,r1,r2", ["020081e0", "8818", "8818"]),
    ("nop a, b", ["00f020e3", "00bf", "00bf"]),
    // Uppercase.
    ("ADD R0, R1, #4", ["040081e2", "081d", "081d"]),
    ("MOVS R0, #1", ["0100b0e3", "error: line 1: cannot encode `movs r0, #1` in T16: does not fit the 16-bit encoding", "c0ee0100"]),
    ("MOV R0, SP", ["0d00a0e1", "d046", "d046"]),
    ("LDR R0, [R1, #4]", ["040091e5", "4868", "4868"]),
    ("STR R0, [SP, #-4]!", ["04002de5", "error: line 1: cannot encode `str r0, [sp, #-4]!` in T16: does not fit the 16-bit encoding", "a1f2fcaf"]),
    ("PUSH {R4, LR}", ["10402de9", "10b5", "10b5"]),
    ("POP {R4-R6, PC}", ["7080bde8", "70bd", "70bd"]),
    ("LOOP: NOP\nBNE LOOP", ["00f020e3fdffff1a LOOP=0", "00bffdd1 LOOP=0", "00bffdd1 LOOP=0"]),
    ("LSL R0, R1, #2", ["0101a0e1", "8800", "8800"]),
    ("Add r0, R0, r1, LSL #1", ["810080e0", "error: line 1: cannot encode `add r0, r0, r1, lsl #1` in T16: does not fit the 16-bit encoding", "00ea8110"]),
    ("ITE EQ", ["error: line 1: cannot encode `ite Eq` in A32: cbz/it require T2", "error: line 1: cannot encode `ite Eq` in T16: cbz/it require T2", "0cbf"]),
    ("itTe Ne", ["error: line 1: cannot encode `itte Ne` in A32: cbz/it require T2", "error: line 1: cannot encode `itte Ne` in T16: cbz/it require T2", "1abf"]),
    ("BLEQ X\nX: NOP", ["error: line 1: `BLEQ`: no condition suffix is supported on this instruction", "error: line 1: `BLEQ`: no condition suffix is supported on this instruction", "error: line 1: `BLEQ`: no condition suffix is supported on this instruction"]),
    ("CBZ R0, L\nL: NOP", ["error: line 1: cannot encode `cbz r0, .+4` in A32: cbz/it require T2", "error: line 1: cannot encode `cbz r0, .+4` in T16: cbz/it require T2", "error: line 1: cannot encode `cbz r0, .+2` in T2: cbz offset must be 4..=130, even"]),
    ("LDR R0, [PC, #8]", ["08009fe5", "0248", "0248"]),
    ("Ldr r1, [Pc]", ["00109fe5", "0049", "0049"]),
    ("STRH R0, [PC, #2]", ["error: line 1: `STRH` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `STRH` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal", "error: line 1: `STRH` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal"]),
    ("BX LR", ["1eff2fe1", "e047", "e047"]),
    ("TBB [R0, R1]", ["error: line 1: cannot encode `tbb [r0, r1]` in A32: operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core", "error: line 1: cannot encode `tbb [r0, r1]` in T16: wide-only operation unavailable in T16", "c0f10100"]),
    ("ldr r0, [r1, r2, LSL #0B1]", ["820091e7", "error: line 1: cannot encode `ldr r0, [r1, r2, lsl #1]` in T16: does not fit the 16-bit encoding", "00f34900"]),
    // Immediates out of their field's range are errors, never truncated:
    // shift amounts are 0..=31 in every mode, bit-field lsb 0..=31 and
    // width 1..=32, address offsets fit an `i32` (so `#0xFFFFFFFC` is not
    // `#-4`), `svc`/`bkpt` immediates 0..=255.
    ("lsr r0, r1, #32", ["error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31"]),
    ("lsl r0, r1, #32", ["error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31"]),
    ("asr r0, r1, #40", ["error: line 1: shift amount 40 out of range 0..=31", "error: line 1: shift amount 40 out of range 0..=31", "error: line 1: shift amount 40 out of range 0..=31"]),
    ("lsr r0, r1, #256", ["error: line 1: shift amount 256 out of range 0..=31", "error: line 1: shift amount 256 out of range 0..=31", "error: line 1: shift amount 256 out of range 0..=31"]),
    ("ror r0, r1, #32", ["error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31"]),
    ("lsr r0, r1, #31", ["a10fa0e1", "c80f", "c80f"]),
    ("mov r0, r1, lsr #32", ["error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31"]),
    ("add r0, r1, r2, lsl #32", ["error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31"]),
    ("cmp r0, r1, asr #33", ["error: line 1: shift amount 33 out of range 0..=31", "error: line 1: shift amount 33 out of range 0..=31", "error: line 1: shift amount 33 out of range 0..=31"]),
    ("ubfx r0, r1, #256, #8", ["error: line 1: bit-field lsb 256 out of range 0..=31", "error: line 1: bit-field lsb 256 out of range 0..=31", "error: line 1: bit-field lsb 256 out of range 0..=31"]),
    ("ubfx r0, r1, #32, #1", ["error: line 1: bit-field lsb 32 out of range 0..=31", "error: line 1: bit-field lsb 32 out of range 0..=31", "error: line 1: bit-field lsb 32 out of range 0..=31"]),
    ("sbfx r0, r1, #0, #33", ["error: line 1: bit-field width 33 out of range 1..=32", "error: line 1: bit-field width 33 out of range 1..=32", "error: line 1: bit-field width 33 out of range 1..=32"]),
    ("bfi r0, r1, #4, #0", ["error: line 1: bit-field width 0 out of range 1..=32", "error: line 1: bit-field width 0 out of range 1..=32", "error: line 1: bit-field width 0 out of range 1..=32"]),
    ("bfc r0, #0, #264", ["error: line 1: bit-field width 264 out of range 1..=32", "error: line 1: bit-field width 264 out of range 1..=32", "error: line 1: bit-field width 264 out of range 1..=32"]),
    ("ldr r0, [r1, r2, lsl #258]", ["error: line 1: shift amount 258 out of range 0..=31", "error: line 1: shift amount 258 out of range 0..=31", "error: line 1: shift amount 258 out of range 0..=31"]),
    ("ldr r0, [r1, r2, lsl #32]", ["error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31", "error: line 1: shift amount 32 out of range 0..=31"]),
    ("str r0, [r1, r2, lsl #31]", ["820f81e7", "error: line 1: cannot encode `str r0, [r1, r2, lsl #31]` in T16: does not fit the 16-bit encoding", "error: line 1: cannot encode `str r0, [r1, r2, lsl #31]` in T2: register offset shift must be 0..=3"]),
    ("ldr r0, [r1], #0x80000000", ["error: line 1: offset 2147483648 out of range", "error: line 1: offset 2147483648 out of range", "error: line 1: offset 2147483648 out of range"]),
    ("ldr r0, [r1, #0xFFFFFFFC]", ["error: line 1: offset 4294967292 out of range", "error: line 1: offset 4294967292 out of range", "error: line 1: offset 4294967292 out of range"]),
    ("str r0, [r1, #-2147483648]", ["error: line 1: offset -2147483648 out of range", "error: line 1: offset -2147483648 out of range", "error: line 1: offset -2147483648 out of range"]),
    ("ldr r0, [r1, #-2147483647]", ["error: line 1: cannot encode `ldr r0, [r1, #-2147483647]` in A32: offset -2147483647 out of range", "error: line 1: cannot encode `ldr r0, [r1, #-2147483647]` in T16: does not fit the 16-bit encoding", "error: line 1: cannot encode `ldr r0, [r1, #-2147483647]` in T2: offset -2147483647 exceeds wide imm range"]),
    ("svc #256", ["error: line 1: svc immediate 256 out of range 0..=255", "error: line 1: svc immediate 256 out of range 0..=255", "error: line 1: svc immediate 256 out of range 0..=255"]),
    ("bkpt #256", ["error: line 1: bkpt immediate 256 out of range 0..=255", "error: line 1: bkpt immediate 256 out of range 0..=255", "error: line 1: bkpt immediate 256 out of range 0..=255"]),
    // Rejected input and its messages.
    ("frob r0", ["error: line 1: unknown mnemonic `frob`", "error: line 1: unknown mnemonic `frob`", "error: line 1: unknown mnemonic `frob`"]),
    ("b nowhere", ["error: line 1: undefined label `nowhere`", "error: line 1: undefined label `nowhere`", "error: line 1: undefined label `nowhere`"]),
    ("nop\n\nb nowhere", ["error: line 3: undefined label `nowhere`", "error: line 3: undefined label `nowhere`", "error: line 3: undefined label `nowhere`"]),
    ("add r0", ["error: line 1: bad operands for `add`: `r0`", "error: line 1: bad operands for `add`: `r0`", "error: line 1: bad operands for `add`: `r0`"]),
    ("mov r0", ["error: line 1: bad operands for `mov`: `r0`", "error: line 1: bad operands for `mov`: `r0`", "error: line 1: bad operands for `mov`: `r0`"]),
    ("sdiv r0, r1", ["error: line 1: bad operands for `sdiv`: `r0, r1`", "error: line 1: bad operands for `sdiv`: `r0, r1`", "error: line 1: bad operands for `sdiv`: `r0, r1`"]),
    ("ldr r0, r1", ["error: line 1: bad address", "error: line 1: bad address", "error: line 1: bad address"]),
    ("ldr r0", ["error: line 1: bad operands for `ldr`: `r0`", "error: line 1: bad operands for `ldr`: `r0`", "error: line 1: bad operands for `ldr`: `r0`"]),
    ("ldr r0, r1]", ["error: line 1: expected [", "error: line 1: expected [", "error: line 1: expected ["]),
    ("ldr r0, [r1], #4, #5", ["error: line 1: bad immediate `4, #5`", "error: line 1: bad immediate `4, #5`", "error: line 1: bad immediate `4, #5`"]),
    ("ldr r0, [r1, r2, asr #2]", ["error: line 1: only lsl allowed in addresses", "error: line 1: only lsl allowed in addresses", "error: line 1: only lsl allowed in addresses"]),
    ("ldr r0, [r1, r2, lsl #zz]", ["error: line 1: bad immediate `zz`", "error: line 1: bad immediate `zz`", "error: line 1: bad immediate `zz`"]),
    ("push r0", ["error: line 1: expected {reg list}", "error: line 1: expected {reg list}", "error: line 1: expected {reg list}"]),
    ("push {r1", ["error: line 1: expected {reg list}", "error: line 1: expected {reg list}", "error: line 1: expected {reg list}"]),
    ("pop {r5-r4}", ["error: line 1: bad range `r5-r4`", "error: line 1: bad range `r5-r4`", "error: line 1: bad range `r5-r4`"]),
    ("mov r16, #1", ["error: line 1: bad register `r16`", "error: line 1: bad register `r16`", "error: line 1: bad register `r16`"]),
    ("mov R16, #1", ["error: line 1: bad register `r16`", "error: line 1: bad register `r16`", "error: line 1: bad register `r16`"]),
    ("1-x: nop", ["error: line 1: bad label `1-x`", "error: line 1: bad label `1-x`", "error: line 1: bad label `1-x`"]),
    (": nop", ["error: line 1: bad label ``", "error: line 1: bad label ``", "error: line 1: bad label ``"]),
    ("movw r0, #70000", ["error: line 1: imm16 overflow", "error: line 1: imm16 overflow", "error: line 1: imm16 overflow"]),
    ("it zz", ["error: line 1: bad IT condition", "error: line 1: bad IT condition", "error: line 1: bad IT condition"]),
    ("ite al", ["error: line 1: cannot encode `ite Al` in A32: cbz/it require T2", "error: line 1: cannot encode `ite Al` in T16: cbz/it require T2", "error: line 1: cannot encode `ite Al` in T2: IT AL cannot have an else slot"]),
    ("itx eq", ["error: line 1: unknown mnemonic `itx`", "error: line 1: unknown mnemonic `itx`", "error: line 1: unknown mnemonic `itx`"]),
    ("iteq eq", ["error: line 1: bad IT pattern", "error: line 1: bad IT pattern", "error: line 1: bad IT pattern"]),
    ("ittee eq", ["error: line 1: unknown mnemonic `ittee`", "error: line 1: unknown mnemonic `ittee`", "error: line 1: unknown mnemonic `ittee`"]),
    ("add r0, r1, r2, xyz #1", ["error: line 1: bad shift `xyz #1`", "error: line 1: bad shift `xyz #1`", "error: line 1: bad shift `xyz #1`"]),
    ("add r0, r1, r2, lsl #3, x", ["error: line 1: bad operand", "error: line 1: bad operand", "error: line 1: bad operand"]),
    ("add r0, r1, #zz", ["error: line 1: bad immediate `zz`", "error: line 1: bad immediate `zz`", "error: line 1: bad immediate `zz`"]),
    ("tbb [r0, #4]", ["error: line 1: bad operands for `tbb`: `[r0, #4]`", "error: line 1: bad operands for `tbb`: `[r0, #4]`", "error: line 1: bad operands for `tbb`: `[r0, #4]`"]),
    (".word zz", ["error: line 1: bad immediate `zz`", "error: line 1: bad immediate `zz`", "error: line 1: bad immediate `zz`"]),
    (".WORD 5", ["error: line 1: unknown mnemonic `.WORD`", "error: line 1: unknown mnemonic `.WORD`", "error: line 1: unknown mnemonic `.WORD`"]),
    ("bx lr, r1", ["error: line 1: bad operands for `bx`: `lr, r1`", "error: line 1: bad operands for `bx`: `lr, r1`", "error: line 1: bad operands for `bx`: `lr, r1`"]),
    ("nop\nfrob\nb nowhere", ["error: line 2: unknown mnemonic `frob`", "error: line 2: unknown mnemonic `frob`", "error: line 2: unknown mnemonic `frob`"]),
];

#[test]
fn every_syntax_form_assembles_to_its_recorded_bytes() {
    let mut mismatches = 0;
    let mut table = String::new();
    for (src, expected) in CASES {
        let actual = MODES.map(|m| render(src, m));
        if actual.iter().zip(expected).any(|(a, e)| a != e) {
            mismatches += 1;
        }
        table.push_str(&format!("    ({src:?}, {actual:?}),\n"));
    }
    assert_eq!(mismatches, 0, "{mismatches} rows differ; the table now reads:\n{table}");
}

/// T2 branches start narrow and widen to a fixed point: a conditional
/// branch past the narrow range, an unconditional one inside it, and a
/// chain where one widening pushes an earlier branch out of range.
#[test]
fn t2_branch_layout_reaches_its_recorded_fixed_point() {
    let nops = |n: usize| "nop\n".repeat(n);
    let sources = [
        format!("bne far\n{}far: nop", nops(200)),
        format!("b far\n{}far: nop", nops(200)),
        format!("top: nop\n{}beq top", nops(200)),
        format!("cbz r0, far\n{}far: nop", nops(60)),
        format!("beq a\n{}bne b\n{}a: nop\n{}b: nop", nops(63), nops(64), nops(64)),
    ];
    let expected: [(usize, u64, &str); 5] = [
        (406, 0xeb83_bb06_8c33_2476, "far=404"),
        (404, 0x5771_b410_44f5_ae8b, "far=402"),
        (406, 0x242b_813e_0ffb_e241, "top=0"),
        (124, 0x5d7f_7f4d_05e4_ab61, "far=122"),
        (394, 0x3035_9bd1_77a2_b3fa, "a=262 b=392"),
    ];
    let actual: Vec<(usize, u64, String)> = sources
        .iter()
        .map(|src| match Assembler::new(IsaMode::T2).assemble(src) {
            Ok(out) => {
                let mut syms: Vec<_> = out.symbols.iter().collect();
                syms.sort();
                let syms: Vec<String> = syms.iter().map(|(k, v)| format!("{k}={v}")).collect();
                (out.bytes.len(), fnv(&out.bytes), syms.join(" "))
            }
            Err(e) => (0, 0, format!("error: {e}")),
        })
        .collect();
    let expected: Vec<(usize, u64, String)> =
        expected.iter().map(|&(n, h, s)| (n, h, s.to_string())).collect();
    assert_eq!(actual, expected);
}
