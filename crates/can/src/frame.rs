//! CAN 2.0 frames: identifiers, CRC-15 and bit-accurate stuffing.

/// A CAN identifier: standard (11-bit) or extended (29-bit). Lower values
/// win arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CanId {
    /// 11-bit identifier.
    Standard(u16),
    /// 29-bit identifier.
    Extended(u32),
}

impl CanId {
    /// The raw identifier value.
    #[must_use]
    pub fn raw(self) -> u32 {
        match self {
            CanId::Standard(v) => u32::from(v),
            CanId::Extended(v) => v,
        }
    }

    /// Arbitration: `self` beats `other` when its id is numerically lower
    /// (dominant bits win); standard frames beat extended frames with the
    /// same leading bits — approximated by comparing the 11-bit prefix
    /// first.
    #[must_use]
    pub fn wins_over(self, other: CanId) -> bool {
        let a = match self {
            CanId::Standard(v) => (u32::from(v), 0u32),
            CanId::Extended(v) => (v >> 18, 1),
        };
        let b = match other {
            CanId::Standard(v) => (u32::from(v), 0),
            CanId::Extended(v) => (v >> 18, 1),
        };
        if a != b {
            return a < b;
        }
        self.raw() < other.raw()
    }
}

/// A CAN data frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanFrame {
    /// Arbitration id.
    pub id: CanId,
    /// Data length code (0..=8).
    pub dlc: u8,
    /// Payload (only the first `dlc` bytes are meaningful).
    pub data: [u8; 8],
}

impl CanFrame {
    /// Builds a frame.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() > 8`.
    #[must_use]
    pub fn new(id: CanId, data: &[u8]) -> CanFrame {
        assert!(data.len() <= 8, "CAN payload is at most 8 bytes");
        let mut buf = [0u8; 8];
        buf[..data.len()].copy_from_slice(data);
        CanFrame { id, dlc: data.len() as u8, data: buf }
    }

    /// The frame's SOF..data bit string: everything the CRC covers.
    fn crc_covered_bits(&self) -> Bits {
        let mut bits = Bits::default();
        bits.push(0, 1); // SOF (dominant)
        match self.id {
            CanId::Standard(id) => {
                bits.push(u32::from(id), 11);
                bits.push(0, 3); // RTR, IDE = standard, r0
            }
            CanId::Extended(id) => {
                bits.push(id >> 18, 11);
                bits.push(0b11, 2); // SRR, IDE = extended
                bits.push(id & 0x3_FFFF, 18);
                bits.push(0, 3); // RTR, r1, r0
            }
        }
        bits.push(u32::from(self.dlc), 4);
        for b in &self.data[..self.dlc as usize] {
            bits.push(u32::from(*b), 8);
        }
        bits
    }

    /// Exact number of bits on the wire for this frame, including stuff
    /// bits and the unstuffed trailer (CRC delimiter, ACK, EOF,
    /// interframe space).
    ///
    /// Computed on the frame's bits packed in one integer: the CRC eight
    /// bits at a time from a table and the stuff bits one run of equal
    /// bits at a time. [`crc15`] and [`count_stuff_bits`] are the
    /// bit-serial reference it equals.
    #[must_use]
    pub fn wire_bits(&self) -> u32 {
        let mut bits = self.crc_covered_bits();
        let crc = bits.crc15();
        bits.push(u32::from(crc), 15);
        bits.len + bits.stuff_bits() + TRAILER_BITS
    }
}

/// The longest SOF..CRC bit string: an extended header (39 bits with
/// the DLC), 8 data bytes and the 15-bit CRC.
const MAX_STUFFABLE_BITS: u32 = 39 + 64 + 15;

const _: () = assert!(MAX_STUFFABLE_BITS <= u128::BITS);

/// A bit string of at most [`MAX_STUFFABLE_BITS`] bits in the low `len`
/// bits of an integer, the first bit most significant.
#[derive(Debug, Default, Clone, Copy)]
struct Bits {
    bits: u128,
    len: u32,
}

impl Bits {
    /// Appends the low `n` (at most 31) bits of `v`, most significant
    /// first.
    fn push(&mut self, v: u32, n: u32) {
        self.bits = self.bits << n | u128::from(v & ((1 << n) - 1));
        self.len += n;
    }

    /// [`crc15`] of the string: the leading `len % 8` bits one at a
    /// time, then whole bytes through [`CRC15_TABLE`].
    fn crc15(&self) -> u16 {
        let mut crc = 0u16;
        let mut left = self.len;
        while !left.is_multiple_of(8) {
            left -= 1;
            let b = (self.bits >> left) as u16 & 1;
            crc = crc << 1 ^ if (crc >> 14 & 1) ^ b != 0 { CRC15_POLY } else { 0 };
        }
        while left > 0 {
            left -= 8;
            let byte = (self.bits >> left) as u8;
            crc = crc << 8 ^ CRC15_TABLE[usize::from((crc >> 7) as u8 ^ byte)];
        }
        crc & 0x7FFF
    }

    /// [`count_stuff_bits`] of the string. A run of `l` equal bits that
    /// starts with `c` bits of the same value already counted (1 when
    /// the previous run ended on a stuff bit, whose value is the
    /// opposite of that run's, so this one's; else 0) gets a stuff bit
    /// after every fifth bit of `c + l`, and hands `c = 1` on when its
    /// last bit earned one.
    fn stuff_bits(&self) -> u32 {
        let mut count = 0;
        let mut carried = 0;
        let mut left = self.len;
        // The unread bits, first one at the top.
        let mut rest = self.bits.checked_shl(u128::BITS - self.len).unwrap_or(0);
        while left > 0 {
            let same = if rest >> 127 == 0 { rest.leading_zeros() } else { rest.leading_ones() };
            let run = same.min(left);
            count += (carried + run) / 5;
            carried = u32::from((carried + run) % 5 == 0);
            left -= run;
            rest = rest.checked_shl(run).unwrap_or(0);
        }
        count
    }
}

/// The CAN CRC-15 generator polynomial (x^15 + x^14 + x^10 + x^8 + x^7
/// + x^4 + x^3 + 1, top term implicit).
const CRC15_POLY: u16 = 0x4599;

/// `CRC15_TABLE[i]`: the register after eight bit-serial [`crc15`]
/// steps of zero input from `i << 7` — one byte of input at a time.
const CRC15_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 7;
        let mut k = 0;
        while k < 8 {
            crc = if crc >> 14 & 1 != 0 { crc << 1 ^ CRC15_POLY } else { crc << 1 };
            k += 1;
        }
        table[i] = crc & 0x7FFF;
        i += 1;
    }
    table
};

/// CRC delimiter (1) + ACK slot/delimiter (2) + EOF (7) + IFS (3).
pub const TRAILER_BITS: u32 = 13;

/// Lower bound on any frame's [`CanFrame::wire_bits`]: the 34 header/CRC
/// bits of a standard-id data frame with an empty payload, plus the
/// unstuffed trailer (stuff bits only ever add). Conservative schedulers
/// use this as the bus lookahead: a frame enqueued at bit time `t`
/// cannot complete before `t + MIN_WIRE_BITS`.
pub const MIN_WIRE_BITS: u32 = 34 + TRAILER_BITS;

/// Counts the stuff bits a transmitter inserts: one after every run of
/// five equal bits (the stuff bit itself participates in later runs).
/// The bit-serial reference for [`CanFrame::wire_bits`].
#[must_use]
pub fn count_stuff_bits(bits: &[bool]) -> u32 {
    let mut count = 0u32;
    let mut run_val = None;
    let mut run_len = 0u32;
    for &b in bits {
        if Some(b) == run_val {
            run_len += 1;
        } else {
            run_val = Some(b);
            run_len = 1;
        }
        if run_len == 5 {
            count += 1;
            // The inserted stuff bit is the opposite value and starts a
            // new run of length 1.
            run_val = Some(!b);
            run_len = 1;
        }
    }
    count
}

/// The CAN CRC-15 (polynomial 0x4599) over a bit string. The
/// bit-serial reference for [`CanFrame::wire_bits`].
#[must_use]
pub fn crc15(bits: &[bool]) -> u16 {
    let mut crc = 0u16;
    for &b in bits {
        let crc_next = (crc >> 14 & 1 != 0) ^ b;
        crc <<= 1;
        if crc_next {
            crc ^= CRC15_POLY;
        }
    }
    crc & 0x7FFF
}

/// Worst-case wire bits for a frame with `dlc` payload bytes — the bound
/// CAN response-time analysis uses.
#[must_use]
pub fn worst_case_wire_bits(dlc: u8, extended: bool) -> u32 {
    let header_crc = if extended { 54 + 8 * u32::from(dlc) } else { 34 + 8 * u32::from(dlc) };
    header_crc + (header_crc - 1) / 4 + TRAILER_BITS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbitration_prefers_low_ids() {
        assert!(CanId::Standard(0x100).wins_over(CanId::Standard(0x200)));
        assert!(!CanId::Standard(0x200).wins_over(CanId::Standard(0x100)));
        // Standard beats extended with the same 11-bit prefix.
        assert!(CanId::Standard(0x100).wins_over(CanId::Extended(0x100 << 18)));
        assert!(CanId::Extended(0x0FF << 18).wins_over(CanId::Standard(0x100)));
    }

    #[test]
    fn stuff_bit_counting() {
        // 5 zeros -> 1 stuff bit.
        assert_eq!(count_stuff_bits(&[false; 5]), 1);
        // 10 zeros: stuff after 5, inserted one breaks the run; then the
        // remaining 5 zeros earn another.
        assert_eq!(count_stuff_bits(&[false; 10]), 2);
        // Alternating bits need none.
        let alt: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        assert_eq!(count_stuff_bits(&alt), 0);
    }

    #[test]
    fn wire_bits_within_analytic_bounds() {
        for dlc in 0..=8u8 {
            for pattern in [0x00u8, 0xFF, 0xAA, 0x5A] {
                let data = vec![pattern; dlc as usize];
                let f = CanFrame::new(CanId::Standard(0x2A5), &data);
                let bits = f.wire_bits();
                let min = 34 + 8 * u32::from(dlc) + TRAILER_BITS;
                let max = worst_case_wire_bits(dlc, false);
                assert!(bits >= min, "dlc {dlc}: {bits} < {min}");
                assert!(bits <= max, "dlc {dlc}: {bits} > {max}");
            }
        }
    }

    #[test]
    fn all_zero_payload_approaches_worst_case() {
        // Long runs of identical bits maximize stuffing.
        let f = CanFrame::new(CanId::Standard(0), &[0u8; 8]);
        let bits = f.wire_bits();
        let max = worst_case_wire_bits(8, false);
        assert!(bits as f64 >= 0.8 * max as f64, "{bits} vs {max}");
    }

    #[test]
    fn extended_frames_are_longer() {
        let s = CanFrame::new(CanId::Standard(0x123), &[1, 2, 3, 4]);
        let e = CanFrame::new(CanId::Extended(0x123 << 18 | 0x55), &[1, 2, 3, 4]);
        assert!(e.wire_bits() > s.wire_bits());
    }

    #[test]
    fn crc_is_stable_and_value_dependent() {
        let f1 = CanFrame::new(CanId::Standard(0x123), &[1, 2, 3]);
        let f2 = CanFrame::new(CanId::Standard(0x123), &[1, 2, 4]);
        assert_eq!(f1.wire_bits(), CanFrame::new(CanId::Standard(0x123), &[1, 2, 3]).wire_bits());
        // CRC differences may change stuffing; just ensure both compute.
        let _ = f2.wire_bits();
    }

    /// The bit-serial reference: the frame's SOF..CRC string as `bool`s,
    /// CRC and stuff bits by [`crc15`] and [`count_stuff_bits`].
    fn reference_wire_bits(f: &CanFrame) -> (u16, u32) {
        fn push(bits: &mut Vec<bool>, v: u32, n: u32) {
            bits.extend((0..n).rev().map(|i| v >> i & 1 != 0));
        }
        let mut bits = Vec::new();
        push(&mut bits, 0, 1);
        match f.id {
            CanId::Standard(id) => {
                push(&mut bits, u32::from(id), 11);
                push(&mut bits, 0, 3);
            }
            CanId::Extended(id) => {
                push(&mut bits, id >> 18, 11);
                push(&mut bits, 0b11, 2);
                push(&mut bits, id & 0x3_FFFF, 18);
                push(&mut bits, 0, 3);
            }
        }
        push(&mut bits, u32::from(f.dlc), 4);
        for b in &f.data[..f.dlc as usize] {
            push(&mut bits, u32::from(*b), 8);
        }
        let crc = crc15(&bits);
        push(&mut bits, u32::from(crc), 15);
        (crc, bits.len() as u32 + count_stuff_bits(&bits) + TRAILER_BITS)
    }

    #[test]
    fn wire_bits_equal_the_bit_serial_reference() {
        // Every DLC, standard and extended ids (edge and random), fixed
        // patterns and seeded payloads.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ids = vec![
            CanId::Standard(0),
            CanId::Standard(0x7FF),
            CanId::Standard(0x2A5),
            CanId::Extended(0),
            CanId::Extended(0x1FFF_FFFF),
            CanId::Extended(0x123 << 18 | 0x55),
        ];
        for _ in 0..24 {
            ids.push(CanId::Standard((next() & 0x7FF) as u16));
            ids.push(CanId::Extended((next() & 0x1FFF_FFFF) as u32));
        }
        for id in ids {
            for dlc in 0..=8usize {
                let mut payloads = vec![[0u8; 8], [0xFF; 8], [0xAA; 8], [0x0F; 8]];
                for _ in 0..8 {
                    payloads.push(next().to_le_bytes());
                }
                for data in payloads {
                    let f = CanFrame::new(id, &data[..dlc]);
                    let (crc, bits) = reference_wire_bits(&f);
                    assert_eq!(f.crc_covered_bits().crc15(), crc, "{f:?}: CRC");
                    assert_eq!(f.wire_bits(), bits, "{f:?}: wire bits");
                }
            }
        }
    }

    #[test]
    fn packed_stuff_count_equals_reference_on_runs() {
        // Runs straddling the stuff boundary, carried stuff bits and a
        // string filling all 118 bits.
        for len in [1u32, 4, 5, 6, 9, 10, 11, 64, 117, 118] {
            for pattern in [0u128, u128::MAX, 0x0F0F_0F0F << 40, 0xF83E_0F83_E0F8_3E0F << 50] {
                let bits = Bits { bits: pattern & ((1u128 << len) - 1), len };
                let reference: Vec<bool> =
                    (0..len).rev().map(|i| bits.bits >> i & 1 != 0).collect();
                assert_eq!(bits.stuff_bits(), count_stuff_bits(&reference), "{len} {pattern:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 8 bytes")]
    fn payload_limit() {
        let _ = CanFrame::new(CanId::Standard(1), &[0; 9]);
    }
}
