//! Host-speed reference probes.
//!
//! The benchmark runs on shared hosts whose speed drifts, over minutes, by
//! up to 2x as other tenants load the same physical cores, caches and
//! branch predictors. No host clock hides that: the time is not stolen
//! from the process, its instructions just retire slower. So every timed
//! stretch (a pass over the op list, a set-up) is bracketed by two runs of
//! a fixed reference kernel, and its time is scaled by how much slower or
//! faster that kernel ran than on the reference host. A change to the
//! simulator moves the stretch, never the reference, so it shows in full.
//!
//! Contention does not slow all code alike, so each workload is scaled by
//! the reference whose host time tracked its own most closely (slope near
//! 1 in log-log over windows of passes, correlation 0.96-0.98, measured on
//! a 2-vCPU Xeon VM while its speed drifted by 25-75%):
//!
//! - [`Reference::HotLoop`]: threaded code spinning in one 16-instruction
//!   loop, whose dispatch the branch predictor learns perfectly — like a
//!   kernel job's tier-3 hot loop (`kernels`);
//! - [`Reference::Loops`]: threaded code running 48 short counted loops
//!   one after another — like a mission's mix of handlers, ISRs and task
//!   bodies (`can_missions`, `rtos`);
//! - [`Reference::Scatter`]: a `match`-dispatched random program with
//!   data-dependent branches over 1 MiB of data, bound by mispredicts and
//!   cache misses — like forking, page copying and metric merging
//!   (`farm`).
//!
//! The references are self-contained and do not call into the
//! repository's crates.

use std::hint::black_box;
use std::time::Instant;

use crate::work::splitmix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    HotLoop,
    Loops,
    Scatter,
}

impl Reference {
    /// Instructions one probe interprets.
    fn steps(self) -> u32 {
        match self {
            Reference::HotLoop => 1 << 20,
            Reference::Loops => 1 << 19,
            Reference::Scatter => 1 << 17,
        }
    }

    /// Host nanoseconds one probe takes on the reference host (a quiet
    /// 2-vCPU Xeon VM).
    fn reference_ns(self) -> f64 {
        match self {
            Reference::HotLoop => 2.7e6,
            Reference::Loops => 1.8e6,
            Reference::Scatter => 1.8e6,
        }
    }
}

/// Data memory words (1 MiB).
const MEM_WORDS: usize = 1 << 18;
/// Opcodes of the threaded references: 62 data ops, then the two loop
/// ops.
const SETC: u32 = 62;
const LOOP: u32 = 63;

/// Register state of a reference interpreter.
struct Regs {
    r: [u32; 8],
    /// Loop trip counter.
    c: u32,
    pc: usize,
}

impl Regs {
    fn new() -> Regs {
        Regs {
            r: [1, 2, 3, 4, 5, 6, 7, 8],
            c: 0,
            pc: 0,
        }
    }
}

pub struct Probe {
    kind: Reference,
    prog: Vec<u32>,
    pristine: Vec<u32>,
    mem: Vec<u32>,
}

impl Probe {
    pub fn new(kind: Reference) -> Probe {
        let mut state = 77u64;
        let random: Vec<u32> = (0..4096).map(|_| splitmix(&mut state) as u32).collect();
        let pristine: Vec<u32> = (0..MEM_WORDS)
            .map(|_| splitmix(&mut state) as u32)
            .collect();
        let prog = match kind {
            Reference::Scatter => random,
            Reference::HotLoop => counted_loops(&mut state, &[(15, u32::MAX)]),
            Reference::Loops => {
                let shape: Vec<(u64, u32)> = (0..48)
                    .map(|_| {
                        let len = 6 + splitmix(&mut state) % 30;
                        (len, 8 + (splitmix(&mut state) % 40) as u32)
                    })
                    .collect();
                counted_loops(&mut state, &shape)
            }
        };
        Probe {
            kind,
            prog,
            mem: pristine.clone(),
            pristine,
        }
    }

    /// Host nanoseconds for one fixed stretch of reference work. Every
    /// probe interprets the same instructions over the same data.
    pub fn time_ns(&mut self) -> f64 {
        self.mem.copy_from_slice(&self.pristine);
        let steps = self.kind.steps();
        let prog = black_box(&self.prog[..]);
        let t0 = Instant::now();
        let out = match self.kind {
            Reference::Scatter => scatter(prog, &mut self.mem, steps),
            _ => threaded(prog, &mut self.mem, steps),
        };
        black_box(out);
        t0.elapsed().as_nanos() as f64
    }

    /// The factor that scales the host time of a stretch run between
    /// probes of `before` and `after` nanoseconds to the reference host.
    pub fn scale(&self, before: f64, after: f64) -> f64 {
        2.0 * self.kind.reference_ns() / (before + after)
    }
}

/// A program of counted loops, each `(body length, trips)`: `SETC trips`
/// (20 bits), the body's seeded data ops, then `LOOP` back to the body's
/// start.
fn counted_loops(state: &mut u64, shape: &[(u64, u32)]) -> Vec<u32> {
    let mut prog = Vec::new();
    for &(len, trips) in shape {
        prog.push(SETC | trips << 12);
        for _ in 0..len {
            let ins = splitmix(state) as u32;
            prog.push((ins & !63) | (ins & 63) % SETC);
        }
        prog.push(LOOP | ((len + 1) as u32) << 12);
    }
    prog
}

/// `match`-dispatched interpreter; op 5 is a data-dependent forward
/// branch.
fn scatter(prog: &[u32], mem: &mut [u32], steps: u32) -> u32 {
    let mask = mem.len() - 1;
    let mut r = Regs::new().r;
    let mut pc = 0usize;
    for _ in 0..steps {
        let ins = prog[pc];
        let d = (ins >> 3 & 7) as usize;
        let s = (ins >> 6 & 7) as usize;
        let imm = ins >> 9;
        let addr = |v: u32| v as usize & mask;
        pc += 1;
        match ins & 7 {
            0 => r[d] = r[d].wrapping_add(r[s]),
            1 => r[d] ^= r[s].rotate_left(imm & 31),
            2 => r[d] = mem[addr(r[s].wrapping_add(imm))],
            3 => mem[addr(r[s] ^ imm)] = r[d],
            4 => r[d] = r[d].wrapping_mul(r[s] | 1),
            5 => {
                if r[d] & 1 == 0 {
                    pc += (imm & 15) as usize;
                }
            }
            6 => r[d] = r[s].wrapping_sub(imm),
            _ => r[d] = u32::from(r[d] < r[s]) + (r[d] >> 1),
        }
        if pc >= prog.len() {
            pc = 0;
        }
    }
    r.iter().fold(0, |a, v| a ^ v)
}

/// One threaded-code handler: opcode `K` is specialised at compile time,
/// so each of the 64 handlers is distinct code behind its own dispatch
/// target, as in the simulator's tier 3.
fn handler<const K: u32>(st: &mut Regs, mem: &mut [u32], ins: u32) {
    let d = (ins >> 6 & 7) as usize;
    let s = (ins >> 9 & 7) as usize;
    let imm = ins >> 12;
    let mask = mem.len() - 1;
    let addr = |v: u32| v as usize & mask;
    match K {
        SETC => st.c = imm,
        LOOP => {
            st.c = st.c.wrapping_sub(1);
            if st.c != 0 {
                st.pc -= imm as usize;
            }
        }
        _ => match K & 7 {
            0 => st.r[d] = st.r[d].wrapping_add(st.r[s]).wrapping_add(K),
            1 => st.r[d] ^= st.r[s].rotate_left((imm + K) & 31),
            2 => st.r[d] = mem[addr(st.r[s].wrapping_add(imm ^ K))],
            3 => mem[addr(st.r[s] ^ imm ^ K)] = st.r[d],
            4 => st.r[d] = st.r[d].wrapping_mul(st.r[s] | 1 | K),
            5 => st.r[d] = st.r[d].wrapping_add(u32::from(st.r[s] & 1 == 0)),
            6 => st.r[d] = st.r[s].wrapping_sub(imm).rotate_right(K & 31),
            _ => st.r[d] = u32::from(st.r[d] < st.r[s]) + (st.r[d] >> 1) + K,
        },
    }
}

type Handler = fn(&mut Regs, &mut [u32], u32);

macro_rules! handlers {
    ($($k:literal)*) => { [$(handler::<$k> as Handler),*] };
}

const HANDLERS: [Handler; 64] = handlers!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
    32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61
    62 63
);

fn threaded(prog: &[u32], mem: &mut [u32], steps: u32) -> u32 {
    let mut st = Regs::new();
    for _ in 0..steps {
        let ins = prog[st.pc];
        st.pc += 1;
        HANDLERS[(ins & 63) as usize](&mut st, mem, ins);
        if st.pc >= prog.len() {
            st.pc = 0;
        }
    }
    st.r.iter().fold(0, |a, v| a ^ v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_repeats_its_work() {
        for kind in [Reference::HotLoop, Reference::Loops, Reference::Scatter] {
            let run = |p: &Probe| {
                let mut mem = p.pristine.clone();
                match kind {
                    Reference::Scatter => scatter(&p.prog, &mut mem, 1 << 12),
                    _ => threaded(&p.prog, &mut mem, 1 << 12),
                }
            };
            assert_eq!(run(&Probe::new(kind)), run(&Probe::new(kind)), "{kind:?}");
        }
    }
}
