//! Executed RTOS tier: a preemptive fixed-priority guest kernel running
//! on a simulated ECU.
//!
//! The host-side [`Kernel`](crate::Kernel) and
//! [`response_time_analysis`](crate::response_time_analysis) model task
//! sets analytically; this module puts a task set *on the simulated
//! metal*. [`build_guest_rtos`] lowers a set of [`GuestTask`]s — each
//! body a real `alia-workloads` kernel compiled through the
//! `tir`/`codegen` stack — onto one `alia-sim` machine together with a
//! small preemptive kernel written in guest assembly:
//!
//! * a **SysTick** periodic tick from the [`alia_sim::Timer`] device
//!   (IRQ [`TICK_IRQ`]) drives activations: per-task tick countdowns
//!   release tasks at their periods and offsets;
//! * **context switches** ride the hardware-stacking exception
//!   machinery: the handlers save `r4`-`r11` plus the stacked eight-word
//!   frame pointer into the outgoing task's TCB, then either restore the
//!   incoming task's context or fabricate a fresh exception frame on its
//!   stack — preemption is a stacked-frame swap, exactly as on a
//!   Cortex-M port;
//! * a **fixed-priority ready scan** picks the runnable task of highest
//!   priority (lowest TCB index) at every scheduling point;
//! * **completion** pends a software scheduler interrupt
//!   ([`SCHED_IRQ`], raised through the `Mmio` instrumentation device —
//!   the PendSV analogue) whose handler switches to the next ready task
//!   or the idle loop;
//! * every activation / dispatch / preemption / completion — plus
//!   handler entry/exit pairs — is emitted as a **cycle-stamped trace
//!   record** through `MMIO_TRACE`, decoded host-side by
//!   [`decode_trace`] and folded into [`ExecStats`]: executed worst-case
//!   response times, net per-job execution times and kernel overheads
//!   that [`ExecStats::analysis_set`] turns into an
//!   [`AnalysisTask`](crate::AnalysisTask) set for executed-vs-analytic
//!   validation ([`ExecStats::validate_bounds`]).
//!
//! The mission ends after `total_ticks` timer fires: the final tick
//! disables the timer, in-flight activations drain, and the idle loop
//! exits through `MMIO_EXIT` with the wrapping sum of the per-task
//! checksum accumulators — each accumulator must equal
//! `activations × reference checksum`, proving preemption transparency.

mod kernel_asm;
#[cfg(test)]
mod probe_test;
#[cfg(test)]
mod tests;
mod trace;

use alia_codegen::{compile, CodegenOptions};
use alia_sim::{
    CanConfig, DeviceSpec, Machine, MachineConfig, SharedCanBus, TimerConfig, CAN_BASE,
    SRAM_BASE, TIMER_BASE,
};
use alia_workloads::kernel_by_name;

pub use trace::{decode_trace, BoundReport, ExecStats, HandlerStats, TaskExecStats};

/// The timer IRQ line pacing the preemption tick.
pub const TICK_IRQ: u32 = 0;
/// The software-raised scheduler IRQ line (the PendSV analogue).
pub const SCHED_IRQ: u32 = 2;

/// Flash address of the guest kernel code.
const KERNEL_BASE: u32 = 0x100;
/// Flash address the first compiled task body is placed at; further
/// bodies follow, 64-byte aligned.
const TASK_CODE_BASE: u32 = 0x4000;
/// Kernel state block in SRAM: globals, then one TCB per task.
pub(crate) const KSTATE: u32 = SRAM_BASE + 0x100;
/// Byte offset of the TCB array within the state block.
const TCB_OFF: u32 = 0x40;
/// log2 of the TCB stride (128 bytes: control words + saved `r4`-`r11`).
const TCB_SHIFT: u32 = 7;
/// Per-task input/output data regions.
const DATA_REGION_BASE: u32 = SRAM_BASE + 0x2_0000;
const DATA_REGION_STRIDE: u32 = 0x4000;
/// Per-task stacks grow down from here, one stride each; the idle/boot
/// stack takes the stride below the last task stack.
const STACK_BASE: u32 = SRAM_BASE + 0x8_0000;
const STACK_STRIDE: u32 = 0x4000;

/// One task of a guest task set. Priority is positional: task sets are
/// given **highest priority first**, and TCB index = priority rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestTask {
    /// Workload kernel providing the task body (entry-function name,
    /// see [`alia_workloads::kernel_by_name`]).
    pub kernel: String,
    /// Activation period in ticks (>= 1).
    pub period_ticks: u32,
    /// First activation happens on tick `offset_ticks + 1` (phasing).
    pub offset_ticks: u32,
    /// Input-generation seed.
    pub seed: u64,
    /// Element count passed to the kernel.
    pub elems: u32,
    /// When set, the task transmits one 4-byte CAN frame with this id
    /// per completion (payload word = completion count); requires a
    /// [`CanPort`] on the config.
    pub tx_id: Option<u32>,
}

impl GuestTask {
    /// A task running `kernel` every `period_ticks` ticks on `elems`
    /// elements (seed 1, offset 0, no CAN transmission).
    ///
    /// # Panics
    ///
    /// Panics when `period_ticks` is 0.
    #[must_use]
    pub fn new(kernel: &str, period_ticks: u32, elems: u32) -> GuestTask {
        assert!(period_ticks > 0, "period must be at least one tick");
        GuestTask {
            kernel: kernel.to_string(),
            period_ticks,
            offset_ticks: 0,
            seed: 1,
            elems,
            tx_id: None,
        }
    }

    /// Builder-style activation phasing (first release on tick
    /// `offset + 1`).
    #[must_use]
    pub fn with_offset(mut self, offset_ticks: u32) -> GuestTask {
        self.offset_ticks = offset_ticks;
        self
    }

    /// Builder-style input seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> GuestTask {
        self.seed = seed;
        self
    }

    /// Builder-style per-completion CAN transmission.
    #[must_use]
    pub fn with_tx(mut self, id: u32) -> GuestTask {
        self.tx_id = Some(id);
        self
    }

    /// Number of activations within a `total_ticks` mission (releases
    /// happen on ticks `offset+1, offset+1+period, ...`, strictly
    /// before the final tick, which only shuts the mission down).
    #[must_use]
    pub fn activations(&self, total_ticks: u32) -> u32 {
        let first = self.offset_ticks + 1;
        if first >= total_ticks {
            0
        } else {
            (total_ticks - 1 - first) / self.period_ticks + 1
        }
    }
}

/// An optional shared-CAN attachment for the RTOS ECU.
#[derive(Debug, Clone)]
pub struct CanPort {
    /// Node id on the wire (must be unique per wire).
    pub node: usize,
    /// The shared wire.
    pub wire: SharedCanBus,
    /// Acceptance filter `(id, mask)` programmed at construction — use
    /// an unmatchable pair to keep RX traffic away from the kernel.
    pub filter: Option<(u32, u32)>,
}

/// Build-time configuration of the guest RTOS.
#[derive(Debug, Clone)]
pub struct GuestRtosConfig {
    /// Preemption tick period in cycles (must fit a `movw`, < 65 536).
    pub tick_cycles: u32,
    /// Mission length in ticks; the final tick disables the timer and
    /// releases nothing.
    pub total_ticks: u32,
    /// Optional CAN attachment.
    pub can: Option<CanPort>,
}

/// Host-side view of one lowered task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskLayout {
    /// Workload kernel name.
    pub name: String,
    /// Entry address of the compiled body.
    pub entry: u32,
    /// Input data address (arg 0).
    pub input: u32,
    /// Output address (arg 1).
    pub output: u32,
    /// Element count (arg 2).
    pub elems: u32,
    /// Initial stack pointer for fresh activations.
    pub stack_top: u32,
    /// Activation period in ticks.
    pub period_ticks: u32,
    /// Activation offset in ticks.
    pub offset_ticks: u32,
    /// Reference checksum of one activation (host-computed).
    pub checksum: u32,
    /// Expected number of activations for the configured mission.
    pub expected_activations: u32,
    /// CAN id transmitted per completion, when any.
    pub tx_id: Option<u32>,
}

/// Host-side view of the whole lowered task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSetLayout {
    /// Per-task layout, highest priority first (TCB order).
    pub tasks: Vec<TaskLayout>,
    /// Tick period in cycles.
    pub tick_cycles: u32,
    /// Mission length in ticks.
    pub total_ticks: u32,
    /// The guest exit code the idle loop reports on a clean mission:
    /// the wrapping sum of every task's checksum accumulator.
    pub expected_exit: u32,
}

impl TaskSetLayout {
    /// Address of task `i`'s TCB.
    #[must_use]
    pub fn tcb(&self, i: usize) -> u32 {
        KSTATE + TCB_OFF + (i as u32) * (1 << TCB_SHIFT)
    }
}

/// A built guest: the machine (not yet run) plus the layout needed to
/// interpret its trace and memory afterwards.
#[derive(Debug)]
pub struct GuestRtos {
    /// The simulated ECU, ready to run (or to be added to a
    /// [`alia_sim::System`]).
    pub machine: Machine,
    /// Host-side layout metadata.
    pub layout: TaskSetLayout,
}

/// An error raised while lowering or interpreting a task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rtos-exec: {}", self.msg)
    }
}

impl std::error::Error for ExecError {}

pub(crate) fn err(msg: impl Into<String>) -> ExecError {
    ExecError { msg: msg.into() }
}

/// TCB field offsets (bytes from the TCB base); the guest assembly in
/// `kernel_asm.rs` hard-codes the same numbers as combined
/// `TCB_OFF + field` immediates.
pub(crate) mod tcb {
    pub const SAVED_SP: u32 = 0;
    pub const STATE: u32 = 4;
    pub const PERIOD: u32 = 8;
    pub const COUNTDOWN: u32 = 12;
    pub const ENTRY: u32 = 16;
    pub const ARG0: u32 = 20;
    pub const ARG1: u32 = 24;
    pub const ARG2: u32 = 28;
    pub const STACK_TOP: u32 = 32;
    pub const ACC: u32 = 36;
    pub const OVERRUNS: u32 = 40;
    pub const ACTIVATIONS: u32 = 44;
    pub const TX_ID: u32 = 48;
    pub const TX_COUNT: u32 = 52;
    pub const REGS: u32 = 64;
}

/// Lowers `tasks` (highest priority first) onto one simulated ECU.
///
/// Each task body is compiled from its workload kernel through the
/// `tir`/`codegen` stack and placed in flash after the guest kernel;
/// TCBs, input blocks and stacks are initialized in SRAM; the machine
/// comes back booted (PC at the kernel's `main`, which programs the
/// timer and parks in the idle loop) but not yet run.
///
/// # Errors
///
/// Fails on unknown kernels, empty/oversized task sets, out-of-range
/// tick parameters, or codegen/assembly errors.
pub fn build_guest_rtos(
    tasks: &[GuestTask],
    config: &GuestRtosConfig,
) -> Result<GuestRtos, ExecError> {
    if tasks.is_empty() || tasks.len() > 8 {
        return Err(err("task sets must have 1..=8 tasks"));
    }
    if config.tick_cycles < 100 || config.tick_cycles >= 0x1_0000 {
        return Err(err("tick_cycles must be in 100..65536 (movw immediate)"));
    }
    if config.total_ticks == 0 || config.total_ticks >= 1 << 24 {
        return Err(err("total_ticks must fit a 24-bit trace payload"));
    }
    if tasks.iter().any(|t| t.tx_id.is_some()) && config.can.is_none() {
        return Err(err("a task transmits on CAN but no CanPort is attached"));
    }

    let mut mconfig = MachineConfig::m3_like();
    let mode = mconfig.mode;
    let flash_size = mconfig.flash.size;
    mconfig.devices = vec![DeviceSpec::Timer(TimerConfig {
        base: TIMER_BASE,
        irq: TICK_IRQ,
        compare: config.tick_cycles,
    })];
    if let Some(can) = &config.can {
        let (filter_id, filter_mask) = can.filter.unwrap_or((0, 0));
        mconfig.devices.push(DeviceSpec::SharedCan(
            CanConfig {
                base: CAN_BASE,
                irq: 1,
                node: can.node,
                filter_id,
                filter_mask,
                ..CanConfig::default()
            },
            can.wire.clone(),
        ));
    }
    let mut m = Machine::new(mconfig);

    // Compile every task body, placed sequentially in flash.
    let mut layouts = Vec::with_capacity(tasks.len());
    let mut code_at = TASK_CODE_BASE;
    for (i, t) in tasks.iter().enumerate() {
        let kernel = kernel_by_name(&t.kernel)
            .ok_or_else(|| err(format!("unknown workload kernel `{}`", t.kernel)))?;
        let opts = CodegenOptions { base_addr: code_at, ..CodegenOptions::default() };
        let prog = compile(&kernel.module, mode, &opts)
            .map_err(|e| err(format!("compile {}: {e}", t.kernel)))?;
        m.load_flash(prog.base_addr, &prog.bytes);
        let entry = prog.entry_address(&t.kernel);
        let input = DATA_REGION_BASE + (i as u32) * DATA_REGION_STRIDE;
        let in_bytes = kernel.input_bytes(t.seed, t.elems);
        let output = input + ((in_bytes.len() as u32 + 63) & !63);
        let out_room = DATA_REGION_STRIDE.saturating_sub(output - input);
        if (t.elems + 8) * 16 > out_room {
            return Err(err(format!(
                "{}: elems {} overflow the task data region",
                t.kernel, t.elems
            )));
        }
        m.load_sram(input, &in_bytes);
        layouts.push(TaskLayout {
            name: t.kernel.clone(),
            entry,
            input,
            output,
            elems: t.elems,
            stack_top: STACK_BASE - (i as u32) * STACK_STRIDE,
            period_ticks: t.period_ticks,
            offset_ticks: t.offset_ticks,
            checksum: kernel.run_reference(t.seed, t.elems),
            expected_activations: t.activations(config.total_ticks),
            tx_id: t.tx_id,
        });
        code_at = (prog.base_addr + prog.code_size() + 63) & !63;
        if code_at >= flash_size {
            return Err(err("task code overflows flash"));
        }
    }

    // Idle/boot stack occupies the stride below the last task stack;
    // even a full 8-task set keeps it clear of the data regions.
    let idle_stack_top = STACK_BASE - tasks.len() as u32 * STACK_STRIDE;
    debug_assert!(idle_stack_top - STACK_STRIDE >= DATA_REGION_BASE + 8 * DATA_REGION_STRIDE);

    let asm = kernel_asm::assemble_kernel(&kernel_asm::KernelParams {
        base: KERNEL_BASE,
        tick_cycles: config.tick_cycles,
        idle_stack_top,
    })
    .map_err(|e| err(format!("kernel asm: {e}")))?;
    m.load_flash(KERNEL_BASE, &asm.bytes);
    // Vector table: one flash word per IRQ line under hardware stacking.
    m.load_flash(4 * TICK_IRQ, &asm.tick_handler.to_le_bytes());
    m.load_flash(4 * SCHED_IRQ, &asm.sched_handler.to_le_bytes());
    // The tick outranks the software scheduler IRQ; both outrank CAN RX
    // (which the acceptance filter keeps silent anyway).
    m.irq.set_priority(TICK_IRQ, 10);
    m.irq.set_priority(SCHED_IRQ, 20);

    // Kernel state block: globals + TCBs.
    let mut state = vec![0u8; (TCB_OFF + (tasks.len() as u32) * (1 << TCB_SHIFT)) as usize];
    let word = |buf: &mut [u8], off: u32, v: u32| {
        buf[off as usize..off as usize + 4].copy_from_slice(&v.to_le_bytes());
    };
    word(&mut state, 4, 0xFF); // current = idle
    word(&mut state, 8, config.total_ticks);
    word(&mut state, 16, tasks.len() as u32);
    for (i, (t, l)) in tasks.iter().zip(&layouts).enumerate() {
        let base = TCB_OFF + (i as u32) * (1 << TCB_SHIFT);
        word(&mut state, base + tcb::PERIOD, t.period_ticks);
        word(&mut state, base + tcb::COUNTDOWN, t.offset_ticks + 1);
        word(&mut state, base + tcb::ENTRY, l.entry);
        word(&mut state, base + tcb::ARG0, l.input);
        word(&mut state, base + tcb::ARG1, l.output);
        word(&mut state, base + tcb::ARG2, l.elems);
        word(&mut state, base + tcb::STACK_TOP, l.stack_top);
        word(&mut state, base + tcb::TX_ID, t.tx_id.unwrap_or(0));
    }
    m.load_sram(KSTATE, &state);

    m.set_pc(asm.main);
    m.cpu.set_sp(idle_stack_top);

    let expected_exit = layouts
        .iter()
        .fold(0u32, |a, l| a.wrapping_add(l.checksum.wrapping_mul(l.expected_activations)));
    let layout = TaskSetLayout {
        tasks: layouts,
        tick_cycles: config.tick_cycles,
        total_ticks: config.total_ticks,
        expected_exit,
    };
    Ok(GuestRtos { machine: m, layout })
}

/// Reads a task's post-run TCB accounting from SRAM:
/// `(activations, acc, overruns, tx_count)` where `acc` is the checksum
/// accumulator (one `wrapping_add` of the body checksum per completion).
#[must_use]
pub fn read_tcb_stats(m: &Machine, layout: &TaskSetLayout, i: usize) -> (u32, u32, u32, u32) {
    let base = layout.tcb(i);
    (
        m.read_sram_word(base + tcb::ACTIVATIONS),
        m.read_sram_word(base + tcb::ACC),
        m.read_sram_word(base + tcb::OVERRUNS),
        m.read_sram_word(base + tcb::TX_COUNT),
    )
}
