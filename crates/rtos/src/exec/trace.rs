//! Host-side decoding of the guest kernel's cycle-stamped trace and
//! the executed-vs-analytic response-time machinery.

use alia_obs::{EventKind, Fnv, RtosEventKind, TraceEvent};
use alia_sim::Machine;

use crate::{response_time_analysis, AnalysisTask, ResponseTerm};

use super::{err, read_tcb_stats, ExecError, TaskSetLayout, TICK_IRQ};

/// The task field of a decoded event that names no task.
const NO_TASK: u8 = 0xFF;

/// Decodes one guest trace word, `kind << 28 | task << 24 | payload`,
/// into `(kind, task, payload)`. Kinds 1..=10 are [`RtosEventKind`]'s
/// variants in declaration order; the task nibble is kept for the
/// per-task kinds and is [`NO_TASK`] for the others.
fn decode_word(value: u32) -> Result<(RtosEventKind, u8, u32), ExecError> {
    use RtosEventKind as K;
    let (kind, per_task) = match value >> 28 {
        1 => (K::Activate, true),
        2 => (K::Start, true),
        3 => (K::Preempt, true),
        4 => (K::Complete, true),
        5 => (K::TickEnter, false),
        6 => (K::TickExit, false),
        7 => (K::SchedEnter, false),
        8 => (K::SchedExit, false),
        9 => (K::Idle, false),
        10 => (K::Overrun, true),
        _ => return Err(err(format!("unknown trace kind in 0x{value:08X}"))),
    };
    let task = if per_task { ((value >> 24) & 0xF) as u8 } else { NO_TASK };
    Ok((kind, task, value & 0x00FF_FFFF))
}

/// Decodes the raw `(value, cycle)` pairs read from the `Mmio` device
/// into structured [`alia_obs`] events ([`alia_obs::category::RTOS`]),
/// so a mission's kernel activity can merge into the same
/// cycle-stamped stream as the simulator's own tier / IRQ / wire
/// events.
///
/// # Errors
///
/// Fails on unknown kind bits.
pub fn decode_trace(raw: &[(u32, u64)]) -> Result<Vec<TraceEvent>, ExecError> {
    raw.iter()
        .map(|&(value, cycle)| {
            let (kind, task, payload) = decode_word(value)?;
            Ok(TraceEvent { cycle, kind: EventKind::Rtos { kind, task, payload } })
        })
        .collect()
}

/// Aggregate statistics of one handler (tick or scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HandlerStats {
    /// Number of traced enter/exit pairs.
    pub invocations: u32,
    /// Longest enter-to-exit span in cycles.
    pub max_span: u64,
    /// Summed spans.
    pub total_span: u64,
}

/// Per-task executed statistics distilled from the trace and the TCB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskExecStats {
    /// Workload kernel name.
    pub name: String,
    /// Traced activations.
    pub activations: u32,
    /// Traced completions.
    pub completions: u32,
    /// Traced overruns (releases skipped because the job was late).
    pub overruns: u32,
    /// Times this task was switched out with context saved.
    pub preemptions: u32,
    /// Largest net per-job execution time (handler spans subtracted).
    pub wcet_measured: u64,
    /// Largest release-to-completion span (release = tick fire cycle).
    pub worst_response: u64,
    /// Summed responses (for means: divide by `completions`).
    pub total_response: u64,
    /// Checksum accumulator read back from the TCB.
    pub acc: u32,
    /// `completions x reference checksum` (wrapping) — what `acc` must
    /// equal if preemption was transparent.
    pub expected_acc: u32,
}

/// Everything the host distills from one executed mission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Per-task stats, TCB (= priority) order.
    pub tasks: Vec<TaskExecStats>,
    /// Tick handler aggregate.
    pub tick: HandlerStats,
    /// Scheduler handler aggregate.
    pub sched: HandlerStats,
    /// Worst pend-to-first-instruction latency over all interrupts.
    pub irq_overhead_max: u64,
    /// Exact timer fire cycles (pend stamps of the tick IRQ).
    pub tick_fires: Vec<u64>,
    /// Raw trace length.
    pub trace_len: usize,
    /// FNV-1a ([`Fnv`]) over the raw `(value, cycle)` trace words —
    /// the determinism fingerprint.
    pub trace_hash: u64,
}

/// One row of the executed-vs-analytic comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundReport {
    /// Workload kernel name.
    pub name: String,
    /// Executed worst-case response (cycles).
    pub executed: u64,
    /// Analytic response-time bound (cycles).
    pub bound: u64,
    /// `bound - executed`; negative would falsify the analysis.
    pub margin: i64,
    /// Which analytic term dominates the bound.
    pub dominant: ResponseTerm,
}

impl ExecStats {
    /// Distills the trace, IRQ latency log and TCB state of a finished
    /// mission.
    ///
    /// # Errors
    ///
    /// Fails when the trace is structurally inconsistent (unmatched
    /// handler enter/exit, completion without activation, dispatch of
    /// an unreleased task) — any of which indicates a guest kernel bug.
    pub fn from_machine(m: &Machine, layout: &TaskSetLayout) -> Result<ExecStats, ExecError> {
        let raw = &m.mmio().trace;
        let n = layout.tasks.len();
        let mut records = Vec::with_capacity(raw.len());
        let mut hash = Fnv::default();
        for &(value, cycle) in raw {
            let (kind, task, _) = decode_word(value)?;
            if task != NO_TASK && usize::from(task) >= n {
                return Err(err(format!("trace names task {task} of {n}")));
            }
            records.push((kind, usize::from(task), cycle));
            hash.u64(u64::from(value));
            hash.u64(cycle);
        }

        let tick_fires: Vec<u64> = m
            .latencies()
            .iter()
            .filter(|l| l.irq == TICK_IRQ)
            .map(|l| l.pend_cycle)
            .collect();
        let irq_overhead_max = m
            .latencies()
            .iter()
            .map(|l| l.entry_cycle.saturating_sub(l.pend_cycle))
            .max()
            .unwrap_or(0);

        // Walk the trace once: handler spans, per-task net execution
        // (segments between handler exit and the next handler entry /
        // completion), activation and completion pairing.
        let mut tick = HandlerStats::default();
        let mut sched = HandlerStats::default();
        let mut handler_enter: Option<(RtosEventKind, u64)> = None;
        let mut running: Option<usize> = None;
        let mut seg_start: u64 = 0;
        let mut in_handler = false;
        let mut job_acc = vec![0u64; n];
        let mut activations: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut completions: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut wcet_measured = vec![0u64; n];
        let mut preemptions = vec![0u32; n];
        let mut overruns = vec![0u32; n];

        for &(kind, t, cycle) in &records {
            match kind {
                RtosEventKind::TickEnter | RtosEventKind::SchedEnter => {
                    if handler_enter.is_some() {
                        return Err(err("nested handler enter in trace"));
                    }
                    handler_enter = Some((kind, cycle));
                    if let Some(t) = running {
                        if !in_handler {
                            job_acc[t] += cycle - seg_start;
                        }
                    }
                    in_handler = true;
                }
                RtosEventKind::TickExit | RtosEventKind::SchedExit => {
                    let Some((ekind, enter)) = handler_enter.take() else {
                        return Err(err("handler exit without enter in trace"));
                    };
                    let want = if kind == RtosEventKind::TickExit {
                        RtosEventKind::TickEnter
                    } else {
                        RtosEventKind::SchedEnter
                    };
                    if ekind != want {
                        return Err(err("mismatched handler enter/exit kinds"));
                    }
                    let span = cycle - enter;
                    let h = if kind == RtosEventKind::TickExit { &mut tick } else { &mut sched };
                    h.invocations += 1;
                    h.total_span += span;
                    h.max_span = h.max_span.max(span);
                    in_handler = false;
                    if running.is_some() {
                        seg_start = cycle;
                    }
                }
                RtosEventKind::Activate => {
                    activations[t].push(cycle);
                }
                RtosEventKind::Overrun => {
                    overruns[t] += 1;
                }
                RtosEventKind::Preempt => {
                    preemptions[t] += 1;
                    if running != Some(t) {
                        return Err(err("preempt of a task that was not running"));
                    }
                    running = None;
                }
                RtosEventKind::Start => {
                    if activations[t].len() <= completions[t].len() {
                        return Err(err("dispatch of a task with no outstanding activation"));
                    }
                    running = Some(t);
                    // The segment starts when the handler returns.
                }
                RtosEventKind::Idle => {
                    running = None;
                }
                RtosEventKind::Complete => {
                    if running != Some(t) {
                        return Err(err("completion of a task that was not running"));
                    }
                    if in_handler {
                        return Err(err("completion traced inside a handler"));
                    }
                    job_acc[t] += cycle - seg_start;
                    wcet_measured[t] = wcet_measured[t].max(job_acc[t]);
                    job_acc[t] = 0;
                    if completions[t].len() >= activations[t].len() {
                        return Err(err("completion without activation"));
                    }
                    completions[t].push(cycle);
                    running = None;
                }
            }
        }
        if handler_enter.is_some() {
            return Err(err("trace ends inside a handler"));
        }

        // Response per job: k-th completion against the tick fire that
        // released the k-th activation (the state gate guarantees at
        // most one outstanding activation, so pairing is FIFO-exact).
        let mut tasks = Vec::with_capacity(n);
        for (i, l) in layout.tasks.iter().enumerate() {
            let mut worst = 0u64;
            let mut total = 0u64;
            for (k, &done) in completions[i].iter().enumerate() {
                let act = activations[i][k];
                let release = match tick_fires.partition_point(|&f| f <= act) {
                    0 => return Err(err("activation before the first tick fire")),
                    p => tick_fires[p - 1],
                };
                let resp = done - release;
                worst = worst.max(resp);
                total += resp;
            }
            let (tcb_activations, acc, tcb_overruns, _tx) = read_tcb_stats(m, layout, i);
            if tcb_activations != activations[i].len() as u32 {
                return Err(err(format!(
                    "{}: TCB counts {} activations, trace {}",
                    l.name,
                    tcb_activations,
                    activations[i].len()
                )));
            }
            if tcb_overruns != overruns[i] {
                return Err(err(format!("{}: TCB/trace overrun mismatch", l.name)));
            }
            let completions_n = completions[i].len() as u32;
            tasks.push(TaskExecStats {
                name: l.name.clone(),
                activations: tcb_activations,
                completions: completions_n,
                overruns: overruns[i],
                preemptions: preemptions[i],
                wcet_measured: wcet_measured[i],
                worst_response: worst,
                total_response: total,
                acc,
                expected_acc: l.checksum.wrapping_mul(completions_n),
            });
        }

        Ok(ExecStats {
            tasks,
            tick,
            sched,
            irq_overhead_max,
            tick_fires,
            trace_len: raw.len(),
            trace_hash: hash.finish(),
        })
    }

    /// Builds the analytic task set matching the executed mission: a
    /// highest-priority pseudo-task for the tick handler, then one task
    /// per guest task with measured net WCET inflated by the scheduler
    /// handler span and interrupt entry overheads. Every guest task
    /// carries a max-ceiling critical section modelling the
    /// non-preemptable completion epilogue of lower-priority tasks, so
    /// higher-priority tasks see it as a blocking term.
    #[must_use]
    pub fn analysis_set(&self, layout: &TaskSetLayout) -> Vec<AnalysisTask> {
        const EPS: u64 = 64;
        let tick_wcet = self.tick.max_span + self.irq_overhead_max + EPS;
        let mut set = vec![AnalysisTask::new(255, tick_wcet, u64::from(layout.tick_cycles))];
        let epilogue = self.sched.max_span + self.irq_overhead_max + EPS;
        for (i, (t, l)) in self.tasks.iter().zip(&layout.tasks).enumerate() {
            let wcet = t.wcet_measured + self.sched.max_span + 2 * self.irq_overhead_max + EPS;
            let period = u64::from(l.period_ticks) * u64::from(layout.tick_cycles);
            set.push(
                AnalysisTask::new(200 - i as u8, wcet, period).with_section(255, epilogue),
            );
        }
        set
    }

    /// Runs [`response_time_analysis`] over [`Self::analysis_set`] and
    /// compares each task's executed worst response against its bound.
    ///
    /// # Errors
    ///
    /// Fails when the analysis diverges for a task that executed (an
    /// unschedulable set cannot be validated).
    pub fn validate_bounds(&self, layout: &TaskSetLayout) -> Result<Vec<BoundReport>, ExecError> {
        let set = self.analysis_set(layout);
        let resp = response_time_analysis(&set);
        let mut reports = Vec::with_capacity(self.tasks.len());
        for (t, r) in self.tasks.iter().zip(resp.iter().skip(1)) {
            let bound = r
                .response
                .ok_or_else(|| err(format!("{}: response-time analysis diverged", t.name)))?;
            reports.push(BoundReport {
                name: t.name.clone(),
                executed: t.worst_response,
                bound,
                margin: bound as i64 - t.worst_response as i64,
                dominant: r.dominant_term(),
            });
        }
        Ok(reports)
    }
}
