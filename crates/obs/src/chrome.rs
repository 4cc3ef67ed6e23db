//! Chrome trace-event JSON exporter (Perfetto / `chrome://tracing`
//! loadable).
//!
//! Mapping: one **pid per stream** (node, wire, scheduler), one **tid
//! per category** within the stream, so Perfetto renders each node as
//! a process with `tier` / `irq` / `wire` / ... tracks. Cycle stamps
//! become microsecond timestamps verbatim (1 cycle = 1 µs in the
//! viewer; relative spacing is what matters). Frame transmissions
//! export as complete (`"X"`) events spanning enqueue → completion —
//! a preemption riding a CAN frame across three wires is three bars on
//! three process tracks; everything else exports as thread-scoped
//! instants (`"i"`).

use crate::json::{self, Value};
use crate::trace::{category, EventKind, TraceSet};

/// Writes one event's kind-specific `args` object.
fn args(kind: &EventKind) -> String {
    match *kind {
        EventKind::Demote { pc } | EventKind::BudgetSplit { pc } => format!("{{\"pc\":{pc}}}"),
        EventKind::BlockFill { pc, len } => format!("{{\"pc\":{pc},\"len\":{len}}}"),
        EventKind::IrqPend { irq } => format!("{{\"irq\":{irq}}}"),
        EventKind::IrqTake { irq, tail_chained } => {
            format!("{{\"irq\":{irq},\"tail_chained\":{tail_chained}}}")
        }
        EventKind::WfiPark | EventKind::WfiResume => "{}".to_string(),
        EventKind::FrameTx { id, node, attempt, .. } => {
            format!("{{\"id\":{id},\"node\":{node},\"attempt\":{attempt}}}")
        }
        EventKind::ErrorState { node, state } => format!("{{\"node\":{node},\"state\":{state}}}"),
        EventKind::DmaForward { route, id } => format!("{{\"route\":{route},\"id\":{id}}}"),
        EventKind::DmaDrop { id, reason } => {
            format!("{{\"id\":{id},\"reason\":\"{reason:?}\"}}")
        }
        EventKind::Quantum { index } => format!("{{\"index\":{index}}}"),
        EventKind::IdleStretch { to } => format!("{{\"to\":{to}}}"),
        EventKind::Rtos { task, payload, .. } => format!("{{\"task\":{task},\"payload\":{payload}}}"),
    }
}

/// Exports a [`TraceSet`] as a Chrome trace-event JSON document.
#[must_use]
pub fn export(set: &TraceSet) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for (pid, stream) in set.streams.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json::escape(&stream.label)
            ),
            &mut first,
        );
        let mut seen_cats = 0u32;
        for ev in &stream.events {
            let cat = ev.kind.category();
            let tid = category::tid(cat);
            if seen_cats & cat == 0 {
                seen_cats |= cat;
                push(
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        category::name(cat)
                    ),
                    &mut first,
                );
            }
            let name = ev.kind.name();
            let a = args(&ev.kind);
            let line = if let EventKind::FrameTx { enqueued, .. } = ev.kind {
                let dur = ev.cycle.saturating_sub(enqueued);
                format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{enqueued},\
                     \"dur\":{dur},\"name\":\"{name}\",\"cat\":\"{}\",\"args\":{a}}}",
                    category::name(cat)
                )
            } else {
                format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\
                     \"name\":\"{name}\",\"cat\":\"{}\",\"args\":{a}}}",
                    ev.cycle,
                    category::name(cat)
                )
            };
            push(line, &mut first);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Structural summary of a parsed Chrome trace, used by round-trip
/// tests and the CI example smoke.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Process names, in pid order.
    pub processes: Vec<String>,
    /// Instant (`"i"`) event count.
    pub instants: usize,
    /// Complete (`"X"`) event count.
    pub completes: usize,
    /// Per-`(process, category)` event counts, sorted.
    pub counts: Vec<((String, String), usize)>,
}

/// Parses an exported document back and checks its structure: every
/// event must carry `ph`/`pid`/`tid`/`ts`/`name`, reference a declared
/// process, and use a known phase.
///
/// # Errors
/// Returns a description of the first structural violation.
pub fn validate(text: &str) -> Result<ChromeSummary, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut processes: std::collections::BTreeMap<u64, String> = Default::default();
    // Metadata first pass: collect process names.
    for ev in events {
        let obj = ev.as_obj().ok_or("event is not an object")?;
        let ph = obj.get("ph").and_then(Value::as_str).ok_or("event missing ph")?;
        if ph == "M" && obj.get("name").and_then(Value::as_str) == Some("process_name") {
            let pid = obj.get("pid").and_then(Value::as_num).ok_or("metadata missing pid")? as u64;
            let name = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .ok_or("process_name missing args.name")?;
            processes.insert(pid, name.to_string());
        }
    }
    let mut summary = ChromeSummary::default();
    let mut counts: std::collections::BTreeMap<(String, String), usize> = Default::default();
    for ev in events {
        let obj = ev.as_obj().unwrap();
        let ph = obj.get("ph").and_then(Value::as_str).unwrap();
        let pid = obj.get("pid").and_then(Value::as_num).ok_or("event missing pid")? as u64;
        obj.get("tid").and_then(Value::as_num).ok_or("event missing tid")?;
        obj.get("name").and_then(Value::as_str).ok_or("event missing name")?;
        match ph {
            "M" => continue,
            "i" | "X" => {
                obj.get("ts").and_then(Value::as_num).ok_or("event missing ts")?;
                if ph == "X" {
                    obj.get("dur").and_then(Value::as_num).ok_or("X event missing dur")?;
                    summary.completes += 1;
                } else {
                    summary.instants += 1;
                }
                let proc = processes
                    .get(&pid)
                    .ok_or_else(|| format!("event references undeclared pid {pid}"))?;
                let cat = obj
                    .get("cat")
                    .and_then(Value::as_str)
                    .ok_or("event missing cat")?
                    .to_string();
                *counts.entry((proc.clone(), cat)).or_default() += 1;
            }
            other => return Err(format!("unknown phase {other:?}")),
        }
    }
    summary.processes = processes.into_values().collect();
    summary.counts = counts.into_iter().collect();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{DropReason, RtosEventKind, TraceEvent};

    fn sample_set() -> TraceSet {
        let mut set = TraceSet::new();
        set.push_stream(
            "node \"zero\"",
            vec![
                TraceEvent { cycle: 11, kind: EventKind::BlockFill { pc: 0x40, len: 7 } },
                TraceEvent { cycle: 20, kind: EventKind::IrqPend { irq: 2 } },
                TraceEvent { cycle: 25, kind: EventKind::IrqTake { irq: 2, tail_chained: true } },
                TraceEvent { cycle: 30, kind: EventKind::WfiPark },
                TraceEvent { cycle: 40, kind: EventKind::WfiResume },
                TraceEvent { cycle: 41, kind: EventKind::Demote { pc: 0x40 } },
                TraceEvent { cycle: 42, kind: EventKind::BudgetSplit { pc: 0x44 } },
                TraceEvent {
                    cycle: 50,
                    kind: EventKind::DmaForward { route: 1, id: 0x123 },
                },
                TraceEvent {
                    cycle: 51,
                    kind: EventKind::DmaDrop { id: 0x456, reason: DropReason::QueueOverflow },
                },
                TraceEvent {
                    cycle: 60,
                    kind: EventKind::Rtos { kind: RtosEventKind::Preempt, task: 1, payload: 2 },
                },
            ],
        );
        set.push_stream(
            "wire0",
            vec![
                TraceEvent {
                    cycle: 200,
                    kind: EventKind::FrameTx { id: 0x10, node: 1, enqueued: 100, attempt: 1, data: true },
                },
                TraceEvent {
                    cycle: 300,
                    kind: EventKind::FrameTx { id: 0x10, node: 1, enqueued: 250, attempt: 2, data: false },
                },
                TraceEvent { cycle: 310, kind: EventKind::ErrorState { node: 1, state: 1 } },
            ],
        );
        set.push_stream(
            "scheduler",
            vec![
                TraceEvent { cycle: 500, kind: EventKind::Quantum { index: 0 } },
                TraceEvent { cycle: 900, kind: EventKind::IdleStretch { to: 2000 } },
            ],
        );
        set
    }

    #[test]
    fn export_round_trips_through_validate() {
        let set = sample_set();
        let text = export(&set);
        let summary = validate(&text).expect("exported trace must validate");
        // Every stream declares a process, label escaping survives.
        assert_eq!(
            summary.processes,
            vec!["node \"zero\"".to_string(), "wire0".to_string(), "scheduler".to_string()]
        );
        // Frame transmissions are the only complete events.
        assert_eq!(summary.completes, 2);
        assert_eq!(summary.instants, set.total_events() - 2);
        // Per-(process, category) counts match the source set exactly.
        for (pid, stream) in set.streams.iter().enumerate() {
            let mut expect: std::collections::BTreeMap<String, usize> = Default::default();
            for ev in &stream.events {
                *expect.entry(category::name(ev.kind.category()).to_string()).or_default() += 1;
            }
            for (cat, n) in expect {
                let label = &set.streams[pid].label;
                let got = summary
                    .counts
                    .iter()
                    .find(|((p, c), _)| p == label && *c == cat)
                    .map(|(_, n)| *n);
                assert_eq!(got, Some(n), "stream {label} category {cat}");
            }
        }
    }

    #[test]
    fn validate_rejects_malformed() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        // An event referencing an undeclared pid fails.
        let bad = r#"{"traceEvents":[
            {"ph":"i","s":"t","pid":9,"tid":1,"ts":0,"name":"x","cat":"irq","args":{}}
        ]}"#;
        assert!(validate(bad).unwrap_err().contains("undeclared pid"));
    }
}
