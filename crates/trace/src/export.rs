//! Trace exporters: Chrome trace-event JSON (Perfetto-compatible) and CSV.

use crate::event::{TraceEvent, TracePhase};
use crate::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render events as a Chrome trace-event JSON document.
///
/// Layout: one process (`pid` 0), one thread (track) per die, named
/// `die N (ch C)` through metadata events. Each command becomes a
/// complete ("X") event spanning `Started → Completed`; `Suspended`,
/// `Resumed`, and `Promoted` become thread-scoped instant ("i") events
/// on the die's track. Timestamps are microseconds (fractional, so no
/// simulated-nanosecond precision is lost). The output opens directly
/// in Perfetto / `chrome://tracing`.
pub fn chrome_trace_json(events: &[TraceEvent], label: &str) -> String {
    let mut entries: Vec<JsonValue> = Vec::new();

    // Track names, one per die seen in the stream.
    let mut dies: BTreeMap<u32, u32> = BTreeMap::new();
    for ev in events {
        dies.entry(ev.die).or_insert(ev.channel);
    }
    for (&die, &ch) in &dies {
        entries.push(JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("thread_name".into())),
            ("ph".into(), JsonValue::Str("M".into())),
            ("pid".into(), JsonValue::Num(0.0)),
            ("tid".into(), JsonValue::Num(die as f64)),
            (
                "args".into(),
                JsonValue::Obj(vec![(
                    "name".into(),
                    JsonValue::Str(format!("die {die} (ch {ch})")),
                )]),
            ),
        ]));
    }

    // Pair Started/Completed per command id to build span events.
    let mut open: BTreeMap<u64, &TraceEvent> = BTreeMap::new();
    for ev in events {
        match ev.phase {
            TracePhase::Started => {
                open.insert(ev.cmd, ev);
            }
            TracePhase::Completed => {
                // A ring buffer may have evicted the matching Started
                // event; fall back to a zero-duration span at completion.
                let (start_ns, kind, origin) = match open.remove(&ev.cmd) {
                    Some(s) => (s.at_ns, s.kind, s.origin),
                    None => (ev.at_ns, ev.kind, ev.origin),
                };
                let dur_ns = ev.at_ns.saturating_sub(start_ns);
                entries.push(JsonValue::Obj(vec![
                    (
                        "name".into(),
                        JsonValue::Str(format!("{} [{}]", kind.as_str(), origin.as_str())),
                    ),
                    ("cat".into(), JsonValue::Str(origin.as_str().into())),
                    ("ph".into(), JsonValue::Str("X".into())),
                    ("ts".into(), JsonValue::Num(start_ns as f64 / 1000.0)),
                    ("dur".into(), JsonValue::Num(dur_ns as f64 / 1000.0)),
                    ("pid".into(), JsonValue::Num(0.0)),
                    ("tid".into(), JsonValue::Num(ev.die as f64)),
                    (
                        "args".into(),
                        JsonValue::Obj(vec![
                            ("cmd".into(), JsonValue::Num(ev.cmd as f64)),
                            ("channel".into(), JsonValue::Num(ev.channel as f64)),
                        ]),
                    ),
                ]));
            }
            TracePhase::Suspended
            | TracePhase::Resumed
            | TracePhase::Promoted
            | TracePhase::Dispatched => {
                entries.push(JsonValue::Obj(vec![
                    (
                        "name".into(),
                        JsonValue::Str(format!("{} {}", ev.kind.as_str(), ev.phase.as_str())),
                    ),
                    ("cat".into(), JsonValue::Str(ev.origin.as_str().into())),
                    ("ph".into(), JsonValue::Str("i".into())),
                    ("s".into(), JsonValue::Str("t".into())),
                    ("ts".into(), JsonValue::Num(ev.at_ns as f64 / 1000.0)),
                    ("pid".into(), JsonValue::Num(0.0)),
                    ("tid".into(), JsonValue::Num(ev.die as f64)),
                    (
                        "args".into(),
                        JsonValue::Obj(vec![("cmd".into(), JsonValue::Num(ev.cmd as f64))]),
                    ),
                ]));
            }
            // Submitted marks queue-entry; it is carried in the span's
            // pairing, not drawn separately, to keep traces readable.
            TracePhase::Submitted => {}
        }
    }

    JsonValue::Obj(vec![
        ("traceEvents".into(), JsonValue::Arr(entries)),
        ("displayTimeUnit".into(), JsonValue::Str("ns".into())),
        (
            "otherData".into(),
            JsonValue::Obj(vec![("label".into(), JsonValue::Str(label.into()))]),
        ),
    ])
    .render()
}

/// The dies whose track in a [`chrome_trace_json`] document carries at
/// least one real (non-metadata) event — the coverage check both the
/// observability wall and the sweep's `--trace` self-validation run.
pub fn chrome_trace_dies(doc: &str) -> Result<std::collections::BTreeSet<u64>, String> {
    let parsed = crate::json::parse(doc)?;
    let events = parsed.get("traceEvents").and_then(JsonValue::as_array);
    let events = events.ok_or("trace JSON has no traceEvents array")?;
    let real = events
        .iter()
        .filter(|ev| ev.get("ph").and_then(JsonValue::as_str) != Some("M"));
    Ok(real
        .filter_map(|ev| ev.get("tid").and_then(JsonValue::as_u64))
        .collect())
}

/// Render events as CSV, one row per event, oldest first.
pub fn trace_csv(events: &[TraceEvent]) -> String {
    let mut out = String::from("at_ns,cmd,die,channel,kind,origin,phase\n");
    for ev in events {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            ev.at_ns,
            ev.cmd,
            ev.die,
            ev.channel,
            ev.kind.as_str(),
            ev.origin.as_str(),
            ev.phase.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CommandKind, CommandOrigin};
    use crate::json;

    fn ev(at_ns: u64, cmd: u64, die: u32, phase: TracePhase) -> TraceEvent {
        TraceEvent {
            at_ns,
            cmd,
            die,
            channel: die % 2,
            kind: CommandKind::Read,
            origin: CommandOrigin::Host,
            phase,
        }
    }

    #[test]
    fn chrome_export_pairs_spans_and_parses() {
        let events = vec![
            ev(1000, 1, 0, TracePhase::Submitted),
            ev(1000, 1, 0, TracePhase::Started),
            ev(1500, 1, 0, TracePhase::Promoted),
            ev(9000, 1, 0, TracePhase::Completed),
            ev(2000, 2, 1, TracePhase::Started),
            ev(4000, 2, 1, TracePhase::Completed),
        ];
        let doc = json::parse(&chrome_trace_json(&events, "unit")).unwrap();
        let entries = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata + 2 spans + 1 instant.
        assert_eq!(entries.len(), 5);
        let span = entries
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(8.0));
        let inst = entries
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .unwrap();
        assert_eq!(inst.get("s").unwrap().as_str(), Some("t"));
    }

    #[test]
    fn orphan_completion_degrades_to_zero_duration() {
        let events = vec![ev(5000, 9, 0, TracePhase::Completed)];
        let doc = json::parse(&chrome_trace_json(&events, "x")).unwrap();
        let entries = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = entries
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn csv_has_one_row_per_event() {
        let events = vec![
            ev(1, 1, 0, TracePhase::Started),
            ev(2, 1, 0, TracePhase::Completed),
        ];
        let csv = trace_csv(&events);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("at_ns,cmd,die,channel,kind,origin,phase"));
        assert!(csv.contains("2,1,0,0,read,host,completed"));
    }
}
