//! The machine-readable JSON snapshot: span aggregates + registered
//! instruments, one self-contained object. perfbench's `--trace 1` run
//! writes it as the run's span tree (`span_tree_json` in
//! `perfbench/src/calls.rs`).

use crate::registry::AnyInstrument;
use crate::trace::{escape, num_json, Trace};

/// Serializes `trace`'s per-path aggregates plus every globally
/// registered instrument as one JSON object:
///
/// ```json
/// {
///   "spans": [{"path": "...", "count": 1, "total_s": 0.1, "self_s": 0.1}],
///   "counters": {"name": 3},
///   "gauges": {"name": {"value": 0, "max": 4}},
///   "histograms": {"name": {"count": 9, "mean_s": 0.1, "p50_s": 0.1,
///                            "p90_s": 0.2, "p99_s": 0.2, "max_s": 0.3}}
/// }
/// ```
pub(crate) fn snapshot_json(trace: &Trace) -> String {
    let mut out = String::from("{\"spans\":[");
    for (i, a) in trace.aggregate().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
            escape(&a.path),
            a.count,
            num_json(a.total.as_secs_f64()),
            num_json(a.self_time.as_secs_f64())
        ));
    }
    out.push_str("],\"counters\":{");
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    crate::registry::for_each(|name, inst| match inst {
        AnyInstrument::Counter(c) => counters.push(format!("\"{}\":{}", escape(name), c.get())),
        AnyInstrument::Gauge(g) => gauges.push(format!(
            "\"{}\":{{\"value\":{},\"max\":{}}}",
            escape(name),
            g.get(),
            g.max_seen()
        )),
        AnyInstrument::Histogram(h) => {
            let s = h.summary();
            histograms.push(format!(
                "\"{}\":{{\"count\":{},\"mean_s\":{},\"p50_s\":{},\"p90_s\":{},\
                 \"p99_s\":{},\"max_s\":{}}}",
                escape(name),
                s.count,
                num_json(s.mean_s),
                num_json(s.p50_s),
                num_json(s.p90_s),
                num_json(s.p99_s),
                num_json(s.max_s)
            ));
        }
    });
    out.push_str(&counters.join(","));
    out.push_str("},\"gauges\":{");
    out.push_str(&gauges.join(","));
    out.push_str("},\"histograms\":{");
    out.push_str(&histograms.join(","));
    out.push_str("}}");
    out
}
