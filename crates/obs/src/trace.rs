//! Collected trace data and its views: chrome-trace JSON, per-path
//! aggregation, and the plain-text hierarchical report.

use std::collections::HashMap;
use std::time::Duration;

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name (a `.`-separated taxonomy name, e.g. `chol.numeric`).
    pub name: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recorder-assigned id of the recording thread.
    pub thread: u32,
    /// Unique span id (nonzero).
    pub id: u64,
    /// Id of the enclosing span on the same thread, `0` for roots.
    pub parent: u64,
    /// Numeric key/value arguments captured at the call site.
    pub args: Vec<(&'static str, f64)>,
}

/// One zero-duration instant event (e.g. a solver iteration).
#[derive(Debug, Clone)]
pub struct InstantEvent {
    /// Event name.
    pub name: &'static str,
    /// Timestamp, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Recorder-assigned id of the recording thread.
    pub thread: u32,
    /// Numeric key/value arguments.
    pub args: Vec<(&'static str, f64)>,
}

/// Aggregated statistics for one distinct span *path* (the chain of
/// span names from the root, joined with `/`).
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Full path, e.g. `sparsify/sparsify.iter/chol.factorize`.
    pub path: String,
    /// Leaf span name.
    pub name: &'static str,
    /// Nesting depth (0 for roots).
    pub depth: usize,
    /// Number of spans on this path.
    pub count: u64,
    /// Summed wall time.
    pub total: Duration,
    /// Summed wall time minus time spent in recorded child spans.
    pub self_time: Duration,
}

/// A point-in-time copy of everything the recorder has buffered.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Completed spans, sorted by start time.
    pub spans: Vec<SpanEvent>,
    /// Instant events, sorted by timestamp.
    pub events: Vec<InstantEvent>,
}

impl Trace {
    /// Whether any span with this exact name was recorded.
    pub fn has_span(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Number of spans with this exact name.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per-path aggregates, sorted by path (parents sort before their
    /// children).
    pub fn aggregate(&self) -> Vec<SpanAgg> {
        // Rebuild each span's path by climbing parent links. A parent
        // recorded on another thread (or cleared by a reset) simply
        // roots the path at this span.
        let by_id: HashMap<u64, (&'static str, u64)> =
            self.spans.iter().map(|s| (s.id, (s.name, s.parent))).collect();
        let mut path_memo: HashMap<u64, String> = HashMap::new();
        fn path_of(
            id: u64,
            by_id: &HashMap<u64, (&'static str, u64)>,
            memo: &mut HashMap<u64, String>,
        ) -> String {
            if let Some(p) = memo.get(&id) {
                return p.clone();
            }
            let Some(&(name, parent)) = by_id.get(&id) else {
                return String::new();
            };
            let prefix = if parent == 0 { String::new() } else { path_of(parent, by_id, memo) };
            let path =
                if prefix.is_empty() { name.to_string() } else { format!("{prefix}/{name}") };
            memo.insert(id, path.clone());
            path
        }

        struct Acc {
            name: &'static str,
            count: u64,
            total_ns: u64,
        }
        let mut stats: HashMap<String, Acc> = HashMap::new();
        let mut child_ns: HashMap<String, u64> = HashMap::new();
        for s in &self.spans {
            let path = path_of(s.id, &by_id, &mut path_memo);
            if s.parent != 0 && by_id.contains_key(&s.parent) {
                let parent_path = path_of(s.parent, &by_id, &mut path_memo);
                *child_ns.entry(parent_path).or_insert(0) += s.dur_ns;
            }
            let acc = stats.entry(path).or_insert(Acc { name: s.name, count: 0, total_ns: 0 });
            acc.count += 1;
            acc.total_ns += s.dur_ns;
        }
        let mut out: Vec<SpanAgg> = stats
            .into_iter()
            .map(|(path, acc)| {
                let children = child_ns.get(&path).copied().unwrap_or(0);
                SpanAgg {
                    depth: path.matches('/').count(),
                    name: acc.name,
                    count: acc.count,
                    total: Duration::from_nanos(acc.total_ns),
                    self_time: Duration::from_nanos(acc.total_ns.saturating_sub(children)),
                    path,
                }
            })
            .collect();
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// Plain-text hierarchical summary: one row per distinct span path,
    /// indented by nesting depth, with call count, total and self time.
    pub fn report(&self) -> String {
        let aggs = self.aggregate();
        let mut out = String::new();
        out.push_str(&format!("{:<52} {:>8} {:>12} {:>12}\n", "span", "count", "total", "self"));
        for a in &aggs {
            let label = format!("{}{}", "  ".repeat(a.depth), a.name);
            out.push_str(&format!(
                "{:<52} {:>8} {:>12} {:>12}\n",
                label,
                a.count,
                fmt_duration(a.total),
                fmt_duration(a.self_time)
            ));
        }
        if !self.events.is_empty() {
            out.push_str(&format!("instant events: {}\n", self.events.len()));
        }
        out
    }

    /// The trace as a chrome://tracing `trace_event` JSON array.
    /// Spans become complete (`"ph":"X"`) events, instant events become
    /// `"ph":"i"` events; timestamps are microseconds since the process
    /// trace epoch and each recorder thread gets its own `tid` lane.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
                out.push('\n');
            } else {
                out.push_str(",\n");
            }
        };
        for s in &self.spans {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{}}}",
                escape(s.name),
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                args_json(&s.args)
            ));
        }
        for e in &self.events {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                 \"tid\":{},\"ts\":{:.3},\"args\":{}}}",
                escape(e.name),
                e.thread,
                e.ts_ns as f64 / 1e3,
                args_json(&e.args)
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Serializes span arguments as a JSON object (non-finite values become
/// `null`, mirroring the bench JSON writer).
pub(crate) fn args_json(args: &[(&'static str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape(k), num_json(*v)));
    }
    out.push('}');
    out
}

/// A finite `f64` as JSON, `null` otherwise.
pub(crate) fn num_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Human-friendly duration: picks ns/µs/ms/s by magnitude.
pub(crate) fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}
