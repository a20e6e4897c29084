//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! it makes into each layer's public functions. Each span keeps its name,
//! start, end, parent and operation id, plus the process's VmHWM sampled
//! at its start and end, so the stage that raised peak memory is named.
//! Nothing is written until the run ends ([`Tracer::to_jsonl`]).
//!
//! A disabled tracer records nothing: [`Tracer::span`] then only calls
//! its closure, so the untraced run executes the same code.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.stage[.detail]`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Operation the span belongs to (all spans of one op share it).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
    /// VmHWM when the span started, in KiB.
    pub hwm_start_kb: u64,
    /// VmHWM when the span ended, in KiB.
    pub hwm_end_kb: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder. Single-threaded: the benchmark client is one
/// thread, and spans wrap whole calls (worker threads live inside them).
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    units: RefCell<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            units: RefCell::new(BTreeMap::new()),
        }
    }

    /// Whether spans are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Turn recording on or off (the traced run alternates traced and
    /// untraced rounds to measure the tracing overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn begin_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let hwm_start_kb = vm_hwm_kb();
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                op: self.op.get(),
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                self_ns: 0,
                hwm_start_kb,
                hwm_end_kb: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        let end_ns = self.now_ns();
        let hwm_end_kb = vm_hwm_kb();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[index];
        span.end_ns = end_ns;
        span.hwm_end_kb = hwm_end_kb;
        out
    }

    /// Count `n` units of work (rows, records, accesses…) against the
    /// span name `name`; per-layer metrics divide self time by these.
    /// Counted only while recording, so units match recorded spans.
    pub fn units(&self, name: &'static str, n: u64) {
        if self.enabled.get() {
            *self.units.borrow_mut().entry(name).or_default() += n;
        }
    }

    /// Units counted against `name`.
    pub fn unit_count(&self, name: &str) -> u64 {
        self.units.borrow().get(name).copied().unwrap_or(0)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span with its self time filled in.
    pub fn finished_spans(&self) -> Vec<Span> {
        let mut spans = self.spans.borrow().clone();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        for (s, covered) in spans.iter_mut().zip(child_ns) {
            s.self_ns = s.duration_ns().saturating_sub(covered);
        }
        spans
    }

    /// Summed self time of every span named `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.finished_spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns)
            .sum()
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// For each layer, how far VmHWM rose (MiB) while one of its spans
    /// ran and none of that span's children did — the self rise, counted
    /// like self time. The layer with the largest rise raised the peak.
    pub fn hwm_rise_mb(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.finished_spans();
        let rise = |s: &Span| s.hwm_end_kb.saturating_sub(s.hwm_start_kb);
        let mut child_rise = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_rise[p] += rise(s);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, covered) in spans.iter().zip(child_rise) {
            let own = rise(s).saturating_sub(covered) as f64 / 1024.0;
            *out.entry(s.layer()).or_default() += own;
        }
        out
    }

    /// The spans as JSON lines, after a first `stamp` line.
    pub fn to_jsonl(&self, stamp: &str) -> String {
        let mut out = String::new();
        out.push_str(stamp);
        out.push('\n');
        for s in self.finished_spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"hwm_kb\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.self_ns, s.hwm_end_kb
            );
        }
        out
    }
}

/// Peak resident set size of this process so far (VmHWM), in KiB; 0
/// where `/proc` is unavailable.
pub fn vm_hwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        t.begin_op(7);
        t.span("outer.run", || {
            t.span("inner.work", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.finished_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].self_ns < spans[1].duration_ns());
        assert_eq!(
            spans[0].self_ns + spans[1].duration_ns(),
            spans[0].duration_ns()
        );

        let off = Tracer::new(false);
        assert_eq!(off.span("outer.run", || 3), 3);
        off.units("outer.run", 5);
        assert!(off.finished_spans().is_empty());
        assert_eq!(off.unit_count("outer.run"), 0);
    }
}
