//! Spans recorded from the benchmark's own code, around each call it makes
//! into a layer's public functions.
//!
//! Every benchmark operation runs inside [`op`], the root span. Inside an
//! armed operation, [`span`] records each layer call: its duration and its
//! self time (duration minus the child spans it covers). The root span's
//! self time is the part of the operation no layer accounts for, so per
//! operation `wall = Σ layer self time + unattributed` holds exactly.
//!
//! Spans live in a per-thread recorder; multi-threaded workloads merge the
//! recorders with [`take`] when their threads finish. With nothing armed
//! a span costs one thread-local flag read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// The layers spans are attributed to, named after the workspace modules.
/// `delegation` has no span of its own: its work runs inside `pool.admit`.
pub const LAYERS: [&str; 8] =
    ["sgx", "enclave", "restore", "server", "service", "client", "vm", "pool"];

/// Recorded spans and operation timings of one thread (or a merge).
#[derive(Debug, Default)]
pub struct Trace {
    /// Self time per layer, seconds, over armed operations.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Per span name: `(duration, self)` seconds of each armed span.
    pub spans: BTreeMap<&'static str, Vec<(f64, f64)>>,
    /// Per operation kind: durations of armed and unarmed operations.
    pub ops: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
    /// Root-span self time over armed operations: no layer's call.
    pub unattributed_s: f64,
    /// Total duration of armed operations.
    pub wall_s: f64,
}

impl Trace {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Trace) {
        for (k, v) in other.self_s {
            *self.self_s.entry(k).or_default() += v;
        }
        for (k, v) in other.spans {
            self.spans.entry(k).or_default().extend(v);
        }
        for (k, (a, u)) in other.ops {
            let e = self.ops.entry(k).or_default();
            e.0.extend(a);
            e.1.extend(u);
        }
        self.unattributed_s += other.unattributed_s;
        self.wall_s += other.wall_s;
    }

    /// Durations (seconds) of every armed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.get(name).map(|v| v.iter().map(|s| s.0).collect()).unwrap_or_default()
    }

    /// Self times (seconds) of every armed span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans.get(name).map(|v| v.iter().map(|s| s.1).collect()).unwrap_or_default()
    }

    /// Number of armed operations.
    pub fn armed_ops(&self) -> usize {
        self.ops.values().map(|(a, _)| a.len()).sum()
    }

    /// Tracing overhead in percent: per operation kind, the mean armed
    /// duration against the mean unarmed one, weighted by how often each
    /// kind ran. Zero when either side has no sample.
    pub fn overhead_pct(&self) -> f64 {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mut armed, mut plain) = (0.0, 0.0);
        for (a, u) in self.ops.values() {
            if a.is_empty() || u.is_empty() {
                continue;
            }
            let n = (a.len() + u.len()) as f64;
            armed += mean(a) * n;
            plain += mean(u) * n;
        }
        if plain > 0.0 {
            (armed / plain - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

struct Open {
    start: Instant,
    child_s: f64,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static TRACE: RefCell<Trace> = RefCell::new(Trace::default());
}

fn close(layer: Option<&'static str>, name: &'static str) -> (f64, f64) {
    let open = STACK.with(|s| s.borrow_mut().pop()).expect("span stack underflow");
    let dur = open.start.elapsed().as_secs_f64();
    let own = dur - open.child_s;
    STACK.with(|s| {
        if let Some(parent) = s.borrow_mut().last_mut() {
            parent.child_s += dur;
        }
    });
    if let Some(layer) = layer {
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            *t.self_s.entry(layer).or_default() += own;
            t.spans.entry(name).or_default().push((dur, own));
        });
    }
    (dur, own)
}

fn open() {
    STACK.with(|s| s.borrow_mut().push(Open { start: Instant::now(), child_s: 0.0 }));
}

/// Runs `f` as a call into `layer`, recorded under `name` when the
/// enclosing operation is armed.
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ARMED.with(Cell::get) {
        return f();
    }
    open();
    let r = f();
    close(Some(layer), name);
    r
}

/// Runs one benchmark operation of `kind` and returns its wall time in
/// seconds. When `armed`, the layer spans inside it are recorded.
pub fn op<R>(kind: &'static str, armed: bool, f: impl FnOnce() -> R) -> (f64, R) {
    ARMED.with(|a| a.set(armed));
    open();
    let r = f();
    let (dur, own) = close(None, kind);
    ARMED.with(|a| a.set(false));
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let e = t.ops.entry(kind).or_default();
        if armed {
            e.0.push(dur);
            t.unattributed_s += own;
            t.wall_s += dur;
        } else {
            e.1.push(dur);
        }
    });
    (dur, r)
}

/// Merges `t` (another thread's recorder) into this thread's.
pub fn absorb(t: Trace) {
    TRACE.with(|mine| mine.borrow_mut().merge(t));
}

/// Takes this thread's recorder, leaving an empty one.
pub fn take() -> Trace {
    TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_and_unattributed_sum_to_wall() {
        take();
        for i in 0..4 {
            op("k", i % 2 == 0, || {
                busy(200);
                span("restore", "restore", || {
                    busy(300);
                    span("server", "server.handshake", || busy(400));
                });
            });
        }
        let t = take();
        assert_eq!(t.armed_ops(), 2);
        assert_eq!(t.durations("restore").len(), 2);
        let layers: f64 = t.self_s.values().sum();
        assert!((layers + t.unattributed_s - t.wall_s).abs() < 1e-9);
        let r = &t.spans["restore"][0];
        assert!(r.0 > r.1 && r.1 > 250e-6, "restore self excludes its server child: {r:?}");
        assert!(t.unattributed_s > 300e-6);
    }

    #[test]
    fn unarmed_operations_record_no_spans() {
        take();
        op("k", false, || span("vm", "vm.pass", || busy(50)));
        let t = take();
        assert!(t.spans.is_empty());
        assert_eq!(t.ops["k"].1.len(), 1);
    }
}
