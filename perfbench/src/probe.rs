//! The layer-timing wrapper: a [`Component`] that delegates every method
//! to the controller it wraps and times the calls into it from outside.
//!
//! `name`, `report`, `metrics`, `inflight`, `done` and `as_any*` go
//! straight to the wrapped controller, so reports, telemetry schemas and
//! `Simulator::component_as` downcasts see the controller itself. Only
//! `start`, `handle` and `on_wake` are timed: one host-time span per call.
//! Handlers never call each other (a send only pushes into the kernel's
//! queue), so spans do not nest and a span's duration is the layer's self
//! time. Fabric routing and queue insertion of a send happen inside the
//! sender's call and so count in the sender's span.

use std::any::Any;
use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use c3_bench::alloc::alloc_count;
use c3_protocol::msg::SysMsg;
use c3_sim::component::{Component, ComponentId, Ctx};
use c3_sim::metrics::MetricSample;
use c3_sim::stats::Report;
use c3_sim::time::Time;
use c3_sim::trace::InflightTxn;

use crate::output::median;

/// The simulator layers a probe can stand for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Layer {
    /// `TimingCore`, the out-of-order core model.
    Core,
    /// `L1Controller`, the private caches.
    L1,
    /// `C3Bridge`, the cluster-to-global translation layer.
    Bridge,
    /// `CxlDirectory`, the CXL device's DCOH.
    Dcoh,
    /// `GlobalMesiDir`, the hierarchical baseline's global directory.
    Gdir,
}

impl Layer {
    /// Every layer, in metric order.
    pub const ALL: [Layer; 5] = [
        Layer::Core,
        Layer::L1,
        Layer::Bridge,
        Layer::Dcoh,
        Layer::Gdir,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::L1 => "l1",
            Layer::Bridge => "bridge",
            Layer::Dcoh => "dcoh",
            Layer::Gdir => "gdir",
        }
    }
}

/// Aggregated counts of one probe (or of a whole layer after merging).
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    /// Timed calls (`start` + `handle` + `on_wake`).
    pub calls: u64,
    /// Host nanoseconds inside timed calls.
    pub ns: u64,
    /// Heap allocations inside timed calls (process-wide counter, so
    /// exact only when one thread runs the simulation).
    pub allocs: u64,
    /// Calls of the telemetry `metrics()` hook.
    pub hook_calls: u64,
    /// Host nanoseconds inside the `metrics()` hook.
    pub hook_ns: u64,
}

impl Tally {
    /// Add `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.allocs += other.allocs;
        self.hook_calls += other.hook_calls;
        self.hook_ns += other.hook_ns;
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer of the called component.
    pub layer: Layer,
    /// Component id within its simulation.
    pub component: u32,
    /// Host start, nanoseconds after the simulation was assembled.
    pub start_ns: u64,
    /// Host end, same clock.
    pub end_ns: u64,
    /// Simulated time of the event, picoseconds.
    pub sim_ps: u64,
}

/// What a probe hands back when its simulation is dropped.
pub struct ProbeResult {
    /// Layer of the probe.
    pub layer: Layer,
    /// Its counts.
    pub tally: Tally,
    /// Its spans (empty unless span recording was on).
    pub spans: Vec<Span>,
}

/// Where probes deliver their results on drop.
pub type Sink = Arc<Mutex<Vec<ProbeResult>>>;

/// The wrapper. Build one per component with [`Probe::wrap`].
pub struct Probe {
    inner: Box<dyn Component<SysMsg>>,
    layer: Layer,
    id: u32,
    tally: Tally,
    hook_calls: Cell<u64>,
    hook_ns: Cell<u64>,
    /// Span epoch and cap, present when spans are recorded.
    span_log: Option<(Instant, usize)>,
    spans: Vec<Span>,
    sink: Sink,
}

impl Probe {
    /// Wrap `inner` (component `id`, of `layer`). With `span_log` set to
    /// `(epoch, cap)`, the first `cap` calls are also kept as [`Span`]s
    /// timed from `epoch`.
    pub fn wrap(
        inner: Box<dyn Component<SysMsg>>,
        layer: Layer,
        id: ComponentId,
        sink: &Sink,
        span_log: Option<(Instant, usize)>,
    ) -> Box<dyn Component<SysMsg>> {
        Box::new(Probe {
            inner,
            layer,
            id: id.0,
            tally: Tally::default(),
            hook_calls: Cell::new(0),
            hook_ns: Cell::new(0),
            span_log,
            spans: Vec::new(),
            sink: Arc::clone(sink),
        })
    }

    fn timed<R>(&mut self, now: Time, f: impl FnOnce(&mut dyn Component<SysMsg>) -> R) -> R {
        let a0 = alloc_count();
        let t0 = Instant::now();
        let r = f(&mut *self.inner);
        let t1 = Instant::now();
        self.tally.calls += 1;
        self.tally.ns += (t1 - t0).as_nanos() as u64;
        self.tally.allocs += alloc_count() - a0;
        if let Some((epoch, cap)) = self.span_log {
            if self.spans.len() < cap {
                self.spans.push(Span {
                    layer: self.layer,
                    component: self.id,
                    start_ns: (t0 - epoch).as_nanos() as u64,
                    end_ns: (t1 - epoch).as_nanos() as u64,
                    sim_ps: now.as_ps(),
                });
            }
        }
        r
    }
}

/// What timing one call costs by itself, measured on calls that do
/// nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCost {
    /// Nanoseconds per call that fall between the two clock reads, which
    /// the span therefore books to the callee.
    pub inside_ns: f64,
    /// Nanoseconds per call outside the span (the first clock read's
    /// tail, the allocation-counter reads, the tally and span updates),
    /// which nothing books and which the kernel remainder would absorb.
    pub outside_ns: f64,
}

impl ProbeCost {
    /// Calibrate a timer: `run(n)` makes `n` timed calls of nothing and
    /// returns the nanoseconds its spans booked. The median of several
    /// rounds is kept.
    pub fn calibrate(mut run: impl FnMut(u32) -> u64) -> ProbeCost {
        const CALLS: u32 = 100_000;
        const ROUNDS: usize = 9;
        let (mut inside, mut outside) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            let booked = run(CALLS) as f64 / CALLS as f64;
            let total = t0.elapsed().as_nanos() as f64 / CALLS as f64;
            inside.push(booked);
            outside.push((total - booked).max(0.0));
        }
        ProbeCost {
            inside_ns: median(&inside),
            outside_ns: median(&outside),
        }
    }

    /// The calibrated cost of [`Probe`]'s timed calls (without spans).
    pub fn of_probe() -> ProbeCost {
        let sink = Sink::default();
        let mut probe = Probe {
            inner: Box::new(Idle),
            layer: Layer::Core,
            id: 0,
            tally: Tally::default(),
            hook_calls: Cell::new(0),
            hook_ns: Cell::new(0),
            span_log: None,
            spans: Vec::new(),
            sink: Arc::clone(&sink),
        };
        ProbeCost::calibrate(|n| {
            probe.tally = Tally::default();
            for _ in 0..n {
                probe.timed(Time::ZERO, |c| {
                    black_box(c);
                });
            }
            probe.tally.ns
        })
    }

    /// Whole cost of one timed call.
    pub fn per_call(&self) -> f64 {
        self.inside_ns + self.outside_ns
    }

    /// Self time of `calls` timed calls that booked `ns`, less what the
    /// timer booked itself.
    pub fn self_ns(&self, calls: u64, ns: u64) -> f64 {
        (ns as f64 - calls as f64 * self.inside_ns).max(0.0)
    }
}

/// The component [`ProbeCost::of_probe`] wraps: it does nothing.
struct Idle;

impl Component<SysMsg> for Idle {
    fn name(&self) -> String {
        "idle".into()
    }

    fn handle(&mut self, _msg: SysMsg, _src: ComponentId, _ctx: &mut Ctx<'_, SysMsg>) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Component<SysMsg> for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn handle(&mut self, msg: SysMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        self.timed(ctx.now, |c| c.handle(msg, src, ctx));
    }

    fn on_wake(&mut self, token: u64, ctx: &mut Ctx<'_, SysMsg>) {
        self.timed(ctx.now, |c| c.on_wake(token, ctx));
    }

    fn start(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        self.timed(ctx.now, |c| c.start(ctx));
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn report(&self, out: &mut Report) {
        self.inner.report(out);
    }

    fn metrics(&self, out: &mut MetricSample) {
        let t0 = Instant::now();
        self.inner.metrics(out);
        self.hook_ns
            .set(self.hook_ns.get() + t0.elapsed().as_nanos() as u64);
        self.hook_calls.set(self.hook_calls.get() + 1);
    }

    fn inflight(&self, self_id: ComponentId, out: &mut Vec<InflightTxn>) {
        self.inner.inflight(self_id, out);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let mut tally = self.tally;
        tally.hook_calls = self.hook_calls.get();
        tally.hook_ns = self.hook_ns.get();
        let result = ProbeResult {
            layer: self.layer,
            tally,
            spans: std::mem::take(&mut self.spans),
        };
        // A poisoned sink means another probe panicked mid-push; the
        // results are lost either way and Drop must not panic.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_cost_is_positive_and_self_time_never_negative() {
        let cost = ProbeCost::of_probe();
        assert!(cost.inside_ns > 0.0 && cost.outside_ns >= 0.0, "{cost:?}");
        assert!(cost.per_call().is_finite());
        assert_eq!(cost.self_ns(10, 0), 0.0);
        let ns = 1_000_000;
        assert!(cost.self_ns(10, ns) < ns as f64);
    }
}
