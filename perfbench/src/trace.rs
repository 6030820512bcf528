//! Pass-through timers around the workspace's public layer boundaries.
//!
//! The wrappers delegate every trait method to the wrapped object and,
//! while a trace is active on the calling thread, record each call's
//! duration against its layer. Time between two wrapped calls is the
//! simulation engine's own work; it is bucketed by the pair of calls it
//! separates (see [`Gap`]). Every workload runs serially, so each gap
//! belongs to the engine loop that made both calls.
//!
//! The wrappers never alter an argument or a return value, so a traced
//! run produces the same bytes as an untraced one; the benchmark checks
//! that on every traced pass.

// audit:allow-file(slice-index): the span and gap tables hold one slot per enum variant and are indexed only by a variant

use std::cell::RefCell;

use crate::clock::Stamp;
use crate::speed::Meter;
use dpss_sim::{
    Controller, ControllerState, FleetDispatcher, FrameDecision, FrameDirective, FrameExchange,
    FrameObservation, FrameOutlook, FrameSettlement, Interconnect, LoadFrame, LoadPlan,
    RoutedDispatcher, SimError, SlotDecision, SlotObservation, SlotOutcome, SystemView,
};

/// A wrapped call at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Controller::plan_frame` (P4, or the offline frame LP).
    PlanFrame,
    /// `Controller::plan_slot` (P5).
    PlanSlot,
    /// `Controller::end_slot`.
    EndSlot,
    /// `Controller::receive_directive`.
    Directive,
    /// `FleetDispatcher::direct` (outlook to prospective LP).
    FleetDirect,
    /// `FleetDispatcher::settle` (settlement LP).
    FleetSettle,
    /// `RoutedDispatcher::direct`.
    RoutingDirect,
    /// `RoutedDispatcher::settle_routed` (settlement plus routing LP).
    RoutingSettle,
}

const SPANS: usize = 8;

/// Engine self time between two wrapped calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gap {
    /// From a settle return to the next direct entry: the fleet outlook
    /// and, on routed runs, the workload ledger's frame admission.
    Outlook,
    /// From a `plan_slot` return to the `end_slot` entry: the plant step.
    Plant,
    /// From the last `end_slot` return to the settle entry: exchange
    /// extraction.
    Exchange,
    /// Every other gap: run start and finish, observation building,
    /// directive delivery, engine construction. No named layer claims
    /// it, so it is reported as unattributed.
    Step,
}

const GAPS: usize = 4;

/// What one traced pass recorded.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    ns: [u64; SPANS],
    calls: [u64; SPANS],
    gaps: [u64; GAPS],
    /// Outlook gap per frame (frames 1…K−1; frame 0 has no settle before it).
    pub outlook_per_frame: Vec<f64>,
    /// Wall time from [`begin`] to [`end`].
    pub wall_ns: u64,
}

impl Trace {
    /// Nanoseconds inside calls of `span`.
    pub fn ns(&self, span: Span) -> u64 {
        self.ns[span as usize]
    }

    /// Calls of `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Engine self time in `gap`.
    pub fn gap_ns(&self, gap: Gap) -> u64 {
        self.gaps[gap as usize]
    }

    /// Everything the spans and gaps account for. Spans never nest, so
    /// this is a plain sum, and it equals the wall time.
    #[cfg(test)]
    pub fn accounted_ns(&self) -> u64 {
        self.ns.iter().sum::<u64>() + self.gaps.iter().sum::<u64>()
    }
}

#[derive(Debug)]
struct State {
    start: Stamp,
    mark: Stamp,
    entered: Stamp,
    last: Option<Span>,
    trace: Trace,
}

thread_local! {
    static TRACER: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Starts a trace on this thread.
pub fn begin() {
    let now = Stamp::now();
    TRACER.with(|t| {
        *t.borrow_mut() = Some(State {
            start: now,
            mark: now,
            entered: now,
            last: None,
            trace: Trace::default(),
        });
    });
}

/// Ends this thread's trace and returns it (empty if none was active).
pub fn end() -> Trace {
    let now = Stamp::now();
    TRACER.with(|t| match t.borrow_mut().take() {
        Some(mut s) => {
            s.trace.gaps[Gap::Step as usize] += now.ns_after(s.mark);
            s.trace.wall_ns = now.ns_after(s.start);
            s.trace
        }
        None => Trace::default(),
    })
}

fn classify(last: Option<Span>, next: Span) -> Gap {
    use Span::{EndSlot, FleetDirect, FleetSettle, PlanSlot, RoutingDirect, RoutingSettle};
    match (last, next) {
        (Some(FleetSettle | RoutingSettle), FleetDirect | RoutingDirect) => Gap::Outlook,
        (Some(PlanSlot), EndSlot) => Gap::Plant,
        (Some(EndSlot), FleetSettle | RoutingSettle) => Gap::Exchange,
        _ => Gap::Step,
    }
}

fn enter(span: Span) {
    let now = Stamp::now();
    TRACER.with(|t| {
        if let Some(s) = t.borrow_mut().as_mut() {
            let gap = classify(s.last, span);
            let ns = now.ns_after(s.mark);
            s.trace.gaps[gap as usize] += ns;
            if gap == Gap::Outlook {
                s.trace.outlook_per_frame.push(ns as f64);
            }
            s.entered = now;
        }
    });
}

fn exit(span: Span) {
    let now = Stamp::now();
    TRACER.with(|t| {
        if let Some(s) = t.borrow_mut().as_mut() {
            s.trace.ns[span as usize] += now.ns_after(s.entered);
            s.trace.calls[span as usize] += 1;
            s.mark = now;
            s.last = Some(span);
        }
    });
}

/// Runs `f` as one call of `span`.
fn timed<T>(span: Span, f: impl FnOnce() -> T) -> T {
    enter(span);
    let out = f();
    exit(span);
    out
}

/// A [`Controller`] that times every call into the wrapped one.
pub struct TimedController {
    inner: Box<dyn Controller>,
}

impl TimedController {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Controller>) -> Self {
        TimedController { inner }
    }
}

impl std::fmt::Debug for TimedController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedController")
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl Controller for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn receive_directive(&mut self, directive: &FrameDirective) {
        timed(Span::Directive, || self.inner.receive_directive(directive));
    }

    fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
        timed(Span::PlanFrame, || self.inner.plan_frame(obs, view))
    }

    fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
        timed(Span::PlanSlot, || self.inner.plan_slot(obs, view))
    }

    fn end_slot(&mut self, outcome: &SlotOutcome, view: &SystemView) {
        timed(Span::EndSlot, || self.inner.end_slot(outcome, view));
    }

    fn save_state(&self) -> ControllerState {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &ControllerState) -> Result<(), SimError> {
        self.inner.load_state(state)
    }
}

/// A [`FleetDispatcher`] that times `direct` and `settle`.
#[derive(Debug)]
pub struct TimedFleet<D> {
    /// The wrapped dispatcher (read its solver stats after the run).
    pub inner: D,
}

impl<D: FleetDispatcher> FleetDispatcher for TimedFleet<D> {
    fn topology(&self) -> Option<&Interconnect> {
        self.inner.topology()
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        timed(Span::FleetDirect, || self.inner.direct(outlook))
    }

    fn settle(&mut self, ex: &FrameExchange) -> FrameSettlement {
        timed(Span::FleetSettle, || self.inner.settle(ex))
    }
}

/// A [`RoutedDispatcher`] that times `direct` and `settle_routed`.
#[derive(Debug)]
pub struct TimedRouted<D> {
    /// The wrapped dispatcher (read its solver stats after the run).
    pub inner: D,
}

impl<D: RoutedDispatcher> RoutedDispatcher for TimedRouted<D> {
    fn topology(&self) -> Option<&Interconnect> {
        self.inner.topology()
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        timed(Span::RoutingDirect, || self.inner.direct(outlook))
    }

    fn settle_routed(
        &mut self,
        ex: &FrameExchange,
        load: &LoadFrame,
    ) -> (FrameSettlement, LoadPlan) {
        timed(Span::RoutingSettle, || self.inner.settle_routed(ex, load))
    }
}

/// A dispatcher pass-through that only notes when each frame settles,
/// so untraced fleet passes can report per-frame latency at the cost of
/// one clock read per frame. Every `per_segment` frames it runs the
/// speed reference (see [`Meter`]), outside the frames' timings.
#[derive(Debug)]
pub struct FrameClock<D> {
    /// The wrapped dispatcher.
    pub inner: D,
    frames: Vec<f64>,
    last: Stamp,
    meter: Meter,
}

impl<D> FrameClock<D> {
    /// Wraps `inner` with room for `frames` marks; the first frame is
    /// timed from here.
    pub fn new(inner: D, frames: usize, per_segment: usize) -> Self {
        let meter = Meter::new(per_segment);
        FrameClock {
            inner,
            frames: Vec::with_capacity(frames),
            last: Stamp::now(),
            meter,
        }
    }

    fn mark(&mut self) {
        let ns = self.last.elapsed_ns();
        self.frames.push(ns);
        self.meter.record(ns);
        self.last = Stamp::now();
    }

    /// Per-frame latencies in ns, each frame from the previous frame's
    /// settle return, and their sum as measured and at reference speed.
    pub fn finish(self) -> (Vec<f64>, f64, f64) {
        let (raw, scaled) = self.meter.finish();
        (self.frames, raw, scaled)
    }
}

impl<D: FleetDispatcher> FleetDispatcher for FrameClock<D> {
    fn topology(&self) -> Option<&Interconnect> {
        self.inner.topology()
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        self.inner.direct(outlook)
    }

    fn settle(&mut self, ex: &FrameExchange) -> FrameSettlement {
        let s = self.inner.settle(ex);
        self.mark();
        s
    }
}

impl<D: RoutedDispatcher> RoutedDispatcher for FrameClock<D> {
    fn topology(&self) -> Option<&Interconnect> {
        self.inner.topology()
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        self.inner.direct(outlook)
    }

    fn settle_routed(
        &mut self,
        ex: &FrameExchange,
        load: &LoadFrame,
    ) -> (FrameSettlement, LoadPlan) {
        let out = self.inner.settle_routed(ex, load);
        self.mark();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_are_bucketed_by_the_calls_they_separate() {
        assert_eq!(
            classify(Some(Span::FleetSettle), Span::FleetDirect),
            Gap::Outlook
        );
        assert_eq!(
            classify(Some(Span::RoutingSettle), Span::RoutingDirect),
            Gap::Outlook
        );
        assert_eq!(classify(None, Span::FleetDirect), Gap::Step);
        assert_eq!(classify(Some(Span::PlanSlot), Span::EndSlot), Gap::Plant);
        assert_eq!(
            classify(Some(Span::EndSlot), Span::FleetSettle),
            Gap::Exchange
        );
        assert_eq!(classify(Some(Span::EndSlot), Span::PlanSlot), Gap::Step);
    }

    #[test]
    fn spans_and_gaps_account_for_the_wall() {
        begin();
        timed(Span::PlanFrame, || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        timed(Span::PlanSlot, || ());
        timed(Span::EndSlot, || ());
        let t = end();
        assert_eq!(t.calls(Span::PlanFrame), 1);
        assert_eq!(t.calls(Span::EndSlot), 1);
        assert!(t.accounted_ns().abs_diff(t.wall_ns) <= 1);
        // Untraced threads record nothing.
        assert_eq!(end().wall_ns, 0);
    }
}
