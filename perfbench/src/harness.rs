//! What a workload provides to the run loop, and what one pass reports.

use dpss_lp::SolverStats;
use dpss_sim::RunReport;

use crate::stats::late_over_early;
use crate::trace::{Gap, Span, Trace};

/// Converts any displayable error into the benchmark's error type.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Served-energy-weighted mean delay of delay-tolerant demand over
/// `reports`, in slots (the fleet report's definition, applied to any
/// set of site runs).
pub fn delay_slots(reports: &[&RunReport]) -> f64 {
    let served: f64 = reports.iter().map(|r| r.served_dt.mwh()).sum();
    if served <= 0.0 {
        return 0.0;
    }
    reports
        .iter()
        .map(|r| r.average_delay_slots * r.served_dt.mwh())
        .sum::<f64>()
        / served
}

/// A fingerprint of text, built as the text is written, so a pass can
/// compare outputs of hundreds of megabytes without holding them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    len: u64,
}

/// Builds a [`Digest`]: bytes are packed into 64-bit words and each word
/// is folded in with a multiply–xorshift step, so the result does not
/// depend on how the text was split into writes.
#[derive(Debug, Default)]
pub struct Hasher {
    hash: u64,
    word: u64,
    len: u64,
}

impl Hasher {
    fn fold(&mut self) {
        self.hash = (self.hash ^ self.word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.hash ^= self.hash >> 29;
        self.word = 0;
    }

    /// The digest of everything written so far.
    pub fn finish(mut self) -> Digest {
        if !self.len.is_multiple_of(8) {
            self.fold();
        }
        Digest {
            hash: self.hash,
            len: self.len,
        }
    }
}

impl std::fmt::Write for Hasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.word |= u64::from(b) << ((self.len % 8) * 8);
            self.len += 1;
            if self.len.is_multiple_of(8) {
                self.fold();
            }
        }
        Ok(())
    }
}

impl Digest {
    /// The digest of `text`.
    pub fn of_str(text: &str) -> Self {
        let mut h = Hasher::default();
        let _ = std::fmt::Write::write_str(&mut h, text);
        h.finish()
    }

    /// The digest of `value`'s `Debug` rendering (the exact bytes
    /// `format!("{value:?}")` would produce).
    pub fn of_debug(value: &impl std::fmt::Debug) -> Self {
        let mut h = Hasher::default();
        let _ = std::fmt::Write::write_fmt(&mut h, format_args!("{value:?}"));
        h.finish()
    }
}

/// One output check; failures count into `failed`.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

impl Check {
    /// A named check outcome.
    pub fn new(name: &str, ok: bool) -> Self {
        Check {
            name: name.to_owned(),
            ok,
        }
    }
}

/// What one pass over a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the measured work, ns.
    pub wall_ns: f64,
    /// The same wall time at reference host speed (see `speed`), ns;
    /// the rates are taken from it.
    pub scaled_ns: f64,
    /// Latency of each unit operation, ns.
    pub ops_ns: Vec<f64>,
    /// Latency of each operation by kind (`tick`, `step`, `snapshot`), ns.
    pub kinds: Vec<(&'static str, Vec<f64>)>,
    /// Set-up timings taken inside the pass (daemon spawn plus `init`) at
    /// reference host speed, ns.
    pub setup_ns: Vec<f64>,
    /// Top-level requests the pass made, each waiting for its answer.
    pub requests: u64,
    /// Sites × frames simulated.
    pub site_frames: u64,
    /// Error responses received.
    pub errors: u64,
    /// Digest of the pass's outputs, or of their summary where the full
    /// bytes are slow to render (fleet reports without per-slot records).
    pub output: Digest,
    /// Digest of every output byte; computed when the pass was asked for
    /// it, and on every traced pass.
    pub full: Digest,
    /// Digests of the session-closing replies (serve `finish` lines).
    pub finishes: Vec<Digest>,
    /// Simulated dollars billed.
    pub cost_usd: f64,
    /// Mean delay of delay-tolerant demand, slots.
    pub delay_slots: f64,
    /// Peak RSS of a process the pass drove, MB (0: this process).
    pub peak_rss_mb: f64,
    /// Per-layer metrics of a traced pass.
    pub layers: Vec<(String, f64)>,
}

impl Pass {
    fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_owned(), value));
    }

    /// Sets a per-layer metric, replacing an earlier value of it.
    pub fn set_layer(&mut self, name: &str, value: f64) {
        self.layers.retain(|(n, _)| n != name);
        self.layer(name, value);
    }

    /// Adds the metrics the timing wrappers recorded (trace generation
    /// happens in set-up; each workload reports it), plus the traced
    /// wall time and what the named layers leave unattributed: engine
    /// time outside the outlook, plant and exchange gaps (observation
    /// building, directive delivery, run start and finish).
    pub fn add_trace_layers(&mut self, t: &Trace) {
        let ns = |s: Span| t.ns(s) as f64;
        let calls = |s: Span| t.calls(s) as f64;
        self.layer("controller.plan_frame.calls", calls(Span::PlanFrame));
        self.layer("controller.plan_frame.ns", ns(Span::PlanFrame));
        self.layer("controller.plan_slot.calls", calls(Span::PlanSlot));
        self.layer("controller.plan_slot.ns", ns(Span::PlanSlot));
        self.layer("controller.end_slot.ns", ns(Span::EndSlot));
        self.layer("controller.directive.ns", ns(Span::Directive));
        self.layer("sim.outlook.ns", t.gap_ns(Gap::Outlook) as f64);
        self.layer("sim.plant.ns", t.gap_ns(Gap::Plant) as f64);
        self.layer("sim.exchange.ns", t.gap_ns(Gap::Exchange) as f64);
        self.layer(
            "sim.outlook.late_over_early",
            late_over_early(&t.outlook_per_frame),
        );
        self.layer("fleet.direct.calls", calls(Span::FleetDirect));
        self.layer("fleet.direct.ns", ns(Span::FleetDirect));
        self.layer("fleet.settle.calls", calls(Span::FleetSettle));
        self.layer("fleet.settle.ns", ns(Span::FleetSettle));
        self.layer("routing.direct.ns", ns(Span::RoutingDirect));
        self.layer("routing.settle_routed.ns", ns(Span::RoutingSettle));
        self.layer("wall.ns", t.wall_ns as f64);
        self.layer("unattributed.ns", t.gap_ns(Gap::Step) as f64);
    }

    /// Adds the LP kernel's own telemetry.
    pub fn add_solver_layers(&mut self, s: &SolverStats) {
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        self.layer("lp.solves", s.solves as f64);
        self.layer("lp.kernel_solves", s.kernel_solves as f64);
        self.layer("lp.pivots", s.pivots as f64);
        self.layer("lp.pivots_per_solve", per(s.pivots, s.kernel_solves));
        self.layer("lp.warm_reject_rate", per(s.warm_rejects, s.solves));
        self.layer("lp.refactor_rate", s.refactor_rate());
        self.layer("lp.solve_ns", s.solve_ns as f64);
        self.layer("lp.peak_scratch_bytes", s.peak_scratch_bytes as f64);
    }
}

/// A benchmark workload: built by its set-up, then driven pass by pass.
pub trait Workload {
    /// One untraced pass; `full` asks for [`Pass::full`] as well.
    fn pass(&mut self, full: bool) -> Result<Pass, String>;

    /// The same work through the timing wrappers.
    fn traced_pass(&mut self) -> Result<Pass, String>;

    /// Output checks against the warm-up pass of input realization
    /// `realization` (checks that cost a whole extra run may run on
    /// realization 0 only).
    fn checks(&mut self, reference: &Pass, realization: usize) -> Result<Vec<Check>, String>;

    /// Simulated cost and delay of one pass (default: as the pass
    /// reported them).
    fn outcome(&self, reference: &Pass) -> (f64, f64) {
        (reference.cost_usd, reference.delay_slots)
    }
}
