//! The two batch fleet workloads.
//!
//! * `fleet-512-month`: a coordinated month on a 512-site lossy ring,
//!   `MultiSiteEngine::run_with` under a coordinating `FleetPlanner`.
//! * `fleet-routed-year`: 16 sites over a 365-frame calendar,
//!   `MultiSiteEngine::run_routed` under a `RoutingPlanner` that wraps a
//!   coordinating `FleetPlanner`.
//!
//! Untraced passes wrap the dispatcher in a [`FrameClock`], which reads
//! the clock once per frame for the per-frame latency. Traced passes
//! wrap every controller and the dispatcher in the timing wrappers.

use dpss_core::{FleetPlanner, RoutingPlanner, SmartDpss, SmartDpssConfig};
use dpss_sim::{
    Controller, Engine, Interconnect, MultiSiteEngine, MultiSiteReport, RoutingConfig, SimParams,
};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Price, SlotClock};

use crate::clock::Stamp;
use crate::harness::{err, Check, Digest, Pass, Workload};
use crate::trace::{self, FrameClock, TimedController, TimedFleet, TimedRouted};

/// Which fleet run a [`Fleet`] workload makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Coordinated `run_with` month.
    Month,
    /// Routed `run_routed` year.
    RoutedYear,
}

/// A fleet, its inputs and the trace-generation cost of building them.
#[derive(Debug)]
pub struct Fleet {
    kind: Kind,
    fleet: MultiSiteEngine,
    params: SimParams,
    clock: SlotClock,
    routing: RoutingConfig,
    generate_ns: f64,
    generated_slots: f64,
}

fn variant_index(pack: &ScenarioPack, label: &str) -> Result<usize, String> {
    pack.labels()
        .iter()
        .position(|l| *l == label)
        .ok_or_else(|| format!("pack {} has no variant {label}", pack.name()))
}

impl Fleet {
    /// `fleet-512-month`: `price-spike`/`stressed` on a 512-site ring
    /// (2 MWh links, 5% loss, $2/MWh wheeling).
    pub fn month_512(seed: u64) -> Result<Self, String> {
        let ring = Interconnect::ring(512, Energy::from_mwh(2.0))
            .and_then(|ic| ic.with_uniform_loss(0.05))
            .and_then(|ic| ic.with_uniform_wheeling(Price::from_dollars_per_mwh(2.0)))
            .map_err(err)?;
        Self::build(
            Kind::Month,
            seed,
            "price-spike",
            "stressed",
            SlotClock::icdcs13_month(),
            ring,
        )
    }

    /// `fleet-routed-year`: `traffic-wave`/`flash-crowd` on 16 sites of
    /// the routing acceptance ring, over 365 daily frames.
    pub fn routed_year(seed: u64) -> Result<Self, String> {
        Self::build(
            Kind::RoutedYear,
            seed,
            "traffic-wave",
            "flash-crowd",
            SlotClock::new(365, 24, 1.0).map_err(err)?,
            dpss_bench::routing_interconnect(16),
        )
    }

    fn build(
        kind: Kind,
        seed: u64,
        pack_name: &str,
        variant: &str,
        clock: SlotClock,
        interconnect: Interconnect,
    ) -> Result<Self, String> {
        let params = SimParams::icdcs13();
        let pack = ScenarioPack::builtin(pack_name).ok_or("unknown pack")?;
        let v = variant_index(&pack, variant)?;
        let sites = interconnect.sites();
        let mut engines = Vec::with_capacity(sites);
        let mut generate_ns = 0.0;
        for s in 0..sites {
            let start = Stamp::now();
            let traces = pack.generate_site(&clock, seed, v, s).map_err(err)?;
            generate_ns += start.elapsed_ns();
            engines.push(Engine::new(params, traces).map_err(err)?);
        }
        let fleet = MultiSiteEngine::new(engines)
            .and_then(|f| f.with_interconnect(interconnect))
            .map_err(err)?;
        Ok(Fleet {
            kind,
            fleet,
            params,
            clock,
            routing: RoutingConfig::icdcs13(),
            generate_ns,
            generated_slots: (sites * clock.total_slots()) as f64,
        })
    }

    fn controllers(&self) -> Result<Vec<Box<dyn Controller>>, String> {
        (0..self.fleet.site_count())
            .map(|_| {
                SmartDpss::new(SmartDpssConfig::icdcs13(), self.params, self.clock)
                    .map(|c| Box::new(c) as Box<dyn Controller>)
                    .map_err(err)
            })
            .collect()
    }

    fn planner(&self) -> FleetPlanner {
        FleetPlanner::for_engine(&self.fleet).with_coordination(true)
    }

    fn router(&self) -> Result<RoutingPlanner, String> {
        RoutingPlanner::new(self.planner(), self.routing).map_err(err)
    }

    fn site_frames(&self) -> u64 {
        (self.fleet.site_count() * self.clock.frames()) as u64
    }

    /// A pass's result. Rendering every per-slot record takes about as
    /// long as the run itself at 512 sites, so untraced passes compare
    /// the report without them; `full` digests every byte.
    fn finish_pass(&self, mut report: MultiSiteReport, wall_ns: f64, full: bool) -> Pass {
        let full = if full {
            Digest::of_debug(&report)
        } else {
            Digest::default()
        };
        let (cost_usd, delay_slots) = (report.total_cost().dollars(), report.average_delay_slots());
        for site in &mut report.sites {
            site.slot_outcomes = None;
        }
        Pass {
            wall_ns,
            requests: 1,
            site_frames: self.site_frames(),
            output: Digest::of_debug(&report),
            full,
            cost_usd,
            delay_slots,
            ..Pass::default()
        }
    }
}

impl Workload for Fleet {
    fn pass(&mut self, full: bool) -> Result<Pass, String> {
        let mut ctls = self.controllers()?;
        let frames = self.clock.frames();
        // A 512-site frame takes tens of milliseconds, a 16-site routed
        // frame about one: meter the month frame by frame, the year in
        // blocks of 16 frames.
        let (report, (ops, wall_ns, scaled_ns)) = match self.kind {
            Kind::Month => {
                let mut clock = FrameClock::new(self.planner(), frames, 1);
                let report = self.fleet.run_with(&mut ctls, &mut clock).map_err(err)?;
                (report, clock.finish())
            }
            Kind::RoutedYear => {
                let mut clock = FrameClock::new(self.router()?, frames, 16);
                let report = self
                    .fleet
                    .run_routed(&mut ctls, &mut clock, self.routing)
                    .map_err(err)?;
                (report, clock.finish())
            }
        };
        let mut pass = self.finish_pass(report, wall_ns, full);
        pass.scaled_ns = scaled_ns;
        pass.ops_ns = ops;
        Ok(pass)
    }

    fn traced_pass(&mut self) -> Result<Pass, String> {
        let mut ctls: Vec<Box<dyn Controller>> = self
            .controllers()?
            .into_iter()
            .map(|c| Box::new(TimedController::new(c)) as Box<dyn Controller>)
            .collect();
        let (report, t, stats) = match self.kind {
            Kind::Month => {
                let mut planner = TimedFleet {
                    inner: self.planner(),
                };
                trace::begin();
                let report = self.fleet.run_with(&mut ctls, &mut planner);
                let t = trace::end();
                (report.map_err(err)?, t, planner.inner.solver_stats())
            }
            Kind::RoutedYear => {
                let mut router = TimedRouted {
                    inner: self.router()?,
                };
                trace::begin();
                let report = self.fleet.run_routed(&mut ctls, &mut router, self.routing);
                let t = trace::end();
                (report.map_err(err)?, t, router.inner.solver_stats())
            }
        };
        let mut pass = self.finish_pass(report, t.wall_ns as f64, true);
        pass.add_trace_layers(&t);
        // Traces are generated in set-up; report that cost here.
        pass.set_layer("traces.generate.ns", self.generate_ns);
        pass.set_layer("traces.slots", self.generated_slots);
        pass.add_solver_layers(&stats);
        Ok(pass)
    }

    fn checks(&mut self, reference: &Pass, realization: usize) -> Result<Vec<Check>, String> {
        let mut ctls = self.controllers()?;
        let mut checks = Vec::new();
        match self.kind {
            // A whole extra month at 512 sites: once per run is enough.
            Kind::Month if realization > 0 => {}
            Kind::Month => {
                let threaded = self.fleet.clone().with_threads(2);
                let mut planner = FleetPlanner::for_engine(&threaded).with_coordination(true);
                let report = threaded.run_with(&mut ctls, &mut planner).map_err(err)?;
                checks.push(Check::new(
                    "report bytes match a 2-thread run",
                    Digest::of_debug(&report) == reference.full,
                ));
                checks.push(Check::new(
                    "the 512-site settlement runs on the network kernel",
                    planner.solver_stats().kernel_solves > 0,
                ));
                checks.push(no_shed(&report));
            }
            Kind::RoutedYear => {
                let mut planner = self.planner();
                let off = self.fleet.run_with(&mut ctls, &mut planner).map_err(err)?;
                let on_arrival = self
                    .fleet
                    .workload_ledger(self.routing)
                    .map_err(err)?
                    .serve_on_arrival();
                let off_cost = (off.total_cost() + on_arrival.cost).dollars();
                checks.push(Check::new(
                    "co-optimized cost <= routing-off cost plus serve-on-arrival",
                    reference.cost_usd <= off_cost + 1e-9,
                ));
                checks.push(no_shed(&off));
            }
        }
        Ok(checks)
    }
}

fn no_shed(report: &MultiSiteReport) -> Check {
    Check::new(
        "no site sheds delay-sensitive load",
        report.sites.iter().all(|r| r.availability_violations == 0),
    )
}
