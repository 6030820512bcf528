//! The CI scaling smoke gates: coordinated fleet months at 64, 256 and
//! 512 sites must complete inside hard wall-clock budgets in release
//! mode. The meshes are the worst-case topology (n × (n−1) directed
//! links in the settlement LP every frame), the 512-site ring is the
//! breadth canary (1024 links but a 1024-row basis). Together they keep
//! the fleet-scale path — factorized network simplex, eta-file warm
//! re-solves, threaded stepping — honest: a regression to dense-tableau
//! cost, quadratic rebuild work, or per-solve allocation churn blows a
//! budget long before it blows anyone's laptop.
//!
//! A fourth gate holds the lockstep loop flat in the horizon: over a
//! routed 16-site year, a late frame must cost about what an early one
//! does. Work that re-reads every past frame each frame makes the year
//! quadratic and fails it.
//!
//! A fifth holds the network kernel's cost per pivot nearly flat in the
//! basis row count: from a 64-site to a 512-site ring (8× the rows) a
//! pivot may cost at most 7× more. A kernel pass that scans every row of
//! a mostly-zero work vector, where it could walk the vector's nonzero
//! pattern, makes a pivot cost grow with the rows and fails it.
//!
//! The budgets are deliberately loose (a shared CI runner is not a
//! bench rig): each release run takes a small fraction of its budget on
//! a warm container. In debug builds the tests are ignored — a
//! wall-clock contract on an unoptimized build measures the compiler,
//! not the code.

// audit:allow-file(wall-clock): these gates bound wall-clock time and its growth over the horizon and with the basis row count; the timings are asserted against budgets, never fed into results

use std::time::Instant;

use dpss_bench::PAPER_SEED;
use dpss_core::{FleetPlanner, RoutingPlanner, SmartDpss, SmartDpssConfig};
use dpss_sim::{Controller, Engine, Interconnect, MultiSiteEngine, RoutingConfig, SimParams};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Price, SlotClock};

/// The price-spike stressed variant's month over `topology`, serial.
fn stressed_month(topology: Interconnect) -> MultiSiteEngine {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let stressed = 3usize;
    let engines: Vec<Engine> = (0..topology.sites())
        .map(|s| {
            Engine::new(
                params,
                pack.generate_site(&clock, PAPER_SEED, stressed, s).unwrap(),
            )
            .unwrap()
        })
        .collect();
    MultiSiteEngine::new(engines)
        .unwrap()
        .with_interconnect(topology)
        .unwrap()
}

/// One fresh SmartDPSS controller per site of `multi`.
fn controllers(multi: &MultiSiteEngine) -> Vec<Box<dyn Controller>> {
    let (params, clock) = (SimParams::icdcs13(), SlotClock::icdcs13_month());
    (0..multi.site_count())
        .map(|_| {
            Box::new(SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
                as Box<dyn Controller>
        })
        .collect()
}

/// Runs one coordinated month of the price-spike stressed variant over
/// `topology` and asserts it fits `budget_secs`.
fn assert_month_fits(sites: usize, topology: Interconnect, budget_secs: f64, label: &str) {
    let multi = stressed_month(topology).with_threads(8);
    let mut ctls = controllers(&multi);
    let mut dispatcher = FleetPlanner::for_engine(&multi).with_coordination(true);
    let start = Instant::now();
    let report = multi.run_with(&mut ctls, &mut dispatcher).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.sites.len(), sites);
    assert!(
        elapsed < budget_secs,
        "{label} coordinated month took {elapsed:.1}s (budget {budget_secs}s): \
         the fleet-scale path has regressed"
    );
}

fn lossy_wheeled(base: Interconnect) -> Interconnect {
    base.with_uniform_loss(0.05)
        .unwrap()
        .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
        .unwrap()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock smoke gate is a release-mode contract"
)]
fn mesh_64_coordinated_month_fits_the_wall_clock_budget() {
    let mesh = lossy_wheeled(Interconnect::mesh(64, Energy::from_mwh(2.0)).unwrap());
    assert_month_fits(64, mesh, 120.0, "64-site mesh");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock smoke gate is a release-mode contract"
)]
fn mesh_256_coordinated_month_fits_the_wall_clock_budget() {
    // 256 × 255 = 65 280 directed links per settlement LP: the link-count
    // stress axis the factorized basis was built for.
    let mesh = lossy_wheeled(Interconnect::mesh(256, Energy::from_mwh(2.0)).unwrap());
    assert_month_fits(256, mesh, 300.0, "256-site mesh");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock smoke gate is a release-mode contract"
)]
fn ring_512_coordinated_month_fits_the_wall_clock_budget() {
    // 1024 links but a 1024-row basis: the row-count stress axis — the
    // eta file and refactorization cadence carry this one.
    let ring = lossy_wheeled(Interconnect::ring(512, Energy::from_mwh(2.0)).unwrap());
    assert_month_fits(512, ring, 300.0, "512-site ring");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock smoke gate is a release-mode contract"
)]
fn kernel_cost_per_pivot_stays_nearly_flat_in_the_row_count() {
    // Coordinated months on a 64- and a 512-site lossy ring, one thread.
    // Each size's kernel ns per pivot is its fastest of three months, run
    // alternately so a burst of load on a shared runner hits both sizes.
    let rings: Vec<MultiSiteEngine> = [64, 512]
        .iter()
        .map(|&n| {
            stressed_month(lossy_wheeled(
                Interconnect::ring(n, Energy::from_mwh(2.0)).unwrap(),
            ))
        })
        .collect();
    let mut ns_per_pivot = [f64::INFINITY; 2];
    let mut pivots = [0u64; 2];
    for _ in 0..3 {
        for (k, multi) in rings.iter().enumerate() {
            let mut dispatcher = FleetPlanner::for_engine(multi).with_coordination(true);
            multi
                .run_with(&mut controllers(multi), &mut dispatcher)
                .unwrap();
            let stats = dispatcher.solver_stats();
            pivots[k] = stats.pivots;
            ns_per_pivot[k] = ns_per_pivot[k].min(stats.solve_ns as f64 / stats.pivots as f64);
        }
    }
    // The pivot path itself is deterministic: a kernel change that moves
    // it changes the LP answers' vertices, not just their cost.
    assert_eq!(pivots, [5_868, 48_145], "the kernel's pivot count moved");
    let growth = ns_per_pivot[1] / ns_per_pivot[0];
    assert!(
        growth < 7.0,
        "a pivot costs {:.0} ns at 512 sites and {:.0} ns at 64 ({growth:.1}x for 8x the \
         rows): a kernel pass scales with the row count",
        ns_per_pivot[1],
        ns_per_pivot[0]
    );
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock smoke gate is a release-mode contract"
)]
fn routed_year_frame_cost_is_flat_in_the_horizon() {
    // The `traffic-wave`/`flash-crowd` routed year: 16 sites on the
    // routing ring, 365 daily frames, stepped by hand so each frame is
    // timed on its own.
    let clock = SlotClock::new(365, 24, 1.0).unwrap();
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin("traffic-wave").unwrap();
    let variant = pack
        .labels()
        .iter()
        .position(|l| *l == "flash-crowd")
        .unwrap();
    let sites = 16;
    let engines: Vec<Engine> = (0..sites)
        .map(|s| {
            Engine::new(
                params,
                pack.generate_site(&clock, PAPER_SEED, variant, s).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let multi = MultiSiteEngine::new(engines)
        .unwrap()
        .with_interconnect(dpss_bench::routing_interconnect(sites))
        .unwrap();
    let config = RoutingConfig::icdcs13();
    // Each frame's time is its fastest over three identical years, so a
    // burst of load on a shared runner cannot pose as growth.
    let mut frame_secs = vec![f64::INFINITY; clock.frames()];
    for _ in 0..3 {
        let mut ctls: Vec<Box<dyn Controller>> = (0..sites)
            .map(|_| {
                Box::new(SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
                    as Box<dyn Controller>
            })
            .collect();
        let planner = FleetPlanner::for_engine(&multi).with_coordination(true);
        let mut router = RoutingPlanner::new(planner, config).unwrap();
        let mut workload = multi.workload_ledger(config).unwrap();
        let mut run = multi.begin().unwrap();
        for secs in &mut frame_secs {
            let start = Instant::now();
            run.step_frame(&multi, &mut ctls, &mut router, Some(&mut workload))
                .unwrap();
            *secs = secs.min(start.elapsed().as_secs_f64());
        }
        assert!(run.is_done());
    }
    let window = 36;
    let early = median(&frame_secs[..window]);
    let late = median(&frame_secs[frame_secs.len() - window..]);
    assert!(
        late < 3.0 * early,
        "the last {window} frames take {:.0} us each (median), the first {window} \
         {:.0} us: per-frame cost grows with the horizon",
        late * 1e6,
        early * 1e6
    );
}
