//! `paper-figures`: the ten `dpss sweep --figure` tables.
//!
//! A pass calls the ten `dpss_bench::figures::*_with` functions on a
//! serial runner, timing each call from outside. The traced pass drives
//! the same cells through `Engine::run` with every controller wrapped in
//! a [`TimedController`] and rebuilds each table from the cell reports;
//! the rebuilt tables must equal the figure functions' tables.

use dpss_bench::figures::{
    self, FIG10_BETA_GRID, FIG6_T_GRID, FIG6_V_GRID, FIG7_BMAX_GRID, FIG7_EPS_GRID,
    FIG8_PENETRATION_GRID, FIG8_VARIATION_GRID,
};
use dpss_bench::{ExperimentRunner, FigureTable};
use dpss_core::{
    GreedyBattery, Impatient, MarketMode, OfflineConfig, OfflineOptimal, P4Variant, P5Objective,
    RecedingHorizon, SmartDpss, SmartDpssConfig,
};
use dpss_sim::{Controller, Engine, ForecastPolicy, RunReport, SimParams};
use dpss_traces::{scaling, Scenario, TraceSet, UniformError};
use dpss_units::{Price, SlotClock};

use crate::clock::Stamp;
use crate::harness::{delay_slots, err, Check, Digest, Pass, Workload};
use crate::speed::Meter;
use crate::trace::{self, TimedController};

/// The Fig. 6(c,d) offline column stops here, as in `dpss sweep`.
const FIG6T_OFFLINE_MAX_T: usize = 48;
/// The Fig. 9 observation error, as in `dpss sweep`.
const FIG9_ERROR: f64 = 0.5;
/// Slots in the paper's month.
const MONTH_SLOTS: usize = 744;

type FigureFn = fn(&ExperimentRunner, u64) -> Vec<FigureTable>;

/// The ten figures in `dpss sweep --figure` order, each as the CLI
/// computes it.
pub const FIGURES: [(&str, FigureFn); 10] = [
    ("fig5", |r, s| vec![figures::fig5_with(r, s).0]),
    ("fig6v", |r, s| {
        vec![figures::fig6_v_with(r, s, &FIG6_V_GRID, true)]
    }),
    ("fig6t", |r, s| {
        vec![figures::fig6_t_with(
            r,
            s,
            &FIG6_T_GRID,
            FIG6T_OFFLINE_MAX_T,
        )]
    }),
    ("fig7", |r, s| {
        vec![
            figures::fig7_epsilon_with(r, s, &FIG7_EPS_GRID),
            figures::fig7_markets_with(r, s),
            figures::fig7_battery_with(r, s, &FIG7_BMAX_GRID),
        ]
    }),
    ("fig8", |r, s| {
        let (pen, var) = figures::fig8_with(r, s, &FIG8_PENETRATION_GRID, &FIG8_VARIATION_GRID);
        vec![pen, var]
    }),
    ("fig9", |r, s| {
        vec![figures::fig9_with(r, s, FIG9_ERROR, &FIG6_V_GRID)]
    }),
    ("fig10", |r, s| {
        vec![figures::fig10_with(r, s, &FIG10_BETA_GRID)]
    }),
    ("ablations", |r, s| vec![figures::ablations_with(r, s)]),
    ("forecast", |r, s| {
        vec![figures::forecast_ablation_with(r, s)]
    }),
    ("baselines", |r, s| vec![figures::baselines_with(r, s)]),
];

/// Site-frames one pass simulates: every cell is one site over its
/// calendar. Counted from the figure grids; the replay re-counts them
/// from its reports and the two must agree.
fn grid_site_frames() -> u64 {
    let month = (MONTH_SLOTS / 24) as u64;
    let fig6t: u64 = FIG6_T_GRID
        .iter()
        .map(|&t| {
            let frames = (MONTH_SLOTS / t).max(1) as u64;
            frames * if t <= FIG6T_OFFLINE_MAX_T { 2 } else { 1 }
        })
        .sum();
    let month_cells = (FIG6_V_GRID.len() + 2)
        + (FIG7_EPS_GRID.len() + 2 + FIG7_BMAX_GRID.len())
        + (FIG8_PENETRATION_GRID.len() + FIG8_VARIATION_GRID.len())
        + (1 + 2 * FIG6_V_GRID.len())
        + FIG10_BETA_GRID.len()
        + 4
        + 3
        + 6;
    fig6t + month * month_cells as u64
}

/// Every trace set the cell replay runs on, generated the way the figure
/// functions generate theirs.
#[derive(Debug)]
struct Inputs {
    /// The seed they were generated from.
    seed: u64,
    /// The paper month most figures start from.
    month: TraceSet,
    /// One calendar per Fig. 6(c,d) frame length.
    calendars: Vec<TraceSet>,
    /// The month at each Fig. 8 renewable penetration.
    penetration: Vec<TraceSet>,
    /// The month at each Fig. 8 demand-variation stretch.
    variation: Vec<TraceSet>,
    /// The month at each Fig. 10 expansion.
    expanded: Vec<TraceSet>,
    /// The Fig. 9 observation of the month with injected errors.
    observed: TraceSet,
}

impl Inputs {
    fn generate(seed: u64) -> Result<Self, String> {
        let month = Scenario::icdcs13()
            .generate(&SlotClock::icdcs13_month(), seed)
            .map_err(err)?;
        let calendars = FIG6_T_GRID
            .iter()
            .map(|&t| {
                let clock = SlotClock::new((MONTH_SLOTS / t).max(1), t, 1.0).map_err(err)?;
                Scenario::icdcs13().generate(&clock, seed).map_err(err)
            })
            .collect::<Result<_, _>>()?;
        let scaled = |grid: &[f64], f: fn(&TraceSet, f64) -> Result<TraceSet, _>| {
            grid.iter()
                .map(|&x| f(&month, x).map_err(err))
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Inputs {
            seed,
            calendars,
            penetration: scaled(&FIG8_PENETRATION_GRID, scaling::with_renewable_penetration)?,
            variation: scaled(&FIG8_VARIATION_GRID, scaling::with_demand_variation)?,
            expanded: scaled(&FIG10_BETA_GRID, scaling::expand)?,
            observed: UniformError::new(FIG9_ERROR)
                .map_err(err)?
                .perturb(&month, seed ^ 0x9E37)
                .map_err(err)?,
            month,
        })
    }

    fn slots(&self) -> usize {
        std::iter::once(&self.month)
            .chain(&self.calendars)
            .chain(&self.penetration)
            .chain(&self.variation)
            .chain(&self.expanded)
            .chain(std::iter::once(&self.observed))
            .map(|t| t.clock.total_slots())
            .sum()
    }
}

/// The workload's inputs. The figure functions generate their own; the
/// cell replay runs on these.
#[derive(Debug)]
pub struct PaperFigures {
    seed: u64,
    runner: ExperimentRunner,
    inputs: Inputs,
    generate_ns: f64,
    site_frames: u64,
    /// Cost and delay of the checked replay.
    outcome: Option<(f64, f64)>,
}

impl PaperFigures {
    /// Generates every trace set the cell replay needs.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let start = Stamp::now();
        let inputs = Inputs::generate(seed)?;
        Ok(PaperFigures {
            seed,
            runner: ExperimentRunner::serial(),
            inputs,
            generate_ns: start.elapsed_ns(),
            site_frames: grid_site_frames(),
            outcome: None,
        })
    }

    /// Every figure table, each figure call timed as one operation.
    fn tables(
        &self,
        runner: &ExperimentRunner,
        ops: &mut Vec<f64>,
        meter: &mut Meter,
    ) -> Vec<FigureTable> {
        let mut tables = Vec::new();
        for (_, figure) in FIGURES {
            let start = Stamp::now();
            tables.extend(figure(runner, self.seed));
            let ns = start.elapsed_ns();
            ops.push(ns);
            meter.record(ns);
        }
        tables
    }
}

impl Workload for PaperFigures {
    fn pass(&mut self, _full: bool) -> Result<Pass, String> {
        let mut ops = Vec::with_capacity(FIGURES.len());
        let mut meter = Meter::new(1);
        let tables = self.tables(&self.runner, &mut ops, &mut meter);
        let (wall_ns, scaled_ns) = meter.finish();
        let output = Digest::of_str(&serde_json::to_string(&tables).map_err(err)?);
        // Cost and delay come from the replay, which checks that it
        // reproduces these tables.
        Ok(Pass {
            wall_ns,
            scaled_ns,
            requests: FIGURES.len() as u64,
            site_frames: self.site_frames,
            output,
            full: output,
            ops_ns: ops,
            ..Pass::default()
        })
    }

    fn traced_pass(&mut self) -> Result<Pass, String> {
        let mut ops = Vec::with_capacity(FIGURES.len());
        let mut per_figure = Vec::with_capacity(FIGURES.len());
        for (name, figure) in FIGURES {
            let start = Stamp::now();
            let _ = figure(&self.runner, self.seed);
            let ns = start.elapsed_ns();
            ops.push(ns);
            per_figure.push((format!("figures.{name}.ns"), ns));
        }
        trace::begin();
        let replay = replay(&self.inputs, true)?;
        let t = trace::end();
        let output = Digest::of_str(&serde_json::to_string(&replay.tables).map_err(err)?);
        let mut pass = Pass {
            wall_ns: t.wall_ns as f64,
            requests: FIGURES.len() as u64,
            site_frames: replay.site_frames,
            output,
            full: output,
            ops_ns: ops,
            ..Pass::default()
        };
        pass.layers.extend(per_figure);
        pass.layers
            .push(("bench.cells".into(), replay.reports.len() as f64));
        pass.add_trace_layers(&t);
        pass.set_layer("traces.generate.ns", self.generate_ns);
        pass.set_layer("traces.slots", self.inputs.slots() as f64);
        Ok(pass)
    }

    fn checks(&mut self, reference: &Pass, _realization: usize) -> Result<Vec<Check>, String> {
        let mut ops = Vec::new();
        let threaded = self.tables(&ExperimentRunner::new(2), &mut ops, &mut Meter::new(1));
        let replay = replay(&self.inputs, false)?;
        let refs: Vec<&RunReport> = replay.reports.iter().collect();
        let cost = refs.iter().map(|r| r.total_cost().dollars()).sum();
        self.outcome = Some((cost, delay_slots(&refs)));
        Ok(vec![
            Check::new(
                "tables at 2 runner threads equal the serial tables",
                Digest::of_str(&serde_json::to_string(&threaded).map_err(err)?) == reference.output,
            ),
            Check::new(
                "cells replayed through Engine::run rebuild the tables",
                Digest::of_str(&serde_json::to_string(&replay.tables).map_err(err)?)
                    == reference.output,
            ),
            Check::new(
                "replayed site-frames match the figure grids",
                replay.site_frames == self.site_frames,
            ),
            Check::new(
                "no replayed cell sheds delay-sensitive load",
                replay
                    .reports
                    .iter()
                    .all(|r| r.availability_violations == 0),
            ),
        ])
    }

    fn outcome(&self, _reference: &Pass) -> (f64, f64) {
        self.outcome.unwrap_or_default()
    }
}

/// What the replay of all ten figures produced.
struct Replay {
    tables: Vec<FigureTable>,
    reports: Vec<RunReport>,
    site_frames: u64,
}

/// Runs each cell on its engine, through a [`TimedController`] when
/// `traced`, and keeps the report.
struct Cells<'a> {
    inputs: &'a Inputs,
    traced: bool,
    reports: Vec<RunReport>,
    site_frames: u64,
}

impl Cells<'_> {
    fn run(&mut self, engine: &Engine, mut ctl: Box<dyn Controller>) -> Result<RunReport, String> {
        let report = if self.traced {
            engine.run(&mut TimedController::new(ctl))
        } else {
            engine.run(ctl.as_mut())
        }
        .map_err(err)?;
        let clock = engine.truth().clock;
        self.site_frames += clock.frames() as u64;
        self.reports.push(report.clone());
        Ok(report)
    }

    fn smart(&mut self, engine: &Engine, config: SmartDpssConfig) -> Result<RunReport, String> {
        let params = *engine.params();
        let clock = engine.truth().clock;
        let ctl = SmartDpss::new(config, params, clock).map_err(err)?;
        self.run(engine, Box::new(ctl))
    }

    fn offline(&mut self, engine: &Engine) -> Result<RunReport, String> {
        let ctl = OfflineOptimal::with_config(
            *engine.params(),
            engine.truth().clone(),
            OfflineConfig::default(),
        )
        .map_err(err)?;
        self.run(engine, Box::new(ctl))
    }

    fn impatient(&mut self, engine: &Engine) -> Result<RunReport, String> {
        self.run(engine, Box::new(Impatient::two_markets()))
    }
}

fn engine(params: SimParams, traces: TraceSet) -> Result<Engine, String> {
    Engine::new(params, traces).map_err(err)
}

fn cost(r: &RunReport) -> String {
    format!("{:.3}", r.time_average_cost().dollars())
}

fn delay(r: &RunReport) -> String {
    format!("{:.2}", r.average_delay_slots)
}

/// Rebuilds every figure table from its cells, in [`FIGURES`] order.
fn replay(inputs: &Inputs, traced: bool) -> Result<Replay, String> {
    let mut cells = Cells {
        inputs,
        traced,
        reports: Vec::new(),
        site_frames: 0,
    };
    let params = SimParams::icdcs13();
    let mut tables = Vec::new();
    tables.push(fig5(&inputs.month)?);
    tables.push(fig6v(&mut cells, params)?);
    tables.push(fig6t(&mut cells, params)?);
    tables.extend(fig7(&mut cells, params)?);
    tables.extend(fig8(&mut cells, params)?);
    tables.push(fig9(&mut cells, params)?);
    tables.push(fig10(&mut cells)?);
    tables.push(ablations(&mut cells, params)?);
    tables.push(forecast(&mut cells, params)?);
    tables.push(baselines(&mut cells, params)?);
    Ok(Replay {
        tables,
        reports: cells.reports,
        site_frames: cells.site_frames,
    })
}

fn fig5(traces: &TraceSet) -> Result<FigureTable, String> {
    let t = traces.clock.slots_per_frame();
    let mut table = FigureTable::new(
        "Fig. 5: one-month traces (per-day summary)",
        &[
            "day",
            "demand MWh",
            "ds MWh",
            "dt MWh",
            "solar MWh",
            "lt $/MWh",
            "rt mean $/MWh",
            "rt max $/MWh",
        ],
    );
    let sum = |xs: &[dpss_units::Energy]| xs.iter().map(|e| e.mwh()).sum::<f64>();
    for (day, price_lt) in traces.price_lt.iter().enumerate() {
        let range = day * t..(day + 1) * t;
        let ds = sum(traces.demand_ds.get(range.clone()).ok_or("short trace")?);
        let dt = sum(traces.demand_dt.get(range.clone()).ok_or("short trace")?);
        let solar = sum(traces.renewable.get(range.clone()).ok_or("short trace")?);
        let rt: Vec<f64> = traces
            .price_rt
            .get(range)
            .ok_or("short trace")?
            .iter()
            .map(|p| p.dollars_per_mwh())
            .collect();
        let rt_mean = rt.iter().sum::<f64>() / rt.len() as f64;
        let rt_max = rt.iter().fold(0.0f64, |a, &b| a.max(b));
        table.push_owned(vec![
            format!("{day}"),
            format!("{:.2}", ds + dt),
            format!("{ds:.2}"),
            format!("{dt:.2}"),
            format!("{solar:.2}"),
            format!("{:.2}", price_lt.dollars_per_mwh()),
            format!("{rt_mean:.2}"),
            format!("{rt_max:.2}"),
        ]);
    }
    Ok(table)
}

fn fig6v(cells: &mut Cells, params: SimParams) -> Result<FigureTable, String> {
    let engine = engine(params, cells.inputs.month.clone())?;
    let off = cells.offline(&engine)?;
    let imp = cells.impatient(&engine)?;
    let mut table = FigureTable::new(
        "Fig. 6(a,b): cost and delay vs V (SmartDPSS / offline / impatient)",
        &[
            "V",
            "smart $/slot",
            "smart delay",
            "offline $/slot",
            "offline delay",
            "impatient $/slot",
            "impatient delay",
        ],
    );
    for v in FIG6_V_GRID {
        let r = cells.smart(&engine, SmartDpssConfig::icdcs13().with_v(v))?;
        table.push_owned(vec![
            format!("{v}"),
            cost(&r),
            delay(&r),
            cost(&off),
            delay(&off),
            cost(&imp),
            delay(&imp),
        ]);
    }
    Ok(table)
}

fn fig6t(cells: &mut Cells, params: SimParams) -> Result<FigureTable, String> {
    let mut table = FigureTable::new(
        "Fig. 6(c,d): cost and delay vs T (SmartDPSS; offline where tractable)",
        &[
            "T",
            "frames",
            "smart $/slot",
            "smart delay",
            "offline $/slot",
            "offline delay",
        ],
    );
    let inputs = cells.inputs;
    for (t, traces) in FIG6_T_GRID.into_iter().zip(&inputs.calendars) {
        let frames = traces.clock.frames();
        let engine = engine(params, traces.clone())?;
        let r = cells.smart(&engine, SmartDpssConfig::icdcs13())?;
        let (oc, od) = if t <= FIG6T_OFFLINE_MAX_T {
            let o = cells.offline(&engine)?;
            (cost(&o), delay(&o))
        } else {
            ("-".into(), "-".into())
        };
        table.push_owned(vec![
            format!("{t}"),
            format!("{frames}"),
            cost(&r),
            delay(&r),
            oc,
            od,
        ]);
    }
    Ok(table)
}

fn fig7(cells: &mut Cells, params: SimParams) -> Result<Vec<FigureTable>, String> {
    let engine = engine(params, cells.inputs.month.clone())?;
    let mut eps = FigureTable::new(
        "Fig. 7 (ε): cost and delay vs ε (V=1, T=24, Bmax=15 min, two markets)",
        &["eps", "$/slot", "delay"],
    );
    for e in FIG7_EPS_GRID {
        let r = cells.smart(&engine, SmartDpssConfig::icdcs13().with_epsilon(e))?;
        eps.push_owned(vec![format!("{e}"), cost(&r), delay(&r)]);
    }

    let engine_m = self::engine(params, cells.inputs.month.clone())?;
    let mut markets = FigureTable::new(
        "Fig. 7 (markets): two markets (TM) vs real-time only (RTM)",
        &["markets", "$/slot", "lt MWh", "rt MWh"],
    );
    for (label, market) in [
        ("TM", MarketMode::TwoMarkets),
        ("RTM", MarketMode::RealTimeOnly),
    ] {
        let r = cells.smart(&engine_m, SmartDpssConfig::icdcs13().with_market(market))?;
        markets.push_owned(vec![
            label.into(),
            cost(&r),
            format!("{:.1}", r.energy_lt.mwh()),
            format!("{:.1}", r.energy_rt.mwh()),
        ]);
    }

    let base = self::engine(params, cells.inputs.month.clone())?;
    let mut battery = FigureTable::new(
        "Fig. 7 (battery): cost vs Bmax (minutes of peak demand)",
        &["Bmax min", "$/slot", "waste MWh", "battery ops"],
    );
    for m in FIG7_BMAX_GRID {
        let p = SimParams::icdcs13_with_battery(m);
        let engine = base.with_params(p).map_err(err)?;
        let r = cells.smart(&engine, SmartDpssConfig::icdcs13())?;
        battery.push_owned(vec![
            format!("{m}"),
            cost(&r),
            format!("{:.1}", r.energy_wasted.mwh()),
            format!("{}", r.battery_ops),
        ]);
    }
    Ok(vec![eps, markets, battery])
}

fn fig8(cells: &mut Cells, params: SimParams) -> Result<Vec<FigureTable>, String> {
    let inputs = cells.inputs;
    let mut pen = FigureTable::new(
        "Fig. 8 (penetration): cost vs renewable penetration",
        &["penetration", "$/slot", "waste MWh"],
    );
    for (p, t) in FIG8_PENETRATION_GRID.into_iter().zip(&inputs.penetration) {
        let r = cells.smart(&engine(params, t.clone())?, SmartDpssConfig::icdcs13())?;
        pen.push_owned(vec![
            format!("{:.0}%", p * 100.0),
            cost(&r),
            format!("{:.1}", r.energy_wasted.mwh()),
        ]);
    }
    let mut var = FigureTable::new(
        "Fig. 8 (variation): cost vs demand variation (std-dev stretch)",
        &["stretch", "demand std MWh", "$/slot"],
    );
    for (f, t) in FIG8_VARIATION_GRID.into_iter().zip(&inputs.variation) {
        let std = t.demand_stats().std;
        let r = cells.smart(&engine(params, t.clone())?, SmartDpssConfig::icdcs13())?;
        var.push_owned(vec![format!("{f}"), format!("{std:.3}"), cost(&r)]);
    }
    Ok(vec![pen, var])
}

fn fig9(cells: &mut Cells, params: SimParams) -> Result<FigureTable, String> {
    let inputs = cells.inputs;
    let clean = engine(params, inputs.month.clone())?;
    let noisy = engine(params, inputs.month.clone())?
        .with_observed(inputs.observed.clone())
        .map_err(err)?;
    let baseline = cells.impatient(&clean)?.total_cost().dollars();
    let mut table = FigureTable::new(
        "Fig. 9: cost-reduction delta under observation errors, vs V",
        &["V", "clean red. %", "noisy red. %", "delta pp"],
    );
    for v in FIG6_V_GRID {
        let config = SmartDpssConfig::icdcs13().with_v(v);
        let c = cells.smart(&clean, config)?.total_cost().dollars();
        let n = cells.smart(&noisy, config)?.total_cost().dollars();
        let red_clean = 100.0 * (baseline - c) / baseline;
        let red_noisy = 100.0 * (baseline - n) / baseline;
        table.push_owned(vec![
            format!("{v}"),
            format!("{red_clean:.2}"),
            format!("{red_noisy:.2}"),
            format!("{:+.2}", red_noisy - red_clean),
        ]);
    }
    Ok(table)
}

fn fig10(cells: &mut Cells) -> Result<FigureTable, String> {
    let inputs = cells.inputs;
    let base = SimParams::icdcs13();
    let mut table = FigureTable::new(
        "Fig. 10: time-average total cost vs expansion beta (UPS fixed)",
        &["beta", "$/slot", "per-unit vs beta=1"],
    );
    let mut unit_base = None;
    for (b, t) in FIG10_BETA_GRID.into_iter().zip(&inputs.expanded) {
        let mut params = base;
        params.grid_cap = base.grid_cap * b;
        let r = cells.smart(&engine(params, t.clone())?, SmartDpssConfig::icdcs13())?;
        let c = r.time_average_cost().dollars();
        let per_unit = c / b;
        let base_unit = *unit_base.get_or_insert(per_unit);
        table.push_owned(vec![
            format!("{b}"),
            format!("{c:.3}"),
            format!("{:.3}x", per_unit / base_unit),
        ]);
    }
    Ok(table)
}

fn ablations(cells: &mut Cells, params: SimParams) -> Result<FigureTable, String> {
    let engine = engine(params, cells.inputs.month.clone())?;
    let cases: [(&str, SmartDpssConfig); 4] = [
        (
            "derived + waste-aware (default)",
            SmartDpssConfig::icdcs13(),
        ),
        (
            "paper-literal P5",
            SmartDpssConfig::icdcs13().with_p5_objective(P5Objective::PaperLiteral),
        ),
        (
            "paper-literal P4",
            SmartDpssConfig::icdcs13().with_p4_variant(P4Variant::PaperLiteral),
        ),
        (
            "paper-literal both",
            SmartDpssConfig::icdcs13()
                .with_p5_objective(P5Objective::PaperLiteral)
                .with_p4_variant(P4Variant::PaperLiteral),
        ),
    ];
    let mut table = FigureTable::new(
        "Ablations: P5 objective and P4 purchase cap (V=1)",
        &["variant", "$/slot", "delay", "waste MWh"],
    );
    for (label, config) in cases {
        let r = cells.smart(&engine, config)?;
        table.push_owned(vec![
            label.into(),
            cost(&r),
            delay(&r),
            format!("{:.1}", r.energy_wasted.mwh()),
        ]);
    }
    Ok(table)
}

fn forecast(cells: &mut Cells, params: SimParams) -> Result<FigureTable, String> {
    let (truth, seed) = (cells.inputs.month.clone(), cells.inputs.seed);
    let policies: [(&str, ForecastPolicy); 3] = [
        (
            "prev-frame average (paper)",
            ForecastPolicy::PrevFrameAverage,
        ),
        ("perfect oracle", ForecastPolicy::Oracle),
        (
            "noisy oracle (22.2% err)",
            ForecastPolicy::NoisyOracle {
                rel_std: 0.222,
                seed: seed ^ 0xF0,
            },
        ),
    ];
    let mut table = FigureTable::new(
        "Forecast ablation: value of frame-ahead information (V=1)",
        &["frame forecast", "$/slot", "delay", "rt MWh"],
    );
    for (label, policy) in policies {
        let engine = engine(params, truth.clone())?
            .with_forecast(policy)
            .map_err(err)?;
        let r = cells.smart(&engine, SmartDpssConfig::icdcs13())?;
        table.push_owned(vec![
            label.into(),
            cost(&r),
            delay(&r),
            format!("{:.1}", r.energy_rt.mwh()),
        ]);
    }
    Ok(table)
}

fn baselines(cells: &mut Cells, params: SimParams) -> Result<FigureTable, String> {
    let engine = engine(params, cells.inputs.month.clone())?;
    let oracle = engine
        .clone()
        .with_forecast(ForecastPolicy::Oracle)
        .map_err(err)?;
    let mpc = || RecedingHorizon::new(params).map_err(err);
    let greedy = GreedyBattery::around(Price::from_dollars_per_mwh(35.0)).map_err(err)?;
    let rows = [
        (None, cells.smart(&engine, SmartDpssConfig::icdcs13())?),
        (None, cells.offline(&engine)?),
        (
            Some("mpc (causal fcst)"),
            cells.run(&engine, Box::new(mpc()?))?,
        ),
        (
            Some("mpc (oracle fcst)"),
            cells.run(&oracle, Box::new(mpc()?))?,
        ),
        (None, cells.impatient(&engine)?),
        (None, cells.run(&engine, Box::new(greedy))?),
    ];
    let mut table = FigureTable::new(
        "Baseline roster (one-month trace)",
        &["policy", "$/slot", "delay", "battery ops"],
    );
    for (label, r) in rows {
        table.push_owned(vec![
            label.map_or_else(|| r.controller.clone(), str::to_owned),
            cost(&r),
            delay(&r),
            format!("{}", r.battery_ops),
        ]);
    }
    Ok(table)
}
