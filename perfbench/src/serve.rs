//! `serve-closed-loop`: one client drives the `dpss-serve` daemon over
//! stdio, waiting for each reply before sending the next request.
//!
//! A pass runs two sessions, each in a fresh daemon process:
//!
//! * a `stream` session of 1,000 `tick` lines generated from
//!   `Scenario::icdcs13` at the seed, with a `snapshot` every 100 ticks;
//! * a 4-site coordinated `pack` session (`price-spike`, `stressed`) of
//!   240 `step`s, with a `snapshot` every 24 steps.
//!
//! Both end with `finish`. The traced pass replays the same request
//! lines through an in-process `SessionServer`, timing the request
//! parse, each `handle_line` and the response serialization.

use dpss_core::{FleetPlanner, SmartDpss, SmartDpssConfig};
use dpss_serve::{RawRequest, Response, SessionServer};
use dpss_sim::{Controller, Engine, Interconnect, MultiSiteEngine, RunReport, SimParams};
use dpss_traces::{Scenario, ScenarioPack, TraceSet};
use dpss_units::{Energy, SlotClock};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use std::fmt::Write as _;

use crate::clock::Stamp;
use crate::harness::{delay_slots, err, Check, Digest, Hasher, Pass, Workload};
use crate::speed::{self, Meter};
use crate::stats::{late_over_early, peak_rss_mb};

const STREAM_FRAMES: usize = 1000;
const STREAM_SNAPSHOT_EVERY: usize = 100;
const PACK_FRAMES: usize = 240;
const PACK_SNAPSHOT_EVERY: usize = 24;
const PACK_SITES: usize = 4;
const PACK_NAME: &str = "price-spike";
/// `stressed`, the third `price-spike` variant.
const PACK_VARIANT: usize = 3;
/// The daemon's pooled link capacity for pack fleets, MWh.
const PACK_LINK_MWH: f64 = 2.0;
/// The daemon's default battery size, minutes of peak demand.
const BATTERY_MIN: f64 = 15.0;

/// What a request line asks for, for per-kind latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Init,
    Tick,
    Step,
    Snapshot,
    Finish,
}

/// One session's request lines, `init` first.
#[derive(Debug)]
struct Script {
    lines: Vec<(Op, String)>,
    site_frames: u64,
    /// Whether this session's snapshots count as pack-session snapshots.
    pack: bool,
}

impl Script {
    fn build(
        init: String,
        body: impl Iterator<Item = (Op, String)>,
        site_frames: u64,
        pack: bool,
    ) -> Self {
        let mut lines = vec![(Op::Init, init)];
        lines.extend(body);
        lines.push((Op::Finish, "{\"cmd\":\"finish\"}".to_owned()));
        Script {
            lines,
            site_frames,
            pack,
        }
    }
}

/// The workload's inputs and where its daemon lives.
#[derive(Debug)]
pub struct Serve {
    seed: u64,
    daemon: PathBuf,
    scratch: PathBuf,
    stream_truth: TraceSet,
    scripts: [Script; 2],
    generate_ns: f64,
    sessions: u64,
    /// Cost and delay of the batch runs the sessions were checked against.
    outcome: Option<(f64, f64)>,
}

fn with_snapshots(
    n: usize,
    every: usize,
    line: impl Fn(usize) -> Result<String, String>,
    op: Op,
) -> Result<Vec<(Op, String)>, String> {
    let mut out = Vec::with_capacity(n + n / every);
    for i in 0..n {
        out.push((op, line(i)?));
        if (i + 1) % every == 0 {
            out.push((Op::Snapshot, "{\"cmd\":\"snapshot\"}".to_owned()));
        }
    }
    Ok(out)
}

fn tick_line(truth: &TraceSet, frame: usize) -> Result<String, String> {
    let t = truth.clock.slots_per_frame();
    let range = frame * t..(frame + 1) * t;
    let mwh = |xs: &[Energy]| xs.iter().map(|e| e.mwh()).collect::<Vec<f64>>();
    let short = || format!("trace shorter than frame {frame}");
    let tick = RawRequest {
        cmd: Some("tick".to_owned()),
        frame: Some(frame),
        price_lt: Some(
            truth
                .price_lt
                .get(frame)
                .ok_or_else(short)?
                .dollars_per_mwh(),
        ),
        price_rt: Some(
            truth
                .price_rt
                .get(range.clone())
                .ok_or_else(short)?
                .iter()
                .map(|p| p.dollars_per_mwh())
                .collect(),
        ),
        demand_ds: Some(mwh(truth.demand_ds.get(range.clone()).ok_or_else(short)?)),
        demand_dt: Some(mwh(truth.demand_dt.get(range.clone()).ok_or_else(short)?)),
        renewable: Some(mwh(truth.renewable.get(range).ok_or_else(short)?)),
        ..RawRequest::default()
    };
    serde_json::to_string(&tick).map_err(err)
}

impl Serve {
    /// Generates the stream session's ticks and both request scripts.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(err)?;
        let dir = exe.parent().ok_or("executable has no directory")?;
        let daemon = dir.join("dpss-serve");
        if !daemon.is_file() {
            return Err(format!("daemon binary missing: {}", daemon.display()));
        }
        let scratch = dir
            .join("perfbench-scratch")
            .join(format!("{}-{seed}", std::process::id()));

        let start = Stamp::now();
        let clock = SlotClock::new(STREAM_FRAMES, 24, 1.0).map_err(err)?;
        let stream_truth = Scenario::icdcs13().generate(&clock, seed).map_err(err)?;
        let generate_ns = start.elapsed_ns();

        let stream = Script::build(
            format!("{{\"cmd\":\"init\",\"mode\":\"stream\",\"days\":{STREAM_FRAMES}}}"),
            with_snapshots(
                STREAM_FRAMES,
                STREAM_SNAPSHOT_EVERY,
                |f| tick_line(&stream_truth, f),
                Op::Tick,
            )?
            .into_iter(),
            STREAM_FRAMES as u64,
            false,
        );
        let pack = Script::build(
            format!(
                "{{\"cmd\":\"init\",\"mode\":\"pack\",\"pack\":\"{PACK_NAME}\",\"variant\":{PACK_VARIANT},\
                 \"sites\":{PACK_SITES},\"dispatch\":\"coordinated\",\"days\":{PACK_FRAMES},\"seed\":{seed}}}"
            ),
            with_snapshots(
                PACK_FRAMES,
                PACK_SNAPSHOT_EVERY,
                |_| Ok("{\"cmd\":\"step\"}".to_owned()),
                Op::Step,
            )?
            .into_iter(),
            (PACK_SITES * PACK_FRAMES) as u64,
            true,
        );
        Ok(Serve {
            seed,
            daemon,
            scratch,
            stream_truth,
            scripts: [stream, pack],
            generate_ns,
            sessions: 0,
            outcome: None,
        })
    }

    /// A fresh, empty state directory for the next session.
    fn state_dir(&mut self) -> Result<PathBuf, String> {
        self.sessions += 1;
        let dir = self.scratch.join(format!("session-{}", self.sessions));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(dir)
    }

    /// The batch runs a session's `finish` must reproduce: the stream
    /// month on one engine, and the pack fleet under the daemon's pooled
    /// interconnect and a coordinating planner.
    fn batch_reports(&self) -> Result<(RunReport, dpss_sim::MultiSiteReport), String> {
        let params = SimParams::icdcs13_with_battery(BATTERY_MIN);
        let stream_clock = self.stream_truth.clock;
        let engine = Engine::new(params, self.stream_truth.clone()).map_err(err)?;
        let mut ctl =
            SmartDpss::new(SmartDpssConfig::icdcs13(), params, stream_clock).map_err(err)?;
        let stream = engine.run(&mut ctl).map_err(err)?;

        let clock = SlotClock::new(PACK_FRAMES, 24, 1.0).map_err(err)?;
        let pack = ScenarioPack::builtin(PACK_NAME).ok_or("unknown pack")?;
        let engines = (0..PACK_SITES)
            .map(|s| {
                let traces = pack
                    .generate_site(&clock, self.seed, PACK_VARIANT, s)
                    .map_err(err)?;
                Engine::new(params, traces).map_err(err)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let ic = Interconnect::pooled(PACK_SITES, Energy::from_mwh(PACK_LINK_MWH)).map_err(err)?;
        let fleet = MultiSiteEngine::new(engines)
            .and_then(|f| f.with_interconnect(ic))
            .map_err(err)?;
        let mut ctls = (0..PACK_SITES)
            .map(|_| {
                SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock)
                    .map(|c| Box::new(c) as Box<dyn Controller>)
                    .map_err(err)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut planner = FleetPlanner::for_engine(&fleet).with_coordination(true);
        let report = fleet.run_with(&mut ctls, &mut planner).map_err(err)?;
        Ok((stream, report))
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// A daemon process on the other end of two pipes.
struct Daemon {
    child: Child,
    input: ChildStdin,
    output: BufReader<ChildStdout>,
    reply: String,
}

impl Daemon {
    fn spawn(bin: &Path, state_dir: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let (Some(input), Some(output)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon pipes unavailable".to_owned());
        };
        let mut daemon = Daemon {
            child,
            input,
            output: BufReader::new(output),
            reply: String::new(),
        };
        daemon.read_reply()?;
        if !daemon.reply.starts_with("{\"Hello\"") {
            return Err(format!("daemon did not greet: {}", daemon.reply.trim_end()));
        }
        Ok(daemon)
    }

    fn read_reply(&mut self) -> Result<(), String> {
        self.reply.clear();
        let n = self.output.read_line(&mut self.reply).map_err(err)?;
        if n == 0 {
            return Err("daemon closed its output".to_owned());
        }
        Ok(())
    }

    /// Sends one request line and waits for its reply.
    fn request(&mut self, line: &str) -> Result<&str, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.input.write_all(framed.as_bytes()).map_err(err)?;
        self.input.flush().map_err(err)?;
        self.read_reply()?;
        Ok(self.reply.trim_end())
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Ends the session politely and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = self
            .request("{\"cmd\":\"shutdown\"}")?
            .starts_with("{\"Bye\"");
        let status = self.child.wait().map_err(err)?;
        if bye && status.success() {
            Ok(())
        } else {
            Err(format!("daemon shutdown failed: {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already reaped after a clean shutdown; otherwise stop it now.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn is_error(reply: &str) -> bool {
    reply.starts_with("{\"Error\"")
}

impl Workload for Serve {
    fn pass(&mut self, _full: bool) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut ticks = Vec::new();
        let mut steps = Vec::new();
        let mut snapshots = Vec::new();
        let mut output = Hasher::default();
        for i in 0..self.scripts.len() {
            let dir = self.state_dir()?;
            let script = self.scripts.get(i).ok_or("script index")?;
            let mut lines = script.lines.iter();
            let (_, init) = lines.next().ok_or("empty script")?;
            let (daemon, setup_ns) = speed::timed(|| -> Result<_, String> {
                let mut daemon = Daemon::spawn(&self.daemon, &dir)?;
                let ok = !is_error(daemon.request(init)?);
                Ok((daemon, ok))
            });
            let (mut daemon, ok) = daemon?;
            pass.errors += u64::from(!ok);
            pass.setup_ns.push(setup_ns);
            // Requests take about a millisecond: meter them in blocks.
            let mut meter = Meter::new(32);
            for (op, line) in lines {
                let sent = Stamp::now();
                let reply = daemon.request(line)?;
                let ns = sent.elapsed_ns();
                // The pass's wall is the time spent waiting on the daemon.
                meter.record(ns);
                pass.ops_ns.push(ns);
                pass.requests += 1;
                if is_error(reply) {
                    pass.errors += 1;
                }
                match op {
                    Op::Tick => ticks.push(ns),
                    Op::Step => steps.push(ns),
                    Op::Snapshot if script.pack => snapshots.push(ns),
                    _ => {}
                }
                if *op == Op::Finish {
                    pass.finishes.push(Digest::of_str(reply));
                }
                if *op != Op::Snapshot {
                    let _ = writeln!(output, "{reply}");
                }
            }
            let (wall_ns, scaled_ns) = meter.finish();
            pass.wall_ns += wall_ns;
            pass.scaled_ns += scaled_ns;
            pass.site_frames += script.site_frames;
            pass.peak_rss_mb = pass.peak_rss_mb.max(daemon.peak_rss_mb());
            daemon.shutdown()?;
            let _ = std::fs::remove_dir_all(&dir);
        }
        pass.output = output.finish();
        pass.full = pass.output;
        pass.kinds = vec![("tick", ticks), ("step", steps), ("snapshot", snapshots)];
        Ok(pass)
    }

    fn traced_pass(&mut self) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let (mut parse, mut emit, mut bytes, mut snapshot_bytes) = (0.0, 0.0, 0.0, 0.0);
        let (mut tick, mut step, mut snap, mut other) = (Vec::new(), Vec::new(), 0.0, 0.0);
        let mut output = Hasher::default();
        let start = Stamp::now();
        for i in 0..self.scripts.len() {
            let dir = self.state_dir()?;
            let script = self.scripts.get(i).ok_or("script index")?;
            let mut server = SessionServer::new(Some(&dir)).map_err(err)?;
            for (op, line) in &script.lines {
                let t0 = Stamp::now();
                let raw = serde_json::from_str::<RawRequest>(line);
                let t1 = Stamp::now();
                let (response, _) = server.handle_line(line);
                let t2 = Stamp::now();
                let text = serde_json::to_string(&response).map_err(err)?;
                let t3 = Stamp::now();
                std::hint::black_box(raw.is_ok());
                parse += t1.ns_after(t0) as f64;
                let handle = t2.ns_after(t1) as f64;
                emit += t3.ns_after(t2) as f64;
                bytes += text.len() as f64;
                pass.requests += u64::from(*op != Op::Init);
                if matches!(response, Response::Error { .. }) {
                    pass.errors += 1;
                }
                match op {
                    Op::Tick => tick.push(handle),
                    Op::Step => step.push(handle),
                    Op::Snapshot => {
                        snap += handle;
                        if let Response::Snapshotted { path, .. } = &response {
                            snapshot_bytes += std::fs::metadata(path).map_err(err)?.len() as f64;
                        }
                    }
                    Op::Init | Op::Finish => other += handle,
                }
                if *op == Op::Finish {
                    pass.finishes.push(Digest::of_str(&text));
                }
                if !matches!(op, Op::Snapshot | Op::Init) {
                    let _ = writeln!(output, "{text}");
                }
            }
            pass.site_frames += script.site_frames;
            let _ = std::fs::remove_dir_all(&dir);
        }
        let wall = start.elapsed_ns();
        pass.output = output.finish();
        pass.full = pass.output;
        let (tick_ns, step_ns): (f64, f64) = (tick.iter().sum(), step.iter().sum());
        pass.wall_ns = wall;
        pass.layers = vec![
            ("traces.generate.ns".into(), self.generate_ns),
            (
                "traces.slots".into(),
                self.stream_truth.clock.total_slots() as f64,
            ),
            ("serve.parse.ns".into(), parse),
            ("serve.handle.tick.ns".into(), tick_ns),
            ("serve.handle.step.ns".into(), step_ns),
            ("serve.handle.snapshot.ns".into(), snap),
            ("serve.handle.other.ns".into(), other),
            ("serve.emit.ns".into(), emit),
            ("serve.response.bytes".into(), bytes),
            ("serve.snapshot.bytes".into(), snapshot_bytes),
            ("serve.tick.late_over_early".into(), late_over_early(&tick)),
            ("serve.step.late_over_early".into(), late_over_early(&step)),
            ("wall.ns".into(), wall),
            (
                "unattributed.ns".into(),
                (wall - parse - tick_ns - step_ns - snap - other - emit).max(0.0),
            ),
        ];
        Ok(pass)
    }

    fn checks(&mut self, reference: &Pass, _realization: usize) -> Result<Vec<Check>, String> {
        let (stream, fleet) = self.batch_reports()?;
        let refs: Vec<&RunReport> = std::iter::once(&stream).chain(&fleet.sites).collect();
        self.outcome = Some((
            stream.total_cost().dollars() + fleet.total_cost().dollars(),
            delay_slots(&refs),
        ));
        // The replies the daemon's `finish` must send for these runs,
        // built the way the server builds them.
        let stream_finish =
            serde_json::to_string(&Response::Finished { report: stream }).map_err(err)?;
        let fleet_finish = serde_json::to_string(&Response::FleetFinished {
            transferred_mwh: fleet.energy_transferred.mwh(),
            delivered_mwh: fleet.energy_delivered.mwh(),
            savings_dollars: fleet.transfer_savings.dollars(),
            wheeling_dollars: fleet.wheeling_cost.dollars(),
            total_cost_dollars: fleet.total_cost().dollars(),
            sites: fleet.sites,
        })
        .map_err(err)?;
        let replied = |expected: &str| reference.finishes.contains(&Digest::of_str(expected));
        Ok(vec![
            Check::new(
                "stream finish equals the batch Engine::run",
                replied(&stream_finish),
            ),
            Check::new(
                "pack finish equals the batch coordinated fleet",
                replied(&fleet_finish),
            ),
        ])
    }

    fn outcome(&self, _reference: &Pass) -> (f64, f64) {
        self.outcome.unwrap_or_default()
    }
}
