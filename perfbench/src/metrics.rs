//! The benchmark's workloads and metrics, and the `BENCHMARK.json` they
//! describe.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// A named workload and why it is in the benchmark.
#[derive(Debug)]
pub struct WorkloadDef {
    /// `--workload` name.
    pub name: &'static str,
    /// One-line rationale.
    pub why: &'static str,
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "paper-figures",
        why: "the ten paper figure tables: single-site controllers and the offline frame LPs on the dense tableau",
    },
    WorkloadDef {
        name: "fleet-512-month",
        why: "coordinated 512-site ring month: kernel-bound fleet dispatch, where warm-path LP work shows",
    },
    WorkloadDef {
        name: "fleet-routed-year",
        why: "16 sites routed over 365 frames: the routing LP, the workload ledger and per-frame cost growing with the horizon",
    },
    WorkloadDef {
        name: "serve-closed-loop",
        why: "one client drives dpss-serve over stdio: stream ticks, coordinated pack steps and snapshots, each waiting for its reply",
    },
];

/// End-to-end metrics, reported on every workload with `--trace 0`.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("site_frames_per_s", "1/s", Better::Higher, 0.25),
    e2e("requests_per_s", "1/s", Better::Higher, 0.25),
    e2e("cost_usd", "USD", Better::Lower, 0.2),
    e2e("delay_slots", "slots", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
];

/// Per-layer metrics, reported on every workload with `--trace 1`
/// (zero where the workload does not reach the layer).
pub const PER_LAYER: [Metric; 57] = [
    layer("op_p50_us", "us"),
    layer("op_p90_us", "us"),
    layer("traces.generate.ns", "ns"),
    layer("traces.slots", "count"),
    layer("controller.plan_frame.calls", "count"),
    layer("controller.plan_frame.ns", "ns"),
    layer("controller.plan_slot.calls", "count"),
    layer("controller.plan_slot.ns", "ns"),
    layer("controller.end_slot.ns", "ns"),
    layer("controller.directive.ns", "ns"),
    layer("sim.outlook.ns", "ns"),
    layer("sim.plant.ns", "ns"),
    layer("sim.exchange.ns", "ns"),
    layer("sim.outlook.late_over_early", "ratio"),
    layer("fleet.direct.calls", "count"),
    layer("fleet.direct.ns", "ns"),
    layer("fleet.settle.calls", "count"),
    layer("fleet.settle.ns", "ns"),
    layer("routing.direct.ns", "ns"),
    layer("routing.settle_routed.ns", "ns"),
    layer("lp.solves", "count"),
    layer("lp.kernel_solves", "count"),
    layer("lp.pivots", "count"),
    layer("lp.pivots_per_solve", "pivots/solve"),
    layer("lp.warm_reject_rate", "ratio"),
    layer("lp.refactor_rate", "ratio"),
    layer("lp.solve_ns", "ns"),
    layer("lp.peak_scratch_bytes", "bytes"),
    layer("serve.parse.ns", "ns"),
    layer("serve.handle.tick.ns", "ns"),
    layer("serve.handle.step.ns", "ns"),
    layer("serve.handle.snapshot.ns", "ns"),
    layer("serve.handle.other.ns", "ns"),
    layer("serve.emit.ns", "ns"),
    layer("serve.response.bytes", "bytes"),
    layer("serve.snapshot.bytes", "bytes"),
    layer("serve.tick.late_over_early", "ratio"),
    layer("serve.step.late_over_early", "ratio"),
    layer("serve.wire.tick_p50_us", "us"),
    layer("serve.wire.tick_p99_us", "us"),
    layer("serve.wire.step_p50_us", "us"),
    layer("serve.wire.step_p95_us", "us"),
    layer("serve.wire.snapshot_p50_ms", "ms"),
    layer("figures.fig5.ns", "ns"),
    layer("figures.fig6v.ns", "ns"),
    layer("figures.fig6t.ns", "ns"),
    layer("figures.fig7.ns", "ns"),
    layer("figures.fig8.ns", "ns"),
    layer("figures.fig9.ns", "ns"),
    layer("figures.fig10.ns", "ns"),
    layer("figures.ablations.ns", "ns"),
    layer("figures.forecast.ns", "ns"),
    layer("figures.baselines.ns", "ns"),
    layer("bench.cells", "count"),
    layer("wall.ns", "ns"),
    layer("unattributed.ns", "ns"),
    layer("trace_overhead_frac", "ratio"),
];

fn better(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The `BENCHMARK.json` text for these definitions.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"perfbench/run.sh\"],\n  \
         \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('"'), "{}", w.name);
        }
    }

    #[test]
    fn bounds_are_within_contract() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_matches_these_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `perfbench manifest`"
        );
    }
}
