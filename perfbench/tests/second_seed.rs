//! Runs every workload once at a second seed, untraced and traced, and
//! checks the result line: every metric `BENCHMARK.json` names is
//! present and every output check passed. Claims measured at the
//! default seed can be re-checked at this one.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

const SECOND_SEED: &str = "7";
const WORKLOADS: [&str; 4] = [
    "paper-figures",
    "fleet-512-month",
    "fleet-routed-year",
    "serve-closed-loop",
];

/// The metric names listed in one section of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let start = manifest
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &manifest[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

fn result_line(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            SECOND_SEED,
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

fn assert_complete(workload: &str, trace: &str, section: &str) {
    let line = result_line(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
        "{workload} --trace {trace}: {line}"
    );
    let expected = names(section);
    assert!(!expected.is_empty());
    for name in expected {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload} --trace {trace} lacks {name}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_at_a_second_seed() {
    for w in WORKLOADS {
        assert_complete(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_at_a_second_seed() {
    for w in WORKLOADS {
        assert_complete(w, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec!["--workload", "no-such-workload"],
        vec!["--workload", "paper-figures", "--trace", "2"],
        vec!["--workload", "paper-figures", "--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("perfbench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
