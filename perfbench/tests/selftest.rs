//! Self-tests of the benchmark, on tiny windows.
//!
//! * The traced runner reproduces `System::run` exactly (full `RunStats`)
//!   on one configuration of every workload, under the default
//!   scheduler.
//! * The command prints every metric `BENCHMARK.json` names, with the
//!   unit it declares, in both modes, and its last line is the result.

use std::process::Command;

use hermes_sim::System;
use perfbench::traced::{run_traced, LayerTimes};
use perfbench::workloads::{workload, NAMES};

#[test]
fn traced_runner_equals_system_run_on_every_workload() {
    for name in NAMES {
        let w = workload(name, 0).expect("known workload");
        let p = w
            .points
            .iter()
            .find(|p| p.tag == "hermes")
            .expect("every workload has a Hermes point");
        let specs = std::slice::from_ref(&p.spec);
        let want = System::new(p.cfg.clone(), specs).run(2_000, 6_000);
        let mut t = LayerTimes::default();
        let got = run_traced(&p.cfg, specs, 2_000, 6_000, &mut t);
        assert_eq!(
            format!("{:?}", got.stats),
            format!("{want:?}"),
            "{name}: traced runner diverged from System::run"
        );
        assert!(t.steps > 0 && t.core_ticks >= t.steps && t.loads_issued > 0);
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`, which
/// keeps one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// The string value of `"key": "value"` on one line.
fn field(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(rest[..rest.find('"')?].to_string())
}

fn run_command(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "coherent-2c", "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--window", "1000:3000"])
        .arg("--work-dir")
        .arg(format!("{}/selftest-{trace}", env!("CARGO_TARGET_TMPDIR")))
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "exit status {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn command_prints_every_declared_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run_command(trace);
        let want = declared(section);
        assert!(!want.is_empty(), "{section} lists metrics");
        let last = stdout.lines().last().expect("output");
        let points = workload("coherent-2c", 3).expect("known").points.len();
        assert!(
            last.starts_with(&format!(
                "{{\"correct\": true, \"attempted\": {points}, \"failed\": 0, \"metrics\": {{"
            )),
            "result line: {last}"
        );
        for (name, unit) in &want {
            let line = format!("metric {name} ");
            let printed = stdout
                .lines()
                .find(|l| l.starts_with(&line))
                .unwrap_or_else(|| panic!("{name} not printed with --trace {trace}"));
            assert!(
                printed.ends_with(&format!(" {unit}")),
                "{printed}: unit {unit}"
            );
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": "))
                    && last.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} missing from the result"
            );
        }
        let printed = stdout.lines().filter(|l| l.starts_with("metric ")).count();
        assert_eq!(
            printed,
            want.len(),
            "--trace {trace} prints only declared metrics"
        );
    }
}
