//! Benchmark command.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--window WARMUP:INSTR] [--work-dir DIR]
//! ```
//!
//! Prints notes and `metric <name> <value> <unit>` lines, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 2 on a usage error, without a result.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{run, Options};
use perfbench::workloads::{workload, NAMES};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut name = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut window = None;
    let mut work_dir = PathBuf::from(".perfbench-work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--window" => {
                let v = value()?;
                let (w, i) = v
                    .split_once(':')
                    .and_then(|(w, i)| Some((w.parse().ok()?, i.parse().ok()?)))
                    .filter(|&(_, i): &(u64, u64)| i > 0)
                    .ok_or(format!("--window takes WARMUP:INSTR, not {v}"))?;
                window = Some((w, i));
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let mut w = workload(&name, seed).ok_or(format!(
        "unknown workload {name}; choose one of {}",
        NAMES.join(", ")
    ))?;
    if let Some((warmup, instr)) = window {
        w = w.with_window(warmup, instr);
    }
    Ok(Options {
        workload: w,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    let _ = std::fs::remove_dir(&opts.work_dir);
    for n in &report.notes {
        println!("{n}");
    }
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
