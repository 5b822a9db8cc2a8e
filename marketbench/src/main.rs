//! `marketbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the root of an mbp checkout (e.g. `cargo run --release
//! --manifest-path marketbench/Cargo.toml -- --workload buy-burst --seed 1
//! --seconds 10 --trace 0`). Prints report lines, then as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones).

use std::process::ExitCode;

use marketbench::{run, Config, Scale, Workload};

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: marketbench --workload {} --seed N --seconds S --trace 0|1",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Config, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    Ok((
        Config {
            root,
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            scale: Scale::full(),
        },
        trace,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, trace) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("marketbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg, trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("marketbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
