//! `figbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path figbench/Cargo.toml -- \
//!     --workload figs-cold|figs-warm|closed-loop \
//!     [--seed N] [--seconds S] [--trace 0|1] [--requests N]
//! ```
//!
//! Run from the repository root. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::process::ExitCode;

use figbench::figures::{golden_seed, Scenario};
use figbench::pass::{run_pass, PassSpec};
use figbench::run::{run, RunArgs};

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        scenario: Scenario::FigsCold,
        seed: golden_seed(),
        seconds: 10,
        trace: false,
        requests: None,
    };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Scenario::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--requests" => parsed.requests = Some(number()?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.scenario = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    // Hermetic from the start: no MN_* knob may reshape a grid or change
    // where results are read or written. Passes are child processes of
    // this one, so they inherit the scrubbed environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MN_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("pass") {
        PassSpec::from_args(&args[1..])
            .and_then(|spec| run_pass(&spec))
            .map(|report| print!("{}", report.to_text()))
    } else {
        parse(&args)
            .and_then(|args| {
                let root = std::env::current_dir().map_err(|e| e.to_string())?;
                run(&root, &args)
            })
            .map(|outcome| {
                for note in &outcome.notes {
                    println!("# {note}");
                }
                println!("{}", outcome.to_json());
            })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("figbench: {err}");
            ExitCode::from(2)
        }
    }
}
