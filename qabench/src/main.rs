//! `qabench` — the end-to-end benchmark of the KGQAn platform over HTTP.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path qabench/Cargo.toml -- \
//!     --workload ask-general --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Starts the real server in-process on loopback, drives it from client
//! threads with one keep-alive connection each (one asking client, or a
//! SPARQL reader beside an ingest writer), checks every answer against an
//! in-process oracle, and prints a human-readable report, a `record:` line with the
//! run's provenance, and — as the last line — one JSON result object.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs an
//! untraced baseline and then a traced run through span decorators and
//! reports the per-layer metrics.
//!
//! Exit code 0 only when every operation passed its checks.

mod ask;
mod json;
mod live;
mod load;
mod metrics;
mod record;
mod rng;
mod setup;
mod stats;
mod trace;

use std::process::ExitCode;

use crate::ask::Kind;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qabench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "ask-general" => ask::run(Kind::General, args.seed, args.seconds, args.trace),
        "ask-scholarly" => ask::run(Kind::Scholarly, args.seed, args.seconds, args.trace),
        "sparql-live" => live::run(args.seed, args.seconds, args.trace),
        other => Err(format!(
            "unknown workload {other:?} (ask-general, ask-scholarly, sparql-live)"
        )),
    };
    match outcome {
        Ok(outcome) => {
            for failure in &outcome.failures {
                eprintln!("qabench: FAILED: {failure}");
            }
            println!("{}", outcome.result_line());
            ExitCode::from(outcome.exit_code() as u8)
        }
        Err(e) => {
            eprintln!("qabench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        assert_eq!(
            args("--workload sparql-live --seed 7 --seconds 12 --trace 1").unwrap(),
            Args {
                workload: "sparql-live".into(),
                seed: 7,
                seconds: 12,
                trace: true,
            }
        );
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
