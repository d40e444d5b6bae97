//! Host-normalised campaign benchmark for the fnpr workspace.
//!
//! ```text
//! fnpr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the named workload's campaign spec from the seed, runs timed reps
//! of it through `fnpr_campaign`'s `pub` API for about `--seconds`, checks
//! every rep against the correctness gate, and prints one JSON result as
//! the last line of stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. A stamped
//! record of the run (host, commit, seed, per-rep raw seconds) precedes
//! it. See `README.md` beside this crate for the workloads and the
//! normalisation.

mod calib;
mod measure;
mod record;
mod replay;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Size, Workload};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
    /// Input scale (`--size tiny` exists for the benchmark's own tests).
    pub size: Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(0.0..=120.0).contains(&s) {
                    return Err(format!("--seconds must be within 0..=120, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// The process backend re-invokes this binary as `fnpr-benchmark worker`:
/// read one job from stdin, stream result frames to stdout.
fn worker() -> ExitCode {
    use std::io::Read;
    let mut job = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut job) {
        eprintln!("fnpr-benchmark worker: reading job: {e}");
        return ExitCode::FAILURE;
    }
    let stdout = std::io::stdout();
    match fnpr_campaign::run_worker(&job, &mut stdout.lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fnpr-benchmark worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        return worker();
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fnpr-benchmark: {e}");
            eprintln!(
                "usage: fnpr-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Temporary state (the pre-populated store and its per-rep copies) lives
    // under the working directory and is removed on the way out.
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("fnpr-benchmark: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = measure::run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(result) => {
            for note in &result.notes {
                eprintln!("fnpr-benchmark: {note}");
            }
            println!("{}", result.record);
            println!("{}", result.summary_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fnpr-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload store_extend --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::StoreExtend);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.size, Size::Full);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload acceptance --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload acceptance --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
