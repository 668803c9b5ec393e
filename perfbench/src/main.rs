//! End-to-end and per-layer benchmark of the wait-free tree workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tree-mix --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each workload is a closed loop of two load threads calling one layer's
//! public functions and timing every call from outside. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! slices of the same set-up and prints the per-layer metrics: deltas of
//! the layer's own counters, span self times, and the tracing overhead.
//! The last line of standard output is the JSON result; `perfbench/README.md`
//! lists every metric and the workload it comes from.

mod durable;
mod harness;
mod mix;
mod report;
mod trace;

use std::process::ExitCode;

use report::Report;

/// Load threads per workload: the benchmark host has two cores, and more
/// threads than cores would measure the scheduler.
pub const LOAD_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <tree-mix|trie-mix|durable-commit> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "tree-mix" => mix::run::<wft_core::WaitFreeTree<i64>>(args.seed, args.seconds, args.trace),
        "trie-mix" => mix::run::<wft_trie::WaitFreeTrie<i64>>(args.seed, args.seconds, args.trace),
        "durable-commit" => match durable::run(args.seed, args.seconds, args.trace) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("perfbench: durable-commit could not run: {err}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report.emit(&args.workload, args.seed, args.trace, &host(&args));
    ExitCode::SUCCESS
}

/// Host metadata recorded with every result.
fn host(args: &Args) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("nproc", nproc.to_string()),
        ("load_threads", LOAD_THREADS.to_string()),
        ("oversubscribed", (LOAD_THREADS > nproc).to_string()),
        ("git_rev", git_rev()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("warmup_s", harness::WARMUP.as_secs_f64().to_string()),
    ];
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// The checkout's git revision, when the benchmark runs in a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}
