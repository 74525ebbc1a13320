//! End-to-end benchmark of the MiLo workspace.
//!
//! ```text
//! perfbench --workload compress|mixtral_chat|deepseek_serve --seed N \
//!           --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! Prints one line per metric and, as the last line, a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones (peak RSS is added by `run.py`, which
//! measures the process from outside); with `--trace 1` they are the
//! per-layer ones, and a Chrome trace is written to `--trace-out`.
//! The benchmark sets `MILO_THREADS` itself so that runnable threads
//! never exceed the host's cores (see [`set_thread_budget`]).

mod chat;
mod compress;
mod models;
mod probe;
mod report;
mod serve;

use milo_obs::Level;
use report::Report;
use std::process::ExitCode;

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--trace-out" => args.trace_out = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    if args.trace && args.trace_out.is_empty() {
        return Err("--trace 1 needs --trace-out FILE".into());
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, setups: usize) -> Result<Report, String> {
    let _span = milo_obs::span(|| format!("bench.{name}"));
    match name {
        "compress" => Ok(compress::run(seed, seconds, setups)),
        "mixtral_chat" => Ok(chat::run(seed, seconds, setups)),
        "deepseek_serve" => Ok(serve::run(seed, seconds, setups)),
        _ => Err(format!("unknown workload {name:?}")),
    }
}

/// The traced run: the workload's loop in four quarters of the time,
/// untraced, traced, traced, untraced (the order cancels a linear drift
/// in host speed), for `obs.trace_overhead_pct`; then the per-layer
/// probe. Everything traced lands in one Chrome trace.
fn traced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut p50_sum = [0.0; 2];
    for level in [Level::Off, Level::Trace, Level::Trace, Level::Off] {
        milo_obs::set_level(level);
        let part = run_workload(&args.workload, args.seed, args.seconds / 4.0, 1)?;
        let p50 = part
            .get("latency_p50_ms")
            .expect("every workload reports it");
        p50_sum[usize::from(level == Level::Trace)] += p50;
        report.attempted += part.attempted;
        report.failed += part.failed;
        report.check_failures.extend(part.check_failures);
    }
    milo_obs::set_level(Level::Trace);
    report.metric(
        "obs.trace_overhead_pct",
        (p50_sum[1] / p50_sum[0] - 1.0) * 100.0,
        "%",
    );
    probe::run(args.seed, &mut report);
    std::fs::write(&args.trace_out, milo_obs::trace::export_chrome())
        .map_err(|e| format!("writing {}: {e}", args.trace_out))?;
    Ok(report)
}

/// Sizes the pool before its first use: one thread for every workload.
/// `mixtral_chat` is one client, and a pool would fork-join on every
/// projection: on a shared host each step then waits for the slower
/// core, and with the two routed experts landing in one static chunk or
/// in two, step times split into two modes whose mix moves with the
/// prompt. The serve workload runs one server worker per core; the
/// workers are plain threads whose nested parallel calls would each
/// start a full pool. `compress` runs its HQQ and SVD steps serially,
/// and on its many small matrices a pool would mostly time thread
/// start-up. The probe still times a fork-join at every core.
fn set_thread_budget() {
    std::env::set_var("MILO_THREADS", "1");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    set_thread_budget();
    let result = if args.trace {
        traced(&args)
    } else {
        milo_obs::set_level(Level::Off);
        run_workload(&args.workload, args.seed, args.seconds, SETUPS)
    };
    match result {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
