//! NoPFS benchmark: end-to-end metrics of the training loop's view
//! (`--trace 0`) or per-layer metrics from probes and a traced run
//! (`--trace 1`), for one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_local --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Lines before it
//! state the workload's parameters, the clock, `nproc` and the rounds.
//! The process exits non-zero when any delivered sample is missing,
//! corrupt or out of the seed-predicted order.

mod layers;
mod stats;
mod traced;
mod workload;

use nopfs_obs::ObsCtx;
use std::time::{Duration, Instant};
use workload::{Inputs, Round, Workload};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Rounds every end-to-end run makes at least, beside the warm-up.
const MIN_ROUNDS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    println!("workload {}: {}", w.name, w.why);
    println!("parameters {w:?}");
    println!(
        "clock wall; nproc {}; seed {}; budget {} s; trace {}",
        stats::nproc(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let t_inputs = Instant::now();
    let inputs = Inputs::generate(w, args.seed);
    println!(
        "inputs: {} samples, {} bytes, generated in {:.2} s (not measured)",
        inputs.sizes.len(),
        inputs.total_bytes,
        t_inputs.elapsed().as_secs_f64()
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let (metrics, attempted, failed) = if args.trace {
        traced::run(&inputs, budget)
    } else {
        end_to_end(&inputs, budget)
    };

    println!(
        "error_rate {} ({failed} of {attempted} samples missing, corrupt or misordered)",
        failed as f64 / attempted.max(1) as f64
    );
    for m in &metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

/// Rounds until the budget is spent (at least [`MIN_ROUNDS`], after one
/// unmeasured warm-up round), with the product's default observability
/// (active registry, tracing off).
fn end_to_end(inputs: &Inputs, budget: Duration) -> (Vec<Metric>, u64, u64) {
    let warm = workload::run_round(inputs, 0, &ObsCtx::new());
    let mut attempted = warm.expected;
    let mut failed = warm.errors;
    let start = Instant::now();
    let steal_before = stats::steal_ticks();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let r = workload::run_round(inputs, rounds.len() as u64 + 1, &ObsCtx::new());
        attempted += r.expected;
        failed += r.errors;
        println!(
            "round {:>2}: setup {:.4} s  wall {:.4} s  {:.0} samples/s",
            rounds.len(),
            r.setup_s(),
            r.wall_s,
            r.samples_per_s()
        );
        rounds.push(r);
    }
    let mut waits: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.waits_ns.iter().copied())
        .collect();
    waits.sort_unstable();
    let wait_us = |q: f64| stats::quantile_sorted(&waits, q) / 1e3;
    println!("{} rounds; {} batches", rounds.len(), waits.len());
    // Steal is time the machine's other guests took from this one: the
    // context a reader needs to judge a slow run on a shared host.
    if let (Some(a), Some(b)) = (steal_before, stats::steal_ticks()) {
        let available = start.elapsed().as_secs_f64() * 100.0 * stats::nproc() as f64;
        println!(
            "cpu steal during measured rounds: {:.1}% (at 100 ticks/s)",
            (b - a) as f64 / available * 100.0
        );
    }
    // The gated tail is p95: on a shared 2-core machine p99 falls where
    // the wait distribution switches from queue pops to scheduler
    // delays and moves by a fifth between runs. Deeper tails are
    // printed with the number of batches beyond them.
    for q in [0.99, 0.999] {
        println!(
            "batch wait p{}: {:.1} us ({} batches beyond)",
            q * 100.0,
            wait_us(q),
            waits.len() - (waits.len() as f64 * q).ceil() as usize
        );
    }
    let sps: Vec<f64> = rounds.iter().map(Round::samples_per_s).collect();
    let setup: Vec<f64> = rounds.iter().map(Round::setup_s).collect();
    let metrics = vec![
        metric("samples_per_s", stats::median(&sps), "samples/s"),
        metric("batch_wait_p50_us", wait_us(0.50), "us"),
        metric("batch_wait_p95_us", wait_us(0.95), "us"),
        metric("setup_s", stats::median(&setup), "s"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
    ];
    (metrics, attempted, failed)
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that cannot be
            // computed reads 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
