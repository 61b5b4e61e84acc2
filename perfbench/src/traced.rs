//! The per-layer run (`--trace 1`): the layer probes, then untraced
//! and traced rounds of the workload in alternation, the simulator's
//! prediction for the same scenario, and the cloud-recovery run.
//!
//! Traced rounds run under `ObsCtx::traced()`; the benchmark adds its
//! own spans (`bench.job_new`, `bench.launch`, `bench.next_batch`,
//! `bench.compute`, `bench.verify`), the consumer-side ones tagged with
//! the rank. A layer's self time is its span's duration minus the part
//! covered by child spans on the same thread.

use crate::layers::{self, Checks};
use crate::stats::median;
use crate::workload::{self, Inputs, Round};
use crate::{metric, Metric};
use nopfs_core::WorkerStats;
use nopfs_obs::trace::TraceEvent;
use nopfs_obs::{names, ObsCtx};
use nopfs_policy::PolicyId;
use nopfs_simulator::scenario::Scenario;
use nopfs_storage::TierStats;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Untraced/traced round pairs a run makes at least.
const MIN_PAIRS: usize = 2;

pub fn run(inputs: &Inputs, budget: Duration) -> (Vec<Metric>, u64, u64) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut checks = Checks::default();
    layers::probes(inputs, &mut out, &mut checks);
    layers::elastic(inputs.seed, &mut out, &mut checks);

    let mut record = |r: &Round| {
        checks.attempted += r.expected;
        checks.failed += r.errors;
    };
    record(&workload::run_round(inputs, 0, &ObsCtx::new()));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut round = 1;
    while plain.len() < MIN_PAIRS || start.elapsed() < budget {
        let p = workload::run_round(inputs, round, &ObsCtx::new());
        record(&p);
        plain.push(p);
        let obs = ObsCtx::traced();
        let pfs_before = inputs.pfs.stats();
        let t = workload::run_round(inputs, round + 1, &obs);
        record(&t);
        let pfs_after = inputs.pfs.stats();
        traced.push(t.samples_per_s());
        last = Some((t, obs, pfs_after.reads - pfs_before.reads, {
            pfs_after.bytes_read - pfs_before.bytes_read
        }));
        round += 2;
    }
    let (t, obs, pfs_reads, pfs_bytes) = last.expect("at least one traced round");
    let plain_sps: Vec<f64> = plain.iter().map(Round::samples_per_s).collect();
    let plain_wall: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();

    out.push(metric(
        "clairvoyance.shuffle_generations",
        t.shuffle_generations as f64,
        "count",
    ));
    worker_metrics(&t.stats, &mut out);
    tier_metrics(&t.tiers, &mut out);
    out.push(metric(
        "storage.staging.max_used_bytes",
        t.staging_max_bytes as f64,
        "bytes",
    ));
    out.push(metric("pfs.reads", pfs_reads as f64, "count"));
    out.push(metric("pfs.bytes_read", pfs_bytes as f64, "bytes"));
    span_metrics(&obs.tracer.export(), &mut out);
    out.push(metric(
        "obs.trace_dropped",
        obs.tracer.dropped() as f64,
        "count",
    ));
    out.push(metric(
        "obs.trace_overhead",
        1.0 - median(&traced) / median(&plain_sps),
        "fraction",
    ));

    let w = &inputs.workload;
    let config = inputs.config(round, ObsCtx::new());
    let mut scenario = Scenario::new(
        w.name,
        config.system.clone(),
        inputs.sizes.to_vec(),
        config.epochs,
        config.batch_size,
        config.seed,
    );
    scenario.drop_last = config.drop_last;
    let ts = Instant::now();
    let sim = nopfs_simulator::run(&scenario, PolicyId::NoPfs).expect("NoPFS simulates");
    let sim_ms = ts.elapsed().as_secs_f64() * 1e3;
    let predicted_wall = config.scale.to_wall(sim.execution_time).as_secs_f64();
    out.push(metric("simulator.predicted_s", sim.execution_time, "s"));
    out.push(metric("simulator.run_ms", sim_ms, "ms"));
    out.push(metric(
        "model_gap",
        median(&plain_wall) / predicted_wall,
        "ratio",
    ));
    println!(
        "{} untraced and {} traced rounds; simulator predicts {:.6} model s = {:.6} wall s",
        plain.len(),
        traced.len(),
        sim.execution_time,
        predicted_wall
    );
    (out, checks.attempted, checks.failed)
}

fn worker_metrics(stats: &[WorkerStats], out: &mut Vec<Metric>) {
    let mut m = WorkerStats::default();
    for s in stats {
        m.merge(s);
    }
    out.extend([
        metric("core.stall_s", m.stall_time.as_secs_f64(), "s"),
        metric("core.fetch_local", m.local_fetches as f64, "count"),
        metric("core.fetch_remote", m.remote_fetches as f64, "count"),
        metric("core.fetch_pfs", m.pfs_fetches as f64, "count"),
        metric("core.false_positives", m.false_positives as f64, "count"),
        metric(
            "core.remote_useful_ratio",
            m.remote_fetches as f64 / (m.remote_fetches + m.false_positives).max(1) as f64,
            "ratio",
        ),
    ]);
}

/// Per-tier counters merged over ranks: the RAM and SSD class tiers.
fn tier_metrics(per_rank: &[Vec<TierStats>], out: &mut Vec<Metric>) {
    for tier in 0..2 {
        let mut m = TierStats::default();
        for ranks in per_rank {
            if let Some(s) = ranks.get(tier) {
                m.merge(s);
            }
        }
        out.extend([
            metric(
                format!("storage.tier{tier}.hit_rate"),
                m.hit_rate(),
                "ratio",
            ),
            metric(
                format!("storage.tier{tier}.promotions"),
                m.promotions as f64,
                "count",
            ),
            metric(
                format!("storage.tier{tier}.evictions"),
                m.evictions as f64,
                "count",
            ),
        ]);
    }
}

/// Self time from the traced round's spans. Consumer threads nest
/// staging-stall spans (waits over 50 µs) inside `bench.next_batch`.
fn span_metrics(events: &[TraceEvent], out: &mut Vec<Metric>) {
    let total = |name: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_us as f64)
            .fold(0.0, |a, b| a + b)
    };
    let mut stalls: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for e in events.iter().filter(|e| e.name == names::EV_STALL) {
        stalls
            .entry(e.tid)
            .or_default()
            .push((e.ts_us, e.ts_us + e.dur_us));
    }
    let (mut batches, mut self_us, mut stall_us) = (0u64, 0.0, 0.0);
    for e in events.iter().filter(|e| e.name == "bench.next_batch") {
        let (s, f) = (e.ts_us, e.ts_us + e.dur_us);
        let covered: u64 = stalls.get(&e.tid).map_or(0, |v| {
            v.iter()
                .map(|&(a, b)| b.min(f).saturating_sub(a.max(s)))
                .sum()
        });
        batches += 1;
        self_us += e.dur_us.saturating_sub(covered) as f64;
        stall_us += covered as f64;
    }
    let per_batch = |x: f64| x / batches.max(1) as f64;
    out.extend([
        metric("core.job_new_ms", total("bench.job_new") / 1e3, "ms"),
        metric("core.launch_ms", total("bench.launch") / 1e3, "ms"),
        metric("core.next_batch_self_us", per_batch(self_us), "us"),
        metric("storage.staging_stall_us", per_batch(stall_us), "us"),
        metric("bench.compute_ms", total("bench.compute") / 1e3, "ms"),
        metric("bench.verify_ms", total("bench.verify") / 1e3, "ms"),
        metric("obs.trace_events", events.len() as f64, "count"),
    ]);
}
