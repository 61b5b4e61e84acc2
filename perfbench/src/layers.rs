//! Per-layer probes: each times one public function of one layer in a
//! loop, at 1 and `nproc` threads, on the workload's own samples. Every
//! result is kept and checked after the timed loop, so checking costs
//! no measured time; a wrong result counts as a failure.

use crate::stats::{nproc, quartiles};
use crate::workload::{Inputs, RANKS};
use crate::{metric, Metric};
use bytes::Bytes;
use nopfs_clairvoyance::engine::SetupPass;
use nopfs_core::{ElasticJob, JobConfig};
use nopfs_net::{cluster, NetConfig};
use nopfs_obs::{ObsCtx, Registry};
use nopfs_pfs::Pfs;
use nopfs_policy::fault::{elastic_global_stream, CloudFaults, FaultPlan, ReadErrors};
use nopfs_policy::PolicyId;
use nopfs_simulator::{run_elastic, CloudResilience, CloudSpec, Scenario};
use nopfs_storage::{
    BreakerConfig, DataSource, HedgeConfig, MemoryBackend, PromotePolicy, ReorderStage,
    ResilienceConfig, ResilientSource, RetryPolicy, StagingBuffer, TierStack,
};
use nopfs_util::rng::mix64;
use nopfs_util::timing::TimeScale;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Timed rounds per probe; the median and IQR are over rounds.
const ROUNDS: usize = 15;
/// Distinct resident samples the hot-structure probes cycle through.
const RESIDENT: u64 = 4_096;
/// Ids per vectored `read_many` call (the runtime's fill chunk).
const MANY: usize = 16;

/// Failures seen by the probes, and the checks they made.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Per-op nanoseconds of each round, reported as median and IQR.
fn push_dist(out: &mut Vec<Metric>, name: &str, per_op: &[f64], unit: &'static str) {
    let (q1, med, q3) = quartiles(per_op);
    out.push(metric(name, med, unit));
    out.push(metric(format!("{name}.iqr"), q3 - q1, unit));
}

/// Runs `op(thread, i)` for `i in 0..ops` on each of `threads` threads
/// released together, [`ROUNDS`] times. Returns each round's mean
/// per-op wall time in ns (per thread: a flat curve across thread
/// counts means perfect scaling) and checks every result with `check`
/// after the round.
fn per_op<T: Send>(
    threads: usize,
    ops: usize,
    checks: &mut Checks,
    op: impl Fn(usize, usize) -> T + Sync,
    check: impl Fn(usize, usize, &T) -> bool + Sync,
) -> Vec<f64> {
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let barrier = Barrier::new(threads);
        let results: Vec<(f64, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (op, check, barrier) = (&op, &check, &barrier);
                    s.spawn(move || {
                        let mut out = Vec::with_capacity(ops);
                        barrier.wait();
                        let t0 = Instant::now();
                        for i in 0..ops {
                            out.push(op(t, black_box(i)));
                        }
                        let ns = t0.elapsed().as_nanos() as f64 / ops as f64;
                        let bad = out
                            .iter()
                            .enumerate()
                            .filter(|(i, r)| !check(t, *i, r))
                            .count() as u64;
                        (ns, ops as u64, bad)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        for &(_, n, bad) in &results {
            checks.attempted += n;
            checks.failed += bad;
        }
        rounds.push(results.iter().map(|r| r.0).sum::<f64>() / threads as f64);
    }
    rounds
}

/// The `i`-th id of thread `t`'s pseudo-random walk over `0..n`.
fn walk(t: usize, i: usize, n: u64) -> u64 {
    mix64(t as u64, i as u64) % n
}

/// A hot two-tier stack: every resident sample pinned in a RAM tier
/// over an in-memory origin, counters in `registry`.
fn hot_stack(inputs: &Inputs, registry: &Registry) -> TierStack {
    let cap = u64::MAX / 4;
    let ram: Arc<dyn DataSource> = Arc::new(MemoryBackend::new("ram", cap));
    let origin = Arc::new(MemoryBackend::new("origin", cap));
    for id in 0..resident(inputs) {
        DataSource::write(origin.as_ref(), id, inputs.originals[id as usize].clone())
            .expect("unbounded origin");
    }
    let stack = TierStack::new_in_registry(vec![ram, origin], PromotePolicy::Never, registry);
    for id in 0..resident(inputs) {
        stack
            .fill(0, id, inputs.originals[id as usize].clone())
            .expect("unbounded RAM tier");
    }
    stack
}

fn resident(inputs: &Inputs) -> u64 {
    RESIDENT.min(inputs.sizes.len() as u64)
}

/// Every probe, in layer order.
pub fn probes(inputs: &Inputs, out: &mut Vec<Metric>, checks: &mut Checks) {
    let n = resident(inputs);
    let orig = &inputs.originals;
    let tn = nproc();
    // Ops per thread per round, scaled so a round of the cheapest
    // probes takes milliseconds at the workload's sample size.
    let ops = 20_000;

    clairvoyance(inputs, out, checks);

    // storage: TierStack on a hot RAM tier, noop vs active registry.
    let mut read_t1 = [0.0; 2];
    for (k, (label, registry)) in [("noop", Registry::noop()), ("active", Registry::new())]
        .into_iter()
        .enumerate()
    {
        let stack = hot_stack(inputs, &registry);
        for (tag, threads) in [("t1", 1), ("tn", tn)] {
            let per = per_op(
                threads,
                ops,
                checks,
                |t, i| stack.read(walk(t, i, n)),
                |t, i, r| r.as_ref().is_ok_and(|b| *b == orig[walk(t, i, n) as usize]),
            );
            if tag == "t1" {
                read_t1[k] = quartiles(&per).1;
            }
            push_dist(
                out,
                &format!("storage.tier_read_ns.{label}.{tag}"),
                &per,
                "ns",
            );
        }
    }
    out.push(metric(
        "obs.registry_overhead_ns",
        read_t1[1] - read_t1[0],
        "ns",
    ));

    let stack = hot_stack(inputs, &Registry::new());
    let batches: Vec<Vec<u64>> = (0..ops / MANY)
        .map(|i| (0..MANY).map(|j| walk(7, i * MANY + j, n)).collect())
        .collect();
    let per = per_op(
        1,
        batches.len(),
        checks,
        |_, i| stack.read_many(&batches[i]),
        |_, i, r| {
            r.len() == MANY
                && r.iter()
                    .zip(&batches[i])
                    .all(|(b, &id)| b.as_ref().is_ok_and(|b| *b == orig[id as usize]))
        },
    );
    let per: Vec<f64> = per.iter().map(|ns| ns / MANY as f64).collect();
    push_dist(out, "storage.tier_read_many_ns", &per, "ns");

    let per = per_op(
        1,
        ops,
        checks,
        |t, i| stack.locate(walk(t, i, n)),
        |_, _, r| *r == Some(0),
    );
    push_dist(out, "storage.tier_locate_ns", &per, "ns");

    // Fill then evict ids beyond the resident set, so each op writes.
    let per = per_op(
        1,
        ops / 4,
        checks,
        |_, i| {
            let id = n + i as u64;
            let filled = stack.fill(0, id, orig[(i as u64 % n) as usize].clone());
            (filled.is_ok(), stack.evict(0, id))
        },
        |_, _, r| *r == (true, true),
    );
    push_dist(out, "storage.tier_fill_evict_ns", &per, "ns");

    staging(inputs, out, checks, ops);
    resilient(inputs, out, checks);
    pfs(inputs, out, checks, ops);
    net(inputs, out, checks);
}

fn clairvoyance(inputs: &Inputs, out: &mut Vec<Metric>, checks: &mut Checks) {
    let config = inputs.config(0, ObsCtx::new());
    let spec = config.shuffle_spec(inputs.sizes.len() as u64);
    let expected = inputs.expected(&config);
    let capacities = vec![config.system.class_capacities(); RANKS];
    let (mut pass_ms, mut place_ms) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let t0 = Instant::now();
        let arts = SetupPass::new(spec, config.epochs).run();
        pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let placement = arts.placement(&inputs.sizes, &capacities);
        place_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        checks.count(arts.shuffles_generated == config.epochs);
        for (w, want) in expected.iter().enumerate() {
            checks.count(arts.stream(w).as_slice() == want.as_slice());
            // No class is filled beyond its capacity.
            let a = placement.assignment(w);
            for (class, &cap) in capacities[w].iter().enumerate() {
                let bytes: u64 = a
                    .prefetch_order(class)
                    .iter()
                    .map(|&k| inputs.sizes[k as usize])
                    .sum();
                checks.count(bytes <= cap);
            }
        }
    }
    push_dist(out, "clairvoyance.setup_pass_ms", &pass_ms, "ms");
    push_dist(out, "clairvoyance.placement_ms", &place_ms, "ms");
}

/// Staging buffer and reorder stage: push then pop on one thread, and
/// one consumer against `nproc - 1` producers.
fn staging(inputs: &Inputs, out: &mut Vec<Metric>, checks: &mut Checks, ops: usize) {
    let n = resident(inputs);
    let orig = &inputs.originals;
    let sample = |i: usize| orig[(i as u64 % n) as usize].clone();
    let big = u64::MAX / 4;

    let buf = StagingBuffer::new(big);
    let per = per_op(
        1,
        ops,
        checks,
        |_, i| {
            buf.push(i as u64, sample(i));
            buf.pop()
        },
        |_, i, r| r.as_ref().is_some_and(|(id, _)| *id == i as u64),
    );
    push_dist(out, "storage.staging_push_pop_ns.t1", &per, "ns");

    let mut per = Vec::new();
    for _ in 0..ROUNDS {
        let buf = StagingBuffer::new(64 * inputs.workload.mean_bytes as u64);
        let producers = nproc().saturating_sub(1).max(1);
        let (ns, popped) = producer_consumer(
            producers,
            ops,
            |t, i| {
                buf.push((i * producers + t) as u64, sample(i));
            },
            || buf.pop().map(|(id, _)| id),
        );
        // Every pushed id arrives exactly once.
        let mut popped = popped;
        popped.sort_unstable();
        checks.count(popped == (0..(ops * producers) as u64).collect::<Vec<_>>());
        per.push(ns);
    }
    push_dist(out, "storage.staging_push_pop_ns.tn", &per, "ns");

    let mut per = Vec::new();
    for _ in 0..ROUNDS {
        let stage = ReorderStage::new(big);
        let t0 = Instant::now();
        let got: Vec<u64> = (0..ops)
            .map(|i| {
                stage.push(i as u64, i as u64, sample(i));
                stage.pop().map_or(u64::MAX, |(id, _)| id)
            })
            .collect();
        per.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        checks.count(got == (0..ops as u64).collect::<Vec<_>>());
    }
    push_dist(out, "storage.reorder_push_pop_ns.t1", &per, "ns");

    let mut per = Vec::new();
    for _ in 0..ROUNDS {
        let stage = ReorderStage::new(64 * inputs.workload.mean_bytes as u64);
        let producers = nproc().saturating_sub(1).max(1);
        // Producer t owns positions t, t + p, t + 2p, ...: arrivals
        // interleave out of order and the stage restores stream order.
        let (ns, popped) = producer_consumer(
            producers,
            ops,
            |t, i| {
                let pos = (i * producers + t) as u64;
                stage.push(pos, pos, sample(i));
            },
            || stage.pop().map(|(id, _)| id),
        );
        checks.count(popped == (0..(ops * producers) as u64).collect::<Vec<_>>());
        per.push(ns);
    }
    push_dist(out, "storage.reorder_push_pop_ns.tn", &per, "ns");
}

/// `producers` threads each run `push(t, i)` for `i in 0..ops` while
/// one consumer pops every item. Returns the consumer's wall ns per
/// item and the popped ids in pop order.
fn producer_consumer(
    producers: usize,
    ops: usize,
    push: impl Fn(usize, usize) + Sync,
    pop: impl Fn() -> Option<u64> + Sync,
) -> (f64, Vec<u64>) {
    let total = ops * producers;
    let barrier = Barrier::new(producers + 1);
    std::thread::scope(|s| {
        for t in 0..producers {
            let (push, barrier) = (&push, &barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..ops {
                    push(t, i);
                }
            });
        }
        let mut popped = Vec::with_capacity(total);
        barrier.wait();
        let t0 = Instant::now();
        for _ in 0..total {
            popped.push(pop().unwrap_or(u64::MAX));
        }
        (t0.elapsed().as_nanos() as f64 / total as f64, popped)
    })
}

/// Request latency floor of the cloud origin, model seconds (the
/// elastic runtime's default object store).
const CLOUD_FLOOR: f64 = 2e-3;

/// The cloud-origin resilience chain the elastic runtime builds (retry,
/// p95 hedging, breaker) over an undisturbed in-memory source.
fn cloud_resilience() -> ResilienceConfig {
    ResilienceConfig::retry_only(RetryPolicy::new(
        8,
        Duration::from_micros(100),
        1.0,
        0xC10D_0A11,
    ))
    .with_hedge(HedgeConfig::new(0.95, Duration::from_micros(200), 64))
    .with_breaker(BreakerConfig::new(4, 4.0 * CLOUD_FLOOR, 2))
}

fn resilient(inputs: &Inputs, out: &mut Vec<Metric>, checks: &mut Checks) {
    let n = resident(inputs);
    let orig = &inputs.originals;
    let mem = Arc::new(MemoryBackend::new("origin", u64::MAX / 4));
    for id in 0..n {
        DataSource::write(mem.as_ref(), id, orig[id as usize].clone()).expect("unbounded");
    }
    let source = ResilientSource::new(mem, cloud_resilience(), TimeScale::new(1.0));
    // A hedged attempt runs on its own thread, so reads cost tens of
    // microseconds: fewer ops keep the round short.
    let per = per_op(
        1,
        400,
        checks,
        |t, i| source.read(walk(t, i, n)),
        |t, i, r| r.as_ref().is_ok_and(|b| *b == orig[walk(t, i, n) as usize]),
    );
    push_dist(out, "storage.resilient_read_ns", &per, "ns");
}

fn pfs(inputs: &Inputs, out: &mut Vec<Metric>, checks: &mut Checks, ops: usize) {
    let n = resident(inputs);
    let orig = &inputs.originals;
    let sys = inputs.workload.system(inputs.total_bytes);
    // Device time collapsed: what is left is the PFS's own code path.
    let pfs = Pfs::in_memory(sys.pfs_read, TimeScale::new(1e-9));
    for id in 0..n {
        pfs.put(id, orig[id as usize].clone());
    }
    for (tag, threads) in [("t1", 1), ("tn", nproc())] {
        let per = per_op(
            threads,
            ops / 4,
            checks,
            |t, i| pfs.read(walk(t, i, n)),
            |t, i, r| r.as_ref().is_ok_and(|b| *b == orig[walk(t, i, n) as usize]),
        );
        push_dist(out, &format!("pfs.read_ns.{tag}"), &per, "ns");
    }
}

fn net(inputs: &Inputs, out: &mut Vec<Metric>, checks: &mut Checks) {
    let n = resident(inputs);
    let orig = &inputs.originals;
    let sys = inputs.workload.system(inputs.total_bytes);
    let scale = TimeScale::new(1e-9);
    let ops = 5_000;
    let mut per = Vec::new();
    for _ in 0..ROUNDS {
        let eps = cluster::<Bytes>(2, NetConfig::new(sys.interconnect, scale));
        let (ns, got) = std::thread::scope(|s| {
            let sender = &eps[0];
            s.spawn(move || {
                for i in 0..ops {
                    sender
                        .send(1, orig[(i as u64 % n) as usize].clone())
                        .expect("peer alive");
                }
            });
            let t0 = Instant::now();
            let got: Vec<_> = (0..ops).map(|_| eps[1].recv()).collect();
            (t0.elapsed().as_nanos() as f64 / ops as f64, got)
        });
        for (i, r) in got.iter().enumerate() {
            checks.count(
                r.as_ref()
                    .is_ok_and(|e| e.from == 0 && e.msg == orig[(i as u64 % n) as usize]),
            );
        }
        per.push(ns);
    }
    push_dist(out, "net.send_recv_ns", &per, "ns");

    let ops = 500;
    let mut per = Vec::new();
    for _ in 0..ROUNDS {
        let eps = cluster::<u64>(2, NetConfig::new(sys.interconnect, scale));
        let barrier = Barrier::new(2);
        let times: Vec<f64> = std::thread::scope(|s| {
            let hs: Vec<_> = eps
                .iter()
                .map(|ep| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut ok = true;
                        barrier.wait();
                        let t0 = Instant::now();
                        for i in 0..ops as u64 {
                            let all = ep.allgather(i * 2 + ep.rank() as u64);
                            ok &= all == Ok(vec![i * 2, i * 2 + 1]);
                        }
                        (t0.elapsed().as_secs_f64() * 1e6 / ops as f64, ok)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| {
                    let (us, ok) = h.join().expect("allgather thread");
                    checks.count(ok);
                    us
                })
                .collect()
        });
        per.push(times.iter().sum::<f64>() / times.len() as f64);
    }
    push_dist(out, "net.allgather_us", &per, "us");
}

/// The cloud-recovery run: `ElasticJob::run` with a cloud origin under
/// a whole-run brownout, tail spikes, throttle bursts and transient
/// read errors, and rank 1 crashing at step 20 of epoch 1. Its global
/// stream must equal the policy layer's prediction for the plan, as
/// must the simulator's, which also predicts the run's wall time.
pub fn elastic(inputs_seed: u64, out: &mut Vec<Metric>, checks: &mut Checks) {
    let profile = nopfs_datasets::DatasetProfile::new(
        "cloud_recovery",
        4_096,
        8_192.0,
        0.0,
        10,
        mix64(inputs_seed, 0xC10D),
    );
    let sizes = Arc::new(profile.sizes());
    let total: u64 = sizes.iter().sum();
    let mut sys = nopfs_perfmodel::presets::fig8_small_cluster();
    sys.workers = RANKS;
    sys.staging.threads = 2;
    sys.staging.capacity = 256 * 8_192;
    sys.classes[0].capacity = total / 8;
    sys.classes[1].capacity = total / 8;
    let seed = mix64(inputs_seed, 0xE1A5);
    let epochs = 3;
    let config = JobConfig::new(seed, epochs, 16, sys.clone(), TimeScale::new(0.1)).drop_last(true);
    let cloud = CloudFaults {
        spike_rate: 0.05,
        spike_factor: 6.0,
        throttle_rate: 0.05,
        throttle_burst: 2,
        retry_after: 1e-4,
        ..CloudFaults::none(mix64(seed, 1))
    }
    .brownout(0.0, 1e12, 3.0, 0.2);
    let plan = FaultPlan::fault_free()
        .crash(1, 20, 1)
        .with_read_errors(ReadErrors {
            rate: 0.02,
            max_burst: 2,
            seed: mix64(seed, 2),
        })
        .with_cloud(cloud.clone());
    let spec = config.shuffle_spec(sizes.len() as u64);
    let want = elastic_global_stream(PolicyId::NoPfs, &sys, &sizes, &spec, epochs, &plan)
        .expect("NoPFS supports the plan");
    let mut scenario = Scenario::new(
        "cloud_recovery",
        sys.clone(),
        sizes.to_vec(),
        epochs,
        config.batch_size,
        seed,
    )
    .with_cloud(CloudSpec::new(
        CLOUD_FLOOR,
        sys.pfs_read.clone(),
        cloud,
        CloudResilience::hardened(CLOUD_FLOOR),
    ));
    scenario.drop_last = config.drop_last;
    let scale = config.scale;
    let ts = Instant::now();
    let sim = run_elastic(&scenario, PolicyId::NoPfs, &plan).expect("NoPFS simulates the plan");
    let sim_ms = ts.elapsed().as_secs_f64() * 1e3;
    checks.count(sim.global_stream() == want);

    let job = ElasticJob::new(config, Arc::clone(&sizes), plan).expect("valid plan");
    let pfs = job.make_pfs();
    profile.materialize(&pfs);
    let report = job.run(&pfs);

    for (i, &id) in want.iter().enumerate() {
        checks.count(report.global_stream.get(i) == Some(&id));
    }
    checks.failed += report.global_stream.len().saturating_sub(want.len()) as u64;
    let r = &report.resilience;
    let wall = report.elapsed.as_secs_f64();
    out.extend([
        metric(
            "core.elastic_samples_per_s",
            report.global_stream.len() as f64 / wall,
            "samples/s",
        ),
        metric(
            "core.elastic_setup_ms",
            report.setup.setup_time.as_secs_f64() * 1e3,
            "ms",
        ),
        metric(
            "core.recovery_ms",
            report.recovery_time.as_secs_f64() * 1e3,
            "ms",
        ),
        metric("core.recoveries", report.recoveries as f64, "count"),
        metric("core.replans", report.replans as f64, "count"),
        metric("storage.resilience.retries", r.retries as f64, "count"),
        metric("storage.resilience.exhausted", r.exhausted as f64, "count"),
        metric(
            "storage.resilience.hedges_fired",
            r.hedges_fired as f64,
            "count",
        ),
        metric(
            "storage.resilience.hedge_win_ratio",
            r.hedges_won as f64 / r.hedges_fired.max(1) as f64,
            "ratio",
        ),
        metric("storage.resilience.throttled", r.throttled as f64, "count"),
        metric(
            "storage.resilience.breaker_to_open",
            r.breaker_to_open as f64,
            "count",
        ),
        metric("simulator.elastic_predicted_s", sim.execution_time, "s"),
        metric("simulator.elastic_run_ms", sim_ms, "ms"),
        metric(
            "elastic_model_gap",
            wall / scale.to_wall(sim.execution_time).as_secs_f64(),
            "ratio",
        ),
    ]);
}
