//! The benchmark's workloads and the end-to-end round that drives NoPFS
//! through its public entry points: `Job::new`, `Job::launch_workers`
//! and `DataLoader::next_batch`, one consumer thread per rank.

use bytes::Bytes;
use nopfs_baselines::DataLoader;
use nopfs_clairvoyance::stream::AccessStream;
use nopfs_core::{Job, JobConfig, WorkerHandle, WorkerStats};
use nopfs_datasets::DatasetProfile;
use nopfs_net::{cluster, Endpoint, NetConfig};
use nopfs_obs::{names, ObsCtx, Tracer};
use nopfs_perfmodel::presets::{fig8_small_cluster, saturating_pfs_curve};
use nopfs_perfmodel::SystemSpec;
use nopfs_pfs::Pfs;
use nopfs_storage::TierStats;
use nopfs_util::rng::mix64;
use nopfs_util::timing::TimeScale;
use nopfs_util::units::MB;
use std::sync::Arc;
use std::time::Instant;

/// Ranks per job: one process, one consumer thread per rank.
pub const RANKS: usize = 2;

/// One named benchmark input. Every field is a parameter the benchmark
/// prints, so a run's output states exactly what was measured.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Samples in the dataset (`F`).
    pub samples: u64,
    /// Mean and standard deviation of the sample size, bytes.
    pub mean_bytes: f64,
    pub std_bytes: f64,
    /// Epochs per round (`E`).
    pub epochs: u64,
    /// Per-rank batch size.
    pub batch: usize,
    /// Wall seconds per model second of every modelled device.
    pub scale: f64,
    /// Share of the dataset each rank's RAM and SSD class holds.
    pub ram_share: f64,
    pub ssd_share: f64,
    /// Peak of a saturating PFS curve (model bytes/s); `None` keeps the
    /// preset's Lassen curve.
    pub pfs_peak: Option<f64>,
    /// Modelled compute rate (model bytes/s) the consumer waits per
    /// batch; `None` for no compute step.
    pub compute: Option<f64>,
    /// Whether each step ends in a gradient allreduce across ranks.
    pub allreduce: bool,
}

/// Gradient elements in the per-step allreduce.
const GRAD_ELEMS: usize = 256;

pub fn all() -> Vec<Workload> {
    let hot = Workload {
        name: "hot_local",
        why: "each rank's RAM holds the whole dataset and device time is ~0, so staging, reorder, tier reads and obs do all the work; the middleware ceiling",
        samples: 32_768,
        mean_bytes: 4_096.0,
        std_bytes: 0.0,
        epochs: 6,
        batch: 32,
        scale: 1e-9,
        ram_share: 1.0,
        ssd_share: 0.0,
        pfs_peak: None,
        compute: None,
        allreduce: false,
    };
    vec![
        hot.clone(),
        Workload {
            name: "hot_shared",
            why: "as hot_local but each rank's RAM holds half the dataset, so fetches cross net to the peer or go to the PFS; isolates the remote path",
            ram_share: 0.5,
            epochs: 4,
            ..hot
        },
        Workload {
            name: "spill_modelled",
            why: "RAM and SSD each hold a quarter of the data over a contended 60 MB/s PFS with modelled devices; hot-path changes should not move it",
            samples: 4_096,
            mean_bytes: 32_000.0,
            std_bytes: 8_000.0,
            epochs: 3,
            batch: 16,
            scale: 0.5,
            ram_share: 0.25,
            ssd_share: 0.25,
            pfs_peak: Some(60.0 * MB),
            compute: Some(64.0 * MB),
            allreduce: true,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    pub fn time_scale(&self) -> TimeScale {
        TimeScale::new(self.scale)
    }

    /// The seeded synthetic dataset.
    pub fn profile(&self, seed: u64) -> DatasetProfile {
        DatasetProfile::new(
            self.name,
            self.samples,
            self.mean_bytes,
            self.std_bytes,
            10,
            mix64(seed, 0xDA7A),
        )
    }

    /// The modelled 2-rank system, capacities sized from the dataset.
    pub fn system(&self, total_bytes: u64) -> SystemSpec {
        let mut sys = fig8_small_cluster();
        sys.workers = RANKS;
        sys.staging.threads = 2;
        sys.staging.capacity = (256.0 * self.mean_bytes) as u64;
        sys.classes[0].capacity = (self.ram_share * total_bytes as f64).ceil() as u64;
        sys.classes[1].capacity = (self.ssd_share * total_bytes as f64).ceil() as u64;
        if let Some(peak) = self.pfs_peak {
            sys.pfs_read = saturating_pfs_curve(peak, 8.0);
        }
        // Without a compute step the simulator must not model one either.
        sys.compute = self.compute.unwrap_or(1e15);
        sys
    }
}

/// A workload's generated inputs, shared by every round of a run.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub profile: DatasetProfile,
    pub sizes: Arc<Vec<u64>>,
    pub total_bytes: u64,
    /// The bytes written to the PFS, kept to compare deliveries with.
    pub originals: Vec<Bytes>,
    pub pfs: Pfs,
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Self {
        let profile = workload.profile(seed);
        let sizes = profile.sizes();
        let total_bytes = sizes.iter().sum();
        let originals: Vec<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(id, &s)| profile.sample_bytes(id as u64, s))
            .collect();
        let sys = workload.system(total_bytes);
        let pfs = Pfs::in_memory(sys.pfs_read, workload.time_scale());
        for (id, data) in originals.iter().enumerate() {
            pfs.put(id as u64, data.clone());
        }
        Self {
            workload: workload.clone(),
            seed,
            profile,
            sizes: Arc::new(sizes),
            total_bytes,
            originals,
            pfs,
        }
    }

    /// The job of round `round`. Every round draws its own shuffle seed,
    /// so a run's medians span several access streams and placements.
    /// `drop_last` keeps both ranks' batch counts equal, which the
    /// per-step allreduce needs.
    pub fn config(&self, round: u64, obs: ObsCtx) -> JobConfig {
        let w = &self.workload;
        JobConfig::new(
            mix64(mix64(self.seed, 0x5EED), round),
            w.epochs,
            w.batch,
            w.system(self.total_bytes),
            w.time_scale(),
        )
        .drop_last(true)
        .with_obs(obs)
    }

    /// Each rank's id sequence for `config`, recomputed independently
    /// of the job through the clairvoyance `AccessStream` API.
    pub fn expected(&self, config: &JobConfig) -> Vec<Vec<u64>> {
        let spec = config.shuffle_spec(self.sizes.len() as u64);
        (0..RANKS)
            .map(|w| AccessStream::new(spec, w, config.epochs).materialize())
            .collect()
    }
}

/// What one round measured.
pub struct Round {
    /// `Job::new` wall time.
    pub job_new_s: f64,
    /// `launch_workers` wall time (until every rank is ready).
    pub launch_s: f64,
    /// From the end of setup to the last delivered sample.
    pub wall_s: f64,
    pub delivered: u64,
    pub expected: u64,
    /// Samples missing, corrupt, or out of the predicted order.
    pub errors: u64,
    /// Time inside each `next_batch` call, pooled over ranks, ns.
    pub waits_ns: Vec<u64>,
    pub shuffle_generations: u64,
    pub stats: Vec<WorkerStats>,
    pub tiers: Vec<Vec<TierStats>>,
    /// Largest staging occupancy seen at batch boundaries, any rank.
    pub staging_max_bytes: u64,
}

impl Round {
    pub fn setup_s(&self) -> f64 {
        self.job_new_s + self.launch_s
    }

    pub fn samples_per_s(&self) -> f64 {
        self.delivered as f64 / self.wall_s
    }
}

/// What one rank's consumer thread brings back.
struct Consumed {
    waits_ns: Vec<u64>,
    got: Vec<(u64, Bytes)>,
    end: Instant,
    stats: WorkerStats,
    tiers: Vec<TierStats>,
    staging_max_bytes: u64,
}

/// One round: set up a fresh job, consume every epoch on one thread per
/// rank, then verify every delivered sample outside the timed region.
/// `obs` is the job's observability context; when its tracer is active
/// the benchmark adds its own spans, tagged with the rank.
pub fn run_round(inputs: &Inputs, round: u64, obs: &ObsCtx) -> Round {
    let w = &inputs.workload;
    let tracer = &obs.tracer;
    let config = inputs.config(round, obs.clone());
    let expected = inputs.expected(&config);
    let scale = config.scale;
    let interconnect = config.system.interconnect;

    let t0 = Instant::now();
    let job = Job::new(config, Arc::clone(&inputs.sizes));
    tracer.complete("bench.job_new", "bench", t0, vec![]);
    let t1 = Instant::now();
    let mut handles = job.launch_workers(&inputs.pfs);
    tracer.complete("bench.launch", "bench", t1, vec![]);
    let ready = Instant::now();
    let shuffle_generations = job.setup_stats().shuffle_generations;

    let grad: Vec<Option<Endpoint<Vec<f32>>>> = if w.allreduce {
        cluster::<Vec<f32>>(RANKS, NetConfig::new(interconnect, scale))
            .into_iter()
            .map(Some)
            .collect()
    } else {
        (0..RANKS).map(|_| None).collect()
    };
    let consumed: Vec<Consumed> = std::thread::scope(|s| {
        let threads: Vec<_> = handles
            .iter_mut()
            .zip(grad)
            .map(|(h, ep)| s.spawn(move || consume(h, ep.as_ref(), w, obs)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("consumer thread panicked"))
            .collect()
    });
    let end = consumed.iter().map(|c| c.end).max().expect("two ranks");

    let mut errors = 0;
    let mut delivered = 0;
    for (rank, c) in consumed.iter().enumerate() {
        let tv = Instant::now();
        errors += verify(inputs, &expected[rank], &c.got);
        tracer.complete("bench.verify", "bench", tv, vec![("rank", rank.into())]);
        delivered += c.got.len() as u64;
    }
    let waits_ns = consumed
        .iter()
        .flat_map(|c| c.waits_ns.iter().copied())
        .collect();
    Round {
        job_new_s: (t1 - t0).as_secs_f64(),
        launch_s: (ready - t1).as_secs_f64(),
        wall_s: (end - ready).as_secs_f64(),
        delivered,
        expected: expected.iter().map(|e| e.len() as u64).sum(),
        errors,
        waits_ns,
        shuffle_generations,
        staging_max_bytes: consumed
            .iter()
            .map(|c| c.staging_max_bytes)
            .max()
            .unwrap_or(0),
        stats: consumed.iter().map(|c| c.stats.clone()).collect(),
        tiers: consumed.into_iter().map(|c| c.tiers).collect(),
    }
}

/// The training loop of one rank: wait for a batch, model the compute
/// step, synchronize. Delivered samples are kept (cheap `Bytes` handles)
/// and checked after the round, so checking costs no loop time.
fn consume(
    h: &mut WorkerHandle,
    grad: Option<&Endpoint<Vec<f32>>>,
    w: &Workload,
    obs: &ObsCtx,
) -> Consumed {
    let tracer: &Tracer = &obs.tracer;
    let rank = h.rank();
    let staging = tracer.is_active().then(|| {
        obs.registry
            .scoped([("rank", rank.to_string())])
            .gauge(names::STAGING_USED_BYTES)
    });
    let mut staging_max_bytes = 0;
    let mut waits_ns = Vec::with_capacity((h.len() as usize).div_ceil(w.batch));
    let mut got = Vec::with_capacity(h.len() as usize);
    let mut grad_buf = vec![0.0f32; GRAD_ELEMS];
    let mut end = Instant::now();
    loop {
        let t = Instant::now();
        let Some(batch) = DataLoader::next_batch(h) else {
            break;
        };
        waits_ns.push(t.elapsed().as_nanos() as u64);
        tracer.complete("bench.next_batch", "bench", t, vec![("rank", rank.into())]);
        if let Some(g) = &staging {
            staging_max_bytes = staging_max_bytes.max(g.get());
        }
        if let Some(rate) = w.compute {
            let tc = Instant::now();
            let bytes: usize = batch.iter().map(|(_, d)| d.len()).sum();
            w.time_scale().wait(bytes as f64 / rate);
            tracer.complete("bench.compute", "bench", tc, vec![("rank", rank.into())]);
        }
        if let Some(ep) = grad {
            ep.allreduce_sum(&mut grad_buf).expect("gradient allreduce");
        }
        got.extend(batch);
        end = Instant::now();
    }
    let stats = h.stats();
    let tiers = h.tier_stats();
    // Every rank shuts down concurrently (shutdown barriers the ranks).
    DataLoader::shutdown(h);
    Consumed {
        waits_ns,
        got,
        end,
        stats,
        tiers,
        staging_max_bytes,
    }
}

/// Counts the positions of a rank's predicted sequence that were not
/// delivered exactly: missing, a different id, wrong bytes, or failing
/// `DatasetProfile::decode`. Deliveries beyond the sequence count too.
fn verify(inputs: &Inputs, expected: &[u64], got: &[(u64, Bytes)]) -> u64 {
    let mut errors = got.len().saturating_sub(expected.len()) as u64;
    for (i, &want) in expected.iter().enumerate() {
        let ok = got.get(i).is_some_and(|(id, data)| {
            *id == want
                && *data == inputs.originals[want as usize]
                && inputs.profile.decode(data).map(|(d, _)| d) == Ok(want)
        });
        if !ok {
            errors += 1;
        }
    }
    errors
}
