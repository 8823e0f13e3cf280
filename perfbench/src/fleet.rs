//! `fleet-mixed`: the supervised service draining a closed batch of 48
//! seeded jobs (cavity, channel, Taylor–Green and shear layer at
//! 8^3 and 12^3, [`JOB_STEPS`] steps each), all submitted before
//! `Server::run`, over 2 workers x 1 thread with 2-step slices, metrics
//! on, and a 3-deep checkpoint ring per job.
//!
//! Every class appears [`JOBS_PER_CLASS`] times: the seed picks the
//! submission order of same-class pairs, never the total work, so
//! throughput is comparable across seeds.  Each timed drain takes its own
//! order from the seed's stream, so a run averages over several orders.

use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats::{median, percentile};
use lv_driver::{CheckpointRing, Scenario, ScenarioKind, SimState, Stepper};
use lv_runtime::Team;
use lv_server::{replay_readonly, EventKind, JobSpec, JobStatus, Record, Server, ServerConfig};
use lv_trace::metrics::{HistogramData, MetricData, MetricsSnapshot};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Steps every job runs.
const JOB_STEPS: u64 = 6;
/// Jobs of each (scenario, size) class.
const JOBS_PER_CLASS: usize = 6;
const SIZES: [usize; 2] = [8, 12];
/// Jobs per drain.
#[cfg(test)]
const JOBS: usize = JOBS_PER_CLASS * ScenarioKind::ALL.len() * SIZES.len();
const WORKERS: usize = 2;
const SLICE_STEPS: u64 = 2;
const RING_DEPTH: usize = 3;
/// `Server::open` + submit measurements before each timed drain, so the
/// setup samples spread over the run instead of one burst of fsyncs.
const SETUPS_PER_DRAIN: usize = 5;
const MIN_DRAINS: usize = 6;
const REPLAYS: usize = 5;
const CHECKPOINT_REPEATS: usize = 5;
const SMALL_STEPS: usize = 20;

/// The seeded batch: each class [`JOBS_PER_CLASS`] times, submitted in
/// same-class pairs (one job per worker) whose order the seed picks.  A
/// pair usually runs on both workers together, which keeps the drain's
/// tail and its peak memory (two of the largest jobs at once) from
/// depending much on the order.
pub fn mix(seed: u64) -> Vec<JobSpec> {
    let mut pairs: Vec<(ScenarioKind, usize)> = ScenarioKind::ALL
        .iter()
        .flat_map(|&kind| SIZES.iter().map(move |&n| (kind, n)))
        .flat_map(|class| std::iter::repeat_n(class, JOBS_PER_CLASS / WORKERS))
        .collect();
    SplitMix64::new(seed).shuffle(&mut pairs);
    pairs
        .into_iter()
        .flat_map(|class| std::iter::repeat_n(class, WORKERS))
        .enumerate()
        .map(|(i, (kind, n))| {
            JobSpec::new(
                format!("job{i:02}-{}-{n}", kind.name()),
                Scenario::new(kind, n),
                JOB_STEPS,
            )
        })
        .collect()
}

fn server_config(dir: &Path, traced: bool) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        threads_per_worker: 1,
        slice_steps: SLICE_STEPS,
        checkpoint_dir: dir.join("ckpt"),
        ring_depth: RING_DEPTH,
        metrics: true,
        traced,
        ..ServerConfig::default()
    }
}

fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

/// A (scenario, size) class of jobs.
type Class = (ScenarioKind, usize);

fn class(spec: &JobSpec) -> Class {
    (spec.scenario.kind, spec.scenario.resolution)
}

/// The final state of each class, run on one team outside the service.
struct Oracle {
    /// (class, its scenario, its expected final state).
    classes: Vec<(Class, Scenario, SimState)>,
}

impl Oracle {
    fn new(specs: &[JobSpec], config: &ServerConfig) -> Result<Oracle, String> {
        let team = Team::new(2);
        let mut classes: Vec<(Class, Scenario, SimState)> = Vec::new();
        for spec in specs {
            if classes.iter().any(|(c, _, _)| *c == class(spec)) {
                continue;
            }
            let mut stepper = Stepper::new(spec.scenario.clone(), config.stepper_config());
            stepper
                .run_on(&team, JOB_STEPS as usize)
                .map_err(|e| format!("oracle {}: {e}", spec.id))?;
            classes.push((class(spec), spec.scenario.clone(), stepper.state().clone()));
        }
        Ok(Oracle { classes })
    }
}

/// The warm-up batch: the first same-class pair of every class.
fn warmup_mix(specs: &[JobSpec]) -> Vec<JobSpec> {
    let mut seen = Vec::new();
    let mut warmup = Vec::new();
    for pair in specs.chunks(WORKERS) {
        if !seen.contains(&class(&pair[0])) {
            seen.push(class(&pair[0]));
            warmup.extend_from_slice(pair);
        }
    }
    warmup
}

/// What one drain measured.
struct Drain {
    wall_s: f64,
    turnaround_s: Vec<f64>,
    /// (resolution, service ms per step) of every job.
    step_ms: Vec<(usize, f64)>,
    snapshot: MetricsSnapshot,
    dir: PathBuf,
}

/// Opens a fresh service in `dir` and submits `specs`; returns the server
/// and the seconds it took.
fn open_and_submit(dir: &Path, specs: &[JobSpec], traced: bool) -> std::io::Result<(Server, f64)> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let start = Instant::now();
    let mut server = Server::open(dir.join("jobs.jsonl"), server_config(dir, traced))?;
    for spec in specs {
        server.submit(spec.clone())?;
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// Per-job service time per step: the `running` → end-of-slice intervals
/// of the journal, summed per job and divided by its steps, by job id.
fn step_ms_per_job(records: &[Record]) -> Vec<(String, f64)> {
    let mut open: HashMap<&str, u64> = HashMap::new();
    let mut busy: HashMap<&str, u64> = HashMap::new();
    for record in records {
        let Some(at) = record.at_ms else { continue };
        match record.event {
            EventKind::Running => {
                open.insert(&record.job, at);
            }
            EventKind::Preempted | EventKind::Done | EventKind::Retrying | EventKind::Failed => {
                if let Some(began) = open.remove(record.job.as_str()) {
                    *busy.entry(&record.job).or_default() += at.saturating_sub(began);
                }
            }
            _ => {}
        }
    }
    let mut per_job: Vec<(String, f64)> =
        busy.into_iter().map(|(job, ms)| (job.to_string(), ms as f64 / JOB_STEPS as f64)).collect();
    per_job.sort_by(|a, b| a.0.cmp(&b.0));
    per_job
}

/// The typical step time of a fleet with two job sizes: the geometric mean
/// of the per-size medians of `(resolution, ms)` samples.  A median over
/// both sizes would fall in the gap between them, half-way between the
/// slowest small job and the fastest large one.
fn typical_step_ms(samples: &[(usize, f64)]) -> f64 {
    let log_sum: f64 = SIZES
        .iter()
        .map(|&n| {
            let of_size: Vec<f64> =
                samples.iter().filter(|(size, _)| *size == n).map(|&(_, ms)| ms).collect();
            if of_size.is_empty() {
                f64::NAN
            } else {
                median(&of_size).ln()
            }
        })
        .sum();
    (log_sum / SIZES.len() as f64).exp()
}

fn same_checkpoint(ring: &CheckpointRing, expected: &SimState) -> bool {
    let Ok(recovery) = ring.load_latest() else { return false };
    let ck = recovery.checkpoint;
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    ck.step == expected.step
        && ck.time.to_bits() == expected.time.to_bits()
        && bits(&ck.velocity, expected.velocity.as_slice())
        && bits(&ck.pressure, expected.pressure.as_slice())
}

/// Drains `specs` through a fresh service in `dir` and checks the outcome.
fn drain(
    dir: &Path,
    specs: &[JobSpec],
    traced: bool,
    oracle: &Oracle,
    report: &mut Report,
) -> Option<Drain> {
    let (mut server, _) = match open_and_submit(dir, specs, traced) {
        Ok(opened) => opened,
        Err(e) => {
            report.check(false, &format!("fleet-mixed: open and submit: {e}"));
            return None;
        }
    };
    let run_start_ms = unix_ms();
    let start = Instant::now();
    let summary = server.run();
    let wall_s = start.elapsed().as_secs_f64();

    let done = server.jobs().iter().filter(|j| matches!(j.status, JobStatus::Done { .. })).count();
    report.count(specs.len() as u64, (specs.len() - done) as u64, "fleet-mixed jobs done");
    report.check(summary.all_done(), "fleet-mixed: the drain finishes every job");
    let records = match replay_readonly(&dir.join("jobs.jsonl")) {
        Ok(replay) => replay.records,
        Err(e) => {
            report.check(false, &format!("fleet-mixed: journal replay: {e}"));
            return None;
        }
    };
    let turnaround_s: Vec<f64> = records
        .iter()
        .filter(|r| r.event == EventKind::Done)
        .filter_map(|r| r.at_ms)
        .map(|at| at.saturating_sub(run_start_ms) as f64 / 1e3)
        .collect();
    report.check(turnaround_s.len() == specs.len(), "fleet-mixed: one done record per job");
    let step_ms: Vec<(usize, f64)> = step_ms_per_job(&records)
        .into_iter()
        .filter_map(|(id, ms)| {
            specs.iter().find(|s| s.id == id).map(|s| (s.scenario.resolution, ms))
        })
        .collect();
    report.check(step_ms.len() == specs.len(), "fleet-mixed: every job has slice records");
    for (oracle_class, _, expected) in &oracle.classes {
        // The first job of each class stands for the class.
        let first = specs.iter().find(|s| class(s) == *oracle_class);
        report.check(
            first.is_some_and(|spec| same_checkpoint(&server.ring(&spec.id), expected)),
            &format!("fleet-mixed: the first {oracle_class:?} job ends bitwise equal to its single-team run"),
        );
    }
    Some(Drain {
        wall_s,
        turnaround_s,
        step_ms,
        snapshot: server.metrics().snapshot(),
        dir: dir.into(),
    })
}

/// The batch in the seed's own order, its oracle, and an untimed warm-up
/// drain: the first drain of a process runs cold (~30 % slower), so a
/// warm-up over one pair of every class comes first.
fn prepared(seed: u64, work: &Path, report: &mut Report) -> Option<(Vec<JobSpec>, Oracle)> {
    let specs = mix(seed);
    let oracle = match Oracle::new(&specs, &server_config(work, false)) {
        Ok(oracle) => oracle,
        Err(e) => {
            report.check(false, &format!("fleet-mixed: {e}"));
            return None;
        }
    };
    drain(&work.join("warmup"), &warmup_mix(&specs), false, &oracle, report)?;
    Some((specs, oracle))
}

/// Runs the workload's end-to-end measurement into `report`, with its
/// files under `work`.
pub fn run(seed: u64, seconds: Duration, work: &Path, report: &mut Report) {
    if let Some((_, oracle)) = prepared(seed, work, report) {
        untraced(seed, seconds, work, &oracle, report);
    }
}

/// Times the service and driver layers into `report`, with files under
/// `work`; returns the tracing overhead (a drain with the service's own
/// trace buffers armed over a plain drain).
pub fn layers(seed: u64, work: &Path, report: &mut Report) -> Option<f64> {
    let (specs, oracle) = prepared(seed, work, report)?;
    traced(&specs, work, &oracle, report)
}

fn untraced(seed: u64, seconds: Duration, work: &Path, oracle: &Oracle, report: &mut Report) {
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut jobs_per_s = Vec::new();
    let mut turnaround_s = Vec::new();
    let mut step_ms = Vec::new();
    let mut retries = 0.0;
    let mut orders = SplitMix64::new(seed);
    let run_start = Instant::now();
    while wall_s.len() < MIN_DRAINS || run_start.elapsed() < seconds {
        // Each drain submits the batch in its own seeded order, so the
        // run's medians do not hang on the tail of a single order.
        let specs = &mix(orders.next_u64());
        for _ in 0..SETUPS_PER_DRAIN {
            let dir = work.join(format!("setup{}", setup_s.len()));
            match open_and_submit(&dir, specs, false) {
                Ok((_, seconds)) => setup_s.push(seconds),
                Err(e) => {
                    report.check(false, &format!("fleet-mixed: open and submit: {e}"));
                    return;
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = work.join(format!("drain{}", wall_s.len()));
        let Some(result) = drain(&dir, specs, false, oracle, report) else { return };
        let _ = std::fs::remove_dir_all(&dir);
        wall_s.push(result.wall_s);
        jobs_per_s.push(specs.len() as f64 / result.wall_s);
        turnaround_s.extend(result.turnaround_s);
        step_ms.extend(result.step_ms);
        retries += counter(&result.snapshot, "fleet_job_retries_total");
    }
    // Retried slices recovered, so they are not failed operations.
    report.note("slice_retries", &retries.to_string());
    let all_step_ms: Vec<f64> = step_ms.iter().map(|&(_, ms)| ms).collect();
    report.metric("setup_s", median(&setup_s), setup_s.len());
    report.metric("step_ms_p50", typical_step_ms(&step_ms), step_ms.len());
    report.metric(
        "step_ms_p90",
        percentile(&all_step_ms, 0.9).unwrap_or(f64::NAN),
        all_step_ms.len(),
    );
    report.metric("jobs_per_s", median(&jobs_per_s), jobs_per_s.len());
    report.metric("job_turnaround_s_p50", median(&turnaround_s), turnaround_s.len());
    report.metric("sweep_s", median(&wall_s), wall_s.len());
}

fn histogram<'a>(snapshot: &'a MetricsSnapshot, name: &str) -> Option<&'a HistogramData> {
    match &snapshot.metric(name)?.value {
        MetricData::Histogram(hist) => Some(hist),
        MetricData::Scalar(_) => None,
    }
}

/// Linear interpolation inside the log2 buckets of a registry histogram
/// (bucket `b` holds `[2^(b-1), 2^b)`), as Prometheus' `histogram_quantile`.
fn quantile(hist: &HistogramData, q: f64) -> f64 {
    let target = q * hist.count() as f64;
    let mut below = 0.0;
    for (b, &count) in hist.buckets.iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && below + count >= target {
            let lower = if b == 0 { 0.0 } else { (1u64 << (b - 1)) as f64 };
            let upper = (1u64 << b) as f64;
            return lower + (upper - lower) * (target - below) / count;
        }
        below += count;
    }
    f64::NAN
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.scalar(name).map_or(f64::NAN, |v| v as f64)
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn traced(specs: &[JobSpec], work: &Path, oracle: &Oracle, report: &mut Report) -> Option<f64> {
    let plain = drain(&work.join("plain"), specs, false, oracle, report)?;
    let traced = drain(&work.join("traced"), specs, true, oracle, report)?;
    let _ = std::fs::remove_dir_all(&traced.dir);
    let snapshot = &plain.snapshot;
    let jobs = specs.len();
    // (median, samples) of a service histogram, scaled from microseconds.
    let p50 = |name: &str, scale: f64| {
        histogram(snapshot, name)
            .map_or((f64::NAN, 0), |h| (quantile(h, 0.5) * scale, h.count() as usize))
    };
    let (slice_ms, slice_samples) = p50("fleet_slice_us", 1e-3);
    report.metric("server.slice_ms_p50", slice_ms, slice_samples);
    let (fsync_us, fsync_samples) = p50("fleet_journal_fsync_us", 1.0);
    report.metric("server.journal_fsync_us_p50", fsync_us, fsync_samples);
    let (wait_ms, wait_samples) = p50("fleet_queue_wait_us", 1e-3);
    report.metric("server.queue_wait_ms_p50", wait_ms, wait_samples);
    let busy_s = histogram(snapshot, "fleet_slice_us").map_or(f64::NAN, |h| h.sum as f64 / 1e6);
    report.metric("server.worker_busy_frac", busy_s / (WORKERS as f64 * plain.wall_s), 1);
    let slices = counter(snapshot, "fleet_slices_started_total");
    report.metric("server.slices", slices, 1);
    report.metric("server.preemptions", counter(snapshot, "fleet_slices_preempted_total"), 1);
    report.metric("server.retries", counter(snapshot, "fleet_job_retries_total"), 1);

    let journal = plain.dir.join("jobs.jsonl");
    let mut replay_ms = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        let start = Instant::now();
        let reopened = Server::open(&journal, server_config(&plain.dir, false));
        replay_ms.push(ms_since(start));
        let all_done = reopened.is_ok_and(|s| s.replay().done == jobs);
        if !report.check(all_done, "fleet-mixed: the finished journal replays as all done") {
            return None;
        }
    }
    report.metric("server.replay_ms", median(&replay_ms), REPLAYS);

    let mut save_ms = Vec::new();
    let mut load_ms = Vec::new();
    for ((kind, n), scenario, state) in &oracle.classes {
        let ring = CheckpointRing::new(
            work.join("rings").join(format!("{}-{n}", kind.name())),
            RING_DEPTH,
        );
        let _ = std::fs::create_dir_all(work.join("rings"));
        let mut saves = Vec::new();
        let mut loads = Vec::new();
        for _ in 0..CHECKPOINT_REPEATS {
            let start = Instant::now();
            let saved = ring.save(scenario, state);
            saves.push(ms_since(start));
            let start = Instant::now();
            let loaded = ring.load_latest();
            loads.push(ms_since(start));
            if !report.check(saved.is_ok() && loaded.is_ok(), "fleet-mixed: ring save and load") {
                return None;
            }
        }
        save_ms.push(median(&saves));
        load_ms.push(median(&loads));
    }
    // Every class has the same job count, so the plain mean over classes is
    // the mean cost per slice of this fleet.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let samples = oracle.classes.len() * CHECKPOINT_REPEATS;
    report.metric("driver.ckpt_save_ms", mean(&save_ms), samples);
    report.metric("driver.ckpt_load_ms", mean(&load_ms), samples);

    let team = Team::new(1);
    let mut stepper = Stepper::new(
        Scenario::new(ScenarioKind::LidDrivenCavity, 8),
        server_config(work, false).stepper_config(),
    );
    let mut small_ms = Vec::with_capacity(SMALL_STEPS);
    for k in 0..SMALL_STEPS + 2 {
        let start = Instant::now();
        let stepped = stepper.step_on(&team);
        if !report.check(stepped.is_ok(), "fleet-mixed: 8^3 cavity step") {
            return None;
        }
        if k >= 2 {
            small_ms.push(ms_since(start));
        }
    }
    report.metric("driver.small_step_ms", median(&small_ms), SMALL_STEPS);
    Some(traced.wall_s / plain.wall_s - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(specs: &[JobSpec]) -> Vec<(String, &'static str, usize, u64)> {
        specs
            .iter()
            .map(|s| (s.id.clone(), s.scenario.kind.name(), s.scenario.resolution, s.steps))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_fleet() {
        assert_eq!(classes(&mix(7)), classes(&mix(7)));
        assert_ne!(classes(&mix(7)), classes(&mix(8)));
    }

    #[test]
    fn every_seed_gives_every_class_equally_often() {
        for seed in [0, 1, 99] {
            let specs = mix(seed);
            assert_eq!(specs.len(), JOBS);
            for kind in ScenarioKind::ALL {
                for n in SIZES {
                    let count = specs
                        .iter()
                        .filter(|s| s.scenario.kind == kind && s.scenario.resolution == n)
                        .count();
                    assert_eq!(count, JOBS_PER_CLASS, "{kind:?} {n}");
                }
            }
            assert!(specs.iter().all(|s| lv_server::valid_job_id(&s.id)));
            for pair in specs.chunks(WORKERS) {
                assert!(pair.iter().all(|s| s.scenario.kind == pair[0].scenario.kind
                    && s.scenario.resolution == pair[0].scenario.resolution));
            }
        }
    }

    #[test]
    fn the_typical_step_weighs_each_size_by_its_own_median() {
        // Half the samples per size, as in a drain: a plain median would
        // be (3 + 27) / 2 = 15, near no job.
        let samples: Vec<(usize, f64)> = [(8, 1.0), (8, 2.0), (8, 3.0), (12, 27.0), (12, 30.0)]
            .into_iter()
            .chain([(8, 2.0), (12, 33.0), (12, 30.0)])
            .collect();
        assert!((typical_step_ms(&samples) - (2.0f64 * 30.0).sqrt()).abs() < 1e-12);
        assert!(typical_step_ms(&[(8, 1.0)]).is_nan(), "a missing size is not typical");
    }

    #[test]
    fn the_warmup_holds_one_pair_of_every_class_and_its_first_job() {
        let specs = mix(3);
        let warmup = warmup_mix(&specs);
        assert_eq!(warmup.len(), WORKERS * ScenarioKind::ALL.len() * SIZES.len());
        for kind in ScenarioKind::ALL {
            for n in SIZES {
                let first = specs
                    .iter()
                    .find(|s| s.scenario.kind == kind && s.scenario.resolution == n)
                    .expect("every class is in the mix");
                assert!(warmup.iter().any(|s| s.id == first.id));
            }
        }
    }

    #[test]
    fn quantiles_interpolate_inside_log2_buckets() {
        let mut buckets = vec![0; 32];
        buckets[3] = 10; // ten observations in [4, 8)
        buckets[4] = 10; // ten in [8, 16)
        let hist = HistogramData { sum: 200, buckets };
        assert_eq!(quantile(&hist, 0.25), 6.0);
        assert_eq!(quantile(&hist, 0.5), 8.0);
        assert_eq!(quantile(&hist, 0.75), 12.0);
        assert!(quantile(&HistogramData { sum: 0, buckets: vec![0; 32] }, 0.5).is_nan());
    }

    #[test]
    fn slice_intervals_are_summed_per_job() {
        let record = |event, job: &str, at| Record { at_ms: Some(at), ..Record::new(event, job) };
        let records = vec![
            record(EventKind::Running, "a", 100),
            record(EventKind::Running, "b", 100),
            record(EventKind::Preempted, "a", 112),
            record(EventKind::Running, "a", 130),
            record(EventKind::Done, "b", 106),
            record(EventKind::Done, "a", 136),
        ];
        let per_job = step_ms_per_job(&records);
        assert_eq!(
            per_job,
            vec![("a".into(), 18.0 / JOB_STEPS as f64), ("b".into(), 6.0 / JOB_STEPS as f64)]
        );
    }
}
