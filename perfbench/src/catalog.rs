//! What the benchmark measures: its workloads and metrics.
//!
//! This table is the single source of `BENCHMARK.json` (rendered by
//! [`benchmark_json`], printed by the `spec` subcommand, and compared
//! against the committed file by a test), and it gives every emitted metric
//! its unit.  Each per-layer metric names the end-to-end metric and the
//! workload it should move, so a later change can cite both.

/// Workload names, as passed to `--workload`.
pub const CAVITY: &str = "cavity-24";
/// See [`CAVITY`].
pub const FLEET: &str = "fleet-mixed";

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 40;

/// The benchmark command, run from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// One workload and why it exists.
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// One line: what it loads and what it bypasses.
    pub why: &'static str,
}

/// The workloads, in the order the README describes them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: CAVITY,
        why: "one 24^3 cavity stepped on 2 threads: every parallel assembly, \
              Krylov and multigrid path engages",
    },
    Workload {
        name: FLEET,
        why: "48 small seeded jobs drained by the supervised service: journal, \
              checkpoint and scheduling costs, mostly serial solves",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, efficiencies).
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports it with tracing off.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics.  Each workload is a closed sequence of batches
/// of work units (cavity-24: 10-step windows of time steps; fleet-mixed:
/// drains of jobs), so every metric has a meaning on every workload; the
/// README gives the table.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "step_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "step_ms_p90", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "jobs_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "job_turnaround_s_p50", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "sweep_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.2 },
];

/// A per-layer metric.  The traced run of every workload reports every
/// one: it times all the layer probes, whichever workload it was asked for.
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const STEP: &str = "step_ms_p50, step_ms_p90 on cavity-24";
const EFFICIENCY: &str = "none: diagnostic t1/(2*t2), not gated";
const JOBS: &str = "jobs_per_s on fleet-mixed";
/// No kept workload runs the simulator: `codesign-sweep` was dropped as
/// too unsteady to gate (see the README), and its layers are still timed.
const SIMULATOR: &str = "none: no kept workload runs the simulator";

use Better::{Higher, Lower};

/// The per-layer metrics.
pub const PER_LAYER: &[PerLayer] = &[
    layer("kernel.assembly_ms", "ms", Lower, STEP),
    layer("kernel.assembly_elements_per_s", "1/s", Higher, STEP),
    layer("kernel.projection_ms", "ms", Lower, STEP),
    layer("solver.momentum_ms", "ms", Lower, STEP),
    layer("solver.momentum_iters", "count", Lower, STEP),
    layer("solver.poisson_ms", "ms", Lower, STEP),
    layer("solver.poisson_iters", "count", Lower, STEP),
    layer("solver.vcycle_ms", "ms", Lower, STEP),
    layer("solver.spmv_gbs", "GB/s", Higher, STEP),
    layer("solver.spmv_bw_frac", "ratio", Higher, STEP),
    layer("runtime.fork_join_us", "us", Lower, STEP),
    layer("driver.unattributed_frac", "ratio", Lower, STEP),
    layer("kernel.assembly.efficiency_2t", "ratio", Higher, EFFICIENCY),
    layer("kernel.projection.efficiency_2t", "ratio", Higher, EFFICIENCY),
    layer("solver.momentum.efficiency_2t", "ratio", Higher, EFFICIENCY),
    layer("solver.poisson.efficiency_2t", "ratio", Higher, EFFICIENCY),
    layer("solver.vcycle.efficiency_2t", "ratio", Higher, EFFICIENCY),
    layer("solver.spmv.efficiency_2t", "ratio", Higher, EFFICIENCY),
    layer("driver.step.efficiency_2t", "ratio", Higher, EFFICIENCY),
    layer("driver.ckpt_save_ms", "ms", Lower, JOBS),
    layer("driver.ckpt_load_ms", "ms", Lower, JOBS),
    layer("driver.small_step_ms", "ms", Lower, JOBS),
    layer("server.slice_ms_p50", "ms", Lower, JOBS),
    layer("server.journal_fsync_us_p50", "us", Lower, JOBS),
    layer("server.worker_busy_frac", "ratio", Higher, JOBS),
    layer("server.queue_wait_ms_p50", "ms", Lower, "job_turnaround_s_p50 on fleet-mixed"),
    layer("server.replay_ms", "ms", Lower, "setup_s on fleet-mixed"),
    layer("server.slices", "count", Lower, JOBS),
    layer("server.preemptions", "count", Lower, JOBS),
    layer("server.retries", "count", Lower, JOBS),
    layer("sim.runs", "count", Lower, SIMULATOR),
    layer("sim.run_ms_p50", "ms", Lower, SIMULATOR),
    layer("kernel.miniapp_build_ms", "ms", Lower, SIMULATOR),
    layer("sim.run_with_ms", "ms", Lower, SIMULATOR),
    layer("sim.instructions_per_s", "1/s", Higher, SIMULATOR),
    layer("mesh.build_ms", "ms", Lower, SIMULATOR),
    layer("host.triad_gbs", "GB/s", Higher, "none: roofline bandwidth at 2 threads"),
    layer("host.triad_gbs_1t", "GB/s", Higher, "none: roofline bandwidth at 1 thread"),
    layer("host.fma_gflops", "GFLOP/s", Higher, "none: roofline multiply-add rate at 2 threads"),
    layer("host.fma_gflops_1t", "GFLOP/s", Higher, "none: roofline multiply-add rate at 1 thread"),
    layer("bench.trace_overhead_frac", "ratio", Lower, "none: traced vs untraced medians"),
];

/// The metric names a run must report, in catalog order: every per-layer
/// metric when traced, every end-to-end metric otherwise.
pub fn expected_metrics(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// What a per-layer metric should move.
pub fn moves(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.name == name).map(|m| m.moves)
}

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Renders `BENCHMARK.json` from the catalog.
pub fn benchmark_json() -> String {
    use lv_trace::json::{escape, JsonObject};
    let quoted = |s: &str| format!("\"{}\"", escape(s));
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| JsonObject::new().str("name", w.name).str("why", w.why).finish())
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            JsonObject::new()
                .str("name", m.name)
                .str("unit", m.unit)
                .str("better", m.better.name())
                .f64("bound", m.bound)
                .finish()
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            JsonObject::new()
                .str("name", m.name)
                .str("unit", m.unit)
                .str("better", m.better.name())
                .finish()
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_benchmark_json_is_the_rendered_catalog() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "regenerate with the `spec` subcommand");
    }

    #[test]
    fn the_benchmark_json_parses_and_every_metric_name_is_valid() {
        let doc = serde_json::from_str(&benchmark_json()).expect("BENCHMARK.json must parse");
        let mut names = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            let metrics = doc.get(section).and_then(|v| v.as_array()).expect(section);
            assert!(!metrics.is_empty());
            for metric in metrics {
                let name = metric.get("name").and_then(|v| v.as_str()).expect("name");
                assert!(valid_metric_name(name), "{name}");
                assert!(name.len() <= 64, "{name}");
                names.push(name.to_string());
            }
        }
        let workloads = doc.get("workloads").and_then(|v| v.as_array()).expect("workloads");
        for w in workloads {
            let name = w.get("name").and_then(|v| v.as_str()).expect("workload name");
            assert!(valid_metric_name(name), "{name}");
            assert!(w.get("why").and_then(|v| v.as_str()).is_some_and(|why| why.len() <= 200));
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names must be unique");
    }

    #[test]
    fn metric_names_are_checked_against_the_pattern() {
        assert!(valid_metric_name("kernel.assembly_ms"));
        assert!(valid_metric_name("cavity-24"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("step ms"));
        assert!(!valid_metric_name("rate/s"));
    }

    #[test]
    fn every_run_reports_every_metric_of_its_kind() {
        assert_eq!(expected_metrics(true).len(), PER_LAYER.len());
        assert_eq!(expected_metrics(false).len(), END_TO_END.len());
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
