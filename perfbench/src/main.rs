//! The repository benchmark: one command, two workloads, end-to-end
//! metrics with tracing off and per-layer metrics from a separate traced
//! run, which times every layer probe whichever workload it is run for.
//! See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cavity-24|fleet-mixed> --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- spec         # BENCHMARK.json
//! cargo run --release --manifest-path perfbench/Cargo.toml -- fingerprint  # codesign_cycles.txt
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it records the seed, the host probe, sample counts and (traced) what each
//! per-layer metric should move.

mod catalog;
mod cavity;
mod codesign;
mod fleet;
mod host;
mod report;
mod rng;
mod stats;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <cavity-24|fleet-mixed> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>] | spec | fingerprint";

struct Options {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = catalog::RUN_SECONDS;
        let mut trace = false;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    workload = catalog::WORKLOADS.iter().find(|w| w.name == value).map(|w| w.name);
                    if workload.is_none() {
                        return Err(format!("unknown workload '{value}'"));
                    }
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                    }
                }
                _ => return Err(format!("unknown argument '{flag}'")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Options { workload, seed, seconds, trace })
    }
}

/// The run's scratch directory under the working directory (the checkout
/// root), removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let path = PathBuf::from(".bench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds when no concurrent run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The traced run: every layer probe, the workload's own first, so every
/// traced run reports every per-layer metric.  The tracing overhead is
/// that of the workload's own probe.
fn traced(workload: &str, seed: u64, work: &Path, report: &mut Report) {
    let overhead = if workload == catalog::CAVITY {
        cavity::layers(seed, report)
    } else {
        fleet::layers(seed, work, report)
    };
    if let Some(overhead) = overhead {
        report.metric("bench.trace_overhead_frac", overhead, 1);
    }
    if workload == catalog::CAVITY {
        fleet::layers(seed, work, report);
    } else {
        cavity::layers(seed, report);
    }
    codesign::layers(seed, report);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", catalog::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("fingerprint") => {
            print!("{}", codesign::fingerprint().render());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = Duration::from_secs(options.seconds);
    let mut report = Report::new(options.workload, options.trace);
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}",
        options.workload, options.seed, options.seconds, options.trace as u8
    );
    if options.trace {
        traced(options.workload, options.seed, &work.0, &mut report);
    } else if options.workload == catalog::CAVITY {
        cavity::run(options.seed, seconds, &mut report);
    } else {
        fleet::run(options.seed, seconds, &work.0, &mut report);
    }
    drop(work);
    // Read before the probe, whose arrays would otherwise set the mark.
    let peak_rss_mb = host::peak_rss_mb();
    let probe = host::probe();
    report.note("host", &probe.to_json().finish());
    if options.trace {
        report.metric("host.triad_gbs", probe.triad_gbs[1], 1);
        report.metric("host.triad_gbs_1t", probe.triad_gbs[0], 1);
        report.metric("host.fma_gflops", probe.fma_gflops[1], 1);
        report.metric("host.fma_gflops_1t", probe.fma_gflops[0], 1);
        if let Some(gbs) = report.get("solver.spmv_gbs") {
            report.metric("solver.spmv_bw_frac", gbs / probe.triad_gbs[1], 1);
        }
    } else {
        report.metric("peak_rss_mb", peak_rss_mb, 1);
    }
    println!("{}", report.record_line(options.seed));
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
