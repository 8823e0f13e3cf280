//! The simulator layer probe: the paper's simulated RISC-V VEC pipeline —
//! an `lv_core::Runner` on the default 1 728-element jittered cavity mesh
//! regenerating every table and figure with `reproduce::generate_all`, on
//! one thread — timed run by run and split into its layers.
//!
//! It runs in every traced run and is no workload of its own: its wall
//! times swing with the host's single-thread speed beyond any bound the
//! benchmark could hold (see the README).
//!
//! The seed picks the mesh's jitter.  Simulated cycle counts depend on the
//! mesh's connectivity only, so every seed must reproduce the committed
//! fingerprint (`codesign_cycles.txt`) exactly.

use crate::report::Report;
use crate::stats::median;
use lv_core::{reproduce, RunKey, Runner, SweepConfig};
use lv_kernel::{KernelConfig, OptLevel, SimulatedMiniApp};
use lv_mesh::{BoxMeshBuilder, Mesh};
use lv_sim::{MachineConfig, Platform, PlatformKind};
use std::hint::black_box;
use std::time::Instant;

/// The committed cycle counts every sweep must reproduce.
const FINGERPRINT: &str = include_str!("../codesign_cycles.txt");
/// Jitter amplitude of the default experiment mesh (`Runner::new`).
const JITTER: f64 = 0.15;
/// A mesh build takes tens of microseconds, so the probe times many.
const MESH_BUILDS: usize = 101;
/// The paper's headline: VEC1 at VECTOR_SIZE = 240 over the scalar baseline.
const HEADLINE: RunKey = RunKey {
    platform: PlatformKind::RiscvVec,
    vector_size: 240,
    opt_level: OptLevel::Vec1,
    vectorized: true,
};

/// The simulated runs of one full sweep and their total cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Every run `generate_all` makes, with its simulated cycles.
    pub runs: Vec<(RunKey, f64)>,
    /// VEC1@240 speed-up over the scalar baseline.
    pub headline: f64,
}

fn key_text(key: &RunKey) -> String {
    format!("{:?} {} {:?} {}", key.platform, key.vector_size, key.opt_level, key.vectorized as u8)
}

impl Fingerprint {
    /// Renders the committed file format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Simulated cycles of every run `reproduce::generate_all` makes on the\n\
             # default 1728-element cavity mesh, and the VEC1@240 headline speed-up.\n\
             # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- fingerprint\n\
             # platform vector_size opt_level vectorized cycles\n",
        );
        for (key, cycles) in &self.runs {
            out.push_str(&format!("{} {cycles:?}\n", key_text(key)));
        }
        out.push_str(&format!("headline {:?}\n", self.headline));
        out
    }

    /// Parses the committed file format.
    pub fn parse(text: &str) -> Result<Fingerprint, String> {
        let mut runs = Vec::new();
        let mut headline = None;
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let number = |s: &str| s.parse::<f64>().map_err(|e| format!("{line}: {e}"));
            match fields.as_slice() {
                ["headline", value] => headline = Some(number(value)?),
                [platform, vs, opt, vectorized, cycles] => {
                    let platform = PlatformKind::ALL
                        .into_iter()
                        .find(|p| format!("{p:?}") == *platform)
                        .ok_or_else(|| format!("unknown platform in '{line}'"))?;
                    let opt_level = OptLevel::ALL
                        .into_iter()
                        .find(|o| format!("{o:?}") == *opt)
                        .ok_or_else(|| format!("unknown optimization level in '{line}'"))?;
                    let key = RunKey {
                        platform,
                        vector_size: vs.parse().map_err(|e| format!("{line}: {e}"))?,
                        opt_level,
                        vectorized: *vectorized == "1",
                    };
                    runs.push((key, number(cycles)?));
                }
                _ => return Err(format!("malformed fingerprint line '{line}'")),
            }
        }
        let headline = headline.ok_or("fingerprint has no headline")?;
        Ok(Fingerprint { runs, headline })
    }
}

/// Measures the fingerprint on the default `Runner::new` mesh: sweeps once,
/// then probes every candidate key and keeps those the sweep had already run.
pub fn fingerprint() -> Fingerprint {
    let mut runner = Runner::new(SweepConfig::default());
    reproduce::generate_all(&mut runner);
    let swept = runner.cached_runs();
    let mut sizes = runner.vector_sizes().to_vec();
    sizes.push(RunKey::scalar_baseline(PlatformKind::RiscvVec).vector_size);
    sizes.sort_unstable();
    sizes.dedup();
    let mut runs = Vec::new();
    for platform in PlatformKind::ALL {
        for vectorized in [false, true] {
            for &vector_size in &sizes {
                for opt_level in OptLevel::ALL {
                    let key = RunKey { platform, vector_size, opt_level, vectorized };
                    let before = runner.cached_runs();
                    let cycles = runner.cycles(key);
                    if runner.cached_runs() == before {
                        runs.push((key, cycles));
                    }
                }
            }
        }
    }
    assert_eq!(runs.len(), swept, "a swept run lies outside the probed key space");
    let headline = runner.speedup(HEADLINE, RunKey::scalar_baseline(PlatformKind::RiscvVec));
    Fingerprint { runs, headline }
}

fn jittered_mesh(seed: u64) -> Mesh {
    BoxMeshBuilder::with_at_least(SweepConfig::default().min_elements)
        .lid_driven_cavity()
        .with_jitter(JITTER, seed)
        .build()
}

/// Checks a swept runner against the fingerprint: the same runs, the same
/// cycles to the bit, the same headline.
fn verify(runner: &mut Runner, expected: &Fingerprint, report: &mut Report) {
    let swept = runner.cached_runs();
    let mut mismatched = 0;
    for (key, cycles) in &expected.runs {
        let got = runner.cycles(*key);
        if got.to_bits() != cycles.to_bits() {
            mismatched += 1;
            eprintln!(
                "perfbench: {} simulated {got:?} cycles, fingerprint {cycles:?}",
                key_text(key)
            );
        }
    }
    report.count(expected.runs.len() as u64, mismatched, "simulated runs match the fingerprint");
    report.check(
        swept == expected.runs.len() && runner.cached_runs() == swept,
        &format!(
            "codesign: the sweep made {swept} runs, the fingerprint lists {}",
            expected.runs.len()
        ),
    );
    let headline = runner.speedup(HEADLINE, RunKey::scalar_baseline(PlatformKind::RiscvVec));
    report.check(
        headline.to_bits() == expected.headline.to_bits(),
        &format!("codesign: headline speed-up {headline:?}, fingerprint {:?}", expected.headline),
    );
}

/// Times the simulator layers into `report`; returns the tracing overhead
/// (decomposed runs, `SimulatedMiniApp::new` + `run_with`, over plain
/// `Runner::run` calls).
pub fn layers(seed: u64, report: &mut Report) -> Option<f64> {
    let expected = match Fingerprint::parse(FINGERPRINT) {
        Ok(fp) => fp,
        Err(e) => {
            report.check(false, &format!("codesign: {e}"));
            return None;
        }
    };
    let mut mesh_ms = Vec::with_capacity(MESH_BUILDS);
    let mut mesh = None;
    for _ in 0..MESH_BUILDS {
        // No earlier mesh is alive while the next one is timed.
        drop(mesh.take());
        let start = Instant::now();
        mesh = Some(jittered_mesh(seed));
        mesh_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mesh = mesh.expect("at least one mesh build");
    let mut runner = Runner::with_mesh(mesh.clone(), SweepConfig::default());
    // Warm-up: one cold `generate_all`, which also proves the fingerprint
    // lists exactly the runs the sweep makes.
    black_box(reproduce::generate_all(&mut runner));
    verify(&mut runner, &expected, report);
    let overhead = traced(&mesh, &expected, runner.cached_runs(), report)?;
    report.metric("mesh.build_ms", median(&mesh_ms), MESH_BUILDS);
    Some(overhead)
}

/// A fresh runner makes every fingerprinted run one at a time, then
/// `generate_all` builds the tables from them; returns each run's ms.
fn sweep(mesh: &Mesh, expected: &Fingerprint, report: &mut Report) -> Option<Vec<f64>> {
    let mut runner = Runner::with_mesh(mesh.clone(), SweepConfig::default());
    let mut run_ms = Vec::with_capacity(expected.runs.len());
    for (key, _) in &expected.runs {
        let start = Instant::now();
        black_box(runner.run(*key));
        run_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    black_box(reproduce::generate_all(&mut runner));
    verify(&mut runner, expected, report);
    report.correct().then_some(run_ms)
}

fn traced(mesh: &Mesh, expected: &Fingerprint, swept: usize, report: &mut Report) -> Option<f64> {
    let plain_run_ms = sweep(mesh, expected, report)?;
    let config = SweepConfig::default();
    let machine = MachineConfig { memory_model: config.memory_model, trace: None };
    let mut build_ms = Vec::with_capacity(expected.runs.len());
    let mut run_with_ms = Vec::with_capacity(expected.runs.len());
    let mut instructions = 0u64;
    let mut mismatched = 0;
    for (key, cycles) in &expected.runs {
        // The same configuration `Runner::run` builds for a cache miss.
        let kernel = KernelConfig {
            vector_size: key.vector_size,
            opt_level: key.opt_level,
            semi_implicit: config.semi_implicit,
            ..KernelConfig::default()
        };
        let start = Instant::now();
        let app = SimulatedMiniApp::new(mesh, kernel);
        build_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let run = app.run_with(Platform::from_kind(key.platform), key.vectorized, machine);
        run_with_ms.push(start.elapsed().as_secs_f64() * 1e3);
        instructions += run.counters.total().instructions;
        mismatched += u64::from(run.total_cycles().to_bits() != cycles.to_bits());
    }
    report.count(expected.runs.len() as u64, mismatched, "layer replays match the fingerprint");
    let runs = expected.runs.len();
    let plain_ms: f64 = plain_run_ms.iter().sum();
    let layered_ms: f64 = build_ms.iter().sum::<f64>() + run_with_ms.iter().sum::<f64>();
    report.metric("sim.runs", swept as f64, 1);
    report.metric("sim.run_ms_p50", median(&plain_run_ms), runs);
    report.metric("kernel.miniapp_build_ms", median(&build_ms), runs);
    report.metric("sim.run_with_ms", median(&run_with_ms), runs);
    let run_with_s: f64 = run_with_ms.iter().sum::<f64>() / 1e3;
    report.metric("sim.instructions_per_s", instructions as f64 / run_with_s, runs);
    Some(layered_ms / plain_ms - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_fingerprint_parses_and_round_trips() {
        let fp = Fingerprint::parse(FINGERPRINT).expect("committed fingerprint parses");
        assert!(fp.runs.iter().any(|(k, _)| *k == HEADLINE));
        assert_eq!(Fingerprint::parse(&fp.render()), Ok(fp));
    }

    #[test]
    fn malformed_fingerprints_are_errors() {
        assert!(Fingerprint::parse("RiscvVec 16 Original 0 1.0\n").is_err());
        assert!(Fingerprint::parse("Riscv 16 Original 0 1.0\nheadline 2.0\n").is_err());
        assert!(Fingerprint::parse("RiscvVec x Original 0 1.0\nheadline 2.0\n").is_err());
        assert!(Fingerprint::parse("RiscvVec 16 Original 0\nheadline 2.0\n").is_err());
    }
}
