//! `cavity-24`: one lid-driven cavity at 24^3 (13 824 elements, 15 625
//! rows: 15x `SERIAL_CUTOFF`), advanced one `Stepper::step_on` call after
//! another by one caller on a 2-thread `Team`, with the default
//! `StepperConfig` (VS = 128, batched BiCGSTAB momentum, MG-CG pressure).
//!
//! The timed steps run in windows of [`WINDOW`] steps, each replayed from
//! the same warmed-up state, so every window does bitwise the same work:
//! how many windows fit in a run never changes which steps are sampled.
//!
//! The layer probe ([`layers`], part of every traced run) times each layer
//! on the live state before every step by calling the layer's public
//! functions on the benchmark's own buffers, then repeats the same steps on
//! a 1-thread team for the parallel efficiencies.

use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats::{median, percentile, samples_needed};
use lv_driver::{Scenario, ScenarioKind, SimState, Stepper, StepperConfig};
use lv_kernel::{
    build_pressure_multigrid, solve_momentum_on, ElementWorkspace, KernelConfig, NastinAssembly,
    OptLevel,
};
use lv_mesh::Mesh;
use lv_runtime::Team;
use lv_solver::{
    mg_preconditioned_cg_on, CsrMatrix, GeometricMultigrid, LinearOperator, MultigridOptions,
    Preconditioner, VectorOps,
};
use std::time::{Duration, Instant};

const RESOLUTION: usize = 24;
const THREADS: usize = 2;
/// Setups before the warm-up; the run times one more before each window,
/// so the setup samples spread over the run.
const SETUPS: usize = 9;
const WARMUP_STEPS: usize = 10;
/// Steps per window (the batch the end-to-end metrics are taken over).
const WINDOW: usize = 10;
/// Windows per pass of the traced run.
const TRACED_WINDOWS: usize = 2;
const SPMV_REPEATS: usize = 10;
const FORK_JOIN_REPEATS: usize = 500;

/// The seeded input: the default cavity with its viscosity perturbed by at
/// most 2 %, which changes the trajectory but not the work per step.
fn scenario(seed: u64) -> Scenario {
    let base = Scenario::new(ScenarioKind::LidDrivenCavity, RESOLUTION);
    let jitter = 0.04 * (SplitMix64::new(seed).unit() - 0.5);
    let viscosity = base.viscosity * (1.0 + jitter);
    base.with_viscosity(viscosity)
}

/// Everything needed to rebuild a stepper at the warmed-up state.
struct Start {
    scenario: Scenario,
    config: StepperConfig,
    mesh: Mesh,
    state: SimState,
}

impl Start {
    fn stepper(&self) -> Stepper {
        Stepper::from_state(
            self.scenario.clone(),
            self.config.clone(),
            self.mesh.clone(),
            self.state.clone(),
        )
    }
}

/// One setup: the mesh build plus `Stepper::with_mesh`, and its seconds.
fn timed_setup(scenario: &Scenario, config: &StepperConfig) -> (Stepper, f64) {
    let start = Instant::now();
    let mesh = scenario.build_mesh();
    let stepper = Stepper::with_mesh(scenario.clone(), config.clone(), mesh);
    (stepper, start.elapsed().as_secs_f64())
}

/// Builds the stepper `setups` times, timing each build, and steps the
/// last one through the warm-up; returns the warmed-up start and the
/// setup times.
fn warmed_up(
    seed: u64,
    setups: usize,
    team: &Team,
    report: &mut Report,
) -> Option<(Start, Vec<f64>)> {
    let scenario = scenario(seed);
    let config = StepperConfig::default();
    let mut setup = Vec::with_capacity(setups);
    let mut stepper = None;
    for _ in 0..setups {
        let (built, seconds) = timed_setup(&scenario, &config);
        setup.push(seconds);
        stepper = Some(built);
    }
    let mut stepper = stepper.expect("at least one setup");
    for _ in 0..WARMUP_STEPS {
        step(&mut stepper, team, report)?;
    }
    let start =
        Start { scenario, config, mesh: stepper.mesh().clone(), state: stepper.state().clone() };
    Some((start, setup))
}

/// Runs the workload's end-to-end measurement into `report`.
pub fn run(seed: u64, seconds: Duration, report: &mut Report) {
    let team = Team::new(THREADS);
    if let Some((start, setup)) = warmed_up(seed, SETUPS, &team, report) {
        untraced(&start, &team, seconds, setup, report);
    }
}

/// Times the cavity layers into `report`; returns the tracing overhead
/// (`step_on` median with layer replays between steps over plain steps).
pub fn layers(seed: u64, report: &mut Report) -> Option<f64> {
    let team = Team::new(THREADS);
    let (start, _) = warmed_up(seed, 1, &team, report)?;
    traced(&start, &team, report)
}

/// One timed `step_on`; a failed step is a failed operation.
fn step(stepper: &mut Stepper, team: &Team, report: &mut Report) -> Option<f64> {
    let start = Instant::now();
    let result = stepper.step_on(team);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(_) => {
            report.check(true, "step");
            Some(ms)
        }
        Err(e) => {
            report.check(false, &format!("cavity-24 step {}: {e}", stepper.state().step + 1));
            None
        }
    }
}

fn same_state(a: &SimState, b: &SimState) -> bool {
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.step == b.step
        && a.time.to_bits() == b.time.to_bits()
        && bits(a.velocity.as_slice(), b.velocity.as_slice())
        && bits(a.pressure.as_slice(), b.pressure.as_slice())
}

fn untraced(
    start: &Start,
    team: &Team,
    seconds: Duration,
    mut setup: Vec<f64>,
    report: &mut Report,
) {
    let mut step_ms = Vec::new();
    let mut turnaround_s = Vec::new();
    let mut window_s = Vec::new();
    let mut steps_per_s = Vec::new();
    let mut end: Option<SimState> = None;
    let run_start = Instant::now();
    while step_ms.len() < samples_needed(0.9) || run_start.elapsed() < seconds {
        setup.push(timed_setup(&start.scenario, &start.config).1);
        let mut stepper = start.stepper();
        let window_start = Instant::now();
        for _ in 0..WINDOW {
            let Some(ms) = step(&mut stepper, team, report) else { return };
            step_ms.push(ms);
            turnaround_s.push(window_start.elapsed().as_secs_f64());
        }
        let wall = window_start.elapsed().as_secs_f64();
        window_s.push(wall);
        steps_per_s.push(WINDOW as f64 / wall);
        match &end {
            None => end = Some(stepper.state().clone()),
            Some(first) => {
                report.check(
                    same_state(first, stepper.state()),
                    "cavity-24: every replayed window ends bitwise identical",
                );
            }
        }
    }
    let one = Team::new(1);
    let mut stepper = start.stepper();
    for _ in 0..WINDOW {
        if step(&mut stepper, &one, report).is_none() {
            return;
        }
    }
    report.check(
        end.as_ref().is_some_and(|end| same_state(end, stepper.state())),
        "cavity-24: the 2-thread final state is bitwise equal to the 1-thread pass",
    );
    report.metric("setup_s", median(&setup), setup.len());
    report.metric("step_ms_p50", median(&step_ms), step_ms.len());
    report.metric("step_ms_p90", percentile(&step_ms, 0.9).unwrap_or(f64::NAN), step_ms.len());
    report.metric("jobs_per_s", median(&steps_per_s), steps_per_s.len());
    report.metric("job_turnaround_s_p50", median(&turnaround_s), turnaround_s.len());
    report.metric("sweep_s", median(&window_s), window_s.len());
}

/// The benchmark's own copies of the operators a step uses, built from the
/// same public constructors the stepper calls.
struct Layers {
    assembly: NastinAssembly,
    laplacian: CsrMatrix,
    multigrid: GeometricMultigrid,
    pins: Vec<usize>,
    matrix: CsrMatrix,
    workspaces: Vec<ElementWorkspace>,
    rhs: Vec<f64>,
    grad: Vec<f64>,
    div: Vec<f64>,
    b: Vec<f64>,
    z: Vec<f64>,
    y: Vec<f64>,
}

impl Layers {
    fn new(stepper: &Stepper, threads: usize) -> Option<Layers> {
        let scenario = stepper.scenario();
        let config = stepper.config();
        let mesh = stepper.mesh();
        let kernel = KernelConfig::new(config.vector_size, OptLevel::Vec1)
            .with_viscosity(scenario.viscosity)
            .with_density(scenario.density);
        let assembly = NastinAssembly::new(mesh.clone(), kernel);
        let pins = scenario.pressure_pins(mesh);
        let mut laplacian = stepper.operators().assemble_laplacian();
        laplacian.pin_rows_symmetric(&pins);
        let multigrid = build_pressure_multigrid(mesh, &laplacian, &MultigridOptions::default())?;
        let n = mesh.num_nodes();
        let matrix = assembly.new_matrix();
        Some(Layers {
            assembly,
            laplacian,
            multigrid,
            pins,
            matrix,
            workspaces: (0..threads).map(|_| ElementWorkspace::new(config.vector_size)).collect(),
            rhs: vec![0.0; 3 * n],
            grad: vec![0.0; 3 * n],
            div: vec![0.0; n],
            b: vec![0.0; n],
            z: vec![0.0; n],
            y: vec![0.0; n],
        })
    }
}

/// Per-step layer timings of one pass (milliseconds unless named).
#[derive(Default)]
struct Pass {
    step: Vec<f64>,
    assembly: Vec<f64>,
    projection: Vec<f64>,
    momentum: Vec<f64>,
    momentum_iters: Vec<f64>,
    poisson: Vec<f64>,
    poisson_iters: Vec<f64>,
    vcycle: Vec<f64>,
    spmv: Vec<f64>,
    fork_join_us: Vec<f64>,
    spmv_bytes: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Times every layer on the state `stepper` is about to step from: the
/// assembly and momentum solve are exactly those of the coming step, the
/// Poisson solve is its first projection sweep.
fn time_layers(stepper: &Stepper, team: &Team, layers: &mut Layers, pass: &mut Pass) -> bool {
    let scenario = stepper.scenario();
    let config = stepper.config();
    let state = stepper.state();
    let operators = stepper.operators();
    let Ok(dt) = stepper.checked_next_dt() else { return false };
    layers.assembly.set_dt(dt);

    let start = Instant::now();
    layers.assembly.assemble_parallel_into_on(
        team,
        &state.velocity,
        &state.pressure,
        &mut layers.matrix,
        &mut layers.rhs,
        &mut layers.workspaces,
    );
    pass.assembly.push(ms_since(start));

    let start = Instant::now();
    operators.weak_gradient_on(team, state.pressure.as_slice(), &mut layers.grad);
    operators.weak_divergence_on(team, &state.velocity, &mut layers.div);
    pass.projection.push(ms_since(start));

    for (r, g) in layers.rhs.iter_mut().zip(&layers.grad) {
        *r -= g;
    }
    layers.assembly.apply_dirichlet(&mut layers.matrix, &mut layers.rhs);
    let start = Instant::now();
    let solve = solve_momentum_on(
        team,
        &layers.matrix,
        &layers.rhs,
        &config.momentum_options,
        config.momentum_path,
    );
    pass.momentum.push(ms_since(start));
    let Ok(solve) = solve else { return false };
    pass.momentum_iters.push(solve.total_iterations() as f64);

    let mut predicted = state.velocity.clone();
    for (v, d) in predicted.as_mut_slice().iter_mut().zip(&solve.increment) {
        *v += d;
    }
    scenario.apply_velocity_bcs(stepper.mesh(), &mut predicted, state.time + dt);
    operators.weak_divergence_on(team, &predicted, &mut layers.div);
    let scale = -scenario.density / dt;
    for (b, d) in layers.b.iter_mut().zip(&layers.div) {
        *b = scale * d;
    }
    for &pin in &layers.pins {
        layers.b[pin] = 0.0;
    }
    let start = Instant::now();
    let phi = mg_preconditioned_cg_on(
        team,
        &layers.laplacian,
        &mut layers.multigrid,
        &layers.b,
        &config.poisson_options,
    );
    pass.poisson.push(ms_since(start));
    let Ok(phi) = phi else { return false };
    pass.poisson_iters.push(phi.iterations as f64);

    let mut ops = VectorOps::on_team(team);
    let start = Instant::now();
    layers.multigrid.apply(&mut ops, &layers.b, &mut layers.z);
    pass.vcycle.push(ms_since(start));

    let spmv: Vec<f64> = (0..SPMV_REPEATS)
        .map(|_| {
            let start = Instant::now();
            ops.apply(&layers.laplacian, &phi.solution, &mut layers.y);
            ms_since(start)
        })
        .collect();
    pass.spmv.push(median(&spmv));

    let fork_join: Vec<f64> = (0..FORK_JOIN_REPEATS)
        .map(|_| {
            let start = Instant::now();
            team.run(&|_| {});
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    pass.fork_join_us.push(median(&fork_join));
    true
}

/// `steps` steps from `start` on `team`, each preceded by the layer
/// timings; returns them with the final state.
fn traced_pass(
    start: &Start,
    team: &Team,
    steps: usize,
    report: &mut Report,
) -> Option<(Pass, SimState)> {
    let mut stepper = start.stepper();
    let Some(mut layers) = Layers::new(&stepper, team.num_threads()) else {
        report.check(false, "cavity-24: the 24^3 box must get a multigrid hierarchy");
        return None;
    };
    let mut pass = Pass { spmv_bytes: layers.laplacian.streamed_bytes() as f64, ..Pass::default() };
    for _ in 0..steps {
        let timed = time_layers(&stepper, team, &mut layers, &mut pass);
        if !report.check(timed, "cavity-24: layer replay solves converge") {
            return None;
        }
        pass.step.push(step(&mut stepper, team, report)?);
    }
    Some((pass, stepper.state().clone()))
}

fn traced(start: &Start, team: &Team, report: &mut Report) -> Option<f64> {
    let steps = TRACED_WINDOWS * WINDOW;
    let mut stepper = start.stepper();
    let mut untraced_ms = Vec::with_capacity(steps);
    for _ in 0..steps {
        untraced_ms.push(step(&mut stepper, team, report)?);
    }
    let (two, two_end) = traced_pass(start, team, steps, report)?;
    let one_team = Team::new(1);
    let (one, one_end) = traced_pass(start, &one_team, steps, report)?;
    report.check(
        same_state(&two_end, &one_end) && same_state(&two_end, stepper.state()),
        "cavity-24: the 2-thread final state is bitwise equal to the 1-thread pass",
    );

    let n = steps;
    let sweeps = start.config.projection_sweeps.max(1) as f64;
    let attributed = median(&two.assembly)
        + (sweeps + 1.0) * median(&two.projection)
        + median(&two.momentum)
        + sweeps * median(&two.poisson);
    let spmv_s = median(&two.spmv) / 1e3;
    let elements = start.mesh.num_elements() as f64;
    report.metric("kernel.assembly_ms", median(&two.assembly), n);
    report.metric("kernel.assembly_elements_per_s", elements / (median(&two.assembly) / 1e3), n);
    report.metric("kernel.projection_ms", median(&two.projection), n);
    report.metric("solver.momentum_ms", median(&two.momentum), n);
    report.metric("solver.momentum_iters", median(&two.momentum_iters), n);
    report.metric("solver.poisson_ms", median(&two.poisson), n);
    report.metric("solver.poisson_iters", median(&two.poisson_iters), n);
    report.metric("solver.vcycle_ms", median(&two.vcycle), n);
    report.metric("solver.spmv_gbs", two.spmv_bytes / spmv_s / 1e9, n * SPMV_REPEATS);
    report.metric("runtime.fork_join_us", median(&two.fork_join_us), n * FORK_JOIN_REPEATS);
    report.metric("driver.unattributed_frac", 1.0 - attributed / median(&two.step), n);
    let efficiency = |t1: &[f64], t2: &[f64]| median(t1) / (2.0 * median(t2));
    report.metric("kernel.assembly.efficiency_2t", efficiency(&one.assembly, &two.assembly), n);
    report.metric(
        "kernel.projection.efficiency_2t",
        efficiency(&one.projection, &two.projection),
        n,
    );
    report.metric("solver.momentum.efficiency_2t", efficiency(&one.momentum, &two.momentum), n);
    report.metric("solver.poisson.efficiency_2t", efficiency(&one.poisson, &two.poisson), n);
    report.metric("solver.vcycle.efficiency_2t", efficiency(&one.vcycle, &two.vcycle), n);
    report.metric("solver.spmv.efficiency_2t", efficiency(&one.spmv, &two.spmv), n);
    report.metric("driver.step.efficiency_2t", efficiency(&one.step, &two.step), n);
    Some(median(&two.step) / median(&untraced_ms) - 1.0)
}
