//! Jacobi-preconditioned Krylov solvers: Conjugate Gradient (for the
//! symmetric pressure-like systems) and BiCGSTAB (for the non-symmetric
//! convection-dominated momentum systems the Nastin assembly produces).
//!
//! Both solvers are written once, against the [`crate::parallel::VectorOps`]
//! kernels, and therefore run serially or on a shared worker pool
//! ([`lv_runtime::Team`]) with **bitwise identical** solutions, iteration
//! counts and residual histories for every thread count: SpMV partitions
//! disjoint output rows, the element-wise updates evaluate the same
//! expressions under a static partition, and every reduction uses the
//! fixed-block deterministic order (the serial path runs the same blocked
//! order).
//!
//! BiCGSTAB is one driver generic over a lane count `K`: it iterates `K`
//! right-hand sides of one matrix at once, with per-lane scalars over a
//! [`MultiVector`], so each iteration pays **one** matrix traversal and one
//! fork/join per fused BLAS-1 operation for all lanes.  Lanes that converge
//! (or break down) early are **masked, not dropped**: their vectors stay
//! frozen while the remaining lanes keep iterating, so nothing about the
//! survivors' arithmetic changes and each lane is bitwise identical to the
//! `K = 1` solve of its right-hand side — same solution, iteration count,
//! residual history and error outcome.  [`bicgstab`] is the `K = 1`
//! instance, [`bicgstab3`] the `K = 3` momentum solve.  CG runs one vector
//! against any [`LinearOperator`] (assembled CSR or matrix-free).
//!
//! Two entry styles:
//!
//! * [`conjugate_gradient`] / [`bicgstab`] / [`bicgstab3`] — serial when
//!   [`SolveOptions::threads`] is 1, otherwise a transient [`Team`] is
//!   spawned for the solve;
//! * [`conjugate_gradient_on`] / [`bicgstab_on`] / [`bicgstab3_on`] — run on
//!   a caller-provided team, the pooled path a time-step loop uses so
//!   assembly and solve share one set of workers.

use crate::csr::CsrMatrix;
use crate::multivector::{MultiVector, NRHS};
use crate::operator::{JacobiPreconditioner, LinearOperator, Preconditioner};
use crate::parallel::VectorOps;
use lv_runtime::Team;
use lv_trace::spans;
use serde::{Deserialize, Serialize};

/// Modeled per-iteration cost of one CG iteration beyond the operator
/// application: the BLAS-1 flop count (dots, norms, axpys, the direction
/// update, the Jacobi application) per vector entry.  The byte constant
/// counts the vector streams of the same operations (8 bytes each).  These
/// are *models* — fixed functions of the iteration structure, chosen for
/// cross-backend consistency, not measured traffic.
pub(crate) const CG_BLAS1_FLOPS_PER_ENTRY: u64 = 13;
pub(crate) const CG_BLAS1_STREAMS_PER_ENTRY: u64 = 14;
/// Same model for one BiCGSTAB iteration (two operator applications, four
/// dots, two norms and six fused element-wise updates).
pub(crate) const BICGSTAB_BLAS1_FLOPS_PER_ENTRY: u64 = 26;
pub(crate) const BICGSTAB_BLAS1_STREAMS_PER_ENTRY: u64 = 30;

/// Options controlling an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Relative residual tolerance (‖r‖ / ‖b‖).
    pub tolerance: f64,
    /// Whether to apply the Jacobi (diagonal) preconditioner.
    pub jacobi_preconditioner: bool,
    /// Worker threads for the solve (1 = serial).  Used by the transparent
    /// entry points, which spawn a transient [`Team`] when it is above 1;
    /// the `_on` entry points use their caller's team instead and ignore
    /// this field.
    pub threads: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_iterations: 1000,
            tolerance: 1e-10,
            jacobi_preconditioner: true,
            threads: 1,
        }
    }
}

impl SolveOptions {
    /// Returns the options with `threads` worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Which Krylov recurrence denominator degenerated in a
/// [`SolverError::Breakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakdownKind {
    /// CG: the curvature `pᵀAp` vanished — the operator is not SPD for the
    /// current direction, or the direction itself collapsed.
    ZeroCurvature,
    /// BiCGSTAB: `ρ = (r₀, r)` vanished — the residual became orthogonal to
    /// the shadow residual.
    RhoVanished,
    /// BiCGSTAB: `(r₀, A·p̂)` vanished, so no step length α exists.
    ShadowDegenerate,
    /// BiCGSTAB: `tᵀt` vanished in the stabilization step.
    StagnantStabilizer,
    /// BiCGSTAB: the stabilization weight ω vanished, so the next iteration
    /// would divide by it.
    OmegaVanished,
    /// Forced by a deterministic fault-injection plan, not by arithmetic
    /// (the recovery-path test harness).
    Injected,
}

impl BreakdownKind {
    /// Human-readable description of the degenerate recurrence.
    pub fn describe(&self) -> &'static str {
        match self {
            BreakdownKind::ZeroCurvature => "curvature p'Ap vanished (operator not SPD?)",
            BreakdownKind::RhoVanished => "rho = (r0, r) vanished",
            BreakdownKind::ShadowDegenerate => "(r0, A*p) vanished, no step length exists",
            BreakdownKind::StagnantStabilizer => "t't vanished in the stabilization step",
            BreakdownKind::OmegaVanished => "stabilization weight omega vanished",
            BreakdownKind::Injected => "injected by the fault plan",
        }
    }
}

/// Why a solve failed.  Every failing variant carries enough diagnostics to
/// report *where* the iteration died (the failing iteration and the last
/// relative residual), so drivers can log a structured post-mortem instead
/// of a bare "breakdown".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolverError {
    /// The iteration limit was reached before convergence; carries the last
    /// relative residual.
    NotConverged {
        /// Relative residual when the iteration limit was hit.
        final_residual: f64,
    },
    /// A breakdown occurred (zero denominator in the recurrences).
    Breakdown {
        /// Which recurrence denominator degenerated.
        kind: BreakdownKind,
        /// Iteration at which it degenerated (0-based; the iteration that
        /// was being computed, not the last completed one).
        iteration: usize,
        /// Last relative residual recorded before the breakdown
        /// (`INFINITY` when none was recorded yet).
        residual: f64,
    },
    /// A non-finite value (NaN/Inf) appeared in the right-hand side, the
    /// residual or an iterate.  The guards fire *before* the poisoned value
    /// can propagate, so a failed solve never silently returns a NaN
    /// trajectory.
    NonFinite {
        /// Iteration at which the non-finite value was detected (0 can also
        /// mean the inputs themselves were poisoned).
        iteration: usize,
        /// The offending relative residual (NaN/Inf by construction).
        residual: f64,
    },
    /// Input sizes are inconsistent.
    DimensionMismatch,
}

impl SolverError {
    /// A [`SolverError::Breakdown`] whose residual snapshot is the last
    /// entry of `history` (`INFINITY` when nothing was recorded yet).
    pub fn breakdown(kind: BreakdownKind, iteration: usize, history: &[f64]) -> Self {
        SolverError::Breakdown {
            kind,
            iteration,
            residual: history.last().copied().unwrap_or(f64::INFINITY),
        }
    }

    /// A [`SolverError::NonFinite`] raised because a recurrence scalar (a
    /// dot product like `pᵀAp` or `ρ`) went NaN/Inf — the iterate is already
    /// poisoned even if the residual history has not caught up, so the
    /// carried residual is NaN.
    pub fn non_finite_scalar(iteration: usize) -> Self {
        SolverError::NonFinite { iteration, residual: f64::NAN }
    }

    /// The relative residual the failure carries, when it has one.
    pub fn residual(&self) -> Option<f64> {
        match self {
            SolverError::NotConverged { final_residual } => Some(*final_residual),
            SolverError::Breakdown { residual, .. } => Some(*residual),
            SolverError::NonFinite { residual, .. } => Some(*residual),
            SolverError::DimensionMismatch => None,
        }
    }

    /// Whether this is a recurrence breakdown.
    pub fn is_breakdown(&self) -> bool {
        matches!(self, SolverError::Breakdown { .. })
    }

    /// Whether this failure was a NaN/Inf guard firing.
    pub fn is_non_finite(&self) -> bool {
        matches!(self, SolverError::NonFinite { .. })
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NotConverged { final_residual } => {
                write!(f, "not converged (final relative residual {final_residual:.3e})")
            }
            SolverError::Breakdown { kind, iteration, residual } => write!(
                f,
                "breakdown at iteration {iteration}: {} (last residual {residual:.3e})",
                kind.describe()
            ),
            SolverError::NonFinite { iteration, residual } => write!(
                f,
                "non-finite value at iteration {iteration} (residual {residual}); \
                 rejecting instead of iterating on NaN"
            ),
            SolverError::DimensionMismatch => write!(f, "input sizes are inconsistent"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Result of a successful iterative solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOutcome {
    /// The solution vector.
    pub solution: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Relative residual history.  Always seeded with the initial residual,
    /// so it is non-empty even for a zero-iteration solve (‖b‖ = 0 converges
    /// immediately with history `[0.0]`).
    pub residual_history: Vec<f64>,
}

impl SolveOutcome {
    /// Final relative residual (the last history entry; the history is never
    /// empty for an outcome produced by the solvers in this module).
    pub fn final_residual(&self) -> f64 {
        self.residual_history.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Inverse diagonal of any operator backend (1.0 for near-zero pivots, or
/// everywhere when disabled — the identity preconditioner).
pub(crate) fn inverse_diagonal(operator: &dyn LinearOperator, enabled: bool) -> Vec<f64> {
    if enabled {
        operator.diagonal().iter().map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 }).collect()
    } else {
        vec![1.0; operator.dim()]
    }
}

/// Runs `solve` on kernels for `options.threads` workers: serial at 1, on a
/// transient team otherwise.
pub(crate) fn with_ops<R>(
    options: &SolveOptions,
    solve: impl FnOnce(&mut VectorOps<'_>) -> R,
) -> R {
    if options.threads > 1 {
        let team = Team::new(options.threads);
        solve(&mut VectorOps::on_team(&team))
    } else {
        solve(&mut VectorOps::serial())
    }
}

/// The entry guard of a right-hand side with norm `b_norm`: a zero one
/// converges immediately (its history is seeded with the zero residual, so
/// `final_residual()` is 0, not `INFINITY`), a non-finite one is rejected
/// with a structured error before any iteration can smear the NaN across
/// the iterate.  `None` means "solve it".
fn screen_rhs(n: usize, b_norm: f64) -> Option<Result<SolveOutcome, SolverError>> {
    if b_norm == 0.0 {
        Some(Ok(SolveOutcome {
            solution: vec![0.0; n],
            iterations: 0,
            residual_history: vec![0.0],
        }))
    } else if !b_norm.is_finite() {
        Some(Err(SolverError::NonFinite { iteration: 0, residual: b_norm }))
    } else {
        None
    }
}

/// Guards a recurrence denominator: NaN/Inf fails as
/// [`SolverError::non_finite_scalar`], a vanishing one as a `kind`
/// breakdown carrying the last residual of `history`.
fn check_scalar(
    value: f64,
    kind: BreakdownKind,
    iteration: usize,
    history: &[f64],
) -> Result<(), SolverError> {
    if !value.is_finite() {
        Err(SolverError::non_finite_scalar(iteration))
    } else if value.abs() < 1e-300 {
        Err(SolverError::breakdown(kind, iteration, history))
    } else {
        Ok(())
    }
}

/// Guards a relative residual: NaN/Inf fails as [`SolverError::NonFinite`].
fn check_residual(rel: f64, iteration: usize) -> Result<f64, SolverError> {
    if rel.is_finite() {
        Ok(rel)
    } else {
        Err(SolverError::NonFinite { iteration, residual: rel })
    }
}

/// Solves `A·x = b` with the (preconditioned) Conjugate Gradient method
/// against any [`LinearOperator`] backend (a `&CsrMatrix` coerces).  `A`
/// must be symmetric positive definite for guaranteed convergence.  Spawns
/// a transient worker team when `options.threads > 1`.
pub fn conjugate_gradient(
    operator: &dyn LinearOperator,
    b: &[f64],
    options: &SolveOptions,
) -> Result<SolveOutcome, SolverError> {
    let mut precond = JacobiPreconditioner::new(operator, options.jacobi_preconditioner);
    with_ops(options, |ops| conjugate_gradient_with(operator, b, options, ops, &mut precond))
}

/// [`conjugate_gradient`] on a caller-provided worker team (the pooled path:
/// assembly and solves of one time step share the same workers).
pub fn conjugate_gradient_on(
    team: &Team,
    operator: &dyn LinearOperator,
    b: &[f64],
    options: &SolveOptions,
) -> Result<SolveOutcome, SolverError> {
    let mut precond = JacobiPreconditioner::new(operator, options.jacobi_preconditioner);
    conjugate_gradient_with(operator, b, options, &mut VectorOps::on_team(team), &mut precond)
}

/// The shared preconditioned-CG driver.  `precond` must apply a fixed SPD
/// operator (Jacobi, or the multigrid V-cycle); the `jacobi_preconditioner`
/// flag of `options` is the *caller's* business — it is already baked into
/// `precond` by the public entry points.
pub(crate) fn conjugate_gradient_with(
    operator: &dyn LinearOperator,
    b: &[f64],
    options: &SolveOptions,
    ops: &mut VectorOps<'_>,
    precond: &mut dyn Preconditioner,
) -> Result<SolveOutcome, SolverError> {
    let n = operator.dim();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch);
    }
    let [b_norm] = ops.norm([b], [true]);
    if let Some(done) = screen_rhs(n, b_norm) {
        return done;
    }

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    precond.apply(ops, &r, &mut z);
    let mut p = z.clone();
    let [mut rz] = ops.dot([&r], [&z], [true]);
    let mut history = vec![ops.norm([&r], [true])[0] / b_norm];
    let mut ap = vec![0.0; n];

    let trace = ops.trace();
    let iter_flops = operator.apply_flops() + CG_BLAS1_FLOPS_PER_ENTRY * n as u64;
    let iter_bytes = operator.streamed_bytes() as u64 + CG_BLAS1_STREAMS_PER_ENTRY * 8 * n as u64;

    for iter in 0..options.max_iterations {
        // One timed event per iteration; early error returns drop (and
        // thereby record) the guard with zero tallies, which is itself
        // deterministic — the failing iteration is thread-invariant.
        let mut span = trace.map(|t| t.span(spans::CG_ITERATION, 0));
        ops.apply(operator, &p, &mut ap);
        let [pap] = ops.dot([&p], [&ap], [true]);
        check_scalar(pap, BreakdownKind::ZeroCurvature, iter, &history)?;
        let alpha = rz / pap;
        ops.axpy([alpha], [&p], [&mut x], [true]);
        ops.axpy([-alpha], [&ap], [&mut r], [true]);
        let rel = check_residual(ops.norm([&r], [true])[0] / b_norm, iter)?;
        history.push(rel);
        if let Some(s) = span.take() {
            s.iters(1).flops(iter_flops).bytes(iter_bytes).aux(rel.to_bits()).finish();
        }
        if rel < options.tolerance {
            return Ok(SolveOutcome {
                solution: x,
                iterations: iter + 1,
                residual_history: history,
            });
        }
        precond.apply(ops, &r, &mut z);
        let [rz_new] = ops.dot([&r], [&z], [true]);
        let beta = rz_new / rz;
        rz = rz_new;
        ops.xpby([&z], [beta], [&mut p], [true]);
    }
    Err(SolverError::NotConverged { final_residual: *history.last().unwrap() })
}

/// Per-lane results of the three-lane momentum solve, in component order
/// (x, y, z).  Each entry is exactly what [`bicgstab`] returns for that
/// component's right-hand side.
pub type BatchedOutcome = [Result<SolveOutcome, SolverError>; NRHS];

/// The active lanes of `active`, in lane order.
fn lanes<const K: usize>(active: [bool; K]) -> impl Iterator<Item = usize> {
    (0..K).filter(move |&c| active[c])
}

/// Book-keeping of a `K`-lane solve: which lanes still iterate, their
/// finished results and their residual histories.
struct LaneTracker<const K: usize> {
    active: [bool; K],
    results: [Option<Result<SolveOutcome, SolverError>>; K],
    histories: [Vec<f64>; K],
}

impl<const K: usize> LaneTracker<K> {
    /// Screens every lane's right-hand side norm ([`screen_rhs`]); the
    /// lanes it resolves start inactive.
    fn new(n: usize, b_norm: [f64; K]) -> Self {
        let results = b_norm.map(|bn| screen_rhs(n, bn));
        LaneTracker {
            active: std::array::from_fn(|c| results[c].is_none()),
            results,
            histories: std::array::from_fn(|_| Vec::new()),
        }
    }

    fn any_active(&self) -> bool {
        self.active.contains(&true)
    }

    fn resolve(&mut self, c: usize, result: Result<SolveOutcome, SolverError>) {
        self.results[c] = Some(result);
        self.active[c] = false;
    }

    /// Applies a guard to lane `c`: on `Err` the lane fails with it.
    /// Returns whether the lane survived.
    fn guard<T>(&mut self, c: usize, check: Result<T, SolverError>) -> bool {
        match check {
            Ok(_) => true,
            Err(error) => {
                self.resolve(c, Err(error));
                false
            }
        }
    }

    /// [`check_scalar`] on lane `c`, with the lane's own residual history.
    fn scalar_ok(&mut self, c: usize, value: f64, kind: BreakdownKind, iteration: usize) -> bool {
        let check = check_scalar(value, kind, iteration, &self.histories[c]);
        self.guard(c, check)
    }

    fn converge(&mut self, c: usize, x: &MultiVector<K>, iterations: usize) {
        let residual_history = std::mem::take(&mut self.histories[c]);
        let solution = x.component(c).to_vec();
        self.resolve(c, Ok(SolveOutcome { solution, iterations, residual_history }));
    }

    /// Lanes still active after the iteration limit: `NotConverged` with
    /// the last recorded relative residual.
    fn finish(mut self) -> [Result<SolveOutcome, SolverError>; K] {
        for c in lanes(self.active) {
            let final_residual =
                *self.histories[c].last().expect("an active lane has a seeded history");
            self.results[c] = Some(Err(SolverError::NotConverged { final_residual }));
        }
        self.results.map(|r| r.expect("every lane must be resolved"))
    }
}

/// Solves `A·x = b` with the (preconditioned) BiCGSTAB method; works for
/// non-symmetric systems such as the convection-dominated momentum equations.
/// Spawns a transient worker team when `options.threads > 1`.
pub fn bicgstab(
    matrix: &CsrMatrix,
    b: &[f64],
    options: &SolveOptions,
) -> Result<SolveOutcome, SolverError> {
    with_ops(options, |ops| {
        let [outcome] = bicgstab_lanes(matrix, [b], options, ops);
        outcome
    })
}

/// [`bicgstab`] on a caller-provided worker team (the pooled path).
pub fn bicgstab_on(
    team: &Team,
    matrix: &CsrMatrix,
    b: &[f64],
    options: &SolveOptions,
) -> Result<SolveOutcome, SolverError> {
    let [outcome] = bicgstab_lanes(matrix, [b], options, &mut VectorOps::on_team(team));
    outcome
}

/// Solves the three systems `A·x_c = b_c` with one three-lane BiCGSTAB
/// iteration (one matrix traversal per iteration for all three right-hand
/// sides); each lane is bitwise identical to [`bicgstab`] of `b_c`.
/// Spawns a transient worker team when `options.threads > 1`.
pub fn bicgstab3(matrix: &CsrMatrix, b: &MultiVector, options: &SolveOptions) -> BatchedOutcome {
    with_ops(options, |ops| bicgstab_lanes(matrix, b.components(), options, ops))
}

/// [`bicgstab3`] on a caller-provided worker team (the pooled path of a
/// time-step loop).
pub fn bicgstab3_on(
    team: &Team,
    matrix: &CsrMatrix,
    b: &MultiVector,
    options: &SolveOptions,
) -> BatchedOutcome {
    bicgstab_lanes(matrix, b.components(), options, &mut VectorOps::on_team(team))
}

/// The `K`-lane preconditioned BiCGSTAB driver behind [`bicgstab`]
/// (`K = 1`) and [`bicgstab3`] (`K = 3`).
///
/// Each iteration records one trace event.  At `K = 1` it is a
/// `solver/bicgstab/iteration` event whose tallies are set only once the
/// iteration produced a residual, with `aux` = that residual's bits; at
/// `K > 1` it is a `solver/bicgstab3/iteration` event that counts the lanes
/// active at the start of the iteration (`iters`, and `flops`/`bytes` per
/// lane) and carries their bitmask in `aux`.
fn bicgstab_lanes<const K: usize>(
    matrix: &CsrMatrix,
    b: [&[f64]; K],
    options: &SolveOptions,
    ops: &mut VectorOps<'_>,
) -> [Result<SolveOutcome, SolverError>; K] {
    let n = matrix.dim();
    if b.iter().any(|lane| lane.len() != n) {
        return std::array::from_fn(|_| Err(SolverError::DimensionMismatch));
    }
    let b_norm = ops.norm(b, [true; K]);
    let mut tracker = LaneTracker::new(n, b_norm);
    if !tracker.any_active() {
        return tracker.finish();
    }
    let inv_diag = inverse_diagonal(matrix, options.jacobi_preconditioner);

    let mut x = MultiVector::<K>::zeros(n);
    let mut r = MultiVector::from_columns(b);
    let r0 = r.clone();
    let mut rho = [1.0f64; K];
    let mut alpha = [1.0f64; K];
    let mut omega = [1.0f64; K];
    let mut v = MultiVector::<K>::zeros(n);
    let mut p = MultiVector::<K>::zeros(n);
    let r_norm = ops.norm(r.components(), tracker.active);
    for c in lanes(tracker.active) {
        tracker.histories[c].push(r_norm[c] / b_norm[c]);
    }
    let mut phat = MultiVector::<K>::zeros(n);
    let mut s = MultiVector::<K>::zeros(n);
    let mut shat = MultiVector::<K>::zeros(n);
    let mut t = MultiVector::<K>::zeros(n);

    let trace = ops.trace();
    let span_id = if K == 1 { spans::BICGSTAB_ITERATION } else { spans::BICGSTAB3_ITERATION };
    let lane_flops = 2 * matrix.apply_flops() + BICGSTAB_BLAS1_FLOPS_PER_ENTRY * n as u64;
    let lane_bytes =
        2 * matrix.streamed_bytes() as u64 + BICGSTAB_BLAS1_STREAMS_PER_ENTRY * 8 * n as u64;

    for iter in 0..options.max_iterations {
        if !tracker.any_active() {
            break;
        }
        let started = tracker.active;
        let span = trace.map(|t| t.span(span_id, 0));
        // The relative residual each lane recorded this iteration.
        let mut recorded = [None::<f64>; K];
        'iteration: {
            let rho_new = ops.dot(r0.components(), r.components(), tracker.active);
            let mut beta = [0.0f64; K];
            for c in lanes(tracker.active) {
                if tracker.scalar_ok(c, rho_new[c], BreakdownKind::RhoVanished, iter) {
                    beta[c] = (rho_new[c] / rho[c]) * (alpha[c] / omega[c]);
                    rho[c] = rho_new[c];
                }
            }
            let active = tracker.active;
            ops.direction_update(
                r.components(),
                beta,
                omega,
                v.components(),
                p.components_mut(),
                active,
            );
            ops.hadamard(p.components(), &inv_diag, phat.components_mut(), active);
            ops.spmm(matrix, phat.components(), v.components_mut(), active);
            let r0v = ops.dot(r0.components(), v.components(), active);
            for c in lanes(active) {
                if tracker.scalar_ok(c, r0v[c], BreakdownKind::ShadowDegenerate, iter) {
                    alpha[c] = rho[c] / r0v[c];
                }
            }
            let active = tracker.active;
            ops.scaled_diff(r.components(), alpha, v.components(), s.components_mut(), active);
            let s_norm = ops.norm(s.components(), active);
            for c in lanes(active) {
                let s_rel = s_norm[c] / b_norm[c];
                if tracker.guard(c, check_residual(s_rel, iter)) && s_rel < options.tolerance {
                    // Early half-step convergence: apply the half update
                    // `x += alpha * phat` to this lane only.
                    let mut only = [false; K];
                    only[c] = true;
                    ops.axpy(alpha, phat.components(), x.components_mut(), only);
                    tracker.histories[c].push(s_rel);
                    recorded[c] = Some(s_rel);
                    tracker.converge(c, &x, iter + 1);
                }
            }
            if !tracker.any_active() {
                break 'iteration;
            }
            let active = tracker.active;
            ops.hadamard(s.components(), &inv_diag, shat.components_mut(), active);
            ops.spmm(matrix, shat.components(), t.components_mut(), active);
            let tt = ops.dot(t.components(), t.components(), active);
            for c in lanes(active) {
                tracker.scalar_ok(c, tt[c], BreakdownKind::StagnantStabilizer, iter);
            }
            let active = tracker.active;
            let ts = ops.dot(t.components(), s.components(), active);
            for c in lanes(active) {
                omega[c] = ts[c] / tt[c];
            }
            ops.axpy2(
                alpha,
                phat.components(),
                omega,
                shat.components(),
                x.components_mut(),
                active,
            );
            ops.scaled_diff(s.components(), omega, t.components(), r.components_mut(), active);
            let r_norm = ops.norm(r.components(), active);
            for c in lanes(active) {
                let rel = r_norm[c] / b_norm[c];
                if !tracker.guard(c, check_residual(rel, iter)) {
                    continue;
                }
                tracker.histories[c].push(rel);
                recorded[c] = Some(rel);
                if rel < options.tolerance {
                    tracker.converge(c, &x, iter + 1);
                } else {
                    // ω is finite here: a non-finite one makes `rel`
                    // non-finite, which the guard above already rejected.
                    tracker.scalar_ok(c, omega[c], BreakdownKind::OmegaVanished, iter);
                }
            }
        }
        if let Some(span) = span {
            let span = match (K, recorded[0]) {
                (1, Some(rel)) => {
                    span.iters(1).flops(lane_flops).bytes(lane_bytes).aux(rel.to_bits())
                }
                (1, None) => span,
                _ => {
                    let count = lanes(started).count() as u64;
                    let mask = lanes(started).map(|c| 1u64 << c).sum();
                    span.iters(count).flops(count * lane_flops).bytes(count * lane_bytes).aux(mask)
                }
            };
            span.finish();
        }
    }
    tracker.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;

    fn norm(a: &[f64]) -> f64 {
        a.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// 1-D Laplacian with Dirichlet boundary rows: SPD, well conditioned.
    fn laplacian(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 2.0;
            if i > 0 {
                row[i - 1] = -1.0;
            }
            if i + 1 < n {
                row[i + 1] = -1.0;
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    /// A non-symmetric, diagonally dominant "convection-diffusion" matrix.
    fn convection(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 4.0;
            if i > 0 {
                row[i - 1] = -2.0;
            }
            if i + 1 < n {
                row[i + 1] = -0.5;
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect()
    }

    /// A diagonally dominant SPD tridiagonal matrix (well conditioned at any
    /// size, unlike the Laplacian whose condition number grows like n²).
    fn spd_dominant(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 4.0 + (i % 3) as f64;
            if i > 0 {
                row[i - 1] = -1.0;
            }
            if i + 1 < n {
                row[i + 1] = -1.0;
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    #[test]
    fn cg_solves_spd_system() {
        let a = laplacian(50);
        let b = rhs(50);
        let out = conjugate_gradient(&a, &b, &SolveOptions::default()).unwrap();
        let residual: Vec<f64> =
            a.mul_vec(&out.solution).iter().zip(&b).map(|(ax, bi)| ax - bi).collect();
        assert!(norm(&residual) / norm(&b) < 1e-9);
        assert!(out.iterations <= 50, "CG must converge in at most n iterations");
        assert!(out.final_residual() < 1e-9);
    }

    #[test]
    fn cg_without_preconditioner_also_converges() {
        let a = laplacian(30);
        let b = rhs(30);
        let opts = SolveOptions { jacobi_preconditioner: false, ..Default::default() };
        let out = conjugate_gradient(&a, &b, &opts).unwrap();
        assert!(out.final_residual() < 1e-9);
    }

    #[test]
    fn bicgstab_solves_nonsymmetric_system() {
        let a = convection(60);
        assert!(!a.is_symmetric(1e-12));
        let b = rhs(60);
        let out = bicgstab(&a, &b, &SolveOptions::default()).unwrap();
        let residual: Vec<f64> =
            a.mul_vec(&out.solution).iter().zip(&b).map(|(ax, bi)| ax - bi).collect();
        assert!(norm(&residual) / norm(&b) < 1e-8);
    }

    #[test]
    fn solutions_match_dense_solver() {
        let n = 12;
        let a = convection(n);
        let b = rhs(n);
        let dense_rows: Vec<Vec<f64>> =
            (0..n).map(|i| (0..n).map(|j| a.get(i, j)).collect()).collect();
        let dense = DenseMatrix::from_rows(&dense_rows);
        let x_dense = dense.solve(&b).unwrap();
        let x_iter = bicgstab(&a, &b, &SolveOptions::default()).unwrap().solution;
        for i in 0..n {
            assert!((x_dense[i] - x_iter[i]).abs() < 1e-7, "component {i}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = laplacian(10);
        let out = conjugate_gradient(&a, &[0.0; 10], &SolveOptions::default()).unwrap();
        assert_eq!(out.solution, vec![0.0; 10]);
        assert_eq!(out.iterations, 0);
        let out = bicgstab(&a, &[0.0; 10], &SolveOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
    }

    /// Regression: a zero-iteration converged solve (‖b‖ = 0) must report a
    /// zero final residual from a seeded history — not `INFINITY` from an
    /// empty one.
    #[test]
    fn zero_iteration_solve_has_seeded_residual_history() {
        let a = laplacian(10);
        for threads in [1usize, 2] {
            let opts = SolveOptions::default().with_threads(threads);
            let cg = conjugate_gradient(&a, &[0.0; 10], &opts).unwrap();
            assert!(!cg.residual_history.is_empty(), "threads={threads}");
            assert_eq!(cg.final_residual(), 0.0, "threads={threads}");
            let bi = bicgstab(&a, &[0.0; 10], &opts).unwrap();
            assert!(!bi.residual_history.is_empty(), "threads={threads}");
            assert_eq!(bi.final_residual(), 0.0, "threads={threads}");
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = laplacian(5);
        let err = conjugate_gradient(&a, &[1.0; 4], &SolveOptions::default()).unwrap_err();
        assert_eq!(err, SolverError::DimensionMismatch);
        let err = bicgstab(&a, &[1.0; 6], &SolveOptions::default()).unwrap_err();
        assert_eq!(err, SolverError::DimensionMismatch);
    }

    #[test]
    fn iteration_limit_reports_not_converged() {
        let a = laplacian(200);
        let b = rhs(200);
        let opts = SolveOptions { max_iterations: 2, tolerance: 1e-14, ..Default::default() };
        match conjugate_gradient(&a, &b, &opts) {
            Err(SolverError::NotConverged { final_residual }) => {
                assert!(final_residual > 0.0);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn residual_history_is_monotone_enough_for_cg() {
        // CG residuals can oscillate slightly in finite precision, but the
        // last residual must be the smallest for an SPD system.
        let a = laplacian(40);
        let b = rhs(40);
        let out = conjugate_gradient(&a, &b, &SolveOptions::default()).unwrap();
        let last = out.final_residual();
        assert!(out.residual_history.iter().all(|&r| r >= last - 1e-15));
    }

    /// A NaN-poisoned right-hand side must be rejected with a structured
    /// `NonFinite` error at iteration 0 — never iterated on.
    #[test]
    fn nan_rhs_is_rejected_not_iterated() {
        let a = laplacian(20);
        let mut b = rhs(20);
        b[7] = f64::NAN;
        for threads in [1usize, 2] {
            let opts = SolveOptions::default().with_threads(threads);
            match conjugate_gradient(&a, &b, &opts) {
                Err(SolverError::NonFinite { iteration: 0, residual }) => {
                    assert!(residual.is_nan(), "threads={threads}");
                }
                other => panic!("expected NonFinite at iteration 0, got {other:?}"),
            }
            match bicgstab(&a, &b, &opts) {
                Err(SolverError::NonFinite { iteration: 0, .. }) => {}
                other => panic!("expected NonFinite at iteration 0, got {other:?}"),
            }
        }
        // An Inf entry trips the same guard.
        let mut b = rhs(20);
        b[0] = f64::INFINITY;
        assert!(matches!(
            conjugate_gradient(&a, &b, &SolveOptions::default()),
            Err(SolverError::NonFinite { iteration: 0, .. })
        ));
    }

    /// Breakdown errors carry the failing iteration and a residual snapshot.
    #[test]
    fn breakdown_reports_kind_iteration_and_residual() {
        let err = SolverError::breakdown(BreakdownKind::RhoVanished, 5, &[1.0, 0.25]);
        assert_eq!(
            err,
            SolverError::Breakdown {
                kind: BreakdownKind::RhoVanished,
                iteration: 5,
                residual: 0.25
            }
        );
        assert!(err.is_breakdown());
        assert_eq!(err.residual(), Some(0.25));
        let msg = err.to_string();
        assert!(msg.contains("iteration 5"), "{msg}");
        assert!(msg.contains("rho"), "{msg}");
        // No history yet: the snapshot degrades to INFINITY, not a panic.
        let early = SolverError::breakdown(BreakdownKind::ZeroCurvature, 0, &[]);
        assert_eq!(early.residual(), Some(f64::INFINITY));
        assert!(SolverError::non_finite_scalar(3).is_non_finite());
    }

    /// The headline guarantee: solutions, iteration counts and residual
    /// histories are bitwise identical for threads ∈ {1, 2, 4}, both through
    /// the transparent entry points and on a shared team.
    #[test]
    fn solves_are_bitwise_reproducible_across_thread_counts() {
        let n = 5000; // above SERIAL_CUTOFF so the team paths really fork
        let a = convection(n);
        let b = rhs(n);
        let opts = SolveOptions { tolerance: 1e-9, ..Default::default() };

        let spd = spd_dominant(n);
        let cg_ref = conjugate_gradient(&spd, &b, &opts).unwrap();
        let bi_ref = bicgstab(&a, &b, &opts).unwrap();
        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let cg = conjugate_gradient_on(&team, &spd, &b, &opts).unwrap();
            assert_eq!(cg.iterations, cg_ref.iterations, "cg threads={threads}");
            assert_eq!(
                cg.residual_history.len(),
                cg_ref.residual_history.len(),
                "cg threads={threads}"
            );
            for (x, y) in cg_ref.residual_history.iter().zip(&cg.residual_history) {
                assert_eq!(x.to_bits(), y.to_bits(), "cg history threads={threads}");
            }
            for (x, y) in cg_ref.solution.iter().zip(&cg.solution) {
                assert_eq!(x.to_bits(), y.to_bits(), "cg solution threads={threads}");
            }

            let bi = bicgstab_on(&team, &a, &b, &opts).unwrap();
            assert_eq!(bi.iterations, bi_ref.iterations, "bicgstab threads={threads}");
            for (x, y) in bi_ref.residual_history.iter().zip(&bi.residual_history) {
                assert_eq!(x.to_bits(), y.to_bits(), "bicgstab history threads={threads}");
            }
            for (x, y) in bi_ref.solution.iter().zip(&bi.solution) {
                assert_eq!(x.to_bits(), y.to_bits(), "bicgstab solution threads={threads}");
            }

            // The transparent entry points route through the same kernels.
            let via_options = bicgstab(&a, &b, &opts.with_threads(threads)).unwrap();
            assert_eq!(via_options.iterations, bi_ref.iterations);
            for (x, y) in bi_ref.solution.iter().zip(&via_options.solution) {
                assert_eq!(x.to_bits(), y.to_bits(), "options.threads={threads}");
            }
        }
    }

    fn rhs3(n: usize) -> MultiVector {
        MultiVector::from_columns([
            &(0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect::<Vec<_>>(),
            &(0..n).map(|i| (i as f64 * 0.37).sin() * 2.0).collect::<Vec<_>>(),
            &(0..n).map(|i| ((i * 13 + 1) % 17) as f64 / 1.7 - 4.0).collect::<Vec<_>>(),
        ])
    }

    fn assert_same_outcome(single: &SolveOutcome, lane: &SolveOutcome, what: &str) {
        assert_eq!(lane.iterations, single.iterations, "{what}: iterations");
        assert_eq!(
            lane.residual_history.len(),
            single.residual_history.len(),
            "{what}: history length"
        );
        for (a, b) in single.residual_history.iter().zip(&lane.residual_history) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: history entry");
        }
        for (a, b) in single.solution.iter().zip(&lane.solution) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: solution entry");
        }
    }

    /// The headline lane contract: each lane of the three-lane solve is
    /// bitwise identical to its one-lane solve, serial and on teams.
    #[test]
    fn batched_solves_match_single_rhs_solves_bitwise() {
        let n = 3000; // above SERIAL_CUTOFF so teams really fork
        let b = rhs3(n);
        let options = SolveOptions { tolerance: 1e-9, ..Default::default() };
        let m = convection(n);
        let singles: Vec<SolveOutcome> =
            (0..3).map(|c| bicgstab(&m, b.component(c), &options).unwrap()).collect();

        let serial = bicgstab3(&m, &b, &options);
        for c in 0..3 {
            assert_same_outcome(&singles[c], serial[c].as_ref().unwrap(), &format!("serial c={c}"));
        }
        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let lanes = bicgstab3_on(&team, &m, &b, &options);
            for c in 0..3 {
                let what = format!("threads={threads} c={c}");
                assert_same_outcome(&singles[c], lanes[c].as_ref().unwrap(), &what);
            }
        }
    }

    /// Right-hand sides whose lanes converge at different iteration counts:
    /// one unit vector between two rough ones (18, 21 and 17 iterations).
    fn staggered_rhs3(n: usize) -> MultiVector {
        let mut e = vec![0.0; n];
        e[n / 2] = 1.0;
        MultiVector::from_columns([
            &(0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect::<Vec<_>>(),
            &e,
            &(0..n).map(|i| (i as f64 * 0.61).cos()).collect::<Vec<_>>(),
        ])
    }

    /// Lanes converge at different iteration counts; the early ones are
    /// masked, and the late ones still match their single solves exactly.
    #[test]
    fn staggered_convergence_is_masked_not_dropped() {
        let n = 400;
        let m = convection(n);
        let b = staggered_rhs3(n);
        let options = SolveOptions::default();
        let lanes = bicgstab3(&m, &b, &options);
        let mut iteration_counts = [0usize; 3];
        for c in 0..3 {
            let single = bicgstab(&m, b.component(c), &options).unwrap();
            assert_same_outcome(&single, lanes[c].as_ref().unwrap(), &format!("c={c}"));
            iteration_counts[c] = single.iterations;
        }
        assert!(
            iteration_counts.iter().any(|&i| i != iteration_counts[0]),
            "workload should converge at staggered iteration counts, got {iteration_counts:?}"
        );
    }

    #[test]
    fn zero_rhs_component_converges_immediately() {
        let n = 50;
        let m = convection(n);
        let zero = vec![0.0; n];
        let ones = vec![1.0; n];
        let b = MultiVector::from_columns([&ones, &zero, &ones]);
        let out = bicgstab3(&m, &b, &SolveOptions::default());
        let zero_out = out[1].as_ref().unwrap();
        assert_eq!(zero_out.iterations, 0);
        assert_eq!(zero_out.final_residual(), 0.0);
        assert_eq!(zero_out.solution, vec![0.0; n]);
        assert!(out[0].as_ref().unwrap().final_residual() < 1e-9);
        assert!(out[2].as_ref().unwrap().final_residual() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_reported_for_every_component() {
        let m = convection(5);
        let b = MultiVector::zeros(4);
        for result in bicgstab3(&m, &b, &SolveOptions::default()) {
            assert_eq!(result.unwrap_err(), SolverError::DimensionMismatch);
        }
    }

    /// A NaN-poisoned lane is rejected with a structured `NonFinite` error
    /// while the healthy lanes still solve — and their outcomes stay bitwise
    /// identical to their single-RHS solves (the mask freezes failures, it
    /// never perturbs survivors).
    #[test]
    fn poisoned_component_fails_structured_and_survivors_match_singles() {
        let n = 300;
        let m = convection(n);
        let clean = rhs3(n);
        let mut poisoned0 = clean.component(0).to_vec();
        poisoned0[17] = f64::NAN;
        let b = MultiVector::from_columns([&poisoned0, clean.component(1), clean.component(2)]);
        let options = SolveOptions::default();

        let lanes = bicgstab3(&m, &b, &options);
        match &lanes[0] {
            Err(SolverError::NonFinite { iteration: 0, .. }) => {}
            other => panic!("expected NonFinite at iteration 0, got {other:?}"),
        }
        for (c, outcome) in lanes.iter().enumerate().skip(1) {
            let single = bicgstab(&m, clean.component(c), &options).unwrap();
            assert_same_outcome(&single, outcome.as_ref().unwrap(), &format!("survivor c={c}"));
        }
    }

    #[test]
    fn iteration_limit_reports_not_converged_per_component() {
        let n = 200;
        let m = convection(n);
        let b = rhs3(n);
        let options = SolveOptions { max_iterations: 2, tolerance: 1e-14, ..Default::default() };
        let lanes = bicgstab3(&m, &b, &options);
        for (c, outcome) in lanes.into_iter().enumerate() {
            let single = bicgstab(&m, b.component(c), &options).unwrap_err();
            let got = outcome.unwrap_err();
            match (single, got) {
                (
                    SolverError::NotConverged { final_residual: a },
                    SolverError::NotConverged { final_residual: b },
                ) => assert_eq!(a.to_bits(), b.to_bits(), "c={c}"),
                other => panic!("expected NotConverged pair, got {other:?}"),
            }
        }
    }

    /// The per-iteration trace events keep both formats: a one-lane solve
    /// records `iters = 1` with its residual bits in `aux`, a three-lane
    /// solve counts the lanes active at each iteration's start and carries
    /// their bitmask.
    #[test]
    fn iteration_events_keep_the_one_lane_and_three_lane_formats() {
        let n = 400;
        let m = convection(n);
        let b = staggered_rhs3(n);
        let options = SolveOptions::default();
        let mut team = Team::with_trace(1, lv_runtime::TraceConfig::default());
        let events_of = |team: &mut Team, span| -> Vec<lv_trace::Event> {
            let events = team.trace_mut().unwrap().events();
            team.trace_mut().unwrap().clear_events();
            events.into_iter().filter(|e| e.span == span).collect()
        };

        let single = bicgstab_on(&team, &m, b.component(0), &options).unwrap();
        let events = events_of(&mut team, spans::BICGSTAB_ITERATION);
        assert_eq!(events.len(), single.iterations);
        for (event, rel) in events.iter().zip(&single.residual_history[1..]) {
            assert_eq!((event.iters, event.aux), (1, rel.to_bits()));
        }
        let (lane_flops, lane_bytes) = (events[0].flops, events[0].bytes);

        let lanes = bicgstab3_on(&team, &m, &b, &options);
        let counts: Vec<usize> = lanes.iter().map(|l| l.as_ref().unwrap().iterations).collect();
        let events = events_of(&mut team, spans::BICGSTAB3_ITERATION);
        assert_eq!(events.len(), *counts.iter().max().unwrap());
        for (i, event) in events.iter().enumerate() {
            let active: Vec<usize> = (0..3).filter(|&c| counts[c] > i).collect();
            let lanes = active.len() as u64;
            assert_eq!(event.iters, lanes, "iteration {i}");
            assert_eq!(event.aux, active.iter().map(|c| 1u64 << c).sum::<u64>(), "iteration {i}");
            assert_eq!((event.flops, event.bytes), (lanes * lane_flops, lanes * lane_bytes));
        }
    }
}
