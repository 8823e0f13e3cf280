//! The momentum-increment solve of a semi-implicit time step: three
//! component systems sharing one assembled matrix.
//!
//! The examples' time-step loop is always the same: assemble, apply
//! Dirichlet rows, then solve `A·Δu_c = b_c` for the three velocity
//! components.  This module is the single entry point both
//! `cavity_flow` and `channel_flow` drive.  Both paths run the one
//! lane-generic BiCGSTAB core of `lv-solver`; a [`MomentumPath`] picks its
//! width:
//!
//! * [`Sequential`](MomentumPath::Sequential) — three one-lane
//!   [`lv_solver::bicgstab_on`] solves, one per component.  The oracle.
//! * [`Batched`](MomentumPath::Batched) — one three-lane
//!   [`lv_solver::bicgstab3_on`] solve: one matrix traversal per Krylov
//!   iteration serves all three components (the SpMM path), one fork/join
//!   per fused BLAS-1 operation instead of three.
//!
//! The two paths are **bitwise identical** per component (every lane of
//! the core runs the same arithmetic), so the flag trades only wall-clock,
//! never physics — which is exactly why the examples can default to the
//! batched path while keeping the sequential one as the oracle the tests
//! compare against.

use lv_runtime::Team;
use lv_solver::{
    bicgstab3_on, bicgstab_on, CsrMatrix, MultiVector, SolveOptions, SolverError, NRHS,
};

/// How the three momentum-component systems of a time step are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MomentumPath {
    /// Three sequential single-RHS BiCGSTAB solves (the oracle).
    Sequential,
    /// One batched three-RHS BiCGSTAB solve (one matrix stream per
    /// iteration; bitwise identical to the sequential path per component).
    Batched,
}

impl MomentumPath {
    /// Short name used by the examples' output.
    pub fn name(&self) -> &'static str {
        match self {
            MomentumPath::Sequential => "sequential",
            MomentumPath::Batched => "batched",
        }
    }

    /// Parses an example CLI argument (`"seq"`/`"sequential"` or
    /// `"batched"`); `None` for anything else.
    pub fn from_arg(arg: &str) -> Option<Self> {
        match arg {
            "seq" | "sequential" => Some(MomentumPath::Sequential),
            "batched" | "spmm" => Some(MomentumPath::Batched),
            _ => None,
        }
    }
}

/// Result of one momentum solve (all three components).
#[derive(Debug, Clone)]
pub struct MomentumSolve {
    /// The velocity increment, node-interleaved (`increment[NRHS*node + c]`
    /// — the storage layout of a `lv_mesh::VectorField`).
    pub increment: Vec<f64>,
    /// Krylov iterations of each component solve.
    pub iterations: [usize; NRHS],
    /// Worst final relative residual across the components.
    pub worst_residual: f64,
}

impl MomentumSolve {
    /// Total Krylov iterations across the three components.
    pub fn total_iterations(&self) -> usize {
        self.iterations.iter().sum()
    }
}

/// Solves the three momentum-increment systems on the caller's worker team,
/// through the sequential or the batched path.
///
/// `rhs` is the assembled node-interleaved right-hand side
/// (`rhs[NRHS*node + c]`, Dirichlet rows already applied); the returned
/// increment uses the same layout.  The two paths produce bitwise identical
/// increments, iteration counts and residuals.
///
/// # Errors
/// Returns the first component's solver error if any component fails to
/// converge or breaks down.
pub fn solve_momentum_on(
    team: &Team,
    matrix: &CsrMatrix,
    rhs: &[f64],
    options: &SolveOptions,
    path: MomentumPath,
) -> Result<MomentumSolve, SolverError> {
    let n = matrix.dim();
    assert_eq!(rhs.len(), NRHS * n, "rhs must be the node-interleaved 3-component layout");
    let mut increment = vec![0.0; NRHS * n];
    let mut iterations = [0usize; NRHS];
    let mut worst_residual = 0.0f64;
    match path {
        MomentumPath::Sequential => {
            for c in 0..NRHS {
                let b: Vec<f64> = (0..n).map(|i| rhs[NRHS * i + c]).collect();
                let solve = bicgstab_on(team, matrix, &b, options)?;
                iterations[c] = solve.iterations;
                worst_residual = worst_residual.max(solve.final_residual());
                for (node, &du) in solve.solution.iter().enumerate() {
                    increment[NRHS * node + c] = du;
                }
            }
        }
        MomentumPath::Batched => {
            let b = MultiVector::from_interleaved(rhs);
            let outcomes = bicgstab3_on(team, matrix, &b, options);
            for (c, outcome) in outcomes.into_iter().enumerate() {
                let solve = outcome?;
                iterations[c] = solve.iterations;
                worst_residual = worst_residual.max(solve.final_residual());
                for (node, &du) in solve.solution.iter().enumerate() {
                    increment[NRHS * node + c] = du;
                }
            }
        }
    }
    Ok(MomentumSolve { increment, iterations, worst_residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::NastinAssembly;
    use crate::config::{KernelConfig, OptLevel};
    use lv_mesh::structured::BoxMeshBuilder;
    use lv_mesh::{Field, Vec3, VectorField};

    fn assembled_system() -> (CsrMatrix, Vec<f64>) {
        let mesh = BoxMeshBuilder::new(4, 4, 4).lid_driven_cavity().with_jitter(0.1, 9).build();
        let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(32, OptLevel::Vec1));
        let mut velocity = VectorField::taylor_green(&mesh);
        velocity.apply_boundary_conditions(&mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
        let pressure = Field::from_fn(&mesh, |p| p.x * p.y);
        let mut out = asm.assemble(&velocity, &pressure);
        asm.apply_dirichlet(&mut out.matrix, &mut out.rhs);
        (out.matrix, out.rhs)
    }

    #[test]
    fn batched_and_sequential_paths_are_bitwise_identical() {
        let (matrix, rhs) = assembled_system();
        let options = SolveOptions::default();
        for threads in [1usize, 2] {
            let team = Team::new(threads);
            let seq = solve_momentum_on(&team, &matrix, &rhs, &options, MomentumPath::Sequential)
                .expect("sequential momentum solve");
            let bat = solve_momentum_on(&team, &matrix, &rhs, &options, MomentumPath::Batched)
                .expect("batched momentum solve");
            assert_eq!(seq.iterations, bat.iterations, "threads={threads}");
            assert_eq!(
                seq.worst_residual.to_bits(),
                bat.worst_residual.to_bits(),
                "threads={threads}"
            );
            for (a, b) in seq.increment.iter().zip(&bat.increment) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
            assert!(seq.total_iterations() > 0);
            assert!(seq.worst_residual < 1e-8);
        }
    }

    #[test]
    fn path_flag_parsing() {
        assert_eq!(MomentumPath::from_arg("seq"), Some(MomentumPath::Sequential));
        assert_eq!(MomentumPath::from_arg("sequential"), Some(MomentumPath::Sequential));
        assert_eq!(MomentumPath::from_arg("batched"), Some(MomentumPath::Batched));
        assert_eq!(MomentumPath::from_arg("spmm"), Some(MomentumPath::Batched));
        assert_eq!(MomentumPath::from_arg("nope"), None);
        assert_eq!(MomentumPath::Batched.name(), "batched");
        assert_eq!(MomentumPath::Sequential.name(), "sequential");
    }
}
