//! # lv-solver
//!
//! Sparse linear-algebra substrate for the CFD reproduction.
//!
//! Section 2.3 of the paper notes that CFD applications are structured into
//! two primary operations: (i) matrix and right-hand-side assembly — the
//! mini-app the paper studies — and (ii) the algebraic linear solver.  The
//! mini-app stops after the assembly, but a usable reproduction needs the
//! solver half too so the examples can run complete time steps
//! (lid-driven cavity, channel flow).  This crate provides:
//!
//! * [`csr`] — a compressed-sparse-row matrix built from the mesh node graph,
//!   with scatter-add assembly (the destination of phase 8), SpMV, and
//!   Dirichlet row/column elimination;
//! * [`krylov`] — Jacobi-preconditioned Conjugate Gradient and BiCGSTAB with
//!   convergence tracking, serial or on a shared worker pool with bitwise
//!   identical results for every thread count.  BiCGSTAB is one driver
//!   generic over a lane count: [`bicgstab`] solves one right-hand side,
//!   [`bicgstab3`] the three momentum components with one matrix traversal
//!   per iteration, each lane bitwise identical to its single solve;
//! * [`multivector`] — the SoA storage of `K` equal-length lanes;
//! * [`operator`] — the [`LinearOperator`] abstraction the Krylov loops
//!   consume: anything that can apply `y = A·x` over a row range and expose
//!   its diagonal (assembled CSR and matrix-free operators alike);
//! * [`multigrid`] — geometric-multigrid V-cycle (trilinear interpolation,
//!   Galerkin coarse operators, damped-Jacobi smoothing, dense-LU coarsest
//!   solve) and the [`mg_preconditioned_cg`] solver it preconditions,
//!   bitwise reproducible at every thread count;
//! * [`parallel`] — the deterministic parallel kernels behind them:
//!   row-partitioned SpMV and fixed-block BLAS-1 on an [`lv_runtime::Team`],
//!   each written once for any number of lanes;
//! * [`dense`] — a tiny dense solver used for cross-checking the sparse path
//!   in tests.

#![warn(missing_docs)]

pub mod csr;
pub mod dense;
pub mod krylov;
pub mod multigrid;
pub mod multivector;
pub mod operator;
pub mod parallel;

pub use csr::{CsrMatrix, ProfileStats};
pub use dense::DenseMatrix;
pub use krylov::{
    bicgstab, bicgstab3, bicgstab3_on, bicgstab_on, conjugate_gradient, conjugate_gradient_on,
    BatchedOutcome, BreakdownKind, SolveOptions, SolveOutcome, SolverError,
};
pub use multigrid::{
    mg_preconditioned_cg, mg_preconditioned_cg_on, GeometricMultigrid, Interpolation,
    MultigridOptions,
};
pub use multivector::{MultiVector, NRHS};
pub use operator::{JacobiPreconditioner, LinearOperator, Preconditioner};
pub use parallel::{first_non_finite, VectorOps};
