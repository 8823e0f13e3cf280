//! Geometric multigrid V-cycle preconditioning for the pressure Poisson
//! solve.
//!
//! The structured generators produce de-facto nested boxes (16³ ⊃ 8³ ⊃ 4³
//! …), so a geometric hierarchy is available for free: `lv-mesh` supplies
//! the nested lattices and trilinear stencils, this module turns them into
//! a V-cycle preconditioner:
//!
//! * [`Interpolation`] — a rectangular trilinear prolongation `P` stored
//!   twice (fine-row CSR for prolongation, coarse-row transpose for
//!   restriction) so **both** transfers partition disjoint output rows and
//!   accumulate each row in a fixed order — bitwise identical at every
//!   thread count, the same contract as the square kernels;
//! * Galerkin coarse operators `A_c = Pᵀ·A·P`, assembled serially at setup
//!   (deterministic, and SPD whenever `A` is SPD because `P` has full
//!   column rank);
//! * damped-Jacobi smoothing (equal pre/post sweep counts) running on the
//!   caller's [`VectorOps`] — pooled across the shared [`Team`] with the
//!   fixed-block reductions, so every cycle is reproducible;
//! * a pivoted dense LU direct solve on the coarsest level, factored once.
//!   A *fixed* coarse solve keeps the V-cycle a fixed linear operator — a
//!   tolerance-based inner CG would make the preconditioner nonlinear and
//!   void the outer CG convergence theory.
//!
//! Because damped Jacobi is self-adjoint in the `A` inner product and the
//! pre/post sweep counts match, the V-cycle is a symmetric positive-definite
//! preconditioner: [`mg_preconditioned_cg`] runs the standard PCG iteration
//! with it, against any [`LinearOperator`] backend for the fine-grid
//! product.

use crate::csr::CsrMatrix;
use crate::krylov::{conjugate_gradient_with, with_ops, SolveOptions, SolveOutcome, SolverError};
use crate::operator::{LinearOperator, Preconditioner};
use crate::parallel::VectorOps;
use lv_runtime::{SharedSliceMut, Team};
use std::collections::BTreeMap;

/// Tuning knobs of the V-cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultigridOptions {
    /// Damped-Jacobi sweeps before *and* after each coarse correction
    /// (equal counts keep the preconditioner symmetric).
    pub smoothing_sweeps: usize,
    /// Jacobi damping factor ω in `x += ω·D⁻¹·(b − A·x)`.
    pub damping: f64,
    /// Hierarchy builders stop coarsening once a lattice has at most this
    /// many nodes; that level is solved directly (dense LU).
    pub max_coarse_nodes: usize,
}

impl Default for MultigridOptions {
    fn default() -> Self {
        // Three sweeps make the cavity pressure solve mesh-independent
        // (7 MG-CG iterations at 8³, 12³ and 16³ alike); two sweeps let the
        // count creep to 9 at 16³.
        MultigridOptions { smoothing_sweeps: 3, damping: 0.8, max_coarse_nodes: 80 }
    }
}

/// A rectangular interpolation (prolongation) operator `P` from a coarse
/// level to a fine level, stored in both orientations so prolongation and
/// restriction each own disjoint output rows.
#[derive(Debug, Clone)]
pub struct Interpolation {
    fine_nodes: usize,
    coarse_nodes: usize,
    // P by fine rows: fine node f interpolates from coarse cols.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    weights: Vec<f64>,
    // Pᵀ by coarse rows, entries ordered by ascending fine node — the fixed
    // accumulation order of the restriction.
    t_row_ptr: Vec<usize>,
    t_col_idx: Vec<usize>,
    t_weights: Vec<f64>,
}

impl Interpolation {
    /// Builds the operator from fine-row CSR data (`row_ptr.len()` is the
    /// fine node count plus one; columns index coarse nodes and must be
    /// strictly increasing within a row).
    ///
    /// # Panics
    /// Panics on malformed CSR input.
    pub fn from_csr(
        coarse_nodes: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        weights: Vec<f64>,
    ) -> Self {
        assert!(!row_ptr.is_empty(), "row_ptr must hold at least the terminator");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        assert_eq!(col_idx.len(), weights.len());
        let fine_nodes = row_ptr.len() - 1;
        for f in 0..fine_nodes {
            assert!(row_ptr[f] <= row_ptr[f + 1], "row_ptr must be monotone");
            let cols = &col_idx[row_ptr[f]..row_ptr[f + 1]];
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns must be strictly increasing");
            assert!(cols.iter().all(|&c| c < coarse_nodes), "column out of range");
        }

        // Transpose by counting sort: per coarse row, entries appear in
        // ascending fine-node order — the deterministic restriction order.
        let mut counts = vec![0usize; coarse_nodes + 1];
        for &c in &col_idx {
            counts[c + 1] += 1;
        }
        for c in 0..coarse_nodes {
            counts[c + 1] += counts[c];
        }
        let t_row_ptr = counts.clone();
        let mut t_col_idx = vec![0usize; col_idx.len()];
        let mut t_weights = vec![0.0f64; col_idx.len()];
        let mut cursor = counts;
        for f in 0..fine_nodes {
            for idx in row_ptr[f]..row_ptr[f + 1] {
                let c = col_idx[idx];
                let slot = cursor[c];
                cursor[c] += 1;
                t_col_idx[slot] = f;
                t_weights[slot] = weights[idx];
            }
        }

        Interpolation {
            fine_nodes,
            coarse_nodes,
            row_ptr,
            col_idx,
            weights,
            t_row_ptr,
            t_col_idx,
            t_weights,
        }
    }

    /// Fine-level dimension (rows of `P`).
    pub fn fine_nodes(&self) -> usize {
        self.fine_nodes
    }

    /// Coarse-level dimension (columns of `P`).
    pub fn coarse_nodes(&self) -> usize {
        self.coarse_nodes
    }

    /// `fine += P·coarse`, partitioned over disjoint fine rows.
    fn prolong_add(&self, ops: &VectorOps<'_>, coarse: &[f64], fine: &mut [f64]) {
        assert_eq!(coarse.len(), self.coarse_nodes);
        assert_eq!(fine.len(), self.fine_nodes);
        let out = SharedSliceMut::new(fine);
        ops.partitioned_rows(self.fine_nodes, &|rows| {
            // SAFETY: partition ranges are disjoint fine rows.
            let slice = unsafe { out.range_mut(rows.clone()) };
            for (offset, f) in rows.enumerate() {
                let mut sum = 0.0;
                for idx in self.row_ptr[f]..self.row_ptr[f + 1] {
                    sum += self.weights[idx] * coarse[self.col_idx[idx]];
                }
                slice[offset] += sum;
            }
        });
    }

    /// `coarse = Pᵀ·fine`, partitioned over disjoint coarse rows.
    fn restrict(&self, ops: &VectorOps<'_>, fine: &[f64], coarse: &mut [f64]) {
        assert_eq!(fine.len(), self.fine_nodes);
        assert_eq!(coarse.len(), self.coarse_nodes);
        let out = SharedSliceMut::new(coarse);
        ops.partitioned_rows(self.coarse_nodes, &|rows| {
            // SAFETY: partition ranges are disjoint coarse rows.
            let slice = unsafe { out.range_mut(rows.clone()) };
            for (offset, c) in rows.enumerate() {
                let mut sum = 0.0;
                for idx in self.t_row_ptr[c]..self.t_row_ptr[c + 1] {
                    sum += self.t_weights[idx] * fine[self.t_col_idx[idx]];
                }
                slice[offset] = sum;
            }
        });
    }
}

/// Galerkin triple product `A_c = Pᵀ·A·P`, assembled serially (setup runs
/// once; a fixed traversal order keeps the coarse operators identical for
/// every thread count).  Exact zeros of `A` — the entries Dirichlet pinning
/// cleared — are skipped, so pinned rows stay decoupled on every level.
fn galerkin_coarse(a: &CsrMatrix, p: &Interpolation) -> CsrMatrix {
    assert_eq!(a.dim(), p.fine_nodes);
    let (arp, aci, av) = (a.row_ptr(), a.col_idx(), a.values());
    let mut rows: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); p.coarse_nodes];
    for k in 0..p.fine_nodes {
        for ii in p.row_ptr[k]..p.row_ptr[k + 1] {
            let ci = p.col_idx[ii];
            let wi = p.weights[ii];
            for jj in arp[k]..arp[k + 1] {
                let akj = av[jj];
                if akj == 0.0 {
                    continue;
                }
                let j = aci[jj];
                let wa = wi * akj;
                for ll in p.row_ptr[j]..p.row_ptr[j + 1] {
                    *rows[ci].entry(p.col_idx[ll]).or_insert(0.0) += wa * p.weights[ll];
                }
            }
        }
    }
    let mut row_ptr = Vec::with_capacity(p.coarse_nodes + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    for row in &rows {
        for (&c, &v) in row {
            col_idx.push(c);
            vals.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    let mut matrix = CsrMatrix::from_pattern(row_ptr, col_idx);
    let (_, _, values) = matrix.pattern_and_values_mut();
    values.copy_from_slice(&vals);
    matrix
}

/// A pivoted dense LU factorization of the coarsest operator, computed once
/// at setup; each V-cycle only runs the O(n²) triangular solves.
#[derive(Debug, Clone)]
struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    pivots: Vec<usize>,
}

impl DenseLu {
    fn from_csr(a: &CsrMatrix) -> Option<DenseLu> {
        let n = a.dim();
        let mut lu = vec![0.0; n * n];
        for r in 0..n {
            for idx in a.row_ptr()[r]..a.row_ptr()[r + 1] {
                lu[r * n + a.col_idx()[idx]] = a.values()[idx];
            }
        }
        let mut pivots = vec![0usize; n];
        for col in 0..n {
            let mut best = col;
            let mut best_abs = lu[col * n + col].abs();
            for r in col + 1..n {
                let v = lu[r * n + col].abs();
                if v > best_abs {
                    best = r;
                    best_abs = v;
                }
            }
            if best_abs < 1e-300 {
                return None;
            }
            pivots[col] = best;
            if best != col {
                for c in 0..n {
                    lu.swap(col * n + c, best * n + c);
                }
            }
            let pivot = lu[col * n + col];
            for r in col + 1..n {
                let factor = lu[r * n + col] / pivot;
                lu[r * n + col] = factor;
                if factor != 0.0 {
                    for c in col + 1..n {
                        lu[r * n + c] -= factor * lu[col * n + c];
                    }
                }
            }
        }
        Some(DenseLu { n, lu, pivots })
    }

    fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        x.copy_from_slice(b);
        for col in 0..n {
            x.swap(col, self.pivots[col]);
        }
        for r in 1..n {
            let mut sum = x[r];
            for (l, xc) in self.lu[r * n..r * n + r].iter().zip(&x[..r]) {
                sum -= l * xc;
            }
            x[r] = sum;
        }
        for r in (0..n).rev() {
            let mut sum = x[r];
            for (l, xc) in self.lu[r * n + r + 1..r * n + n].iter().zip(&x[r + 1..n]) {
                sum -= l * xc;
            }
            x[r] = sum / self.lu[r * n + r];
        }
    }
}

/// Per-level state: the (Galerkin) operator, its inverse diagonal for the
/// smoother, and the cycle's scratch vectors.
#[derive(Debug, Clone)]
struct Level {
    matrix: CsrMatrix,
    inv_diag: Vec<f64>,
    x: Vec<f64>,
    b: Vec<f64>,
    r: Vec<f64>,
    t: Vec<f64>,
}

impl Level {
    fn new(matrix: CsrMatrix) -> Level {
        let n = matrix.dim();
        let inv_diag = crate::krylov::inverse_diagonal(&matrix, true);
        Level {
            matrix,
            inv_diag,
            x: vec![0.0; n],
            b: vec![0.0; n],
            r: vec![0.0; n],
            t: vec![0.0; n],
        }
    }

    /// `sweeps` damped-Jacobi iterations on `A·x = b`.  With `from_zero` the
    /// first sweep uses the closed form `x = ω·D⁻¹·b` (A·0 vanishes).
    fn smooth(&mut self, ops: &mut VectorOps<'_>, sweeps: usize, damping: f64, from_zero: bool) {
        let mut remaining = sweeps;
        if from_zero {
            self.x.fill(0.0);
            ops.hadamard([&self.b], &self.inv_diag, [&mut self.t], [true]);
            ops.axpy([damping], [&self.t], [&mut self.x], [true]);
            remaining = remaining.saturating_sub(1);
        }
        for _ in 0..remaining {
            self.residual(ops);
            ops.hadamard([&self.r], &self.inv_diag, [&mut self.t], [true]);
            ops.axpy([damping], [&self.t], [&mut self.x], [true]);
        }
    }

    /// `r = b - A·x` (with `t = A·x` as scratch).
    fn residual(&mut self, ops: &mut VectorOps<'_>) {
        ops.apply(&self.matrix, &self.x, &mut self.t);
        ops.scaled_diff([&self.b], [1.0], [&self.t], [&mut self.r], [true]);
    }
}

/// The geometric multigrid V-cycle preconditioner.
///
/// Owns the full level hierarchy (finest operator included, so the
/// preconditioner is self-contained) and its scratch vectors; apply it
/// through [`Preconditioner::apply`] or drive a full solve with
/// [`mg_preconditioned_cg`] / [`mg_preconditioned_cg_on`].
#[derive(Debug, Clone)]
pub struct GeometricMultigrid {
    levels: Vec<Level>,
    interps: Vec<Interpolation>,
    coarse_lu: DenseLu,
    sweeps: usize,
    damping: f64,
}

impl GeometricMultigrid {
    /// Builds the hierarchy from the finest (pinned) operator and the chain
    /// of interpolations (`interps[l]` maps level `l+1` → level `l`;
    /// coarse operators are Galerkin products).  Returns `None` when the
    /// coarsest operator is numerically singular.
    ///
    /// # Panics
    /// Panics when the interpolation chain dimensions do not match, when
    /// the chain is empty, or on nonsensical options (zero sweeps,
    /// non-positive damping).
    pub fn new(
        fine: &CsrMatrix,
        interps: Vec<Interpolation>,
        options: &MultigridOptions,
    ) -> Option<GeometricMultigrid> {
        assert!(!interps.is_empty(), "multigrid needs at least one coarse level");
        assert!(options.smoothing_sweeps >= 1, "at least one smoothing sweep");
        assert!(options.damping > 0.0, "damping must be positive");
        assert_eq!(interps[0].fine_nodes, fine.dim(), "finest interpolation mismatch");
        for pair in interps.windows(2) {
            assert_eq!(pair[0].coarse_nodes, pair[1].fine_nodes, "interpolation chain mismatch");
        }

        let mut levels = vec![Level::new(fine.clone())];
        for p in &interps {
            let coarse = galerkin_coarse(&levels.last().unwrap().matrix, p);
            levels.push(Level::new(coarse));
        }
        let coarse_lu = DenseLu::from_csr(&levels.last().unwrap().matrix)?;
        Some(GeometricMultigrid {
            levels,
            interps,
            coarse_lu,
            sweeps: options.smoothing_sweeps,
            damping: options.damping,
        })
    }

    /// Number of levels, finest included.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Rows per level, finest first.
    pub fn level_rows(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.matrix.dim()).collect()
    }

    /// One V-cycle: `z ≈ A⁻¹·rhs` starting from zero.  A fixed symmetric
    /// positive-definite linear map of `rhs`, bitwise identical for every
    /// thread count of `ops`.
    pub fn v_cycle(&mut self, ops: &mut VectorOps<'_>, rhs: &[f64], z: &mut [f64]) {
        let nl = self.levels.len();
        assert_eq!(rhs.len(), self.levels[0].matrix.dim());
        assert_eq!(z.len(), rhs.len());
        let trace = ops.trace();
        let cycle = trace.map(|t| t.span(lv_trace::spans::MG_VCYCLE, 0).iters(1));
        // Per-level event: `aux` carries the level index, `iters` the smooth
        // sweeps, and the traffic model counts one matrix traversal per
        // sweep plus the residual/transfer traversal.
        let level_span = |l: usize, sweeps: usize, matrix: &CsrMatrix| {
            trace.map(|t| {
                t.span(lv_trace::spans::MG_LEVEL, 0)
                    .iters(sweeps as u64)
                    .flops((sweeps as u64 + 1) * LinearOperator::apply_flops(matrix))
                    .bytes((sweeps as u64 + 1) * LinearOperator::streamed_bytes(matrix) as u64)
                    .aux(l as u64)
            })
        };
        self.levels[0].b.copy_from_slice(rhs);
        for l in 0..nl - 1 {
            let (fine_half, coarse_half) = self.levels.split_at_mut(l + 1);
            let level = &mut fine_half[l];
            let next = &mut coarse_half[0];
            let span = level_span(l, self.sweeps, &level.matrix);
            level.smooth(ops, self.sweeps, self.damping, true);
            level.residual(ops);
            self.interps[l].restrict(ops, &level.r, &mut next.b);
            drop(span);
        }
        {
            let last = self.levels.last_mut().unwrap();
            let span = level_span(nl - 1, 0, &last.matrix);
            self.coarse_lu.solve_into(&last.b, &mut last.x);
            drop(span);
        }
        for l in (0..nl - 1).rev() {
            let (fine_half, coarse_half) = self.levels.split_at_mut(l + 1);
            let level = &mut fine_half[l];
            let next = &coarse_half[0];
            let span = level_span(l, self.sweeps, &level.matrix);
            self.interps[l].prolong_add(ops, &next.x, &mut level.x);
            level.smooth(ops, self.sweeps, self.damping, false);
            drop(span);
        }
        z.copy_from_slice(&self.levels[0].x);
        drop(cycle);
    }
}

impl Preconditioner for GeometricMultigrid {
    fn apply(&mut self, ops: &mut VectorOps<'_>, r: &[f64], z: &mut [f64]) {
        self.v_cycle(ops, r, z);
    }
}

/// Multigrid-preconditioned Conjugate Gradient against any fine-grid
/// operator backend.  Spawns a transient worker team when
/// `options.threads > 1`; the `jacobi_preconditioner` flag is ignored (the
/// V-cycle *is* the preconditioner).
pub fn mg_preconditioned_cg(
    operator: &dyn LinearOperator,
    multigrid: &mut GeometricMultigrid,
    b: &[f64],
    options: &SolveOptions,
) -> Result<SolveOutcome, SolverError> {
    with_ops(options, |ops| conjugate_gradient_with(operator, b, options, ops, multigrid))
}

/// [`mg_preconditioned_cg`] on a caller-provided worker team (the pooled
/// path a time-step loop uses).
pub fn mg_preconditioned_cg_on(
    team: &Team,
    operator: &dyn LinearOperator,
    multigrid: &mut GeometricMultigrid,
    b: &[f64],
    options: &SolveOptions,
) -> Result<SolveOutcome, SolverError> {
    conjugate_gradient_with(operator, b, options, &mut VectorOps::on_team(team), multigrid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::krylov::conjugate_gradient;

    /// 1-D Dirichlet Laplacian on `n` interior nodes of a unit interval.
    fn laplacian_1d(n: usize) -> CsrMatrix {
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

    /// Linear interpolation from `nc` coarse interior nodes to `2*nc + 1`
    /// fine interior nodes (the classic 1-D nested-grid prolongation).
    fn linear_interpolation_1d(nc: usize) -> Interpolation {
        let nf = 2 * nc + 1;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut weights = Vec::new();
        for f in 0..nf {
            if f % 2 == 1 {
                col_idx.push(f / 2);
                weights.push(1.0);
            } else {
                if f > 0 {
                    col_idx.push(f / 2 - 1);
                    weights.push(0.5);
                }
                if f / 2 < nc {
                    col_idx.push(f / 2);
                    weights.push(0.5);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Interpolation::from_csr(nc, row_ptr, col_idx, weights)
    }

    fn interpolation_dense(p: &Interpolation) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; p.coarse_nodes]; p.fine_nodes];
        for (f, row) in dense.iter_mut().enumerate() {
            for idx in p.row_ptr[f]..p.row_ptr[f + 1] {
                row[p.col_idx[idx]] = p.weights[idx];
            }
        }
        dense
    }

    #[test]
    fn restriction_is_the_exact_transpose_of_prolongation() {
        let p = linear_interpolation_1d(7);
        let dense = interpolation_dense(&p);
        let coarse_in: Vec<f64> = (0..7).map(|i| (i as f64 * 0.7).sin()).collect();
        let fine_in: Vec<f64> = (0..15).map(|i| (i as f64 * 0.3).cos()).collect();
        let ops = VectorOps::serial();

        let mut fine_out = vec![0.0; 15];
        p.prolong_add(&ops, &coarse_in, &mut fine_out);
        for f in 0..15 {
            let expect: f64 = (0..7).map(|c| dense[f][c] * coarse_in[c]).sum();
            assert!((fine_out[f] - expect).abs() < 1e-15);
        }

        let mut coarse_out = vec![0.0; 7];
        p.restrict(&ops, &fine_in, &mut coarse_out);
        for c in 0..7 {
            let expect: f64 = (0..15).map(|f| dense[f][c] * fine_in[f]).sum();
            assert!((coarse_out[c] - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn galerkin_product_matches_dense_triple_product() {
        let a = laplacian_1d(15);
        let p = linear_interpolation_1d(7);
        let coarse = galerkin_coarse(&a, &p);
        let pd = interpolation_dense(&p);
        for i in 0..7 {
            for j in 0..7 {
                let mut expect = 0.0;
                for k in 0..15 {
                    for l in 0..15 {
                        expect += pd[k][i] * a.get(k, l) * pd[l][j];
                    }
                }
                assert!(
                    (coarse.get(i, j) - expect).abs() < 1e-12,
                    "coarse[{i}][{j}] = {} != {expect}",
                    coarse.get(i, j)
                );
            }
        }
        // The 1-D nested-grid Galerkin operator is the coarse Laplacian
        // scaled by 1/2 — a quick sanity anchor.
        assert!((coarse.get(3, 3) - 1.0).abs() < 1e-12);
        assert!((coarse.get(3, 4) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn dense_lu_matches_dense_solver() {
        let a = laplacian_1d(12);
        let b: Vec<f64> = (0..12).map(|i| ((i * 5 + 2) % 7) as f64 - 3.0).collect();
        let lu = DenseLu::from_csr(&a).expect("nonsingular");
        let mut x = vec![0.0; 12];
        lu.solve_into(&b, &mut x);
        let rows: Vec<Vec<f64>> = (0..12).map(|i| (0..12).map(|j| a.get(i, j)).collect()).collect();
        let expect = DenseMatrix::from_rows(&rows).solve(&b).unwrap();
        for i in 0..12 {
            assert!((x[i] - expect[i]).abs() < 1e-10, "component {i}");
        }
    }

    #[test]
    fn singular_coarse_operator_is_reported() {
        let n = 7;
        let singular = CsrMatrix::from_dense(&vec![vec![0.0; n]; n]);
        assert!(DenseLu::from_csr(&singular).is_none());
    }

    fn two_level_1d(nc: usize, options: &MultigridOptions) -> (CsrMatrix, GeometricMultigrid) {
        let nf = 2 * nc + 1;
        let a = laplacian_1d(nf);
        let p = linear_interpolation_1d(nc);
        let mg = GeometricMultigrid::new(&a, vec![p], options).expect("SPD hierarchy");
        (a, mg)
    }

    /// The V-cycle must be a symmetric operator: `e_iᵀ·M⁻¹·e_j` computed
    /// both ways agrees to rounding.  (Equal pre/post damped-Jacobi sweeps
    /// + Galerkin coarse operators + exact coarse solve ⇒ symmetric.)
    #[test]
    fn v_cycle_is_a_symmetric_preconditioner() {
        let (_, mut mg) = two_level_1d(15, &MultigridOptions::default());
        let n = 31;
        let mut ops = VectorOps::serial();
        for (i, j) in [(0usize, 7usize), (3, 19), (11, 30)] {
            let mut ei = vec![0.0; n];
            ei[i] = 1.0;
            let mut ej = vec![0.0; n];
            ej[j] = 1.0;
            let mut mi = vec![0.0; n];
            mg.v_cycle(&mut ops, &ei, &mut mi);
            let mut mj = vec![0.0; n];
            mg.v_cycle(&mut ops, &ej, &mut mj);
            assert!(
                (mi[j] - mj[i]).abs() < 1e-13 * (1.0 + mi[j].abs()),
                "asymmetry at ({i},{j}): {} vs {}",
                mi[j],
                mj[i]
            );
        }
    }

    #[test]
    fn mgcg_beats_plain_cg_on_the_1d_laplacian() {
        let (a, mut mg) = two_level_1d(63, &MultigridOptions::default());
        let n = 127;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64 * 3.1).sin()).collect();
        let options = SolveOptions::default();
        let plain = conjugate_gradient(&a, &b, &options).expect("plain CG converges");
        let mgcg = mg_preconditioned_cg(&a, &mut mg, &b, &options).expect("MG-CG converges");
        assert!(
            mgcg.iterations < plain.iterations / 2,
            "MG-CG ({}) should need far fewer iterations than CG ({})",
            mgcg.iterations,
            plain.iterations
        );
        let residual: Vec<f64> =
            a.mul_vec(&mgcg.solution).iter().zip(&b).map(|(ax, bi)| ax - bi).collect();
        let rel = residual.iter().map(|x| x * x).sum::<f64>().sqrt()
            / b.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(rel < 1e-9, "true residual {rel}");
    }

    /// The headline contract: V-cycles and full MG-CG solves are bitwise
    /// identical for threads ∈ {1, 2, 4}.  The fine level clears
    /// `SERIAL_CUTOFF` so the pooled paths really fork.
    #[test]
    fn mgcg_is_bitwise_reproducible_across_thread_counts() {
        let nc = 1023; // fine level: 2047 rows
        let (a, mut mg) = two_level_1d(nc, &MultigridOptions::default());
        let n = 2 * nc + 1;
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 29) as f64 / 7.0 - 2.0).collect();
        let options = SolveOptions { tolerance: 1e-9, ..Default::default() };
        let reference = mg_preconditioned_cg(&a, &mut mg, &b, &options).expect("serial MG-CG");
        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let got =
                mg_preconditioned_cg_on(&team, &a, &mut mg, &b, &options).expect("pooled MG-CG");
            assert_eq!(got.iterations, reference.iterations, "threads={threads}");
            for (x, y) in reference.residual_history.iter().zip(&got.residual_history) {
                assert_eq!(x.to_bits(), y.to_bits(), "history threads={threads}");
            }
            for (x, y) in reference.solution.iter().zip(&got.solution) {
                assert_eq!(x.to_bits(), y.to_bits(), "solution threads={threads}");
            }
        }
    }
}
