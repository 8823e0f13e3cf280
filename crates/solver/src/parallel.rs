//! The parallel linear-algebra subsystem: row-partitioned SpMV and
//! deterministic BLAS-1 kernels on the shared worker pool.
//!
//! Every operation a Krylov iteration performs — SpMV, dot products, norms
//! and a handful of fused element-wise updates — exists here exactly once,
//! generic over a lane count `K`: it acts on `K` vectors at a time
//! (`[&[f64]; K]` lanes, `[f64; K]` scalars and a `[bool; K]` mask of the
//! active lanes), and runs serially or across an [`lv_runtime::Team`].  The
//! single-vector solvers instantiate it at `K = 1`, the three-component
//! momentum solve at `K = 3`; per lane the arithmetic is the same, so a
//! lane of a `K = 3` kernel is bitwise identical to the `K = 1` kernel on
//! that vector.  Inactive lanes are skipped, not dropped: their outputs are
//! never written, so a converged lane's iterate stays frozen bit for bit.
//!
//! * **SpMV** partitions the output rows statically
//!   ([`lv_runtime::partition`]); rows are disjoint, each row accumulates in
//!   column order, so the product is bitwise identical for every thread
//!   count (no coloring needed).  One matrix traversal serves all lanes.
//! * **Element-wise updates** (`axpy` and friends) evaluate the same
//!   per-element expression under the same static partition — bitwise
//!   identical by construction.  One fork/join serves all lanes.
//! * **Reductions** (`dot`, `norm`) use the fixed-block scheme of
//!   [`lv_runtime::blocked_reduce`]: block boundaries depend only on the
//!   length, partials combine in block order, so the value is bitwise
//!   identical for every thread count *including the serial path, which
//!   runs the very same blocked order*.
//!
//! The consequence the tests pin down: a CG or BiCGSTAB solve produces
//! **bitwise identical solutions, iteration counts and residual histories**
//! whether it runs serially or on a team of any size.

use crate::csr::CsrMatrix;
use crate::operator::LinearOperator;
use lv_runtime::{blocked_reduce, partition, SharedSliceMut, Team, Trace};
use std::ops::Range;

/// Element-wise operations on vectors shorter than this stay on the calling
/// thread even when a team is available: below it, the fork/join hand-shake
/// costs more than the loop.  Determinism is unaffected (the per-element
/// results do not depend on who computes them), only scheduling is.
pub const SERIAL_CUTOFF: usize = 1024;

/// Index of the first non-finite (NaN/±Inf) entry of `values`, scanning in
/// order; `None` when every entry is finite.
///
/// This is the guard the blocked reductions lean on: `dot`/`norm` results
/// involving a NaN are themselves NaN, so callers (the Krylov loops, the
/// driver's CFL controller) check the *reduced* value and use this scan only
/// to report **where** the poison sits — an O(n) diagnostic on the failure
/// path, free on the hot path.
pub fn first_non_finite(values: &[f64]) -> Option<usize> {
    values.iter().position(|v| !v.is_finite())
}

/// Panics unless every lane of every lane set has length `n`.
fn assert_lanes(n: usize, sets: &[&[&[f64]]]) {
    assert!(sets.iter().flat_map(|set| set.iter()).all(|lane| lane.len() == n), "lane length");
}

/// The vector/matrix kernels of a solve, bound to an optional worker team.
///
/// Holds the reduction scratch so per-iteration dot products do not
/// allocate.  Construct one per solve ([`VectorOps::serial`] or
/// [`VectorOps::on_team`]) and pass it to the Krylov drivers.
#[derive(Debug)]
pub struct VectorOps<'t> {
    team: Option<&'t Team>,
    /// Telemetry sink of the team, if any.  Kept separately from `team`
    /// because a one-thread team degrades `team` to `None` (serial
    /// scheduling) but must still record its solver events — the counter
    /// determinism suite compares 1-thread traces against multi-thread ones.
    trace: Option<&'t Trace>,
    scratch: Vec<f64>,
}

impl<'t> VectorOps<'t> {
    /// Serial kernels (the classic single-thread path).
    pub fn serial() -> Self {
        VectorOps { team: None, trace: None, scratch: Vec::new() }
    }

    /// Kernels running on `team`.  A one-thread team degrades to the serial
    /// path with zero dispatch (but keeps the team's trace, when present).
    pub fn on_team(team: &'t Team) -> Self {
        VectorOps {
            team: if team.num_threads() > 1 { Some(team) } else { None },
            trace: team.trace(),
            scratch: Vec::new(),
        }
    }

    /// The worker count this instance schedules for (1 when serial).
    pub fn threads(&self) -> usize {
        self.team.map_or(1, Team::num_threads)
    }

    /// The telemetry trace of the team these kernels run on, when tracing
    /// is enabled.  Instrumented solver loops record their per-iteration
    /// events through this accessor; `None` costs one branch per iteration.
    #[inline]
    pub fn trace(&self) -> Option<&'t Trace> {
        self.trace
    }

    /// Runs `f` once per non-empty static-partition range of `0..n` — across
    /// the team when `n` clears [`SERIAL_CUTOFF`], on the caller otherwise.
    ///
    /// This is the scheduling primitive behind every kernel in this type,
    /// exposed so rectangular operators (the multigrid grid transfers) can
    /// inherit the same partitioning — and therefore the same determinism
    /// contract — as the square kernels.  `f` must write only state it owns
    /// for its range; ranges are disjoint.
    #[inline]
    pub fn partitioned_rows(&self, n: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        match self.team {
            Some(team) if n >= SERIAL_CUTOFF => {
                let threads = team.num_threads();
                team.run(&|rank| {
                    let range = partition(n, threads, rank);
                    if !range.is_empty() {
                        f(range);
                    }
                });
            }
            _ => f(0..n),
        }
    }

    /// The loop skeleton of every element-wise kernel: one partitioned pass
    /// over `0..n` that hands `f(c, range, &mut out[c][range])` each active
    /// lane's share of the output, after checking every input lane (`inputs`)
    /// and output lane against `n`.
    fn update_lanes<const K: usize, F>(
        &self,
        inputs: &[&[&[f64]]],
        out: [&mut [f64]; K],
        active: [bool; K],
        f: F,
    ) where
        F: Fn(usize, Range<usize>, &mut [f64]) + Sync,
    {
        let n = out[0].len();
        assert_lanes(n, inputs);
        assert!(out.iter().all(|lane| lane.len() == n), "lane length");
        let out = out.map(SharedSliceMut::new);
        self.partitioned_rows(n, &|range| {
            for c in (0..K).filter(|&c| active[c]) {
                // SAFETY: partition ranges are disjoint, so each rank owns
                // its share of every output lane exclusively.
                f(c, range.clone(), unsafe { out[c].range_mut(range.clone()) });
            }
        });
    }

    /// `y = A·x` for any [`LinearOperator`] backend, row-partitioned across
    /// the team.
    ///
    /// # Panics
    /// Panics if the vector lengths do not match the operator dimension.
    pub fn apply(&mut self, operator: &dyn LinearOperator, x: &[f64], y: &mut [f64]) {
        let n = operator.dim();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let out = SharedSliceMut::new(y);
        self.partitioned_rows(n, &|rows| {
            // SAFETY: partition ranges are disjoint, so each rank owns its
            // output rows exclusively.
            let slice = unsafe { out.range_mut(rows.clone()) };
            operator.apply_range(x, rows, slice);
        });
    }

    /// `y_c = A·x_c` for the active lanes with **one** matrix traversal,
    /// row-partitioned across the team ([`CsrMatrix::spmm_range`]): inactive
    /// lanes skip their stores and `x` gathers, but the values/col_idx
    /// streams are read exactly once whatever the mask.  Each lane is
    /// bitwise identical to [`apply`](Self::apply) of that lane.
    ///
    /// # Panics
    /// Panics if the lane lengths do not match the matrix dimension.
    pub fn spmm<const K: usize>(
        &mut self,
        matrix: &CsrMatrix,
        x: [&[f64]; K],
        y: [&mut [f64]; K],
        active: [bool; K],
    ) {
        let n = matrix.dim();
        assert_lanes(n, &[&x]);
        assert!(y.iter().all(|lane| lane.len() == n), "lane length");
        let ys = y.map(SharedSliceMut::new);
        self.partitioned_rows(n, &|rows| {
            // SAFETY: partition ranges are disjoint, so each rank owns its
            // output rows of every lane exclusively.
            let out = std::array::from_fn(|c| unsafe { ys[c].range_mut(rows.clone()) });
            matrix.spmm_range(x, rows.clone(), out, active);
        });
    }

    /// Blocked dot products `aᵀ_c b_c` in one fused reduction
    /// (deterministic for every thread count; inactive lanes return 0).
    pub fn dot<const K: usize>(
        &mut self,
        a: [&[f64]; K],
        b: [&[f64]; K],
        active: [bool; K],
    ) -> [f64; K] {
        let n = a[0].len();
        assert_lanes(n, &[&a, &b]);
        // Same cutoff as the element-wise ops: below it the fork/join costs
        // more than the reduction.  The serial path runs the identical
        // blocked order, so the value does not depend on the choice.
        let team = if n >= SERIAL_CUTOFF { self.team } else { None };
        blocked_reduce(team, n, &mut self.scratch, |r| {
            std::array::from_fn(|c| {
                if active[c] {
                    a[c][r.clone()].iter().zip(&b[c][r.clone()]).map(|(x, y)| x * y).sum()
                } else {
                    0.0
                }
            })
        })
    }

    /// Blocked Euclidean norms ‖a_c‖ (0 for inactive lanes).
    pub fn norm<const K: usize>(&mut self, a: [&[f64]; K], active: [bool; K]) -> [f64; K] {
        self.dot(a, a, active).map(f64::sqrt)
    }

    /// `y_c[i] += alpha_c * x_c[i]`.
    pub fn axpy<const K: usize>(
        &mut self,
        alpha: [f64; K],
        x: [&[f64]; K],
        y: [&mut [f64]; K],
        active: [bool; K],
    ) {
        self.update_lanes(&[&x], y, active, |c, range, ys| {
            for (yi, xi) in ys.iter_mut().zip(&x[c][range]) {
                *yi += alpha[c] * xi;
            }
        });
    }

    /// `x_c[i] += alpha_c * p_c[i] + omega_c * s_c[i]` — the fused BiCGSTAB
    /// solution update, kept as one expression so the parallel path
    /// reproduces the serial rounding exactly.
    pub fn axpy2<const K: usize>(
        &mut self,
        alpha: [f64; K],
        p: [&[f64]; K],
        omega: [f64; K],
        s: [&[f64]; K],
        x: [&mut [f64]; K],
        active: [bool; K],
    ) {
        self.update_lanes(&[&p, &s], x, active, |c, range, xs| {
            for ((xi, pi), si) in xs.iter_mut().zip(&p[c][range.clone()]).zip(&s[c][range]) {
                *xi += alpha[c] * pi + omega[c] * si;
            }
        });
    }

    /// `out_c[i] = a_c[i] * d[i]` — the Jacobi preconditioner application
    /// (`d` is shared by the lanes: it depends only on the matrix).
    pub fn hadamard<const K: usize>(
        &mut self,
        a: [&[f64]; K],
        d: &[f64],
        out: [&mut [f64]; K],
        active: [bool; K],
    ) {
        self.update_lanes(&[&a, &[d]], out, active, |c, range, os| {
            for ((oi, ai), di) in os.iter_mut().zip(&a[c][range.clone()]).zip(&d[range]) {
                *oi = ai * di;
            }
        });
    }

    /// `p_c[i] = z_c[i] + beta_c * p_c[i]` — the CG direction update.
    pub fn xpby<const K: usize>(
        &mut self,
        z: [&[f64]; K],
        beta: [f64; K],
        p: [&mut [f64]; K],
        active: [bool; K],
    ) {
        self.update_lanes(&[&z], p, active, |c, range, ps| {
            for (pi, zi) in ps.iter_mut().zip(&z[c][range]) {
                *pi = zi + beta[c] * *pi;
            }
        });
    }

    /// `out_c[i] = a_c[i] - k_c * b_c[i]` — residual-style updates
    /// (`s = r - alpha*v`, `r = s - omega*t`).
    pub fn scaled_diff<const K: usize>(
        &mut self,
        a: [&[f64]; K],
        k: [f64; K],
        b: [&[f64]; K],
        out: [&mut [f64]; K],
        active: [bool; K],
    ) {
        self.update_lanes(&[&a, &b], out, active, |c, range, os| {
            for ((oi, ai), bi) in os.iter_mut().zip(&a[c][range.clone()]).zip(&b[c][range]) {
                *oi = ai - k[c] * bi;
            }
        });
    }

    /// `p_c[i] = r_c[i] + beta_c * (p_c[i] - omega_c * v_c[i])` — the
    /// BiCGSTAB direction update, fused to match the serial expression bit
    /// for bit.
    pub fn direction_update<const K: usize>(
        &mut self,
        r: [&[f64]; K],
        beta: [f64; K],
        omega: [f64; K],
        v: [&[f64]; K],
        p: [&mut [f64]; K],
        active: [bool; K],
    ) {
        self.update_lanes(&[&r, &v], p, active, |c, range, ps| {
            for ((pi, ri), vi) in ps.iter_mut().zip(&r[c][range.clone()]).zip(&v[c][range]) {
                *pi = ri + beta[c] * (*pi - omega[c] * vi);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multivector::MultiVector;

    fn vec_a(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.137).sin() * 3.0 + 0.25).collect()
    }

    fn vec_b(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.731).cos() - 0.125).collect()
    }

    fn tridiag(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 3.0 + (i % 5) as f64;
            if i > 0 {
                row[i - 1] = -1.25;
            }
            if i + 1 < n {
                row[i + 1] = -0.75;
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    /// The contract the whole subsystem rests on: every kernel is bitwise
    /// identical between the serial path and teams of 1, 2 and 4 threads.
    /// `n` is chosen above `SERIAL_CUTOFF` so the team paths really fork.
    #[test]
    fn kernels_are_bitwise_identical_across_thread_counts() {
        let n = 4 * SERIAL_CUTOFF + 333;
        let a = vec_a(n);
        let b = vec_b(n);
        let m = tridiag(n);

        let mut serial = VectorOps::serial();
        let dot_s = serial.dot([&a], [&b], [true]);
        let norm_s = serial.norm([&a], [true]);
        let mut spmv_s = vec![0.0; n];
        serial.apply(&m, &a, &mut spmv_s);
        let mut axpy_s = b.clone();
        serial.axpy([1.5], [&a], [&mut axpy_s], [true]);

        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let mut ops = VectorOps::on_team(&team);
            let dot = ops.dot([&a], [&b], [true]);
            assert_eq!(dot[0].to_bits(), dot_s[0].to_bits(), "dot threads={threads}");
            let norm = ops.norm([&a], [true]);
            assert_eq!(norm[0].to_bits(), norm_s[0].to_bits(), "norm threads={threads}");
            let mut y = vec![0.0; n];
            ops.apply(&m, &a, &mut y);
            for (s, p) in spmv_s.iter().zip(&y) {
                assert_eq!(s.to_bits(), p.to_bits(), "spmv threads={threads}");
            }
            let mut y = vec![0.0; n];
            ops.spmm(&m, [&a], [&mut y], [true]);
            assert_eq!(y, spmv_s, "one-lane spmm threads={threads}");
            let mut y = b.clone();
            ops.axpy([1.5], [&a], [&mut y], [true]);
            for (s, p) in axpy_s.iter().zip(&y) {
                assert_eq!(s.to_bits(), p.to_bits(), "axpy threads={threads}");
            }
        }
    }

    #[test]
    fn fused_updates_match_their_scalar_expressions() {
        let n = 2 * SERIAL_CUTOFF + 7;
        let r = vec_a(n);
        let v = vec_b(n);
        let team = Team::new(3);
        let mut ops = VectorOps::on_team(&team);
        let (alpha, beta, omega) = (0.375, -1.5, 0.625);

        let mut p = vec_b(n);
        let expect: Vec<f64> =
            r.iter().zip(&p).zip(&v).map(|((ri, pi), vi)| ri + beta * (pi - omega * vi)).collect();
        ops.direction_update([&r], [beta], [omega], [&v], [&mut p], [true]);
        assert_eq!(p, expect);

        let mut x = vec_a(n);
        let expect: Vec<f64> =
            x.iter().zip(&r).zip(&v).map(|((xi, pi), si)| xi + (alpha * pi + omega * si)).collect();
        ops.axpy2([alpha], [&r], [omega], [&v], [&mut x], [true]);
        assert_eq!(x, expect);

        let mut out = vec![0.0; n];
        ops.hadamard([&r], &v, [&mut out], [true]);
        assert_eq!(out, r.iter().zip(&v).map(|(a, b)| a * b).collect::<Vec<_>>());

        ops.scaled_diff([&r], [omega], [&v], [&mut out], [true]);
        assert_eq!(out, r.iter().zip(&v).map(|(a, b)| a - omega * b).collect::<Vec<_>>());

        let mut p = vec_b(n);
        let expect: Vec<f64> = r.iter().zip(&p).map(|(zi, pi)| zi + beta * pi).collect();
        ops.xpby([&r], [beta], [&mut p], [true]);
        assert_eq!(p, expect);
    }

    #[test]
    fn short_vectors_stay_on_the_caller_and_stay_correct() {
        let n = 100; // below SERIAL_CUTOFF
        let a = vec_a(n);
        let b = vec_b(n);
        let team = Team::new(4);
        let mut ops = VectorOps::on_team(&team);
        let mut serial = VectorOps::serial();
        assert_eq!(
            ops.dot([&a], [&b], [true])[0].to_bits(),
            serial.dot([&a], [&b], [true])[0].to_bits()
        );
        let mut y1 = b.clone();
        let mut y2 = b.clone();
        ops.axpy([0.5], [&a], [&mut y1], [true]);
        serial.axpy([0.5], [&a], [&mut y2], [true]);
        assert_eq!(y1, y2);
    }

    #[test]
    fn one_thread_team_degrades_to_serial() {
        let team = Team::new(1);
        let ops = VectorOps::on_team(&team);
        assert_eq!(ops.threads(), 1);
    }

    /// The non-finite scan pinpoints NaN and ±Inf alike, and the blocked
    /// reductions propagate (rather than mask) a poisoned entry — which is
    /// what lets the Krylov guards detect it from the reduced value alone.
    #[test]
    fn non_finite_entries_are_located_and_poison_reductions() {
        assert_eq!(first_non_finite(&[1.0, 2.0, 3.0]), None);
        assert_eq!(first_non_finite(&[1.0, f64::NAN, f64::INFINITY]), Some(1));
        assert_eq!(first_non_finite(&[f64::NEG_INFINITY]), Some(0));
        assert_eq!(first_non_finite(&[]), None);

        let n = 2 * SERIAL_CUTOFF;
        let mut a = vec_a(n);
        a[n / 2] = f64::NAN;
        for threads in [1usize, 2] {
            let team = Team::new(threads);
            let mut ops = VectorOps::on_team(&team);
            assert!(ops.norm([&a], [true])[0].is_nan(), "threads={threads}");
            assert!(ops.dot([&a], [&a], [true])[0].is_nan(), "threads={threads}");
        }
    }

    fn multi(n: usize) -> MultiVector {
        MultiVector::from_columns([
            &vec_a(n),
            &vec_b(n),
            &(0..n).map(|i| ((i * 11 + 5) % 23) as f64 / 2.3 - 5.0).collect::<Vec<_>>(),
        ])
    }

    /// Each kernel's three-lane instance reproduces its one-lane instance
    /// bit for bit, per lane, serially and across teams.
    #[test]
    fn three_wide_kernels_match_single_kernels_bitwise() {
        let n = 3 * SERIAL_CUTOFF + 111;
        let a = multi(n);
        let b = multi(n);
        let d = vec_a(n);
        let m = tridiag(n);
        let all = [true; 3];
        let (alpha, beta, omega) = ([0.5, -1.25, 2.0], [1.5, 0.25, -0.75], [0.125, -2.0, 0.5]);
        let (ac, bc) = (a.components(), b.components());

        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let mut ops = VectorOps::on_team(&team);
            let mut single = VectorOps::serial();

            let mut y3 = MultiVector::zeros(n);
            ops.spmm(&m, ac, y3.components_mut(), all);
            let dots = ops.dot(ac, bc, all);
            let norms = ops.norm(ac, all);
            let mut axpy_m = b.clone();
            ops.axpy(alpha, ac, axpy_m.components_mut(), all);
            let mut had_m = MultiVector::zeros(n);
            ops.hadamard(ac, &d, had_m.components_mut(), all);
            let mut xpby_m = b.clone();
            ops.xpby(ac, beta, xpby_m.components_mut(), all);
            let mut diff_m = MultiVector::zeros(n);
            ops.scaled_diff(ac, omega, bc, diff_m.components_mut(), all);
            let mut dir_m = b.clone();
            ops.direction_update(ac, beta, omega, bc, dir_m.components_mut(), all);
            let mut axpy2_m = a.clone();
            ops.axpy2(alpha, ac, omega, bc, axpy2_m.components_mut(), all);

            for c in 0..3 {
                let (ac, bc) = (ac[c], bc[c]);
                let mut y = vec![0.0; n];
                single.apply(&m, ac, &mut y);
                assert_eq!(y, y3.component(c), "spmm t={threads} c={c}");
                let dot = single.dot([ac], [bc], [true]);
                assert_eq!(dot[0].to_bits(), dots[c].to_bits(), "dot t={threads} c={c}");
                let norm = single.norm([ac], [true]);
                assert_eq!(norm[0].to_bits(), norms[c].to_bits(), "norm t={threads} c={c}");
                let mut y = bc.to_vec();
                single.axpy([alpha[c]], [ac], [&mut y], [true]);
                assert_eq!(y, axpy_m.component(c), "axpy t={threads} c={c}");
                let mut y = vec![0.0; n];
                single.hadamard([ac], &d, [&mut y], [true]);
                assert_eq!(y, had_m.component(c), "hadamard t={threads} c={c}");
                let mut y = bc.to_vec();
                single.xpby([ac], [beta[c]], [&mut y], [true]);
                assert_eq!(y, xpby_m.component(c), "xpby t={threads} c={c}");
                let mut y = vec![0.0; n];
                single.scaled_diff([ac], [omega[c]], [bc], [&mut y], [true]);
                assert_eq!(y, diff_m.component(c), "scaled_diff t={threads} c={c}");
                let mut y = bc.to_vec();
                single.direction_update([ac], [beta[c]], [omega[c]], [bc], [&mut y], [true]);
                assert_eq!(y, dir_m.component(c), "direction_update t={threads} c={c}");
                let mut y = ac.to_vec();
                single.axpy2([alpha[c]], [ac], [omega[c]], [bc], [&mut y], [true]);
                assert_eq!(y, axpy2_m.component(c), "axpy2 t={threads} c={c}");
            }
        }
    }

    /// Masked lanes are frozen: their storage is untouched, the active lanes
    /// still match their one-lane results.
    #[test]
    fn inactive_components_are_left_untouched() {
        let n = 2 * SERIAL_CUTOFF;
        let a = multi(n);
        let m = tridiag(n);
        let team = Team::new(2);
        let mut ops = VectorOps::on_team(&team);
        let mask = [true, false, true];

        let mut y = multi(n);
        let frozen = y.component(1).to_vec();
        ops.spmm(&m, a.components(), y.components_mut(), mask);
        assert_eq!(y.component(1), frozen.as_slice(), "spmm touched a masked lane");
        let mut single = VectorOps::serial();
        let mut expect = vec![0.0; n];
        single.apply(&m, a.component(2), &mut expect);
        assert_eq!(expect, y.component(2));

        let mut y = multi(n);
        let frozen = y.component(1).to_vec();
        ops.axpy([2.0, 3.0, 4.0], a.components(), y.components_mut(), mask);
        assert_eq!(y.component(1), frozen.as_slice(), "axpy touched a masked lane");

        let dots = ops.dot(a.components(), a.components(), mask);
        assert_eq!(dots[1], 0.0, "masked dot slot must be zero");
        let single_dot = single.dot([a.component(0)], [a.component(0)], [true]);
        assert_eq!(dots[0].to_bits(), single_dot[0].to_bits());
    }
}
