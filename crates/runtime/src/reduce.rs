//! The deterministic blocked reduction.
//!
//! Floating-point addition is not associative, so a reduction whose
//! combination order depends on the thread count (or worse, on timing)
//! produces different last bits on every run — poison for a solver whose
//! residual history is supposed to be a reproducible observable.  The fix
//! used here is the classic fixed-blocking scheme: the index space is cut
//! into blocks of [`REDUCTION_BLOCK`] elements, each block is reduced
//! sequentially in index order, and the per-block partials are combined in
//! block order on the calling thread.  Block boundaries depend only on `n`,
//! never on the thread count, so the result is **bitwise identical** whether
//! the blocks were computed by 1, 2 or 64 threads — the serial path runs the
//! very same blocked order.

use crate::partition;
use crate::shared::SharedSliceMut;
use crate::team::Team;
use std::ops::Range;

/// Elements per reduction block.  Chosen so a block's inner loop amortizes
/// the bookkeeping (and vectorizes) while the per-`dot` scratch stays tiny:
/// a million-row vector needs ~4k partials.
pub const REDUCTION_BLOCK: usize = 256;

/// Number of reduction blocks covering `0..n`.
#[inline]
pub fn num_blocks(n: usize) -> usize {
    n.div_ceil(REDUCTION_BLOCK)
}

/// Index range of block `b` of `0..n`.
#[inline]
pub fn block_range(n: usize, b: usize) -> Range<usize> {
    let lo = b * REDUCTION_BLOCK;
    let hi = (lo + REDUCTION_BLOCK).min(n);
    lo..hi
}

/// Reduces `0..n` in `K` lanes at once with the fixed-block scheme:
/// `block_sum` returns the `K` per-lane partials of one [`block_range`]
/// (called in parallel across the team when one is given), and each lane's
/// partials are summed in block order.
///
/// Every lane is **bitwise identical** to a one-lane reduction whose
/// `block_sum` computes that lane alone — the block boundaries and the
/// combination order are the same — so a fused `K`-vector dot product
/// reproduces `K` single dot products bit for bit while paying one
/// fork/join instead of `K`.
///
/// `scratch` holds the `K * num_blocks(n)` partials between calls so a
/// solver iteration does not allocate; it is resized as needed.
///
/// The result is bitwise identical for every `team` argument — `None`, or
/// teams of any size — as long as `block_sum` itself is a pure function of
/// its range.
pub fn blocked_reduce<const K: usize, F>(
    team: Option<&Team>,
    n: usize,
    scratch: &mut Vec<f64>,
    block_sum: F,
) -> [f64; K]
where
    F: Fn(Range<usize>) -> [f64; K] + Sync,
{
    let blocks = num_blocks(n);
    scratch.clear();
    scratch.resize(K * blocks, 0.0);
    // Lane-major partials: lane `k` of block `b` lives at `k * blocks + b`.
    match team {
        // Parallel only when every rank gets at least one whole block.
        Some(team) if team.num_threads() > 1 && blocks >= team.num_threads() => {
            let threads = team.num_threads();
            let partials = SharedSliceMut::new(scratch);
            team.run(&|rank| {
                for b in partition(blocks, threads, rank) {
                    for (k, sum) in block_sum(block_range(n, b)).into_iter().enumerate() {
                        // SAFETY: the static partition hands each rank a
                        // disjoint set of block indices, hence disjoint
                        // scratch slots in every lane.
                        unsafe { *partials.index_mut(k * blocks + b) = sum };
                    }
                }
            });
        }
        _ => {
            for b in 0..blocks {
                for (k, sum) in block_sum(block_range(n, b)).into_iter().enumerate() {
                    scratch[k * blocks + b] = sum;
                }
            }
        }
    }
    // Combine each lane in fixed block order, independent of who computed
    // what.
    std::array::from_fn(|k| scratch[k * blocks..(k + 1) * blocks].iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_block_sum(data: &[f64]) -> impl Fn(Range<usize>) -> [f64; 1] + Sync + '_ {
        move |r| [data[r].iter().sum()]
    }

    #[test]
    fn blocks_tile_the_index_space() {
        for n in [0usize, 1, REDUCTION_BLOCK - 1, REDUCTION_BLOCK, 5 * REDUCTION_BLOCK + 17] {
            let mut end = 0;
            for b in 0..num_blocks(n) {
                let r = block_range(n, b);
                assert_eq!(r.start, end);
                assert!(!r.is_empty());
                end = r.end;
            }
            assert_eq!(end, n);
        }
    }

    #[test]
    fn serial_reduce_matches_block_ordered_sum() {
        let n = 3 * REDUCTION_BLOCK + 41;
        let data: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 / 9.7 - 5.0).collect();
        let mut scratch = Vec::new();
        let [got] = blocked_reduce(None, n, &mut scratch, seq_block_sum(&data));
        let expect: f64 =
            (0..num_blocks(n)).map(|b| data[block_range(n, b)].iter().sum::<f64>()).sum();
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn reduce_is_bitwise_identical_for_every_thread_count() {
        let n = 17 * REDUCTION_BLOCK + 3;
        let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7310081).sin() * 1e3).collect();
        let mut scratch = Vec::new();
        let [serial] = blocked_reduce(None, n, &mut scratch, seq_block_sum(&data));
        for threads in [1usize, 2, 3, 4, 8] {
            let team = Team::new(threads);
            let [got] = blocked_reduce(Some(&team), n, &mut scratch, seq_block_sum(&data));
            assert_eq!(got.to_bits(), serial.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn tiny_inputs_fall_back_to_the_serial_path() {
        let team = Team::new(8);
        let data = [1.5f64, -2.25, 4.0];
        let mut scratch = Vec::new();
        let got = blocked_reduce(Some(&team), 3, &mut scratch, seq_block_sum(&data));
        assert_eq!(got, [3.25]);
    }

    #[test]
    fn empty_reduce_is_zero() {
        let mut scratch = vec![9.0; 4];
        assert_eq!(
            blocked_reduce(None, 0, &mut scratch, |_| -> [f64; 1] { unreachable!() }),
            [0.0]
        );
    }

    /// The fused three-lane reduction contract: each lane is bitwise
    /// identical to its own one-lane `blocked_reduce`, for every thread count.
    #[test]
    fn reduce3_components_match_single_reductions_bitwise() {
        let n = 9 * REDUCTION_BLOCK + 77;
        let data: [Vec<f64>; 3] = [
            (0..n).map(|i| (i as f64 * 0.31).sin() * 1e2).collect(),
            (0..n).map(|i| (i as f64 * 0.77).cos() - 0.5).collect(),
            (0..n).map(|i| ((i * 13 + 7) % 101) as f64 / 10.1).collect(),
        ];
        let mut scratch = Vec::new();
        let singles: Vec<f64> = data
            .iter()
            .map(|d| blocked_reduce(None, n, &mut scratch, seq_block_sum(d))[0])
            .collect();
        let fused_sum = |r: Range<usize>| -> [f64; 3] {
            [
                data[0][r.clone()].iter().sum(),
                data[1][r.clone()].iter().sum(),
                data[2][r].iter().sum(),
            ]
        };
        let serial3 = blocked_reduce(None, n, &mut scratch, fused_sum);
        for k in 0..3 {
            assert_eq!(serial3[k].to_bits(), singles[k].to_bits(), "serial component {k}");
        }
        for threads in [1usize, 2, 3, 4] {
            let team = Team::new(threads);
            let got = blocked_reduce(Some(&team), n, &mut scratch, fused_sum);
            for k in 0..3 {
                assert_eq!(got[k].to_bits(), singles[k].to_bits(), "threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn reduce3_of_empty_input_is_zero() {
        let mut scratch = vec![1.0; 6];
        assert_eq!(
            blocked_reduce(None, 0, &mut scratch, |_| -> [f64; 3] { unreachable!() }),
            [0.0; 3]
        );
    }
}
