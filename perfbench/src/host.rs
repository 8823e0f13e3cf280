//! The host probe: a STREAM-triad loop and a multiply-add loop at 1 and 2
//! threads, so kernel rates can be read as fractions of this host's own
//! roofline, plus the process's peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Thread counts the probe measures (the benchmark never runs more).
const THREADS: [usize; 2] = [1, 2];

/// Each triad array is this many times the last-level cache...
const TRIAD_CACHE_MULTIPLE: usize = 4;
/// ...but at most this large, so a host with a huge cache cannot make the
/// probe exhaust memory.  The record line shows both sizes, so a capped
/// probe is visible.
const TRIAD_MAX_ARRAY_BYTES: usize = 512 << 20;
/// Timed triad passes per thread count (the best one is reported, as
/// STREAM does).
const TRIAD_PASSES: usize = 4;
/// Iterations of the 32-lane multiply-add loop per thread and pass.
const FMA_ITERATIONS: u64 = 1 << 23;
const FMA_LANES: usize = 32;
const FMA_PASSES: usize = 3;

/// Last-level cache size assumed when the C library cannot report one.
const FALLBACK_LLC_BYTES: usize = 32 << 20;

/// What the probe measured.
#[derive(Debug, Clone)]
pub struct HostProbe {
    /// `std::thread::available_parallelism`.
    pub host_threads: usize,
    /// Last-level cache size (bytes) the array sizes were derived from.
    pub llc_bytes: usize,
    /// Bytes of each of the three triad arrays.
    pub triad_array_bytes: usize,
    /// Triad bandwidth (GB/s) at 1 and 2 threads.
    pub triad_gbs: [f64; 2],
    /// Multiply-add rate (GFLOP/s) at 1 and 2 threads.
    pub fma_gflops: [f64; 2],
}

impl HostProbe {
    /// The probe as a JSON object for the record line.
    pub fn to_json(&self) -> lv_trace::json::JsonObject {
        lv_trace::json::JsonObject::new()
            .usize("host_threads", self.host_threads)
            .usize("llc_bytes", self.llc_bytes)
            .usize("triad_array_bytes", self.triad_array_bytes)
            .f64("triad_gbs_1t", self.triad_gbs[0])
            .f64("triad_gbs_2t", self.triad_gbs[1])
            .f64("fma_gflops_1t", self.fma_gflops[0])
            .f64("fma_gflops_2t", self.fma_gflops[1])
    }
}

/// Runs the probe.  Allocates three arrays of `4 x LLC` each (capped), so
/// call it after reading [`peak_rss_mb`].
pub fn probe() -> HostProbe {
    let llc_bytes = llc_bytes();
    let len =
        (TRIAD_CACHE_MULTIPLE * llc_bytes).min(TRIAD_MAX_ARRAY_BYTES) / std::mem::size_of::<f64>();
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    // First touch on the threads that will stream each half.
    split_run(2, &mut a, &mut b, &mut c, |a, b, c| {
        a.fill(0.0);
        b.fill(1.0);
        c.fill(2.0);
    });
    let bytes = (3 * len * std::mem::size_of::<f64>()) as f64;
    let mut triad_gbs = [0.0; 2];
    for (slot, &threads) in THREADS.iter().enumerate().rev() {
        let best = (0..TRIAD_PASSES)
            .map(|_| {
                let start = Instant::now();
                split_run(threads, &mut a, &mut b, &mut c, triad);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        triad_gbs[slot] = bytes / best / 1e9;
    }
    black_box(&a);
    let mut fma_gflops = [0.0; 2];
    for (slot, &threads) in THREADS.iter().enumerate() {
        let best = (0..FMA_PASSES)
            .map(|_| {
                let start = Instant::now();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| scope.spawn(|| multiply_add(FMA_ITERATIONS)))
                        .collect();
                    for handle in handles {
                        black_box(handle.join().expect("probe thread panicked"));
                    }
                });
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let flops = (2 * FMA_LANES as u64 * FMA_ITERATIONS * threads as u64) as f64;
        fma_gflops[slot] = flops / best / 1e9;
    }
    HostProbe {
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        llc_bytes,
        triad_array_bytes: len * std::mem::size_of::<f64>(),
        triad_gbs,
        fma_gflops,
    }
}

fn triad(a: &mut [f64], b: &mut [f64], c: &mut [f64]) {
    let scalar = black_box(3.0);
    for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
        *a = b + scalar * c;
    }
}

/// Runs `f` over `threads` equal slices of the three arrays, one scoped
/// thread per slice.
fn split_run(
    threads: usize,
    a: &mut [f64],
    b: &mut [f64],
    c: &mut [f64],
    f: impl Fn(&mut [f64], &mut [f64], &mut [f64]) + Sync,
) {
    let chunk = a.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
            .map(|((a, b), c)| scope.spawn(move || f(a, b, c)))
            .collect();
        for handle in handles {
            handle.join().expect("probe thread panicked");
        }
    });
}

/// `FMA_LANES` independent `x = x*m + c` chains: enough independent work
/// to fill the vector units with the build's default code generation
/// (no `target-cpu` flags, so a multiply and an add rather than a fused
/// instruction — the same instructions the solver kernels get).
fn multiply_add(iterations: u64) -> f64 {
    let mut lanes = [0.0f64; FMA_LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = i as f64 * 1e-3;
    }
    let m = black_box(0.999_999);
    let c = black_box(1e-7);
    for _ in 0..iterations {
        for lane in lanes.iter_mut() {
            *lane = *lane * m + c;
        }
    }
    black_box(lanes).iter().sum()
}

/// Peak resident set size of this process (VmHWM), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    sys::max_rss_kib() as f64 * 1024.0 / 1e6
}

/// Last-level cache size reported by the C library, or a fallback.
fn llc_bytes() -> usize {
    sys::llc_bytes().unwrap_or(FALLBACK_LLC_BYTES)
}

#[cfg(target_os = "linux")]
mod sys {
    /// `struct rusage` of Linux: two `timeval`s, then 14 longs, the first
    /// of which is `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        max_rss: i64,
        rest: [i64; 13],
    }

    const RUSAGE_SELF: i32 = 0;
    const SC_LEVEL2_CACHE_SIZE: i32 = 191;
    const SC_LEVEL3_CACHE_SIZE: i32 = 194;

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        fn sysconf(name: i32) -> i64;
    }

    pub fn max_rss_kib() -> u64 {
        let mut usage = RUsage { times: [0; 4], max_rss: 0, rest: [0; 13] };
        // SAFETY: `usage` is a live, writable value with the layout of the
        // C `struct rusage` on Linux, which is all `getrusage` writes to.
        let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
        u64::try_from(usage.max_rss).expect("ru_maxrss is non-negative")
    }

    pub fn llc_bytes() -> Option<usize> {
        [SC_LEVEL3_CACHE_SIZE, SC_LEVEL2_CACHE_SIZE].into_iter().find_map(|name| {
            // SAFETY: `sysconf` takes a plain integer and touches no memory
            // of ours; unknown names return -1 or 0.
            let bytes = unsafe { sysconf(name) };
            usize::try_from(bytes).ok().filter(|&b| b > 0)
        })
    }
}

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads peak memory and cache sizes through Linux interfaces");
