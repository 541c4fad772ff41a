//! Host-speed calibration.
//!
//! On a shared VM the host's speed drifts: within one hour on a 2-core
//! x86-64 VM, compile throughput ranged up to 2× and varied 25% between
//! consecutive 30 s runs, and contention comes in bursts shorter than a
//! second. A fixed reference kernel, timed right before and right after
//! each group of measured work (a round, a sweep pair, a set-up), slows
//! down with the same contention, so the benchmark scales each group's
//! wall time by `REFERENCE_MS / mean kernel time`: figures read as if the
//! host ran the kernel in [`REFERENCE_MS`].
//!
//! The kernel is allocation- and pointer-heavy like the compiler and the
//! explorer, and lives here so no change to the program's code can move
//! it. Over seven minutes in which the host's speed varied 1.9×, the
//! log-log slope of a fixed compile batch's time against this kernel's
//! was 0.96 (correlation 0.98). Kernels kept away from the program's heap
//! followed worse: an allocation-free tree over an arena at a slope of
//! 1.26, and this kernel in a fresh child process or on a thread of its
//! own took 1.5–2× as long and moved while the workloads did not. It
//! therefore shares the program's heap. In an A/B run where every compile
//! also churned the heap and kept 8 MB of fragmented allocations, the
//! injected 0.8 ms per compile showed in every per-pipeline row, while
//! the kernel's median time moved 3%, within its 10% spread between
//! runs.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal kernel time the scaled figures refer to, ms: a round figure
/// within the 9–14 ms the kernel took on the 2-core VM the benchmark was
/// tuned on.
pub const REFERENCE_MS: f64 = 10.0;

/// Runs the reference kernel once and returns its wall time, ms. Its
/// few-megabyte working set is what makes it feel the contention the
/// workloads feel; a quarter-size map repeated four times tracked the
/// host's slow phases far worse.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..20_000u64 {
        let key = format!("key{}", i.wrapping_mul(2_654_435_761) % 100_003);
        map.insert(key, vec![i; 4]);
    }
    let total: usize = map.values().map(Vec::len).sum();
    std::hint::black_box(total);
    drop(map);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales wall time measured since the kernel run that
/// took `before_ms` to reference speed (runs the kernel once more).
pub fn scale(before_ms: f64) -> f64 {
    REFERENCE_MS / ((before_ms + kernel_ms()) / 2.0)
}
