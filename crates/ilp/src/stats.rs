//! Process-global solver statistics hook.
//!
//! The simplex pivot is the unit of work the whole optimizer bottoms
//! out in, so profilers (DSE `--profile`, the serve stats endpoint)
//! want a running pivot count without threading a handle through every
//! `Model::solve` call. A single relaxed atomic does it: each pivot
//! scans the pivot column of all m rows and updates every touched row
//! over the pivot row's nonzero columns (exact `i64` or rational
//! operations), so the added `fetch_add` is noise. Readers take deltas (`pivot_count()` before/after); with
//! concurrent solves a delta covers *all* solver activity in the
//! window, which is the useful number for profiling anyway.

use std::sync::atomic::{AtomicU64, Ordering};

static PIVOTS: AtomicU64 = AtomicU64::new(0);

/// Records one simplex pivot. Called by the tableau; public so
/// alternative solver frontends can participate.
pub fn record_pivot() {
    PIVOTS.fetch_add(1, Ordering::Relaxed);
}

/// Total simplex pivots performed by this process so far.
pub fn pivot_count() -> u64 {
    PIVOTS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pivots_accumulate() {
        let before = pivot_count();
        record_pivot();
        record_pivot();
        assert!(pivot_count() >= before + 2);
    }
}
