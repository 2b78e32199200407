//! Work-stealing execution and shard arithmetic.
//!
//! [`execute`] is the one fan-out primitive in the workspace: an atomic
//! claim index over `std::thread::scope`, so threads that land cheap
//! (memoised) points immediately steal the next one instead of idling on
//! a static partition. The sweep engine
//! ([`spec_sweep_with_session`](crate::sweep::spec_sweep_with_session))
//! runs every axis — hand-picked or grid-enumerated — through it.
//!
//! A [`Shard`] splits a grid axis *across processes*: shard `k` of `n`
//! owns every global point index `g` with `g % n == k`. Striding (rather
//! than chunking) keeps shards statistically alike — neighbouring grid
//! points share expensive dimensions, so contiguous chunks would give one
//! shard all the slow points — and makes the split a pure function of
//! `(k, n)`: shards are disjoint and their union is the grid by
//! construction, with no coordination between processes.

use crate::checkpoint::CheckpointHeader;
use spmlab_isa::archspec::MemArchSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every index in `0..n` across scoped worker threads,
/// preserving input order. Infallible by construction: the caller's `f`
/// converts its own errors and panics into outcome values, so no point
/// can abort another.
///
/// Profiled runs (an observability sink installed) execute sequentially:
/// spans opened on worker threads would be parentless roots, breaking the
/// per-phase breakdown's self-time accounting (the `--profile` contract
/// is that phase totals sum to wall time). With no sink installed that
/// check is one relaxed atomic load.
pub fn execute<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = if spmlab_obs::enabled() {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n)
    };
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                done.lock().expect("worker poisoned results").push((i, r));
            });
        }
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in done.into_inner().expect("results lock") {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed by a worker"))
        .collect()
}

/// One stride of an `n`-way grid split: shard `index` owns every global
/// point `g` with `g % count == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Which stride this shard takes (`0 <= index < count`).
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// The degenerate unsharded split: one shard owning everything.
    pub fn single() -> Shard {
        Shard { index: 0, count: 1 }
    }

    /// Parses the CLI designator `"k/n"`.
    ///
    /// # Errors
    ///
    /// A description of the malformation (`n` zero, `k >= n`, not two
    /// integers).
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard `{s}`: expected the form k/n"))?;
        let index: usize = k
            .trim()
            .parse()
            .map_err(|_| format!("shard `{s}`: bad index"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("shard `{s}`: bad count"))?;
        if count == 0 {
            return Err(format!("shard `{s}`: count must be at least 1"));
        }
        if index >= count {
            return Err(format!("shard `{s}`: index must be below count"));
        }
        Ok(Shard { index, count })
    }

    /// How many of `total` global points this shard owns.
    pub fn points(&self, total: usize) -> usize {
        if self.index >= total {
            0
        } else {
            1 + (total - 1 - self.index) / self.count
        }
    }

    /// The global index of this shard's `local`-th point.
    pub fn global(&self, local: usize) -> usize {
        self.index + local * self.count
    }

    /// This shard's sub-axis, in local index order.
    pub fn take<T: Clone>(&self, axis: &[T]) -> Vec<T> {
        axis.iter()
            .skip(self.index)
            .step_by(self.count)
            .cloned()
            .collect()
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The checkpoint header for one shard of `full_axis`: the axis hash is
/// the **full** grid's (shared by every shard, so streams of one grid are
/// mutually recognisable at merge time), the point count is shard-local
/// (so `check-checkpoint` gates each stream on its own completeness), and
/// the shard designator is recorded — except for the unsharded `0/1`
/// split, whose header is indistinguishable from a plain sweep's.
pub fn shard_header(
    rev: &str,
    benchmark: &str,
    full_axis: &[MemArchSpec],
    shard: Shard,
) -> CheckpointHeader {
    CheckpointHeader {
        points: shard.points(full_axis.len()),
        shard: (shard.count > 1).then_some((shard.index, shard.count)),
        ..CheckpointHeader::new(rev, benchmark, full_axis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_partition_any_axis() {
        let axis: Vec<usize> = (0..17).collect();
        for n in 1..=5 {
            let mut seen = Vec::new();
            let mut total = 0;
            for k in 0..n {
                let shard = Shard { index: k, count: n };
                let taken = shard.take(&axis);
                assert_eq!(taken.len(), shard.points(axis.len()), "{shard}");
                for (local, g) in taken.iter().enumerate() {
                    assert_eq!(shard.global(local), *g);
                }
                total += taken.len();
                seen.extend(taken);
            }
            seen.sort_unstable();
            assert_eq!(seen, axis, "union of {n} shards");
            assert_eq!(total, axis.len());
        }
    }

    #[test]
    fn designators_parse_strictly() {
        assert_eq!(Shard::parse("0/1").unwrap(), Shard::single());
        assert_eq!(Shard::parse("2/4").unwrap(), Shard { index: 2, count: 4 });
        for bad in ["", "1", "1/0", "2/2", "a/b", "1/2/3", "-1/2"] {
            assert!(Shard::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn execute_preserves_order() {
        let out = execute(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(execute(0, |i| i).is_empty());
    }

    #[test]
    fn unsharded_header_is_a_plain_sweep_header() {
        let axis = vec![MemArchSpec::uncached()];
        let h = shard_header("rev", "g721", &axis, Shard::single());
        assert_eq!(h, CheckpointHeader::new("rev", "g721", &axis));
        let h2 = shard_header("rev", "g721", &axis, Shard { index: 1, count: 2 });
        assert_eq!(h2.shard, Some((1, 2)));
        assert_eq!(h2.points, 0);
        assert_eq!(h2.axis_hash, h.axis_hash);
    }
}
