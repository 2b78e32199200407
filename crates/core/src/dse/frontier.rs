//! Incremental 3-objective Pareto frontier over sweep results.
//!
//! Every completed point is scored on three objectives, all minimised:
//! simulated cycles (average-case speed), the WCET bound (guaranteed
//! speed), and the bound/sim ratio (predictability — the paper's core
//! metric). The ratio is *not* redundant with the first two: of two
//! machines with equal bounds, the slower-simulating one has the tighter
//! ratio and survives on the predictability axis even though it is
//! dominated on raw speed.
//!
//! Ratios are compared exactly by u128 cross-multiplication
//! (`w1·s2 ≤ w2·s1`), never through floating point, so the frontier is a
//! deterministic function of the point set; [`Frontier::points`] is
//! maintained in a deterministic order (sim, then bound, then label, then
//! index), so two runs over the same merged records render byte-identical
//! frontiers regardless of insertion order.

use crate::checkpoint::PointRecord;

/// One candidate (or surviving) frontier point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierPoint {
    /// Global index of the point in its grid axis.
    pub index: usize,
    /// Configuration label.
    pub label: String,
    /// Simulated cycles (objective 1; must be non-zero).
    pub sim_cycles: u64,
    /// WCET bound in cycles (objective 2).
    pub wcet_cycles: u64,
}

impl FrontierPoint {
    /// The bound/sim predictability ratio (objective 3), for display —
    /// comparisons use exact integer arithmetic, never this value.
    pub fn ratio(&self) -> f64 {
        self.wcet_cycles as f64 / self.sim_cycles as f64
    }
}

/// Exact `ratio(a) <= ratio(b)` via cross-multiplication: both sides fit
/// u128, so no overflow and no rounding.
fn ratio_le(a: &FrontierPoint, b: &FrontierPoint) -> bool {
    u128::from(a.wcet_cycles) * u128::from(b.sim_cycles)
        <= u128::from(b.wcet_cycles) * u128::from(a.sim_cycles)
}

/// Whether `a` Pareto-dominates `b`: no worse on all three objectives and
/// strictly better on at least one. Points equal on every objective do
/// not dominate each other — both survive.
pub fn dominates(a: &FrontierPoint, b: &FrontierPoint) -> bool {
    let no_worse = a.sim_cycles <= b.sim_cycles && a.wcet_cycles <= b.wcet_cycles && ratio_le(a, b);
    let strictly_better =
        a.sim_cycles < b.sim_cycles || a.wcet_cycles < b.wcet_cycles || !ratio_le(b, a);
    no_worse && strictly_better
}

fn sort_key(p: &FrontierPoint) -> (u64, u64, &str, usize) {
    (p.sim_cycles, p.wcet_cycles, p.label.as_str(), p.index)
}

/// The running frontier: feed points in any order, read the survivors in
/// deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frontier {
    points: Vec<FrontierPoint>,
}

impl Frontier {
    /// An empty frontier.
    pub fn new() -> Frontier {
        Frontier::default()
    }

    /// Offers one point: dominated candidates are discarded, a surviving
    /// candidate evicts every point it dominates. Returns whether the
    /// point joined. Zero-sim points (failed measurements carry zeros)
    /// are rejected — their ratio is undefined.
    pub fn insert(&mut self, p: FrontierPoint) -> bool {
        if p.sim_cycles == 0 {
            return false;
        }
        if self.points.iter().any(|q| dominates(q, &p) || *q == p) {
            return false;
        }
        self.points.retain(|q| !dominates(&p, q));
        let at = self.points.partition_point(|q| sort_key(q) < sort_key(&p));
        self.points.insert(at, p);
        true
    }

    /// Offers a checkpoint record at global index `index`; failed records
    /// are skipped.
    pub fn insert_record(&mut self, index: usize, rec: &PointRecord) -> bool {
        let Some(r) = rec.outcome.result() else {
            return false;
        };
        self.insert(FrontierPoint {
            index,
            label: r.label.clone(),
            sim_cycles: r.sim_cycles,
            wcet_cycles: r.wcet_cycles,
        })
    }

    /// The surviving points, sorted by (sim, bound, label, index).
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// Whether any point survived.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of surviving points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// A text table of the frontier (the merge report's payload).
    pub fn render(&self) -> String {
        let mut out =
            String::from("index      sim cycles     wcet bound    ratio  configuration\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:<8} {:>12} {:>14} {:>8.4}  {}\n",
                p.index,
                p.sim_cycles,
                p.wcet_cycles,
                p.ratio(),
                p.label,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(index: usize, sim: u64, wcet: u64) -> FrontierPoint {
        FrontierPoint {
            index,
            label: format!("p{index}"),
            sim_cycles: sim,
            wcet_cycles: wcet,
        }
    }

    #[test]
    fn ratio_objective_is_not_redundant() {
        // Dominated on sim and wcet, but the slower machine has the
        // tighter ratio — it must survive.
        let mut f = Frontier::new();
        assert!(f.insert(p(0, 1, 10)));
        assert!(f.insert(p(1, 10, 10)));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn dominated_points_are_evicted() {
        let mut f = Frontier::new();
        assert!(f.insert(p(0, 100, 1000)));
        // Better on all three objectives (ratio 9 < 10).
        assert!(f.insert(p(1, 90, 810)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].index, 1);
        // And the old point would now be rejected outright.
        assert!(!f.insert(p(0, 100, 1000)));
    }

    #[test]
    fn equal_objectives_both_survive_in_label_order() {
        let mut f = Frontier::new();
        assert!(f.insert(p(7, 50, 100)));
        assert!(f.insert(p(3, 50, 100)));
        assert_eq!(f.len(), 2);
        assert_eq!(f.points()[0].index, 3);
        // An exact duplicate (same index/label too) is rejected.
        assert!(!f.insert(p(3, 50, 100)));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let pts = [
            p(0, 5, 50),
            p(1, 10, 40),
            p(2, 20, 30),
            p(3, 6, 60),
            p(4, 10, 45),
        ];
        let mut fwd = Frontier::new();
        let mut rev = Frontier::new();
        for q in &pts {
            fwd.insert(q.clone());
        }
        for q in pts.iter().rev() {
            rev.insert(q.clone());
        }
        assert_eq!(fwd, rev);
        assert!(!fwd.is_empty());
    }

    #[test]
    fn zero_sim_points_are_rejected() {
        let mut f = Frontier::new();
        assert!(!f.insert(p(0, 0, 10)));
        assert!(f.is_empty());
    }

    #[test]
    fn huge_cycle_counts_compare_exactly() {
        // Two ratios an f64 cannot distinguish: (2^60+1)/2^60 vs 1.
        let big = 1u64 << 60;
        let mut f = Frontier::new();
        assert!(f.insert(p(0, big, big + 1)));
        // Same sim, same wcet magnitude class but exactly ratio 1 — this
        // dominates (equal sim, smaller wcet, smaller ratio).
        assert!(f.insert(p(1, big, big)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].index, 1);
    }
}
