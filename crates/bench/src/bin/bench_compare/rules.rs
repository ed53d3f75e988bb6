//! The comparator's decision rules: pure functions of paired samples.
//! `base[i]` and `change[i]` are one pair: the same workload and seed,
//! run back to back, so whole-machine drift moves both alike.

/// Pairs per workload.
pub(crate) const PAIRS: usize = 10;

/// Pairs of traced runs behind the layer medians printed for a claim.
pub(crate) const TRACED_PAIRS: usize = 3;

/// How much worse the change's median `ops_per_s` may be before the
/// throughput rule counts its losses.
pub(crate) const THROUGHPUT_BOUND: f64 = 0.15;

/// Which way a metric improves.
#[derive(Clone, Copy)]
pub(crate) enum Better {
    Lower,
    Higher,
}

/// What a rule concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Pass,
    Fail,
    /// The parent's own runs spread wider than the bound, so the bound
    /// cannot tell a regression from noise.
    Unresolved,
}

fn pass_if(ok: bool) -> Verdict {
    if ok {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

/// One metric's paired samples.
pub(crate) struct Paired {
    pub(crate) base: Vec<f64>,
    pub(crate) change: Vec<f64>,
    pub(crate) better: Better,
}

/// q1, median and q3, interpolating linearly between order statistics.
pub(crate) fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

impl Paired {
    /// Whether `a` reads better than `b`; ties are better for neither.
    fn beats(&self, a: f64, b: f64) -> bool {
        match self.better {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }

    /// Pairs the change won.
    pub(crate) fn wins(&self) -> usize {
        self.base.iter().zip(&self.change).filter(|&(&b, &c)| self.beats(c, b)).count()
    }

    /// Pairs the change lost.
    pub(crate) fn losses(&self) -> usize {
        self.base.iter().zip(&self.change).filter(|&(&b, &c)| self.beats(b, c)).count()
    }

    /// How much worse the change's median is than the parent's, as a
    /// share of the parent's; negative when it is better.
    pub(crate) fn worsening(&self) -> f64 {
        let (b, c) = (quartiles(&self.base)[1], quartiles(&self.change)[1]);
        let gap = match self.better {
            Better::Lower => c - b,
            Better::Higher => b - c,
        };
        gap / b.abs().max(f64::MIN_POSITIVE)
    }

    /// The parent's quartile distance as a share of its median.
    pub(crate) fn base_spread(&self) -> f64 {
        let [q1, m, q3] = quartiles(&self.base);
        (q3 - q1) / m.abs().max(f64::MIN_POSITIVE)
    }

    /// At least nine tenths of the pairs.
    fn most(&self, n: usize) -> bool {
        n * 10 >= self.base.len() * 9
    }
}

/// End-to-end rule: the change's median may be worse than the parent's
/// by at most `bound`. When the parent's spread is wider than `bound`,
/// the metric is unresolved, unless every change run beats every parent
/// run.
pub(crate) fn bound_rule(p: &Paired, bound: f64) -> Verdict {
    let all_better = p.change.iter().all(|&c| p.base.iter().all(|&b| p.beats(c, b)));
    if p.base_spread() > bound && !all_better {
        Verdict::Unresolved
    } else {
        pass_if(p.worsening() <= bound)
    }
}

/// Throughput rule: fails when the change's median is more than
/// [`THROUGHPUT_BOUND`] worse and the change lost at least nine tenths
/// of the pairs.
pub(crate) fn throughput_rule(p: &Paired) -> Verdict {
    pass_if(p.worsening() <= THROUGHPUT_BOUND || !p.most(p.losses()))
}

/// Claim rule: the change won at least nine tenths of the pairs, and its
/// median is better than the parent's by more than the parent's
/// quartile distance.
pub(crate) fn claim_rule(p: &Paired) -> Verdict {
    pass_if(p.most(p.wins()) && -p.worsening() > p.base_spread())
}

/// What the checks rule needs of one run.
#[derive(Clone, Copy)]
pub(crate) struct Checked {
    pub(crate) exit_ok: bool,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
}

/// Failed checks over attempted ones, summed over runs.
pub(crate) fn failed_share(runs: &[Checked]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Checks rule: fails when any run exited nonzero, or the change failed
/// a larger share of its checks than the parent.
pub(crate) fn checks_rule(base: &[Checked], change: &[Checked]) -> Verdict {
    let exits_ok = base.iter().chain(change).all(|r| r.exit_ok);
    pass_if(exits_ok && failed_share(change) <= failed_share(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten paired samples from `level` up, drifting as the machine does;
    /// in pair `i` the change reads `f(i)` times the parent.
    fn paired(level: f64, better: Better, f: impl Fn(usize) -> f64) -> Paired {
        let base: Vec<f64> = (0..PAIRS).map(|i| level * (1.0 + 0.01 * i as f64)).collect();
        let change = base.iter().enumerate().map(|(i, b)| b * f(i)).collect();
        Paired { base, change, better }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn identical_samples_pass_every_rule_but_a_claim() {
        for better in [Better::Lower, Better::Higher] {
            let p = paired(30.0, better, |_| 1.0);
            assert_eq!((p.wins(), p.losses()), (0, 0));
            assert_eq!(bound_rule(&p, 0.15), Verdict::Pass);
            assert_eq!(bound_rule(&p, 0.25), Verdict::Pass);
            assert_eq!(throughput_rule(&p), Verdict::Pass);
            assert_eq!(claim_rule(&p), Verdict::Fail);
        }
        let ok = Checked { exit_ok: true, attempted: 100, failed: 0 };
        assert_eq!(checks_rule(&[ok; PAIRS], &[ok; PAIRS]), Verdict::Pass);
    }

    #[test]
    fn peak_rss_20_percent_worse_in_every_pair_fails_its_bound() {
        let p = paired(30.0, Better::Lower, |_| 1.2);
        assert_eq!(p.losses(), PAIRS);
        assert_eq!(bound_rule(&p, 0.15), Verdict::Fail);
    }

    #[test]
    fn setup_20_percent_worse_passes_its_wider_bound() {
        let p = paired(0.004, Better::Lower, |_| 1.2);
        assert_eq!(bound_rule(&p, 0.25), Verdict::Pass);
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        // The parent alternates between 20 and 40 MiB.
        let base: Vec<f64> = (0..PAIRS).map(|i| 20.0 * (1 + i % 2) as f64).collect();
        let change = base.iter().map(|b| b * 1.2).collect();
        let mut p = Paired { base, change, better: Better::Lower };
        assert!(p.base_spread() > 0.15);
        assert_eq!(bound_rule(&p, 0.15), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        p.change = vec![5.0; PAIRS];
        assert_eq!(bound_rule(&p, 0.15), Verdict::Pass);
    }

    #[test]
    fn throughput_20_percent_worse_fails_only_when_most_pairs_are_lost() {
        let lost_all = paired(4.0e6, Better::Higher, |_| 0.8);
        assert_eq!(lost_all.losses(), 10);
        assert_eq!(throughput_rule(&lost_all), Verdict::Fail);

        // About 20% worse at the median, but three pairs won.
        let lost_7 = paired(4.0e6, Better::Higher, |i| if i < 3 { 1.05 } else { 0.8 });
        assert_eq!(lost_7.losses(), 7);
        assert!(lost_7.worsening() > THROUGHPUT_BOUND);
        assert_eq!(throughput_rule(&lost_7), Verdict::Pass);

        // Lost every pair, but by less than the bound.
        assert_eq!(throughput_rule(&paired(4.0e6, Better::Higher, |_| 0.9)), Verdict::Pass);
    }

    #[test]
    fn a_claim_needs_nine_wins_and_a_gap_above_the_parent_spread() {
        // Parent spread: quartiles of 30 * (1.00 ..= 1.09) are 0.045 apart.
        let nine = paired(30.0, Better::Lower, |i| if i == 0 { 1.01 } else { 0.8 });
        assert_eq!(nine.wins(), 9);
        assert_eq!(claim_rule(&nine), Verdict::Pass);

        let eight = paired(30.0, Better::Lower, |i| if i < 2 { 1.01 } else { 0.8 });
        assert_eq!(eight.wins(), 8);
        assert_eq!(claim_rule(&eight), Verdict::Fail);

        // Ten of ten, but by 1%: inside the parent's quartile spread.
        let close = paired(30.0, Better::Lower, |_| 0.99);
        assert_eq!(close.wins(), 10);
        assert!(-close.worsening() < close.base_spread());
        assert_eq!(claim_rule(&close), Verdict::Fail);

        // Higher is better: the same rule, mirrored.
        assert_eq!(claim_rule(&paired(4.0e6, Better::Higher, |_| 1.2)), Verdict::Pass);
    }

    #[test]
    fn a_nonzero_exit_or_a_higher_failed_share_fails() {
        let ok = Checked { exit_ok: true, attempted: 100, failed: 0 };
        let mut change = [ok; PAIRS];
        change[3].exit_ok = false;
        assert_eq!(checks_rule(&[ok; PAIRS], &change), Verdict::Fail);
        assert_eq!(checks_rule(&change, &[ok; PAIRS]), Verdict::Fail);

        let mut change = [ok; PAIRS];
        change[5].failed = 1;
        assert_eq!(checks_rule(&[ok; PAIRS], &change), Verdict::Fail);
        // A parent that already failed as often does not fail the change.
        let mut base = [ok; PAIRS];
        base[2].failed = 1;
        assert_eq!(checks_rule(&base, &change), Verdict::Pass);
    }
}
