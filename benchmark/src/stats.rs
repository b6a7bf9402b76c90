//! Sample statistics shared by every workload: quartiles, tail
//! percentiles under the "ten samples beyond" rule, and slices of the
//! run. A failed op is an infinitely slow op ([`FAILED`]), so it can
//! only ever make a latency statistic worse.

/// Latency of an op that failed, timed out or returned wrong bytes.
pub const FAILED: f64 = f64::INFINITY;

/// Median, quartiles and sample count of one timing or rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric that is one measurement (a counter delta, a ratio).
    pub fn single(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        sort(&mut v);
        Summary {
            median: quantile(&v, 0.5),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            n: v.len(),
        }
    }

    /// Quartile distance as a share of the median (0 when undefined).
    pub fn spread(&self) -> f64 {
        if self.median.is_finite() && self.median != 0.0 && self.q3.is_finite() {
            (self.q3 - self.q1).abs() / self.median.abs()
        } else {
            0.0
        }
    }
}

/// Total order with infinities last; NaN never enters a sample.
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
}

/// Nearest-rank quantile of a sorted sample: the smallest value with at
/// least `q` of the sample at or below it. Never interpolates, so a
/// sample holding [`FAILED`] yields either a real latency or infinity.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Arithmetic mean (0 of nothing).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples a percentile needs so that ten lie beyond it.
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// `q`-quantile of a sorted sample, or `None` when fewer than ten samples
/// lie beyond it (the estimate would be one or two outliers).
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    (sorted.len() >= samples_needed(q)).then(|| quantile(sorted, q))
}

/// Samples bucketed into slices of the run: 100-ms ticks when a thread
/// records them, whole blocks once [`Slices::grouped`] has pooled them.
#[derive(Debug, Default, Clone)]
pub struct Slices {
    slices: Vec<Vec<f64>>,
}

impl Slices {
    pub fn new(slices: usize) -> Slices {
        Slices {
            slices: vec![Vec::new(); slices],
        }
    }

    /// A sample of a slice the run does not have is dropped.
    pub fn record(&mut self, slice: usize, value: f64) {
        if let Some(s) = self.slices.get_mut(slice) {
            s.push(value);
        }
    }

    /// Add another thread's samples, slice by slice.
    pub fn merge(&mut self, other: &Slices) {
        if self.slices.len() < other.slices.len() {
            self.slices.resize(other.slices.len(), Vec::new());
        }
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.extend_from_slice(theirs);
        }
    }

    /// The samples of the slices named, as one sample.
    pub fn pooled(&self, slices: &[usize]) -> Vec<f64> {
        slices
            .iter()
            .filter_map(|&i| self.slices.get(i))
            .flatten()
            .copied()
            .collect()
    }

    /// One slice per group, holding the samples of the slices it names.
    pub fn grouped(&self, groups: &[Vec<usize>]) -> Slices {
        Slices {
            slices: groups.iter().map(|g| self.pooled(g)).collect(),
        }
    }

    pub fn all(&self) -> Vec<f64> {
        self.slices.iter().flatten().copied().collect()
    }

    /// The tail latency at quantile `q`.
    ///
    /// Where every slice supports the quantile, each slice gives its own
    /// estimate and the result summarises them (the median slice is far
    /// steadier than one pooled tail). Otherwise the pooled sample is
    /// used if it supports the quantile, and failing that the slowest op,
    /// so a workload with few, long ops still reports a worst case.
    pub fn tail(&self, q: f64) -> Summary {
        let mut per_slice = Vec::new();
        for s in &self.slices {
            let mut v = s.clone();
            sort(&mut v);
            match tail(&v, q) {
                Some(t) => per_slice.push(t),
                None => {
                    per_slice.clear();
                    break;
                }
            }
        }
        if !per_slice.is_empty() {
            return Summary::of(&per_slice);
        }
        let mut all = self.all();
        sort(&mut all);
        let v = tail(&all, q).unwrap_or_else(|| all.last().copied().unwrap_or(0.0));
        Summary {
            n: all.len(),
            ..Summary::single(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_one_to_nine() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (3.0, 5.0, 7.0, 9));
        assert!((s.spread() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(0.99), 1000);
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), None, "999 samples leave nine beyond p99");
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some(989.0));
        assert_eq!(tail(&v, 0.9), Some(899.0), "p90 needs only 100");
    }

    #[test]
    fn failed_op_is_infinitely_slow() {
        // 2 failures in 100: the median is untouched, the p99 is lost.
        let mut v: Vec<f64> = (0..98).map(f64::from).collect();
        v.extend([FAILED, FAILED]);
        sort(&mut v);
        assert_eq!(quantile(&v, 0.5), 49.0);
        assert_eq!(quantile(&v, 0.99), FAILED);
        // One failure in 1000 stays beyond the p99 and leaves it finite.
        let mut v: Vec<f64> = (0..999).map(f64::from).collect();
        v.push(FAILED);
        sort(&mut v);
        assert!(tail(&v, 0.99).unwrap().is_finite());
    }

    #[test]
    fn slice_tail_is_the_median_slice() {
        let mut s = Slices::new(3);
        for slice in 0..3 {
            for i in 0..1000 {
                // Slice k holds 0..1000 scaled by k+1; p99 = 989*(k+1).
                s.record(slice, (i * (slice + 1)) as f64);
            }
        }
        s.record(3, 1e9); // beyond the run: dropped
        let t = s.tail(0.99);
        assert_eq!((t.median, t.n), (989.0 * 2.0, 3));
    }

    #[test]
    fn thin_slices_fall_back_to_pooled_then_to_slowest() {
        let mut s = Slices::new(2);
        for i in 0..600 {
            s.record(0, i as f64);
            s.record(1, i as f64);
        }
        // 600 per slice < 1000, pooled 1200 >= 1000.
        assert_eq!(s.tail(0.99).median, 593.0);
        let mut few = Slices::new(2);
        for i in 0..12 {
            few.record(0, i as f64);
        }
        assert_eq!(few.tail(0.99).median, 11.0, "slowest op");
    }

    #[test]
    fn ticks_pool_into_blocks() {
        let mut s = Slices::new(4);
        for (tick, v) in [(0, 1.0), (1, 3.0), (1, 5.0), (3, 9.0)] {
            s.record(tick, v);
        }
        assert_eq!(s.pooled(&[0, 1]), vec![1.0, 3.0, 5.0]);
        assert_eq!(s.pooled(&[2, 7]), Vec::<f64>::new(), "empty and absent");
        let blocks = s.grouped(&[vec![0, 1], vec![2, 3]]);
        assert_eq!(blocks.all(), vec![1.0, 3.0, 5.0, 9.0]);
    }
}
