//! A log-bucketed histogram of host-time intervals.
//!
//! Its memory is fixed, whatever the length of the run, and it keeps every
//! value to within 1/128 of itself: values below 256 exactly, larger ones
//! in 128 buckets per power of two.

/// Buckets per power of two, as a bit count.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Buckets needed for every `u64`.
const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

/// Counts of `u64` values (nanoseconds) by bucket.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Allocated on the first value, so an unused histogram costs nothing.
    counts: Vec<u64>,
    total: u64,
}

fn bucket(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let shift = 63 - value.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((value >> shift) as usize & (SUB - 1))
}

/// The middle of bucket `index`'s range.
fn midpoint(index: usize) -> f64 {
    if index < SUB {
        return index as f64;
    }
    let shift = (index >> SUB_BITS) - 1;
    let lower = ((SUB + index % SUB) as u64) << shift;
    lower as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Histogram {
    /// Counts `value` `count` times.
    pub fn add(&mut self, value: u64, count: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(value)] += count;
        self.total += count;
    }

    /// Number of values counted.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (nearest rank), as its bucket's midpoint; NaN when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return midpoint(index);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut previous = 0;
        for value in (0..100_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let index = bucket(value);
            assert!(index == previous || index == previous + 1 || value > 100_000);
            previous = index;
            let error = (midpoint(index) - value as f64).abs() / (value as f64).max(1.0);
            assert!(error <= 1.0 / SUB as f64, "{value}: {error}");
            assert!(index < BUCKETS);
        }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut histogram = Histogram::default();
        for value in 1..=100 {
            histogram.add(value, 1);
        }
        assert_eq!(histogram.quantile(0.5), 50.0);
        assert_eq!(histogram.quantile(0.99), 99.0);
        assert_eq!(histogram.len(), 100);
        assert!(Histogram::default().quantile(0.5).is_nan());
    }
}
