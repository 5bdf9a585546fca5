//! Small numeric helpers: a seeded generator, report digests and
//! order statistics.

/// SplitMix64: a tiny seeded generator, so every input byte the
/// benchmark makes is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that two
    /// sessions of one run never share bytes.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// One element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Order-sensitive digest of a report sequence: the count plus FNV-1a
/// over every `(offset, rule)` pair in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Reports folded in.
    pub count: u64,
    /// FNV-1a state.
    pub hash: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            count: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Digest {
    /// Folds one report in.
    pub fn push(&mut self, offset: u64, rule: u32) {
        for b in offset.to_le_bytes().into_iter().chain(rule.to_le_bytes()) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
    }

    /// Folds a batch in.
    pub fn extend(&mut self, reports: &[(u64, u32)]) {
        for &(offset, rule) in reports {
            self.push(offset, rule);
        }
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of unsorted `values`
/// (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest rank) of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.extend(&[(1, 0), (2, 1)]);
        let mut b = Digest::default();
        b.extend(&[(2, 1), (1, 0)]);
        assert_eq!(a.count, b.count);
        assert_ne!(a, b);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
