//! A simple Zipf sampler over ranks `1..=n`.

/// Zipf distribution with exponent `s` over `1..=n`, sampled by CDF
/// inversion through an exact guide table.
///
/// The table splits `[0, 1)` into `G` equal buckets (`G` a power of two,
/// about `n / 16`). `guide[j]` counts the CDF entries below the bucket's
/// lower edge `j / G`, so a draw `u` in bucket `j` only has to search
/// `cdf[guide[j]..guide[j + 1]]` (8 to 16 entries on average) instead of
/// the whole CDF. The rank is the same one a full binary search returns:
/// `count(cdf < u) + 1`.
///
/// # Example
///
/// ```
/// use lookaside_workload::Zipf;
///
/// let zipf = Zipf::new(100, 1.0);
/// assert_eq!(zipf.sample(0.0), 1); // lowest ranks dominate
/// assert!(zipf.sample_hash(u64::MAX / 2) <= 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` = number of CDF entries `< j / G`, for `j` in `0..=G`.
    guide: Vec<usize>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        // A power of two, so every edge `j / G` and every `u * G` is exact.
        let buckets = (n.next_power_of_two() / 16).max(2);
        let step = 1.0 / buckets as f64;
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut edge = 0.0;
        for (i, v) in cdf.iter_mut().enumerate() {
            *v /= total;
            // The CDF is non-decreasing: every edge not yet passed lies
            // above all of `cdf[..i]`, so the first entry reaching it is `i`.
            while guide.len() <= buckets && edge <= *v {
                guide.push(i);
                edge += step;
            }
        }
        guide.resize(buckets + 1, n);
        Zipf { cdf, guide }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Samples a rank in `1..=n` from a uniform `u ∈ [0, 1)`.
    ///
    /// `u` is clamped into `[0, 1 − ε]`; a NaN `u` samples as `0.0`, the
    /// most popular rank.
    ///
    /// ```
    /// use lookaside_workload::Zipf;
    ///
    /// let zipf = Zipf::new(1000, 0.9);
    /// assert_eq!(zipf.sample(f64::NAN), zipf.sample(0.0));
    /// assert_eq!(zipf.sample(f64::NAN), 1);
    /// assert_eq!(zipf.sample(2.0), 1000);
    /// ```
    // lint:entry(hot-path)
    pub fn sample(&self, u: f64) -> usize {
        let u = if u.is_nan() { 0.0 } else { u.clamp(0.0, 1.0 - f64::EPSILON) };
        let below = match self.bucket_search(u) {
            Some(below) => below,
            None => self.cdf.partition_point(|&p| p < u),
        };
        (below + 1).min(self.cdf.len())
    }

    /// `count(cdf < u)` searched within `u`'s guide bucket, or `None` if
    /// the bucket does not bracket `u` (then the caller searches it all).
    fn bucket_search(&self, u: f64) -> Option<usize> {
        let bucket = (u * (self.guide.len() - 1) as f64) as usize;
        let lo = *self.guide.get(bucket)?;
        let hi = *self.guide.get(bucket + 1)?;
        let window = self.cdf.get(lo..hi)?;
        let floor_below = match lo.checked_sub(1) {
            Some(k) => *self.cdf.get(k)? < u,
            None => true,
        };
        let ceiling_above = self.cdf.get(hi).is_none_or(|&p| u <= p);
        (floor_below && ceiling_above).then(|| lo + window.partition_point(|&p| p < u))
    }

    /// Samples from a hash value (uniform over `u64`).
    pub fn sample_hash(&self, h: u64) -> usize {
        self.sample(h as f64 / u64::MAX as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sampler before the guide table: one binary search over the
    /// whole CDF. Kept as the reference `sample` must equal exactly.
    fn reference(z: &Zipf, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        match z.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("no NaN in cdf")) {
            Ok(i) | Err(i) => (i + 1).min(z.cdf.len()),
        }
    }

    /// Checks `sample` against the reference at the inputs where a
    /// bucketed search could go wrong: the ends of `[0, 1)`, every bucket
    /// edge and its neighbours, and every CDF value and its neighbours.
    fn assert_matches_reference(z: &Zipf) {
        // Ties would let the two searches pick different equal entries.
        assert!(z.cdf.windows(2).all(|w| w[0] < w[1]), "cdf not strictly increasing");
        let buckets = z.guide.len() - 1;
        assert!(buckets.is_power_of_two() && buckets >= 2);
        let mut probes = vec![0.0, 1.0 - f64::EPSILON, 1.0, -0.0];
        for j in 0..=buckets {
            let edge = j as f64 / buckets as f64;
            probes.extend([edge, edge.next_up(), edge.next_down()]);
        }
        for &p in &z.cdf {
            probes.extend([p, p.next_up(), p.next_down()]);
        }
        for u in probes {
            assert_eq!(z.sample(u), reference(z, u), "n {} u {u:e}", z.n());
        }
    }

    #[test]
    fn cdf_ends_at_one() {
        let z = Zipf::new(100, 1.0);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn guide_counts_cdf_entries_below_each_edge() {
        for n in [1, 2, 17, 1000, 4096] {
            let z = Zipf::new(n, 0.92);
            let buckets = z.guide.len() - 1;
            assert_eq!(buckets, (n.next_power_of_two() / 16).max(2));
            for (j, &g) in z.guide.iter().enumerate() {
                let edge = j as f64 / buckets as f64;
                assert_eq!(g, z.cdf.iter().filter(|&&p| p < edge).count(), "n {n} bucket {j}");
            }
        }
    }

    #[test]
    fn small_and_power_of_two_supports_match_reference() {
        let mut sizes = vec![1, 2, 3, 15, 16, 17, 31, 33, 4095, 4097];
        sizes.extend((0..=12).map(|k| 1usize << k));
        for n in sizes {
            for s in [0.1, 0.92, 1.0, 1.99] {
                assert_matches_reference(&Zipf::new(n, s));
            }
        }
    }

    proptest! {
        #[test]
        fn sample_equals_full_binary_search(n in 1usize..5_000, s in 0.1f64..2.0, h in any::<u64>()) {
            let z = Zipf::new(n, s);
            assert_matches_reference(&z);
            prop_assert_eq!(z.sample_hash(h), reference(&z, h as f64 / u64::MAX as f64));
        }
    }

    /// The Fig. 12 model's table: a million splitmix64 draws rank exactly
    /// as the full binary search ranks them.
    #[test]
    fn fig12_model_draws_match_reference() {
        let z = Zipf::new(2_000_000, 0.92);
        assert!(z.cdf.windows(2).all(|w| w[0] < w[1]), "cdf not strictly increasing");
        let mut state = 0x5eed_u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let h = x ^ (x >> 31);
            assert_eq!(z.sample_hash(h), reference(&z, h as f64 / u64::MAX as f64));
        }
    }

    #[test]
    fn sample_bounds() {
        let z = Zipf::new(50, 0.8);
        assert_eq!(z.sample(0.0), 1);
        assert_eq!(z.sample(1.0), 50);
        for i in 0..1000 {
            let u = i as f64 / 1000.0;
            let k = z.sample(u);
            assert!((1..=50).contains(&k));
        }
    }

    #[test]
    fn nan_samples_as_zero() {
        let z = Zipf::new(50, 0.8);
        assert_eq!(z.sample(f64::NAN), 1);
        assert_eq!(z.sample(-f64::NAN), 1);
        assert_eq!(z.sample(f64::NEG_INFINITY), 1);
        assert_eq!(z.sample(f64::INFINITY), 50);
    }

    #[test]
    fn low_ranks_dominate() {
        let z = Zipf::new(1000, 1.0);
        let mut head = 0usize;
        for i in 0..10_000u64 {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
            if z.sample_hash(h) <= 10 {
                head += 1;
            }
        }
        // Top-10 mass of Zipf(1) over 1000 ≈ 39%.
        assert!((2_500..5_500).contains(&head), "head draws {head}");
    }

    #[test]
    fn monotone_in_u() {
        let z = Zipf::new(20, 1.2);
        let mut last = 0;
        for i in 0..=100 {
            let k = z.sample(i as f64 / 100.0);
            assert!(k >= last);
            last = k;
        }
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn zero_support_panics() {
        Zipf::new(0, 1.0);
    }
}
