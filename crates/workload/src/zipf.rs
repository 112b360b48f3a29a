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
    /// Fills the weights serially with [`Zipf::fill_terms`], then builds
    /// the table with [`Zipf::from_terms`]; callers that fill the weights
    /// in parallel chunks get the same table bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty support");
        let mut terms = vec![0.0; n];
        Zipf::fill_terms(&mut terms, 1, s);
        Zipf::from_terms(terms)
    }

    /// Writes the unnormalised weight `1 / k^s` of rank `k = first_rank + i`
    /// into `terms[i]`.
    ///
    /// Each weight depends on its rank alone, so disjoint slices of one
    /// buffer can be filled in any order, on any thread, and refilling a
    /// slice writes the same bits.
    pub fn fill_terms(terms: &mut [f64], first_rank: usize, s: f64) {
        for (k, term) in (first_rank..).zip(terms) {
            *term = 1.0 / (k as f64).powf(s);
        }
    }

    /// Builds the sampler from the weights of ranks `1..=terms.len()`, in
    /// rank order, reusing `terms` as the CDF.
    ///
    /// The running sum, the normalisation and the guide table are serial
    /// and in rank order, so the CDF bits depend only on the weights, not
    /// on how they were filled.
    ///
    /// ```
    /// use lookaside_workload::Zipf;
    ///
    /// let mut terms = vec![0.0; 1000];
    /// let (head, tail) = terms.split_at_mut(300);
    /// Zipf::fill_terms(tail, 301, 0.9);
    /// Zipf::fill_terms(head, 1, 0.9);
    /// let zipf = Zipf::from_terms(terms);
    /// assert_eq!(zipf.sample(0.5), Zipf::new(1000, 0.9).sample(0.5));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty or its total weight is not positive and
    /// finite.
    pub fn from_terms(mut terms: Vec<f64>) -> Self {
        let n = terms.len();
        assert!(n > 0, "zipf over empty support");
        let mut acc = 0.0;
        for term in terms.iter_mut() {
            acc += *term;
            *term = acc;
        }
        let total = acc;
        assert!(total > 0.0 && total.is_finite(), "zipf weights total {total}");
        let mut cdf = terms;
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
        self.sample(unit(h))
    }

    /// [`Zipf::sample_hash`] over a block of hashes: the same rank for
    /// each, in the same order.
    ///
    /// A lone draw waits on two dependent cache misses, one into the guide
    /// table and one into the CDF. The block issues each stage's loads for
    /// every draw before the next stage needs them: first every draw's
    /// guide entry, then the first CDF entry of every draw's bucket, and
    /// only then the exact per-draw search, whose first loads then hit cache.
    ///
    /// ```
    /// use lookaside_workload::Zipf;
    ///
    /// let zipf = Zipf::new(1000, 0.9);
    /// let hashes = [0, 7, u64::MAX / 3, u64::MAX];
    /// assert_eq!(zipf.sample_hashes(&hashes), hashes.map(|h| zipf.sample_hash(h)));
    /// ```
    // lint:entry(hot-path)
    pub fn sample_hashes<const B: usize>(&self, hashes: &[u64; B]) -> [usize; B] {
        let units = hashes.map(unit);
        // Stage 1: each draw's bucket and guide entry.
        let buckets = self.guide.len().saturating_sub(1) as f64;
        let firsts = units.map(|u| self.guide.get((u * buckets) as usize).copied().unwrap_or(0));
        // Stage 2: the first CDF entry of each bucket, read so the loads
        // are issued here; the value itself is not needed.
        let touched =
            firsts.iter().fold(0u64, |acc, &lo| acc ^ self.cdf.get(lo).map_or(0, |p| p.to_bits()));
        std::hint::black_box(touched);
        // Stage 3: the exact search, draw by draw.
        units.map(|u| self.sample(u))
    }
}

/// A hash as a uniform draw in `[0, 1]`.
fn unit(h: u64) -> f64 {
    h as f64 / u64::MAX as f64
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

    /// A table whose weights were filled `chunk` ranks at a time, last
    /// chunk first, as the parallel prep sweep may fill them.
    fn chunked(n: usize, s: f64, chunk: usize) -> Zipf {
        let mut terms = vec![0.0; n];
        let mut chunks: Vec<_> = (1..).step_by(chunk).zip(terms.chunks_mut(chunk)).collect();
        while let Some((first_rank, slice)) = chunks.pop() {
            Zipf::fill_terms(slice, first_rank, s);
        }
        Zipf::from_terms(terms)
    }

    fn assert_bit_identical(a: &Zipf, b: &Zipf) {
        let bits = |z: &Zipf| z.cdf.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "cdf bits, n {}", a.n());
        assert_eq!(a.guide, b.guide, "guide, n {}", a.n());
    }

    #[test]
    fn chunked_fill_equals_new_bit_for_bit() {
        // Chunks that divide n, that leave a short last chunk, of one
        // rank, and larger than n.
        for (n, chunk) in
            [(4096, 1024), (4096, 1000), (1000, 1), (17, 64), (1, 8), (65_537, 1 << 16)]
        {
            for s in [0.5, 0.92, 1.7] {
                assert_bit_identical(&chunked(n, s, chunk), &Zipf::new(n, s));
            }
        }
    }

    #[test]
    fn fig12_model_table_filled_in_chunks_equals_new() {
        let z = Zipf::new(2_000_000, 0.92);
        assert_bit_identical(&chunked(2_000_000, 0.92, 1 << 16), &z);
        assert_bit_identical(&chunked(2_000_000, 0.92, 300_001), &z);
    }

    #[test]
    #[should_panic(expected = "zipf weights total")]
    fn all_zero_weights_panic() {
        Zipf::from_terms(vec![0.0; 10]);
    }

    proptest! {
        #[test]
        fn sample_equals_full_binary_search(n in 1usize..5_000, s in 0.1f64..2.0, h in any::<u64>()) {
            let z = Zipf::new(n, s);
            assert_matches_reference(&z);
            prop_assert_eq!(z.sample_hash(h), reference(&z, h as f64 / u64::MAX as f64));
        }

        #[test]
        fn sample_hashes_equals_sample_hash(
            n in 1usize..5_000,
            s in 0.1f64..2.0,
            seed in any::<u64>(),
        ) {
            let z = Zipf::new(n, s);
            let hashes: [u64; 16] = std::array::from_fn(|i| {
                (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
            });
            let mut edges = hashes;
            edges[..4].copy_from_slice(&[0, 1, u64::MAX - 1, u64::MAX]);
            for block in [hashes, edges] {
                prop_assert_eq!(z.sample_hashes(&block), block.map(|h| z.sample_hash(h)));
            }
            let [a, b, c, ..] = hashes;
            prop_assert_eq!(z.sample_hashes(&[a, b, c]), [a, b, c].map(|h| z.sample_hash(h)));
            prop_assert_eq!(z.sample_hashes(&[]), [0usize; 0]);
        }
    }

    /// The Fig. 12 model's table: a million splitmix64 draws rank exactly
    /// as the full binary search ranks them, one by one and in blocks.
    #[test]
    fn fig12_model_draws_match_reference() {
        let z = Zipf::new(2_000_000, 0.92);
        assert!(z.cdf.windows(2).all(|w| w[0] < w[1]), "cdf not strictly increasing");
        let mut state = 0x5eed_u64;
        let hashes: Vec<u64> = (0..1_000_000)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = state;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            })
            .collect();
        let ranks: Vec<usize> = hashes.iter().map(|&h| z.sample_hash(h)).collect();
        for (&h, &rank) in hashes.iter().zip(&ranks) {
            assert_eq!(rank, reference(&z, h as f64 / u64::MAX as f64));
        }
        let (blocks, tail) = hashes.as_chunks::<16>();
        let blocked: Vec<usize> = blocks
            .iter()
            .flat_map(|block| z.sample_hashes(block))
            .chain(tail.iter().map(|&h| z.sample_hash(h)))
            .collect();
        assert_eq!(blocked, ranks);
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
