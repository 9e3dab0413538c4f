//! Inverse-CDF sampling over a discrete distribution.

/// Index of the first CDF entry ≥ `u`.
///
/// `total_cmp` keeps this total even on a hostile CDF — the finiteness
/// invariant is asserted where the CDFs are built, not panicked on here
/// (this is library code on the per-day hot path).
pub(crate) fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    debug_assert!(!cdf.is_empty());
    match cdf.binary_search_by(|p| p.total_cmp(&u)) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len() - 1),
    }
}

/// A CDF with a guide table: [`sample`](Self::sample) returns exactly
/// [`sample_cdf`]'s index for every finite `u`, searching one bucket of
/// the CDF instead of all of it.
///
/// `[0, 1)` is cut into `K` equal buckets, one per CDF entry. A value's
/// bucket is `⌊v·K⌋`, clamped to `K − 1`; that map never decreases as `v`
/// grows, so every entry in an earlier bucket than `u`'s is below `u` and
/// every entry in a later one is above it. `starts[k]` is the first entry
/// whose bucket is at least `k`, and a draw only searches its own bucket's
/// entries. The bucket map is floating-point arithmetic applied alike to
/// `u` and to the entries, so no rounding can put an entry on the wrong
/// side of `u`.
///
/// The CDF must be strictly increasing, as the generator's are: with tied
/// entries `sample_cdf` may return any of the tied indices.
#[derive(Debug, Clone)]
pub(crate) struct GuidedCdf {
    cdf: Vec<f64>,
    /// `K + 1` entries; bucket `k`'s entries are `starts[k]..starts[k + 1]`.
    starts: Vec<u32>,
}

impl GuidedCdf {
    pub(crate) fn new(cdf: Vec<f64>) -> Self {
        debug_assert!(!cdf.is_empty());
        debug_assert!(
            cdf.windows(2).all(|w| w[0] < w[1]),
            "a guide table needs a strictly increasing CDF"
        );
        let buckets = cdf.len();
        let mut starts = Vec::with_capacity(buckets + 1);
        for (i, &p) in cdf.iter().enumerate() {
            let b = bucket(p, buckets);
            while starts.len() <= b {
                starts.push(i as u32);
            }
        }
        starts.resize(buckets + 1, cdf.len() as u32);
        GuidedCdf { cdf, starts }
    }

    /// The index [`sample_cdf`] returns for `u`.
    pub(crate) fn sample(&self, u: f64) -> usize {
        let b = bucket(u, self.cdf.len());
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        let i = lo + self.cdf[lo..hi].partition_point(|p| p.total_cmp(&u).is_lt());
        i.min(self.cdf.len() - 1)
    }
}

/// `v`'s bucket out of `buckets`: `⌊v·buckets⌋`, clamped to the last one.
fn bucket(v: f64, buckets: usize) -> usize {
    ((v * buckets as f64) as usize).min(buckets - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The Zipf CDF `IspNetwork::new` builds over `n` sites.
    fn zipf(n: usize, exponent: f64) -> Vec<f64> {
        let weights: Vec<f64> = (0..n)
            .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    }

    /// Every probe that can sit on a boundary: each bucket edge `k/K`
    /// (0 among them) and each CDF entry, with its neighbouring floats on
    /// either side.
    fn assert_exact(cdf: &[f64]) {
        let guided = GuidedCdf::new(cdf.to_vec());
        let k = cdf.len();
        let edges = (0..=k).map(|b| b as f64 / k as f64);
        let around = |p: f64| [p.next_down(), p, p.next_up()];
        for u in edges.chain(cdf.iter().copied()).flat_map(around) {
            assert_eq!(guided.sample(u), sample_cdf(cdf, u), "u = {u:e}");
        }
    }

    #[test]
    fn guide_table_is_exact_on_the_generators_zipf_cdfs() {
        // `benign_e2lds` at `tiny` and `paper` scale, without and with the
        // free-hosting zones appended.
        for sites in [300, 304, 60_000, 60_008] {
            assert_exact(&zipf(sites, 0.95));
        }
    }

    #[test]
    fn guide_table_is_exact_on_short_cdfs() {
        assert_exact(&[1.0]);
        assert_exact(&[0.2, 0.7, 1.0]);
        // Ends short of 1 (rounding): the last index absorbs the rest.
        assert_exact(&[0.5, 0.999_999_999]);
        // Ends past 1: the overflow lands in the last bucket.
        assert_exact(&[0.25, 1.000_000_000_000_2]);
        let guided = GuidedCdf::new(vec![0.5, 0.999_999_999]);
        assert_eq!(guided.sample(0.999_999_999_5), 1);
    }

    proptest! {
        /// Random strictly increasing CDFs, crowded into a few buckets or
        /// spread over all of them, probed at every boundary and at
        /// random points.
        #[test]
        fn guide_table_is_exact_on_random_cdfs(
            gaps in proptest::collection::vec(1u32..1_000, 1..200),
            skew in 1i32..6,
            probes in proptest::collection::vec(0.0f64..1.0, 64),
        ) {
            let mut acc = 0.0f64;
            let weights: Vec<f64> = gaps
                .iter()
                .map(|&g| f64::from(g).powi(skew))
                .collect();
            let total: f64 = weights.iter().sum();
            let cdf: Vec<f64> = weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect();
            prop_assume!(cdf.windows(2).all(|w| w[0] < w[1]));
            assert_exact(&cdf);
            let guided = GuidedCdf::new(cdf.clone());
            for u in probes {
                prop_assert_eq!(guided.sample(u), sample_cdf(&cdf, u));
            }
        }
    }
}
