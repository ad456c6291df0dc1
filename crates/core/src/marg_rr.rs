//! `MargRR` — parallel randomized response on one random k-way marginal
//! (§4.3).
//!
//! Client: sample a marginal `β` uniformly from the `C(d,k)` k-way
//! marginals, materialize the user's (one-hot) marginal table `C_β(t_i)`
//! of size `2^k`, perturb every cell with `ε/2`-RR, and send
//! `⟨perturbed table, β⟩` (`d + 2^k` bits). Aggregator: per marginal,
//! unbias cell frequencies over the users who sampled it. Error
//! `Õ(2^k d^{k/2} / (ε√N))`.

use crate::wire::{in_range, tag, Reader, WireError, Writer};
use crate::{Accumulator, MarginalSetEstimate};
use ldp_bits::{compress, masks_of_weight, Mask};
use ldp_mechanisms::{UnaryEncoding, UnaryFlavor};
use ldp_sampling::one_hot_words;
use rand::Rng;

/// One user's report: the sampled marginal and the perturbed one-hot
/// table (as the list of cells reporting 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MargRrReport {
    /// Index of the sampled marginal in `masks_of_weight(d, k)` order.
    pub marginal: u32,
    /// Cells (local indices in `[0, 2^k)`) reporting 1.
    pub ones: Vec<u16>,
}

/// Configuration of the `MargRR` mechanism.
#[derive(Clone, Debug)]
pub struct MargRr {
    d: u32,
    k: u32,
    marginals: Vec<Mask>,
    ue: UnaryEncoding,
}

impl MargRr {
    /// ε-LDP instance targeting k-way marginals over `d` attributes,
    /// using the Wang et al. optimized probabilities (§5.1).
    #[must_use]
    pub fn new(d: u32, k: u32, eps: f64) -> Self {
        Self::with_flavor(d, k, eps, UnaryFlavor::Optimized)
    }

    /// Choose the unary-encoding probability flavor explicitly.
    #[must_use]
    pub fn with_flavor(d: u32, k: u32, eps: f64, flavor: UnaryFlavor) -> Self {
        assert!(k >= 1 && k <= d && k <= 16, "need 1 ≤ k ≤ min(d, 16)");
        MargRr {
            d,
            k,
            marginals: masks_of_weight(d, k).collect(),
            ue: UnaryEncoding::for_epsilon(eps, flavor),
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Marginal order.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of k-way marginals `C(d,k)`.
    #[must_use]
    pub fn marginal_count(&self) -> usize {
        self.marginals.len()
    }

    /// Client: sample a marginal, perturb its one-hot table.
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> MargRrReport {
        let (marginal, cell) = self.sample_marginal(row, rng);
        let mut ones = Vec::new();
        let mut base = 0u16;
        self.perturbed_table(cell, rng, |word, lanes| {
            ones.extend(ldp_bits::ones(word).map(|tz| base + tz as u16));
            base = base.wrapping_add(lanes as u16);
        });
        MargRrReport { marginal, ones }
    }

    /// First half of the encode: draw the marginal uniformly and project
    /// the row onto it. Returns `(marginal index, local cell)`. Split
    /// out so the batched kernel can write the marginal field before the
    /// variable-length ones list, and `Mechanism::run` can count the
    /// table without building a report.
    #[inline]
    pub fn sample_marginal<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> (u32, u64) {
        let mi = rng.gen_range(0..self.marginals.len());
        let beta = self.marginals[mi];
        (mi as u32, compress(row, beta.bits()))
    }

    /// Second half of the encode, shared by the serial
    /// [`encode`](Self::encode), the wire encoder and `Mechanism::run`:
    /// the perturbed `2^k`-cell table as successive words (a single word
    /// of `2^k` lanes for `k ≤ 6`). See [`ldp_sampling::one_hot_words`].
    #[inline]
    pub fn perturbed_table<R: Rng + ?Sized, F: FnMut(u64, u32)>(
        &self,
        cell: u64,
        rng: &mut R,
        emit: F,
    ) {
        let (p1, p0) = (self.ue.p1(), self.ue.p0());
        one_hot_words(rng, p1, p0, 1u64 << self.k, cell, emit);
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> MargRrAggregator {
        MargRrAggregator {
            ue: self.ue,
            d: self.d,
            k: self.k,
            ones: vec![0u64; (1usize << self.k) * self.marginals.len()],
            users: vec![0u64; self.marginals.len()],
        }
    }
}

/// Aggregator for [`MargRr`]: per-marginal per-cell 1-report counts,
/// stored flat (marginal-major) so the per-report hot loop touches one
/// contiguous table instead of chasing a nested `Vec`.
#[derive(Clone, Debug)]
pub struct MargRrAggregator {
    ue: UnaryEncoding,
    d: u32,
    k: u32,
    ones: Vec<u64>,
    users: Vec<u64>,
}

impl MargRrAggregator {
    /// The range check: a report must name one of the `C(d,k)`
    /// marginals. The protocol table applies it to a whole batch before
    /// absorbing any of it.
    #[inline]
    pub fn check(&self, marginal: u32) -> Result<(), WireError> {
        in_range(
            "MargRR marginal",
            u64::from(marginal),
            self.users.len() as u64,
        )
    }

    /// Absorb one report.
    #[inline]
    pub fn absorb(&mut self, report: &MargRrReport) {
        self.absorb_ones(report.marginal, report.ones.iter().copied());
    }

    /// Absorb one report given as its marginal and the positions of its
    /// table's 1-bits — the form the protocol table's frame kernel reads
    /// straight off the wire. Cell indices are folded into the sampled
    /// marginal's 2^k-cell table (`cell mod 2^k`), so a corrupt cell
    /// degrades to a miscount. The marginal must pass [`Self::check`]:
    /// the protocol table refuses a batch holding a marginal outside
    /// `C(d,k)`, and absorbing one directly panics.
    #[inline]
    pub fn absorb_ones<I: IntoIterator<Item = u16>>(&mut self, marginal: u32, ones: I) {
        let mask = (1usize << self.k) - 1;
        let table = self.user_table(marginal);
        for c in ones {
            table[c as usize & mask] += 1;
        }
    }

    /// Count one user of `marginal` and return that marginal's `2^k`
    /// cell counts, for the caller to add the user's 1-cells to. The
    /// user is counted here, once, however many words their table
    /// spans. The marginal must pass [`Self::check`] (one outside
    /// `C(d,k)` panics).
    #[inline]
    pub fn user_table(&mut self, marginal: u32) -> &mut [u64] {
        let cells = 1usize << self.k;
        let m = marginal as usize;
        self.users[m] += 1;
        &mut self.ones[m * cells..(m + 1) * cells]
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Target marginal order.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Unbias every marginal table. Marginals nobody sampled fall back to
    /// the uniform table.
    #[must_use]
    pub fn finish(self) -> MarginalSetEstimate {
        let cells = 1usize << self.k;
        let uniform = 1.0 / cells as f64;
        let tables = self
            .ones
            .chunks_exact(cells)
            .zip(&self.users)
            .map(|(table, &u)| {
                if u == 0 {
                    vec![uniform; table.len()]
                } else {
                    table
                        .iter()
                        .map(|&c| self.ue.unbias_frequency(c as f64 / u as f64))
                        .collect()
                }
            })
            .collect();
        MarginalSetEstimate::new(self.d, self.k, tables)
    }
}

impl Accumulator for MargRrAggregator {
    type Report = MargRrReport;
    type Output = MarginalSetEstimate;

    #[inline]
    fn absorb(&mut self, report: &MargRrReport) {
        MargRrAggregator::absorb(self, report);
    }

    fn merge(&mut self, other: Self) {
        for (a, b) in self.users.iter_mut().zip(other.users) {
            *a = a.saturating_add(b);
        }
        for (a, b) in self.ones.iter_mut().zip(other.ones) {
            *a = a.saturating_add(b);
        }
    }

    fn report_count(&self) -> u64 {
        // Saturating: a decoded hostile state may hold counts whose
        // total no real population reaches.
        self.users.iter().fold(0, |n: u64, &c| n.saturating_add(c))
    }

    fn finalize(self) -> MarginalSetEstimate {
        self.finish()
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_tag(tag::MARG_RR);
        w.put_u32(self.d);
        w.put_u32(self.k);
        w.put_f64(self.ue.p1());
        w.put_f64(self.ue.p0());
        w.put_u64_slice(&self.users);
        w.put_u64_slice(&self.ones);
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::with_tag(bytes, tag::MARG_RR)?;
        let d = r.get_u32()?;
        let k = r.get_u32()?;
        let p1 = r.get_f64()?;
        let p0 = r.get_f64()?;
        let users = r.get_u64_vec()?;
        let flat = r.get_u64_vec()?;
        r.finish()?;
        if !(1..=63).contains(&d) || k < 1 || k > d || k > 16 {
            return Err(WireError::Invalid("MargRR dimensions"));
        }
        if !(0.0..=1.0).contains(&p1) || !(0.0..=1.0).contains(&p0) || p1 <= p0 {
            return Err(WireError::Invalid("MargRR probabilities"));
        }
        // O(k) count and checked width math — never enumerate C(d,k)
        // masks or trust a product on untrusted dims.
        let marginals = ldp_bits::binomial(u64::from(d), u64::from(k));
        let cells = 1u64 << k;
        let expected = marginals
            .checked_mul(cells)
            .ok_or(WireError::Invalid("MargRR table shape"))?;
        if users.len() as u64 != marginals || flat.len() as u64 != expected {
            return Err(WireError::Invalid("MargRR table shape"));
        }
        Ok(MargRrAggregator {
            ue: UnaryEncoding::with_probabilities(p1, p0),
            d,
            k,
            ones: flat,
            users,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mean_kway_tvd;
    use ldp_data::{movielens::MovieLensGenerator, BinaryDataset};
    use rand::{rngs::StdRng, SeedableRng};

    fn run(mech: &MargRr, rows: &[u64], seed: u64) -> MarginalSetEstimate {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = mech.aggregator();
        for &row in rows {
            agg.absorb(&mech.encode(row, &mut rng));
        }
        agg.finish()
    }

    #[test]
    fn marginal_count() {
        assert_eq!(MargRr::new(8, 2, 1.0).marginal_count(), 28);
        assert_eq!(MargRr::new(16, 3, 1.0).marginal_count(), 560);
    }

    #[test]
    fn reconstructs_marginals() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = MovieLensGenerator::new(6).generate(150_000, &mut rng);
        let mech = MargRr::new(6, 2, 1.1);
        let est = run(&mech, ds.rows(), 1);
        let tvd = mean_kway_tvd(&est, &ds, 2);
        assert!(tvd < 0.12, "mean 2-way tvd {tvd}");
    }

    #[test]
    fn tables_sum_to_one() {
        // OUE unbiasing is affine, and each user's one-hot sums to 1 only
        // in expectation — so sums should concentrate near 1.
        let mut rng = StdRng::seed_from_u64(2);
        let ds = MovieLensGenerator::new(5).generate(80_000, &mut rng);
        let mech = MargRr::new(5, 2, 1.1);
        let est = run(&mech, ds.rows(), 3);
        for i in 0..est.marginals().len() {
            let s: f64 = est.table(i).iter().sum();
            assert!((s - 1.0).abs() < 0.2, "marginal {i} sums to {s}");
        }
    }

    #[test]
    fn point_mass_reconstruction() {
        let rows = vec![0b011u64; 60_000];
        let ds = BinaryDataset::new(3, rows.clone());
        let mech = MargRr::new(3, 2, 2.0);
        let est = run(&mech, &rows, 4);
        let tvd = mean_kway_tvd(&est, &ds, 2);
        assert!(tvd < 0.07, "tvd {tvd}");
    }

    #[test]
    fn unsampled_marginals_fall_back_to_uniform() {
        // A single user cannot cover all 28 marginals.
        let mech = MargRr::new(8, 2, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut agg = mech.aggregator();
        agg.absorb(&mech.encode(0, &mut rng));
        let est = agg.finish();
        let uniform_tables = est
            .marginals()
            .iter()
            .enumerate()
            .filter(|(i, _)| est.table(*i).iter().all(|v| (v - 0.25).abs() < 1e-12))
            .count();
        assert!(uniform_tables >= 27);
    }
}
