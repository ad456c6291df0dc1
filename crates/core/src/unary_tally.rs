//! [`UnaryTally`]: the state of InpRR, MargRR and CMS, whose reports
//! carry a perturbed unary vector (a set) in one row: InpRR's `2^d`
//! cells, a MargRR marginal's `2^k` cells or a CMS sketch row's `w`
//! buckets. Covered by the `ldp-lint` hot-path panic scan.

use crate::wire::{in_range, WireError};
use ldp_mechanisms::UnaryEncoding;

/// Per row, a user count and one 1-count per position, row-major (the
/// order the aggregators serialize them in).
#[derive(Clone, Debug)]
pub struct UnaryTally {
    /// What a row index names, for range-check messages.
    field: &'static str,
    width: usize,
    users: Vec<u64>,
    ones: Vec<u64>,
}

/// One user's row, which [`UnaryTally::user`] hands out for their set.
pub struct UnaryRow<'a> {
    cells: &'a mut [u64],
    /// The position bit 0 of the next word stands for.
    base: usize,
}

impl UnaryRow<'_> {
    /// The absorb kernel: add the set's next 64 positions, the 1-bits of
    /// `word` (bit `j` of the `i`-th word is position `64·i + j`). Bits
    /// past the row count nothing.
    #[inline]
    pub fn add_word(&mut self, word: u64) {
        for tz in ldp_bits::ones(word) {
            let cell = self.base + usize::try_from(tz).unwrap_or(usize::MAX);
            if let Some(n) = self.cells.get_mut(cell) {
                *n = n.wrapping_add(1);
            }
        }
        self.base += 64;
    }
}

impl UnaryTally {
    /// An empty tally of `rows` rows of `width ≥ 1` cells (which the
    /// callers check), whose row index is named `field`.
    #[must_use]
    pub fn new(field: &'static str, rows: usize, width: usize) -> UnaryTally {
        let width = width.max(1);
        UnaryTally {
            field,
            width,
            users: vec![0; rows],
            ones: vec![0; rows.saturating_mul(width)],
        }
    }

    /// Load per-row `users` and row-major `ones`, the tables
    /// [`Self::counts`] returns.
    ///
    /// # Errors
    ///
    /// Refuses tables of other lengths than the tally's.
    pub fn fill(&mut self, users: Vec<u64>, ones: Vec<u64>) -> Result<(), WireError> {
        if users.len() != self.users.len() || ones.len() != self.ones.len() {
            return Err(WireError::Mismatch("table length"));
        }
        self.users = users;
        self.ones = ones;
        Ok(())
    }

    /// The range check: `row` must be one of the tally's rows.
    #[inline]
    pub fn check(&self, row: u64) -> Result<(), WireError> {
        in_range(self.field, row, self.users.len() as u64)
    }

    /// Count one user of `row` and return the row their set goes into
    /// ([`UnaryRow::add_word`]). `row` must pass [`Self::check`]; one
    /// outside counts nothing. Counts wrap, as in [`crate::Tally::add`].
    #[inline]
    pub fn user(&mut self, row: u64) -> UnaryRow<'_> {
        let r = usize::try_from(row).unwrap_or(usize::MAX);
        if let Some(u) = self.users.get_mut(r) {
            *u = u.wrapping_add(1);
        }
        let mut rows = self.ones.chunks_exact_mut(self.width);
        let cells = rows.nth(r).unwrap_or_default();
        UnaryRow { cells, base: 0 }
    }

    /// Count one typed report: a user of `row` (as for [`Self::user`])
    /// whose set is `words`, each through [`UnaryRow::add_word`].
    pub fn absorb(&mut self, row: u64, words: &[u64]) {
        let mut user = self.user(row);
        for &word in words {
            user.add_word(word);
        }
    }

    /// Add `other`, a tally of the same shape, count by count,
    /// saturating.
    pub fn merge(&mut self, other: &UnaryTally) {
        let pairs = self.users.iter_mut().zip(&other.users);
        for (a, b) in pairs.chain(self.ones.iter_mut().zip(&other.ones)) {
            *a = a.saturating_add(*b);
        }
    }

    /// Users counted, over every row (saturating: a decoded hostile
    /// state may hold counts whose total no real population reaches).
    #[must_use]
    pub fn report_count(&self) -> u64 {
        self.users.iter().fold(0, |n: u64, &u| n.saturating_add(u))
    }

    /// The user count of each row, and the 1-counts row after row.
    #[must_use]
    pub fn counts(&self) -> (&[u64], &[u64]) {
        (&self.users, &self.ones)
    }

    /// Each row unbiased under `ue`, cell by cell as
    /// `(ones/users − p0)/(p1 − p0)` (Wang et al., USENIX Security 2017);
    /// a row no user reached is uniform.
    #[must_use]
    pub fn unbias(&self, ue: UnaryEncoding) -> Vec<Vec<f64>> {
        let rows = self.ones.chunks_exact(self.width).zip(&self.users);
        rows.map(|(row, &u)| match u {
            0 => vec![1.0 / self.width as f64; self.width],
            u => row
                .iter()
                .map(|&c| ue.unbias_frequency(c as f64 / u as f64))
                .collect(),
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-by-bit count of one user's `words` into `row` of a tally
    /// of `width`-cell rows, a cell past the width counting nothing: the
    /// reference [`UnaryRow::add_word`] is held to.
    fn naive(users: &mut [u64], ones: &mut [u64], width: usize, row: usize, words: &[u64]) {
        users[row] += 1;
        for (i, word) in words.iter().enumerate() {
            for j in 0..64 {
                let cell = 64 * i + j;
                if cell < width && word >> j & 1 == 1 {
                    ones[row * width + cell] += 1;
                }
            }
        }
    }

    #[test]
    fn add_word_counts_what_a_bit_by_bit_count_does() {
        // Two rows of 70 cells: sets spanning two words, the second
        // ending mid-word, one with bits past the width.
        let sets: [(usize, &[u64]); 3] = [
            (1, &[1 | 1 << 5 | 1 << 63, 1 | 1 << 5]),
            (0, &[1 << 3, 1 << 6 | 1 << 63]),
            (1, &[u64::MAX, u64::MAX]),
        ];
        let mut words = UnaryTally::new("row", 2, 70);
        let (mut users, mut ones) = (vec![0; 2], vec![0; 140]);
        for (row, set) in sets {
            words.absorb(row as u64, set);
            naive(&mut users, &mut ones, 70, row, set);
        }
        assert_eq!(words.counts(), (&users[..], &ones[..]));
        let counted: Vec<usize> = (0..70).filter(|&c| ones[70 + c] == 2).collect();
        assert_eq!(counted, [0, 5, 63, 64, 69]);
        assert_eq!(ones[3], 1);
        assert_eq!(words.report_count(), 3);
    }

    #[test]
    fn rows_outside_the_tally_are_refused_and_count_nothing() {
        let mut t = UnaryTally::new("MargRR marginal", 3, 4);
        assert_eq!(
            t.check(3).unwrap_err().to_string(),
            "MargRR marginal 3 is out of range (must be below 3)"
        );
        t.absorb(3, &[1]);
        t.user(3).add_word(u64::MAX);
        t.user(u64::MAX).add_word(u64::MAX);
        assert_eq!(t.report_count(), 0);
        assert!(t.counts().1.iter().all(|&c| c == 0));
    }

    #[test]
    fn merge_saturates_and_empty_rows_unbias_to_uniform() {
        let ue = UnaryEncoding::for_epsilon(1.1, ldp_mechanisms::UnaryFlavor::Optimized);
        let (mut a, mut b) = (UnaryTally::new("row", 2, 2), UnaryTally::new("row", 2, 2));
        a.fill(vec![u64::MAX, 0], vec![1, 2, 0, 0]).unwrap();
        b.fill(vec![1, 0], vec![u64::MAX, 0, 0, 0]).unwrap();
        assert_eq!(
            b.fill(vec![1], vec![0; 4]),
            Err(WireError::Mismatch("table length"))
        );
        a.merge(&b);
        assert_eq!(a.counts().0, &[u64::MAX, 0]);
        assert_eq!(a.counts().1, &[u64::MAX, 2, 0, 0]);
        assert_eq!(a.report_count(), u64::MAX);
        let rows = a.unbias(ue);
        assert_eq!(rows[1], vec![0.5, 0.5]);
    }
}
