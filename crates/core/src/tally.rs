//! [`Tally`]: the state of InpPS, InpHT, MargPS, MargHT and HCMS, whose
//! server step is linear in how often each report value arrived (the
//! support-count view of Wang et al., USENIX Security 2017). A report of
//! theirs is one packed field ([`Layout`]: index, value, sign), and the
//! tally keeps one `u64` per field value, in field order. The tables
//! their aggregators serialize list each index value's `2^value` entries
//! in order; a signed protocol's entry is `sums = pos − neg` and
//! `counts = pos + neg` of the bins its sign bit (the field's top bit)
//! tells apart. Index values past the shape's bound, which pad the tally
//! to at most twice its table, stay zero.
//!
//! This file is covered by the `ldp-lint` hot-path panic scan.

use crate::wire::{in_range, WireError};
use crate::Layout;

/// One `u64` per value of a protocol's packed report field.
#[derive(Clone, Debug)]
pub struct Tally {
    layout: Layout,
    /// What the index field names, for range-check messages.
    field: &'static str,
    /// How many index values name a table entry.
    indices: u64,
    bins: Vec<u64>,
}

impl Tally {
    /// An empty tally of reports laid out as `layout`, whose index field
    /// (named `field` in refusals) takes one of `indices` values.
    #[must_use]
    pub fn new(layout: Layout, field: &'static str, indices: u64) -> Tally {
        let bins = vec![0; 1usize.checked_shl(layout.fixed()).unwrap_or(0)];
        Tally {
            layout,
            field,
            indices,
            bins,
        }
    }

    /// The range check: `index` must be one of the `indices` values.
    #[inline]
    pub fn check(&self, index: u64) -> Result<(), WireError> {
        in_range(self.field, index, self.indices)
    }

    /// The bound [`Self::check`] holds an index below, or `None` when the
    /// index field has no room for a value at or above it (InpPS).
    #[must_use]
    pub fn bound(&self) -> Option<u64> {
        let room = 1u64.checked_shl(self.layout.index)?;
        (self.indices < room).then_some(self.indices)
    }

    /// The absorb kernel: count one report by its packed field, whose
    /// index must pass [`Self::check`]. A bin wraps rather than
    /// saturates: only a decoded hostile state holds a count near
    /// `u64::MAX`, and the check would cost every report.
    #[inline]
    pub fn add(&mut self, field: u64) {
        if let Some(n) = self
            .bins
            .get_mut(usize::try_from(field).unwrap_or(usize::MAX))
        {
            *n = n.wrapping_add(1);
        }
    }

    /// Count one typed report by its fields, packed by [`Layout::join`]
    /// (which folds the value into its field) once the index passes
    /// [`Self::check`].
    pub fn absorb(&mut self, index: u64, value: u64, sign: bool) -> Result<(), WireError> {
        self.check(index)?;
        self.add(self.layout.join(index, value, sign));
        Ok(())
    }

    /// Add `other`, a tally of the same layout, bin by bin, saturating.
    pub fn merge(&mut self, other: &Tally) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a = a.saturating_add(*b);
        }
    }

    /// Reports counted (saturating: a decoded hostile state may hold
    /// counts whose total no real population reaches).
    #[must_use]
    pub fn report_count(&self) -> u64 {
        self.bins.iter().fold(0, |n: u64, &c| n.saturating_add(c))
    }

    /// The bin of each table entry, in table order (sign bit clear):
    /// entry `e` is index `e >> value`, value `e mod 2^value`.
    fn entries(&self) -> impl Iterator<Item = usize> {
        let Layout { index, value, .. } = self.layout;
        (0..self.indices << value).map(move |e| {
            let bin = e >> value | (e & ((1 << value) - 1)) << index;
            usize::try_from(bin).unwrap_or(usize::MAX)
        })
    }

    /// The count in `bin`, and in the bin its sign bit sets.
    fn pair(&self, bin: usize) -> (u64, u64) {
        let count = |b: usize| self.bins.get(b).copied().unwrap_or(0);
        (count(bin + self.bins.len() / 2), count(bin))
    }

    /// The unsigned table.
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        self.entries().map(|b| self.pair(b).1).collect()
    }

    /// The signed table, `(sums, counts)`. An entry a saturated state
    /// pushes past `u64` counts or `i64` sums saturates, and an odd
    /// pair then gives up one count, so [`Self::fill_signed`] loads
    /// every table this returns.
    #[must_use]
    pub fn signed(&self) -> (Vec<i64>, Vec<u64>) {
        self.entries()
            .map(|b| {
                let (pos, neg) = self.pair(b);
                let count = pos.saturating_add(neg);
                let diff = i128::from(pos) - i128::from(neg);
                // Clamped, the difference fits: the cast is exact.
                let sum = diff.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
                (sum, count - ((count ^ sum.unsigned_abs()) & 1))
            })
            .unzip()
    }

    /// Refuse a serialized table whose length is not the tally's.
    fn table_length(&self, len: usize) -> Result<(), WireError> {
        let entries = self.indices << self.layout.value;
        if u64::try_from(len).is_ok_and(|len| len == entries) {
            Ok(())
        } else {
            Err(WireError::Mismatch("table length"))
        }
    }

    /// Load an unsigned table of [`Self::counts`]' length.
    ///
    /// # Errors
    ///
    /// Refuses a table of another length.
    pub fn fill_counts(&mut self, counts: &[u64]) -> Result<(), WireError> {
        self.table_length(counts.len())?;
        for (b, &c) in self.entries().zip(counts) {
            if let Some(n) = self.bins.get_mut(b) {
                *n = c;
            }
        }
        Ok(())
    }

    /// Load a signed table of [`Self::signed`]' length.
    ///
    /// # Errors
    ///
    /// Refuses tables of another length, and an entry no pair of bins
    /// makes: `counts + sums` odd, or `|sums| > counts`.
    pub fn fill_signed(&mut self, sums: &[i64], counts: &[u64]) -> Result<(), WireError> {
        self.table_length(sums.len())?;
        self.table_length(counts.len())?;
        let half = self.bins.len() / 2;
        for ((b, &s), &c) in self.entries().zip(sums).zip(counts) {
            let abs = s.unsigned_abs();
            let Some(rest) = c.checked_sub(abs).filter(|rest| rest % 2 == 0) else {
                return Err(WireError::Invalid(
                    "signed table no tally makes (odd counts + sums, or |sums| > counts)",
                ));
            };
            let (more, less) = (rest / 2 + abs, rest / 2);
            let (pos, neg) = if s < 0 { (less, more) } else { (more, less) };
            for (bin, n) in [(b + half, pos), (b, neg)] {
                if let Some(slot) = self.bins.get_mut(bin) {
                    *slot = n;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layout, Protocol};

    #[test]
    fn signed_entries_round_trip_and_saturate_into_loadable_pairs() {
        let l = layout(Protocol::InpHt, 3, 1, 0, 0); // T = 3: 2 index bits
        let mut t = Tally::new(l, "InpHT coefficient", 3);
        assert_eq!(t.bound(), Some(3));
        for f in [0, 0, 4, 1, 5, 5, 5] {
            t.add(f);
        }
        assert_eq!(t.signed(), (vec![-1, 2, 0], vec![3, 4, 0]));
        let mut back = Tally::new(l, "InpHT coefficient", 3);
        back.fill_signed(&[-1, 2, 0], &[3, 4, 0]).unwrap();
        assert_eq!(back.bins, t.bins);
        assert!(back.fill_signed(&[1, 0, 0], &[2, 0, 0]).is_err(), "odd");
        assert!(
            back.fill_signed(&[-3, 0, 0], &[2, 0, 0]).is_err(),
            "|sums| > counts"
        );
        assert_eq!(
            back.fill_signed(&[0; 2], &[0; 3]),
            Err(WireError::Mismatch("table length"))
        );

        for (pos, neg) in [
            (u64::MAX, 0),
            (u64::MAX, 1),
            (u64::MAX, u64::MAX),
            (1 << 63, 1),
            (3, u64::MAX),
        ] {
            let mut t = Tally::new(l, "InpHT coefficient", 3);
            t.bins[0] = neg;
            t.bins[4] = pos;
            let (sums, counts) = t.signed();
            let mut back = Tally::new(l, "InpHT coefficient", 3);
            back.fill_signed(&sums, &counts).unwrap();
            assert_eq!(back.signed(), (sums, counts), "{pos} {neg}");
        }
    }

    #[test]
    fn a_tally_is_at_most_twice_its_table_at_every_header_shape() {
        use ldp_bits::binomial;
        use ldp_mechanisms::theory::coefficient_count;
        let at_most_twice = |p: Protocol, d: u32, k: u32, hashes: u32, width: u32, indices: u64| {
            let l = layout(p, d, k, hashes, width);
            let entries = u128::from(indices) << l.value << l.sign;
            let shape = format!("{p:?} d={d} k={k} {hashes}×{width}");
            assert!(1u128 << l.fixed() <= 2 * entries, "{shape}");
        };
        for d in 1..=63 {
            if d <= 26 {
                at_most_twice(Protocol::InpPs, d, 0, 0, 0, 1 << d);
            }
            for k in 1..=d {
                let coefficients = coefficient_count(d, k);
                if coefficients <= 1 << 32 {
                    at_most_twice(Protocol::InpHt, d, k, 0, 0, coefficients);
                }
                let marginals = binomial(u64::from(d), u64::from(k));
                if k <= 16 && marginals <= 1 << 32 {
                    at_most_twice(Protocol::MargPs, d, k, 0, 0, marginals);
                    at_most_twice(Protocol::MargHt, d, k, 0, 0, marginals);
                }
            }
        }
        for hashes in 1..=255 {
            for width in (1..=16).map(|b| 1 << b) {
                at_most_twice(Protocol::Hcms, 8, 0, hashes, width, u64::from(hashes));
            }
        }
    }

    #[test]
    fn tables_list_indices_then_values_and_skip_padding() {
        // MargPS d=3 k=2: C(3, 2) = 3 marginals in 2 bits, 4 cells.
        let l = layout(Protocol::MargPs, 3, 2, 0, 0);
        let mut t = Tally::new(l, "MargPS marginal", 3);
        assert_eq!(
            t.check(3).unwrap_err().to_string(),
            "MargPS marginal 3 is out of range (must be below 3)"
        );
        t.add(l.join(2, 1, false));
        t.add(l.join(0, 3, false));
        let mut want = vec![0; 12];
        want[2 * 4 + 1] = 1;
        want[3] = 1;
        assert_eq!(t.counts(), want);
        let mut back = Tally::new(l, "MargPS marginal", 3);
        back.fill_counts(&want).unwrap();
        assert_eq!(back.bins, t.bins);
        assert!(back.fill_counts(&want[1..]).is_err(), "short table");
        assert_eq!(t.report_count(), 2);

        let full = Tally::new(layout(Protocol::InpPs, 4, 0, 0, 0), "InpPS row", 16);
        assert_eq!(full.bound(), None);
    }
}
