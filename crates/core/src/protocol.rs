//! [`Protocol`]: the one name for each of the ten protocols the
//! collector serves, and the one place its display name and wire tag
//! are written down; and [`layout`], the one place a report's wire-v4
//! bit fields are sized and packed.

use crate::frame::StreamHeader;
use crate::wire::tag;
use crate::MechanismKind;
use ldp_bits::binomial;
use ldp_mechanisms::theory::coefficient_count;

/// One of the ten protocols the framed pipeline serves: the seven
/// marginal mechanisms of §4 (see [`MechanismKind`]) and the three
/// frequency oracles of Appendix B.2 (`ldp_oracles`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// See [`crate::InpRr`].
    InpRr,
    /// See [`crate::InpPs`].
    InpPs,
    /// See [`crate::InpHt`].
    InpHt,
    /// See [`crate::MargRr`].
    MargRr,
    /// See [`crate::MargPs`].
    MargPs,
    /// See [`crate::MargHt`].
    MargHt,
    /// See [`crate::InpEm`].
    InpEm,
    /// Optimized Local Hashing, `ldp_oracles::Olh`.
    Olh,
    /// Count-mean sketch, `ldp_oracles::Cms`.
    Cms,
    /// Hadamard count-mean sketch, `ldp_oracles::HadamardCms`.
    Hcms,
}

impl Protocol {
    /// All ten protocols: the mechanisms in the paper's presentation
    /// order, then the oracles in the Appendix B.2 order.
    pub const ALL: [Protocol; 10] = [
        Protocol::InpRr,
        Protocol::InpPs,
        Protocol::InpHt,
        Protocol::MargRr,
        Protocol::MargPs,
        Protocol::MargHt,
        Protocol::InpEm,
        Protocol::Olh,
        Protocol::Cms,
        Protocol::Hcms,
    ];

    /// The display name (as in the paper) and the accumulator type tag
    /// (see [`tag`]) naming this protocol in stream headers, batch
    /// envelopes and serialized state.
    fn identity(self) -> (&'static str, u8) {
        match self {
            Protocol::InpRr => ("InpRR", tag::INP_RR),
            Protocol::InpPs => ("InpPS", tag::INP_PS),
            Protocol::InpHt => ("InpHT", tag::INP_HT),
            Protocol::MargRr => ("MargRR", tag::MARG_RR),
            Protocol::MargPs => ("MargPS", tag::MARG_PS),
            Protocol::MargHt => ("MargHT", tag::MARG_HT),
            Protocol::InpEm => ("InpEM", tag::INP_EM),
            Protocol::Olh => ("OLH", tag::OLH),
            Protocol::Cms => ("CMS", tag::CMS),
            Protocol::Hcms => ("HCMS", tag::HCMS),
        }
    }

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.identity().0
    }

    /// The accumulator type tag naming this protocol on the wire
    /// ([`StreamHeader::protocol`]).
    #[must_use]
    pub fn wire_tag(self) -> u8 {
        self.identity().1
    }

    /// The protocol an accumulator type tag names, if it is known.
    #[must_use]
    pub fn from_wire_tag(t: u8) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.wire_tag() == t)
    }

    /// Parse a command-line protocol name (case-insensitive).
    pub fn parse(name: &str) -> Result<Protocol, String> {
        Protocol::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let names: Vec<_> = Protocol::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown protocol {name:?}; expected one of {}",
                    names.join(", ")
                )
            })
    }

    /// The protocol a header names, if its tag is known.
    #[must_use]
    pub fn from_header(header: &StreamHeader) -> Option<Protocol> {
        Protocol::from_wire_tag(header.protocol)
    }
}

impl From<MechanismKind> for Protocol {
    fn from(kind: MechanismKind) -> Protocol {
        match kind {
            MechanismKind::InpRr => Protocol::InpRr,
            MechanismKind::InpPs => Protocol::InpPs,
            MechanismKind::InpHt => Protocol::InpHt,
            MechanismKind::MargRr => Protocol::MargRr,
            MechanismKind::MargPs => Protocol::MargPs,
            MechanismKind::MargHt => Protocol::MargHt,
            MechanismKind::InpEm => Protocol::InpEm,
        }
    }
}

/// `⌈lg n⌉`: the bits an index below `n` needs (0 when `n ≤ 1`).
#[inline]
fn index_bits(n: u64) -> u32 {
    match n {
        0 | 1 => 0,
        n => u64::BITS - (n - 1).leading_zeros(),
    }
}

/// The bit widths of one report in a wire-v4 `REPORT_BATCH` body
/// (`docs/WIRE_FORMAT.md` §5.1). A report is its fields in this order,
/// packed LSB-first with no padding between reports: `index`, `value`,
/// `sign`, then the `set` bitset. The fixed fields `(index, value,
/// sign)` read as one integer are a report's *packed field*, which
/// InpPS, InpHT, MargPS, MargHT and HCMS count by value
/// ([`crate::Tally`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// The leading field: the reported row (InpPS, InpEM), coefficient
    /// (InpHT), marginal (MargRR, MargPS, MargHT), sketch row (CMS,
    /// HCMS) or hash seed (OLH).
    pub index: u32,
    /// The second field: the cell (MargPS), coefficient (MargHT, HCMS)
    /// or bucket (OLH); 0 bits otherwise.
    pub value: u32,
    /// One sign bit (InpHT, MargHT, HCMS); 0 bits otherwise.
    pub sign: u32,
    /// The trailing bitset: `2^d` cells (InpRR), `2^k` cells (MargRR),
    /// `width` buckets (CMS); 0 bits otherwise.
    pub set: u32,
}

impl Layout {
    /// Bits before the set.
    #[must_use]
    pub fn fixed(self) -> u32 {
        self.index + self.value + self.sign
    }

    /// Bits per report.
    #[must_use]
    pub fn bits(self) -> u64 {
        u64::from(self.fixed()) + u64::from(self.set)
    }

    /// The exact body length of a batch of `count` reports: their bits,
    /// rounded up to a byte.
    #[must_use]
    pub fn body_bytes(self, count: u32) -> u64 {
        (u64::from(count) * self.bits()).div_ceil(8)
    }

    /// A report's fixed bits split into `(index, value, sign)`, without
    /// branches: every layout that is split or joined has fewer than 64
    /// fixed bits (OLH, the one with more, is read and written as whole
    /// bytes).
    #[inline]
    #[must_use]
    pub fn split(self, fixed: u64) -> (u64, u64, bool) {
        (
            fixed & mask(self.index),
            fixed.wrapping_shr(self.index) & mask(self.value),
            fixed.wrapping_shr(self.index + self.value) & 1 != 0,
        )
    }

    /// `(index, value, sign)` packed into a report's fixed bits. The
    /// index must fit its field; a cell or coefficient wider than its
    /// field folds into it, and a layout without a sign drops it.
    #[inline]
    #[must_use]
    pub fn join(self, index: u64, value: u64, sign: bool) -> u64 {
        let sign_bit = u64::from(self.sign) << (self.index + self.value);
        index | (value & mask(self.value)) << self.index | if sign { sign_bit } else { 0 }
    }
}

/// The low `bits < 64` bits set.
#[inline]
fn mask(bits: u32) -> u64 {
    1u64.wrapping_shl(bits).wrapping_sub(1)
}

/// The one field-width function of wire v4: how many bits each field of
/// a `protocol` report takes at shape `d`, `k`, `hashes × width`, with
/// `⌈lg n⌉` bits for an index below `n`. The encoder, both decoders,
/// the tallies and the size tests all read their widths here. Every
/// width is at most the paper's Table 2 cost
/// (`MethodBound::communication_bits`; `d` for InpEM, `w + 8` for CMS).
/// Fields a protocol does not use are ignored; the shape must pass the
/// header limits, or the widths are meaningless.
#[must_use]
pub fn layout(protocol: Protocol, d: u32, k: u32, hashes: u32, width: u32) -> Layout {
    let at = |index, value, sign, set| Layout {
        index,
        value,
        sign,
        set,
    };
    let marginals = || index_bits(binomial(u64::from(d), u64::from(k)));
    let cells = |n: u32| 1u32.checked_shl(n).unwrap_or(0);
    match protocol {
        Protocol::InpRr => at(0, 0, 0, cells(d)),
        Protocol::InpPs | Protocol::InpEm => at(d, 0, 0, 0),
        Protocol::InpHt => at(index_bits(coefficient_count(d, k)), 0, 1, 0),
        Protocol::MargRr => at(marginals(), 0, 0, cells(k)),
        Protocol::MargPs => at(marginals(), k, 0, 0),
        Protocol::MargHt => at(marginals(), k, 1, 0),
        // The bucket keeps a whole byte: its bound g depends on ε,
        // which the envelope does not carry.
        Protocol::Olh => at(64, 8, 0, 0),
        Protocol::Cms => at(index_bits(u64::from(hashes)), 0, 0, width),
        Protocol::Hcms => at(
            index_bits(u64::from(hashes)),
            index_bits(u64::from(width)),
            1,
            0,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_protocol_parses_and_round_trips_its_wire_tag() {
        let expected = [
            (Protocol::InpRr, "InpRR", tag::INP_RR),
            (Protocol::InpPs, "InpPS", tag::INP_PS),
            (Protocol::InpHt, "InpHT", tag::INP_HT),
            (Protocol::MargRr, "MargRR", tag::MARG_RR),
            (Protocol::MargPs, "MargPS", tag::MARG_PS),
            (Protocol::MargHt, "MargHT", tag::MARG_HT),
            (Protocol::InpEm, "InpEM", tag::INP_EM),
            (Protocol::Olh, "OLH", tag::OLH),
            (Protocol::Cms, "CMS", tag::CMS),
            (Protocol::Hcms, "HCMS", tag::HCMS),
        ];
        assert_eq!(expected.map(|(p, _, _)| p), Protocol::ALL);
        for (protocol, name, wire_tag) in expected {
            assert_eq!(protocol.name(), name);
            assert_eq!(protocol.wire_tag(), wire_tag, "{name}");
            assert_eq!(Protocol::parse(name), Ok(protocol));
            assert_eq!(Protocol::parse(&name.to_ascii_lowercase()), Ok(protocol));
            assert_eq!(Protocol::from_wire_tag(wire_tag), Some(protocol));
        }
        let tags: BTreeSet<u8> = Protocol::ALL.iter().map(|p| p.wire_tag()).collect();
        assert_eq!(
            tags.len(),
            Protocol::ALL.len(),
            "wire tags must be distinct"
        );
        assert_eq!(Protocol::from_wire_tag(tag::STREAM_HEADER), None);
        assert_eq!(Protocol::from_wire_tag(tag::REPORT_BATCH), None);

        let err = Protocol::parse("InpXX").unwrap_err();
        assert!(err.starts_with("unknown protocol \"InpXX\""), "{err}");
        for (_, name, _) in expected {
            assert!(err.contains(name), "{err} lacks {name}");
        }
    }
}
