//! [`Protocol`]: the one name for each of the ten protocols the
//! collector serves, and the one place its display name and wire tag
//! are written down.

use crate::frame::StreamHeader;
use crate::wire::tag;
use crate::MechanismKind;

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
