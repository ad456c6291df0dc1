//! The size gate: every report on the wire costs at most the paper's
//! Table 2 bits, and every batch costs exactly its envelope plus its
//! reports' bits rounded up to a byte — for all ten protocols over a
//! grid of shapes, including `C(d, k) = 1` (`k = d`), `d < 3`, and
//! field widths on both sides of the kernels' 16-bit load groups.
//! Size can therefore never regress silently. Each batch is also
//! absorbed by the frame kernels and by the reference decoder, which
//! must agree byte for byte on every shape.

use marginal_ldp::core::frame::StreamHeader;
use marginal_ldp::core::wire::Writer;
use marginal_ldp::core::{layout, Protocol};
use marginal_ldp::oracles::pipeline::{
    decode_report_batch_into, header_for, Client, Encoder, SketchShape, ENVELOPE_BYTES,
};
use marginal_ldp::prelude::*;

/// Every shape the gate covers: each protocol at `d ∈ {1, 2, 3, 5, 8,
/// 12}` and every `k ∈ {1, 2, 3, d}` up to `d`, the sketches at four
/// `hashes × width` shapes, and a few wide fields beyond the grid.
fn shapes() -> Vec<StreamHeader> {
    let sketches = [(1, 2), (2, 16), (5, 256), (255, 1024)];
    let mut headers = Vec::new();
    for protocol in Protocol::ALL {
        for d in [1u32, 2, 3, 5, 8, 12] {
            let mut ks = vec![1u32, 2, 3, d];
            ks.retain(|&k| k <= d);
            ks.dedup();
            for k in ks {
                for (hashes, width) in sketches {
                    let sketch = SketchShape {
                        hashes,
                        width,
                        family_seed: 3,
                    };
                    headers.push(header_for(protocol, d, k, 1.1, sketch));
                }
            }
        }
    }
    for (kind, d, k) in [
        (MechanismKind::InpPs, 20, 1),
        (MechanismKind::InpEm, 20, 1),
        (MechanismKind::InpHt, 20, 6),
        (MechanismKind::MargRr, 12, 7),
        (MechanismKind::MargPs, 16, 8),
        (MechanismKind::MargHt, 16, 8),
    ] {
        headers.push(StreamHeader::mechanism(kind, d, k, 1.1));
    }
    headers.sort_by_key(|h| (h.protocol, h.d, h.k, h.hashes, h.width));
    headers.dedup_by_key(|h| (h.protocol, h.d, h.k, h.hashes, h.width));
    headers
}

/// The Table 2 cost of one report, where the repo states one: the six
/// paper methods' `MethodBound::communication_bits`, `d` for InpEM, and
/// `Cms::communication_bits` (`w + 8`) for CMS.
fn table2_bits(client: &Client, header: &StreamHeader) -> Option<u64> {
    match client.encoder() {
        Encoder::InpEm(_) => Some(u64::from(header.d)),
        Encoder::Cms(o) => Some(o.communication_bits() as u64),
        Encoder::Olh(_) | Encoder::Hcms(_) => None,
        _ => {
            let kind = header.mechanism_kind()?;
            Some(kind.bound()?.communication_bits(header.d, header.k))
        }
    }
}

#[test]
fn every_report_fits_its_table2_bound_and_every_batch_its_bits() {
    let (mut frame, mut scratch) = (Writer::default(), Vec::new());
    let mut checked = 0;
    for header in shapes() {
        let client = Client::from_header(&header).unwrap();
        let protocol = client.protocol();
        let l = layout(protocol, header.d, header.k, header.hashes, header.width);
        let bits = l.bits();
        let name = format!(
            "{} d={} k={} {}×{}",
            protocol.name(),
            header.d,
            header.k,
            header.hashes,
            header.width
        );
        if let Some(bound) = table2_bits(&client, &header) {
            assert!(
                bits <= bound,
                "{name}: {bits} bits per report exceed Table 2's {bound}"
            );
        }

        let counts: &[u32] = if bits <= 64 {
            &[0, 1, 7, 8, 9, 64, 1000]
        } else {
            &[0, 1, 7, 9, 33]
        };
        for &count in counts {
            let rows: Vec<u64> = (0..u64::from(count))
                .map(|u| (u * 37 + 5) % (1 << header.d))
                .collect();
            client.encode_batch(&rows, 11, 0, &mut frame);
            let want = ENVELOPE_BYTES as u64 + (u64::from(count) * bits).div_ceil(8);
            assert_eq!(
                frame.len() as u64,
                want,
                "{name}: a batch of {count} is not its envelope plus {bits} bits per report"
            );

            let mut kernel = client.accumulator();
            assert_eq!(
                kernel.absorb_frame(frame.as_bytes()),
                Ok(count as usize),
                "{name}"
            );
            let mut reference = client.accumulator();
            let n = decode_report_batch_into(frame.as_bytes(), &mut scratch).unwrap();
            reference.absorb_batch(&scratch[..n]).unwrap();
            assert_eq!(
                kernel.to_bytes(),
                reference.to_bytes(),
                "{name}: frame kernel diverged from the reference at {count} reports"
            );
        }
        checked += 1;
    }
    assert!(checked > 200, "the grid shrank to {checked} shapes");
}
