#![forbid(unsafe_code)]
//! Table 2: per-method communication cost (bits) and error behavior —
//! the analytic columns, the bits a report actually takes on the wire
//! (measured from a `REPORT_BATCH` frame), and a measured-error column
//! to confirm the relative ordering the table predicts.

use ldp_bench::{fmt_summary, measure_tvd, parse_common_args, print_table, DataSource};
use ldp_core::frame::StreamHeader;
use ldp_core::wire::Writer;
use ldp_core::MechanismKind;
use ldp_mechanisms::theory::MethodBound;
use ldp_oracles::pipeline::{Client, ENVELOPE_BYTES};

/// Bits per report on the wire: one batch of `n` reports from
/// `encode_batch`, less its envelope.
fn wire_bits(kind: MechanismKind, d: u32, k: u32, eps: f64) -> f64 {
    let n = 1024;
    let client = Client::from_header(&StreamHeader::mechanism(kind, d, k, eps))
        .expect("Table 2 shapes are valid");
    let rows: Vec<u64> = (0..n).map(|u| u % (1 << d)).collect();
    let mut frame = Writer::default();
    client.encode_batch(&rows, 7, 0, &mut frame);
    ((frame.len() - ENVELOPE_BYTES) * 8) as f64 / n as f64
}

fn main() {
    let (reps, quick) = parse_common_args(3);
    let (d, k, eps) = (8u32, 2u32, 1.1f64);
    let n = if quick { 1 << 14 } else { 1 << 18 };

    let rows: Vec<Vec<String>> = MechanismKind::SIX
        .iter()
        .map(|kind| {
            let bound: MethodBound = kind.bound().expect("six methods have bounds");
            let comm = bound.communication_bits(d, k);
            let wire = wire_bits(*kind, d, k, eps);
            let theory = bound.error_bound(d, k, eps, n);
            let measured = measure_tvd(*kind, DataSource::Taxi, d, k, n, eps, reps, 99);
            vec![
                kind.name().to_string(),
                comm.to_string(),
                format!("{wire:.1}"),
                format!("{theory:.3}"),
                fmt_summary(measured),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Table 2: d={d}, k={k}, eps={eps}, N=2^{}",
            n.trailing_zeros()
        ),
        &[
            "Method",
            "Comm (bits)",
            "Wire (bits)",
            "Error bound shape",
            "Measured mean TVD",
        ],
        &rows,
    );
    println!(
        "\npaper: comm = 2^d / d / d+1 / d+2^k / d+k / d+k+1 (wire: the packed report, \
         at most that); error shape = 2^(k/2)2^(d/2) \
         / 2^(d+k/2) / 2^(k/2)sqrt(T) / 2^k*d^(k/2) / 2^(3k/2)d^(k/2) x2; bounds are \
         worst-case shapes — measured error should respect the InpHT-best ordering"
    );
}
