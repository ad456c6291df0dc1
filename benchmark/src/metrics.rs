//! Every metric the benchmark reports: name, unit, direction and (for
//! end-to-end metrics) the regression bound. `BENCHMARK.json` at the
//! repository root carries the same table; a unit test keeps the two
//! identical.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (latency, memory, set-up time).
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[cfg(test)]
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the collector sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name, identical on every workload.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported on every workload (see the
/// workload table in `README.md` for what each one measures there).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "reports_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_report",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics `(name, unit, direction)`, reported by traced
/// runs. They have no bound: they explain end-to-end changes, they do
/// not gate them.
pub const PER_LAYER: [(&str, &str, Better); 38] = [
    ("data.ns_per_row", "ns", Better::Lower),
    ("encode.ns_per_report", "ns", Better::Lower),
    ("client.push_us", "us", Better::Lower),
    ("client.empty_push_us", "us", Better::Lower),
    ("tcp.raw_ns_per_report", "ns", Better::Lower),
    ("frame.parse_ns_per_report", "ns", Better::Lower),
    ("decode.ns_per_report", "ns", Better::Lower),
    ("absorb.ns_per_report", "ns", Better::Lower),
    ("state.bytes", "bytes", Better::Lower),
    ("state.to_bytes_us", "us", Better::Lower),
    ("state.from_bytes_us", "us", Better::Lower),
    ("state.merge_us", "us", Better::Lower),
    ("estimate.finalize_us", "us", Better::Lower),
    ("estimate.marginal_us", "us", Better::Lower),
    ("transform.fwht_us", "us", Better::Lower),
    ("run.InpRR_ms", "ms", Better::Lower),
    ("run.InpPS_ms", "ms", Better::Lower),
    ("run.InpHT_ms", "ms", Better::Lower),
    ("run.MargRR_ms", "ms", Better::Lower),
    ("run.MargPS_ms", "ms", Better::Lower),
    ("run.MargHT_ms", "ms", Better::Lower),
    ("mem.peak_rss_mb", "MB", Better::Lower),
    ("server.cpu_util", "fraction", Better::Lower),
    ("server.cpu_ns_per_report", "ns", Better::Lower),
    ("server.unexplained_ns_per_report", "ns", Better::Lower),
    ("server.threads_peak", "count", Better::Lower),
    ("server.connections_accepted", "count", Better::Higher),
    ("server.rejected_frames", "count", Better::Lower),
    ("server.absorbed_ratio", "fraction", Better::Higher),
    ("gen.cpu_util", "fraction", Better::Lower),
    ("gen.late_events", "count", Better::Lower),
    ("gen.max_lateness_ms", "ms", Better::Lower),
    ("latency.p50_ms", "ms", Better::Lower),
    ("latency.tail_ms", "ms", Better::Lower),
    ("env.steal_frac", "fraction", Better::Lower),
    ("env.retries", "count", Better::Lower),
    ("env.nproc", "count", Better::Higher),
    ("trace.overhead_frac", "fraction", Better::Lower),
];

/// The unit of any metric in either table.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// The end-to-end entry for `name`, if it is one.
#[must_use]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let layers = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better.as_str())
            );
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!(unit_of("state.bytes"), Some("bytes"));
        assert_eq!(unit_of("nope"), None);
    }
}
