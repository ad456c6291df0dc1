#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Frequency-oracle baselines (Appendix B.2).
//!
//! A *frequency oracle* is an LDP protocol from which the frequency of any
//! single value in a (possibly massive) domain can be estimated. A generic
//! route to marginals is: build an oracle over the full domain `{0,1}^d`,
//! estimate all `2^d` cell frequencies, and aggregate — the approach the
//! paper compares against in Figure 10:
//!
//! * [`Olh`] — Optimized Local Hashing (Wang et al., USENIX Security
//!   2017): each user hashes the domain onto `g = ⌈e^ε⌉ + 1` buckets with
//!   a private universal hash and reports the bucket through GRR. Accurate
//!   for small `d`, but decoding costs `O(N · 2^d)` — the paper "timed
//!   out after 12 hours" at `d = 12`; [`OlhOracle::estimate_all`] takes an
//!   explicit operation budget and reports when it is exceeded.
//! * [`HadamardCms`] — the Apple-style Hadamard Count-Mean Sketch
//!   (`InpHTCMS`): hash onto a `w`-bucket sketch row, release one
//!   Hadamard coefficient of the hashed one-hot vector via ε-RR. Fast to
//!   decode but tuned for heavy hitters, not the low-frequency cells a
//!   marginal needs.
//! * [`Cms`] — the non-Hadamard count-mean sketch (each user releases
//!   their whole perturbed sketch row via unary encoding), included for
//!   the communication-cost comparison.
//!
//! All three implement [`FrequencyOracle`]; [`oracle_marginal`] turns any
//! oracle into a marginal estimator. Each oracle's aggregator also
//! implements [`ldp_core::Accumulator`], and [`pipeline`] — the one
//! protocol table — serves them beside the seven marginal mechanisms
//! through the same encode / ingest / merge / serialize path.

mod cms;
mod hcms;
mod olh;
mod oracle;
pub mod pipeline;

pub use cms::{Cms, CmsAggregator, CmsOracle, CmsReport};
pub use hcms::{HadamardCms, HadamardCmsAggregator, HadamardCmsOracle, HcmsReport};
pub use olh::{Olh, OlhAggregator, OlhDecode, OlhOracle, OlhReport};
pub use oracle::{oracle_full_distribution, oracle_marginal, FrequencyOracle};
