#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Sampling substrate for the LDP simulation.
//!
//! The experiment harness simulates populations of up to 2^19 users; some
//! mechanisms (notably `InpRR`, which perturbs all `2^d` cells per user)
//! are simulated *exactly in distribution* at the aggregate level, which
//! requires drawing per-cell report counts from a Binomial — so this crate
//! provides an exact [`binomial`] sampler (inversion for small means, a
//! BTPE-style four-region rejection sampler for large means). It also
//! provides the [`AliasTable`] used to draw users from synthetic
//! distributions in `O(1)`, and the pairwise/k-wise independent
//! [`hash`] families required by the OLH and sketch-based frequency
//! oracles of Appendix B.2.
//!
//! For the batched encode kernels, the crate adds *lane-oriented*
//! primitives that amortize RNG draws across many outcomes per call:
//! [`bernoulli_word`]/[`bernoulli_fill`] draw up to 64 biased coins per
//! random word (the workhorse behind the vectorized unary perturbation),
//! [`binomial_fill`]/[`BinomialSampler`] hoist the binomial regime
//! selection out of the per-draw loop, and [`AliasTable::sample_fill`]
//! batches alias draws into a caller-provided buffer. All of them
//! preserve deterministic RNG schedules: given the same starting RNG
//! state, the batched form consumes exactly the same words as its serial
//! counterpart (except `bernoulli_word`, which is a deliberately
//! different — but still deterministic — schedule from `gen_bool` loops).

mod alias;
mod bernoulli;
mod binomial;
pub mod hash;

pub use alias::AliasTable;
pub use bernoulli::{bernoulli_fill, bernoulli_fixed, bernoulli_word, one_hot_words};
pub use binomial::{binomial, binomial_fill, BinomialSampler};
