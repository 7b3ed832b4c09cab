//! Packed stochastic bit-streams and random-number machinery for the
//! AQFP-SC-DNN framework.
//!
//! Stochastic computing (SC) represents a real number by the density of 1s in
//! a bit-stream. This crate provides the substrate every other crate in the
//! workspace builds on:
//!
//! * [`BitStream`] — a fixed-length, word-packed bit-stream with cheap bitwise
//!   arithmetic (`XNOR` multiply, `AND` multiply, `MUX` add, majority, …).
//! * [`Bipolar`] / [`Unipolar`] — validated value encodings. Bipolar encodes
//!   `x ∈ [-1, 1]` as `P(bit = 1) = (x + 1) / 2` (paper §2.2, Fig. 4).
//! * [`BitSource`] implementations — [`ThermalRng`] models the AQFP
//!   zero-input buffer true RNG of paper Fig. 7; [`Lfsr`] models the
//!   pseudo-random generator a CMOS SC baseline would use.
//! * [`Sng`] — the comparator-based stochastic number generator (binary →
//!   stochastic conversion, paper §4.1).
//! * [`ColumnCounter`] — bit-sliced "vertical" counters that turn a set of
//!   streams into per-cycle column popcounts; this is the workhorse behind
//!   the sorter-based blocks of the paper (Algorithms 1 and 2).
//! * [`scc`] / [`pearson_correlation`] — stream correlation metrics used to
//!   validate the shared RNG matrix (paper Fig. 8).
//!
//! # Example
//!
//! ```
//! use aqfp_sc_bitstream::{Bipolar, BitStream, Sng, ThermalRng};
//!
//! # fn main() -> Result<(), aqfp_sc_bitstream::BitstreamError> {
//! let mut sng_a = Sng::new(10, ThermalRng::with_seed(1));
//! let mut sng_b = Sng::new(10, ThermalRng::with_seed(2));
//! let a = sng_a.generate(Bipolar::new(0.5)?, 4096);
//! let b = sng_b.generate(Bipolar::new(-0.25)?, 4096);
//! let product = a.xnor(&b)?; // bipolar multiply: one XNOR gate per bit
//! assert!((product.bipolar_value().get() - (-0.125)).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod corr;
mod error;
mod kernel;
mod ops;
mod rng;
mod sng;
mod stream;
mod value;

pub use counter::{column_counts, ColumnCounter};
pub use corr::{pearson_correlation, scc, uniformity_chi_square};
pub use kernel::{
    column_counts_into, extract_plane_counts, lane_column_planes, lane_counts_stream,
    pack_lanes_into, transpose64, transpose8, unpack_lanes_into, xnor_popcount, KernelRow,
    LanePopcount, LaneRow, OffsetClasses, Stripe, BLOCK_WORDS, MAX_KERNEL_ROWS,
    MAX_LANES, MAX_PLANES, MAX_STRIPE_WORDS, TREE_ROWS,
};
pub use error::BitstreamError;
pub use ops::{maj3_streams, mux_add, weighted_inner_product_value};
pub use rng::{BitSource, Lfsr, SplitMix64, ThermalRng, WordSource};
pub use sng::{BitsAsWords, LfsrWordSource, Sng, ThermalWordSource, WordsAsBits};
pub use stream::BitStream;
pub use value::{Bipolar, Unipolar};

/// Number of payload bits in one storage word of a [`BitStream`].
pub const WORD_BITS: usize = 64;
