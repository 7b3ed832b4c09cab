//! Prior-art CMOS SC-DCNN baseline blocks (Ren et al. \[35\]) and their
//! 40 nm cost inventories.
//!
//! The paper's comparisons (Tables 4–7, 9 and Fig. 5) are against a CMOS
//! stochastic-computing DNN built from: XNOR multipliers, an approximate
//! parallel counter (APC) for summation, a saturating binary up/down
//! counter (`Btanh`) for activation, a mux tree as the low-cost adder
//! alternative with an `Stanh` FSM, mux-based average pooling, and
//! LFSR-based stochastic number generators. These structures rely on
//! accumulators/FSMs — precisely what AQFP's one-gate-per-phase pipeline
//! cannot host efficiently (paper §3) — so they live here as *functional*
//! models plus CMOS gate inventories.

use aqfp_sc_bitstream::{
    mux_add, BitStream, BitstreamError, ColumnCounter, LaneRow, OffsetClasses, Stripe,
};
use aqfp_sc_circuit::CmosGateCounts;

use crate::lanes;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// APC-based feature extraction with `Btanh` counter activation (the
/// "higher accuracy" configuration of prior work, paper Fig. 5).
///
/// Per cycle, the APC counts the 1s among the `M` product bits; a
/// saturating up/down counter integrates `2·count − M` and the output bit
/// is the counter MSB. `states` is the counter range (prior work tunes it
/// near `2M`; [`btanh_states`] supplies that default).
///
/// # Errors
///
/// Returns [`BitstreamError::Empty`] when `products` is empty or a length
/// mismatch when stream lengths differ.
pub fn apc_feature_extraction(
    products: &[BitStream],
    states: u32,
) -> Result<BitStream, BitstreamError> {
    let first = products.first().ok_or(BitstreamError::Empty)?;
    let len = first.len();
    let mut counter = ColumnCounter::new(len);
    counter.add_all(products)?;
    let fsm = Btanh::with_states(products.len(), states);
    let mut out = BitStream::zeros(0);
    fsm.run_counts_resume_into(&counter.counts(), &mut fsm.initial_state(), &mut out);
    Ok(out)
}

/// The saturating `Btanh` up/down counter FSM of the CMOS baseline neuron:
/// the geometry of one layer's counters (`M` APC inputs and the state
/// count), fed the per-cycle APC count. Like
/// [`FeatureExtraction`](crate::FeatureExtraction) and
/// [`AveragePooling`](crate::AveragePooling), it keeps no state of its own:
/// each neuron's counter is one caller-owned `i64`, started at
/// [`Btanh::initial_state`] and threaded through the resume entry points,
/// so feeding a count sequence chunk by chunk is bit-identical to one
/// whole-sequence pass — which is what lets the streaming engine suspend a
/// CMOS neuron between chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btanh {
    max: i64,
    m: i64,
}

impl Btanh {
    /// FSM for an `m`-input APC neuron with the default
    /// [`btanh_states`]`(m)` state count.
    pub fn new(m: usize) -> Self {
        Self::with_states(m, btanh_states(m))
    }

    /// FSM for an `m`-input APC neuron with an explicit state count.
    pub fn with_states(m: usize, states: u32) -> Self {
        Btanh { max: states.max(2) as i64 - 1, m: m as i64 }
    }

    /// The counter's power-on value: mid-range, like the hardware.
    pub fn initial_state(&self) -> i64 {
        self.max / 2
    }

    /// Integrates one cycle's APC count `c` into `state` (the counter
    /// steps by `2·c − M`, saturating) and returns the output bit (counter
    /// MSB).
    #[inline]
    pub fn step(&self, state: &mut i64, c: u32) -> bool {
        *state = (*state + 2 * c as i64 - self.m).clamp(0, self.max);
        *state > self.max / 2
    }

    /// Steps the counter `state` over a chunk of per-cycle APC `counts`
    /// into `out` (reusing its allocation), one output word at a time.
    /// Threading `state` through successive chunks is bit-identical to one
    /// whole-sequence call.
    pub fn run_counts_resume_into(&self, counts: &[u32], state: &mut i64, out: &mut BitStream) {
        lanes::run_words(self, counts, state, out);
    }

    /// Lane-parallel [`Btanh::run_counts_resume_into`], fused with the
    /// lane kernel through the shared lane driver: counts each cycle's
    /// kernel `rows` (the `M` product rows of the APC neuron) for up to
    /// `64·W` images at once
    /// ([`lane_counts_stream`](aqfp_sc_bitstream::lane_counts_stream),
    /// scalar operands read at each lane's class offset in `classes`) and
    /// folds them straight into the saturating-counter recurrence,
    /// bit-sliced across every lane.
    ///
    /// `states` holds each active lane's counter (lane `g` is `states[g]`)
    /// and is updated in place; lane `g` of `out[t]` is lane `g`'s output
    /// bit. Lanes at or above `states.len()` compute garbage — callers must
    /// never read them. Per lane, chunking with `states[g]` threaded
    /// through is bit-identical to [`Btanh::run_counts_resume_into`] on
    /// that lane's counts, for any stripe width `W`.
    ///
    /// # Panics
    ///
    /// Panics when more than `64·W` lanes are given or a row is shorter
    /// than `clen`.
    pub fn run_rows_resume_into<const W: usize>(
        &self,
        rows: &[LaneRow<'_, W>],
        classes: &OffsetClasses<W>,
        clen: usize,
        states: &mut [i64],
        out: &mut [Stripe<W>],
    ) {
        lanes::run_lanes(self, rows, classes, clen, states, out);
    }
}

/// The counter as a lane rule: `U = state + 2c` steps by `2c − M`
/// saturating in `[0, max]`, and the output is the counter MSB
/// (`state' > max/2`). The count planes enter shifted up one position (the
/// ×2 of the up/down step).
impl lanes::LaneFsm for Btanh {
    fn planes(&self) -> usize {
        // `state + 2c ≤ max + 2M` and the cap `max + 1` (for M = 0) fit.
        let (m, max) = (self.m as u64, self.max as u64);
        lanes::bit_width((max + 2 * m).max(max + 1))
    }

    #[inline]
    fn step(&self, state: &mut i64, count: u32) -> bool {
        Btanh::step(self, state, count)
    }

    #[inline(always)]
    fn lane_step<const W: usize, const P: usize>(
        &self,
        state: &mut [Stripe<W>; P],
        counts: &[Stripe<W>],
    ) -> Stripe<W> {
        let max = self.max as u64;
        lanes::add_sub_clamp(state, counts, 1, self.m as u64, max);
        lanes::at_least(state, max / 2 + 1)
    }
}

/// Default `Btanh` state count for an `M`-input APC neuron (prior work
/// scales the counter with the input count; `2M` keeps the transfer close
/// to `tanh`).
pub fn btanh_states(m: usize) -> u32 {
    (2 * m).max(4) as u32
}

/// `Stanh`: the classic K-state FSM tanh used after mux-tree adders.
///
/// The FSM walks up on 1 bits and down on 0 bits, saturating at the ends;
/// the output is 1 in the upper half of the states. Approximates
/// `tanh(K·x/2)` for a bipolar input of value `x`.
pub fn stanh(stream: &BitStream, states: u32) -> BitStream {
    let max = states.max(2) as i64 - 1;
    let mut state = max / 2;
    BitStream::from_bits(stream.iter().map(|bit| {
        state = (state + if bit { 1 } else { -1 }).clamp(0, max);
        state > max / 2
    }))
}

/// Mux-tree feature extraction: scaled addition by an `M`-to-1 mux followed
/// by `Stanh` activation (the "low hardware footprint" configuration of
/// prior work). The mux scales the sum by `1/M`, which the FSM state count
/// compensates for.
///
/// # Errors
///
/// Propagates [`mux_add`] errors (empty input, length mismatch).
pub fn mux_tree_feature_extraction(
    products: &[BitStream],
    states: u32,
    seed: u64,
) -> Result<BitStream, BitstreamError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let summed = mux_add(products, &mut rng)?;
    Ok(stanh(&summed, states))
}

/// Mux-based average pooling (the baseline the paper's sorter-based pooling
/// replaces, §4.3): a random input is forwarded each cycle, so the output
/// value is the window mean but with high variance for larger windows.
///
/// # Errors
///
/// Propagates [`mux_add`] errors (empty input, length mismatch).
pub fn mux_average_pooling(streams: &[BitStream], seed: u64) -> Result<BitStream, BitstreamError> {
    let mut rng = StdRng::seed_from_u64(seed);
    mux_add(streams, &mut rng)
}

/// CMOS gate inventory of an `bits`-bit LFSR+comparator SNG (one stream).
pub fn cmos_sng_counts(bits: u32) -> CmosGateCounts {
    CmosGateCounts {
        dff: bits as u64,              // LFSR register
        xnor: 1,                       // LFSR feedback tap network (amortised)
        comparator_bits: bits as u64,  // magnitude comparator slices
        ..Default::default()
    }
}

/// CMOS gate inventory of an `m`-input APC feature-extraction block with a
/// `counter_bits`-bit activation counter.
pub fn cmos_feature_counts(m: usize, counter_bits: u32) -> CmosGateCounts {
    CmosGateCounts {
        xnor: m as u64,                      // multipliers
        full_adder: (m.saturating_sub(1)) as u64, // APC adder tree
        dff: 2 * counter_bits as u64,        // up/down counter + output reg
        nand: counter_bits as u64,           // counter control logic
        ..Default::default()
    }
}

/// Logic depth (levels) of the APC feature-extraction block, for the
/// latency column of Table 5.
pub fn cmos_feature_levels(m: usize) -> u32 {
    // Adder tree depth + counter update.
    (usize::BITS - m.leading_zeros()) + 4
}

/// CMOS gate inventory of an `m`-input mux-tree average-pooling block.
pub fn cmos_pooling_counts(m: usize) -> CmosGateCounts {
    let sel_bits = (usize::BITS - (m.max(2) - 1).leading_zeros()) as u64;
    CmosGateCounts {
        mux2: (m.saturating_sub(1)) as u64, // mux tree
        dff: sel_bits,                      // select counter/LFSR bits
        ..Default::default()
    }
}

/// Logic depth of the mux pooling block.
pub fn cmos_pooling_levels(m: usize) -> u32 {
    usize::BITS - (m.max(2) - 1).leading_zeros() + 1
}

/// CMOS gate inventory of a `k`-input categorization (FC) block — prior
/// work uses the same APC structure for FC layers.
pub fn cmos_categorize_counts(k: usize) -> CmosGateCounts {
    cmos_feature_counts(k, btanh_states(k).next_power_of_two().trailing_zeros().max(8))
}

/// Logic depth of the CMOS categorization block.
pub fn cmos_categorize_levels(k: usize) -> u32 {
    cmos_feature_levels(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqfp_sc_bitstream::{Bipolar, Sng, ThermalRng};

    fn streams_for(values: &[f64], n: usize, seed: u64) -> Vec<BitStream> {
        let mut sng = Sng::new(10, ThermalRng::with_seed(seed));
        values
            .iter()
            .map(|&v| sng.generate(Bipolar::clamped(v), n))
            .collect()
    }

    #[test]
    fn apc_neuron_saturates_with_sign_of_sum() {
        let pos = streams_for(&[0.8, 0.7, 0.9, 0.6, 0.8], 4096, 1);
        let out = apc_feature_extraction(&pos, btanh_states(5)).unwrap();
        assert!(out.bipolar_value().get() > 0.8, "got {}", out.bipolar_value());
        let neg = streams_for(&[-0.8, -0.7, -0.9, -0.6, -0.8], 4096, 2);
        let out = apc_feature_extraction(&neg, btanh_states(5)).unwrap();
        assert!(out.bipolar_value().get() < -0.8, "got {}", out.bipolar_value());
    }

    #[test]
    fn apc_neuron_is_near_zero_for_balanced_sum() {
        let streams = streams_for(&[0.5, -0.5, 0.3, -0.3, 0.0], 8192, 3);
        let out = apc_feature_extraction(&streams, btanh_states(5)).unwrap();
        assert!(out.bipolar_value().get().abs() < 0.25, "got {}", out.bipolar_value());
    }

    fn check_btanh_lane_planes_match_scalar<const W: usize>(lanes_n: usize) {
        // Ragged lanes of distinct APC count sequences through the fused
        // lane entry in uneven resumed chunks, vs Btanh::step per lane per
        // cycle.
        let m = 9usize;
        let clen = 110usize;
        let counts: Vec<Vec<u32>> = (0..lanes_n)
            .map(|g| (0..clen).map(|t| ((t * 5 + g * 7) % 10) as u32).collect())
            .collect();
        let rows = lanes::count_rows::<W>(&counts, m, clen);
        let fsm = Btanh::new(m);
        let mut states = vec![fsm.initial_state(); lanes_n];
        let mut out = vec![Stripe::<W>::ZERO; clen];
        let mut pos = 0usize;
        while pos < clen {
            let c = 37.min(clen - pos);
            let chunk: Vec<LaneRow<'_, W>> =
                rows.iter().map(|row| LaneRow::Lanes(&row[pos..pos + c])).collect();
            let classes = OffsetClasses::from_offsets([0]);
            fsm.run_rows_resume_into(&chunk, &classes, c, &mut states, &mut out[pos..pos + c]);
            pos += c;
        }
        for (g, cs) in counts.iter().enumerate() {
            let mut scalar = fsm.initial_state();
            for (t, &c) in cs.iter().enumerate() {
                let want = fsm.step(&mut scalar, c);
                assert_eq!(out[t].get(g) == 1, want, "lane {g} cycle {t}");
            }
            assert_eq!(states[g], scalar, "final counter, lane {g}");
        }
    }

    #[test]
    fn btanh_lane_parallel_planes_match_scalar_steps() {
        check_btanh_lane_planes_match_scalar::<1>(41);
    }

    #[test]
    fn btanh_lane_parallel_planes_match_scalar_steps_wide_stripe() {
        check_btanh_lane_planes_match_scalar::<4>(230);
    }

    #[test]
    fn stanh_compresses_towards_sign() {
        let mut sng = Sng::new(10, ThermalRng::with_seed(4));
        let s = sng.generate(Bipolar::clamped(0.4), 8192);
        let out = stanh(&s, 16);
        // tanh(16*0.4/2) ≈ 1.0: strongly positive.
        assert!(out.bipolar_value().get() > 0.7, "got {}", out.bipolar_value());
    }

    #[test]
    fn mux_tree_neuron_tracks_scaled_sum() {
        let values = [0.9, 0.8, 0.85, 0.95];
        let streams = streams_for(&values, 8192, 5);
        let out = mux_tree_feature_extraction(&streams, 8, 42).unwrap();
        // Mean 0.875 → stanh amplifies positive.
        assert!(out.bipolar_value().get() > 0.5, "got {}", out.bipolar_value());
    }

    #[test]
    fn mux_pooling_value_is_mean_but_noisy() {
        let values = [1.0, 1.0, -1.0, -1.0];
        let streams = streams_for(&values, 4096, 6);
        let out = mux_average_pooling(&streams, 7).unwrap();
        assert!(out.bipolar_value().get().abs() < 0.15, "got {}", out.bipolar_value());
    }

    #[test]
    fn btanh_fsm_is_chunk_resumable() {
        // One counter fed counts in chunks that end one short of, on, and
        // one past a 64-cycle word (and past two words), from a counter
        // pushed off its power-on value, against the saturating up/down
        // counter written out one cycle at a time.
        let m = 9usize;
        let max = i64::from(btanh_states(m)) - 1;
        let fsm = Btanh::new(m);
        assert_eq!(fsm.initial_state(), max / 2);
        for clen in [63usize, 64, 65, 129] {
            let counts: Vec<u32> =
                (0..3 * clen + 17).map(|i| ((i * 13) % (m + 2)) as u32).collect();
            let mut counter = fsm.initial_state();
            let mut state = max / 2;
            for _ in 0..3 {
                fsm.step(&mut counter, m as u32);
                state = (state + m as i64).clamp(0, max);
            }
            let mut want = Vec::new();
            for &c in &counts {
                state = (state + 2 * i64::from(c) - m as i64).clamp(0, max);
                want.push(state > max / 2);
            }
            let mut got = Vec::new();
            for chunk in counts.chunks(clen) {
                got.extend(chunk.iter().map(|&c| fsm.step(&mut counter, c)));
            }
            assert_eq!(got, want, "chunk {clen}");
            assert_eq!(counter, state, "final counter, chunk {clen}");
        }
    }

    #[test]
    fn btanh_word_runner_matches_the_recurrence() {
        // The word-at-a-time runner, fed chunks that end one short of, on,
        // and one past a 64-cycle word (and past two words) from a counter
        // pushed off its power-on value — every chunk after the first
        // resumes the counter the runner stored — against the saturating
        // up/down counter written out one cycle at a time.
        let m = 9usize;
        let max = i64::from(btanh_states(m)) - 1;
        let fsm = Btanh::new(m);
        for clen in [63usize, 64, 65, 129] {
            let counts: Vec<u32> =
                (0..3 * clen + 17).map(|i| ((i * 13) % (m + 2)) as u32).collect();
            let mut counter = fsm.initial_state();
            let mut state = max / 2;
            for _ in 0..3 {
                fsm.step(&mut counter, m as u32);
                state = (state + m as i64).clamp(0, max);
            }
            let mut want = Vec::new();
            for &c in &counts {
                state = (state + 2 * i64::from(c) - m as i64).clamp(0, max);
                want.push(state > max / 2);
            }
            let mut got = Vec::new();
            let mut out = BitStream::zeros(0);
            for chunk in counts.chunks(clen) {
                fsm.run_counts_resume_into(chunk, &mut counter, &mut out);
                assert_eq!(out.len(), chunk.len());
                got.extend(out.iter());
            }
            assert_eq!(got, want, "chunk {clen}");
            assert_eq!(counter, state, "final counter, chunk {clen}");
        }
    }

    #[test]
    fn inventories_scale_with_inputs() {
        let small = cmos_feature_counts(9, 10);
        let large = cmos_feature_counts(121, 10);
        assert!(large.xnor > small.xnor);
        assert!(large.full_adder > small.full_adder);
        assert!(cmos_pooling_counts(16).mux2 > cmos_pooling_counts(4).mux2);
        assert!(cmos_sng_counts(10).dff == 10);
        assert!(cmos_categorize_counts(800).full_adder > cmos_categorize_counts(100).full_adder);
    }

    #[test]
    fn levels_grow_logarithmically() {
        assert!(cmos_feature_levels(800) > cmos_feature_levels(9));
        assert!(cmos_feature_levels(800) < 20);
        assert!(cmos_pooling_levels(36) >= cmos_pooling_levels(4));
        assert_eq!(cmos_categorize_levels(100), cmos_feature_levels(100));
    }
}
