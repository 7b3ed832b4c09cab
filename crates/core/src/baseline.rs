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
    lane_counts_stream, mux_add, BitStream, BitstreamError, ColumnCounter, LaneRow, OffsetClasses,
    Stripe, WORD_BITS,
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
    let mut fsm = Btanh::with_states(products.len(), states);
    Ok(BitStream::from_bits(counter.counts().into_iter().map(|c| fsm.step(c))))
}

/// The saturating `Btanh` up/down counter FSM of the CMOS baseline neuron,
/// exposed as a resumable object: one instance per neuron, fed the per-cycle
/// APC count via [`Btanh::step`]. Because the counter state lives in the
/// struct, feeding a count sequence chunk by chunk is bit-identical to one
/// whole-sequence pass — which is what lets the streaming engine suspend a
/// CMOS neuron between chunks.
#[derive(Debug, Clone)]
pub struct Btanh {
    state: i64,
    max: i64,
    m: i64,
}

impl Btanh {
    /// FSM for an `m`-input APC neuron with the default
    /// [`btanh_states`]`(m)` state count.
    pub fn new(m: usize) -> Self {
        Self::with_states(m, btanh_states(m))
    }

    /// FSM for an `m`-input APC neuron with an explicit state count; starts
    /// at mid-range like the hardware power-on value.
    pub fn with_states(m: usize, states: u32) -> Self {
        let max = states.max(2) as i64 - 1;
        Btanh { state: max / 2, max, m: m as i64 }
    }

    /// Integrates one cycle's APC count `c` (the counter steps by
    /// `2·c − M`, saturating) and returns the output bit (counter MSB).
    pub fn step(&mut self, c: u32) -> bool {
        self.state = (self.state + 2 * c as i64 - self.m).clamp(0, self.max);
        self.state > self.max / 2
    }

    /// Lane-parallel [`Btanh::step`] over a whole chunk, fused with the
    /// lane kernel: counts each cycle's kernel `rows` (the `M` product rows
    /// of the APC neuron) for up to `64·W` images at once
    /// ([`lane_counts_stream`], scalar operands read at each lane's class
    /// offset in `classes`) and folds them straight into the
    /// saturating-counter recurrence, one FSM per lane in `fsms` (all with
    /// identical `m` and state count), run for every lane at once in
    /// bit-sliced ripple-carry arithmetic. Lane `g` of `out[t]` is lane
    /// `g`'s output bit; lanes at or above `fsms.len()` compute garbage —
    /// callers must never read them.
    ///
    /// Per lane, this is bit-identical to calling [`Btanh::step`] on that
    /// lane's counts cycle by cycle (each FSM's counter state is updated
    /// in place, so chunking resumes exactly), for any stripe width `W`.
    ///
    /// # Panics
    ///
    /// Panics when `fsms` is empty or exceeds `64·W` lanes, when the FSMs
    /// disagree on geometry, or when a row is shorter than `clen`.
    pub fn run_rows_resume_into<const W: usize>(
        fsms: &mut [&mut Btanh],
        rows: &[LaneRow<'_, W>],
        classes: &OffsetClasses<W>,
        clen: usize,
        out: &mut [Stripe<W>],
    ) {
        assert!(
            !fsms.is_empty() && fsms.len() <= WORD_BITS * W,
            "run_rows: too many lane FSMs for stripe"
        );
        assert!(out.len() >= clen, "run_rows: output buffer too short");
        let (m, max) = (fsms[0].m, fsms[0].max);
        assert!(
            fsms.iter().all(|f| f.m == m && f.max == max),
            "run_rows: mixed FSM geometries in one lane group"
        );
        let (m, max) = (m as u64, max as u64);
        // state ≤ max and 2·count ≤ 2M, so `state + 2c` fits in
        // bits(max + 2M).
        let width = lanes::bit_width(max + 2 * m).min(lanes::PLANES);
        let mut states: Vec<i64> = fsms.iter().map(|f| f.state).collect();
        let mut sp: lanes::Planes<W> = [Stripe::ZERO; lanes::PLANES];
        lanes::pack_states(&states, &mut sp, width);
        // Monomorphise the sweep on the plane width so the plane loops
        // fully unroll and the counter planes stay in registers across the
        // chunk.
        match width {
            1 => btanh_sweep::<W, 1>(rows, classes, clen, m, max, &mut sp, out),
            2 => btanh_sweep::<W, 2>(rows, classes, clen, m, max, &mut sp, out),
            3 => btanh_sweep::<W, 3>(rows, classes, clen, m, max, &mut sp, out),
            4 => btanh_sweep::<W, 4>(rows, classes, clen, m, max, &mut sp, out),
            5 => btanh_sweep::<W, 5>(rows, classes, clen, m, max, &mut sp, out),
            6 => btanh_sweep::<W, 6>(rows, classes, clen, m, max, &mut sp, out),
            7 => btanh_sweep::<W, 7>(rows, classes, clen, m, max, &mut sp, out),
            8 => btanh_sweep::<W, 8>(rows, classes, clen, m, max, &mut sp, out),
            _ => {
                btanh_sweep::<W, { lanes::PLANES }>(rows, classes, clen, m, max, &mut sp, out)
            }
        }
        lanes::unpack_states(&sp, &mut states, width);
        for (f, s) in fsms.iter_mut().zip(states) {
            f.state = s;
        }
    }
}

/// Register-resident Btanh sweep at a compile-time plane width `P ≥` the
/// dynamic width (extra planes carry zeros through the chains — every
/// value fits in the dynamic width, so sums, borrows, and the counter
/// above it stay zero). The per-cycle counts arrive from
/// [`lane_counts_stream`] and enter shifted up one position (the ×2 of the
/// up/down step); the kernel's plane count is `bit_width(M) ≤ width − 1`,
/// so the shifted index always fits in `P`. The M / max+1 / max / mid
/// constants specialise each plane's chains to their bit values, and the
/// fully unrolled plane loops keep the counter and difference planes in
/// registers.
#[inline(always)]
fn btanh_sweep<const W: usize, const P: usize>(
    rows: &[LaneRow<'_, W>],
    classes: &OffsetClasses<W>,
    clen: usize,
    m: u64,
    max: u64,
    sp_io: &mut lanes::Planes<W>,
    out: &mut [Stripe<W>],
) {
    let cap = max + 1;
    let mid = max / 2 + 1;
    let mut sp = [Stripe::<W>::ZERO; P];
    sp.copy_from_slice(&sp_io[..P]);
    let out = &mut out[..clen];
    lane_counts_stream(rows, classes, clen, |t, counts: &[Stripe<W>]| {
        // Pass 1, fused add + subtract: U = state + 2c (the count planes
        // enter shifted up one position) and D = U − M in one sweep.
        // pos = [U ≥ M] is the complemented final borrow;
        // state' = clamp(U − M, 0, max) floors underflowing lanes at 0.
        let mut diff = [Stripe::<W>::ZERO; P];
        let mut carry = Stripe::ZERO;
        let mut borrow = Stripe::ZERO;
        for p in 0..P {
            let y = sp[p];
            let sum = if p >= 1 && p - 1 < counts.len() {
                let x = counts[p - 1];
                let s = x ^ y ^ carry;
                carry = (x & y) | (carry & (x ^ y));
                s
            } else {
                let s = y ^ carry;
                carry &= y;
                s
            };
            if (m >> p) & 1 == 1 {
                diff[p] = !(sum ^ borrow);
                borrow |= !sum;
            } else {
                diff[p] = sum ^ borrow;
                borrow &= !sum;
            }
        }
        let pos = !borrow;
        // Pass 2: floor-mask and the [D ≥ max+1] cap borrow chain.
        let mut borrow = Stripe::ZERO;
        for (p, d) in diff.iter_mut().enumerate() {
            *d &= pos;
            if (cap >> p) & 1 == 1 {
                borrow |= !*d;
            } else {
                borrow &= !*d;
            }
        }
        let over = !borrow;
        // Pass 3: select state' and run the output threshold borrow chain
        // [state' ≥ max/2 + 1] in the same sweep.
        let mut borrow = Stripe::ZERO;
        for (p, spl) in sp.iter_mut().enumerate() {
            let snew = if (max >> p) & 1 == 1 { diff[p] | over } else { diff[p] & !over };
            *spl = snew;
            if (mid >> p) & 1 == 1 {
                borrow |= !snew;
            } else {
                borrow &= !snew;
            }
        }
        // Output bit: counter above mid-range (state' > max/2).
        out[t] = !borrow;
    });
    sp_io[..P].copy_from_slice(&sp);
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
        let mut fsms: Vec<Btanh> = (0..lanes_n).map(|_| Btanh::new(m)).collect();
        let mut out = vec![Stripe::<W>::ZERO; clen];
        let mut pos = 0usize;
        while pos < clen {
            let c = 37.min(clen - pos);
            let chunk: Vec<LaneRow<'_, W>> =
                rows.iter().map(|row| LaneRow::Lanes(&row[pos..pos + c])).collect();
            let mut refs: Vec<&mut Btanh> = fsms.iter_mut().collect();
            let classes = OffsetClasses::from_offsets([0]);
            Btanh::run_rows_resume_into(&mut refs, &chunk, &classes, c, &mut out[pos..pos + c]);
            pos += c;
        }
        for (g, cs) in counts.iter().enumerate() {
            let mut scalar = Btanh::new(m);
            for (t, &c) in cs.iter().enumerate() {
                let want = scalar.step(c);
                assert_eq!(out[t].get(g) == 1, want, "lane {g} cycle {t}");
            }
            assert_eq!(fsms[g].state, scalar.state, "final counter, lane {g}");
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
        // One FSM fed 300 counts in one pass vs. a second FSM fed the same
        // counts in uneven chunks: identical output bits.
        let counts: Vec<u32> = (0..300).map(|i| ((i * 13) % 11) as u32).collect();
        let mut whole = Btanh::new(9);
        let reference: Vec<bool> = counts.iter().map(|&c| whole.step(c)).collect();
        let mut chunked = Btanh::new(9);
        let mut got = Vec::new();
        for chunk in counts.chunks(37) {
            got.extend(chunk.iter().map(|&c| chunked.step(c)));
        }
        assert_eq!(got, reference);
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
