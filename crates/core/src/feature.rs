//! Sorter-based feature extraction: inner product + activation for CONV
//! layers (paper §4.2, Algorithm 1, Fig. 12).

use aqfp_sc_bitstream::{BitStream, BitstreamError, ColumnCounter, LaneRow, OffsetClasses, Stripe};
use aqfp_sc_circuit::Netlist;
use aqfp_sc_sorting::{Direction, SortingNetwork};
use aqfp_sc_synth::{synthesize, SynthOptions, SynthResult};

use crate::lanes;
use crate::netlists;

/// The sorter-based feature-extraction block.
///
/// Takes the `M` input–weight product streams of one neuron (`xⱼ XNOR wⱼ`,
/// bias included as an extra row) and produces the stochastic stream of the
/// *activated inner product* `clip(Σ xⱼwⱼ, −1, 1)` — summation and
/// activation in one structure, with no accumulator.
///
/// Derivation (paper Eq. 1–3): with per-cycle column count `c` and feedback
/// occupancy `R ∈ [0, M]`, let `T = c + R`. The output bit is
/// `SO = [T ≥ (M+1)/2]` — the `(M−1)/2`-th element of the 2M-wide sorted
/// vector — and the new feedback holds `R' = min(max(T − (M+1)/2, 0), M)`
/// ones, exactly the M bits following it. `M` must be odd so `(M−1)/2` is
/// integral; for even input counts a neutral `0101…` stream (bipolar value
/// 0) is appended automatically.
///
/// Because the feedback floor-clips at 0, sustained negative sums are
/// forgotten rather than debited, which shapes the response into the
/// shifted-ReLU-like curve of paper Fig. 13.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureExtraction {
    /// Number of caller-provided product streams.
    inputs: usize,
    /// Effective (odd) sorter width after optional neutral padding.
    m: usize,
}

impl FeatureExtraction {
    /// Creates a block for `inputs` product streams.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is 0.
    pub fn new(inputs: usize) -> Self {
        assert!(inputs > 0, "feature extraction needs at least one input");
        let m = if inputs.is_multiple_of(2) { inputs + 1 } else { inputs };
        FeatureExtraction { inputs, m }
    }

    /// Number of product streams the caller must supply.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Effective sorter width (odd; `inputs` or `inputs + 1`).
    pub fn width(&self) -> usize {
        self.m
    }

    /// Threshold `(M+1)/2`: the output bit is 1 when at least this many 1s
    /// are present among column + feedback.
    pub fn threshold(&self) -> u32 {
        self.m.div_ceil(2) as u32
    }

    /// Software reference: `clip(Σ xⱼ·wⱼ, −1, 1)`.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    pub fn expected_value(xs: &[f64], ws: &[f64]) -> f64 {
        assert_eq!(xs.len(), ws.len(), "input and weight lengths differ");
        xs.iter().zip(ws).map(|(x, w)| x * w).sum::<f64>().clamp(-1.0, 1.0)
    }

    /// Runs the block on the product streams (fast functional model using
    /// bit-sliced column counts).
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::Empty`] when `products` is empty, a length
    /// mismatch when streams differ, or a mismatch against
    /// [`FeatureExtraction::inputs`].
    pub fn run(&self, products: &[BitStream]) -> Result<BitStream, BitstreamError> {
        let first = products.first().ok_or(BitstreamError::Empty)?;
        if products.len() != self.inputs {
            return Err(BitstreamError::LengthMismatch {
                left: self.inputs,
                right: products.len(),
            });
        }
        let len = first.len();
        let mut counter = ColumnCounter::new(len);
        counter.add_all(products)?;
        if self.m != self.inputs {
            counter.add(&BitStream::alternating(len))?;
        }
        let mut out = BitStream::zeros(0);
        self.run_counts_resume_into(&counter.counts(), &mut 0, &mut out);
        Ok(out)
    }

    /// Runs the block on precomputed per-cycle column counts (the network
    /// engine computes counts directly from weight levels) — the single
    /// count-level entry point, chunk-resumable by construction.
    ///
    /// `r` is the feedback occupancy carried across chunks: start it at 0
    /// for a whole-stream (non-resumed) run; the block keeps it in
    /// `0..=width()`. Splitting a count sequence into chunks and threading
    /// `r` through is bit-identical to one whole-sequence call — the
    /// network execution core holds one `r` per neuron.
    ///
    /// Counts must already include the neutral-padding stream when
    /// `width() != inputs()` — [`FeatureExtraction::pad_count_at`] helps
    /// (index it by the ABSOLUTE cycle when resuming mid-stream).
    ///
    /// Writes into `out`, reusing its allocation (the plan produces one
    /// activation stream per neuron per chunk).
    pub fn run_counts_resume_into(&self, counts: &[u32], r: &mut i64, out: &mut BitStream) {
        lanes::run_words(self, counts, r, out);
    }

    /// Lane-parallel [`FeatureExtraction::run_counts_resume_into`], fused
    /// with the lane kernel through the shared lane driver: counts each
    /// cycle's kernel `rows` for up to `64·W` images at once
    /// ([`lane_counts_stream`](aqfp_sc_bitstream::lane_counts_stream) — the
    /// register tree for narrow kernels, the slab compressor for wide ones)
    /// and folds the counts straight into the sorter-FE recurrence,
    /// bit-sliced across every lane. Scalar row operands are read at each
    /// lane's class offset in `classes`. Rows must cover the full sorter
    /// width — weights, bias, and the `0101…` neutral pad (at each lane's
    /// ABSOLUTE cycle parity, which the class offsets give) when
    /// [`width()`](FeatureExtraction::width) `!=`
    /// [`inputs()`](FeatureExtraction::inputs).
    ///
    /// `r` holds the feedback occupancy of each active lane (lane `g` is
    /// `r[g]`, lane `g` in bit `g % 64` of stripe element `g / 64`) and is
    /// updated in place; lane `g` of `out[t]` is lane `g`'s output bit.
    /// Lanes at or above `r.len()` compute garbage from whatever the unused
    /// row bits hold — callers must never read them. Per lane, splitting
    /// into chunks and threading `r[g]` through is bit-identical to
    /// [`FeatureExtraction::run_counts_resume_into`] on that lane's counts,
    /// for any stripe width `W`.
    ///
    /// # Panics
    ///
    /// Panics when `rows` does not cover the sorter width, more than
    /// `64·W` lanes are given, or a row is shorter than `clen`.
    pub fn run_rows_resume_into<const W: usize>(
        &self,
        rows: &[LaneRow<'_, W>],
        classes: &OffsetClasses<W>,
        clen: usize,
        r: &mut [i64],
        out: &mut [Stripe<W>],
    ) {
        assert_eq!(rows.len(), self.m, "run_rows: rows must cover the full sorter width");
        lanes::run_lanes(self, rows, classes, clen, r, out);
    }

    /// The neutral-padding bit contribution at `cycle` (1 on even cycles):
    /// add this to externally computed counts when `width() != inputs()`.
    pub fn pad_count_at(&self, cycle: usize) -> u32 {
        if self.m != self.inputs && cycle.is_multiple_of(2) {
            1
        } else {
            0
        }
    }

    /// Reference implementation that actually sorts: per cycle, the input
    /// column is sorted (ascending) by a bitonic network, merged
    /// (descending) with the previous — already sorted — feedback vector,
    /// and the output/feedback bits are read off exactly as in Algorithm 1.
    /// Used by tests to validate [`FeatureExtraction::run`].
    ///
    /// # Errors
    ///
    /// Same contract as [`FeatureExtraction::run`].
    pub fn run_sorting(&self, products: &[BitStream]) -> Result<BitStream, BitstreamError> {
        let first = products.first().ok_or(BitstreamError::Empty)?;
        if products.len() != self.inputs {
            return Err(BitstreamError::LengthMismatch {
                left: self.inputs,
                right: products.len(),
            });
        }
        let len = first.len();
        for p in products {
            if p.len() != len {
                return Err(BitstreamError::LengthMismatch { left: len, right: p.len() });
            }
        }
        let m = self.m;
        let sorter = SortingNetwork::bitonic_sorter(m, Direction::Ascending);
        let merger = SortingNetwork::bitonic_merger(2 * m, Direction::Descending);
        let pad = BitStream::alternating(len);
        let mut feedback = vec![false; m]; // sorted descending (all 0)
        let mut out = Vec::with_capacity(len);
        let threshold_index = m.div_ceil(2) - 1; // 0-based: element #(M+1)/2
        // Scratch for the 2M-wide sort column, reused across all cycles:
        // [..m] is the input column, [m..] the previous feedback vector.
        let mut merged = vec![false; 2 * m];
        // Word-aware column access: index packed words directly instead of
        // per-bit `BitStream::get` (bounds already checked above).
        let words: Vec<&[u64]> = products.iter().map(|p| p.words()).collect();
        let pad_words = pad.words();
        for cycle in 0..len {
            let (w, b) = (cycle / 64, cycle % 64);
            for (slot, pw) in merged[..products.len()].iter_mut().zip(&words) {
                *slot = (pw[w] >> b) & 1 == 1;
            }
            if m != self.inputs {
                merged[m - 1] = (pad_words[w] >> b) & 1 == 1;
            }
            sorter.apply_bits(&mut merged[..m]); // ascending
            // Bitonic input for a descending merger: ascending ++ descending.
            merged[m..].copy_from_slice(&feedback);
            merger.apply_bits(&mut merged); // descending
            let so = merged[threshold_index];
            out.push(so);
            // Feedback: the M bits following the threshold element.
            feedback.copy_from_slice(&merged[threshold_index + 1..threshold_index + 1 + m]);
        }
        Ok(BitStream::from_bits(out))
    }

    /// Generates the legalised AQFP netlist of the feed-forward datapath:
    /// `M` XNOR multipliers, the M-input bitonic sorter, and the 2M-input
    /// bitonic merger (paper Fig. 12).
    ///
    /// Inputs: `x0..x(M-1)`, `w0..w(M-1)`, `fb0..fb(M-1)` (the sorted
    /// feedback vector — routed externally, see below). Outputs: `so` (the
    /// activated bit) and `fb_out0..fb_out(M-1)` (the next feedback vector).
    ///
    /// The feedback loop is closed *outside* the netlist: in hardware the
    /// loop is wired with a fixed phase offset; the gate-level testbench
    /// (`chip_testbench` example) closes it through the simulator and
    /// cross-checks the functional model.
    pub fn netlist(&self) -> SynthResult {
        let m = self.m;
        let mut net = Netlist::new();
        let xs: Vec<_> = (0..self.inputs).map(|i| net.input(format!("x{i}"))).collect();
        let ws: Vec<_> = (0..self.inputs).map(|i| net.input(format!("w{i}"))).collect();
        let fbs: Vec<_> = (0..m).map(|i| net.input(format!("fb{i}"))).collect();
        let mut wires: Vec<_> = xs
            .iter()
            .zip(&ws)
            .map(|(&x, &w)| net.xnor2(x, w))
            .collect();
        if m != self.inputs {
            // Neutral 0101… source: a toggling cell is approximated by an
            // RNG in cost terms; functionally tests use the models above.
            wires.push(net.rng(0xA17E_81A7));
        }
        let sorter = SortingNetwork::bitonic_sorter(m, Direction::Ascending);
        netlists::apply_network(&mut net, &sorter, &mut wires);
        let mut merged = wires;
        merged.extend_from_slice(&fbs);
        let merger = SortingNetwork::bitonic_merger(2 * m, Direction::Descending);
        netlists::apply_network(&mut net, &merger, &mut merged);
        let threshold_index = m.div_ceil(2) - 1;
        net.output("so", merged[threshold_index]);
        for (k, &w) in merged[threshold_index + 1..threshold_index + 1 + m].iter().enumerate() {
            net.output(format!("fb_out{k}"), w);
        }
        synthesize(&net, &SynthOptions::default())
    }
}

/// Algorithm 1 as a count recurrence: `T = c + r` fires when it reaches
/// the threshold θ = (M+1)/2, and the feedback keeps
/// `r' = clamp(T − θ, 0, M)`. Not firing leaves `T < θ`, so the clamp lands
/// at 0 — one formula covers both branches; the upper clamp is the
/// physical feedback capacity of M wires.
impl lanes::LaneFsm for FeatureExtraction {
    fn planes(&self) -> usize {
        // count ≤ M and r ≤ M, so every intermediate fits in bits(2M).
        lanes::bit_width(2 * self.m as u64)
    }

    #[inline]
    fn step(&self, r: &mut i64, count: u32) -> bool {
        let (threshold, t) = (i64::from(self.threshold()), i64::from(count) + *r);
        *r = (t - threshold).clamp(0, self.m as i64);
        t >= threshold
    }

    #[inline(always)]
    fn lane_step<const W: usize, const P: usize>(
        &self,
        r: &mut [Stripe<W>; P],
        counts: &[Stripe<W>],
    ) -> Stripe<W> {
        lanes::add_sub_clamp(r, counts, 0, u64::from(self.threshold()), self.m as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqfp_sc_bitstream::{Bipolar, Sng, ThermalRng};

    fn products_for(xs: &[f64], ws: &[f64], n: usize, seed: u64) -> Vec<BitStream> {
        let mut sng = Sng::new(10, ThermalRng::with_seed(seed));
        xs.iter()
            .zip(ws)
            .map(|(&x, &w)| {
                let sx = sng.generate(Bipolar::clamped(x), n);
                let sw = sng.generate(Bipolar::clamped(w), n);
                sx.xnor(&sw).unwrap()
            })
            .collect()
    }

    #[test]
    fn tracks_positive_sums() {
        let xs = [0.8, 0.6, 0.4];
        let ws = [0.5, 0.5, -0.25]; // Σ xw = 0.6, inside the linear region
        let fe = FeatureExtraction::new(3);
        let so = fe.run(&products_for(&xs, &ws, 8192, 1)).unwrap();
        let expect = FeatureExtraction::expected_value(&xs, &ws);
        assert!((so.bipolar_value().get() - expect).abs() < 0.08,
            "got {} want {expect}", so.bipolar_value());
    }

    #[test]
    fn clips_large_sums_to_one() {
        let xs = [0.9; 9];
        let ws = [0.9; 9];
        let fe = FeatureExtraction::new(9);
        let so = fe.run(&products_for(&xs, &ws, 4096, 2)).unwrap();
        assert!(so.bipolar_value().get() > 0.93, "got {}", so.bipolar_value());
    }

    #[test]
    fn strongly_negative_sums_rest_at_the_relu_floor() {
        // With every product pinned near −1 the column count is almost
        // always 0, so even the noise-rectified floor sits near −1.
        let xs = [0.9; 9];
        let ws = [-0.9; 9];
        let fe = FeatureExtraction::new(9);
        let so = fe.run(&products_for(&xs, &ws, 4096, 3)).unwrap();
        assert!(so.bipolar_value().get() < -0.9, "got {}", so.bipolar_value());
    }

    #[test]
    fn moderately_negative_sums_are_rectified_not_clipped() {
        // The per-cycle floor clip of the feedback (Algorithm 1's
        // clip(Dᵢ,0,1)) forgets deficits: with a moderately negative target
        // sum and noisy products the output sits well ABOVE −1 — the
        // shifted-ReLU shape of paper Fig. 13, not clip(S, −1, 1).
        let m = 25;
        let per_input = -2.0 / m as f64;
        let xs = vec![per_input; m];
        let ws = vec![1.0; m];
        let fe = FeatureExtraction::new(m);
        let so = fe.run(&products_for(&xs, &ws, 8192, 12)).unwrap();
        let v = so.bipolar_value().get();
        assert!(v > -0.6, "rectified floor expected above -0.6, got {v}");
        assert!(v < 0.3, "floor must stay below the linear region, got {v}");
    }

    #[test]
    fn even_input_counts_get_neutral_padding() {
        let fe = FeatureExtraction::new(4);
        assert_eq!(fe.width(), 5);
        assert_eq!(fe.inputs(), 4);
        let xs = [0.5, -0.5, 0.25, 0.25];
        let ws = [1.0, 1.0, 1.0, 1.0];
        let so = fe.run(&products_for(&xs, &ws, 8192, 4)).unwrap();
        let expect = FeatureExtraction::expected_value(&xs, &ws);
        assert!(
            (so.bipolar_value().get() - expect).abs() < 0.17,
            "got {} want {expect}",
            so.bipolar_value()
        );
    }

    #[test]
    fn counting_model_matches_true_sorting_model() {
        let mut sng = Sng::new(8, ThermalRng::with_seed(5));
        for m in [3usize, 4, 5, 9] {
            let products: Vec<BitStream> = (0..m)
                .map(|i| sng.generate(Bipolar::clamped(0.3 - 0.15 * i as f64), 512))
                .collect();
            let fe = FeatureExtraction::new(m);
            let fast = fe.run(&products).unwrap();
            let slow = fe.run_sorting(&products).unwrap();
            assert_eq!(fast, slow, "m = {m}");
        }
    }

    #[test]
    fn ones_are_conserved_through_the_recursion() {
        // Σ SO must equal the running-clipped sum of (c - (M-1)/2) — checked
        // here against a direct scalar recursion.
        let fe = FeatureExtraction::new(9);
        let counts: Vec<u32> = (0..200).map(|i| ((i * 7) % 10) as u32).collect();
        let mut so = BitStream::zeros(0);
        fe.run_counts_resume_into(&counts, &mut 0, &mut so);
        let mut r = 0i64;
        let mut total = 0i64;
        for &c in &counts {
            let t = c as i64 + r;
            let fire = i64::from(t >= 5);
            total += fire;
            r = (t - 5).clamp(0, 9);
        }
        assert_eq!(so.count_ones() as i64, total);
    }

    #[test]
    fn chunked_neutral_padding_needs_absolute_cycle_parity() {
        // Regression for the chunked-accumulation count drift: with an even
        // input count the block appends the 0101… neutral stream, whose
        // contribution at cycle t is pad_count_at(t) — a function of the
        // ABSOLUTE cycle. A chunked evaluator that restarts the pattern per
        // chunk (pad_count_at(i) for chunk-local i) drifts on every chunk
        // that starts at an odd offset, including odd-length tails.
        let fe = FeatureExtraction::new(4); // even → padded to width 5
        let counts: Vec<u32> = (0..101).map(|i| ((i * 3) % 5) as u32).collect();
        // One-shot reference: pad folded in from cycle 0.
        let mut padded: Vec<u32> = counts.clone();
        for (i, c) in padded.iter_mut().enumerate() {
            *c += fe.pad_count_at(i);
        }
        let mut whole = BitStream::zeros(0);
        fe.run_counts_resume_into(&padded, &mut 0, &mut whole);
        // Chunked with ABSOLUTE parity: bit-identical, odd 37-cycle chunks.
        let mut out = BitStream::zeros(0);
        let mut r = 0i64;
        let mut bits = Vec::new();
        let mut offset = 0usize;
        for chunk in counts.chunks(37) {
            let local: Vec<u32> = chunk
                .iter()
                .enumerate()
                .map(|(i, &c)| c + fe.pad_count_at(offset + i))
                .collect();
            fe.run_counts_resume_into(&local, &mut r, &mut out);
            bits.extend(out.iter());
            offset += chunk.len();
        }
        assert_eq!(BitStream::from_bits(bits), whole);
        // Chunk-local parity (the bug): drifts away from the reference.
        let mut r_bad = 0i64;
        let mut bad = Vec::new();
        for chunk in counts.chunks(37) {
            let local: Vec<u32> = chunk
                .iter()
                .enumerate()
                .map(|(i, &c)| c + fe.pad_count_at(i))
                .collect();
            fe.run_counts_resume_into(&local, &mut r_bad, &mut out);
            bad.extend(out.iter());
        }
        assert_ne!(BitStream::from_bits(bad), whole, "drift went undetected");
    }

    #[test]
    fn run_counts_resume_is_chunk_identical() {
        // Chunks that end one short of, on, and one past a 64-cycle word
        // (and past two words), resumed from a nonzero feedback, against
        // the Algorithm 1 recurrence written out one cycle at a time. The
        // even fan-in pads to width 9 with the 0101… stream at the ABSOLUTE
        // cycle, and the run starts at cycle 1, so chunks start at odd as
        // well as even absolute cycles.
        for inputs in [8usize, 9] {
            let fe = FeatureExtraction::new(inputs);
            let (threshold, cap) = (fe.width().div_ceil(2) as i64, fe.width() as i64);
            for clen in [63usize, 64, 65, 129] {
                let start = 1usize;
                // Runs of near-full columns drive the feedback into its
                // upper clamp; the runs between them drain it to zero.
                let counts: Vec<u32> = (0..3 * clen + 17)
                    .map(|i| {
                        let c = if (i / 40).is_multiple_of(2) {
                            inputs - i % 3
                        } else {
                            (i * 7) % inputs
                        };
                        c as u32
                    })
                    .collect();
                let mut want = Vec::new();
                let mut r_want = 3i64;
                for (i, &c) in counts.iter().enumerate() {
                    let pad = u32::from(inputs == 8 && (start + i).is_multiple_of(2));
                    let t = i64::from(c + pad) + r_want;
                    want.push(t >= threshold);
                    r_want = (t - threshold).clamp(0, cap);
                }
                let mut r = 3i64;
                let mut got = Vec::new();
                let mut out = BitStream::zeros(0);
                for (k, chunk) in counts.chunks(clen).enumerate() {
                    let offset = start + k * clen;
                    let padded: Vec<u32> = chunk
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| c + fe.pad_count_at(offset + i))
                        .collect();
                    fe.run_counts_resume_into(&padded, &mut r, &mut out);
                    got.extend(out.iter());
                }
                assert_eq!(got, want, "inputs {inputs}, chunk {clen}");
                assert_eq!(r, r_want, "final feedback, inputs {inputs}, chunk {clen}");
            }
        }
    }

    fn check_lane_planes_match_scalar<const W: usize>(lanes_n: usize) {
        // Ragged lanes with distinct count sequences, run through the
        // fused lane entry in uneven resumed chunks, must match the scalar
        // per-lane recurrence bit for bit (output and final r).
        let fe = FeatureExtraction::new(9);
        let clen = 100usize;
        let counts: Vec<Vec<u32>> = (0..lanes_n)
            .map(|g| (0..clen).map(|t| ((t * 7 + g * 13) % 10) as u32).collect())
            .collect();
        let rows = lanes::count_rows::<W>(&counts, fe.width(), clen);
        let mut r = vec![0i64; lanes_n];
        let mut out = vec![Stripe::<W>::ZERO; clen];
        let mut pos = 0usize;
        while pos < clen {
            let c = 33.min(clen - pos);
            let chunk: Vec<LaneRow<'_, W>> =
                rows.iter().map(|row| LaneRow::Lanes(&row[pos..pos + c])).collect();
            let classes = OffsetClasses::from_offsets([0]);
            fe.run_rows_resume_into(&chunk, &classes, c, &mut r, &mut out[pos..pos + c]);
            pos += c;
        }
        for (g, cs) in counts.iter().enumerate() {
            let mut rr = 0i64;
            let mut want = BitStream::zeros(0);
            fe.run_counts_resume_into(cs, &mut rr, &mut want);
            for (t, w) in want.iter().enumerate() {
                assert_eq!(out[t].get(g) == 1, w, "lane {g} cycle {t}");
            }
            assert_eq!(r[g], rr, "final feedback, lane {g}");
        }
    }

    #[test]
    fn lane_parallel_planes_match_scalar_recurrence() {
        check_lane_planes_match_scalar::<1>(37);
    }

    #[test]
    fn lane_parallel_planes_match_scalar_recurrence_wide_stripe() {
        // A ragged last stripe element: 150 lanes over a W=4 stripe.
        check_lane_planes_match_scalar::<4>(150);
    }

    #[test]
    fn rejects_wrong_input_count() {
        let fe = FeatureExtraction::new(3);
        let products = vec![BitStream::zeros(8); 2];
        assert!(fe.run(&products).is_err());
    }

    #[test]
    fn rejects_empty_products() {
        let fe = FeatureExtraction::new(1);
        assert_eq!(fe.run(&[]), Err(BitstreamError::Empty));
    }

    #[test]
    fn netlist_is_structurally_valid() {
        let fe = FeatureExtraction::new(3);
        let result = fe.netlist();
        assert!(result.netlist.validate().is_ok());
        // so + M feedback outputs.
        assert_eq!(result.netlist.outputs().len(), 1 + fe.width());
    }

    #[test]
    fn response_resembles_shifted_relu() {
        // Sweep target sums (paper Fig. 13): flat noise floor on the left,
        // roughly linear middle, clipping at +1 on the right.
        let fe = FeatureExtraction::new(25);
        let n = 4096;
        let mut values = Vec::new();
        for target in [-8.0f64, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0] {
            let per_input = target / 25.0;
            let xs = vec![per_input; 25];
            let ws = vec![1.0; 25];
            let so = fe
                .run(&products_for(&xs, &ws, n, 7 + target.to_bits()))
                .unwrap();
            values.push(so.bipolar_value().get());
        }
        // Monotone non-decreasing (within stochastic tolerance).
        for w in values.windows(2) {
            assert!(w[1] >= w[0] - 0.07, "non-monotonic: {values:?}");
        }
        // Saturates low far on the left…
        assert!(values[0] < -0.7, "no low saturation: {values:?}");
        // …clips at +1 on the right…
        assert!(values[7] > 0.9, "should clip high: {values:?}");
        // …and the knee region is lifted above clip(S) by the one-sided
        // feedback (the "shift" of the shifted ReLU): at S = −1 the output
        // is well above −1.
        assert!(values[3] > -0.5, "knee not rectified: {values:?}");
    }
}
