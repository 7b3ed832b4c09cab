//! Sorter-based average pooling (paper §4.3, Algorithm 2, Fig. 14).

use aqfp_sc_bitstream::{BitStream, BitstreamError, ColumnCounter, LaneRow, OffsetClasses, Stripe};
use aqfp_sc_circuit::Netlist;
use aqfp_sc_sorting::{Direction, SortingNetwork};
use aqfp_sc_synth::{synthesize, SynthOptions, SynthResult};

use crate::lanes;
use crate::netlists;

/// The sorter-based average-pooling (sub-sampling) block.
///
/// Max-pooling needs an FSM (impractical in AQFP) and the prior mux-based
/// average pooling is inaccurate for larger windows; this block instead
/// counts exactly: with per-cycle column count `c` and feedback occupancy
/// `R < M`, letting `T = c + R`, the output bit is `SO = [T ≥ M]` and the
/// new feedback holds `R' = T − M·SO` ones — **one output 1 per M input
/// 1s**, so the output stream value converges to the exact mean of the
/// input values. (The branch comments in the paper's Algorithm 2 pseudocode
/// are swapped; this is the conserving version it describes in prose.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AveragePooling {
    m: usize,
}

impl AveragePooling {
    /// Creates a pooling block over `inputs` streams (the pooling window).
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is 0.
    pub fn new(inputs: usize) -> Self {
        assert!(inputs > 0, "pooling needs at least one input");
        AveragePooling { m: inputs }
    }

    /// Window size M.
    pub fn inputs(&self) -> usize {
        self.m
    }

    /// Software reference: the mean of the input values.
    pub fn expected_value(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        values.iter().sum::<f64>() / values.len() as f64
    }

    /// Runs the block (fast functional model via column counts).
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::Empty`] when `streams` is empty, a length
    /// mismatch when stream lengths differ or the stream count does not
    /// match [`AveragePooling::inputs`].
    pub fn run(&self, streams: &[BitStream]) -> Result<BitStream, BitstreamError> {
        let first = streams.first().ok_or(BitstreamError::Empty)?;
        if streams.len() != self.m {
            return Err(BitstreamError::LengthMismatch { left: self.m, right: streams.len() });
        }
        let mut counter = ColumnCounter::new(first.len());
        counter.add_all(streams)?;
        let mut out = BitStream::zeros(0);
        self.run_counts_resume_into(&counter.counts(), &mut 0, &mut out);
        Ok(out)
    }

    /// Runs the block on precomputed per-cycle column counts — the single
    /// count-level entry point, chunk-resumable by construction.
    ///
    /// `r` is the feedback occupancy carried across chunks: start it at 0
    /// for a whole-stream (non-resumed) run. Splitting a count sequence
    /// into chunks and threading `r` through is bit-identical to one
    /// whole-sequence call.
    ///
    /// Writes into `out`, reusing its allocation (the plan produces one
    /// pooled stream per window per chunk).
    pub fn run_counts_resume_into(&self, counts: &[u32], r: &mut i64, out: &mut BitStream) {
        lanes::run_words(self, counts, r, out);
    }

    /// Lane-parallel [`AveragePooling::run_counts_resume_into`], fused
    /// with the lane kernel through the shared lane driver: counts each
    /// cycle's window `rows` for up to `64·W` images at once
    /// ([`lane_counts_stream`](aqfp_sc_bitstream::lane_counts_stream)) and
    /// folds the counts straight into the conserving recurrence,
    /// bit-sliced across every lane. Rows are the `M` window streams;
    /// scalar operands, if any, are read at each lane's class offset in
    /// `classes`.
    ///
    /// `r` holds each active lane's feedback occupancy (updated in place);
    /// lane `g` of `out[t]` is lane `g`'s output bit. Lanes at or above
    /// `r.len()` compute garbage — callers must never read them. Per lane,
    /// chunking with `r[g]` threaded through is bit-identical to
    /// [`AveragePooling::run_counts_resume_into`] on that lane's counts,
    /// for any stripe width `W`.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is not exactly the window size, more than `64·W`
    /// lanes are given, or a row is shorter than `clen`.
    pub fn run_rows_resume_into<const W: usize>(
        &self,
        rows: &[LaneRow<'_, W>],
        classes: &OffsetClasses<W>,
        clen: usize,
        r: &mut [i64],
        out: &mut [Stripe<W>],
    ) {
        assert_eq!(rows.len(), self.m, "run_rows: rows must cover the full window");
        lanes::run_lanes(self, rows, classes, clen, r, out);
    }

    /// Reference implementation that actually sorts per cycle (Algorithm 2
    /// verbatim): column sorted ascending, merged descending with the sorted
    /// feedback, output bit is element `M−1` (0-based) of the sorted 2M
    /// vector, feedback keeps either the top M bits (no fire) or the M bits
    /// after the top M (fire).
    ///
    /// # Errors
    ///
    /// Same contract as [`AveragePooling::run`].
    pub fn run_sorting(&self, streams: &[BitStream]) -> Result<BitStream, BitstreamError> {
        let first = streams.first().ok_or(BitstreamError::Empty)?;
        if streams.len() != self.m {
            return Err(BitstreamError::LengthMismatch { left: self.m, right: streams.len() });
        }
        let len = first.len();
        for s in streams {
            if s.len() != len {
                return Err(BitstreamError::LengthMismatch { left: len, right: s.len() });
            }
        }
        let m = self.m;
        let sorter = SortingNetwork::bitonic_sorter(m, Direction::Ascending);
        let merger = SortingNetwork::bitonic_merger(2 * m, Direction::Descending);
        let mut feedback = vec![false; m];
        let mut out = Vec::with_capacity(len);
        // Scratch for the 2M-wide sort column, reused across all cycles.
        let mut merged = vec![false; 2 * m];
        // Word-aware column access: index packed words directly instead of
        // per-bit `BitStream::get` (bounds already checked above).
        let words: Vec<&[u64]> = streams.iter().map(|s| s.words()).collect();
        for cycle in 0..len {
            let (w, b) = (cycle / 64, cycle % 64);
            for (slot, sw) in merged[..m].iter_mut().zip(&words) {
                *slot = (sw[w] >> b) & 1 == 1;
            }
            sorter.apply_bits(&mut merged[..m]);
            merged[m..].copy_from_slice(&feedback);
            merger.apply_bits(&mut merged);
            let fire = merged[m - 1]; // M-th element (descending order)
            out.push(fire);
            if fire {
                feedback.copy_from_slice(&merged[m..2 * m]);
            } else {
                feedback.copy_from_slice(&merged[..m]);
            }
        }
        Ok(BitStream::from_bits(out))
    }

    /// Generates the legalised AQFP netlist of the feed-forward datapath:
    /// M-input sorter + 2M-input merger + the output/feedback taps
    /// (paper Fig. 14). Feedback is routed externally like the
    /// feature-extraction block.
    pub fn netlist(&self) -> SynthResult {
        let m = self.m;
        let mut net = Netlist::new();
        let mut wires: Vec<_> = (0..m).map(|i| net.input(format!("p{i}"))).collect();
        let fbs: Vec<_> = (0..m).map(|i| net.input(format!("fb{i}"))).collect();
        let sorter = SortingNetwork::bitonic_sorter(m, Direction::Ascending);
        netlists::apply_network(&mut net, &sorter, &mut wires);
        let mut merged = wires;
        merged.extend_from_slice(&fbs);
        let merger = SortingNetwork::bitonic_merger(2 * m, Direction::Descending);
        netlists::apply_network(&mut net, &merger, &mut merged);
        net.output("so", merged[m - 1]);
        // Both candidate feedback slices are exposed; the external loop (or
        // the mux in Fig. 14) picks based on `so`.
        for (k, &w) in merged[..m].iter().enumerate() {
            net.output(format!("keep{k}"), w);
        }
        for (k, &w) in merged[m..2 * m].iter().enumerate() {
            net.output(format!("carry{k}"), w);
        }
        synthesize(&net, &SynthOptions::default())
    }
}

/// Algorithm 2 as a count recurrence: `T = c + r` fires when it reaches
/// M; firing lanes keep `T − M`, the rest keep `T`, so ones are conserved
/// (one output 1 per M input 1s).
impl lanes::LaneFsm for AveragePooling {
    fn planes(&self) -> usize {
        // count ≤ M and r < M, so every intermediate fits in bits(2M).
        lanes::bit_width(2 * self.m as u64)
    }

    #[inline]
    fn step(&self, r: &mut i64, count: u32) -> bool {
        let (m, t) = (self.m as i64, i64::from(count) + *r);
        let fire = t >= m;
        *r = t - m * i64::from(fire);
        fire
    }

    #[inline(always)]
    fn lane_step<const W: usize, const P: usize>(
        &self,
        r: &mut [Stripe<W>; P],
        counts: &[Stripe<W>],
    ) -> Stripe<W> {
        let (sum, diff, fire) = lanes::add_sub(r, counts, 0, self.m as u64);
        for (p, x) in r.iter_mut().enumerate() {
            *x = (diff[p] & fire) | (sum[p] & !fire);
        }
        fire
    }
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
    fn output_value_is_the_mean() {
        let values = [0.8, -0.4, 0.2, 0.6];
        let pool = AveragePooling::new(4);
        let so = pool.run(&streams_for(&values, 8192, 1)).unwrap();
        let expect = AveragePooling::expected_value(&values);
        assert!(
            (so.bipolar_value().get() - expect).abs() < 0.05,
            "got {} want {expect}",
            so.bipolar_value()
        );
    }

    fn check_lane_planes_match_scalar<const W: usize>(lanes_n: usize) {
        // Ragged lanes of distinct count sequences through the fused lane
        // entry in uneven resumed chunks, vs the scalar per-lane
        // recurrence.
        let pool = AveragePooling::new(4);
        let clen = 90usize;
        let counts: Vec<Vec<u32>> = (0..lanes_n)
            .map(|g| (0..clen).map(|t| ((t * 3 + g * 11) % 5) as u32).collect())
            .collect();
        let rows = lanes::count_rows::<W>(&counts, pool.inputs(), clen);
        let mut r = vec![0i64; lanes_n];
        let mut out = vec![Stripe::<W>::ZERO; clen];
        let mut pos = 0usize;
        while pos < clen {
            let c = 41.min(clen - pos);
            let chunk: Vec<LaneRow<'_, W>> =
                rows.iter().map(|row| LaneRow::Lanes(&row[pos..pos + c])).collect();
            let classes = OffsetClasses::from_offsets([0]);
            pool.run_rows_resume_into(&chunk, &classes, c, &mut r, &mut out[pos..pos + c]);
            pos += c;
        }
        for (g, cs) in counts.iter().enumerate() {
            let mut rr = 0i64;
            let mut want = BitStream::zeros(0);
            pool.run_counts_resume_into(cs, &mut rr, &mut want);
            for (t, w) in want.iter().enumerate() {
                assert_eq!(out[t].get(g) == 1, w, "lane {g} cycle {t}");
            }
            assert_eq!(r[g], rr, "final feedback, lane {g}");
        }
    }

    #[test]
    fn lane_parallel_planes_match_scalar_recurrence() {
        check_lane_planes_match_scalar::<1>(29);
    }

    #[test]
    fn lane_parallel_planes_match_scalar_recurrence_wide_stripe() {
        check_lane_planes_match_scalar::<2>(100);
    }

    #[test]
    fn exact_ones_conservation() {
        // #ones(SO) == floor-ish(#ones(SP)/M): residual < M.
        let pool = AveragePooling::new(4);
        let streams = streams_for(&[0.3, -0.3, 0.7, -0.1], 2048, 2);
        let total_in: usize = streams.iter().map(BitStream::count_ones).sum();
        let so = pool.run(&streams).unwrap();
        let out = so.count_ones();
        assert!(total_in / 4 >= out, "emitted more than conserved");
        assert!(total_in / 4 - out <= 1, "residual must stay below M");
    }

    #[test]
    fn counting_model_matches_true_sorting_model() {
        let mut sng = Sng::new(8, ThermalRng::with_seed(9));
        for m in [2usize, 4, 9] {
            let streams: Vec<BitStream> = (0..m)
                .map(|i| sng.generate(Bipolar::clamped(0.4 - 0.2 * i as f64), 512))
                .collect();
            let pool = AveragePooling::new(m);
            let fast = pool.run(&streams).unwrap();
            let slow = pool.run_sorting(&streams).unwrap();
            assert_eq!(fast, slow, "m = {m}");
        }
    }

    #[test]
    fn all_ones_input_yields_all_ones_output() {
        let pool = AveragePooling::new(4);
        let streams = vec![BitStream::ones(256); 4];
        let so = pool.run(&streams).unwrap();
        assert_eq!(so.count_ones(), 256);
    }

    #[test]
    fn run_counts_resume_is_chunk_identical() {
        // Chunks that end one short of, on, and one past a 64-cycle word
        // (and past two words), resumed from a nonzero feedback, against
        // the conserving recurrence written out one cycle at a time.
        for m in [4usize, 9] {
            let pool = AveragePooling::new(m);
            let mi = m as i64;
            for clen in [63usize, 64, 65, 129] {
                let counts: Vec<u32> =
                    (0..3 * clen + 17).map(|i| ((i * 5) % (m + 1)) as u32).collect();
                let mut want = Vec::new();
                let mut r_want = mi - 1;
                for &c in &counts {
                    let t = i64::from(c) + r_want;
                    if t >= mi {
                        want.push(true);
                        r_want = t - mi;
                    } else {
                        want.push(false);
                        r_want = t;
                    }
                }
                let mut r = mi - 1;
                let mut got = Vec::new();
                let mut out = BitStream::zeros(0);
                for chunk in counts.chunks(clen) {
                    pool.run_counts_resume_into(chunk, &mut r, &mut out);
                    got.extend(out.iter());
                }
                assert_eq!(got, want, "window {m}, chunk {clen}");
                assert_eq!(r, r_want, "final feedback, window {m}, chunk {clen}");
            }
        }
    }

    #[test]
    fn rejects_wrong_window() {
        let pool = AveragePooling::new(4);
        assert!(pool.run(&vec![BitStream::zeros(8); 3]).is_err());
        assert_eq!(pool.run(&[]), Err(BitstreamError::Empty));
    }

    #[test]
    fn netlist_is_structurally_valid() {
        let pool = AveragePooling::new(4);
        let result = pool.netlist();
        assert!(result.netlist.validate().is_ok());
        assert_eq!(result.netlist.outputs().len(), 1 + 2 * 4);
    }

    #[test]
    fn more_accurate_than_mux_pooling_for_large_windows() {
        // The motivation in §4.3: mux pooling degrades with window size.
        use crate::baseline::mux_average_pooling;
        let values: Vec<f64> = (0..16).map(|i| 0.9 - 0.11 * i as f64).collect();
        let expect = AveragePooling::expected_value(&values);
        let n = 2048;
        let mut sorter_err = 0.0;
        let mut mux_err = 0.0;
        for seed in 0..8 {
            let streams = streams_for(&values, n, 100 + seed);
            let pool = AveragePooling::new(16);
            let sorter_out = pool.run(&streams).unwrap();
            sorter_err += (sorter_out.bipolar_value().get() - expect).abs();
            let mux_out = mux_average_pooling(&streams, 4242 + seed).unwrap();
            mux_err += (mux_out.bipolar_value().get() - expect).abs();
        }
        assert!(
            sorter_err < mux_err,
            "sorter {sorter_err} should beat mux {mux_err}"
        );
    }
}
