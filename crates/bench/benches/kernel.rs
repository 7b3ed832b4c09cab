//! `kernel_column_counts`: one neuron-column workload (9 XNOR taps + a
//! bias row over N = 512 cycles) through the column-counting paths of the
//! execution plan:
//!
//! - `scalar` — the pre-kernel per-bit column walk (`BitStream::get` per
//!   row per cycle), 64 images;
//! - `word_parallel` — the fused XNOR + carry-save word kernel
//!   (`column_counts_into`), 64 images;
//! - `batch_transposed` — the lane kernel: the same cycle of all 64 images
//!   packed into one word (`lane_column_planes` at stripe width 1),
//!   including the lane pack/transpose/extract overhead the plan pays per
//!   layer;
//! - `simd_stripe` — the same lane kernel at full stripe width
//!   (`Stripe<4>`, 256 images per group advance); per-image cost is the
//!   headline of the stripe path, so compare `simd_stripe / 4` against
//!   `batch_transposed`.
//!
//! All four paths produce identical counts for the same per-image work (10
//! rows × 512 cycles per image). Two more rungs time one wide fan-in
//! neuron of the paper's SNN (FC500: 800 XNOR taps + a bias row, N = 256)
//! counted *and* activated for 256 images:
//!
//! - `scalar_fe_801` — per image, `column_counts_into` then
//!   `FeatureExtraction::run_counts_resume_into`;
//! - `lane_fe_801` — one `FeatureExtraction::run_rows_resume_into` call at
//!   `Stripe<4>`, the slab compressor feeding the fused FSM sweep.
//!
//! `BENCH_JSON=BENCH_kernel.json cargo bench --bench kernel` refreshes the
//! committed baseline.

use aqfp_sc_bitstream::{
    column_counts_into, extract_plane_counts, lane_column_planes, pack_lanes_into, transpose64,
    BitStream, KernelRow, LaneRow, OffsetClasses, SplitMix64, Stripe, MAX_PLANES,
};
use aqfp_sc_core::FeatureExtraction;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const LEN: usize = 512;
const TAPS: usize = 9;
const IMAGES: usize = 64;
const STRIPE_W: usize = 4;
/// Fan-in of the wide-kernel rungs (the SNN's FC500 layer).
const WIDE_TAPS: usize = 800;
/// Stream length of the wide-kernel rungs (the benchmark's N).
const WIDE_LEN: usize = 256;

fn stream(rng: &mut SplitMix64) -> BitStream {
    BitStream::from_bits((0..LEN).map(|_| rng.next_u64() >> 63 == 1))
}

/// The full batch-transposed round trip at stripe width `W`: pack every
/// image's taps into lane stripes, count all `64·W` columns at once, then
/// unpack per-image counts. Returns a checksum so the work can't be
/// dead-code-eliminated.
fn lane_round_trip<const W: usize>(
    acts: &[Vec<BitStream>],
    weights: &[BitStream],
    bias: &BitStream,
    lanes: &mut [Vec<Stripe<W>>],
    planes: &mut Vec<Vec<Stripe<W>>>,
    counts: &mut [u32],
) -> u64 {
    let images = acts.len();
    for (tap, lane) in lanes.iter_mut().enumerate() {
        pack_lanes_into(acts.iter().map(|taps| &taps[tap]), LEN, lane)
            .expect("group fits the stripe");
    }
    let mut rows: Vec<LaneRow<'_, W>> = lanes
        .iter()
        .zip(weights)
        .map(|(lane, w)| LaneRow::Xnor(lane, w.words()))
        .collect();
    rows.push(LaneRow::Broadcast(bias.words()));
    let used = lane_column_planes(&rows, &OffsetClasses::from_offsets([0]), LEN, planes);
    // Cycle-major stripes → lane-major 64-cycle blocks per stripe element,
    // then per image per block.
    let mut planes_t: Vec<Vec<u64>> = vec![vec![0u64; LEN * W]; used];
    for (src, dst) in planes.iter().zip(planes_t.iter_mut()) {
        for e in 0..W {
            for (bi, block) in dst[e * LEN..(e + 1) * LEN].chunks_mut(64).enumerate() {
                let mut mat = [0u64; 64];
                for (r, s) in src[bi * 64..(bi + 1) * 64].iter().enumerate() {
                    mat[r] = s.0[e];
                }
                transpose64(&mut mat);
                block.copy_from_slice(&mat);
            }
        }
    }
    let mut sum = 0u64;
    let mut pw = [0u64; MAX_PLANES];
    for g in 0..images {
        let base = (g / 64) * LEN + g % 64;
        for (t0, chunk) in (0..LEN).step_by(64).zip(counts.chunks_mut(64)) {
            for (p, plane) in planes_t.iter().enumerate() {
                pw[p] = plane[base + t0];
            }
            extract_plane_counts(&pw[..used], 64, chunk);
        }
        sum += u64::from(counts[LEN - 1]);
    }
    sum
}

fn bench_kernel_column_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_column_counts");
    group.sample_size(10);
    let mut rng = SplitMix64::new(0x15CA_2019);
    // One weight row + bias shared by all images (weights are
    // image-independent in the plan); per-image activation taps.
    let weights: Vec<BitStream> = (0..TAPS).map(|_| stream(&mut rng)).collect();
    let bias = stream(&mut rng);
    let acts: Vec<Vec<BitStream>> =
        (0..IMAGES).map(|_| (0..TAPS).map(|_| stream(&mut rng)).collect()).collect();
    let acts_wide: Vec<Vec<BitStream>> = (0..IMAGES * STRIPE_W)
        .map(|_| (0..TAPS).map(|_| stream(&mut rng)).collect())
        .collect();

    group.bench_function("scalar", |b| {
        let mut counts = vec![0u32; LEN];
        b.iter(|| {
            let mut sum = 0u64;
            for taps in &acts {
                for (t, slot) in counts.iter_mut().enumerate() {
                    let mut col = u32::from(bias.get(t).unwrap());
                    for (x, w) in taps.iter().zip(&weights) {
                        col += u32::from(x.get(t) == w.get(t));
                    }
                    *slot = col;
                }
                sum += u64::from(counts[LEN - 1]);
            }
            black_box(sum)
        })
    });

    group.bench_function("word_parallel", |b| {
        let mut counts = Vec::new();
        b.iter(|| {
            let mut sum = 0u64;
            for taps in &acts {
                let mut rows: Vec<KernelRow<'_>> = taps
                    .iter()
                    .zip(&weights)
                    .map(|(x, w)| KernelRow::Xnor(x.words(), w.words()))
                    .collect();
                rows.push(KernelRow::Plain(bias.words()));
                column_counts_into(&rows, LEN, &mut counts);
                sum += u64::from(counts[LEN - 1]);
            }
            black_box(sum)
        })
    });

    group.bench_function("batch_transposed", |b| {
        let mut lanes: Vec<Vec<Stripe<1>>> = vec![Vec::new(); TAPS];
        let mut planes: Vec<Vec<Stripe<1>>> = Vec::new();
        let mut counts = vec![0u32; LEN];
        b.iter(|| {
            black_box(lane_round_trip(
                &acts,
                &weights,
                &bias,
                &mut lanes,
                &mut planes,
                &mut counts,
            ))
        })
    });

    group.bench_function("simd_stripe", |b| {
        let mut lanes: Vec<Vec<Stripe<STRIPE_W>>> = vec![Vec::new(); TAPS];
        let mut planes: Vec<Vec<Stripe<STRIPE_W>>> = Vec::new();
        let mut counts = vec![0u32; LEN];
        b.iter(|| {
            black_box(lane_round_trip(
                &acts_wide,
                &weights,
                &bias,
                &mut lanes,
                &mut planes,
                &mut counts,
            ))
        })
    });

    // One FC500 neuron over 256 images: per-image activations, shared
    // weights and bias. Lane packing happens outside the timed loop, as in
    // the plan, where each layer's fire masks are already lane-packed.
    let fe = FeatureExtraction::new(WIDE_TAPS + 1);
    let wide = |rng: &mut SplitMix64| {
        BitStream::from_words((0..WIDE_LEN / 64).map(|_| rng.next_u64()).collect(), WIDE_LEN)
    };
    let wide_w: Vec<BitStream> = (0..WIDE_TAPS).map(|_| wide(&mut rng)).collect();
    let wide_bias = wide(&mut rng);
    let wide_acts: Vec<Vec<BitStream>> = (0..IMAGES * STRIPE_W)
        .map(|_| (0..WIDE_TAPS).map(|_| wide(&mut rng)).collect())
        .collect();

    group.bench_function("scalar_fe_801", |b| {
        let mut counts = Vec::new();
        let mut out = BitStream::zeros(0);
        b.iter(|| {
            let mut sum = 0u64;
            for taps in &wide_acts {
                let mut rows: Vec<KernelRow<'_>> = taps
                    .iter()
                    .zip(&wide_w)
                    .map(|(x, w)| KernelRow::Xnor(x.words(), w.words()))
                    .collect();
                rows.push(KernelRow::Plain(wide_bias.words()));
                column_counts_into(&rows, WIDE_LEN, &mut counts);
                fe.run_counts_resume_into(&counts, &mut 0, &mut out);
                sum += out.count_ones() as u64;
            }
            black_box(sum)
        })
    });

    let mut wide_lanes: Vec<Vec<Stripe<STRIPE_W>>> = vec![Vec::new(); WIDE_TAPS];
    for (tap, lane) in wide_lanes.iter_mut().enumerate() {
        pack_lanes_into(wide_acts.iter().map(|taps| &taps[tap]), WIDE_LEN, lane)
            .expect("group fits the stripe");
    }
    group.bench_function("lane_fe_801", |b| {
        let mut rows: Vec<LaneRow<'_, STRIPE_W>> = wide_lanes
            .iter()
            .zip(&wide_w)
            .map(|(lane, w)| LaneRow::Xnor(lane, w.words()))
            .collect();
        rows.push(LaneRow::Broadcast(wide_bias.words()));
        let classes = OffsetClasses::from_offsets([0]);
        let mut r = vec![0i64; IMAGES * STRIPE_W];
        let mut out = vec![Stripe::<STRIPE_W>::ZERO; WIDE_LEN];
        b.iter(|| {
            r.fill(0);
            fe.run_rows_resume_into(&rows, &classes, WIDE_LEN, &mut r, &mut out);
            black_box(out.iter().map(|s| u64::from(s.0[0].count_ones())).sum::<u64>())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_kernel_column_counts);
criterion_main!(benches);
