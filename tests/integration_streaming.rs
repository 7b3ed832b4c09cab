//! Cross-crate integration of the chunked streaming engine: bit-exact
//! equivalence with the one-shot engine at full N, odd-tail chunk
//! handling, early-exit behaviour, batch/thread invariance, and the
//! lane-group scheduler's per-image equivalence with the scalar path
//! (retire-and-refill compaction must never change bits).

use std::sync::OnceLock;

use aqfp_sc_dnn::network::{
    build_model, ActivationStyle, ChunkSchedule, CompiledNetwork, ExitPolicy, InferenceEngine,
    LayerSpec, NetworkSpec, Platform, StreamingEngine, StreamingOutcome,
};
use aqfp_sc_dnn::nn::{Padding, Tensor};
use proptest::prelude::*;

const STREAM_LEN: usize = 256;
const BASE_SEED: u64 = 0x57E3_A21C;

fn compiled_tiny() -> CompiledNetwork {
    let spec = NetworkSpec::tiny(8);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 17);
    CompiledNetwork::from_model(&spec, &mut model, 8)
}

fn probe_images(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            Tensor::from_vec(
                vec![1, 8, 8],
                (0..64).map(|p| ((p * (2 * i + 3) + i) % 13) as f32 / 13.0).collect(),
            )
        })
        .collect()
}

/// Conv(Same) + Pool + Dense + Output(even fan-in): the spec that drives
/// every parity-sensitive streaming arm. Shared across proptest cases.
fn compiled_probe() -> &'static CompiledNetwork {
    static COMPILED: OnceLock<CompiledNetwork> = OnceLock::new();
    COMPILED.get_or_init(|| {
        let spec = NetworkSpec {
            name: "probe",
            input_side: 6,
            layers: vec![
                LayerSpec::Conv { k: 3, out_c: 2, padding: Padding::Same },
                LayerSpec::AvgPool { k: 2 },
                LayerSpec::Dense { out: 5 },
                LayerSpec::Output { classes: 3 },
            ],
        };
        let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 23);
        CompiledNetwork::from_model(&spec, &mut model, 8)
    })
}

/// Conv(Valid) + Pool + Output(odd fan-in): the complementary topology
/// (no Dense, no padding taps, no majority-chain pad).
fn compiled_tiny_static() -> &'static CompiledNetwork {
    static COMPILED: OnceLock<CompiledNetwork> = OnceLock::new();
    COMPILED.get_or_init(compiled_tiny)
}

/// The scalar reference: every image through the scalar chunk loop of
/// `StreamingEngine::classify`, at the batch APIs' per-image seeds.
fn scalar_reference(s: &StreamingEngine<'_>, images: &[Tensor]) -> Vec<StreamingOutcome> {
    images
        .iter()
        .enumerate()
        .map(|(i, x)| s.classify(x, InferenceEngine::image_seed(BASE_SEED, i)))
        .collect()
}

fn probe_spec_image(variant: usize) -> Tensor {
    Tensor::from_vec(
        vec![1, 6, 6],
        (0..36).map(|p| ((p * 5 + 2 + variant) % 9) as f32 / 9.0).collect(),
    )
}

proptest! {
    // Each case streams `count` images twice (scalar + batched) per
    // platform; a modest case count keeps the suite quick while the
    // schedule/policy/group-size/refill-order space is densely sampled.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The tentpole invariant: batched lane-group streaming reports the
    // SAME outcome per image — label, scores, exit cycle count, chunk
    // count, early-exit flag — as the scalar reference path, for random
    // specs, stream lengths, schedules (fixed + geometric), policies,
    // lane-group sizes, thread counts, and refill orders, on both
    // platforms. Shuffling the image list permutes which images share a
    // word and in what order retired lanes are refilled; per-position
    // seeds keep each (image, seed) pair fixed so outcomes stay
    // comparable position by position.
    #[test]
    fn batched_streaming_is_bit_identical_to_scalar_streaming(
        spec_kind in 0usize..2,
        n in 65usize..260,
        count in 1usize..18,
        lane_limit in 2usize..=64,
        threads in 1usize..4,
        sched_kind in 0usize..4,
        policy_kind in 0usize..4,
        order_seed in any::<u64>(),
    ) {
        let compiled = if spec_kind == 0 { compiled_probe() } else { compiled_tiny_static() };
        let schedule = match sched_kind {
            0 => ChunkSchedule::fixed(64),
            1 => ChunkSchedule::fixed(17),
            2 => ChunkSchedule::geometric(8, 2.0, 64),
            _ => ChunkSchedule::geometric(5, 1.5, 48),
        };
        let policy = match policy_kind {
            0 => ExitPolicy::Disabled,
            1 => ExitPolicy::Margin { z: 2.0 },
            2 => ExitPolicy::Margin { z: 3.0 },
            _ => ExitPolicy::StableArgmax { k: 2 },
        };
        let make_image: fn(usize) -> Tensor =
            if spec_kind == 0 { probe_spec_image } else { |v| probe_images(v + 1).pop().unwrap() };
        let mut images: Vec<Tensor> = (0..count).map(make_image).collect();
        // Deterministic Fisher-Yates on order_seed: a different refill
        // order per case.
        let mut x = order_seed | 1;
        for i in (1..images.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            images.swap(i, (x >> 33) as usize % (i + 1));
        }
        for platform in [Platform::Aqfp, Platform::Cmos] {
            let engine = InferenceEngine::new(compiled, n, platform).with_threads(threads);
            let scalar = scalar_reference(
                &StreamingEngine::new(&engine, 64).with_schedule(schedule).with_policy(policy),
                &images,
            );
            let batched = StreamingEngine::new(&engine, 64)
                .with_schedule(schedule)
                .with_policy(policy)
                .with_lane_group(lane_limit)
                .classify_batch(&images, BASE_SEED);
            prop_assert_eq!(
                &batched, &scalar,
                "{:?} n={} lanes={} threads={} {:?} {:?}: batched streaming diverged",
                platform, n, lane_limit, threads, schedule, policy
            );
        }
    }
}

proptest! {
    // Each case runs one scalar reference plus four batched passes per
    // platform over 66..140 images, so a small case count already covers
    // the schedule/policy/width space densely.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Stripe-width independence: the lane-group limit decides how many
    // images share a stripe and therefore which width (1, 2 or 4 words)
    // the scheduler picks, but it must never change a single image's
    // outcome — class, scores, exit cycle, chunk count and early-exit
    // flag all match the scalar reference for every width. Image counts
    // above one word force multi-word stripes with ragged last elements
    // (e.g. 140 lanes rides a width-4 stripe with 116 dead bits), and
    // the shuffled order varies which images retire first and how the
    // refill compaction repacks the survivors.
    #[test]
    fn stripe_width_never_changes_streaming_outcomes(
        spec_kind in 0usize..2,
        n in 65usize..200,
        count in 66usize..140,
        sched_kind in 0usize..4,
        policy_kind in 0usize..4,
        order_seed in any::<u64>(),
    ) {
        let compiled = if spec_kind == 0 { compiled_probe() } else { compiled_tiny_static() };
        let schedule = match sched_kind {
            0 => ChunkSchedule::fixed(64),
            1 => ChunkSchedule::fixed(17),
            2 => ChunkSchedule::geometric(8, 2.0, 64),
            _ => ChunkSchedule::geometric(5, 1.5, 48),
        };
        let policy = match policy_kind {
            0 => ExitPolicy::Disabled,
            1 => ExitPolicy::Margin { z: 2.0 },
            2 => ExitPolicy::Margin { z: 3.0 },
            _ => ExitPolicy::StableArgmax { k: 2 },
        };
        let make_image: fn(usize) -> Tensor =
            if spec_kind == 0 { probe_spec_image } else { |v| probe_images(v + 1).pop().unwrap() };
        let mut images: Vec<Tensor> = (0..count).map(make_image).collect();
        let mut x = order_seed | 1;
        for i in (1..images.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            images.swap(i, (x >> 33) as usize % (i + 1));
        }
        for platform in [Platform::Aqfp, Platform::Cmos] {
            let engine = InferenceEngine::new(compiled, n, platform).with_threads(1);
            let reference = scalar_reference(
                &StreamingEngine::new(&engine, 64).with_schedule(schedule).with_policy(policy),
                &images,
            );
            // 48 and 64 stay at width 1 (multiple groups vs one full
            // word); 128 and 256 engage width-2 and width-4 stripes.
            for lane_limit in [48usize, 64, 128, 256] {
                let batched = StreamingEngine::new(&engine, 64)
                    .with_schedule(schedule)
                    .with_policy(policy)
                    .with_lane_group(lane_limit)
                    .classify_batch(&images, BASE_SEED);
                prop_assert_eq!(
                    &batched, &reference,
                    "{:?} n={} count={} lanes={} {:?} {:?}: width choice changed outcomes",
                    platform, n, count, lane_limit, schedule, policy
                );
            }
        }
    }
}

#[test]
fn batched_streaming_with_min_cycles_floor_matches_scalar() {
    // The min-cycles floor interacts with both policies' consult logic;
    // drive it through the lane path explicitly.
    let compiled = compiled_tiny();
    let images = probe_images(20);
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let engine = InferenceEngine::new(&compiled, STREAM_LEN, platform);
        for policy in
            [ExitPolicy::Margin { z: 2.0 }, ExitPolicy::StableArgmax { k: 1 }]
        {
            let scalar = scalar_reference(
                &StreamingEngine::new(&engine, 32).with_policy(policy).with_min_cycles(96),
                &images,
            );
            let batched = StreamingEngine::new(&engine, 32)
                .with_policy(policy)
                .with_min_cycles(96)
                .classify_batch(&images, BASE_SEED);
            assert_eq!(batched, scalar, "{platform:?} {policy:?} with floor diverged");
            assert!(scalar.iter().all(|o| o.cycles >= 96));
        }
    }
}

#[test]
fn lane_occupancy_stats_track_retire_and_refill() {
    // 300 images: crosses the 256-lane full-stripe boundary, so the
    // scheduler both fills a whole 4-word stripe and drains a ragged
    // remainder through narrower stripe widths.
    let compiled = compiled_tiny();
    let images = probe_images(300);
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp).with_threads(1);
    let (outcomes, stats) = StreamingEngine::new(&engine, 32)
        .with_policy(ExitPolicy::Margin { z: 2.0 })
        .classify_batch_with_stats(&images, BASE_SEED);
    assert_eq!(outcomes.len(), images.len());
    assert!(stats.steps > 0, "lane mode must take kernel steps");
    let avg = stats.avg_lanes();
    assert!(
        avg > 64.0 && avg <= 256.0,
        "avg occupancy {avg} outside (64, 256] for a 300-image run"
    );
}

#[test]
fn pool_lane_cap_splits_the_batch_evenly_across_workers() {
    // One full-length chunk and no exits: every worker fills its lanes
    // once and never refills, so the occupancy is exactly each worker's
    // share, min(lane_limit, ceil(n / workers)).
    let compiled = compiled_tiny();
    let images = probe_images(256);
    for (threads, want) in [(2usize, 128.0), (1, 256.0)] {
        let engine =
            InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp).with_threads(threads);
        let (_, stats) = StreamingEngine::new(&engine, 64)
            .with_schedule(ChunkSchedule::fixed(STREAM_LEN))
            .with_policy(ExitPolicy::Disabled)
            .classify_batch_with_stats(&images, BASE_SEED);
        assert_eq!(stats.avg_lanes(), want, "threads={threads}");
    }
    // Three workers over seven images: shares of three, and job i keeps
    // seed image_seed(base, i) whichever worker ran it.
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp).with_threads(3);
    let streaming = StreamingEngine::new(&engine, 64)
        .with_schedule(ChunkSchedule::fixed(STREAM_LEN))
        .with_policy(ExitPolicy::Disabled);
    let images = probe_images(7);
    assert_eq!(streaming.classify_batch(&images, BASE_SEED), scalar_reference(&streaming, &images));
}

#[test]
fn full_run_with_exit_disabled_is_bit_identical_to_one_shot_on_both_platforms() {
    let compiled = compiled_tiny();
    let images = probe_images(3);
    // Chunk lengths exercising word alignment, odd offsets, short final
    // chunks (37·6 = 222, tail 34; 100·2 = 200, tail 56), chunk == N, and
    // chunk > N.
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let engine = InferenceEngine::new(&compiled, STREAM_LEN, platform);
        for chunk_len in [64usize, 37, 100, STREAM_LEN, STREAM_LEN + 11] {
            let streaming = StreamingEngine::new(&engine, chunk_len);
            for (i, image) in images.iter().enumerate() {
                let seed = InferenceEngine::image_seed(BASE_SEED, i);
                let outcome = streaming.classify(image, seed);
                assert_eq!(
                    outcome.scores,
                    engine.scores(image, seed),
                    "{platform:?} chunk {chunk_len} image {i}: scores diverged"
                );
                assert_eq!(outcome.class, engine.classify(image, seed));
                assert_eq!(outcome.cycles, STREAM_LEN);
                assert!(!outcome.early_exit);
                assert_eq!(outcome.chunks, STREAM_LEN.div_ceil(chunk_len.min(STREAM_LEN)));
            }
        }
    }
}

#[test]
fn bit_identity_covers_dense_same_padding_and_even_output_fan_in() {
    // `tiny` is Conv(Valid)+Pool+Output with an odd output fan-in, so this
    // spec deliberately drives the remaining streaming arms: Same padding
    // (out-of-bounds taps read the neutral slice), a Dense layer, and an
    // Output whose fan-in (5 weights + bias = 6) is even — forcing the
    // parity-sensitive neutral pad of the majority chain. The odd N also
    // leaves a short final chunk for every chunk length below.
    let spec = NetworkSpec {
        name: "probe",
        input_side: 6,
        layers: vec![
            LayerSpec::Conv { k: 3, out_c: 2, padding: Padding::Same },
            LayerSpec::AvgPool { k: 2 },
            LayerSpec::Dense { out: 5 },
            LayerSpec::Output { classes: 3 },
        ],
    };
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 23);
    let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
    let image = Tensor::from_vec(
        vec![1, 6, 6],
        (0..36).map(|p| ((p * 5 + 2) % 9) as f32 / 9.0).collect(),
    );
    let n = 193; // odd full length: every tail below is odd-sized too
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let engine = InferenceEngine::new(&compiled, n, platform);
        let want = engine.scores(&image, 31);
        for chunk_len in [64usize, 37, 193] {
            let got = StreamingEngine::new(&engine, chunk_len).classify(&image, 31);
            assert_eq!(
                got.scores, want,
                "{platform:?} chunk {chunk_len}: scores diverged on probe spec"
            );
            assert_eq!(got.cycles, n);
        }
    }
}

#[test]
fn streaming_batch_matches_one_shot_batch_and_is_thread_invariant() {
    let compiled = compiled_tiny();
    let images = probe_images(5);
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    let one_shot = engine.scores_batch(&images, BASE_SEED);
    let outcomes = StreamingEngine::new(&engine, 64).classify_batch(&images, BASE_SEED);
    for (o, s) in outcomes.iter().zip(&one_shot) {
        assert_eq!(&o.scores, s, "batch streaming diverged from one-shot batch");
    }
    // Worker count never changes results.
    let single = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp).with_threads(1);
    let serial = StreamingEngine::new(&single, 64).classify_batch(&images, BASE_SEED);
    assert_eq!(serial, outcomes);
}

#[test]
fn margin_policy_exits_early_and_keeps_the_confident_class() {
    let compiled = compiled_tiny();
    let images = probe_images(16);
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    let fixed = engine.classify_batch(&images, BASE_SEED);
    let streaming = StreamingEngine::new(&engine, 32)
        .with_policy(ExitPolicy::Margin { z: 1.0 });
    let outcomes = streaming.classify_batch(&images, BASE_SEED);
    let saved: usize = outcomes.iter().map(|o| STREAM_LEN - o.cycles).sum();
    assert!(
        outcomes.iter().any(|o| o.early_exit) && saved > 0,
        "a loose margin at z=1 should exit early on some probe image"
    );
    // Early exits must still mostly agree with the fixed-N decision (the
    // margin bound makes a flip a >1-sigma event per image).
    let agree = outcomes.iter().zip(&fixed).filter(|(o, f)| o.class == **f).count();
    assert!(agree * 10 >= images.len() * 7, "only {agree}/{} agree", images.len());
}

#[test]
fn stable_argmax_policy_exits_after_k_stable_chunks() {
    let compiled = compiled_tiny();
    let image = &probe_images(1)[0];
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    let outcome = StreamingEngine::new(&engine, 32)
        .with_policy(ExitPolicy::StableArgmax { k: 1 })
        .classify(image, 7);
    // k = 1 exits at the first policy check (after the second chunk starts
    // being unnecessary), so exactly one chunk-check boundary is consumed.
    assert!(outcome.early_exit);
    assert_eq!(outcome.cycles, 32);
    // A k larger than the chunk count can never fire.
    let never = StreamingEngine::new(&engine, 32)
        .with_policy(ExitPolicy::StableArgmax { k: 100 })
        .classify(image, 7);
    assert!(!never.early_exit);
    assert_eq!(never.cycles, STREAM_LEN);
}

#[test]
fn min_cycles_floor_delays_exit() {
    let compiled = compiled_tiny();
    let image = &probe_images(1)[0];
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    let eager = StreamingEngine::new(&engine, 32)
        .with_policy(ExitPolicy::StableArgmax { k: 1 })
        .classify(image, 9);
    let floored = StreamingEngine::new(&engine, 32)
        .with_policy(ExitPolicy::StableArgmax { k: 1 })
        .with_min_cycles(128)
        .classify(image, 9);
    assert!(eager.cycles <= floored.cycles);
    assert!(floored.cycles >= 128);
}

#[test]
fn evaluate_reports_cycle_statistics_and_rejects_empty_sets() {
    let compiled = compiled_tiny();
    let images = probe_images(4);
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    let streaming = StreamingEngine::new(&engine, 64);
    assert!(streaming.evaluate(&[], BASE_SEED).is_none());
    let preds = engine.classify_batch(&images, BASE_SEED);
    let samples: Vec<(Tensor, usize)> = images
        .iter()
        .zip(&preds)
        .map(|(img, &p)| (img.clone(), p))
        .collect();
    let eval = streaming.evaluate(&samples, BASE_SEED).expect("non-empty");
    // Labels are the fixed-N predictions and the policy is disabled, so
    // the streamed accuracy is exactly 1 and every cycle is consumed.
    assert_eq!(eval.accuracy, 1.0);
    assert_eq!(eval.avg_cycles, STREAM_LEN as f64);
    assert_eq!(eval.early_exit_fraction, 0.0);
    assert_eq!(eval.cycle_savings(STREAM_LEN), 0.0);
}
