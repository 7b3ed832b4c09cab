//! Cross-crate integration of the batched inference engine: bit-exact
//! equivalence with the serial path, purity of the weight-stream cache,
//! and thread-count invariance.

use aqfp_sc_dnn::network::{
    build_model, ActivationStyle, CompiledNetwork, InferenceEngine, NetworkSpec, Platform,
};
use aqfp_sc_dnn::nn::Tensor;

const STREAM_LEN: usize = 256;
const BASE_SEED: u64 = 0xBA7C_5EED;

fn compiled_tiny() -> CompiledNetwork {
    let spec = NetworkSpec::tiny(8);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 17);
    CompiledNetwork::from_model(&spec, &mut model, 8)
}

/// Deterministic, mutually distinct probe images (no training needed for
/// bit-exactness checks).
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

#[test]
fn classify_batch_equals_serial_classify_bit_for_bit_on_both_platforms() {
    let compiled = compiled_tiny();
    let images = probe_images(6);
    for (platform, cmos) in [(Platform::Aqfp, false), (Platform::Cmos, true)] {
        let engine = InferenceEngine::new(&compiled, STREAM_LEN, platform);
        let batch = engine.classify_batch(&images, BASE_SEED);
        let batch_scores = engine.scores_batch(&images, BASE_SEED);
        for (i, image) in images.iter().enumerate() {
            let seed = InferenceEngine::image_seed(BASE_SEED, i);
            let serial = if cmos {
                compiled.classify_cmos(image, STREAM_LEN, seed)
            } else {
                compiled.classify_aqfp(image, STREAM_LEN, seed)
            };
            assert_eq!(batch[i], serial, "{platform:?} image {i}: class diverged");
            // Scores must match exactly too (identical bit streams ⇒
            // identical floating-point reductions), checked on the AQFP
            // path where the serial scores API exists.
            if !cmos {
                assert_eq!(
                    batch_scores[i],
                    compiled.scores_aqfp(image, STREAM_LEN, seed),
                    "AQFP image {i}: scores diverged"
                );
            }
        }
    }
}

#[test]
fn weight_stream_cache_is_pure_across_reuse_and_reconstruction() {
    let compiled = compiled_tiny();
    let image = &probe_images(1)[0];
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    // Reusing one engine (and its cache) must be stateless per call…
    let first = engine.scores(image, 99);
    let again = engine.scores(image, 99);
    assert_eq!(first, again, "engine reuse leaked state between calls");
    // …and identical to a freshly constructed engine's cache.
    let fresh = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    assert_eq!(first, fresh.scores(image, 99), "cache differs across constructions");
    // And caching must not change the public serial API's output.
    assert_eq!(
        first,
        compiled.scores_aqfp(image, STREAM_LEN, 99),
        "cached engine diverged from scores_aqfp"
    );
}

#[test]
fn worker_count_does_not_change_results() {
    let compiled = compiled_tiny();
    let images = probe_images(7);
    let single = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp)
        .with_threads(1)
        .scores_batch(&images, BASE_SEED);
    for threads in [2, 3, 8] {
        let multi = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp)
            .with_threads(threads)
            .scores_batch(&images, BASE_SEED);
        assert_eq!(single, multi, "results changed with {threads} workers");
    }
}

#[test]
fn different_stream_seeds_change_cached_weight_streams() {
    let spec = NetworkSpec::tiny(8);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 17);
    let a = CompiledNetwork::from_model(&spec, &mut model, 8);
    let b = a.clone().with_stream_seed(a.stream_seed() ^ 0xF00D);
    let image = &probe_images(1)[0];
    let sa = InferenceEngine::new(&a, STREAM_LEN, Platform::Aqfp).scores(image, 7);
    let sb = InferenceEngine::new(&b, STREAM_LEN, Platform::Aqfp).scores(image, 7);
    assert_ne!(sa, sb, "stream seed must reach the weight streams");
}

#[test]
fn batch_evaluate_matches_manual_accuracy() {
    let compiled = compiled_tiny();
    let images = probe_images(5);
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    let preds = engine.classify_batch(&images, BASE_SEED);
    // Label half the images with their prediction, half wrong, and check
    // the reported accuracy fraction.
    let samples: Vec<(Tensor, usize)> = images
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let label = if i % 2 == 0 { preds[i] } else { (preds[i] + 1) % 10 };
            (img.clone(), label)
        })
        .collect();
    let want = samples
        .iter()
        .enumerate()
        .filter(|(i, (_, label))| preds[*i] == *label)
        .count() as f64
        / samples.len() as f64;
    assert_eq!(engine.evaluate(&samples, BASE_SEED), Some(want));
}

#[test]
fn empty_batch_is_fine_and_has_no_accuracy() {
    let compiled = compiled_tiny();
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    assert!(engine.classify_batch(&[], BASE_SEED).is_empty());
    // An empty set has no accuracy — `None`, not a 0.0 that would read as
    // a 0 %-accurate model.
    assert_eq!(engine.evaluate(&[], BASE_SEED), None);
}

#[test]
fn batches_crossing_the_lane_threshold_match_per_image_scores() {
    // 70 images on one worker: the first 64 run through the batch-transposed
    // lane kernels, then retire together at full N and the scheduler refills
    // the remaining 6 — a group below the lane break-even, so it finishes on
    // the scalar fallback. Both must agree bit for bit with one-image
    // batches (which never engage lane mode).
    let compiled = compiled_tiny();
    let images = probe_images(70);
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let engine =
            InferenceEngine::new(&compiled, STREAM_LEN, platform).with_threads(1);
        let batch = engine.scores_batch(&images, BASE_SEED);
        for (i, image) in images.iter().enumerate() {
            let seed = InferenceEngine::image_seed(BASE_SEED, i);
            assert_eq!(
                batch[i],
                engine.scores(image, seed),
                "{platform:?} image {i}: lane-threshold batch diverged"
            );
        }
    }
}

#[test]
#[should_panic(expected = "stream length must be at least 1 cycle")]
fn zero_length_stream_is_rejected_at_construction() {
    let _ = InferenceEngine::new(&compiled_tiny(), 0, Platform::Aqfp);
}
