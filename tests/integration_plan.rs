//! Plan-level invariants of the unified execution core: an arbitrary chunk
//! partition of the N-cycle budget through [`ExecPlan::advance`] is
//! bit-identical to a single N-cycle chunk, on both platforms, including
//! odd offsets and short final chunks; state rebinding reuses arenas
//! without leaking bits between images; chunk schedules never change bits
//! with the exit policy disabled.

use std::sync::OnceLock;

use aqfp_sc_dnn::network::{
    build_model, ActivationStyle, ChunkSchedule, CompiledNetwork, ExecPlan, ExecState,
    InferenceEngine, LayerSpec, NetworkSpec, Platform, StreamingEngine, StripeArenas,
};
use aqfp_sc_dnn::nn::{Padding, Tensor};
use proptest::prelude::*;

/// An untrained tiny network is enough for bit-exactness checks; the probe
/// spec additionally drives Same padding, a Dense layer, and an even
/// output fan-in (the parity-sensitive majority-chain pad).
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

fn probe_image(variant: usize) -> Tensor {
    Tensor::from_vec(
        vec![1, 6, 6],
        (0..36).map(|p| ((p * 5 + 2 + variant) % 9) as f32 / 9.0).collect(),
    )
}

/// Scores after driving `plan` over `image` with the given chunk
/// partition (whose sum must equal the plan's stream length).
fn scores_partitioned(
    plan: &ExecPlan,
    image: &Tensor,
    seed: u64,
    partition: &[usize],
) -> Vec<f64> {
    let mut state = plan.new_state();
    plan.begin(&mut state, image, seed);
    for &chunk in partition {
        let got = plan.advance(&mut state, chunk);
        assert_eq!(got, chunk, "advance consumed a clamped chunk mid-run");
    }
    assert_eq!(state.cycles(), plan.stream_len());
    assert_eq!(plan.advance(&mut state, 1), 0, "budget must be exhausted");
    plan.scores(&state)
}

proptest! {
    // Each case compiles no models (the network is shared) but simulates
    // ~2·N cycles per platform; a moderate case count keeps the suite
    // fast while the partition space (lengths 1..64, up to 8 chunks,
    // odd/even N and tails) is still densely sampled.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_partition_of_n_is_bit_identical_to_one_chunk(
        partition in prop::collection::vec(1usize..64, 1..8),
        variant in 0usize..4,
        seed in 0u64..1000,
    ) {
        // N is the partition sum, so every generated partition is exact —
        // single-cycle chunks, odd offsets, and odd N all occur naturally.
        let n: usize = partition.iter().sum();
        let compiled = compiled_probe();
        let image = probe_image(variant);
        for platform in [Platform::Aqfp, Platform::Cmos] {
            let plan = ExecPlan::new(compiled, n, platform);
            let whole = scores_partitioned(&plan, &image, seed, &[n]);
            let chunked = scores_partitioned(&plan, &image, seed, &partition);
            prop_assert_eq!(
                &chunked, &whole,
                "{:?}: partition {:?} of N={} diverged", platform, &partition, n
            );
        }
    }

    #[test]
    fn batch_transposed_advance_is_bit_identical_to_scalar(
        partition in prop::collection::vec(1usize..64, 1..6),
        count in 1usize..6,
        seed in 0u64..1000,
    ) {
        // advance_batch_striped packs the same cycle of every image into one word;
        // it must reproduce the scalar per-image path bit for bit over any
        // chunk partition (odd offsets, short tails) on both platforms.
        let n: usize = partition.iter().sum();
        let compiled = compiled_probe();
        let images: Vec<Tensor> = (0..count).map(|g| probe_image(g % 4)).collect();
        for platform in [Platform::Aqfp, Platform::Cmos] {
            let plan = ExecPlan::new(compiled, n, platform);
            let want: Vec<Vec<f64>> = images
                .iter()
                .enumerate()
                .map(|(g, img)| {
                    let mut st = plan.new_state();
                    plan.run_one_shot(&mut st, img, seed + g as u64)
                })
                .collect();
            let mut states: Vec<_> = images.iter().map(|_| plan.new_state()).collect();
            for (g, (st, img)) in states.iter_mut().zip(&images).enumerate() {
                plan.begin(st, img, seed + g as u64);
            }
            let mut arenas = StripeArenas::default();
            let mut group: Vec<&mut ExecState> = states.iter_mut().collect();
            for &chunk in &partition {
                prop_assert_eq!(plan.advance_batch_striped(&mut group, chunk, &mut arenas), chunk);
            }
            prop_assert_eq!(plan.advance_batch_striped(&mut group, 1, &mut arenas), 0);
            let got: Vec<Vec<f64>> = states.iter().map(|st| plan.scores(st)).collect();
            prop_assert_eq!(&got, &want, "{:?}: lane path diverged (N={})", platform, n);
        }
    }

    #[test]
    fn mixed_offset_lane_groups_match_scalar(
        offsets in prop::collection::vec(0usize..80, 2..9),
        step in 1usize..40,
        seed in 0u64..1000,
    ) {
        // After retire-and-refill, lanes sharing a machine word sit at
        // different absolute cycles, so advance_batch_striped must gather each
        // lane's own weight/bias/neutral window instead of broadcasting
        // one slice. Stagger lanes via the scalar path, drive the mixed
        // group in batch steps until the earliest-finishing lane drains
        // the shared budget, then finish stragglers scalar — every lane
        // must still match its one-shot reference bit for bit.
        let n = 97usize;
        let compiled = compiled_probe();
        for platform in [Platform::Aqfp, Platform::Cmos] {
            let plan = ExecPlan::new(compiled, n, platform);
            let want: Vec<Vec<f64>> = offsets
                .iter()
                .enumerate()
                .map(|(g, _)| {
                    let mut st = plan.new_state();
                    plan.run_one_shot(&mut st, &probe_image(g % 4), seed + g as u64)
                })
                .collect();
            let mut states: Vec<_> = offsets.iter().map(|_| plan.new_state()).collect();
            for (g, st) in states.iter_mut().enumerate() {
                plan.begin(st, &probe_image(g % 4), seed + g as u64);
                plan.advance(st, offsets[g].min(n));
            }
            let mut arenas = StripeArenas::default();
            let mut group: Vec<&mut ExecState> = states.iter_mut().collect();
            while plan.advance_batch_striped(&mut group, step, &mut arenas) > 0 {}
            for st in states.iter_mut() {
                plan.advance(st, n);
            }
            let got: Vec<Vec<f64>> = states.iter().map(|st| plan.scores(st)).collect();
            prop_assert_eq!(
                &got, &want,
                "{:?}: mixed-offset group diverged (offsets {:?}, step {})",
                platform, &offsets, step
            );
        }
    }

    #[test]
    fn oversized_and_zero_advances_are_clamped_not_drifting(
        head in 1usize..96,
        variant in 0usize..4,
    ) {
        // advance() clamps to the remaining budget and no-ops at 0, so a
        // sloppy driver cannot change bits.
        let n = 97usize; // prime: head never divides it evenly
        let compiled = compiled_probe();
        let image = probe_image(variant);
        for platform in [Platform::Aqfp, Platform::Cmos] {
            let plan = ExecPlan::new(compiled, n, platform);
            let whole = scores_partitioned(&plan, &image, 5, &[n]);
            let mut state = plan.new_state();
            plan.begin(&mut state, &image, 5);
            prop_assert_eq!(plan.advance(&mut state, head.min(n)), head.min(n));
            // Ask for far more than remains: must clamp exactly to the tail.
            prop_assert_eq!(plan.advance(&mut state, n * 10), n - head.min(n));
            prop_assert_eq!(plan.advance(&mut state, n * 10), 0);
            prop_assert_eq!(&plan.scores(&state), &whole, "{:?}", platform);
        }
    }
}

#[test]
fn full_64_lane_group_matches_scalar_on_both_platforms() {
    // All 64 lanes of the machine word occupied at once: garbage in unused
    // lanes cannot exist here, but cross-lane contamination would. Odd N
    // forces a ragged (non-multiple-of-64) cycle tail in every lane kernel.
    let compiled = compiled_probe();
    let n = 193;
    let images: Vec<Tensor> = (0..64).map(|g| probe_image(g % 4)).collect();
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let plan = ExecPlan::new(compiled, n, platform);
        let mut states: Vec<_> = images.iter().map(|_| plan.new_state()).collect();
        for (g, (st, img)) in states.iter_mut().zip(&images).enumerate() {
            plan.begin(st, img, 900 + g as u64);
        }
        let mut arenas = StripeArenas::default();
        let mut group: Vec<&mut ExecState> = states.iter_mut().collect();
        while plan.advance_batch_striped(&mut group, n, &mut arenas) > 0 {}
        for (g, (st, img)) in states.iter().zip(&images).enumerate() {
            let mut scalar = plan.new_state();
            let want = plan.run_one_shot(&mut scalar, img, 900 + g as u64);
            assert_eq!(plan.scores(st), want, "{platform:?} lane {g} diverged");
        }
    }
}

/// The paper's SNN (conv2 at 289 rows, dense at 801 and 501), untrained:
/// the only network here whose kernels take the wide slab-compressor
/// path at paper scale.
fn compiled_snn() -> &'static CompiledNetwork {
    static COMPILED: OnceLock<CompiledNetwork> = OnceLock::new();
    COMPILED.get_or_init(|| {
        let spec = NetworkSpec::snn();
        let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 2019);
        CompiledNetwork::from_model(&spec, &mut model, 8)
    })
}

fn snn_image(variant: usize) -> Tensor {
    Tensor::from_vec(
        vec![1, 28, 28],
        (0..784).map(|p| ((p * 7 + 3 * variant) % 17) as f32 / 17.0).collect(),
    )
}

#[test]
fn paper_snn_lane_groups_match_scalar_on_both_platforms() {
    // 65 images make one W = 2 group with a ragged stripe (65 of 128
    // lanes). Each group runs in 16-cycle chunks, first at uniform
    // offsets, then with every other lane one chunk ahead (the
    // mixed-offset gathers); either way each lane must match its scalar
    // one-shot scores bit for bit. Only the reference runs scalar.
    let compiled = compiled_snn();
    let n = 32;
    let images: Vec<Tensor> = (0..65).map(snn_image).collect();
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let plan = ExecPlan::new(compiled, n, platform);
        let want: Vec<Vec<f64>> = images
            .iter()
            .enumerate()
            .map(|(g, img)| plan.run_one_shot(&mut plan.new_state(), img, 500 + g as u64))
            .collect();
        for staggered in [false, true] {
            let mut arenas = StripeArenas::default();
            let mut states: Vec<ExecState> = images.iter().map(|_| plan.new_state()).collect();
            for (g, (st, img)) in states.iter_mut().zip(&images).enumerate() {
                plan.begin(st, img, 500 + g as u64);
            }
            if staggered {
                // The odd lanes run one chunk ahead as their own group.
                let mut ahead: Vec<&mut ExecState> =
                    states.iter_mut().skip(1).step_by(2).collect();
                plan.advance_batch_striped(&mut ahead, 16, &mut arenas);
            }
            let mut group: Vec<&mut ExecState> = states.iter_mut().collect();
            while plan.advance_batch_striped(&mut group, 16, &mut arenas) > 0 {}
            // Lanes left behind by the mixed group finish as one group.
            let mut behind: Vec<&mut ExecState> =
                states.iter_mut().filter(|st| st.cycles() < n).collect();
            if !behind.is_empty() {
                while plan.advance_batch_striped(&mut behind, 16, &mut arenas) > 0 {}
            }
            for (g, st) in states.iter().enumerate() {
                assert_eq!(st.cycles(), n, "{platform:?} lane {g} stopped early");
                assert_eq!(
                    plan.scores(st),
                    want[g],
                    "{platform:?} lane {g} diverged (staggered: {staggered})"
                );
            }
        }
    }
}

#[test]
fn paper_scale_spatial_layouts_match_one_shot_and_lanes_at_unaligned_offsets() {
    // The scalar core runs conv and AQFP pool layers with one output
    // channel's positions in the lanes. The paper's networks cover each
    // layout it meets: on the SNN, conv1's 676 positions (three W = 4
    // groups, the last ragged), pool1's 169 (W = 4), conv2's 121 (W = 2)
    // and pool2's 25 (W = 1); on the DNN, 784-position `Same` convs whose
    // edge lanes hold the neutral pad, and the 7×7 valid conv down to one
    // position, which runs one neuron at a time instead. The scalar core
    // runs in 37-cycle chunks, so every chunk after the first starts at an
    // unaligned offset, and must match its one-shot scores and a 2-lane
    // group run the same way, bit for bit.
    let dnn = {
        let spec = NetworkSpec::dnn();
        let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 2019);
        CompiledNetwork::from_model(&spec, &mut model, 8)
    };
    let (n, chunk) = (64, 37);
    for (name, compiled) in [("SNN", compiled_snn()), ("DNN", &dnn)] {
        for platform in [Platform::Aqfp, Platform::Cmos] {
            let plan = ExecPlan::new(compiled, n, platform);
            let images = [snn_image(1), snn_image(2)];
            let seed = |g: usize| 3_700 + g as u64;
            let mut states: Vec<ExecState> = images.iter().map(|_| plan.new_state()).collect();
            for (g, (st, img)) in states.iter_mut().zip(&images).enumerate() {
                let want = plan.run_one_shot(&mut plan.new_state(), img, seed(g));
                plan.begin(st, img, seed(g));
                while plan.advance(st, chunk) > 0 {}
                assert_eq!(plan.scores(st), want, "{name} {platform:?} image {g}: chunked");
            }
            let want: Vec<Vec<f64>> = states.iter().map(|st| plan.scores(st)).collect();
            for (g, (st, img)) in states.iter_mut().zip(&images).enumerate() {
                plan.begin(st, img, seed(g));
            }
            let mut arenas = StripeArenas::default();
            let mut group: Vec<&mut ExecState> = states.iter_mut().collect();
            while plan.advance_batch_striped(&mut group, chunk, &mut arenas) > 0 {}
            for (g, st) in states.iter().enumerate() {
                assert_eq!(plan.scores(st), want[g], "{name} {platform:?} lane {g}");
            }
        }
    }
}

#[test]
fn seventeen_offset_classes_in_a_full_w4_group_match_scalar_on_both_platforms() {
    // 256 lanes of the tiny net in one W = 4 group, lane g sitting g % 17
    // chunks ahead: 17 offset classes, none word-aligned past the first
    // (7-cycle chunks), spread over every stripe element. The group and
    // then the lanes it leaves behind advance in mixed-offset groups until
    // every lane reaches N; each lane must match its scalar one-shot
    // scores bit for bit.
    let spec = NetworkSpec::tiny(8);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 17);
    let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
    let (n, chunk, lanes) = (193, 7, 256);
    let image = |g: usize| {
        Tensor::from_vec(
            vec![1, 8, 8],
            (0..64).map(|p| ((p * 3 + g * 5) % 11) as f32 / 11.0).collect(),
        )
    };
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let plan = ExecPlan::new(&compiled, n, platform);
        let mut states: Vec<ExecState> = (0..lanes).map(|_| plan.new_state()).collect();
        for (g, st) in states.iter_mut().enumerate() {
            plan.begin(st, &image(g), 7_000 + g as u64);
            plan.advance(st, (g % 17) * chunk);
        }
        let mut offsets: Vec<usize> = states.iter().map(ExecState::cycles).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), 17, "one offset class per stagger");
        let mut arenas = StripeArenas::default();
        let mut group: Vec<&mut ExecState> = states.iter_mut().collect();
        while plan.advance_batch_striped(&mut group, chunk, &mut arenas) > 0 {}
        loop {
            let mut behind: Vec<&mut ExecState> =
                states.iter_mut().filter(|st| st.cycles() < n).collect();
            if behind.is_empty() {
                break;
            }
            while plan.advance_batch_striped(&mut behind, chunk, &mut arenas) > 0 {}
        }
        for (g, st) in states.iter().enumerate() {
            let want = plan.run_one_shot(&mut plan.new_state(), &image(g), 7_000 + g as u64);
            assert_eq!(plan.scores(st), want, "{platform:?} lane {g} diverged");
        }
    }
}

#[test]
fn output_head_tiling_edges_in_one_w4_group_match_one_shot_on_both_platforms() {
    // Every tiling edge of the output head's transposed blocks in one
    // group: 200 lanes (W = 4, the last 64-lane element holding 8), two
    // offset classes at 13 and 37 cycles (neither word-aligned, mixed
    // within every element), and 150-cycle chunks spanning three 64-cycle
    // words with a ragged last one. The probe net's even output fan-in +
    // bias puts the AQFP majority chain's neutral pad in every lane. Each
    // lane must match its one-shot scores bit for bit.
    let compiled = compiled_probe();
    let (n, chunk, lanes) = (350, 150, 200);
    let ahead = |g: usize| if g.is_multiple_of(3) { 37 } else { 13 };
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let plan = ExecPlan::new(compiled, n, platform);
        let mut states: Vec<ExecState> = (0..lanes).map(|_| plan.new_state()).collect();
        for (g, st) in states.iter_mut().enumerate() {
            plan.begin(st, &probe_image(g % 5), 4_000 + g as u64);
            plan.advance(st, ahead(g));
        }
        let mut arenas = StripeArenas::default();
        let mut group: Vec<&mut ExecState> = states.iter_mut().collect();
        assert_eq!(plan.advance_batch_striped(&mut group, chunk, &mut arenas), chunk);
        while plan.advance_batch_striped(&mut group, chunk, &mut arenas) > 0 {}
        loop {
            let mut behind: Vec<&mut ExecState> =
                states.iter_mut().filter(|st| st.cycles() < n).collect();
            if behind.is_empty() {
                break;
            }
            while plan.advance_batch_striped(&mut behind, chunk, &mut arenas) > 0 {}
        }
        for (g, st) in states.iter().enumerate() {
            let want =
                plan.run_one_shot(&mut plan.new_state(), &probe_image(g % 5), 4_000 + g as u64);
            assert_eq!(plan.scores(st), want, "{platform:?} lane {g} diverged");
        }
    }
}

#[test]
fn rebinding_a_state_reuses_the_arena_without_leaking_bits() {
    // One state driven image A → image B → image A again must reproduce a
    // fresh state's results exactly — the in-place begin() reset may keep
    // allocations but no cross-image state.
    let compiled = compiled_probe();
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let plan = ExecPlan::new(compiled, 193, platform);
        let fresh: Vec<Vec<f64>> = (0..2)
            .map(|v| {
                let mut state = plan.new_state();
                plan.begin(&mut state, &probe_image(v), 11 + v as u64);
                plan.advance(&mut state, 193);
                plan.scores(&state)
            })
            .collect();
        let mut reused = plan.new_state();
        for round in 0..2 {
            for (v, want) in fresh.iter().enumerate() {
                plan.begin(&mut reused, &probe_image(v), 11 + v as u64);
                // Chunked on the reused state, one-shot on the fresh ones:
                // partitioning must not matter either.
                while plan.advance(&mut reused, 37) > 0 {}
                assert_eq!(
                    &plan.scores(&reused),
                    want,
                    "{platform:?} round {round} image {v}: reused state leaked bits"
                );
            }
        }
    }
    // One state rebound AQFP → CMOS → AQFP over the same network: every
    // conv and dense slot keeps its length across the two plans, so only
    // begin's in-place reset turns the sorter residuals into mid-range
    // Btanh counters and back.
    let plans = [Platform::Aqfp, Platform::Cmos].map(|p| ExecPlan::new(compiled, 193, p));
    let fresh = plans.each_ref().map(|plan| {
        let mut state = plan.new_state();
        plan.begin(&mut state, &probe_image(1), 12);
        plan.advance(&mut state, 193);
        plan.scores(&state)
    });
    let mut reused = plans[0].new_state();
    for (step, which) in [0, 1, 0].into_iter().enumerate() {
        let plan = &plans[which];
        plan.begin(&mut reused, &probe_image(1), 12);
        while plan.advance(&mut reused, 37) > 0 {}
        assert_eq!(
            plan.scores(&reused),
            fresh[which],
            "step {step}: {:?} state leaked bits from another platform's plan",
            plan.platform()
        );
    }
}

#[test]
fn any_chunk_schedule_with_policy_disabled_matches_one_shot() {
    let compiled = compiled_probe();
    let image = probe_image(1);
    let n = 193; // odd: every schedule below ends on a short, odd tail
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let engine = InferenceEngine::new(compiled, n, platform);
        let want = engine.scores(&image, 31);
        for schedule in [
            ChunkSchedule::fixed(64),
            ChunkSchedule::fixed(1),
            ChunkSchedule::geometric(8, 2.0, 64),
            ChunkSchedule::geometric(1, 1.5, 1000),
            ChunkSchedule::geometric(16, 1.0, 16), // degenerate: fixed at 16
        ] {
            let outcome = StreamingEngine::new(&engine, 64)
                .with_schedule(schedule)
                .classify(&image, 31);
            assert_eq!(
                outcome.scores, want,
                "{platform:?} {schedule:?}: schedule changed bits"
            );
            assert_eq!(outcome.cycles, n);
            assert!(!outcome.early_exit);
        }
    }
}

#[test]
#[should_panic(expected = "not bound to this plan")]
fn advancing_a_state_bound_to_a_different_plan_panics() {
    // Same network, same depth — only the stream length differs. The
    // fingerprint check must refuse rather than silently mix cursors from
    // one plan with cached streams from another.
    let compiled = compiled_probe();
    let plan_a = ExecPlan::new(compiled, 128, Platform::Aqfp);
    let plan_b = ExecPlan::new(compiled, 256, Platform::Aqfp);
    let mut state = plan_a.new_state();
    plan_a.begin(&mut state, &probe_image(0), 1);
    plan_b.advance(&mut state, 64);
}

#[test]
#[should_panic(expected = "not bound to this plan")]
fn advancing_a_state_bound_to_a_stream_seed_twin_panics() {
    // Regression: two plans compiled from the same spec that differ ONLY
    // in `with_stream_seed` cache bit-different weight streams, yet agree
    // on every structural count (platform, stream length, layer count,
    // cached streams, pixels). The old structural PlanFingerprint called
    // them identical, so a bound state could silently be advanced by the
    // twin — mixing its cursors with foreign weights. The content
    // fingerprint must refuse.
    let compiled = compiled_probe();
    let twin = compiled.clone().with_stream_seed(compiled.stream_seed() ^ 0xDEAD);
    let plan_a = ExecPlan::new(compiled, 128, Platform::Aqfp);
    let plan_b = ExecPlan::new(&twin, 128, Platform::Aqfp);
    let mut state = plan_a.new_state();
    plan_a.begin(&mut state, &probe_image(0), 1);
    plan_b.advance(&mut state, 64);
}

#[test]
#[should_panic(expected = "not bound to this plan")]
fn advancing_a_state_bound_to_a_quantisation_twin_panics() {
    // Same spec and model, different comparator resolution: the 7-bit
    // twin's levels (and thus streams) differ while every structural
    // count still matches. Must refuse for the same reason as above.
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
    let eight = CompiledNetwork::from_model(&spec, &mut model, 8);
    let seven = CompiledNetwork::from_model(&spec, &mut model, 7);
    let plan_a = ExecPlan::new(&eight, 128, Platform::Aqfp);
    let plan_b = ExecPlan::new(&seven, 128, Platform::Aqfp);
    let mut state = plan_a.new_state();
    plan_a.begin(&mut state, &probe_image(0), 1);
    plan_b.advance(&mut state, 64);
}

#[test]
fn cycle_savings_guards_a_zero_cycle_budget() {
    use aqfp_sc_dnn::network::StreamingEvaluation;
    let eval = StreamingEvaluation {
        accuracy: 1.0,
        avg_cycles: 0.0,
        early_exit_fraction: 0.0,
    };
    // n == 0 has nothing to save; must be 0.0, not NaN/±inf.
    assert_eq!(eval.cycle_savings(0), 0.0);
    assert_eq!(eval.cycle_savings(128), 1.0);
}

#[test]
fn geometric_schedule_grows_and_caps() {
    let s = ChunkSchedule::geometric(8, 2.0, 100);
    assert_eq!(s.len_at(0), 8);
    assert_eq!(s.len_at(1), 16);
    assert_eq!(s.len_at(2), 32);
    assert_eq!(s.len_at(3), 64);
    assert_eq!(s.len_at(4), 100); // 128 capped
    assert_eq!(s.len_at(60), 100); // f64 overflow saturates onto the cap
    let f = ChunkSchedule::fixed(7);
    assert_eq!(f.len_at(0), 7);
    assert_eq!(f.len_at(99), 7);
}

#[test]
fn geometric_schedule_consumes_fewer_chunks_than_fixed_at_same_first_len() {
    let compiled = compiled_probe();
    let image = probe_image(2);
    let engine = InferenceEngine::new(compiled, 256, Platform::Aqfp);
    let fixed = StreamingEngine::new(&engine, 8).classify(&image, 3);
    let geometric = StreamingEngine::new(&engine, 8)
        .with_schedule(ChunkSchedule::geometric(8, 2.0, 128))
        .classify(&image, 3);
    assert_eq!(fixed.scores, geometric.scores, "schedules must not change bits");
    assert_eq!(fixed.chunks, 32);
    assert!(
        geometric.chunks < fixed.chunks,
        "geometric growth should reach N in fewer chunks ({} vs {})",
        geometric.chunks,
        fixed.chunks
    );
}
