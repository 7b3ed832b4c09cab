//! `streaming_inference`: chunked early-exit streaming against the
//! fixed-N one-shot engine, on a briefly trained tiny network (so class
//! margins exist and the margin policy has something to exit on).
//!
//! Three rungs per batch: the one-shot engine (baseline), streaming driven
//! to full N with the exit policy disabled (pure chunking overhead — also
//! the bit-identity configuration), and streaming with the margin policy
//! (the early-exit payoff). Two more rungs time one lane-group step of
//! the paper's SNN, at one offset class and at two, and four time one lone
//! SNN or DNN image through the scalar core on each platform.
//! `BENCH_JSON=BENCH_streaming.json cargo bench --bench streaming`
//! refreshes the committed baseline.

use aqfp_sc_data::synthetic_digits;
use aqfp_sc_network::{
    build_model, ActivationStyle, CompiledNetwork, ExecPlan, ExecState, ExitPolicy,
    InferenceEngine, NetworkSpec, Platform, StreamingEngine, StreamingOutcome, StripeArenas,
};
use aqfp_sc_nn::Tensor;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::cell::RefCell;
use std::hint::black_box;

const STREAM_LEN: usize = 512;
const CHUNK: usize = 64;
const SEED: u64 = 0x15CA_2019;
/// The SNN step rungs: stream length, chunk and lane-group size of the
/// streaming workload on the paper's network.
const SNN_LEN: usize = 256;
const SNN_CHUNK: usize = 32;
const SNN_LANES: usize = 64;

fn trained_tiny() -> CompiledNetwork {
    let spec = NetworkSpec::tiny(8);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 5);
    let train: Vec<(Tensor, usize)> = synthetic_digits(240, 9)
        .iter()
        .map(|(img, l)| {
            let mut small = Tensor::zeros(vec![1, 8, 8]);
            for y in 0..8 {
                for x in 0..8 {
                    small.data_mut()[y * 8 + x] = img.at3(0, 2 + y * 3, 2 + x * 3);
                }
            }
            (small, *l)
        })
        .collect();
    for _ in 0..12 {
        model.train_epoch(&train, 0.05, 0.9, 16);
    }
    CompiledNetwork::from_model(&spec, &mut model, 8)
}

fn images(n: usize) -> Vec<Tensor> {
    synthetic_digits(n, 77)
        .iter()
        .map(|(img, _)| {
            let mut small = Tensor::zeros(vec![1, 8, 8]);
            for y in 0..8 {
                for x in 0..8 {
                    small.data_mut()[y * 8 + x] = img.at3(0, 2 + y * 3, 2 + x * 3);
                }
            }
            small
        })
        .collect()
}

/// The scalar reference: one image at a time through the scalar chunk loop
/// on the calling thread, at the batch APIs' per-image seeds.
fn scalar_batch(streaming: &StreamingEngine<'_>, imgs: &[Tensor]) -> Vec<StreamingOutcome> {
    imgs.iter()
        .enumerate()
        .map(|(i, x)| streaming.classify(x, InferenceEngine::image_seed(SEED, i)))
        .collect()
}

fn bench_streaming_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_inference");
    group.sample_size(10);
    let compiled = trained_tiny();
    let engine = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp);
    for batch in [8usize, 32] {
        let imgs = images(batch);
        group.bench_with_input(BenchmarkId::new("fixed_n", batch), &imgs, |b, imgs| {
            b.iter(|| black_box(engine.classify_batch(imgs, SEED)))
        });
        group.bench_with_input(
            BenchmarkId::new("streaming_full_n", batch),
            &imgs,
            |b, imgs| {
                let streaming = StreamingEngine::new(&engine, CHUNK);
                b.iter(|| black_box(streaming.classify_batch(imgs, SEED)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streaming_margin", batch),
            &imgs,
            |b, imgs| {
                let streaming = StreamingEngine::new(&engine, CHUNK)
                    .with_policy(ExitPolicy::Margin { z: 2.5 })
                    .with_min_cycles(CHUNK);
                b.iter(|| black_box(streaming.classify_batch(imgs, SEED)))
            },
        );
    }
    // The lane-group headline: the scalar chunk loop vs batch-transposed
    // streaming on a single worker (threads pinned to 1 so the ratio
    // isolates the lane path instead of worker-count fragmentation),
    // margin policy on the fixed-64 schedule, and on the CMOS baseline at
    // full stripe occupancy (256 images = one W=4 lane group: APC
    // counting and lane-parallel mux pooling). CI gates batched/32
    // normalised by scalar/32 and cmos_batched/256 normalised by
    // cmos_scalar/256.
    for (platform, batch, scalar_name, batched_name) in [
        (Platform::Aqfp, 32usize, "scalar", "batched"),
        (Platform::Cmos, 256, "cmos_scalar", "cmos_batched"),
    ] {
        let single = InferenceEngine::new(&compiled, STREAM_LEN, platform).with_threads(1);
        let streaming = StreamingEngine::new(&single, CHUNK)
            .with_policy(ExitPolicy::Margin { z: 2.5 })
            .with_min_cycles(CHUNK);
        let imgs = images(batch);
        group.bench_with_input(BenchmarkId::new(scalar_name, batch), &imgs, |b, imgs| {
            b.iter(|| black_box(scalar_batch(&streaming, imgs)))
        });
        group.bench_with_input(BenchmarkId::new(batched_name, batch), &imgs, |b, imgs| {
            b.iter(|| black_box(streaming.classify_batch(imgs, SEED)))
        });
    }
    // One 32-cycle step of a 64-lane CMOS group of the paper's SNN
    // (untrained: timing does not depend on weight values), at uniform
    // offsets and with the first half of the lanes one chunk ahead — the
    // two offset classes a retire-and-refill group holds. The states are
    // re-bound, and the mixed half pre-advanced, outside the timed region.
    // CI gates snn_cmos_mixed_step/64 normalised by
    // snn_cmos_uniform_step/64.
    let spec = NetworkSpec::snn();
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 2019);
    let snn = CompiledNetwork::from_model(&spec, &mut model, 8);
    let plan = ExecPlan::new(&snn, SNN_LEN, Platform::Cmos);
    let digits = synthetic_digits(SNN_LANES, 78);
    for (name, ahead) in [("snn_cmos_uniform_step", 0), ("snn_cmos_mixed_step", SNN_LANES / 2)] {
        let states: RefCell<Vec<ExecState>> =
            RefCell::new((0..SNN_LANES).map(|_| plan.new_state()).collect());
        let arenas = RefCell::new(StripeArenas::default());
        group.bench_function(BenchmarkId::new(name, SNN_LANES), |b| {
            b.iter_batched(
                || {
                    let (mut states, mut arenas) = (states.borrow_mut(), arenas.borrow_mut());
                    for (g, (st, (img, _))) in states.iter_mut().zip(&digits).enumerate() {
                        plan.begin(st, img, SEED ^ g as u64);
                    }
                    let mut first: Vec<&mut ExecState> = states.iter_mut().take(ahead).collect();
                    if !first.is_empty() {
                        plan.advance_batch_striped(&mut first, SNN_CHUNK, &mut arenas);
                    }
                },
                |()| {
                    let mut states = states.borrow_mut();
                    let mut refs: Vec<&mut ExecState> = states.iter_mut().collect();
                    plan.advance_batch_striped(&mut refs, SNN_CHUNK, &mut arenas.borrow_mut())
                },
                BatchSize::PerIteration,
            )
        });
    }
    // One lone SNN or DNN image through the scalar core (`run_one_shot`,
    // N = 256), the path every lone served request takes, on each
    // platform. The plan and state are built outside the timed region.
    // The DNN's 7×7 valid conv has one position and runs as a dense layer.
    // CI gates snn_lone/aqfp normalised by snn_cmos_uniform_step/64, a
    // lane-path rung the scalar core does not share; the DNN rungs are
    // ungated.
    let spec = NetworkSpec::dnn();
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 2019);
    let dnn = CompiledNetwork::from_model(&spec, &mut model, 8);
    for (rung, net) in [("snn_lone", &snn), ("dnn_lone", &dnn)] {
        for (name, platform) in [("aqfp", Platform::Aqfp), ("cmos", Platform::Cmos)] {
            let plan = ExecPlan::new(net, SNN_LEN, platform);
            let mut state = plan.new_state();
            let image = &digits[0].0;
            group.bench_function(BenchmarkId::new(rung, name), |b| {
                b.iter(|| black_box(plan.run_one_shot(&mut state, image, SEED)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_inference);
criterion_main!(benches);
