//! `streaming_inference`: chunked early-exit streaming against the
//! fixed-N one-shot engine, on a briefly trained tiny network (so class
//! margins exist and the margin policy has something to exit on).
//!
//! Three rungs per batch: the one-shot engine (baseline), streaming driven
//! to full N with the exit policy disabled (pure chunking overhead — also
//! the bit-identity configuration), and streaming with the margin policy
//! (the early-exit payoff). Two more rungs time one lane-group step of
//! the paper's SNN, at one offset class and at two.
//! `BENCH_JSON=BENCH_streaming.json cargo bench --bench streaming`
//! refreshes the committed baseline.

use aqfp_sc_data::synthetic_digits;
use aqfp_sc_network::{
    build_model, ActivationStyle, BatchMode, CompiledNetwork, ExecPlan, ExecState, ExitPolicy,
    InferenceEngine, NetworkSpec, Platform, StreamingEngine, StripeArenas,
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
    // The lane-group headline: scalar vs batch-transposed streaming on a
    // single worker (threads pinned to 1 so the ratio isolates the lane
    // path instead of worker-count fragmentation), margin policy on the
    // fixed-64 schedule. CI gates batched/32 normalised by scalar/32.
    let single = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Aqfp).with_threads(1);
    let imgs = images(32);
    for (name, mode) in
        [("scalar", BatchMode::Scalar), ("batched", BatchMode::LaneGroups)]
    {
        group.bench_with_input(BenchmarkId::new(name, 32), &imgs, |b, imgs| {
            let streaming = StreamingEngine::new(&single, CHUNK)
                .with_policy(ExitPolicy::Margin { z: 2.5 })
                .with_min_cycles(CHUNK)
                .with_batch_mode(mode);
            b.iter(|| black_box(streaming.classify_batch(imgs, SEED)))
        });
    }
    // Same discipline on the CMOS baseline at full stripe occupancy
    // (256 images = one W=4 lane group): APC counting and lane-parallel
    // mux pooling against the per-image scalar core. CI gates
    // cmos_batched/256 normalised by cmos_scalar/256.
    let cmos = InferenceEngine::new(&compiled, STREAM_LEN, Platform::Cmos).with_threads(1);
    let imgs = images(256);
    for (name, mode) in
        [("cmos_scalar", BatchMode::Scalar), ("cmos_batched", BatchMode::LaneGroups)]
    {
        group.bench_with_input(BenchmarkId::new(name, 256), &imgs, |b, imgs| {
            let streaming = StreamingEngine::new(&cmos, CHUNK)
                .with_policy(ExitPolicy::Margin { z: 2.5 })
                .with_min_cycles(CHUNK)
                .with_batch_mode(mode);
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
    group.finish();
}

criterion_group!(benches, bench_streaming_inference);
criterion_main!(benches);
