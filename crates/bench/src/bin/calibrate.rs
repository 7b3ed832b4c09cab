//! Break-even calibration for the lane-group scheduler knobs:
//! [`lane_min`](aqfp_sc_network::lane_min) (smallest group worth the
//! batch-transposed path) and
//! [`stripe_width`](aqfp_sc_network::stripe_width) (64-bit words per lane
//! stripe). Run it on the target host and transplant the numbers into
//! `scheduler.rs` / ROADMAP when they move:
//!
//! ```text
//! cargo run --release -p aqfp-sc-bench --bin calibrate [--quick]
//! ```
//!
//! The workload mirrors the committed streaming bench (trained tiny net,
//! N=512, one thread, full-length schedule, exits disabled) so the
//! reported per-image times are comparable with `BENCH_streaming.json`.
//! Group sizes at or below 64 lanes measure the `lane_min` crossover
//! against the scalar core; 128- and 256-lane groups run the same path at
//! stripe widths 2 and 4 (the scheduler picks the narrowest width
//! covering the group, so the group size *is* the width selector).

use std::time::Instant;

use aqfp_sc_data::synthetic_digits;
use aqfp_sc_network::{
    build_model, ActivationStyle, CompiledNetwork, InferenceEngine, NetworkSpec, Platform,
    StreamingEngine,
};
use aqfp_sc_nn::Tensor;

const STREAM_LEN: usize = 512;
const CHUNK: usize = 64;
const SEED: u64 = 0x15CA_2019;

fn trained_tiny() -> CompiledNetwork {
    let spec = NetworkSpec::tiny(8);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 5);
    let train: Vec<(Tensor, usize)> = synthetic_digits(240, 9)
        .iter()
        .map(|(img, l)| (shrink(img), *l))
        .collect();
    for _ in 0..12 {
        model.train_epoch(&train, 0.05, 0.9, 16);
    }
    CompiledNetwork::from_model(&spec, &mut model, 8)
}

fn shrink(img: &Tensor) -> Tensor {
    let mut small = Tensor::zeros(vec![1, 8, 8]);
    for y in 0..8 {
        for x in 0..8 {
            small.data_mut()[y * 8 + x] = img.at3(0, 2 + y * 3, 2 + x * 3);
        }
    }
    small
}

fn images(n: usize) -> Vec<Tensor> {
    synthetic_digits(n, 77).iter().map(|(img, _)| shrink(img)).collect()
}

/// Per-image microseconds for `reps` full runs of `run` over `imgs`.
fn time_per_image<T>(imgs: &[Tensor], reps: usize, run: impl Fn(&[Tensor]) -> T) -> f64 {
    // One warm-up pass populates arenas and the page cache.
    let _ = run(imgs);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(run(imgs));
    }
    start.elapsed().as_secs_f64() * 1e6 / (reps * imgs.len()) as f64
}

fn main() {
    // Hidden profiling hook: `calibrate --profile <aqfp|cmos> <lanes> <secs>`
    // loops one configuration so a sampling profiler has a steady target.
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--profile") {
        let platform =
            if args[2] == "cmos" { Platform::Cmos } else { Platform::Aqfp };
        let lanes: usize = args[3].parse().expect("lane count");
        let secs: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(10);
        let compiled = trained_tiny();
        let imgs = images(256);
        let engine =
            InferenceEngine::new(&compiled, STREAM_LEN, platform).with_threads(1);
        let streaming = StreamingEngine::new(&engine, CHUNK).with_lane_group(lanes);
        let deadline = Instant::now() + std::time::Duration::from_secs(secs);
        let mut runs = 0u32;
        while Instant::now() < deadline {
            std::hint::black_box(streaming.classify_batch(&imgs, SEED));
            runs += 1;
        }
        println!("{runs} runs of {platform:?} lanes={lanes}");
        return;
    }
    // Hidden micro-timing hook: `calibrate --sng` times the raw pixel-SNG
    // word generation (the per-image serial cost both the scalar and lane
    // paths pay identically).
    if args.get(1).map(String::as_str) == Some("--sng") {
        use aqfp_sc_bitstream::{BitStream, Sng, SplitMix64, ThermalRng};
        let mut out = BitStream::zeros(0);
        for (name, mut gen) in [
            (
                "thermal(8)",
                Box::new({
                    let mut sng = Sng::new(8, ThermalRng::with_seed(1));
                    move |len: usize, out: &mut BitStream| {
                        sng.generate_level_into(137, len, out)
                    }
                }) as Box<dyn FnMut(usize, &mut BitStream)>,
            ),
            (
                "splitmix(8)",
                Box::new({
                    let mut sng = Sng::new(8, SplitMix64::new(1));
                    move |len: usize, out: &mut BitStream| {
                        sng.generate_level_into(137, len, out)
                    }
                }),
            ),
        ] {
            let per_image_bits = 64 * STREAM_LEN; // 64 pixels x N
            let start = Instant::now();
            let images = 256usize;
            for _ in 0..images * 64 {
                gen(STREAM_LEN, &mut out);
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / images as f64;
            println!(
                "{name}: {us:7.1} us/img ({per_image_bits} bits/img)"
            );
        }
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let (reps, pool) = if quick { (1, 256) } else { (3, 256) };
    let compiled = trained_tiny();
    let imgs = images(pool);
    println!("workload: trained tiny net, N={STREAM_LEN}, chunk={CHUNK}, 1 thread, no exits");
    println!("pool={pool} images, {reps} reps; per-image wall micros (lower is better)\n");
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let engine =
            InferenceEngine::new(&compiled, STREAM_LEN, platform).with_threads(1);
        // The scalar reference: one image at a time through the scalar
        // chunk loop, at the batch APIs' per-image seeds.
        let streaming = StreamingEngine::new(&engine, CHUNK);
        let scalar = time_per_image(&imgs, reps, |imgs| {
            imgs.iter()
                .enumerate()
                .map(|(i, x)| streaming.classify(x, InferenceEngine::image_seed(SEED, i)))
                .collect::<Vec<_>>()
        });
        println!("{platform:?}: scalar core {scalar:9.1} us/img");
        println!("  lanes  us/img  vs-scalar   (lane groups forced to the given size)");
        for lanes in [8usize, 16, 24, 32, 48, 64, 128, 256] {
            let streaming = StreamingEngine::new(&engine, CHUNK).with_lane_group(lanes);
            let lane = time_per_image(&imgs, reps, |imgs| streaming.classify_batch(imgs, SEED));
            println!("  {lanes:5} {lane:8.1} {:9.2}x", scalar / lane);
        }
        println!();
    }
    println!("transplant: lane_min = smallest group with vs-scalar >= 1.0;");
    println!("stripe_width = width (lanes/64) of the fastest 64..=256 row.");
}
