//! `offline-snn`: AQFP batches of 256 digits through
//! `InferenceEngine::scores_batch` with the default worker count. At two
//! workers every worker runs one 128-lane W = 2 group at uniform offsets.
//! (A 512-image batch, one full 256-lane group per worker, takes 11–26 s
//! on a 2-vCPU host; two of them per run do not fit the benchmark's time
//! budget. The plan probe reports the 256-lane cost per layer.)
//!
//! The traced pass mirrors the engine's batch driver — the same contiguous
//! split and per-image seeds — with direct `begin` /
//! `advance_batch_striped` / `scores` calls, and must reproduce the
//! engine's scores bit for bit.

use std::time::Instant;

use aqfp_sc_network::{
    lane_min, stripe_width, ExecPlan, ExecState, InferenceEngine, Platform, StripeArenas,
};
use aqfp_sc_nn::Tensor;

use crate::trace::{Tracer, NO_ITEM};
use crate::util::{median, percentile};
use crate::{
    another_batch, batch, probe, sample_indices, setup, Args, EndToEnd, Layers, Outcome, Traced,
    MODEL, N, WARM_BATCH,
};

pub const BATCH: usize = 256;

pub fn run(args: &Args) -> Outcome {
    let setup = setup(Platform::Aqfp, false);
    let plan = setup.registry.get(MODEL).expect("model registered");
    let probed = args.trace.then(|| probe::run(&plan, args.seed));
    let engine = setup.registry.engine(MODEL).expect("model registered");

    let warm = batch(args.seed, 0, WARM_BATCH);
    engine.scores_batch(&warm.images, warm.base);

    let (mut secs_per_batch, mut latencies) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = None;
    while another_batch(args, &secs_per_batch) {
        let inputs = batch(args.seed, secs_per_batch.len() as u64 + 1, BATCH);
        let t = Instant::now();
        let scores = engine.scores_batch(&inputs.images, inputs.base);
        let secs = t.elapsed().as_secs_f64();
        secs_per_batch.push(secs);
        // Every image of a batch is answered when the call returns.
        latencies.extend(std::iter::repeat_n(secs * 1e3, BATCH));
        attempted += BATCH as u64;
        for i in sample_indices(BATCH, inputs.base) {
            let reference = engine.scores(
                &inputs.images[i],
                InferenceEngine::image_seed(inputs.base, i),
            );
            if !same_bits(&reference, &scores[i]) {
                failed += 1;
            }
        }
        last = Some((inputs, scores));
    }
    // One-shot inference runs every image the full N cycles.
    let rates: Vec<f64> = secs_per_batch.iter().map(|s| BATCH as f64 / s).collect();
    let e2e = EndToEnd::new(median(&rates), &latencies, N as f64);

    let traced = probed.map(|probed| {
        let (inputs, scores) = last.expect("one timed batch");
        let epoch = Instant::now();
        let (traced_scores, mut layers, tracers) =
            traced_batch(&plan, &inputs.images, inputs.base, engine.threads(), epoch);
        let secs = epoch.elapsed().as_secs_f64();
        failed += scores
            .iter()
            .zip(&traced_scores)
            .filter(|(a, b)| !same_bits(a, b))
            .count() as u64;
        // The probe's plan figures stand in only where the traced batch
        // has none of its own.
        let probe_only: Vec<_> = probed
            .layers()
            .into_iter()
            .filter(|(n, _)| !layers.iter().any(|(m, _)| m == n))
            .collect();
        layers.extend(probe_only);
        layers.extend(setup.layers());
        let lat = vec![secs * 1e3; BATCH];
        Traced {
            second_pass: Some(EndToEnd::new(BATCH as f64 / secs, &lat, N as f64)),
            layers,
            tracers,
        }
    });
    Outcome {
        setup_s: setup.setup_s,
        attempted,
        failed,
        e2e,
        traced,
    }
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The engine's batch driver, spelled out: contiguous image slices per
/// worker, each run as full-length lane groups of up to 64·W lanes (the
/// scalar core below `lane_min`).
fn traced_batch(
    plan: &ExecPlan,
    images: &[Tensor],
    base: u64,
    threads: usize,
    epoch: Instant,
) -> (Vec<Vec<f64>>, Layers, Vec<Tracer>) {
    let chunk = images.len().div_ceil(threads.min(images.len()));
    let lane_limit = 64 * stripe_width(plan.platform());
    let min_lanes = lane_min(plan.platform());
    let workers: Vec<(Vec<Vec<f64>>, Tracer, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = images
            .chunks(chunk)
            .enumerate()
            .map(|(ci, imgs)| {
                s.spawn(move || {
                    let mut tr = Tracer::new(epoch, ci as u64 + 1);
                    let worker = tr.open();
                    let mut out = Vec::with_capacity(imgs.len());
                    let mut arenas = StripeArenas::default();
                    let (mut lane_cycles, mut lane_steps) = (0u64, 0u64);
                    for (gi, group) in imgs.chunks(lane_limit).enumerate() {
                        let g = tr.open();
                        let first = ci * chunk + gi * lane_limit;
                        let mut states: Vec<ExecState> = group
                            .iter()
                            .enumerate()
                            .map(|(j, img)| {
                                let mut st = plan.new_state();
                                let seed = InferenceEngine::image_seed(base, first + j);
                                tr.span("plan.begin", g.id, (first + j) as u64, || {
                                    plan.begin(&mut st, img, seed)
                                });
                                st
                            })
                            .collect();
                        if states.len() >= min_lanes {
                            let mut refs: Vec<&mut ExecState> = states.iter_mut().collect();
                            let mut done = 0;
                            while done < N {
                                let got =
                                    tr.span("plan.advance_batch_striped", g.id, NO_ITEM, || {
                                        plan.advance_batch_striped(&mut refs, N - done, &mut arenas)
                                    });
                                assert!(got > 0, "live lanes always advance");
                                lane_cycles += (got * refs.len()) as u64;
                                lane_steps += refs.len() as u64;
                                done += got;
                            }
                        } else {
                            for (j, st) in states.iter_mut().enumerate() {
                                tr.span("plan.advance", g.id, (first + j) as u64, || {
                                    plan.advance(st, N)
                                });
                            }
                        }
                        for (j, st) in states.iter().enumerate() {
                            assert_eq!(st.cycles(), N, "one-shot lanes run the full stream");
                            out.push(
                                tr.span("plan.scores", g.id, (first + j) as u64, || {
                                    plan.scores(st)
                                }),
                            );
                        }
                        tr.close(g, "scheduler.group", worker.id, NO_ITEM);
                    }
                    tr.close(worker, "engine.worker", 0, ci as u64);
                    (out, tr, lane_cycles, lane_steps)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker"))
            .collect()
    });
    let wall_ns = epoch.elapsed().as_nanos() as f64;

    let mut scores = Vec::with_capacity(images.len());
    let (mut lane_cycles, mut lane_steps, mut busy) = (0u64, 0u64, Vec::new());
    for (out, tr, lc, ls) in &workers {
        scores.extend(out.iter().cloned());
        lane_cycles += lc;
        lane_steps += ls;
        busy.extend(tr.durations("engine.worker").map(|ns| ns as f64 / wall_ns));
    }
    let tracers: Vec<Tracer> = workers.into_iter().map(|(_, tr, _, _)| tr).collect();
    let sum = |name: &str| -> (f64, usize) {
        tracers
            .iter()
            .flat_map(|t| t.durations(name))
            .fold((0.0, 0), |(s, n), ns| (s + ns as f64, n + 1))
    };
    let (advance_ns, steps) = sum("plan.advance_batch_striped");
    let (begin_ns, begins) = sum("plan.begin");
    let (scores_ns, _) = sum("plan.scores");
    // A lane lives from its group's first `begin` to its own `scores`.
    let lane_ms: Vec<f64> = tracers
        .iter()
        .flat_map(|t| {
            t.spans.iter().filter(|s| s.name == "plan.scores").map(|s| {
                let group_start = t
                    .spans
                    .iter()
                    .find(|g| g.id == s.parent)
                    .expect("group span")
                    .start_ns;
                (s.end_ns - group_start) as f64 / 1e6
            })
        })
        .collect();
    let lanes_mean = if steps == 0 {
        0.0
    } else {
        lane_steps as f64 / steps as f64
    };
    let layers = vec![
        ("plan.begin_us_per_img", begin_ns / begins as f64 / 1e3),
        (
            "plan.batch_ns_per_lane_cycle",
            if lane_cycles == 0 {
                0.0
            } else {
                advance_ns / lane_cycles as f64
            },
        ),
        ("plan.batch_lanes_mean", lanes_mean),
        (
            "plan.scores_us_per_img",
            scores_ns / images.len() as f64 / 1e3,
        ),
        (
            "engine.worker_busy_share",
            busy.iter().sum::<f64>() / busy.len() as f64,
        ),
        ("scheduler.avg_lanes", lanes_mean),
        ("scheduler.steps", steps as f64),
        ("scheduler.lane_ms_p50", median(&lane_ms)),
        ("scheduler.lane_ms_p90", percentile(&lane_ms, 0.9)),
    ];
    (scores, layers, tracers)
}
