//! `stream-snn-cmos`: CMOS early-exit streaming through
//! `StreamingEngine::drive_source`, one drive per worker over a contiguous
//! slice of the batch (the split `StreamingEngine::classify_batch` makes).
//! A worker's slice is larger than its 256-lane group, so lanes that exit
//! early are refilled mid-run and the group holds mixed cycle offsets.
//!
//! An image's latency runs from the batch's start to the moment its lane
//! retires, so early exits show as lower latency.

use std::time::Instant;

use aqfp_sc_network::{
    ExitPolicy, InferenceEngine, LaneJob, LaneSource, Platform, StreamingEngine, StreamingOutcome,
};
use aqfp_sc_nn::Tensor;

use crate::trace::Tracer;
use crate::util::{median, percentile};
use crate::{
    another_batch, batch, probe, sample_indices, setup, Args, EndToEnd, Layers, Outcome, Traced,
    MODEL, WARM_BATCH,
};

pub const BATCH: usize = 768;
/// Fixed chunk between exit checks, in cycles.
pub const CHUNK: usize = 32;
/// Cycles every image runs before its first exit check.
pub const MIN_CYCLES: usize = 64;
/// Margin-policy confidence. Untrained margins are small. At this z about
/// 78 % of images exit at the first check (64 cycles) and 95 % by the
/// second, so the latency percentiles sit inside one checkpoint's
/// retirements; at z = 0.25 about half exited at the first check, and p50
/// jumped between the first and second checkpoints from seed to seed.
pub const Z: f64 = 0.1;

/// One worker's slice as a live lane source: hands out images in order and
/// keeps each outcome with the time its lane retired.
struct SliceSource<'a> {
    images: &'a [Tensor],
    /// Global index of `images[0]` in the batch.
    first: usize,
    base: u64,
    epoch: Instant,
    next: usize,
    retired: usize,
    refills: u64,
    started_ns: Vec<u64>,
    done: Vec<Option<(StreamingOutcome, u64)>>,
    tracer: Option<(Tracer, u64)>,
}

impl LaneSource for SliceSource<'_> {
    fn next(&mut self) -> Option<LaneJob> {
        let i = self.next;
        let image = self.images.get(i)?.clone();
        self.next += 1;
        if self.retired > 0 {
            self.refills += 1;
        }
        self.started_ns[i] = self.epoch.elapsed().as_nanos() as u64;
        let global = self.first + i;
        Some(LaneJob {
            image,
            seed: InferenceEngine::image_seed(self.base, global),
            tag: i as u64,
        })
    }

    fn complete(&mut self, tag: u64, outcome: StreamingOutcome) {
        let i = tag as usize;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.retired += 1;
        if let Some((tr, parent)) = &mut self.tracer {
            let item = (self.first + i) as u64;
            tr.record("scheduler.lane", *parent, item, self.started_ns[i], now);
        }
        self.done[i] = Some((outcome, now));
    }
}

/// One pass over a batch: outcomes and retire times (ns from the start)
/// in batch order, plus, when traced, the per-layer metrics and tracers.
struct Pass {
    outcomes: Vec<StreamingOutcome>,
    retired_ns: Vec<u64>,
    wall_s: f64,
    layers: Layers,
    tracers: Vec<Tracer>,
}

fn pass(streaming: &StreamingEngine, images: &[Tensor], base: u64, trace: bool) -> Pass {
    let threads = streaming.engine().threads().min(images.len());
    let chunk = images.len().div_ceil(threads);
    let epoch = Instant::now();
    let workers: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = images
            .chunks(chunk)
            .enumerate()
            .map(|(ci, imgs)| {
                s.spawn(move || {
                    let mut tracer = trace.then(|| Tracer::new(epoch, ci as u64 + 1));
                    let worker = tracer.as_mut().map(Tracer::open);
                    let mut src = SliceSource {
                        images: imgs,
                        first: ci * chunk,
                        base,
                        epoch,
                        next: 0,
                        retired: 0,
                        refills: 0,
                        started_ns: vec![0; imgs.len()],
                        done: vec![None; imgs.len()],
                        tracer: tracer.zip(worker.as_ref().map(|w| w.id)),
                    };
                    let stats = streaming.drive_source(&mut src);
                    let mut tracer = src.tracer.take().map(|(t, _)| t);
                    if let (Some(tr), Some(w)) = (tracer.as_mut(), worker) {
                        tr.close(w, "engine.worker", 0, ci as u64);
                    }
                    (src.done, src.refills, stats, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream worker"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();

    let (mut outcomes, mut retired_ns, mut tracers) = (Vec::new(), Vec::new(), Vec::new());
    let (mut refills, mut steps, mut lane_steps) = (0u64, 0u64, 0u64);
    for (done, r, stats, tracer) in workers {
        for d in done {
            let (o, ns) = d.expect("every image retires");
            outcomes.push(o);
            retired_ns.push(ns);
        }
        refills += r;
        steps += stats.steps;
        lane_steps += stats.lane_steps;
        tracers.extend(tracer);
    }
    let mut layers = Vec::new();
    if trace {
        let busy: Vec<f64> = tracers
            .iter()
            .flat_map(|t| t.durations("engine.worker"))
            .map(|ns| ns as f64 / 1e9 / wall_s)
            .collect();
        let lane_ms: Vec<f64> = tracers
            .iter()
            .flat_map(|t| t.durations("scheduler.lane"))
            .map(|ns| ns as f64 / 1e6)
            .collect();
        let early = outcomes.iter().filter(|o| o.early_exit).count();
        layers = vec![
            (
                "engine.worker_busy_share",
                busy.iter().sum::<f64>() / busy.len() as f64,
            ),
            ("scheduler.avg_lanes", lane_steps as f64 / steps as f64),
            ("scheduler.steps", steps as f64),
            ("scheduler.refills", refills as f64),
            ("scheduler.lane_ms_p50", median(&lane_ms)),
            ("scheduler.lane_ms_p90", percentile(&lane_ms, 0.9)),
            (
                "streaming.early_exit_share",
                early as f64 / outcomes.len() as f64,
            ),
        ];
    }
    Pass {
        outcomes,
        retired_ns,
        wall_s,
        layers,
        tracers,
    }
}

fn end_to_end(passes: &[&Pass]) -> EndToEnd {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.outcomes.len() as f64 / p.wall_s)
        .collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.retired_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let (cycles, images) = passes
        .iter()
        .flat_map(|p| &p.outcomes)
        .fold((0usize, 0usize), |(c, n), o| (c + o.cycles, n + 1));
    EndToEnd::new(median(&rates), &latencies, cycles as f64 / images as f64)
}

pub fn run(args: &Args) -> Outcome {
    let setup = setup(Platform::Cmos, false);
    let plan = setup.registry.get(MODEL).expect("model registered");
    let probed = args.trace.then(|| probe::run(&plan, args.seed));
    let engine = InferenceEngine::from_plan(plan);
    let streaming = StreamingEngine::new(&engine, CHUNK)
        .with_policy(ExitPolicy::Margin { z: Z })
        .with_min_cycles(MIN_CYCLES);

    let warm = batch(args.seed, 0, WARM_BATCH);
    pass(&streaming, &warm.images, warm.base, false);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes: Vec<Pass> = Vec::new();
    let mut last = None;
    while another_batch(args, &passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()) {
        let inputs = batch(args.seed, passes.len() as u64 + 1, BATCH);
        let p = pass(&streaming, &inputs.images, inputs.base, false);
        attempted += BATCH as u64;
        // The scalar chunk loop (`BatchMode::Scalar`) is the reference.
        for i in sample_indices(BATCH, inputs.base) {
            let reference = streaming.classify(
                &inputs.images[i],
                InferenceEngine::image_seed(inputs.base, i),
            );
            if reference != p.outcomes[i] {
                failed += 1;
            }
        }
        passes.push(p);
        last = Some(inputs);
    }
    let e2e = end_to_end(&passes.iter().collect::<Vec<_>>());

    let traced = probed.map(|probed| {
        let inputs = last.expect("one timed batch");
        let mut t = pass(&streaming, &inputs.images, inputs.base, true);
        failed += passes[0]
            .outcomes
            .iter()
            .zip(&t.outcomes)
            .filter(|(a, b)| a != b)
            .count() as u64;
        let mut layers = std::mem::take(&mut t.layers);
        layers.extend(probed.layers());
        layers.extend(setup.layers());
        Traced {
            second_pass: Some(end_to_end(&[&t])),
            layers,
            tracers: std::mem::take(&mut t.tracers),
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
