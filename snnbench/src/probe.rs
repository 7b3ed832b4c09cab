//! The plan probe of the traced run: direct `ExecPlan` calls on one full
//! 64·W-lane group of the workload's plan, timed call by call.
//!
//! The mixed-offset step advances a group whose first half sits one chunk
//! ahead of the rest — the state a retire-and-refill group is in — and is
//! compared with the same group at uniform offsets. The probe runs before
//! the workload, so the resident-set growth across the mixed step is the
//! lane arena it allocated.

use std::time::Instant;

use aqfp_sc_network::{stripe_width, ExecPlan, ExecState, StripeArenas};

use crate::batch;
use crate::util::{median, ms, status_mb};

/// Chunk length of the probe's group steps: the streaming workload's.
const CHUNK: usize = crate::stream::CHUNK;
/// Scalar one-shot images timed; the figure is their median.
const SCALAR_REPS: usize = 3;
/// Batch index of the probe's inputs, apart from every workload batch.
const PROBE_BATCH: u64 = 1 << 20;

pub struct Probe {
    begin_us_per_img: f64,
    uniform_ns_per_lane_cycle: f64,
    mixed_ns_per_lane_cycle: f64,
    mixed_rss_mb: f64,
    lanes: usize,
    scores_us_per_img: f64,
    scalar_ms_per_img: f64,
}

impl Probe {
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("plan.begin_us_per_img", self.begin_us_per_img),
            (
                "plan.batch_ns_per_lane_cycle",
                self.uniform_ns_per_lane_cycle,
            ),
            ("plan.batch_lanes_mean", self.lanes as f64),
            ("plan.scores_us_per_img", self.scores_us_per_img),
            (
                "plan.mixed_offset_ratio",
                self.mixed_ns_per_lane_cycle / self.uniform_ns_per_lane_cycle,
            ),
            ("plan.mixed_offset_rss_mb", self.mixed_rss_mb),
            ("plan.scalar_ms_per_img", self.scalar_ms_per_img),
        ]
    }
}

pub fn run(plan: &ExecPlan, seed: u64) -> Probe {
    let lanes = 64 * stripe_width(plan.platform());
    let inputs = batch(seed, PROBE_BATCH, lanes);
    let mut states: Vec<ExecState> = (0..lanes).map(|_| plan.new_state()).collect();
    let begin_all = |states: &mut [ExecState]| {
        let t = Instant::now();
        for (i, (st, img)) in states.iter_mut().zip(&inputs.images).enumerate() {
            plan.begin(st, img, inputs.base ^ i as u64);
        }
        t.elapsed()
    };
    let step = |states: &mut [ExecState], arenas: &mut StripeArenas| {
        let mut refs: Vec<&mut ExecState> = states.iter_mut().collect();
        let t = Instant::now();
        let got = plan.advance_batch_striped(&mut refs, CHUNK, arenas);
        assert_eq!(got, CHUNK, "a fresh group advances a whole chunk");
        t.elapsed().as_nanos() as f64 / (got * refs.len()) as f64
    };

    let begin = begin_all(&mut states);
    step(&mut states[..lanes / 2], &mut StripeArenas::default());
    let rss = status_mb("VmRSS");
    let mut arenas = StripeArenas::default();
    let mixed = step(&mut states, &mut arenas);
    let mixed_rss_mb = status_mb("VmRSS") - rss;
    drop(arenas);

    begin_all(&mut states);
    let uniform = step(&mut states, &mut StripeArenas::default());
    let t = Instant::now();
    for st in &states {
        std::hint::black_box(plan.scores(st));
    }
    let scores = t.elapsed();

    let scalar: Vec<f64> = (0..SCALAR_REPS)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(plan.run_one_shot(&mut states[i], &inputs.images[i], inputs.base));
            ms(t.elapsed())
        })
        .collect();
    Probe {
        begin_us_per_img: begin.as_secs_f64() * 1e6 / lanes as f64,
        uniform_ns_per_lane_cycle: uniform,
        mixed_ns_per_lane_cycle: mixed,
        mixed_rss_mb,
        lanes,
        scores_us_per_img: scores.as_secs_f64() * 1e6 / lanes as f64,
        scalar_ms_per_img: median(&scalar),
    }
}
