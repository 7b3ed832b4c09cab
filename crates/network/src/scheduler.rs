//! The shared lane-group scheduler: both batched front-ends — the
//! one-shot [`InferenceEngine`] and the early-exit [`StreamingEngine`] —
//! and the serving front-end drive images through the batch-transposed
//! kernel path in stripes of up to
//! [`MAX_LANES`](aqfp_sc_bitstream::MAX_LANES) lanes (`64·W` for stripe
//! width `W ∈ {1, 2, 4}`), with per-lane schedule checkpoints and
//! retire-and-refill compaction. Every run is configured by one
//! [`StreamingEngine`]: its plan, chunk schedule, exit policy, worker
//! count, and lane-group cap.
//!
//! # Lane ownership
//!
//! A lane owns exactly one in-flight image's [`ExecState`]; the lane's
//! position in the word is just its index in the live-lane list and never
//! affects bits (the carry-save plane arithmetic is bitwise per-lane
//! independent). The group advances by the *minimum* distance to any live
//! lane's next checkpoint, so every lane lands exactly on its own
//! checkpoints; splitting one lane's schedule chunk into several
//! sub-advances is safe because any partition of N cycles is bit-identical
//! (the partition invariant of
//! [`ExecPlan::advance`](crate::ExecPlan::advance)).
//!
//! # Retire and refill
//!
//! The exit policy is consulted only for a lane sitting exactly at its own
//! checkpoint, through the same [`StreamingEngine::exit`] check, with the
//! same per-image bookkeeping, that the scalar streaming loop uses — so a
//! batched run retires every image at the same cycle, with the same
//! scores, as the scalar path. A retired lane's `ExecState` goes to a free
//! pool and is immediately re-`begin`-ed on the next queued image, keeping
//! the stripe dense instead of dragging finished images to full N.
//! Refilled lanes start at absolute cycle 0 while survivors sit
//! mid-stream;
//! [`ExecPlan::advance_batch_striped`](crate::ExecPlan::advance_batch_striped)
//! groups the lanes into offset classes and reads every image-independent
//! stream in place at each class's offset, broadcast to that class's
//! lanes, which is what makes compaction bit-drift-free. Each group
//! advance runs at the narrowest stripe width covering the live lane
//! count — stripe-width independence of the kernels makes the per-step
//! choice invisible in the bits.
//!
//! # Live sources
//!
//! The core loop ([`drive_lane_source`]) pulls work from a public
//! [`LaneSource`] rather than a pre-known slice: at every refill point it
//! asks the source for the next [`LaneJob`], so a serving front-end can
//! feed requests that arrive *while a group is already in flight* straight
//! into freshly retired lanes. Each lane retires straight into a
//! [`StreamingOutcome`] handed to [`LaneSource::complete`]. Because lane
//! composition never affects bits (each lane reads the image-independent
//! streams at its own offset), a job's result is independent of when the
//! source produced it.
//!
//! # One worker pool
//!
//! Both batch front-ends hand their image list to [`drive_batch`], the
//! crate's only scoped worker pool: every worker runs the same core over a
//! shared job cursor (a [`LaneSource`] too), taking the next image index
//! as lanes free up. The serving front-end drives the core directly over
//! its request queue through [`StreamingEngine::drive_source`].

use std::sync::atomic::{AtomicUsize, Ordering};

use aqfp_sc_bitstream::MAX_STRIPE_WORDS;
use aqfp_sc_nn::Tensor;

use crate::engine::InferenceEngine;
use crate::plan::{ExecState, Platform, StripeArenas};
use crate::streaming::{LaneJob, LaneSource, PolicyBook, StreamingEngine, StreamingOutcome};

/// Smallest lane group the batch-transposed kernel path is worth engaging
/// for; smaller groups run the scalar core, which is bit-identical — the
/// threshold is purely a throughput knob.
///
/// Measured break-even (the `calibrate` bench in `crates/bench`: trained
/// tiny net, N=512, one thread, one-shot full-length schedule — re-run it
/// when retuning for a new host; medians of six `--quick` runs on a
/// 2-vCPU x86-64 host, against the scalar core whose conv and pool layers
/// run with their positions in the lanes): the AQFP lane path is ~0.5× the
/// scalar core at 8 lanes, ~1.1× at 16, ~1.6× at 32, ~2.6× at 64 and
/// ~3.4× at 256; on CMOS, whose mux pool also runs in those lanes,
/// ~0.36× at 8, ~0.69× at 16, ~1.2× at 32, ~1.8× at 64 and ~1.9× at 256.
/// Single runs swing by up to 2× on such a host. On
/// the paper's SNN (N = 256) the crossover sits higher: lanes read
/// 0.11–0.17× the scalar core at 8 lanes and 0.84–1.27× at 64 on AQFP,
/// 0.24–0.30× and 1.74–1.83× on CMOS (ROADMAP item 3). The values below
/// predate the spatial scalar core and are kept for now: raising them
/// past the tiny net's group sizes would make its lane-group benchmarks
/// run the scalar core.
pub fn lane_min(platform: Platform) -> usize {
    match platform {
        Platform::Aqfp => 8,
        Platform::Cmos => 16,
    }
}

/// Stripe width `W` (64-bit words per [`Stripe`](aqfp_sc_bitstream::Stripe),
/// i.e. `64·W` lanes per group) the batch-transposed path targets on this
/// platform — the lane-group capacity the front-ends request. The
/// scheduler still drops to the narrowest width covering the live lanes
/// per step, so a wide target never penalises a draining group.
///
/// Measured (same `calibrate` bench as [`lane_min`]): the widest
/// supported stripe, W = 4, measures fastest per image on both platforms
/// at full occupancy (AQFP ~3.4×, CMOS ~1.9× the spatial scalar core at
/// 256 lanes), so both pick it. The 128-lane row trails 64 slightly on
/// both platforms (a W = 2 stripe pays two words per op over lanes a
/// single full word already covers), which is why the scheduler drops to
/// the narrowest covering width as a group drains instead of staying
/// wide.
pub fn stripe_width(_platform: Platform) -> usize {
    MAX_STRIPE_WORDS
}

/// Occupancy accounting of a lane-group run: how full the machine word was
/// kept across kernel advance steps.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GroupStats {
    /// Kernel advance steps taken — one batch-transposed group advance, or
    /// one scalar advance of a single lane on the small-group fallback.
    pub steps: u64,
    /// Total lanes advanced, summed over all steps.
    pub lane_steps: u64,
}

impl GroupStats {
    /// Mean active lanes per advance step (0.0 for an empty run).
    pub fn avg_lanes(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.lane_steps as f64 / self.steps as f64
        }
    }

    /// Folds another accumulator in (the pool sums its workers' stats).
    pub fn merge(&mut self, other: GroupStats) {
        self.steps += other.steps;
        self.lane_steps += other.lane_steps;
    }
}

/// One live lane: an in-flight image, its next checkpoint, and the exit
/// policy's per-image bookkeeping.
struct Lane {
    state: ExecState,
    /// The source's routing tag for this job (results are delivered under
    /// it no matter when the lane retires).
    tag: u64,
    /// Schedule checkpoints reached so far (= the schedule index of the
    /// chunk currently in flight).
    chunk_idx: usize,
    /// Absolute cycle of the next policy consult, capped at N.
    checkpoint: usize,
    book: PolicyBook,
}

/// A worker's view of the shared batch: it takes the next image index
/// from the job cursor every pool worker shares, keeps at most `cap` of
/// its jobs in flight, and keeps its outcomes until the join.
struct CursorFeed<'a> {
    images: &'a [&'a Tensor],
    base_seed: u64,
    cursor: &'a AtomicUsize,
    cap: usize,
    in_flight: usize,
    done: Vec<(u64, StreamingOutcome)>,
}

impl LaneSource for CursorFeed<'_> {
    fn next(&mut self) -> Option<LaneJob> {
        if self.in_flight == self.cap {
            return None;
        }
        // The cursor publishes no other data (the images are shared
        // read-only from before the spawn), and fetch_add hands each index
        // out exactly once under any ordering.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        let image = (*self.images.get(i)?).clone();
        self.in_flight += 1;
        let seed = InferenceEngine::image_seed(self.base_seed, i);
        Some(LaneJob { image, seed, tag: i as u64 })
    }

    fn complete(&mut self, tag: u64, outcome: StreamingOutcome) {
        self.in_flight -= 1;
        self.done.push((tag, outcome));
    }
}

/// The batch front-ends' worker pool: `min(threads, n)` scoped workers
/// each run [`drive_lane_source`] over a shared job cursor, so a worker
/// whose lanes retire early takes the next image instead of idling on a
/// fixed slice. Image `i` runs under
/// [`InferenceEngine::image_seed`]`(base_seed, i)`, so no outcome depends
/// on which worker ran it. Each worker keeps at most
/// `min(lane_limit, ⌈n / workers⌉)` images in flight, which spreads a
/// batch over every worker; the engine's `lane_limit` still sets the
/// scalar fallback threshold, so a small batch split across workers runs
/// the scalar core rather than a lane group below the break-even. Returns
/// one outcome per image, in input order, and the merged word-occupancy
/// accounting.
pub(crate) fn drive_batch(
    streaming: &StreamingEngine<'_>,
    images: &[&Tensor],
    base_seed: u64,
) -> (Vec<StreamingOutcome>, GroupStats) {
    let n = images.len();
    if n == 0 {
        return (Vec::new(), GroupStats::default());
    }
    let workers = streaming.engine().threads().clamp(1, n);
    let cap = streaming.lane_limit().min(n.div_ceil(workers));
    let cursor = AtomicUsize::new(0);
    let finished: Vec<(Vec<(u64, StreamingOutcome)>, GroupStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut feed = CursorFeed {
                        images,
                        base_seed,
                        cursor,
                        cap,
                        in_flight: 0,
                        done: Vec::new(),
                    };
                    let stats = drive_lane_source(streaming, &mut feed);
                    (feed.done, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    let mut out: Vec<Option<StreamingOutcome>> = vec![None; n];
    let mut stats = GroupStats::default();
    for (done, worker_stats) in finished {
        for (tag, outcome) in done {
            out[tag as usize] = Some(outcome);
        }
        stats.merge(worker_stats);
    }
    (out.into_iter().map(|o| o.expect("every image retired")).collect(), stats)
}

/// The lane-group core over a live [`LaneSource`], under `streaming`'s
/// schedule, exit policy, and lane-group cap: keeps up to `lane_limit`
/// lanes in flight, refills from the source whenever lanes are free
/// (including mid-run, after retirements), and consults
/// [`StreamingEngine::exit`] at each lane's own schedule checkpoints.
/// Groups below `lane_min(platform).min(lane_limit)` lanes advance
/// through the scalar core instead (bit-identical either way — the
/// threshold is purely a throughput knob, lowered only when a caller
/// forces a smaller lane cap). Returns once the source is drained and
/// every lane has retired. Outcomes go back through
/// [`LaneSource::complete`]; the word-occupancy accounting of the run is
/// returned.
pub(crate) fn drive_lane_source(
    streaming: &StreamingEngine<'_>,
    source: &mut dyn LaneSource,
) -> GroupStats {
    let plan = streaming.engine().plan();
    let schedule = streaming.schedule();
    let lane_limit = streaming.lane_limit();
    let n = plan.stream_len();
    let min_batch_lanes = lane_min(plan.platform()).min(lane_limit);
    let mut stats = GroupStats::default();
    let mut free: Vec<ExecState> = Vec::new();
    let mut lanes: Vec<Lane> = Vec::new();
    let mut arenas = StripeArenas::default();
    loop {
        // Refill (and the initial fill): recycled states re-`begin` on
        // sourced jobs until the word is at capacity or the source has
        // nothing ready. `begin` copies what it needs, so the job's image
        // is dropped as the lane starts.
        while lanes.len() < lane_limit {
            let Some(job) = source.next() else { break };
            let mut state = free.pop().unwrap_or_else(|| plan.new_state());
            plan.begin(&mut state, &job.image, job.seed);
            lanes.push(Lane {
                checkpoint: schedule.len_at(0).min(n),
                state,
                tag: job.tag,
                chunk_idx: 0,
                book: PolicyBook::default(),
            });
        }
        if lanes.is_empty() {
            break;
        }
        // Advance the whole group to the nearest per-lane checkpoint.
        // Live lanes always have checkpoint > cycles, so d >= 1 and the
        // loop makes progress every iteration.
        let d = lanes
            .iter()
            .map(|l| l.checkpoint - l.state.cycles())
            .min()
            .expect("the group has a live lane");
        if lanes.len() >= min_batch_lanes {
            let mut advanced = 0usize;
            while advanced < d {
                let mut refs: Vec<&mut ExecState> =
                    lanes.iter_mut().map(|l| &mut l.state).collect();
                let got = plan.advance_batch_striped(&mut refs, d - advanced, &mut arenas);
                debug_assert!(got > 0, "live lanes always have cycles remaining");
                advanced += got;
                stats.steps += 1;
                stats.lane_steps += lanes.len() as u64;
            }
        } else {
            // Below the lane break-even the pack/transpose overhead
            // dominates: advance each lane straight to its own checkpoint
            // through the scalar core.
            for l in lanes.iter_mut() {
                let want = l.checkpoint - l.state.cycles();
                plan.advance(&mut l.state, want);
                stats.steps += 1;
                stats.lane_steps += 1;
            }
        }
        // Consult the policy for every lane sitting at its checkpoint,
        // with the scalar loop's exact semantics: a lane that just
        // consumed its full budget retires *without* a policy consult
        // (`early_exit = false`).
        let mut i = 0usize;
        while i < lanes.len() {
            let lane = &mut lanes[i];
            if lane.state.cycles() < lane.checkpoint {
                i += 1;
                continue;
            }
            lane.chunk_idx += 1;
            let consumed = lane.state.cycles();
            let early_exit = consumed < n && streaming.exit(&lane.state, &mut lane.book);
            if consumed < n && !early_exit {
                lane.checkpoint = (consumed + schedule.len_at(lane.chunk_idx)).min(n);
                i += 1;
                continue;
            }
            let lane = lanes.swap_remove(i);
            let outcome = StreamingOutcome::retire(plan, &lane.state, lane.chunk_idx, early_exit);
            source.complete(lane.tag, outcome);
            free.push(lane.state);
        }
    }
    stats
}
