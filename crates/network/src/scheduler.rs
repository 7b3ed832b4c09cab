//! The shared lane-group scheduler: both batched front-ends — the
//! one-shot [`InferenceEngine`](crate::InferenceEngine) and the
//! early-exit [`StreamingEngine`](crate::StreamingEngine) — drive images
//! through the batch-transposed kernel path in stripes of up to
//! [`MAX_LANES`] lanes (`64·W` for stripe width `W ∈ {1, 2, 4}`), with
//! per-lane schedule checkpoints and retire-and-refill compaction.
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
//! (the partition invariant of [`ExecPlan::advance`]).
//!
//! # Retire and refill
//!
//! The exit policy is consulted only for a lane sitting exactly at its own
//! checkpoint, with the same per-image bookkeeping the scalar streaming
//! loop keeps — so a batched run retires every image at the same cycle,
//! with the same scores, as the scalar path. A retired lane's `ExecState`
//! goes to a free pool and is immediately re-`begin`-ed on the next queued
//! image, keeping the stripe dense instead of dragging finished images to
//! full N. Refilled lanes start at absolute cycle 0 while survivors sit
//! mid-stream; [`ExecPlan::advance_batch_in`] groups the lanes into
//! offset classes and reads every image-independent stream in place at
//! each class's offset, broadcast to that class's lanes, which is what
//! makes compaction bit-drift-free. Each group advance runs at the
//! narrowest stripe width covering the live lane count
//! ([`ExecPlan::advance_batch_striped`]) — stripe-width independence of
//! the kernels makes the per-step choice invisible in the bits.
//!
//! # Live sources
//!
//! The core loop ([`drive_lane_source`]) pulls work from a [`JobSource`]
//! rather than a pre-known slice: at every refill point it asks the source
//! for the next job, so a serving front-end can feed requests that arrive
//! *while a group is already in flight* straight into freshly retired
//! lanes. The slice-based [`drive_lane_groups`] is a thin adapter over the
//! same core; because lane composition never affects bits (each lane
//! reads the image-independent streams at its own offset), a job's result
//! is independent of when the source produced it.

use std::borrow::Borrow;

use aqfp_sc_bitstream::MAX_LANES;
use aqfp_sc_nn::Tensor;

use crate::plan::{ExecPlan, ExecState, Platform, StripeArenas};
use crate::streaming::ChunkSchedule;

/// Smallest lane group the batch-transposed kernel path is worth engaging
/// for; smaller groups run the scalar core, which is bit-identical — the
/// threshold is purely a throughput knob.
///
/// Measured break-even (the `calibrate` bench in `crates/bench`: trained
/// tiny net, N=512, one thread, one-shot full-length schedule — re-run it
/// when retuning for a new host; numbers below from the reference
/// container, see ROADMAP): with the fused count→FSM sweeps the AQFP lane
/// path is already ~1.7× the scalar core at 8 lanes (~3.2× at 16, ~6× at
/// 32, ~9× at 64, ~11× at 256), so every group the scheduler can form is
/// worth batching. On CMOS the bit-parallel scalar core is much faster to
/// begin with: 8 lanes is exact break-even (1.0×, inside host noise), and
/// the lane path pulls clearly ahead from 16 lanes (~2×, climbing to
/// ~5.7× at 64 and ~6.3× at 256 with full stripes).
pub fn lane_min(platform: Platform) -> usize {
    match platform {
        Platform::Aqfp => 8,
        Platform::Cmos => 16,
    }
}

/// Stripe width `W` (64-bit words per [`Stripe`](aqfp_sc_bitstream::Stripe),
/// i.e. `64·W` lanes per group) the batch-transposed path targets on this
/// platform — the lane-group capacity the front-ends request. `W = 1` is
/// the zero-regression 64-lane baseline; the scheduler still drops to the
/// narrowest width covering the live lanes per step, so a wide target
/// never penalises a draining group.
///
/// Measured break-even (same `calibrate` bench as [`lane_min`]): on both
/// platforms the per-chunk cost of a group advance is dominated by work
/// proportional to the stripe width only while lanes are live, and the
/// auto-vectorised `[u64; W]` plane ops amortise pack/broadcast overhead
/// further with every doubling — W=4 is the widest supported stripe and
/// measures fastest per image on both platforms at full occupancy
/// (AQFP ~10.9× scalar, CMOS ~6.3× scalar at 256 lanes), so both pick
/// it. The 128-lane row trails 64 slightly on both platforms (a W=2
/// stripe pays two words per op over lanes a single full word already
/// covers), which is why the scheduler drops to the narrowest covering
/// width as a group drains instead of staying wide.
pub fn stripe_width(platform: Platform) -> usize {
    match platform {
        Platform::Aqfp => 4,
        Platform::Cmos => 4,
    }
}

/// Per-lane early-exit decision logic, consulted only when a lane reaches
/// one of its own schedule checkpoints with cycles still remaining. The
/// `Book` is the per-image bookkeeping carried across checkpoints (e.g.
/// the argmax stability streak); it starts fresh at `Default` every time a
/// lane is (re)filled.
pub(crate) trait LanePolicy {
    /// Cross-checkpoint bookkeeping carried per lane.
    type Book: Default;

    /// Returns `true` to retire the lane early. Must depend only on `plan`,
    /// `state`, and `book` — never on lane position or group composition —
    /// so batched and scalar runs make identical decisions.
    fn exit(&self, plan: &ExecPlan, state: &ExecState, book: &mut Self::Book) -> bool;
}

/// A policy that never exits early: one-shot batch semantics (every lane
/// runs to full N; with a full-length schedule there is exactly one
/// checkpoint, at N).
pub(crate) struct NoExit;

impl LanePolicy for NoExit {
    type Book = ();

    fn exit(&self, _plan: &ExecPlan, _state: &ExecState, _book: &mut ()) -> bool {
        false
    }
}

/// Result of one lane's run, in the same terms as the scalar streaming
/// loop reports.
pub(crate) struct LaneOutcome {
    /// Class scores at the cycle the lane retired.
    pub scores: Vec<f64>,
    /// Cycles consumed.
    pub cycles: usize,
    /// Schedule checkpoints reached (the scalar loop's chunk count).
    pub chunks: usize,
    /// Whether the policy fired before full N.
    pub early_exit: bool,
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

    /// Folds another accumulator in (workers sum their per-slice stats).
    pub fn merge(&mut self, other: GroupStats) {
        self.steps += other.steps;
        self.lane_steps += other.lane_steps;
    }
}

/// One unit of work pulled from a [`JobSource`]: an image, its stream
/// seed, and an opaque tag the source uses to route the outcome back to
/// whoever asked for it.
pub(crate) struct SourcedJob<I> {
    pub image: I,
    pub seed: u64,
    pub tag: u64,
}

/// A feed of classification jobs for the lane-group core. `next_job` is
/// consulted at every refill point — including mid-run, after lanes
/// retire — so the source may produce jobs that did not exist when the
/// drive started (a live request queue). `deliver` receives each job's
/// outcome as soon as its lane retires, in retirement order (not
/// submission order).
pub(crate) trait JobSource {
    /// How the source hands over image data. `&Tensor` for slice-backed
    /// sources (no copy), owned `Tensor` for queues that transfer
    /// ownership; [`ExecPlan::begin`] copies what it needs, so the image
    /// is dropped once the lane starts.
    type Img: Borrow<Tensor>;

    /// The next job ready *right now*, or `None` to leave the lane empty
    /// this round (the core asks again at the next refill point while any
    /// lane is live; once no lanes are live and `next_job` returns `None`,
    /// the drive returns).
    fn next_job(&mut self) -> Option<SourcedJob<Self::Img>>;

    /// Outcome delivery for the job tagged `tag`.
    fn deliver(&mut self, tag: u64, outcome: LaneOutcome);
}

/// One live lane: an in-flight image, its next checkpoint, and the
/// policy's per-image bookkeeping.
struct Lane<B> {
    state: ExecState,
    /// The source's routing tag for this job (results are delivered under
    /// it no matter when the lane retires).
    tag: u64,
    /// Schedule checkpoints reached so far (= the schedule index of the
    /// chunk currently in flight).
    chunk_idx: usize,
    /// Absolute cycle of the next policy consult, capped at N.
    checkpoint: usize,
    book: B,
}

/// Slice adapter: feeds a pre-known image/seed slice to the core and
/// collects outcomes back into input order.
struct SliceFeed<'a> {
    images: &'a [&'a Tensor],
    seeds: &'a [u64],
    next: usize,
    results: Vec<Option<LaneOutcome>>,
}

impl<'a> JobSource for SliceFeed<'a> {
    type Img = &'a Tensor;

    fn next_job(&mut self) -> Option<SourcedJob<&'a Tensor>> {
        let i = self.next;
        if i >= self.images.len() {
            return None;
        }
        self.next += 1;
        Some(SourcedJob { image: self.images[i], seed: self.seeds[i], tag: i as u64 })
    }

    fn deliver(&mut self, tag: u64, outcome: LaneOutcome) {
        self.results[tag as usize] = Some(outcome);
    }
}

/// Drives `images` (with per-image `seeds`) to completion through the
/// plan, keeping up to `lane_limit` lanes in flight and consulting
/// `policy` at each lane's own schedule checkpoints. Groups below
/// `min_batch_lanes` advance through the scalar core instead (bit-identical
/// either way — the threshold is purely a throughput knob). Returns one
/// outcome per image, in input order, and accumulates word-occupancy
/// accounting into `stats`.
#[allow(clippy::too_many_arguments)] // the scheduler knobs are all orthogonal
pub(crate) fn drive_lane_groups<P: LanePolicy>(
    plan: &ExecPlan,
    images: &[&Tensor],
    seeds: &[u64],
    schedule: ChunkSchedule,
    policy: &P,
    lane_limit: usize,
    min_batch_lanes: usize,
    stats: &mut GroupStats,
) -> Vec<LaneOutcome> {
    assert_eq!(images.len(), seeds.len(), "one seed per image");
    let mut feed = SliceFeed {
        images,
        seeds,
        next: 0,
        results: {
            let mut r: Vec<Option<LaneOutcome>> = Vec::new();
            r.resize_with(images.len(), || None);
            r
        },
    };
    drive_lane_source(plan, &mut feed, schedule, policy, lane_limit, min_batch_lanes, stats);
    feed.results.into_iter().map(|r| r.expect("every image retired")).collect()
}

/// The lane-group core over a live [`JobSource`]: keeps up to `lane_limit`
/// lanes in flight, refills from the source whenever lanes are free
/// (including mid-run, after retirements), and consults `policy` at each
/// lane's own schedule checkpoints. Returns once the source is drained and
/// every lane has retired. Outcomes go back through
/// [`JobSource::deliver`]; word-occupancy accounting accumulates into
/// `stats`.
#[allow(clippy::too_many_arguments)] // the scheduler knobs are all orthogonal
pub(crate) fn drive_lane_source<P: LanePolicy, S: JobSource>(
    plan: &ExecPlan,
    source: &mut S,
    schedule: ChunkSchedule,
    policy: &P,
    lane_limit: usize,
    min_batch_lanes: usize,
    stats: &mut GroupStats,
) {
    let n = plan.stream_len();
    let lane_limit = lane_limit.clamp(1, MAX_LANES);
    let mut free: Vec<ExecState> = Vec::new();
    let mut lanes: Vec<Lane<P::Book>> = Vec::new();
    let mut arenas = StripeArenas::default();
    loop {
        // Refill (and the initial fill): recycled states re-`begin` on
        // sourced jobs until the word is at capacity or the source has
        // nothing ready.
        while lanes.len() < lane_limit {
            let Some(job) = source.next_job() else { break };
            let mut state = free.pop().unwrap_or_else(|| plan.new_state());
            plan.begin(&mut state, job.image.borrow(), job.seed);
            if n == 0 {
                // Degenerate zero-length stream: the scalar loop never
                // advances and never consults the policy.
                let outcome = LaneOutcome {
                    scores: plan.scores(&state),
                    cycles: 0,
                    chunks: 0,
                    early_exit: false,
                };
                source.deliver(job.tag, outcome);
                free.push(state);
                continue;
            }
            lanes.push(Lane {
                checkpoint: schedule.len_at(0).min(n),
                state,
                tag: job.tag,
                chunk_idx: 0,
                book: P::Book::default(),
            });
        }
        if lanes.is_empty() {
            break;
        }
        // Advance the whole group to the nearest per-lane checkpoint.
        // Live lanes always have checkpoint > cycles, so d >= 1 and the
        // loop makes progress every iteration.
        let d = lanes.iter().map(|l| l.checkpoint - l.state.cycles()).min().unwrap();
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
            let retire = {
                let lane = &mut lanes[i];
                if lane.state.cycles() < lane.checkpoint {
                    i += 1;
                    continue;
                }
                lane.chunk_idx += 1;
                let consumed = lane.state.cycles();
                if consumed >= n {
                    Some(false)
                } else if policy.exit(plan, &lane.state, &mut lane.book) {
                    Some(true)
                } else {
                    lane.checkpoint = (consumed + schedule.len_at(lane.chunk_idx)).min(n);
                    None
                }
            };
            match retire {
                Some(early_exit) => {
                    let lane = lanes.swap_remove(i);
                    let outcome = LaneOutcome {
                        scores: plan.scores(&lane.state),
                        cycles: lane.state.cycles(),
                        chunks: lane.chunk_idx,
                        early_exit,
                    };
                    source.deliver(lane.tag, outcome);
                    free.push(lane.state);
                }
                None => i += 1,
            }
        }
    }
}
