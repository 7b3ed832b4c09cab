//! Progressive-precision streaming inference: evaluate an image in chunks
//! and stop as soon as the decision is stable.
//!
//! The stochastic stream length N is the paper's central accuracy/cost
//! knob — accuracy climbs with N while energy and latency scale linearly
//! with cycles (§V). A fixed-N engine spends the worst-case budget on every
//! image; the [`StreamingEngine`] instead drives the shared
//! [`ExecPlan`] chunk by chunk through a
//! [`ChunkSchedule`] and consults a pluggable [`ExitPolicy`] after each
//! chunk, so easy images pay a fraction of N and only ambiguous ones run
//! long.
//!
//! # The bit-identity invariant
//!
//! A streaming run driven to full N with [`ExitPolicy::Disabled`] is
//! **bit-identical** to the one-shot [`InferenceEngine::classify`] at the
//! same seed, on both [`Platform::Aqfp`] and [`Platform::Cmos`] — for
//! *any* chunk schedule whose lengths sum to N (enforced by
//! `tests/integration_streaming.rs` and the partition proptest in
//! `tests/integration_plan.rs`). This holds by construction: streaming and
//! one-shot runs execute the same [`ExecPlan::advance`](crate::ExecPlan)
//! core, whose output never depends on how N cycles are partitioned.
//!
//! # Lane-group batching
//!
//! The batch front-ends and [`StreamingEngine::drive_source`] hand their
//! jobs to the shared lane-group scheduler (`crate::scheduler`), which
//! reads everything it needs — plan, schedule, exit policy, worker count,
//! lane-group cap — from the [`StreamingEngine`]. Its workers pull jobs
//! from a [`LaneSource`] (a shared job cursor for batches, the caller's
//! queue for `drive_source`) into lane groups of up to [`MAX_LANES`]
//! in-flight images, consult the exit policy at each lane's own schedule
//! checkpoints, retire each lane straight into a [`StreamingOutcome`], and
//! refill retired lanes from the source so the stripe stays dense. The
//! exit rule itself lives in one place, [`StreamingEngine::exit`], which
//! both the scalar chunk loop and every lane call. The invariant extends
//! to this path: for every schedule, policy, thread count, and lane-group
//! size, the batched run reports the same label, scores, cycle count, and
//! chunk count per image as the scalar chunk loop of
//! [`StreamingEngine::classify`] — the scheduler advances each lane to
//! exactly the cycles the scalar loop would, and the offset classes of
//! [`ExecPlan::advance_batch`](crate::ExecPlan::advance_batch) — each
//! image-independent stream read at every class's offset and broadcast to
//! that class's lanes — keep mixed-offset words bit-exact after
//! compaction.

use aqfp_sc_bitstream::{MAX_LANES, WORD_BITS};
use aqfp_sc_nn::Tensor;

use crate::engine::{accuracy, InferenceEngine};
use crate::plan::{argmax, ExecPlan, ExecState, Platform};
use crate::scheduler::{drive_batch, drive_lane_source, stripe_width, GroupStats};

/// When a streaming run is allowed to stop consuming cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExitPolicy {
    /// Never exit early: always consume the full stream length N. With
    /// this policy the streaming result is bit-identical to the one-shot
    /// engine.
    Disabled,
    /// Exit once the top-two score margin exceeds `z` standard errors of
    /// the SC estimator.
    ///
    /// After `t` cycles a bipolar SC estimate `v̂` of value `v` has
    /// `Var[v̂] = (1 − v²)/t` (the Bernoulli variance of the stream,
    /// paper §V). On the AQFP path the policy plugs the running top-two
    /// estimates into that bound, so the margin's standard error is
    /// `σ(t) = √(((1 − v̂₁²) + (1 − v̂₂²))/t)`; the CMOS APC score sums
    /// `rows` unipolar estimates, for which the worst-case bound is
    /// `σ(t) = √(rows/(2t))`. The run exits when `margin ≥ z · σ(t)` —
    /// the decision is `z` sigma away from flipping.
    Margin {
        /// Confidence multiplier (2–4 are reasonable; higher exits later).
        z: f64,
    },
    /// Exit once the argmax class has been identical for `k` consecutive
    /// chunks (including the current one). `k = 1` exits after the first
    /// chunk; larger `k` demands a longer stable streak.
    StableArgmax {
        /// Required streak length in chunks.
        k: usize,
    },
}

/// How the per-image cycle budget N is partitioned into chunks (the exit
/// policy is consulted at every chunk boundary).
///
/// Chunk lengths are clamped to the cycles remaining, so every schedule
/// sums to at most N and the final chunk may be short. With the policy
/// disabled, **every** schedule is bit-identical to the one-shot engine —
/// the schedule only moves the policy checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkSchedule {
    /// Every chunk has the same length (the classic `chunk_len` mode).
    Fixed {
        /// Chunk length in cycles (≥ 1).
        len: usize,
    },
    /// Geometric growth: chunk `i` has `round(first · factor^i)` cycles,
    /// capped at `cap`. Small early chunks give confident images frequent
    /// early exit opportunities; growing chunks amortise the per-chunk
    /// overhead (state resume, count reduction) once a run has proven
    /// ambiguous and is likely to go long.
    Geometric {
        /// Length of the first chunk in cycles (≥ 1).
        first: usize,
        /// Per-chunk growth factor (≥ 1.0; 2.0 doubles every chunk).
        factor: f64,
        /// Upper bound on any single chunk's length.
        cap: usize,
    },
}

impl ChunkSchedule {
    /// A fixed-length schedule.
    ///
    /// # Panics
    ///
    /// Panics when `len` is 0.
    pub fn fixed(len: usize) -> Self {
        assert!(len > 0, "chunk length must be at least 1 cycle");
        ChunkSchedule::Fixed { len }
    }

    /// A geometric-growth schedule: `first, first·factor, first·factor², …`
    /// capped at `cap` cycles per chunk.
    ///
    /// # Panics
    ///
    /// Panics when `first` is 0, `factor < 1.0`, or `cap < first`.
    pub fn geometric(first: usize, factor: f64, cap: usize) -> Self {
        assert!(first > 0, "first chunk must be at least 1 cycle");
        assert!(factor >= 1.0, "growth factor must be >= 1.0");
        assert!(cap >= first, "cap must be at least the first chunk length");
        ChunkSchedule::Geometric { first, factor, cap }
    }

    /// Length of chunk `index` (0-based), before clamping to the cycles
    /// remaining. Always at least 1.
    ///
    /// # Saturation contract
    ///
    /// Geometric growth is computed in `f64` and brought back with Rust's
    /// *saturating* float→int cast, so no `index`/`factor` combination can
    /// panic, wrap, or return 0:
    ///
    /// * a product beyond `usize::MAX` (huge `factor`, huge `index`, or
    ///   both — including an infinite intermediate) saturates to
    ///   `usize::MAX` and is clamped to `cap`;
    /// * `index` is clamped to `i32::MAX` before `powi`; growth is
    ///   monotone for `factor > 1`, so any such index is deep in
    ///   saturation and still lands on `cap` (`factor = 1` stays `first`);
    /// * a NaN `factor` (constructible via the public enum fields) casts
    ///   to 0 and lands on the floor of 1.
    pub fn len_at(&self, index: usize) -> usize {
        match *self {
            ChunkSchedule::Fixed { len } => len.max(1),
            ChunkSchedule::Geometric { first, factor, cap } => {
                let grown = (first as f64) * factor.powi(index.min(i32::MAX as usize) as i32);
                (grown.round() as usize).clamp(1, cap.max(1))
            }
        }
    }
}

/// Result of one streamed classification.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingOutcome {
    /// Predicted class (argmax of `scores`).
    pub class: usize,
    /// Class scores at the cycle the run stopped.
    pub scores: Vec<f64>,
    /// Cycles actually consumed (≤ the engine's stream length), read from
    /// the execution state's cycle counter.
    pub cycles: usize,
    /// Chunks evaluated.
    pub chunks: usize,
    /// Whether the exit policy fired before full N.
    pub early_exit: bool,
}

impl StreamingOutcome {
    /// The outcome of a run that stopped after `chunks` checkpoints with
    /// `state`'s cycles consumed: its scores and their argmax.
    pub(crate) fn retire(
        plan: &ExecPlan,
        state: &ExecState,
        chunks: usize,
        early_exit: bool,
    ) -> Self {
        let scores = plan.scores(state);
        StreamingOutcome {
            class: argmax(&scores),
            scores,
            cycles: state.cycles(),
            chunks,
            early_exit,
        }
    }
}

/// Aggregate result of [`StreamingEngine::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingEvaluation {
    /// Fraction of samples classified correctly.
    pub accuracy: f64,
    /// Mean cycles consumed per image.
    pub avg_cycles: f64,
    /// Fraction of images that exited before full N.
    pub early_exit_fraction: f64,
}

impl StreamingEvaluation {
    /// Fraction of the fixed-N cycle budget saved on average
    /// (`1 − avg_cycles / n`), or 0.0 for a zero budget (a run with no
    /// cycles has nothing to save — dividing by 0 would yield ±∞/NaN).
    pub fn cycle_savings(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        1.0 - self.avg_cycles / n as f64
    }
}

/// Chunked early-exit wrapper around an [`InferenceEngine`].
///
/// Construction is free — the underlying engine's [`ExecPlan`] (cached
/// weight streams) is shared. The engine's `stream_len` is the full budget
/// N; the [`ChunkSchedule`] sets the evaluation granularity (the final
/// chunk is shortened when the schedule does not divide N).
///
/// # Example
///
/// ```
/// use aqfp_sc_network::{build_model, ActivationStyle, CompiledNetwork};
/// use aqfp_sc_network::{ChunkSchedule, ExitPolicy, InferenceEngine, NetworkSpec, Platform, StreamingEngine};
/// use aqfp_sc_nn::Tensor;
///
/// let spec = NetworkSpec::tiny(8);
/// let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 1);
/// let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
/// let engine = InferenceEngine::new(&compiled, 256, Platform::Aqfp);
/// let streaming = StreamingEngine::new(&engine, 64)
///     .with_schedule(ChunkSchedule::geometric(16, 2.0, 64))
///     .with_policy(ExitPolicy::Margin { z: 3.0 });
/// let outcome = streaming.classify(&Tensor::zeros(vec![1, 8, 8]), 42);
/// assert!(outcome.cycles <= 256 && outcome.class < 10);
/// // With the policy disabled, full N is bit-identical to the one-shot path:
/// let full = StreamingEngine::new(&engine, 64).classify(&Tensor::zeros(vec![1, 8, 8]), 42);
/// assert_eq!(full.scores, engine.scores(&Tensor::zeros(vec![1, 8, 8]), 42));
/// ```
pub struct StreamingEngine<'e> {
    engine: &'e InferenceEngine,
    schedule: ChunkSchedule,
    policy: ExitPolicy,
    min_cycles: usize,
    /// CMOS worst-case standard-error scale of the top-two margin:
    /// σ(t) = cmos_sigma_factor/√t (unused on AQFP, which plugs the
    /// running estimates into the exact Bernoulli bound).
    cmos_sigma_factor: f64,
    /// Max lanes per lane group of the batch front-ends and
    /// [`StreamingEngine::drive_source`] (1..=[`MAX_LANES`]).
    lane_limit: usize,
}

impl<'e> StreamingEngine<'e> {
    /// Wraps `engine` for chunked evaluation with fixed chunks of
    /// `chunk_len` cycles and the exit policy disabled (full-N,
    /// bit-identical runs).
    ///
    /// # Panics
    ///
    /// Panics when `chunk_len` is 0.
    pub fn new(engine: &'e InferenceEngine, chunk_len: usize) -> Self {
        // Output-layer fan-in drives the CMOS margin variance bound.
        let rows = engine.plan().output_fan_in().unwrap_or(2);
        let cmos_sigma_factor = (rows as f64 / 2.0).sqrt();
        StreamingEngine {
            engine,
            schedule: ChunkSchedule::fixed(chunk_len),
            policy: ExitPolicy::Disabled,
            min_cycles: 0,
            cmos_sigma_factor,
            lane_limit: WORD_BITS * stripe_width(engine.plan().platform()),
        }
    }

    /// Caps the lane-group size of the batch front-ends and
    /// [`StreamingEngine::drive_source`] (clamped to `1..=MAX_LANES`;
    /// default `64 ·` [`stripe_width`] of the platform). Never changes
    /// results, only throughput: the serving front-end sets it from its
    /// configured lane limit, and the break-even experiments and the
    /// group-size equivalence proptests sweep it.
    pub fn with_lane_group(mut self, limit: usize) -> Self {
        self.lane_limit = limit.clamp(1, MAX_LANES);
        self
    }

    /// Sets the exit policy (default: [`ExitPolicy::Disabled`]).
    pub fn with_policy(mut self, policy: ExitPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the chunk schedule (default: fixed at the `chunk_len`
    /// passed to [`StreamingEngine::new`]). The schedule never changes
    /// bits with the policy disabled — it only moves the policy
    /// checkpoints.
    pub fn with_schedule(mut self, schedule: ChunkSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets a floor of cycles that must be consumed before the exit policy
    /// is consulted (default 0; rounded up to whole chunks by evaluation).
    pub fn with_min_cycles(mut self, min_cycles: usize) -> Self {
        self.min_cycles = min_cycles;
        self
    }

    /// The first chunk's granularity in cycles (the uniform granularity for
    /// a fixed schedule).
    pub fn chunk_len(&self) -> usize {
        self.schedule.len_at(0)
    }

    /// The configured chunk schedule.
    pub fn schedule(&self) -> ChunkSchedule {
        self.schedule
    }

    /// The configured exit policy.
    pub fn policy(&self) -> ExitPolicy {
        self.policy
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &InferenceEngine {
        self.engine
    }

    /// Max lanes per lane group (see [`StreamingEngine::with_lane_group`]).
    pub(crate) fn lane_limit(&self) -> usize {
        self.lane_limit
    }

    /// Streams one image under `image_seed` until the exit policy fires or
    /// the full stream length is consumed.
    ///
    /// This scalar chunk loop — schedule-driven `advance` calls with a
    /// policy check at every chunk boundary short of N — is the reference
    /// every lane-group run is checked against.
    pub fn classify(&self, image: &Tensor, image_seed: u64) -> StreamingOutcome {
        let plan = self.engine.plan();
        let n = plan.stream_len();
        let mut state = plan.new_state();
        plan.begin(&mut state, image, image_seed);
        let mut book = PolicyBook::default();
        let mut chunks = 0usize;
        let mut early_exit = false;
        while state.cycles() < n {
            plan.advance(&mut state, self.schedule.len_at(chunks));
            chunks += 1;
            if state.cycles() < n && self.exit(&state, &mut book) {
                early_exit = true;
                break;
            }
        }
        StreamingOutcome::retire(plan, &state, chunks, early_exit)
    }

    /// Streams a batch, fanned out over the engine's worker pool. Image `i`
    /// uses [`InferenceEngine::image_seed`]`(base_seed, i)`, so a full-N
    /// run with the policy disabled reproduces
    /// [`InferenceEngine::classify_batch`] bit for bit.
    pub fn classify_batch(&self, images: &[Tensor], base_seed: u64) -> Vec<StreamingOutcome> {
        self.classify_batch_with_stats(images, base_seed).0
    }

    /// [`StreamingEngine::classify_batch`] plus the word-occupancy
    /// accounting of the run: how many kernel advance steps were taken and
    /// how full the lane stripe was on average. With more than one worker
    /// the accounting depends on which images each worker drew from the
    /// shared job cursor, so it can differ between runs; the outcomes
    /// cannot.
    pub fn classify_batch_with_stats(
        &self,
        images: &[Tensor],
        base_seed: u64,
    ) -> (Vec<StreamingOutcome>, GroupStats) {
        let refs: Vec<&Tensor> = images.iter().collect();
        drive_batch(self, &refs, base_seed)
    }

    /// Accuracy and cycle statistics over a labelled set, or `None` for an
    /// empty sample set.
    pub fn evaluate(
        &self,
        samples: &[(Tensor, usize)],
        base_seed: u64,
    ) -> Option<StreamingEvaluation> {
        self.evaluate_with_stats(samples, base_seed).0
    }

    /// [`StreamingEngine::evaluate`] plus the word-occupancy accounting of
    /// the run.
    pub fn evaluate_with_stats(
        &self,
        samples: &[(Tensor, usize)],
        base_seed: u64,
    ) -> (Option<StreamingEvaluation>, GroupStats) {
        let images: Vec<&Tensor> = samples.iter().map(|(x, _)| x).collect();
        let (outcomes, stats) = drive_batch(self, &images, base_seed);
        (Self::summarise(&outcomes, samples), stats)
    }

    fn summarise(
        outcomes: &[StreamingOutcome],
        samples: &[(Tensor, usize)],
    ) -> Option<StreamingEvaluation> {
        let accuracy = accuracy(outcomes, samples, |o| o.class)?;
        // Per-image cycle counts come straight from each run's ExecState
        // cycle counter (carried on the outcome) — nothing is recomputed.
        let total_cycles: u64 = outcomes.iter().map(|o| o.cycles as u64).sum();
        let early = outcomes.iter().filter(|o| o.early_exit).count();
        let n = samples.len() as f64;
        Some(StreamingEvaluation {
            accuracy,
            avg_cycles: total_cycles as f64 / n,
            early_exit_fraction: early as f64 / n,
        })
    }

    /// Drives a live [`LaneSource`] to exhaustion through the lane-group
    /// scheduler, on the calling thread, under this engine's configured
    /// schedule, exit policy, and lane-group cap.
    ///
    /// This is the serving entry point: unlike the batch APIs, it does not
    /// know the set of images up front — the scheduler asks
    /// `source` for more work at every refill point (including mid-run,
    /// whenever lanes retire), so requests that arrive while a group is
    /// already in flight ride freshly freed lanes instead of waiting for
    /// the next dispatch. Outcomes are pushed back through
    /// [`LaneSource::complete`] as each lane retires.
    ///
    /// Results are bit-identical to a per-image scalar run at the same
    /// seed (the lane-group invariant): a job's scores, cycle count, and
    /// chunk count never depend on when the source produced it, which
    /// other jobs shared its group, or the lane it landed in. Returns the
    /// word-occupancy accounting of the run.
    pub fn drive_source(&self, source: &mut dyn LaneSource) -> GroupStats {
        drive_lane_source(self, source)
    }

    /// The exit rule, consulted at every schedule checkpoint short of N by
    /// the scalar chunk loop of [`StreamingEngine::classify`] and by every
    /// lane of the scheduler alike, so batched and scalar runs retire each
    /// image at the same cycle. `book` is the image's bookkeeping across
    /// checkpoints, fresh for every image. Returns `true` to stop the run.
    pub(crate) fn exit(&self, state: &ExecState, book: &mut PolicyBook) -> bool {
        let plan = self.engine.plan();
        let consumed = state.cycles();
        match self.policy {
            ExitPolicy::Disabled => false,
            ExitPolicy::Margin { z } => {
                if consumed < self.min_cycles {
                    return false;
                }
                let scores = plan.scores(state);
                let (best, second) = top_two(&scores);
                let sigma = match plan.platform() {
                    // Exact Bernoulli variance of the two running bipolar
                    // estimates.
                    Platform::Aqfp => (((1.0 - best * best).max(0.0)
                        + (1.0 - second * second).max(0.0))
                        / consumed as f64)
                        .sqrt(),
                    Platform::Cmos => self.cmos_sigma_factor / (consumed as f64).sqrt(),
                };
                best - second >= z * sigma
            }
            ExitPolicy::StableArgmax { k } => {
                // The streak advances at *every* checkpoint, even below
                // the min-cycles floor.
                let winner = argmax(&plan.scores(state));
                book.stable_chunks = if book.last_argmax == Some(winner) {
                    book.stable_chunks + 1
                } else {
                    1
                };
                book.last_argmax = Some(winner);
                consumed >= self.min_cycles && book.stable_chunks >= k
            }
        }
    }
}

/// One classification job handed to [`StreamingEngine::drive_source`]: an
/// owned image (the plan copies what it needs at lane start, so the tensor
/// is dropped as soon as the lane begins), the image-stream seed, and an
/// opaque routing tag echoed back on [`LaneSource::complete`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneJob {
    /// Image to classify (shape must match the compiled spec).
    pub image: Tensor,
    /// Image-stream seed — the same seed fed to
    /// [`InferenceEngine::scores`] reproduces this job's scores bit for
    /// bit.
    pub seed: u64,
    /// Caller-chosen tag identifying the job in
    /// [`LaneSource::complete`].
    pub tag: u64,
}

/// A live feed of classification jobs for
/// [`StreamingEngine::drive_source`] — the "refill from a queue" face of
/// the lane-group scheduler that a serving front-end implements over its
/// request queue.
pub trait LaneSource {
    /// The next job ready *right now*, or `None` when nothing is pending
    /// (the scheduler asks again at the next refill point while lanes are
    /// live; once no lanes are live and `next` returns `None`, the drive
    /// returns).
    fn next(&mut self) -> Option<LaneJob>;

    /// Delivery of one job's outcome, in retirement order (not submission
    /// order) — tag is the [`LaneJob::tag`] the job carried.
    fn complete(&mut self, tag: u64, outcome: StreamingOutcome);
}

/// Per-image bookkeeping of [`StreamingEngine::exit`] across checkpoints
/// (the argmax stability streak), fresh for every image or refilled lane.
#[derive(Default)]
pub(crate) struct PolicyBook {
    last_argmax: Option<usize>,
    stable_chunks: usize,
}

/// The largest and second-largest scores (the second defaults to the best
/// for fewer than two classes, making the margin 0).
fn top_two(scores: &[f64]) -> (f64, f64) {
    let mut best = f64::NEG_INFINITY;
    let mut second = f64::NEG_INFINITY;
    for &s in scores {
        if s > best {
            second = best;
            best = s;
        } else if s > second {
            second = s;
        }
    }
    if second == f64::NEG_INFINITY {
        (best, best)
    } else {
        (best, second)
    }
}

#[cfg(test)]
mod tests {
    use super::ChunkSchedule;

    #[test]
    fn geometric_len_at_saturates_at_extreme_index() {
        // factor 2 overflows f64 into +inf long before i32::MAX chunks;
        // the saturating cast lands on usize::MAX and the clamp on cap.
        let s = ChunkSchedule::geometric(16, 2.0, 4096);
        assert_eq!(s.len_at(10_000), 4096);
        assert_eq!(s.len_at(i32::MAX as usize), 4096);
        assert_eq!(s.len_at(usize::MAX), 4096);
    }

    #[test]
    fn geometric_len_at_saturates_at_extreme_factor() {
        // One step of a huge factor is already past usize::MAX.
        let s = ChunkSchedule::geometric(3, 1e300, 1024);
        assert_eq!(s.len_at(0), 3);
        assert_eq!(s.len_at(1), 1024);
        // Two steps make an infinite intermediate — still cap, no panic.
        assert_eq!(s.len_at(2), 1024);
        // Huge factor AND huge index together.
        assert_eq!(s.len_at(usize::MAX), 1024);
    }

    #[test]
    fn geometric_len_at_extreme_cap_saturates_to_usize_max() {
        let s = ChunkSchedule::geometric(1, 2.0, usize::MAX);
        assert_eq!(s.len_at(10_000), usize::MAX);
    }

    #[test]
    fn len_at_never_returns_zero_for_degenerate_fields() {
        // The public enum fields allow degenerate values the constructors
        // reject; len_at still honours its ≥ 1 contract.
        assert_eq!(ChunkSchedule::Fixed { len: 0 }.len_at(7), 1);
        let nan = ChunkSchedule::Geometric { first: 5, factor: f64::NAN, cap: 64 };
        // NaN casts to 0, which the clamp floors at 1.
        assert_eq!(nan.len_at(3), 1);
        let zero_cap = ChunkSchedule::Geometric { first: 1, factor: 1.0, cap: 0 };
        assert_eq!(zero_cap.len_at(0), 1);
    }

    #[test]
    fn geometric_len_at_unit_factor_stays_first_at_any_index() {
        let s = ChunkSchedule::geometric(37, 1.0, 1 << 20);
        assert_eq!(s.len_at(0), 37);
        assert_eq!(s.len_at(usize::MAX), 37);
    }
}
