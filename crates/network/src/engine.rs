//! The reusable batched inference front-end: one [`ExecPlan`] (cached
//! weight streams) shared immutably across the scheduler's worker pool
//! ([`crate::scheduler`]), whose workers pull images from a shared job
//! cursor into lane groups of up to
//! [`MAX_LANES`](aqfp_sc_bitstream::MAX_LANES) images, with recycled
//! [`ExecState`](crate::ExecState)s and a scalar fallback below the
//! measured lane break-even.
//!
//! The forward pass itself lives in [`crate::plan`] — this module only
//! owns the one-shot batch policy: a batch is a [`StreamingEngine`] run
//! with its defaults at chunk length N (one full-length chunk, no exits),
//! and per-image seeds derived via [`InferenceEngine::image_seed`] so
//! results never depend on scheduling.

use std::sync::Arc;

use aqfp_sc_nn::Tensor;

use crate::compile::CompiledNetwork;
use crate::plan::{argmax, derive, ExecPlan, Platform, TAG_IMAGE};
use crate::scheduler::drive_batch;
use crate::streaming::StreamingEngine;

/// Reusable, thread-safe stochastic inference engine over a
/// [`CompiledNetwork`].
///
/// Construction pays the full weight-stream generation cost once (the
/// engine owns an [`ExecPlan`]); every subsequent image only generates its
/// pixel streams and runs the word-level column-count pipeline as a single
/// full-length chunk. [`scores_batch`] / [`classify_batch`] share the
/// batch among `threads` scoped workers.
///
/// [`scores_batch`]: InferenceEngine::scores_batch
/// [`classify_batch`]: InferenceEngine::classify_batch
///
/// # Example
///
/// ```
/// use aqfp_sc_network::{build_model, ActivationStyle, CompiledNetwork};
/// use aqfp_sc_network::{InferenceEngine, NetworkSpec, Platform};
/// use aqfp_sc_nn::Tensor;
///
/// let spec = NetworkSpec::tiny(8);
/// let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 1);
/// let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
/// let engine = InferenceEngine::new(&compiled, 128, Platform::Aqfp);
/// let images = vec![Tensor::zeros(vec![1, 8, 8]); 3];
/// let classes = engine.classify_batch(&images, 42);
/// assert_eq!(classes.len(), 3);
/// // Bit-identical to the serial path:
/// let serial = compiled.classify_aqfp(&images[0], 128, InferenceEngine::image_seed(42, 0));
/// assert_eq!(classes[0], serial);
/// ```
pub struct InferenceEngine {
    plan: Arc<ExecPlan>,
    threads: usize,
}

impl InferenceEngine {
    /// Builds an engine for `net` at stream length `stream_len` on
    /// `platform`, generating and caching every weight/bias stream.
    ///
    /// The worker count defaults to [`std::thread::available_parallelism`]
    /// (see [`InferenceEngine::with_threads`]).
    ///
    /// # Panics
    ///
    /// Panics when `stream_len` is 0.
    pub fn new(net: &CompiledNetwork, stream_len: usize, platform: Platform) -> Self {
        Self::from_plan(Arc::new(ExecPlan::new(net, stream_len, platform)))
    }

    /// Wraps an already-built plan — e.g. one fetched from a
    /// [`ModelRegistry`](crate::ModelRegistry) — paying no weight-stream
    /// generation. The engine holds the plan alive; a registry hot-swap
    /// replaces the registry's handle without disturbing engines built
    /// from the previous one.
    pub fn from_plan(plan: Arc<ExecPlan>) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        InferenceEngine { plan, threads }
    }

    /// Overrides the worker-pool size used by the batch APIs (clamped to at
    /// least 1). The worker count never changes results, only wall-clock.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The execution plan this engine drives (shared, immutable).
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Shared handle to the plan (e.g. to register it or to build a
    /// second engine over the same cached streams).
    pub fn shared_plan(&self) -> Arc<ExecPlan> {
        Arc::clone(&self.plan)
    }

    /// The platform this engine simulates.
    pub fn platform(&self) -> Platform {
        self.plan.platform()
    }

    /// Stochastic stream length N in cycles.
    pub fn stream_len(&self) -> usize {
        self.plan.stream_len()
    }

    /// Configured worker-pool size.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of weight/bias streams generated and cached at construction.
    pub fn cached_streams(&self) -> usize {
        self.plan.cached_streams()
    }

    /// The per-image seed the batch APIs derive for image `index` from a
    /// batch `base` seed. Feeding this to the serial single-image entry
    /// points reproduces the batch member bit for bit.
    pub fn image_seed(base: u64, index: usize) -> u64 {
        derive(base, [TAG_IMAGE, index as u64, 0])
    }

    /// Raw class scores of one image under `image_seed`.
    ///
    /// # Panics
    ///
    /// Panics when the image shape does not match the compiled spec.
    pub fn scores(&self, image: &Tensor, image_seed: u64) -> Vec<f64> {
        let mut state = self.plan.new_state();
        self.plan.run_one_shot(&mut state, image, image_seed)
    }

    /// Classifies one image under `image_seed` (argmax of [`scores`]).
    ///
    /// [`scores`]: InferenceEngine::scores
    pub fn classify(&self, image: &Tensor, image_seed: u64) -> usize {
        argmax(&self.scores(image, image_seed))
    }

    /// Raw class scores for a batch, fanned out over the worker pool.
    /// Image `i` uses `Self::image_seed(base_seed, i)`.
    pub fn scores_batch(&self, images: &[Tensor], base_seed: u64) -> Vec<Vec<f64>> {
        let refs: Vec<&Tensor> = images.iter().collect();
        self.run_batch(&refs, base_seed)
    }

    /// Classifies a batch, fanned out over the worker pool. Image `i` uses
    /// `Self::image_seed(base_seed, i)`.
    pub fn classify_batch(&self, images: &[Tensor], base_seed: u64) -> Vec<usize> {
        let refs: Vec<&Tensor> = images.iter().collect();
        self.run_batch(&refs, base_seed).iter().map(|s| argmax(s)).collect()
    }

    /// Accuracy over a labelled set through the batch pipeline, or `None`
    /// for an empty sample set (an empty set has no accuracy — returning
    /// 0.0 would be indistinguishable from a model that got every sample
    /// wrong).
    pub fn evaluate(&self, samples: &[(Tensor, usize)], base_seed: u64) -> Option<f64> {
        let images: Vec<&Tensor> = samples.iter().map(|(x, _)| x).collect();
        let scores = self.run_batch(&images, base_seed);
        accuracy(&scores, samples, |s| argmax(s))
    }

    /// Shared batch driver: a [`StreamingEngine`] over this engine with
    /// its defaults at chunk length N — one full-length chunk, no exit
    /// policy, lane groups of up to `64 ·`
    /// [`stripe_width`](crate::stripe_width) images, this engine's worker
    /// count — runs the images through the scheduler's worker pool.
    /// Groups below [`lane_min`](crate::lane_min) lanes (small batches,
    /// tiny shares per worker) run the scalar core instead, which is
    /// bit-identical; the threshold is the measured per-platform
    /// break-even of the lane path.
    fn run_batch(&self, images: &[&Tensor], base_seed: u64) -> Vec<Vec<f64>> {
        let streaming = StreamingEngine::new(self, self.plan.stream_len());
        let (outcomes, _) = drive_batch(&streaming, images, base_seed);
        outcomes.into_iter().map(|o| o.scores).collect()
    }
}

/// Shared accuracy accumulation over per-sample outcomes: `None` for an
/// empty sample set (an empty set has no accuracy — 0.0 would read as a
/// 0 %-accurate model). Used by both the one-shot and streaming
/// `evaluate` front-ends.
pub(crate) fn accuracy<T>(
    outcomes: &[T],
    samples: &[(Tensor, usize)],
    class_of: impl Fn(&T) -> usize,
) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    debug_assert_eq!(outcomes.len(), samples.len());
    let correct = outcomes
        .iter()
        .zip(samples)
        .filter(|(o, (_, want))| class_of(o) == *want)
        .count();
    Some(correct as f64 / samples.len() as f64)
}
