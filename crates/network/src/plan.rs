//! The unified, chunk-resumable execution core: **one** forward-pass
//! implementation shared by every inference front-end.
//!
//! The paper's pipeline (SNG → XNOR multiply → sorter feature extraction /
//! pooling → majority-chain or APC/Btanh categorization) used to exist in
//! three copies — serial, batched one-shot, and chunk-streaming. This
//! module collapses them into a pair of types:
//!
//! * [`ExecPlan`] — everything that is a property of the *compiled network*
//!   on a chosen [`Platform`] at a chosen stream length N: the cached
//!   weight/bias bit-streams (generated once, image-independent; one
//!   `[row][words]` slab per layer), the layer topology and shapes, each
//!   layer's FSM (sorter FE, `Btanh` counter or sorter pool, chosen from
//!   the platform and the fan-in), and the absolute-parity neutral padding
//!   stream. It keeps no copy of the network. A plan is immutable and
//!   shareable across threads.
//! * [`ExecState`] — everything that is a property of one *in-flight
//!   image*: the per-pixel SNG cursors, one `i64` FSM register per neuron
//!   or sorter-pool window (sorter feedback or `Btanh` counter, on either
//!   platform), the CMOS pool selectors, the running class accumulators,
//!   and a reusable scratch arena
//!   (pixel chunk buffers, counts buffer, the lane scratch of the spatial
//!   orientation) so the chunk bookkeeping that used to allocate per
//!   chunk reuses persistent buffers, including the ping-pong activation
//!   arenas every layer of [`ExecPlan::advance`] writes into in place. A
//!   state holds no weight stream: every chunk reads the plan's cached
//!   streams in place at its absolute offset.
//!
//! The single entry point is [`ExecPlan::advance`]: evaluate the next
//! `max_cycles` cycles of the whole pipeline and fold them into the state.
//! A one-shot inference is exactly one chunk of length N; a streaming run
//! is many smaller chunks. Because there is only one implementation, the
//! serial [`CompiledNetwork::classify_aqfp`]-style wrappers, the batched
//! [`crate::InferenceEngine`], and the chunked [`crate::StreamingEngine`]
//! are bit-identical **by construction**: any partition of N cycles into
//! `advance` calls produces the same bits (enforced by the partition
//! proptest in `tests/integration_plan.rs`).
//!
//! # Two lane orientations
//!
//! Both cores run the same lane kernel and FSM sweeps
//! (`run_rows_resume_into`). [`ExecPlan::advance_batch_striped`] puts up
//! to `64·W` **images** in the lanes. [`ExecPlan::advance`] runs a lone
//! image's conv and pool layers with one output channel's **positions**
//! in the lanes, at the narrowest stripe width covering them, and unpacks
//! the outputs to per-neuron streams; its dense layers run one neuron at a
//! time. A `Valid` conv whose kernel covers its whole input has one
//! position and is planned as the dense layer it equals. Each neuron sees
//! the same counts and FSM steps either way.
//!
//! Both orientations score classes through one output head, which folds
//! one 64-cycle word of one class for one image at that image's absolute
//! offset. A lane group first transposes its packed head inputs back into
//! one word per lane, 64 lanes and 64 cycles at a time.
//!
//! A `Same` conv's tap that falls outside the image reads the `0101…`
//! neutral pad in its lane, at that lane's absolute cycle, under the one
//! rule `LaneRow::Broadcast(neutral).word(t, classes)`: a lane group
//! builds the pad plane once per chunk at each class's offset, and a lone
//! image masks the same words into the out-of-bounds lanes of its tap
//! planes.
//!
//! # Seed discipline
//!
//! Two independent RNG domains keep every front-end bit-identical:
//!
//! * **Weight domain** — every cached weight/bias stream draws from its own
//!   generator, seeded by mixing the network's
//!   [stream seed](CompiledNetwork::stream_seed) with the layer/row/column
//!   coordinates of the weight. Any plan built from the same compiled
//!   network caches byte-identical streams.
//! * **Image domain** — the per-run `image_seed` drives the input-pixel
//!   SNGs and the (CMOS) pooling selectors. Every pixel owns its own SNG,
//!   keyed by its raster index (the paper's one-SNG-per-input wiring),
//!   which is also what lets a chunked run resume each pixel's stream
//!   exactly where the previous chunk stopped.
//!
//! # Absolute-cycle parity
//!
//! The `0101…` neutral stream (zero-valued padding rows, even-width sorter
//! pads, even-fan-in majority-chain pads) is indexed by *absolute* cycle,
//! not chunk-local cycle: like every weight stream it is read in place at
//! the chunk's offset, so a chunk starting at an odd offset sees it start
//! with 0. Restarting the pattern per chunk would drift every odd-offset
//! count by one.

use aqfp_sc_bitstream::{
    column_counts_into, pack_lanes_into, transpose64, unpack_lanes_into, Bipolar, BitStream,
    BitsAsWords, KernelRow, LaneRow, OffsetClasses, SplitMix64, Sng, Stripe, ThermalRng,
    WORD_BITS,
};
use aqfp_sc_core::baseline::Btanh;
use aqfp_sc_core::{AveragePooling, FeatureExtraction};
use aqfp_sc_nn::{Padding, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::artifact::ModelFingerprint;
use crate::compile::{CompiledLayer, CompiledNetwork};


/// Which hardware executes the stochastic pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Sorter-based feature extraction and pooling, majority-chain
    /// categorization, true-RNG number generators.
    Aqfp,
    /// The CMOS SC baseline: APC + Btanh counters, mux pooling,
    /// pseudo-random number generators.
    Cmos,
}

/// Domain tags separating the independent RNG streams (arbitrary odd
/// constants; only inequality matters). `TAG_PIXEL` is mixed with the
/// pixel's raster index: every pixel owns its own SNG.
pub(crate) const TAG_WEIGHT: u64 = 0x57E1_6877_0000_0001;
pub(crate) const TAG_BIAS: u64 = 0xB1A5_0000_0000_0003;
pub(crate) const TAG_PIXEL: u64 = 0x01AE_D1D0_0000_0005;
pub(crate) const TAG_POOL: u64 = 0x9001_0000_0000_0007;
pub(crate) const TAG_IMAGE: u64 = 0x1111_A6E5_0000_0009;

/// One compiled layer with its weight and bias [`Slab`]s attached.
enum CachedLayer {
    Conv {
        k: usize,
        in_c: usize,
        out_c: usize,
        padding: Padding,
        /// `[out_c][in_c·k·k]` row-major weight streams.
        w: Slab,
        /// One bias stream per output channel.
        b: Slab,
        fsm: Fsm,
    },
    Pool {
        k: usize,
        /// The conserving sorter on AQFP; `None` for the CMOS mux, whose
        /// state is one selector RNG per channel.
        fsm: Option<Fsm>,
    },
    /// Also a `Valid` conv whose kernel covers its whole input: one
    /// position, so the same rows as a dense layer over the flattened map.
    Dense {
        in_f: usize,
        out_f: usize,
        w: Slab,
        b: Slab,
        fsm: Fsm,
    },
    Output {
        in_f: usize,
        classes: usize,
        /// AQFP: per class, input indices in majority-chain wiring order
        /// (products of high-magnitude weights at the chain end).
        order: Vec<Vec<usize>>,
        /// `[classes][in_f]` row-major weight streams (natural order).
        w: Slab,
        b: Slab,
    },
}

/// A layer's weight (or bias) streams as one row-major `[row][words]`
/// buffer: one allocation and no per-stream header, only the bits.
struct Slab {
    words: Vec<u64>,
    /// Words per row: `N.div_ceil(64)`.
    stride: usize,
}

impl Slab {
    fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    fn rows(&self, first: usize, n: usize) -> std::slice::ChunksExact<'_, u64> {
        self.words[first * self.stride..(first + n) * self.stride].chunks_exact(self.stride)
    }

    fn row_count(&self) -> usize {
        self.words.len() / self.stride
    }
}

/// The immutable, shareable execution plan of a [`CompiledNetwork`] on one
/// [`Platform`] at stream length N.
///
/// Construction generates every weight/bias stream once, into one
/// contiguous slab per layer. The plan holds no per-image state — pair
/// it with an [`ExecState`] and drive it with [`ExecPlan::advance`].
///
/// # Example
///
/// ```
/// use aqfp_sc_network::{build_model, ActivationStyle, CompiledNetwork};
/// use aqfp_sc_network::{ExecPlan, NetworkSpec, Platform};
/// use aqfp_sc_nn::Tensor;
///
/// let spec = NetworkSpec::tiny(8);
/// let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 1);
/// let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
/// let plan = ExecPlan::new(&compiled, 128, Platform::Aqfp);
/// let mut state = plan.new_state();
/// plan.begin(&mut state, &Tensor::zeros(vec![1, 8, 8]), 42);
/// // Any partition of the 128 cycles yields the same bits:
/// plan.advance(&mut state, 37);
/// plan.advance(&mut state, 128); // clamped to the remaining 91
/// assert_eq!(state.cycles(), 128);
/// assert_eq!(plan.scores(&state).len(), 10);
/// ```
pub struct ExecPlan {
    platform: Platform,
    stream_len: usize,
    /// Comparator bits of the pixel SNGs.
    bits: u32,
    /// Content fingerprint of the network, computed once at construction
    /// (the bind-guard compares it on every `advance`).
    model_fp: ModelFingerprint,
    layers: Vec<CachedLayer>,
    shapes: Vec<(usize, usize, usize)>,
    neutral: BitStream,
}

impl ExecPlan {
    /// Builds a plan for `net` at stream length `stream_len` on `platform`,
    /// generating and caching every weight/bias stream. The plan keeps no
    /// copy of the network — only the streams, the shapes, the comparator
    /// bits and the fingerprint — and carries no borrows, so it is
    /// `Send + Sync` and a [`ModelRegistry`](crate::ModelRegistry) can hand
    /// out `Arc<ExecPlan>` handles and hot-swap models under live traffic.
    ///
    /// # Panics
    ///
    /// Panics when `stream_len` is 0: a zero-length stream has no cycles
    /// to score, so every inference would fail in [`ExecPlan::scores`].
    pub fn new(net: &CompiledNetwork, stream_len: usize, platform: Platform) -> Self {
        assert!(stream_len > 0, "stream length must be at least 1 cycle");
        let bits = net.bits();
        let seed = net.stream_seed();
        let shapes = net.spec().shapes();
        let mut layers = Vec::with_capacity(net.layers().len());
        // One stream per weight, keyed by its (row, column) in the layer's
        // `[rows][fan_in]` matrix, and one per bias, appended as a slab row.
        let stride = stream_len.div_ceil(WORD_BITS);
        let mut scratch = BitStream::zeros(0);
        let mut gen_streams = |li: usize, fan_in: usize, w_levels: &[u64], b_levels: &[u64]| {
            [(TAG_WEIGHT, fan_in, w_levels), (TAG_BIAS, 1, b_levels)].map(|(tag, cols, levels)| {
                let mut words = Vec::with_capacity(levels.len() * stride);
                for (i, &level) in levels.iter().enumerate() {
                    let key = derive(seed, [tag ^ li as u64, (i / cols) as u64, (i % cols) as u64]);
                    match platform {
                        Platform::Aqfp => Sng::new(bits, ThermalRng::with_seed(key))
                            .generate_level_into(level, stream_len, &mut scratch),
                        // The CMOS baseline uses pseudo-random generators; a
                        // whitened SplitMix stream models a well-scrambled LFSR
                        // bank (a raw shared-polynomial LFSR bank would add
                        // cross-correlation the baseline papers design away).
                        Platform::Cmos => Sng::new(bits, SplitMix64::new(key))
                            .generate_level_into(level, stream_len, &mut scratch),
                    }
                    words.extend_from_slice(scratch.words());
                }
                Slab { words, stride }
            })
        };
        for (li, layer) in net.layers().iter().enumerate() {
            match layer {
                CompiledLayer::Conv { k, in_c, out_c, padding, w_levels, b_levels } => {
                    let m = in_c * k * k;
                    let [w, b] = gen_streams(li, m, w_levels, b_levels);
                    let fsm = Fsm::neuron(platform, m + 1);
                    let (_, h, w_dim) = shapes[li];
                    // A `Valid` conv whose kernel covers its whole input has
                    // one position, whose tap `(ic, ky, kx)` reads input
                    // `(ic·k + ky)·k + kx`, its row `j`: it is a dense layer
                    // over the flattened input with the conv's own streams.
                    layers.push(if *padding == Padding::Valid && h == *k && w_dim == *k {
                        CachedLayer::Dense { in_f: m, out_f: *out_c, w, b, fsm }
                    } else {
                        CachedLayer::Conv {
                            k: *k,
                            in_c: *in_c,
                            out_c: *out_c,
                            padding: *padding,
                            w,
                            b,
                            fsm,
                        }
                    });
                }
                CompiledLayer::Pool { k } => layers.push(CachedLayer::Pool {
                    k: *k,
                    fsm: (platform == Platform::Aqfp).then(|| Fsm::Pool(AveragePooling::new(k * k))),
                }),
                CompiledLayer::Dense { in_f, out_f, w_levels, b_levels } => {
                    let [w, b] = gen_streams(li, *in_f, w_levels, b_levels);
                    let fsm = Fsm::neuron(platform, in_f + 1);
                    layers.push(CachedLayer::Dense { in_f: *in_f, out_f: *out_f, w, b, fsm });
                }
                CompiledLayer::Output { in_f, classes, w_levels, b_levels } => {
                    let [w, b] = gen_streams(li, *in_f, w_levels, b_levels);
                    // Majority-chain wiring order: a chain link's influence
                    // decays ~2x per later link, so products of
                    // high-magnitude weights go to the END of the chain
                    // where their influence is largest. (Pure wiring choice
                    // — free in hardware.)
                    let mid = 1u64 << (bits - 1);
                    let order: Vec<Vec<usize>> = (0..*classes)
                        .map(|cl| {
                            let wrow = &w_levels[cl * in_f..(cl + 1) * in_f];
                            let mut idx: Vec<usize> = (0..*in_f).collect();
                            idx.sort_by_key(|&j| wrow[j].abs_diff(mid));
                            idx
                        })
                        .collect();
                    layers.push(CachedLayer::Output {
                        in_f: *in_f,
                        classes: *classes,
                        order,
                        w,
                        b,
                    });
                }
            }
        }
        ExecPlan {
            platform,
            stream_len,
            bits,
            model_fp: net.fingerprint(),
            layers,
            shapes,
            neutral: BitStream::alternating(stream_len),
        }
    }

    /// Side of the square single-channel image the plan takes.
    pub fn input_side(&self) -> usize {
        self.shapes[0].1
    }

    /// The platform this plan simulates.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Stochastic stream length N in cycles (the full per-image budget).
    pub fn stream_len(&self) -> usize {
        self.stream_len
    }

    /// Number of weight/bias streams generated and cached at construction.
    pub fn cached_streams(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                CachedLayer::Conv { w, b, .. }
                | CachedLayer::Dense { w, b, .. }
                | CachedLayer::Output { w, b, .. } => w.row_count() + b.row_count(),
                CachedLayer::Pool { .. } => 0,
            })
            .sum()
    }

    /// Fan-in of the categorization layer (inputs + bias), if present.
    /// Drives the CMOS margin variance bound of the streaming exit policy.
    pub(crate) fn output_fan_in(&self) -> Option<usize> {
        self.layers.iter().find_map(|l| match l {
            CachedLayer::Output { in_f, .. } => Some(in_f + 1),
            _ => None,
        })
    }

    /// The identity `begin` stamps onto a state and `advance` checks, so a
    /// state bound through one plan cannot be silently driven by a
    /// different one (wrong weights/shapes would corrupt bits, or panic
    /// deep inside stream indexing). Built on the network's content
    /// [fingerprint](CompiledNetwork::fingerprint), it also refuses
    /// seed-twins (`with_stream_seed`) and quantisation-twins (`bits`),
    /// whose cached streams differ bit for bit while every structural
    /// count matches.
    pub fn fingerprint(&self) -> PlanFingerprint {
        PlanFingerprint {
            platform: self.platform,
            stream_len: self.stream_len,
            model: self.model_fp,
        }
    }

    /// A fresh, unbound state whose arena buffers grow on first use and are
    /// reused across images ([`ExecPlan::begin`] rebinds in place).
    pub fn new_state(&self) -> ExecState {
        ExecState {
            bound: None,
            pixels: Vec::new(),
            layers: Vec::new(),
            class_acc: Vec::new(),
            cycles: 0,
            pixel_chunks: Vec::new(),
            counts: Vec::new(),
            act_a: Vec::new(),
            act_b: Vec::new(),
            spatial: StripeArenas::default(),
        }
    }

    /// (Re)binds `state` to `image` under `image_seed`: pixel cursors rewound
    /// to cycle 0, every FSM register at its layer FSM's initial value
    /// (0, or the `Btanh` counter's mid-range on CMOS), class accumulators
    /// zeroed. Arena allocations from previous images are kept.
    ///
    /// # Panics
    ///
    /// Panics when the image shape does not match the compiled spec.
    pub fn begin(&self, state: &mut ExecState, image: &Tensor, image_seed: u64) {
        let side = self.input_side();
        assert_eq!(image.shape(), &[1, side, side], "image shape mismatch");
        let bits = self.bits;
        let scale = (1u64 << bits) as f64;
        let platform = self.platform;
        state.bound = Some(self.fingerprint());
        state.cycles = 0;
        state.pixels.clear();
        state
            .pixels
            .extend(image.data().iter().enumerate().map(|(p, &v)| {
                let key = derive(image_seed, [TAG_PIXEL, p as u64, 0]);
                let level = pixel_level(v, scale);
                let sng = match platform {
                    Platform::Aqfp => {
                        PixelSng::Aqfp(Sng::new(bits, ThermalRng::with_seed(key)))
                    }
                    Platform::Cmos => PixelSng::Cmos(Sng::new(bits, SplitMix64::new(key))),
                };
                PixelCursor { sng, level }
            }));
        state
            .pixel_chunks
            .resize_with(state.pixels.len(), || BitStream::zeros(0));
        if state.layers.len() != self.layers.len() {
            // First bind (or a state borrowed from another plan): make the
            // slot count match; every slot is (re)initialised below.
            state.layers.clear();
            state.layers.resize_with(self.layers.len(), || LayerState::Output);
        }
        let mut classes = 0usize;
        for (li, (layer, slot)) in
            self.layers.iter().zip(state.layers.iter_mut()).enumerate()
        {
            let (layer_in_c, h, w_dim) = self.shapes[li];
            match layer {
                CachedLayer::Conv { k, out_c, padding, fsm, .. } => {
                    let (oh, ow) = conv_out_dims(h, w_dim, *k, *padding);
                    reset_fsm_slot(slot, fsm, out_c * oh * ow);
                }
                CachedLayer::Pool { k, fsm: Some(fsm) } => {
                    reset_fsm_slot(slot, fsm, layer_in_c * (h / k) * (w_dim / k));
                }
                CachedLayer::Pool { fsm: None, .. } => {
                    let seeds = (0..layer_in_c)
                        .map(|c| derive(image_seed, [TAG_POOL ^ li as u64, c as u64, 0]));
                    reset_mux_slot(slot, seeds);
                }
                CachedLayer::Dense { out_f, fsm, .. } => reset_fsm_slot(slot, fsm, *out_f),
                CachedLayer::Output { classes: c, .. } => {
                    classes = *c;
                    *slot = LayerState::Output;
                }
            }
        }
        state.class_acc.clear();
        state.class_acc.resize(classes, 0);
    }

    /// Evaluates the next `max_cycles` cycles of the whole pipeline
    /// (clamped to the cycles remaining of the plan's stream length) and
    /// folds them into `state`. Returns the cycles actually consumed — 0
    /// once the budget is exhausted.
    ///
    /// Splitting N cycles across any sequence of `advance` calls is
    /// bit-identical to one N-cycle call.
    ///
    /// Each layer kind has one path: conv and pool layers put one output
    /// channel's positions in the lanes at the narrowest stripe width
    /// covering them; dense layers (one-position convs among them) count
    /// one neuron at a time; the output head folds one class word at a
    /// time, as it does for each lane of a group.
    ///
    /// # Panics
    ///
    /// Panics when `state` was never bound via [`ExecPlan::begin`], or was
    /// bound through a plan with a different [`PlanFingerprint`] —
    /// another platform, stream length, or network content (including
    /// weight-stream-seed and quantisation twins).
    pub fn advance(&self, state: &mut ExecState, max_cycles: usize) -> usize {
        assert_eq!(
            state.bound,
            Some(self.fingerprint()),
            "state is not bound to this plan (call begin first)"
        );
        let offset = state.cycles;
        let clen = max_cycles.min(self.stream_len - offset);
        if clen == 0 {
            return 0;
        }
        let ExecState {
            pixels, layers, class_acc, pixel_chunks, counts, act_a, act_b, spatial, ..
        } = state;
        // Every image-independent row (weight, bias, the absolute-parity
        // 0101… neutral pad) reads its cached full-length stream in place
        // at the chunk's offset, exactly as one offset class of the lane
        // kernel does; only the image's own streams are chunk-local.
        // Generate this chunk of every pixel stream from its cursor, into
        // the state's persistent chunk buffers.
        for (cursor, buf) in pixels.iter_mut().zip(pixel_chunks.iter_mut()) {
            cursor.generate_into(clen, buf);
        }
        // Activations of the layer under evaluation: the first layer reads
        // the pixel buffers directly, later ones the `act_a` arena; each
        // producing layer writes into `act_b` and the arenas are swapped, so
        // the activation buffers are reused across chunks.
        let mut first = true;
        for (li, (layer, lstate)) in self.layers.iter().zip(layers.iter_mut()).enumerate()
        {
            let streams: &[BitStream] = if first { pixel_chunks } else { act_a };
            let (layer_in_c, h, w_dim) = self.shapes[li];
            let chunk = LayerChunk { li, streams, offset, clen, lstate };
            let mut produced = true;
            match layer {
                CachedLayer::Conv { k, out_c, padding, .. } => {
                    let (oh, ow) = conv_out_dims(h, w_dim, *k, *padding);
                    act_b.resize_with(out_c * oh * ow, || BitStream::zeros(0));
                    match (oh * ow).div_ceil(WORD_BITS) {
                        1 => self.conv_spatial(chunk, &mut spatial.w1, act_b),
                        2 => self.conv_spatial(chunk, &mut spatial.w2, act_b),
                        _ => self.conv_spatial(chunk, &mut spatial.w4, act_b),
                    }
                }
                CachedLayer::Pool { k, .. } => {
                    let (oh, ow) = (h / k, w_dim / k);
                    act_b.resize_with(layer_in_c * oh * ow, || BitStream::zeros(0));
                    match (oh * ow).div_ceil(WORD_BITS) {
                        1 => self.pool_spatial(chunk, &mut spatial.w1, act_b),
                        2 => self.pool_spatial(chunk, &mut spatial.w2, act_b),
                        _ => self.pool_spatial(chunk, &mut spatial.w4, act_b),
                    }
                }
                CachedLayer::Dense { out_f, .. } => {
                    act_b.resize_with(*out_f, || BitStream::zeros(0));
                    self.dense_chunk(chunk, counts, act_b);
                }
                CachedLayer::Output { classes, .. } => {
                    produced = false;
                    for (cl, acc) in class_acc.iter_mut().enumerate().take(*classes) {
                        for wi in 0..clen.div_ceil(WORD_BITS) {
                            *acc += self.head_word(li, cl, wi, offset, clen, |j| {
                                streams[j].words()[wi]
                            });
                        }
                    }
                }
            }
            if produced {
                std::mem::swap(act_a, act_b);
                first = false;
            }
        }
        state.cycles = offset + clen;
        clen
    }

    /// Class scores from the running accumulators after the cycles consumed
    /// so far — the same floating-point reduction every front-end reports,
    /// so a full-N run reproduces the historical one-shot scores exactly.
    ///
    /// # Panics
    ///
    /// Panics when no cycles have been consumed yet.
    pub fn scores(&self, state: &ExecState) -> Vec<f64> {
        assert!(state.cycles > 0, "no cycles consumed yet");
        let n = state.cycles as f64;
        state
            .class_acc
            .iter()
            .map(|&acc| {
                let ones = acc as f64;
                match self.platform {
                    // Bipolar value of the majority-chain output stream.
                    Platform::Aqfp => (2.0 * ones - n) / n,
                    // APC accumulation: total product-ones count per cycle.
                    Platform::Cmos => ones / n,
                }
            })
            .collect()
    }

    /// Convenience one-shot run: bind, consume the full stream length in a
    /// single chunk, and report the scores.
    pub fn run_one_shot(
        &self,
        state: &mut ExecState,
        image: &Tensor,
        image_seed: u64,
    ) -> Vec<f64> {
        self.begin(state, image, image_seed);
        self.advance(state, self.stream_len);
        self.scores(state)
    }

    /// Advances up to [`MAX_LANES`](aqfp_sc_bitstream::MAX_LANES) bound
    /// states together through one chunk of at most `max_cycles` cycles
    /// using the batch-transposed (lane) kernels: the same packed cycle
    /// slot of every image goes into one [`Stripe`] (lane `g` in bit
    /// `g % 64` of stripe element `g / 64`) and the per-image FSM state
    /// (sorter feedback or `Btanh` counter registers, selector RNGs) stays
    /// scalar. The narrowest stripe width
    /// `W ∈ {1, 2, 4}` covering the group runs the chunk, so a draining
    /// group keeps its vector lanes full; bit-identity across widths makes
    /// the choice invisible. Bit-identical to advancing each state with
    /// [`ExecPlan::advance`] over the same cycles.
    ///
    /// The states may sit at **different** absolute cycle offsets (a
    /// retire-and-refill streaming group mixes half-done survivors with
    /// freshly begun images). The lanes are grouped into offset classes
    /// ([`OffsetClasses`]), and every image-independent stream (weights,
    /// biases, the 0101… neutral pad) is read in place from the plan's
    /// cache at each class's offset and broadcast to that class's lanes —
    /// one class, one splat per row and cycle, when the offsets agree. No
    /// weight stream is copied either way, and every image sees exactly
    /// the bits a scalar run at its offset would. The output head scores
    /// each lane through the same function that scores a lone image, at
    /// that lane's own offset. Every state advances by the same returned
    /// cycle count.
    ///
    /// Chunks are clamped to the *smallest* remaining budget across the
    /// states, so callers should loop
    /// `while plan.advance_batch_striped(&mut states, n, &mut arenas) > 0 {}`.
    /// Returns the number of cycles consumed (0 once any state has
    /// finished — retire finished states from the group to keep the rest
    /// advancing). Takes `&mut ExecState` references so a scheduler can
    /// advance lanes that live inside its own bookkeeping structures. The
    /// [`StripeArenas`] keep each width's activation, lane and register
    /// buffers alive across chunks; a chunk still makes a few small
    /// allocations (the layers' row lists and the pack/unpack scratch).
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty or holds more than
    /// [`MAX_LANES`](aqfp_sc_bitstream::MAX_LANES) states, or when any
    /// state is not bound to this plan.
    pub fn advance_batch_striped(
        &self,
        states: &mut [&mut ExecState],
        max_cycles: usize,
        arenas: &mut StripeArenas,
    ) -> usize {
        let head = &mut arenas.head;
        match states.len().div_ceil(WORD_BITS) {
            0 | 1 => self.advance_batch_in(states, max_cycles, &mut arenas.w1, head),
            2 => self.advance_batch_in(states, max_cycles, &mut arenas.w2, head),
            _ => self.advance_batch_in(states, max_cycles, &mut arenas.w4, head),
        }
    }

    /// [`ExecPlan::advance_batch_striped`] at one fixed stripe width `W`;
    /// `head` is the output head's transposed input block.
    fn advance_batch_in<const W: usize>(
        &self,
        states: &mut [&mut ExecState],
        max_cycles: usize,
        arena: &mut BatchArena<W>,
        head: &mut Vec<[u64; WORD_BITS]>,
    ) -> usize {
        assert!(
            !states.is_empty() && states.len() <= WORD_BITS * W,
            "advance_batch_striped takes 1..=64*W states"
        );
        let fp = self.fingerprint();
        for st in states.iter() {
            assert_eq!(st.bound.as_ref(), Some(&fp), "state is not bound to this plan");
        }
        let BatchArena { cur, next, masks, r_scratch, classes, pad_plane } = arena;
        let remaining = states.iter().map(|s| self.stream_len - s.cycles).min().unwrap();
        let clen = max_cycles.min(remaining);
        if clen == 0 {
            return 0;
        }
        // Every image-independent row (weight, bias, the absolute-parity
        // 0101… neutral pad) reads its cached full-length stream at the
        // offset of each lane's class — one class when the offsets agree.
        classes.regroup(states.iter().map(|s| s.cycles));
        let classes = &*classes;
        let neutral = self.neutral.words();
        // Out-of-bounds conv taps carry the neutral pad at each lane's own
        // class offset: one lane plane per chunk, read like any input.
        pad_plane.clear();
        pad_plane.extend((0..clen).map(|t| LaneRow::Broadcast(neutral).word(t, classes)));
        let pad_plane = &*pad_plane;
        // Generate this chunk of every image's pixel streams, then pack
        // them into lane layout: cur[p][t] holds packed cycle slot t of
        // pixel stream p across all images (image g in bit g).
        for st in states.iter_mut() {
            for (cursor, buf) in st.pixels.iter_mut().zip(st.pixel_chunks.iter_mut()) {
                cursor.generate_into(clen, buf);
            }
        }
        let np = states[0].pixels.len();
        if cur.len() < np {
            cur.resize_with(np, Vec::new);
        }
        for (p, lane) in cur.iter_mut().enumerate().take(np) {
            pack_lanes_into(states.iter().map(|s| &s.pixel_chunks[p]), clen, lane)
                .expect("lane group within stripe capacity");
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let (layer_in_c, h, w_dim) = self.shapes[li];
            let mut produced = true;
            match layer {
                CachedLayer::Conv { k, in_c, out_c, padding, fsm, .. } => {
                    let (oh, ow) = conv_out_dims(h, w_dim, *k, *padding);
                    let pad = match padding {
                        Padding::Valid => 0isize,
                        Padding::Same => (k / 2) as isize,
                    };
                    let m = in_c * k * k;
                    if next.len() < out_c * oh * ow {
                        next.resize_with(out_c * oh * ow, Vec::new);
                    }
                    let mut rows: Vec<LaneRow<'_, W>> = Vec::with_capacity(m + 2);
                    let mut idx = 0usize;
                    for oc in 0..*out_c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let taps = (0..*in_c).flat_map(|ic| {
                                    (0..*k).flat_map(move |ky| (0..*k).map(move |kx| (ic, ky, kx)))
                                });
                                let inputs = taps.map(|(ic, ky, kx)| {
                                    let iy = (oy + ky) as isize - pad;
                                    let ix = (ox + kx) as isize - pad;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w_dim as isize
                                    {
                                        pad_plane
                                    } else {
                                        &cur[(ic * h + iy as usize) * w_dim + ix as usize][..]
                                    }
                                });
                                self.neuron_rows(li, oc, inputs, &mut rows);
                                lane_fsm_chunk(
                                    fsm,
                                    states,
                                    li,
                                    idx,
                                    &rows,
                                    classes,
                                    clen,
                                    r_scratch,
                                    &mut next[idx],
                                );
                                idx += 1;
                            }
                        }
                    }
                }
                CachedLayer::Pool { k, fsm } => {
                    let (oh, ow) = (h / k, w_dim / k);
                    if next.len() < layer_in_c * oh * ow {
                        next.resize_with(layer_in_c * oh * ow, Vec::new);
                    }
                    match fsm {
                        Some(fsm) => {
                            let mut rows: Vec<LaneRow<'_, W>> = Vec::with_capacity(k * k);
                            let mut idx = 0usize;
                            for c in 0..layer_in_c {
                                for oy in 0..oh {
                                    for ox in 0..ow {
                                        rows.clear();
                                        for i in 0..k * k {
                                            rows.push(LaneRow::Lanes(
                                                &cur[(c * h + oy * k + i / k) * w_dim
                                                    + ox * k
                                                    + i % k],
                                            ));
                                        }
                                        lane_fsm_chunk(
                                            fsm,
                                            states,
                                            li,
                                            idx,
                                            &rows,
                                            classes,
                                            clen,
                                            r_scratch,
                                            &mut next[idx],
                                        );
                                        idx += 1;
                                    }
                                }
                            }
                        }
                        None => {
                            // Every window of a channel sees the same
                            // per-image selector sequence, which steps once
                            // per chunk, so draw it once per channel and
                            // expand it into per-cycle lane masks:
                            // mask[j][t] has lane g set when image g's
                            // selector at cycle t picks window element j —
                            // the mux for all lanes becomes k·k masked ORs
                            // over the packed element streams, with no
                            // per-image unpacking.
                            let kk = k * k;
                            if masks.len() < kk {
                                masks.resize_with(kk, Vec::new);
                            }
                            let mut idx = 0usize;
                            for c in 0..layer_in_c {
                                for mask in masks.iter_mut().take(kk) {
                                    mask.clear();
                                    mask.resize(clen, Stripe::ZERO);
                                }
                                for (g, st) in states.iter_mut().enumerate() {
                                    let rng = match &mut st.layers[li] {
                                        LayerState::PoolMux { rngs } => &mut rngs[c],
                                        _ => unreachable!("pool state matches platform"),
                                    };
                                    let (e, bit) = (g / WORD_BITS, g % WORD_BITS);
                                    #[allow(clippy::needless_range_loop)] // which mask t lands in is drawn per cycle
                                    for t in 0..clen {
                                        let pick = rng.gen_range(0..kk);
                                        masks[pick][t].0[e] |= 1u64 << bit;
                                    }
                                }
                                for oy in 0..oh {
                                    for ox in 0..ow {
                                        let out = &mut next[idx];
                                        out.clear();
                                        out.resize(clen, Stripe::ZERO);
                                        for (i, mask) in masks.iter().enumerate().take(kk) {
                                            let elem = &cur[(c * h + oy * k + i / k)
                                                * w_dim
                                                + ox * k
                                                + i % k];
                                            for (o, (m, x)) in out
                                                .iter_mut()
                                                .zip(mask.iter().zip(elem.iter()))
                                            {
                                                *o |= *m & *x;
                                            }
                                        }
                                        idx += 1;
                                    }
                                }
                            }
                        }
                    }
                }
                CachedLayer::Dense { in_f, out_f, fsm, .. } => {
                    if next.len() < *out_f {
                        next.resize_with(*out_f, Vec::new);
                    }
                    let mut rows: Vec<LaneRow<'_, W>> = Vec::with_capacity(in_f + 2);
                    for (o, out) in next.iter_mut().enumerate().take(*out_f) {
                        self.neuron_rows(li, o, cur.iter().map(|x| &x[..]), &mut rows);
                        lane_fsm_chunk(
                            fsm,
                            states,
                            li,
                            o,
                            &rows,
                            classes,
                            clen,
                            r_scratch,
                            out,
                        );
                    }
                }
                CachedLayer::Output { in_f, classes: n_classes, .. } => {
                    produced = false;
                    // Per 64-lane stripe element and 64-cycle word, every
                    // input plane transposes into one word per lane; each
                    // lane then runs the lone image's head at its own
                    // absolute cycle.
                    head.resize(*in_f, [0; WORD_BITS]);
                    for (e, lanes) in states.chunks_mut(WORD_BITS).enumerate() {
                        for wi in 0..clen.div_ceil(WORD_BITS) {
                            let cycles = wi * WORD_BITS..clen.min((wi + 1) * WORD_BITS);
                            for (block, plane) in head.iter_mut().zip(cur.iter()) {
                                for (row, s) in block.iter_mut().zip(&plane[cycles.clone()]) {
                                    *row = s.0[e];
                                }
                                block[cycles.len()..].fill(0);
                                transpose64(block);
                            }
                            for (g, st) in lanes.iter_mut().enumerate() {
                                for cl in 0..*n_classes {
                                    st.class_acc[cl] +=
                                        self.head_word(li, cl, wi, st.cycles, clen, |j| head[j][g]);
                                }
                            }
                        }
                    }
                }
            }
            if produced {
                std::mem::swap(cur, next);
            }
        }
        for st in states.iter_mut() {
            st.cycles += clen;
        }
        clen
    }
}

/// One layer's chunk of a lone image, as [`ExecPlan::advance`] hands it
/// to a conv, pool or dense layer: the layer's input streams (chunk-local),
/// the chunk's absolute offset and length, and the layer's cross-chunk
/// state.
struct LayerChunk<'a> {
    li: usize,
    streams: &'a [BitStream],
    offset: usize,
    clen: usize,
    lstate: &'a mut LayerState,
}

impl ExecPlan {
    /// A conv layer's chunk for one image with one output channel's
    /// positions in the lanes: each group of up to `64·W` positions packs
    /// its `in_c·k·k` shifted input planes once (lane `p` of plane `(ic,
    /// ky, kx)` is the input under tap `(ky, kx)` of position `p`, or the
    /// neutral pad at the chunk's cycles where `Same` padding falls
    /// outside the image),
    /// then every output channel runs its weights against the planes
    /// through the lane FSM sweep, under one offset class at the chunk's
    /// offset, and unpacks its positions into `out`. Each lane group's FSM
    /// state is a contiguous run of the layer's per-neuron state.
    fn conv_spatial<const W: usize>(
        &self,
        chunk: LayerChunk<'_>,
        arena: &mut BatchArena<W>,
        out: &mut [BitStream],
    ) {
        let LayerChunk { li, streams, offset, clen, lstate } = chunk;
        let CachedLayer::Conv { k, in_c, out_c, padding, fsm, .. } = &self.layers[li] else {
            unreachable!("conv_spatial runs conv layers")
        };
        let (_, h, w_dim) = self.shapes[li];
        let (oh, ow) = conv_out_dims(h, w_dim, *k, *padding);
        let pad = match padding {
            Padding::Valid => 0isize,
            Padding::Same => (k / 2) as isize,
        };
        let (m, positions) = (in_c * k * k, oh * ow);
        let neutral = self.neutral.words();
        let r = lstate.registers();
        let (planes, fired, classes) = arena.spatial(m, offset, clen);
        for base in (0..positions).step_by(WORD_BITS * W) {
            let lanes = (positions - base).min(WORD_BITS * W);
            let taps = (0..*in_c).flat_map(|ic| (0..k * k).map(move |t| (ic, t / k, t % k)));
            for ((ic, ky, kx), plane) in taps.zip(planes.iter_mut()) {
                let mut outside = Stripe::<W>::ZERO;
                let members = (base..base + lanes).map(|p| {
                    let iy = (p / ow + ky) as isize - pad;
                    let ix = (p % ow + kx) as isize - pad;
                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w_dim as isize {
                        let g = p - base;
                        outside.0[g / WORD_BITS] |= 1 << (g % WORD_BITS);
                        &streams[0]
                    } else {
                        &streams[(ic * h + iy as usize) * w_dim + ix as usize]
                    }
                });
                pack_lanes_into(members, clen, plane).expect("positions within the stripe");
                if !outside.is_zero() {
                    // Out-of-bounds lanes hold the neutral pad at the
                    // chunk's absolute cycles in place of their stand-in,
                    // as a lane group's pad plane does at each class offset.
                    for (t, s) in plane.iter_mut().enumerate() {
                        let pad = LaneRow::Broadcast(neutral).word(t, classes);
                        *s = (*s & !outside) | (pad & outside);
                    }
                }
            }
            let mut rows: Vec<LaneRow<'_, W>> = Vec::with_capacity(m + 2);
            for oc in 0..*out_c {
                self.neuron_rows(li, oc, planes.iter().map(|x| &x[..]), &mut rows);
                let first = oc * positions + base;
                fsm.run_rows_resume_into(&rows, classes, clen, &mut r[first..first + lanes], fired);
                unpack_lanes_into(fired, clen, &mut out[first..first + lanes])
                    .expect("positions within the stripe");
            }
        }
    }

    /// A dense layer's chunk for one image one neuron at a time (a
    /// one-position conv is planned as one): each output neuron counts its
    /// `in_f` XNOR products, bias and pad row over the chunk's cycles, 64
    /// cycles per word op ([`column_counts_into`]), then steps its FSM over
    /// the counts into `out`.
    fn dense_chunk(&self, chunk: LayerChunk<'_>, counts: &mut Vec<u32>, out: &mut [BitStream]) {
        let LayerChunk { li, streams, offset, clen, lstate } = chunk;
        let CachedLayer::Dense { in_f, out_f, w, b, fsm } = &self.layers[li] else {
            unreachable!("dense_chunk runs dense layers")
        };
        let pad_row = fsm.pads();
        let neutral = self.neutral.words();
        let r = lstate.registers();
        let mut rows: Vec<KernelRow<'_>> = Vec::with_capacity(in_f + 2);
        for (o, fired) in out.iter_mut().enumerate().take(*out_f) {
            rows.clear();
            for (x, ws) in streams.iter().zip(w.rows(o * in_f, *in_f)) {
                rows.push(KernelRow::Xnor(x.words(), ws));
            }
            rows.push(KernelRow::Broadcast(b.row(o)));
            if pad_row {
                rows.push(KernelRow::Broadcast(neutral));
            }
            column_counts_into(&rows, offset, clen, counts);
            fsm.run_counts_resume_into(counts, &mut r[o], fired);
        }
    }

    /// Neuron `o` of conv or dense layer `li` as lane kernel rows, into
    /// `rows`: each input XNORed with its weight stream, then the bias
    /// and, when the layer's FSM pads an even fan-in, the `0101…` neutral
    /// pad, so the FSM sees finished counts.
    fn neuron_rows<'a, const W: usize>(
        &'a self,
        li: usize,
        o: usize,
        inputs: impl Iterator<Item = &'a [Stripe<W>]>,
        rows: &mut Vec<LaneRow<'a, W>>,
    ) {
        let (CachedLayer::Conv { w, b, fsm, .. } | CachedLayer::Dense { w, b, fsm, .. }) =
            &self.layers[li]
        else {
            unreachable!("neuron_rows runs conv and dense layers")
        };
        let fan_in = w.row_count() / b.row_count();
        rows.clear();
        rows.extend(inputs.zip(w.rows(o * fan_in, fan_in)).map(|(x, ws)| LaneRow::Xnor(x, ws)));
        rows.push(LaneRow::Broadcast(b.row(o)));
        if fsm.pads() {
            rows.push(LaneRow::Broadcast(self.neutral.words()));
        }
    }

    /// The one output head of both orientations: class `cl`'s count over
    /// word `wi` (64 cycles) of a `clen`-cycle chunk of one image whose
    /// chunk starts at absolute cycle `offset`. `x(j)` is word `wi` of the
    /// image's input `j`; the weight, bias and neutral rows are read in
    /// place at the image's own offset, and bits past the chunk are
    /// masked. AQFP counts the ones of the majority chain over the
    /// products in wiring order, the bias and, for an even fan-in + bias,
    /// the parity pad; CMOS totals the ones of every product and the bias
    /// (the APC).
    fn head_word(
        &self,
        li: usize,
        cl: usize,
        wi: usize,
        offset: usize,
        clen: usize,
        x: impl Fn(usize) -> u64,
    ) -> u64 {
        let CachedLayer::Output { in_f, order, w, b, .. } = &self.layers[li] else {
            unreachable!("head_word runs the output layer")
        };
        let mask = u64::MAX >> (WORD_BITS - (clen - wi * WORD_BITS).min(WORD_BITS));
        let read = |s: &[u64]| KernelRow::Broadcast(s).word(wi, offset);
        let products = order[cl].iter().map(|&j| !(x(j) ^ read(w.row(cl * in_f + j))));
        let rows = products.chain([read(b.row(cl))]);
        match self.platform {
            Platform::Aqfp => {
                let pad = (in_f + 1).is_multiple_of(2).then(|| read(self.neutral.words()));
                u64::from((maj_chain(rows.chain(pad)) & mask).count_ones())
            }
            Platform::Cmos => rows.map(|r| u64::from((r & mask).count_ones())).sum(),
        }
    }

    /// A pool layer's chunk for one image with one channel's output
    /// positions in the lanes: per group of up to `64·W` positions, the
    /// `k·k` window planes (lane `p` of plane `i` is element `i` of
    /// position `p`'s window) are packed once. AQFP runs them through the
    /// conserving sorter's lane sweep. CMOS draws the channel's selector
    /// picks for the chunk once, since every window of a channel shares
    /// that one sequence, and cycle `t` of every lane is plane `pick[t]`
    /// at `t`. Either way the group unpacks into `out`.
    fn pool_spatial<const W: usize>(
        &self,
        chunk: LayerChunk<'_>,
        arena: &mut BatchArena<W>,
        out: &mut [BitStream],
    ) {
        let LayerChunk { li, streams, offset, clen, lstate } = chunk;
        let CachedLayer::Pool { k, fsm } = &self.layers[li] else {
            unreachable!("pool_spatial runs pool layers")
        };
        let k = *k;
        let (channels, h, w_dim) = self.shapes[li];
        let (ow, positions) = (w_dim / k, (h / k) * (w_dim / k));
        let kk = k * k;
        let (planes, fired, classes) = arena.spatial(kk, offset, clen);
        let mut picks: Vec<usize> = Vec::new();
        for c in 0..channels {
            if let LayerState::PoolMux { rngs } = lstate {
                picks.clear();
                picks.extend((0..clen).map(|_| rngs[c].gen_range(0..kk)));
            }
            for base in (0..positions).step_by(WORD_BITS * W) {
                let lanes = (positions - base).min(WORD_BITS * W);
                for (i, plane) in planes.iter_mut().enumerate() {
                    let members = (base..base + lanes).map(|p| {
                        &streams[(c * h + (p / ow) * k + i / k) * w_dim + (p % ow) * k + i % k]
                    });
                    pack_lanes_into(members, clen, plane).expect("positions within the stripe");
                }
                let first = c * positions + base;
                match fsm {
                    Some(fsm) => {
                        let rows: Vec<LaneRow<'_, W>> =
                            planes.iter().map(|x| LaneRow::Lanes(x)).collect();
                        let r = &mut lstate.registers()[first..first + lanes];
                        fsm.run_rows_resume_into(&rows, classes, clen, r, fired);
                    }
                    None => {
                        for (t, (f, &pick)) in fired.iter_mut().zip(&picks).enumerate() {
                            *f = planes[pick][t];
                        }
                    }
                }
                unpack_lanes_into(fired, clen, &mut out[first..first + lanes])
                    .expect("positions within the stripe");
            }
        }
    }
}

/// Reusable scratch for a group advance at stripe width `W`: the
/// lane-packed activation ping-pong arenas, the CMOS mux-pool selector
/// masks, gathered per-lane FSM residuals, the group's offset-class table
/// and its neutral pad plane. Weight, bias and neutral streams are never
/// copied: every row reads the plan's cached streams at its lanes' class
/// offsets. Every buffer grows to its high-water mark and is then reused
/// across chunks. The
/// spatial orientation of [`ExecPlan::advance`] uses the same buffers for
/// a lone image's conv and pool layers on either platform: packed input
/// or window planes, one lane group's fired stripes, and a one-class
/// table.
#[derive(Default)]
struct BatchArena<const W: usize> {
    /// Lane-packed activations the layer under evaluation reads.
    cur: Vec<Vec<Stripe<W>>>,
    /// Lane-packed activations the layer under evaluation writes.
    next: Vec<Vec<Stripe<W>>>,
    /// Per-cycle lane masks of the CMOS mux pool: `masks[j][t]` has lane
    /// `g` set when image `g`'s selector picks window element `j`.
    masks: Vec<Vec<Stripe<W>>>,
    /// Gathered per-lane FSM registers for the lane-parallel runners.
    r_scratch: Vec<i64>,
    /// The group's lanes split by absolute cycle offset.
    classes: OffsetClasses<W>,
    /// The `0101…` neutral pad over the chunk: lane `g` at cycle `t` holds
    /// the pad's bit at `g`'s class offset plus `t`.
    pad_plane: Vec<Stripe<W>>,
}

impl<const W: usize> BatchArena<W> {
    /// The spatial orientation's scratch for one chunk at absolute
    /// `offset`: `planes` packed input planes, one buffer for a lane
    /// group's fired stripes over `clen` cycles, and the one-class offset
    /// table.
    fn spatial(
        &mut self,
        planes: usize,
        offset: usize,
        clen: usize,
    ) -> (&mut [Vec<Stripe<W>>], &mut [Stripe<W>], &OffsetClasses<W>) {
        self.classes.regroup([offset]);
        if self.cur.len() < planes {
            self.cur.resize_with(planes, Vec::new);
        }
        self.next.resize_with(1, Vec::new);
        let fired = &mut self.next[0];
        fired.resize(clen, Stripe::ZERO);
        (&mut self.cur[..planes], fired, &self.classes)
    }
}

/// The lane scratch of one group advance per supported stripe width, so
/// [`ExecPlan::advance_batch_striped`], which picks the narrowest width
/// covering each chunk's live lane count, keeps every width's high-water
/// buffers alive across chunks. Idle widths cost only empty `Vec`s.
#[derive(Default)]
pub struct StripeArenas {
    /// 64-lane scratch.
    w1: BatchArena<1>,
    /// 128-lane scratch.
    w2: BatchArena<2>,
    /// 256-lane scratch.
    w4: BatchArena<4>,
    /// The output head's input block at any width: per input, one
    /// 64-lane stripe element's 64-cycle word transposed into one word
    /// per lane (`head[j][g]` holds lane `g`'s 64 cycles of input `j`).
    head: Vec<[u64; WORD_BITS]>,
}

/// All resumable state of one in-flight image plus the reusable scratch
/// arena. Create via [`ExecPlan::new_state`], bind via [`ExecPlan::begin`]
/// — rebinding reuses every allocation, so one state can serve a whole
/// batch of images without per-image arena churn. The arena holds only
/// image-dependent data and per-chunk scratch — including the lane
/// buffers the spatial orientation packs a conv or pool layer's positions
/// into, sized by the widest layer it has run; weight, bias and neutral
/// streams stay in the plan and are read in place.
pub struct ExecState {
    /// Identity of the plan that last bound this state (`None` until the
    /// first [`ExecPlan::begin`]).
    bound: Option<PlanFingerprint>,
    /// One resumable SNG cursor per pixel.
    pixels: Vec<PixelCursor>,
    /// Cross-chunk state of every layer.
    layers: Vec<LayerState>,
    /// Per class: accumulated 1s of the output stream (AQFP) or the
    /// accumulated APC count total (CMOS).
    class_acc: Vec<u64>,
    /// Cycles consumed since [`ExecPlan::begin`].
    cycles: usize,
    // ---- arena: reused per chunk, kept across rebinds ----
    /// Per-chunk buffers the pixel cursors generate into.
    pixel_chunks: Vec<BitStream>,
    /// Per-cycle counts buffer.
    counts: Vec<u32>,
    /// Ping-pong activation arenas: the layer under evaluation reads
    /// `act_a` and writes `act_b`, then the two swap — the activation
    /// buffers are reused across chunks and images.
    act_a: Vec<BitStream>,
    /// See [`ExecState::act_a`].
    act_b: Vec<BitStream>,
    /// Lane scratch of the spatial orientation (conv and pool layers):
    /// packed input planes, one channel's fired stripes and the
    /// one-class offset table, at each layer's stripe width.
    spatial: StripeArenas,
}

impl ExecState {
    /// Cycles consumed since the last [`ExecPlan::begin`] — the per-image
    /// cycle count every front-end reports (no recomputation needed).
    pub fn cycles(&self) -> usize {
        self.cycles
    }
}

/// Identity of a plan, stamped onto bound states by [`ExecPlan::begin`]
/// and checked by every [`ExecPlan::advance`]. Two plans agreeing on every
/// field are interchangeable for `advance`: the
/// [`ModelFingerprint`] covers the quantised weights/biases, topology,
/// comparator `bits`, and the weight-stream seed, so plans built from the
/// same content cache byte-identical streams.
///
/// (An earlier version compared only structural counts — layer count,
/// cached-stream count, pixel count — which let a state bound to one plan
/// be advanced by a `with_stream_seed` or `bits` twin, silently mixing
/// cursors with foreign weight streams.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanFingerprint {
    /// Platform the plan simulates.
    pub platform: Platform,
    /// Stochastic stream length N in cycles.
    pub stream_len: usize,
    /// Content fingerprint of the compiled network.
    pub model: ModelFingerprint,
}

/// Output spatial dims of a convolution layer.
fn conv_out_dims(h: usize, w: usize, k: usize, padding: Padding) -> (usize, usize) {
    match padding {
        Padding::Valid => (h - k + 1, w - k + 1),
        Padding::Same => (h, w),
    }
}

/// The FSM every neuron (or sorter-pool window) of one layer steps, each
/// resuming from its own `i64` register in the layer's
/// [`LayerState::Registers`]: the only place the plan tells the three FSMs
/// apart.
enum Fsm {
    /// AQFP conv/dense: sorter feature extraction (feedback occupancy).
    Feature(FeatureExtraction),
    /// CMOS conv/dense: the `Btanh` saturating up/down counter.
    Counter(Btanh),
    /// AQFP pooling: the conserving sorter (feedback occupancy).
    Pool(AveragePooling),
}

impl Fsm {
    /// The FSM of a `rows`-input conv or dense neuron on `platform`.
    fn neuron(platform: Platform, rows: usize) -> Self {
        match platform {
            Platform::Aqfp => Fsm::Feature(FeatureExtraction::new(rows)),
            Platform::Cmos => Fsm::Counter(Btanh::new(rows)),
        }
    }

    /// Whether the neuron counts the `0101…` neutral pad as one more row:
    /// the AQFP sorter pads even fan-ins to an odd width (the CMOS APC
    /// counts its rows as they are).
    fn pads(&self) -> bool {
        matches!(self, Fsm::Feature(fe) if fe.width() != fe.inputs())
    }

    /// A fresh image's register: no feedback for the sorters, the
    /// counter's mid-range power-on value for `Btanh`.
    fn initial_state(&self) -> i64 {
        match self {
            Fsm::Counter(fsm) => fsm.initial_state(),
            Fsm::Feature(_) | Fsm::Pool(_) => 0,
        }
    }

    /// One neuron's chunk from its per-cycle column `counts` (any neutral
    /// pad already counted, at the ABSOLUTE cycle), resuming register `r`
    /// and writing into `out` (reusing its allocation).
    fn run_counts_resume_into(&self, counts: &[u32], r: &mut i64, out: &mut BitStream) {
        match self {
            Fsm::Feature(fsm) => fsm.run_counts_resume_into(counts, r, out),
            Fsm::Counter(fsm) => fsm.run_counts_resume_into(counts, r, out),
            Fsm::Pool(fsm) => fsm.run_counts_resume_into(counts, r, out),
        }
    }

    /// Up to `64·W` lanes' chunk straight from the kernel row descriptors,
    /// lane `g` resuming register `r[g]`.
    fn run_rows_resume_into<const W: usize>(
        &self,
        rows: &[LaneRow<'_, W>],
        classes: &OffsetClasses<W>,
        clen: usize,
        r: &mut [i64],
        out: &mut [Stripe<W>],
    ) {
        match self {
            Fsm::Feature(fsm) => fsm.run_rows_resume_into(rows, classes, clen, r, out),
            Fsm::Counter(fsm) => fsm.run_rows_resume_into(rows, classes, clen, r, out),
            Fsm::Pool(fsm) => fsm.run_rows_resume_into(rows, classes, clen, r, out),
        }
    }
}

/// The AQFP output head's majority chain, bitwise over one 64-cycle word:
/// the first input, then one 3-input majority gate per later pair. MAJ is
/// symmetric, so the operand order within a gate cannot change a bit.
#[inline]
fn maj_chain(mut words: impl Iterator<Item = u64>) -> u64 {
    let mut y = words.next().expect("a majority chain has an input");
    while let (Some(a), Some(b)) = (words.next(), words.next()) {
        y = (y & a) | (y & b) | (a & b);
    }
    y
}

/// One neuron or sorter-pool window's chunk output for a whole lane group,
/// straight from the kernel row descriptors: the layer FSM's one lane
/// entry (`run_rows_resume_into`) counts the rows with
/// [`lane_counts_stream`] — per cycle in registers for kernels of at most
/// `TREE_ROWS` rows, through the 64-cycle slab compressor for wider ones —
/// and folds the counts straight into the recurrence, so no count plane
/// array is ever materialised. The per-cycle fire-mask words written to
/// `out` ARE the next layer's lane-packed activation — no per-image
/// transpose, count extraction or repacking. Bits of `out` above the lane
/// count are unspecified; nothing downstream reads them. Each lane's
/// register `idx` of layer `li` is gathered into `r_scratch` before the
/// run and scattered back after it.
///
/// [`lane_counts_stream`]: aqfp_sc_bitstream::lane_counts_stream
#[allow(clippy::too_many_arguments)]
fn lane_fsm_chunk<const W: usize>(
    fsm: &Fsm,
    states: &mut [&mut ExecState],
    li: usize,
    idx: usize,
    row_descs: &[LaneRow<'_, W>],
    classes: &OffsetClasses<W>,
    clen: usize,
    r_scratch: &mut Vec<i64>,
    out: &mut Vec<Stripe<W>>,
) {
    out.clear();
    out.resize(clen, Stripe::ZERO);
    r_scratch.clear();
    r_scratch.extend(states.iter_mut().map(|st| st.layers[li].registers()[idx]));
    fsm.run_rows_resume_into(row_descs, classes, clen, r_scratch, out);
    for (st, &r) in states.iter_mut().zip(r_scratch.iter()) {
        st.layers[li].registers()[idx] = r;
    }
}

/// Resets a conv, dense or sorter-pool layer's slot in place for a fresh
/// image: `count` registers at the layer FSM's initial value.
fn reset_fsm_slot(slot: &mut LayerState, fsm: &Fsm, count: usize) {
    let r0 = fsm.initial_state();
    match slot {
        LayerState::Registers(r) => {
            r.clear();
            r.resize(count, r0);
        }
        _ => *slot = LayerState::Registers(vec![r0; count]),
    }
}

/// Resets a CMOS pool layer's slot in place for a fresh image: one
/// selector RNG per channel, seeded from `seeds`.
fn reset_mux_slot(slot: &mut LayerState, seeds: impl Iterator<Item = u64>) {
    let fresh = seeds.map(StdRng::seed_from_u64);
    match slot {
        LayerState::PoolMux { rngs } => {
            rngs.clear();
            rngs.extend(fresh);
        }
        _ => *slot = LayerState::PoolMux { rngs: fresh.collect() },
    }
}

/// A resumable per-pixel SNG cursor (platform-specific word source).
enum PixelSng {
    Aqfp(Sng<BitsAsWords<ThermalRng>>),
    Cmos(Sng<BitsAsWords<SplitMix64>>),
}

struct PixelCursor {
    sng: PixelSng,
    level: u64,
}

impl PixelCursor {
    fn generate_into(&mut self, len: usize, out: &mut BitStream) {
        match &mut self.sng {
            PixelSng::Aqfp(sng) => sng.generate_level_into(self.level, len, out),
            PixelSng::Cmos(sng) => sng.generate_level_into(self.level, len, out),
        }
    }
}

/// Cross-chunk state of one layer.
enum LayerState {
    /// Conv, dense and AQFP pool layers on either platform: one register
    /// per neuron or window, resumed by the layer's [`Fsm`] — the sorter's
    /// feedback occupancy (from 0) on AQFP, the `Btanh` counter (from
    /// mid-range) on CMOS.
    Registers(Vec<i64>),
    /// CMOS pooling: one selector RNG cursor per channel.
    PoolMux { rngs: Vec<StdRng> },
    /// The categorization layer is stateless per cycle; its running score
    /// lives in `ExecState::class_acc`.
    Output,
}

impl LayerState {
    /// The registers of a layer that runs an [`Fsm`].
    fn registers(&mut self) -> &mut [i64] {
        let LayerState::Registers(r) = self else {
            unreachable!("a layer with an FSM keeps registers")
        };
        r
    }
}

/// Index of the largest score (first on ties).
pub(crate) fn argmax(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate() {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

/// Comparator level of a pixel value `p ∈ [0, 1]` read as the bipolar
/// value `p`: `round(Bipolar::clamped(p).probability() · 2^bits)`.
pub(crate) fn pixel_level(p: f32, scale: f64) -> u64 {
    let prob = Bipolar::clamped(f64::from(p)).probability();
    (prob * scale).round().min(scale) as u64
}

/// Seed-domain separation: three keyed SplitMix64 steps over `base`.
pub(crate) fn derive(base: u64, tags: [u64; 3]) -> u64 {
    let mut x = base;
    for t in tags {
        x = SplitMix64::new(x ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build_model, ActivationStyle, LayerSpec, NetworkSpec};
    use aqfp_sc_bitstream::mux_add;

    /// A conv layer one neuron at a time, sharing none of the lane sweeps:
    /// each neuron counts its `in_c·k·k` taps, bias and pad row
    /// word-parallel at the chunk's offset and steps its FSM over the
    /// counts. The geometry comes from the compiled layer of `net`, so it
    /// also checks a conv the plan stores as a dense layer.
    fn conv_per_neuron(
        net: &CompiledNetwork,
        plan: &ExecPlan,
        chunk: LayerChunk<'_>,
        out: &mut [BitStream],
    ) {
        let LayerChunk { li, streams, offset, clen, lstate } = chunk;
        let CompiledLayer::Conv { k, in_c, out_c, padding, .. } = net.layers()[li] else {
            panic!("layer {li} is not a conv")
        };
        let (CachedLayer::Conv { w, b, .. } | CachedLayer::Dense { w, b, .. }) = &plan.layers[li]
        else {
            panic!("layer {li} has no weights")
        };
        let (_, h, w_dim) = plan.shapes[li];
        let (oh, ow) = conv_out_dims(h, w_dim, k, padding);
        let pad = if padding == Padding::Same { (k / 2) as isize } else { 0 };
        let (m, positions) = (in_c * k * k, oh * ow);
        let fsm = Fsm::neuron(plan.platform, m + 1);
        let pad_row = fsm.pads();
        let neutral = plan.neutral.words();
        let pad_chunk = plan.neutral.slice(offset, clen);
        let mut counts = Vec::new();
        for oc in 0..out_c {
            for p in 0..positions {
                let mut rows: Vec<KernelRow<'_>> = Vec::with_capacity(m + 2);
                for j in 0..m {
                    let (ic, ky, kx) = (j / (k * k), j / k % k, j % k);
                    let iy = (p / ow + ky) as isize - pad;
                    let ix = (p % ow + kx) as isize - pad;
                    let x = if iy < 0 || ix < 0 || iy >= h as isize || ix >= w_dim as isize {
                        &pad_chunk
                    } else {
                        &streams[(ic * h + iy as usize) * w_dim + ix as usize]
                    };
                    rows.push(KernelRow::Xnor(x.words(), w.row(oc * m + j)));
                }
                rows.push(KernelRow::Broadcast(b.row(oc)));
                if pad_row {
                    rows.push(KernelRow::Broadcast(neutral));
                }
                column_counts_into(&rows, offset, clen, &mut counts);
                let idx = oc * positions + p;
                fsm.run_counts_resume_into(&counts, &mut lstate.registers()[idx], &mut out[idx]);
            }
        }
    }

    /// The pool layer one window at a time, sharing nothing with the lane
    /// sweeps. AQFP: each window's `k·k` chunk-local streams count
    /// word-parallel (read at offset 0) and step the sorter over the
    /// counts. CMOS: each window clones its channel's selector and muxes
    /// its streams with [`mux_add`]; the channel's selector then steps on
    /// as one clone did.
    fn pool_per_window(plan: &ExecPlan, chunk: LayerChunk<'_>, out: &mut [BitStream]) {
        let LayerChunk { li, streams, clen, lstate, .. } = chunk;
        let CachedLayer::Pool { k, .. } = plan.layers[li] else { panic!("layer {li} is not a pool") };
        let (channels, h, w_dim) = plan.shapes[li];
        let (ow, positions) = (w_dim / k, (h / k) * (w_dim / k));
        let mut counts = Vec::new();
        for c in 0..channels {
            let mut advanced = None;
            for p in 0..positions {
                let window: Vec<&BitStream> = (0..k * k)
                    .map(|i| {
                        let y = (p / ow) * k + i / k;
                        let x = (p % ow) * k + i % k;
                        &streams[(c * h + y) * w_dim + x]
                    })
                    .collect();
                let idx = c * positions + p;
                match &mut *lstate {
                    LayerState::Registers(r) => {
                        let rows: Vec<KernelRow<'_>> =
                            window.iter().map(|s| KernelRow::Broadcast(s.words())).collect();
                        column_counts_into(&rows, 0, clen, &mut counts);
                        let pool = AveragePooling::new(k * k);
                        pool.run_counts_resume_into(&counts, &mut r[idx], &mut out[idx]);
                    }
                    LayerState::PoolMux { rngs } => {
                        let mut rng = rngs[c].clone();
                        out[idx] = mux_add(&window, &mut rng).expect("well-formed window");
                        advanced = Some(rng);
                    }
                    _ => panic!("not a pool state"),
                }
            }
            if let (Some(rng), LayerState::PoolMux { rngs }) = (advanced, &mut *lstate) {
                rngs[c] = rng;
            }
        }
    }

    /// An 18×18 net: a `Same` conv over 324 positions, a pool over 81, a
    /// valid conv over 49 and a one-position 7×7 valid conv the plan
    /// stores as a dense layer. Every neuron layer has an even fan-in +
    /// bias, so the AQFP sorter pads each.
    fn oracle_net() -> CompiledNetwork {
        let spec = NetworkSpec {
            name: "oracle",
            input_side: 18,
            layers: vec![
                LayerSpec::Conv { k: 3, out_c: 3, padding: Padding::Same },
                LayerSpec::AvgPool { k: 2 },
                LayerSpec::Conv { k: 3, out_c: 1, padding: Padding::Valid },
                LayerSpec::Conv { k: 7, out_c: 3, padding: Padding::Valid },
                LayerSpec::Output { classes: 2 },
            ],
        };
        let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 41);
        CompiledNetwork::from_model(&spec, &mut model, 8)
    }

    #[test]
    fn slab_rows_match_the_per_stream_generator() {
        // Every cached weight and bias row against its stream generated on
        // its own: weight (row, col) of layer li from its platform's SNG
        // keyed derive(seed, [TAG_WEIGHT ^ li, row, col]) over the layer's
        // `[rows][fan_in]` matrix, bias row from derive(seed, [TAG_BIAS ^
        // li, row, 0]). N = 116 ends every row in a partial word.
        let compiled = oracle_net();
        let (n, bits, seed) = (116, compiled.bits(), compiled.stream_seed());
        for platform in [Platform::Aqfp, Platform::Cmos] {
            let plan = ExecPlan::new(&compiled, n, platform);
            let generate = |tag: u64, li: usize, row: usize, col: usize, level: u64| {
                let key = derive(seed, [tag ^ li as u64, row as u64, col as u64]);
                match platform {
                    Platform::Aqfp => {
                        Sng::new(bits, ThermalRng::with_seed(key)).generate_level(level, n)
                    }
                    Platform::Cmos => Sng::new(bits, SplitMix64::new(key)).generate_level(level, n),
                }
            };
            let mut streams = 0;
            for (li, layer) in compiled.layers().iter().enumerate() {
                let (fan_in, w_levels, b_levels) = match layer {
                    CompiledLayer::Conv { k, in_c, w_levels, b_levels, .. } => {
                        (in_c * k * k, w_levels, b_levels)
                    }
                    CompiledLayer::Dense { in_f, w_levels, b_levels, .. }
                    | CompiledLayer::Output { in_f, w_levels, b_levels, .. } => {
                        (*in_f, w_levels, b_levels)
                    }
                    CompiledLayer::Pool { .. } => continue,
                };
                let (CachedLayer::Conv { w, b, .. }
                | CachedLayer::Dense { w, b, .. }
                | CachedLayer::Output { w, b, .. }) = &plan.layers[li]
                else {
                    panic!("layer {li} has no weights")
                };
                for (i, &level) in w_levels.iter().enumerate() {
                    let want = generate(TAG_WEIGHT, li, i / fan_in, i % fan_in, level);
                    assert_eq!(w.row(i), want.words(), "{platform:?} layer {li} weight {i}");
                }
                for (o, &level) in b_levels.iter().enumerate() {
                    let want = generate(TAG_BIAS, li, o, 0, level);
                    assert_eq!(b.row(o), want.words(), "{platform:?} layer {li} bias {o}");
                }
                assert_eq!((w.row_count(), b.row_count()), (w_levels.len(), b_levels.len()));
                streams += w_levels.len() + b_levels.len();
            }
            assert_eq!(plan.cached_streams(), streams);
        }
    }

    #[test]
    fn spatial_conv_and_pool_match_per_neuron_counts() {
        // The spatial orientation and the planned dense chunk against
        // per-neuron and per-window oracles, which share none of the lane
        // sweeps: a `Same` conv over 324 positions (edge lanes on the
        // neutral pad), the pool over 81 (sorter on AQFP, selector mux on
        // CMOS), a valid conv over 49, and a one-position valid conv the
        // plan runs as a dense layer, each fed random chunk-local inputs
        // in 37-cycle chunks so every chunk after the first starts
        // unaligned. Every neuron layer has an even fan-in + bias, so the
        // AQFP sorter pads each. The spatial side runs at W = 1 (six conv
        // groups and two pool groups per channel, the last ragged) and at
        // W = 4 (two conv groups, one pool group, each ragged).
        let compiled = oracle_net();
        let image =
            Tensor::from_vec(vec![1, 18, 18], (0..324).map(|p| (p % 7) as f32 / 7.0).collect());
        let n = 3 * 37 + 5;
        for platform in [Platform::Aqfp, Platform::Cmos] {
            let plan = ExecPlan::new(&compiled, n, platform);
            assert!(matches!(plan.layers[3], CachedLayer::Dense { in_f: 49, out_f: 3, .. }));
            let [mut lanes1, mut lanes4, mut oracle] = [(); 3].map(|_| {
                let mut st = plan.new_state();
                plan.begin(&mut st, &image, 5);
                st
            });
            let (mut w1, mut w4) = (BatchArena::<1>::default(), BatchArena::<4>::default());
            let mut counts = Vec::new();
            let mut rng = SplitMix64::new(platform as u64);
            for (li, layer) in plan.layers.iter().enumerate() {
                if matches!(layer, CachedLayer::Output { .. }) {
                    continue;
                }
                let (in_c, h, w_dim) = plan.shapes[li];
                let (c, oh, ow) = plan.shapes[li + 1];
                for offset in (0..n).step_by(37) {
                    let clen = 37.min(n - offset);
                    let streams: Vec<BitStream> = (0..in_c * h * w_dim)
                        .map(|_| BitStream::from_fn(clen, |_| rng.next_u64() & 1 == 1))
                        .collect();
                    let mut outs = [(); 3].map(|_| vec![BitStream::zeros(0); c * oh * ow]);
                    fn chunk<'a>(
                        (li, streams, offset, clen): (usize, &'a [BitStream], usize, usize),
                        st: &'a mut ExecState,
                    ) -> LayerChunk<'a> {
                        LayerChunk { li, streams, offset, clen, lstate: &mut st.layers[li] }
                    }
                    let at = (li, &streams[..], offset, clen);
                    let [got1, got4, want] = &mut outs;
                    match layer {
                        CachedLayer::Conv { .. } => {
                            plan.conv_spatial(chunk(at, &mut lanes1), &mut w1, got1);
                            plan.conv_spatial(chunk(at, &mut lanes4), &mut w4, got4);
                            conv_per_neuron(&compiled, &plan, chunk(at, &mut oracle), want);
                        }
                        CachedLayer::Pool { .. } => {
                            plan.pool_spatial(chunk(at, &mut lanes1), &mut w1, got1);
                            plan.pool_spatial(chunk(at, &mut lanes4), &mut w4, got4);
                            pool_per_window(&plan, chunk(at, &mut oracle), want);
                        }
                        _ => {
                            plan.dense_chunk(chunk(at, &mut lanes1), &mut counts, got1);
                            plan.dense_chunk(chunk(at, &mut lanes4), &mut counts, got4);
                            conv_per_neuron(&compiled, &plan, chunk(at, &mut oracle), want);
                        }
                    }
                    for (name, got) in [("W = 1", &*got1), ("W = 4", &*got4)] {
                        let same = got.iter().zip(want.iter()).all(|(g, w)| g == w);
                        assert!(same, "{platform:?} layer {li} offset {offset} {name}");
                    }
                }
            }
        }
    }
}
