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
//!   weight/bias bit-streams (generated once, image-independent), the layer
//!   topology and shapes, and the absolute-parity neutral padding stream.
//!   A plan is immutable and shareable across threads.
//! * [`ExecState`] — everything that is a property of one *in-flight
//!   image*: the per-pixel SNG cursors, the per-neuron feedback / FSM
//!   state, the running class accumulators, and a reusable scratch arena
//!   (counts buffer, pixel/weight/neutral chunk-slice buffers) so the chunk
//!   bookkeeping that used to allocate per chunk reuses persistent
//!   buffers, including the ping-pong activation arenas every layer of
//!   [`ExecPlan::advance`] writes into in place.
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
//! not chunk-local cycle: a chunk starting at an odd offset sees a neutral
//! slice that starts with 0. Restarting the pattern per chunk would drift
//! every odd-offset count by one.

use std::sync::Arc;

use aqfp_sc_bitstream::{
    column_counts_into, mux_add, pack_lanes_into, xnor_popcount, Bipolar, BitStream, BitsAsWords,
    KernelRow, LanePopcount, LaneRow, OffsetClasses, SplitMix64, Sng, Stripe, ThermalRng,
    MAX_KERNEL_ROWS, MAX_LANES, WORD_BITS,
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

/// One compiled layer with its image-independent streams attached.
pub(crate) enum CachedLayer {
    Conv {
        k: usize,
        in_c: usize,
        out_c: usize,
        padding: Padding,
        /// `[out_c][in_c·k·k]` row-major weight streams.
        w: Vec<BitStream>,
        /// One bias stream per output channel.
        b: Vec<BitStream>,
    },
    Pool {
        k: usize,
    },
    Dense {
        in_f: usize,
        out_f: usize,
        w: Vec<BitStream>,
        b: Vec<BitStream>,
    },
    Output {
        in_f: usize,
        classes: usize,
        /// AQFP: per class, input indices in majority-chain wiring order
        /// (products of high-magnitude weights at the chain end).
        order: Vec<Vec<usize>>,
        /// `[classes][in_f]` row-major weight streams (natural order).
        w: Vec<BitStream>,
        b: Vec<BitStream>,
    },
}

/// The immutable, shareable execution plan of a [`CompiledNetwork`] on one
/// [`Platform`] at stream length N.
///
/// Construction pays the full weight-stream generation cost once. The plan
/// holds no per-image state — pair it with an [`ExecState`] and drive it
/// with [`ExecPlan::advance`].
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
    net: Arc<CompiledNetwork>,
    platform: Platform,
    stream_len: usize,
    /// Content fingerprint of `net`, computed once at construction (the
    /// bind-guard compares it on every `advance`).
    model_fp: ModelFingerprint,
    pub(crate) layers: Vec<CachedLayer>,
    pub(crate) shapes: Vec<(usize, usize, usize)>,
    neutral: BitStream,
    cached_streams: usize,
}

impl ExecPlan {
    /// Builds a plan for `net` at stream length `stream_len` on `platform`,
    /// generating and caching every weight/bias stream. The network is
    /// cloned into shared ownership — see [`ExecPlan::from_arc`] to reuse
    /// an existing [`Arc`] (e.g. one model compiled once and planned on
    /// both platforms).
    ///
    /// # Panics
    ///
    /// Panics when `stream_len` is 0.
    pub fn new(net: &CompiledNetwork, stream_len: usize, platform: Platform) -> Self {
        Self::from_arc(Arc::new(net.clone()), stream_len, platform)
    }

    /// Builds a plan over a shared network without cloning it. Plans own
    /// their network, carry no borrows, and are `Send + Sync`, so a
    /// [`ModelRegistry`](crate::ModelRegistry) can hand out
    /// `Arc<ExecPlan>` handles and hot-swap models under live traffic.
    ///
    /// # Panics
    ///
    /// Panics when `stream_len` is 0: a zero-length stream has no cycles
    /// to score, so every inference would fail in [`ExecPlan::scores`].
    pub fn from_arc(net: Arc<CompiledNetwork>, stream_len: usize, platform: Platform) -> Self {
        assert!(stream_len > 0, "stream length must be at least 1 cycle");
        let bits = net.bits();
        let seed = net.stream_seed();
        let mut layers = Vec::with_capacity(net.layers().len());
        let mut cached_streams = 0usize;
        let gen_stream = |tag: u64, layer: u64, row: u64, col: u64, level: u64| {
            let key = derive(seed, [tag ^ layer, row, col]);
            generate_stream(platform, bits, key, level, stream_len)
        };
        for (li, layer) in net.layers().iter().enumerate() {
            let li64 = li as u64;
            match layer {
                CompiledLayer::Conv { k, in_c, out_c, padding, w_levels, b_levels } => {
                    let m = in_c * k * k;
                    let w: Vec<BitStream> = w_levels
                        .iter()
                        .enumerate()
                        .map(|(i, &l)| {
                            gen_stream(TAG_WEIGHT, li64, (i / m) as u64, (i % m) as u64, l)
                        })
                        .collect();
                    let b: Vec<BitStream> = b_levels
                        .iter()
                        .enumerate()
                        .map(|(i, &l)| gen_stream(TAG_BIAS, li64, i as u64, 0, l))
                        .collect();
                    cached_streams += w.len() + b.len();
                    layers.push(CachedLayer::Conv {
                        k: *k,
                        in_c: *in_c,
                        out_c: *out_c,
                        padding: *padding,
                        w,
                        b,
                    });
                }
                CompiledLayer::Pool { k } => layers.push(CachedLayer::Pool { k: *k }),
                CompiledLayer::Dense { in_f, out_f, w_levels, b_levels } => {
                    let w: Vec<BitStream> = w_levels
                        .iter()
                        .enumerate()
                        .map(|(i, &l)| {
                            gen_stream(TAG_WEIGHT, li64, (i / in_f) as u64, (i % in_f) as u64, l)
                        })
                        .collect();
                    let b: Vec<BitStream> = b_levels
                        .iter()
                        .enumerate()
                        .map(|(i, &l)| gen_stream(TAG_BIAS, li64, i as u64, 0, l))
                        .collect();
                    cached_streams += w.len() + b.len();
                    layers.push(CachedLayer::Dense { in_f: *in_f, out_f: *out_f, w, b });
                }
                CompiledLayer::Output { in_f, classes, w_levels, b_levels } => {
                    let w: Vec<BitStream> = w_levels
                        .iter()
                        .enumerate()
                        .map(|(i, &l)| {
                            gen_stream(TAG_WEIGHT, li64, (i / in_f) as u64, (i % in_f) as u64, l)
                        })
                        .collect();
                    let b: Vec<BitStream> = b_levels
                        .iter()
                        .enumerate()
                        .map(|(i, &l)| gen_stream(TAG_BIAS, li64, i as u64, 0, l))
                        .collect();
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
                    cached_streams += w.len() + b.len();
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
            model_fp: net.fingerprint(),
            layers,
            shapes: net.spec().shapes(),
            neutral: BitStream::alternating(stream_len),
            cached_streams,
            net,
        }
    }

    /// The compiled network this plan executes.
    pub fn network(&self) -> &CompiledNetwork {
        &self.net
    }

    /// Shared handle to the compiled network (e.g. to build a second plan
    /// — another platform or stream length — without cloning the weights).
    pub fn network_arc(&self) -> Arc<CompiledNetwork> {
        Arc::clone(&self.net)
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
        self.cached_streams
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
            neutral_chunk: BitStream::zeros(0),
            w_chunks: Vec::new(),
            b_chunks: Vec::new(),
            act_a: Vec::new(),
            act_b: Vec::new(),
        }
    }

    /// (Re)binds `state` to `image` under `image_seed`: pixel cursors rewound
    /// to cycle 0, per-neuron feedback/FSM state cleared, class accumulators
    /// zeroed. Arena allocations from previous images are kept.
    ///
    /// # Panics
    ///
    /// Panics when the image shape does not match the compiled spec.
    pub fn begin(&self, state: &mut ExecState, image: &Tensor, image_seed: u64) {
        let side = self.net.spec().input_side;
        assert_eq!(image.shape(), &[1, side, side], "image shape mismatch");
        let bits = self.net.bits();
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
                CachedLayer::Conv { k, in_c, out_c, padding, .. } => {
                    let (oh, ow) = conv_out_dims(h, w_dim, *k, *padding);
                    reset_neuron_slot(platform, slot, in_c * k * k + 1, out_c * oh * ow);
                }
                CachedLayer::Pool { k } => {
                    let (oh, ow) = (h / k, w_dim / k);
                    reset_pool_slot(
                        platform,
                        slot,
                        layer_in_c,
                        oh * ow,
                        |c| derive(image_seed, [TAG_POOL ^ li as u64, c as u64, 0]),
                    );
                }
                CachedLayer::Dense { in_f, out_f, .. } => {
                    reset_neuron_slot(platform, slot, in_f + 1, *out_f);
                }
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
        // One-shot fast path: a chunk spanning the whole stream borrows the
        // cached weight streams and the neutral stream directly — no
        // per-chunk slicing or copying.
        let full = offset == 0 && clen == self.stream_len;
        let platform = self.platform;
        let ExecState {
            pixels,
            layers,
            class_acc,
            pixel_chunks,
            counts,
            neutral_chunk,
            w_chunks,
            b_chunks,
            act_a,
            act_b,
            ..
        } = state;
        // Slice the neutral stream at the absolute offset so its 0101…
        // parity matches a whole-stream run.
        let neutral: &BitStream = if full {
            &self.neutral
        } else {
            self.neutral.slice_into(offset, clen, neutral_chunk);
            neutral_chunk
        };
        // Generate this chunk of every pixel stream from its cursor, into
        // the state's persistent chunk buffers.
        for (cursor, buf) in pixels.iter_mut().zip(pixel_chunks.iter_mut()) {
            cursor.generate_into(clen, buf);
        }
        // Activations of the layer under evaluation: the first layer reads
        // the pixel buffers directly, later ones the `act_a` arena; each
        // producing layer writes into `act_b` and the arenas are swapped —
        // no per-chunk activation allocation.
        let mut first = true;
        for (li, (layer, lstate)) in self.layers.iter().zip(layers.iter_mut()).enumerate()
        {
            let streams: &[BitStream] = if first { pixel_chunks } else { act_a };
            let (layer_in_c, h, w_dim) = self.shapes[li];
            let mut produced = true;
            match layer {
                CachedLayer::Conv { k, in_c, out_c, padding, w, b } => {
                    let (oh, ow) = conv_out_dims(h, w_dim, *k, *padding);
                    let pad = match padding {
                        Padding::Valid => 0isize,
                        Padding::Same => (k / 2) as isize,
                    };
                    let m = in_c * k * k;
                    let pad_row = sorter_pads(platform, m + 1);
                    let (w_run, b_run) =
                        chunk_streams(full, w, b, offset, clen, w_chunks, b_chunks);
                    act_b.resize_with(out_c * oh * ow, || BitStream::zeros(0));
                    let mut rows: Vec<KernelRow<'_>> = Vec::with_capacity(m + 2);
                    let mut idx = 0usize;
                    for oc in 0..*out_c {
                        let wrow = &w_run[oc * m..(oc + 1) * m];
                        for oy in 0..oh {
                            for ox in 0..ow {
                                rows.clear();
                                let mut j = 0usize;
                                for ic in 0..*in_c {
                                    for ky in 0..*k {
                                        for kx in 0..*k {
                                            let iy = oy as isize + ky as isize - pad;
                                            let ix = ox as isize + kx as isize - pad;
                                            let x = if iy < 0
                                                || ix < 0
                                                || iy >= h as isize
                                                || ix >= w_dim as isize
                                            {
                                                neutral // zero-valued padding row
                                            } else {
                                                &streams[(ic * h + iy as usize) * w_dim
                                                    + ix as usize]
                                            };
                                            rows.push(KernelRow::Xnor(
                                                x.words(),
                                                wrow[j].words(),
                                            ));
                                            j += 1;
                                        }
                                    }
                                }
                                rows.push(KernelRow::Plain(b_run[oc].words()));
                                if pad_row {
                                    rows.push(KernelRow::Plain(neutral.words()));
                                }
                                column_counts_into(&rows, clen, counts);
                                neuron_chunk_into(m + 1, lstate, idx, counts, &mut act_b[idx]);
                                idx += 1;
                            }
                        }
                    }
                }
                CachedLayer::Pool { k } => {
                    let (oh, ow) = (h / k, w_dim / k);
                    act_b.resize_with(layer_in_c * oh * ow, || BitStream::zeros(0));
                    let mut rows: Vec<KernelRow<'_>> = Vec::with_capacity(k * k);
                    let mut window_refs: Vec<&BitStream> = Vec::with_capacity(k * k);
                    let mut idx = 0usize;
                    for c in 0..layer_in_c {
                        // All windows of a channel share one selector
                        // sequence, so each window advances a clone and the
                        // canonical cursor steps once per chunk.
                        let mut advanced: Option<StdRng> = None;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let window = (0..k * k).map(|i| {
                                    &streams[(c * h + oy * k + i / k) * w_dim + ox * k + i % k]
                                });
                                match (platform, &mut *lstate) {
                                    (Platform::Aqfp, LayerState::PoolSorter { r }) => {
                                        rows.clear();
                                        for s in window {
                                            rows.push(KernelRow::Plain(s.words()));
                                        }
                                        column_counts_into(&rows, clen, counts);
                                        AveragePooling::new(k * k).run_counts_resume_into(
                                            counts,
                                            &mut r[idx],
                                            &mut act_b[idx],
                                        );
                                    }
                                    (Platform::Cmos, LayerState::PoolMux { rngs }) => {
                                        let mut rng = rngs[c].clone();
                                        window_refs.clear();
                                        window_refs.extend(window);
                                        act_b[idx] = mux_add(&window_refs, &mut rng)
                                            .expect("well-formed window");
                                        advanced = Some(rng);
                                    }
                                    _ => unreachable!("pool state matches platform"),
                                }
                                idx += 1;
                            }
                        }
                        if let (LayerState::PoolMux { rngs }, Some(rng)) =
                            (&mut *lstate, advanced)
                        {
                            rngs[c] = rng;
                        }
                    }
                }
                CachedLayer::Dense { in_f, out_f, w, b } => {
                    let (w_run, b_run) =
                        chunk_streams(full, w, b, offset, clen, w_chunks, b_chunks);
                    act_b.resize_with(*out_f, || BitStream::zeros(0));
                    let pad_row = sorter_pads(platform, in_f + 1);
                    let mut rows: Vec<KernelRow<'_>> = Vec::with_capacity(in_f + 2);
                    for o in 0..*out_f {
                        let wrow = &w_run[o * in_f..(o + 1) * in_f];
                        rows.clear();
                        for (x, ws) in streams.iter().zip(wrow) {
                            rows.push(KernelRow::Xnor(x.words(), ws.words()));
                        }
                        rows.push(KernelRow::Plain(b_run[o].words()));
                        if pad_row {
                            rows.push(KernelRow::Plain(neutral.words()));
                        }
                        column_counts_into(&rows, clen, counts);
                        neuron_chunk_into(in_f + 1, lstate, o, counts, &mut act_b[o]);
                    }
                }
                CachedLayer::Output { in_f, classes, order, w, b } => {
                    produced = false;
                    let (w_run, b_run) =
                        chunk_streams(full, w, b, offset, clen, w_chunks, b_chunks);
                    let nw = clen.div_ceil(WORD_BITS);
                    let tail = clen % WORD_BITS;
                    for (cl, class_order) in order.iter().enumerate().take(*classes) {
                        let wrow = &w_run[cl * in_f..(cl + 1) * in_f];
                        match platform {
                            Platform::Aqfp => {
                                // Inline word-level majority chain over the
                                // XNOR products (in wiring order), the bias,
                                // and — for even fan-in+1 — the
                                // absolute-parity neutral pad. No product
                                // streams are materialised; the XNOR's
                                // garbage tail bits are masked before the
                                // popcount.
                                let width = if (in_f + 1).is_multiple_of(2) {
                                    in_f + 2
                                } else {
                                    in_f + 1
                                };
                                let mut total = 0u64;
                                for wi in 0..nw {
                                    let input = |i: usize| -> u64 {
                                        if i < *in_f {
                                            let j = class_order[i];
                                            !(streams[j].words()[wi] ^ wrow[j].words()[wi])
                                        } else if i == *in_f {
                                            b_run[cl].words()[wi]
                                        } else {
                                            neutral.words()[wi]
                                        }
                                    };
                                    let mut y = if width == 1 {
                                        input(0)
                                    } else {
                                        maj_word(input(0), input(1), input(2))
                                    };
                                    let mut i = 3;
                                    while i + 1 < width {
                                        y = maj_word(y, input(i), input(i + 1));
                                        i += 2;
                                    }
                                    if wi == nw - 1 && tail != 0 {
                                        y &= (1u64 << tail) - 1;
                                    }
                                    total += u64::from(y.count_ones());
                                }
                                class_acc[cl] += total;
                            }
                            Platform::Cmos => {
                                // APC total = Σ popcount of every product
                                // row — no per-cycle counts needed.
                                let mut total = b_run[cl].count_ones() as u64;
                                for (x, ws) in streams.iter().zip(wrow) {
                                    total +=
                                        u64::from(xnor_popcount(x.words(), ws.words(), clen));
                                }
                                class_acc[cl] += total;
                            }
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
    /// single chunk (the zero-copy fast path), and report the scores.
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

    /// Advances up to [`MAX_LANES`] bound states together through one chunk
    /// of at most `max_cycles` cycles using the batch-transposed (lane)
    /// kernels: the same packed cycle slot of every image goes into one
    /// [`Stripe`] (lane `g` in bit `g % 64` of stripe element `g / 64`) and
    /// the per-image FSM state (sorter feedback, `Btanh`, selector RNGs)
    /// stays scalar. The stripe width `W ∈ {1, 2, 4}` is picked from the
    /// group size — bit-identity across widths makes the choice invisible.
    /// Bit-identical to advancing each state with [`ExecPlan::advance`]
    /// over the same cycles.
    ///
    /// The states may sit at **different** absolute cycle offsets (a
    /// retire-and-refill streaming group mixes half-done survivors with
    /// freshly begun images). The lanes are grouped into offset classes
    /// ([`OffsetClasses`]), and every image-independent stream (weights,
    /// biases, the 0101… neutral pad) is read in place from the plan's
    /// cache at each class's offset and broadcast to that class's lanes —
    /// one class, one splat per row and cycle, when the offsets agree. No
    /// weight stream is copied either way, and every image sees exactly
    /// the bits a scalar run at its offset would. Every state advances by
    /// the same returned cycle count.
    ///
    /// Chunks are clamped to the *smallest* remaining budget across the
    /// states and to [`MAX_KERNEL_ROWS`] cycles (the lane popcount
    /// capacity), so callers should loop
    /// `while plan.advance_batch(&mut states, n) > 0 {}`. Returns the
    /// number of cycles consumed (0 once any state has finished — retire
    /// finished states from the group to keep the rest advancing).
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty or holds more than [`MAX_LANES`]
    /// states, or when any state is not bound to this plan.
    pub fn advance_batch(&self, states: &mut [ExecState], max_cycles: usize) -> usize {
        let mut arenas = StripeArenas::default();
        let mut refs: Vec<&mut ExecState> = states.iter_mut().collect();
        self.advance_batch_striped(&mut refs, max_cycles, &mut arenas)
    }

    /// [`ExecPlan::advance_batch`] with caller-owned scratch and automatic
    /// stripe-width selection: the narrowest `W ∈ {1, 2, 4}` covering the
    /// group runs the chunk, so a draining group keeps its vector lanes
    /// full. The [`StripeArenas`] keep each width's lane buffers alive
    /// across chunks, so a steady-state streaming driver allocates nothing
    /// per chunk.
    pub fn advance_batch_striped(
        &self,
        states: &mut [&mut ExecState],
        max_cycles: usize,
        arenas: &mut StripeArenas,
    ) -> usize {
        match states.len().div_ceil(WORD_BITS) {
            0 | 1 => self.advance_batch_in(states, max_cycles, &mut arenas.w1),
            2 => self.advance_batch_in(states, max_cycles, &mut arenas.w2),
            _ => self.advance_batch_in(states, max_cycles, &mut arenas.w4),
        }
    }

    /// [`ExecPlan::advance_batch`] at one fixed stripe width with
    /// caller-owned scratch: the [`BatchArena`] keeps the lane-packed
    /// buffers alive across chunks, so a steady-state streaming driver
    /// allocates nothing per chunk. Takes `&mut ExecState` references so a
    /// scheduler can advance lanes that live inside its own bookkeeping
    /// structures. `W = 1` is the zero-regression 64-lane baseline.
    pub fn advance_batch_in<const W: usize>(
        &self,
        states: &mut [&mut ExecState],
        max_cycles: usize,
        arena: &mut BatchArena<W>,
    ) -> usize {
        assert!(
            !states.is_empty() && states.len() <= WORD_BITS * W && states.len() <= MAX_LANES,
            "advance_batch takes 1..=64*W states"
        );
        let fp = self.fingerprint();
        for st in states.iter() {
            assert_eq!(st.bound.as_ref(), Some(&fp), "state is not bound to this plan");
        }
        let BatchArena { cur, next, masks, r_scratch, classes } = arena;
        let remaining = states.iter().map(|s| self.stream_len - s.cycles).min().unwrap();
        let clen = max_cycles.min(remaining).min(MAX_KERNEL_ROWS);
        if clen == 0 {
            return 0;
        }
        // Every image-independent row (weight, bias, the absolute-parity
        // 0101… neutral pad) reads its cached full-length stream at the
        // offset of each lane's class — one class when the offsets agree.
        classes.regroup(states.iter().map(|s| s.cycles));
        let classes = &*classes;
        let n = states.len();
        let platform = self.platform;
        let neutral = self.neutral.words();
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
                CachedLayer::Conv { k, in_c, out_c, padding, w, b } => {
                    let (oh, ow) = conv_out_dims(h, w_dim, *k, *padding);
                    let pad = match padding {
                        Padding::Valid => 0isize,
                        Padding::Same => (k / 2) as isize,
                    };
                    let m = in_c * k * k;
                    // The sorter pads even fan-ins with the 0101… neutral
                    // stream; fold it in as one more kernel row so the lane
                    // FSM sees finished counts.
                    let pad_row = sorter_pads(platform, m + 1);
                    if next.len() < out_c * oh * ow {
                        next.resize_with(out_c * oh * ow, Vec::new);
                    }
                    let mut rows: Vec<LaneRow<'_, W>> = Vec::with_capacity(m + 2);
                    let mut idx = 0usize;
                    for oc in 0..*out_c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                rows.clear();
                                let mut j = 0usize;
                                for ic in 0..*in_c {
                                    for ky in 0..*k {
                                        for kx in 0..*k {
                                            let iy = oy as isize + ky as isize - pad;
                                            let ix = ox as isize + kx as isize - pad;
                                            let oob = iy < 0
                                                || ix < 0
                                                || iy >= h as isize
                                                || ix >= w_dim as isize;
                                            let wj = w[oc * m + j].words();
                                            rows.push(if oob {
                                                // Zero-valued padding row × weight.
                                                LaneRow::BroadcastXnor(neutral, wj)
                                            } else {
                                                let x = &cur
                                                    [(ic * h + iy as usize) * w_dim + ix as usize];
                                                LaneRow::Xnor(x, wj)
                                            });
                                            j += 1;
                                        }
                                    }
                                }
                                rows.push(LaneRow::Broadcast(b[oc].words()));
                                if pad_row {
                                    rows.push(LaneRow::Broadcast(neutral));
                                }
                                lane_neuron_chunk(
                                    platform,
                                    states,
                                    li,
                                    idx,
                                    m + 1,
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
                CachedLayer::Pool { k } => {
                    let (oh, ow) = (h / k, w_dim / k);
                    if next.len() < layer_in_c * oh * ow {
                        next.resize_with(layer_in_c * oh * ow, Vec::new);
                    }
                    match platform {
                        Platform::Aqfp => {
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
                                        lane_pool_chunk(
                                            states,
                                            li,
                                            idx,
                                            k * k,
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
                        Platform::Cmos => {
                            // Every window of a channel sees the same
                            // per-image selector sequence (each would clone
                            // the canonical cursor, which steps once per
                            // chunk), so draw it once per channel and expand
                            // it into per-cycle lane masks: mask[j][t] has
                            // lane g set when image g's selector at cycle t
                            // picks window element j — `mux_add` for all
                            // lanes becomes k·k masked ORs over the packed
                            // element streams, with no per-image unpacking.
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
                CachedLayer::Dense { in_f, out_f, w, b } => {
                    let pad_row = sorter_pads(platform, in_f + 1);
                    if next.len() < *out_f {
                        next.resize_with(*out_f, Vec::new);
                    }
                    let mut rows: Vec<LaneRow<'_, W>> = Vec::with_capacity(in_f + 2);
                    for o in 0..*out_f {
                        rows.clear();
                        for (x, ws) in cur.iter().zip(&w[o * in_f..(o + 1) * in_f]) {
                            rows.push(LaneRow::Xnor(x, ws.words()));
                        }
                        rows.push(LaneRow::Broadcast(b[o].words()));
                        if pad_row {
                            rows.push(LaneRow::Broadcast(neutral));
                        }
                        lane_neuron_chunk(
                            platform,
                            states,
                            li,
                            o,
                            in_f + 1,
                            &rows,
                            classes,
                            clen,
                            r_scratch,
                            &mut next[o],
                        );
                    }
                }
                CachedLayer::Output { in_f, classes: n_classes, order, w, b } => {
                    produced = false;
                    for (cl, class_order) in order.iter().enumerate().take(*n_classes) {
                        let wrow = &w[cl * in_f..(cl + 1) * in_f];
                        match platform {
                            Platform::Aqfp => {
                                // Per-cycle lane-parallel majority chain
                                // over the XNOR products (wiring order), the
                                // bias, and — for even fan-in+1 — the
                                // absolute-parity neutral pad. The chain
                                // inputs are prebuilt row descriptors (the
                                // same forms the lane kernel consumes), so
                                // the cycle loop dispatches on a fixed short
                                // pattern instead of re-deriving each
                                // operand. One popcount lane per image.
                                let width = if (in_f + 1).is_multiple_of(2) {
                                    in_f + 2
                                } else {
                                    in_f + 1
                                };
                                let mut rows: Vec<LaneRow<'_, W>> =
                                    Vec::with_capacity(width);
                                for &j in class_order.iter().take(*in_f) {
                                    rows.push(LaneRow::Xnor(&cur[j], wrow[j].words()));
                                }
                                rows.push(LaneRow::Broadcast(b[cl].words()));
                                if width > in_f + 1 {
                                    rows.push(LaneRow::Broadcast(neutral));
                                }
                                let mut lp = LanePopcount::<W>::new();
                                for t in 0..clen {
                                    let word = |row: &LaneRow<'_, W>| row.word(t, classes);
                                    let y = if width == 1 {
                                        word(&rows[0])
                                    } else {
                                        let (a, b, c) = (&rows[0], &rows[1], &rows[2]);
                                        let mut y = maj_stripe(word(a), word(b), word(c));
                                        for pair in rows[3..].chunks_exact(2) {
                                            y = maj_stripe(word(&pair[0]), word(&pair[1]), y);
                                        }
                                        y
                                    };
                                    lp.add(y);
                                }
                                for (g, st) in states.iter_mut().enumerate() {
                                    st.class_acc[cl] += u64::from(lp.total(g));
                                }
                            }
                            Platform::Cmos => {
                                // APC total per image: Σ per-lane popcounts
                                // of every XNOR product row and of the bias
                                // row.
                                let mut totals = [0u64; MAX_LANES];
                                let products = cur
                                    .iter()
                                    .zip(wrow)
                                    .map(|(x, ws)| LaneRow::Xnor(x, ws.words()));
                                for row in products.chain([LaneRow::Broadcast(b[cl].words())]) {
                                    let mut lp = LanePopcount::<W>::new();
                                    for t in 0..clen {
                                        lp.add(row.word(t, classes));
                                    }
                                    for (g, tot) in totals.iter_mut().enumerate().take(n) {
                                        *tot += u64::from(lp.total(g));
                                    }
                                }
                                for (st, tot) in states.iter_mut().zip(totals) {
                                    st.class_acc[cl] += tot;
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

/// Reusable scratch for the batch-transposed path
/// ([`ExecPlan::advance_batch_in`]) at stripe width `W`: the lane-packed
/// activation ping-pong arenas, the CMOS mux-pool selector masks, gathered
/// per-lane FSM residuals, and the group's offset-class table. Weight,
/// bias and neutral streams are never copied: every row reads the plan's
/// cached streams at its lanes' class offsets. Every buffer grows to its
/// high-water mark and is then reused, so a steady-state chunk driver
/// allocates nothing per chunk.
pub struct BatchArena<const W: usize = 1> {
    /// Lane-packed activations the layer under evaluation reads.
    cur: Vec<Vec<Stripe<W>>>,
    /// Lane-packed activations the layer under evaluation writes.
    next: Vec<Vec<Stripe<W>>>,
    /// Per-cycle lane masks of the CMOS mux pool: `masks[j][t]` has lane
    /// `g` set when image `g`'s selector picks window element `j`.
    masks: Vec<Vec<Stripe<W>>>,
    /// Gathered per-lane FSM residuals for the lane-parallel runners.
    r_scratch: Vec<i64>,
    /// The group's lanes split by absolute cycle offset.
    classes: OffsetClasses<W>,
}

impl<const W: usize> Default for BatchArena<W> {
    fn default() -> Self {
        Self {
            cur: Vec::new(),
            next: Vec::new(),
            masks: Vec::new(),
            r_scratch: Vec::new(),
            classes: OffsetClasses::default(),
        }
    }
}

/// One [`BatchArena`] per supported stripe width, so a driver that picks
/// the narrowest width covering each chunk's live lane count
/// ([`ExecPlan::advance_batch_striped`]) keeps every width's high-water
/// buffers alive across chunks. Idle widths cost only empty `Vec`s.
#[derive(Default)]
pub struct StripeArenas {
    /// 64-lane scratch.
    w1: BatchArena<1>,
    /// 128-lane scratch.
    w2: BatchArena<2>,
    /// 256-lane scratch.
    w4: BatchArena<4>,
}

/// All resumable state of one in-flight image plus the reusable scratch
/// arena. Create via [`ExecPlan::new_state`], bind via [`ExecPlan::begin`]
/// — rebinding reuses every allocation, so one state can serve a whole
/// batch of images without per-image arena churn.
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
    /// Absolute-parity neutral slice of the current chunk.
    neutral_chunk: BitStream,
    /// Weight-stream chunk slices of the layer under evaluation.
    w_chunks: Vec<BitStream>,
    /// Bias-stream chunk slices of the layer under evaluation.
    b_chunks: Vec<BitStream>,
    /// Ping-pong activation arenas: the layer under evaluation reads
    /// `act_a` and writes `act_b`, then the two swap — activations are
    /// reused across chunks and images with no per-chunk allocation.
    act_a: Vec<BitStream>,
    /// See [`ExecState::act_a`].
    act_b: Vec<BitStream>,
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

/// Borrows the cached full-length streams on the one-shot fast path, or
/// slices the current chunk of every weight/bias stream into the arena
/// buffers (reusing their allocations).
fn chunk_streams<'s>(
    full: bool,
    w: &'s [BitStream],
    b: &'s [BitStream],
    offset: usize,
    clen: usize,
    w_chunks: &'s mut Vec<BitStream>,
    b_chunks: &'s mut Vec<BitStream>,
) -> (&'s [BitStream], &'s [BitStream]) {
    if full {
        (w, b)
    } else {
        slice_all(w, offset, clen, w_chunks);
        slice_all(b, offset, clen, b_chunks);
        (w_chunks, b_chunks)
    }
}

/// Slices every stream in `src` to `offset .. offset + clen`, reusing the
/// buffers in `out`.
fn slice_all(src: &[BitStream], offset: usize, clen: usize, out: &mut Vec<BitStream>) {
    out.resize_with(src.len(), || BitStream::zeros(0));
    for (s, o) in src.iter().zip(out.iter_mut()) {
        s.slice_into(offset, clen, o);
    }
}

/// Whether a `rows`-input neuron on `platform` needs the `0101…` neutral
/// pad as one more counted row: the AQFP sorter pads even fan-ins to an
/// odd width (the CMOS APC counts its rows as they are).
fn sorter_pads(platform: Platform, rows: usize) -> bool {
    platform == Platform::Aqfp && FeatureExtraction::new(rows).width() != rows
}

/// One neuron's chunk output from the per-cycle column `counts` of its
/// `rows` inputs (the AQFP sorter's neutral pad already counted, read at
/// the ABSOLUTE cycle so odd chunk offsets keep the 0101… phase), resuming
/// the neuron's cross-chunk state at slot `idx` and writing into `out`
/// (reusing its allocation).
fn neuron_chunk_into(
    rows: usize,
    lstate: &mut LayerState,
    idx: usize,
    counts: &[u32],
    out: &mut BitStream,
) {
    match lstate {
        LayerState::Feature { r } => {
            FeatureExtraction::new(rows).run_counts_resume_into(counts, &mut r[idx], out);
        }
        LayerState::Fsm { fsm } => {
            // The counter steps on a register copy, one output word at a
            // time, and is stored back once per chunk.
            let mut f = fsm[idx].clone();
            out.fill_words_with(counts.len(), |w, n| {
                let mut word = 0u64;
                for (i, &c) in counts[w * WORD_BITS..w * WORD_BITS + n].iter().enumerate() {
                    word |= u64::from(f.step(c)) << i;
                }
                word
            });
            fsm[idx] = f;
        }
        _ => unreachable!("neuron state matches layer kind"),
    }
}

/// Bitwise 3-input majority — one majority gate per bit position.
#[inline]
fn maj_word(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (a & c) | (b & c)
}

/// [`maj_word`] across a whole lane stripe (`64·W` lanes per call).
#[inline]
fn maj_stripe<const W: usize>(a: Stripe<W>, b: Stripe<W>, c: Stripe<W>) -> Stripe<W> {
    (a & b) | (a & c) | (b & c)
}

/// One neuron slot's chunk output for a whole lane group, straight from
/// the kernel row descriptors: the FSM's one lane entry
/// (`run_rows_resume_into`) counts the rows with [`lane_counts_stream`] —
/// per cycle in registers for kernels of at most `TREE_ROWS` rows, through
/// the 64-cycle slab compressor for wider ones — and folds the counts
/// straight into the activation recurrence, so no count plane array is
/// ever materialised. The per-cycle fire-mask words written to `out` ARE
/// the next layer's lane-packed activation — no per-image transpose, count
/// extraction or repacking. Bits of `out` above the lane count are
/// unspecified; nothing downstream reads them. Cross-chunk state lives in
/// each lane's `ExecState` slot `idx` and is gathered/scattered around the
/// run.
///
/// [`lane_counts_stream`]: aqfp_sc_bitstream::lane_counts_stream
#[allow(clippy::too_many_arguments)]
fn lane_neuron_chunk<const W: usize>(
    platform: Platform,
    states: &mut [&mut ExecState],
    li: usize,
    idx: usize,
    rows: usize,
    row_descs: &[LaneRow<'_, W>],
    classes: &OffsetClasses<W>,
    clen: usize,
    r_scratch: &mut Vec<i64>,
    out: &mut Vec<Stripe<W>>,
) {
    out.clear();
    out.resize(clen, Stripe::ZERO);
    match platform {
        Platform::Aqfp => {
            // Any even-width sorter pad was already folded in as an extra
            // kernel row, so the counts are final here.
            let fe = FeatureExtraction::new(rows);
            r_scratch.clear();
            r_scratch.extend(states.iter().map(|st| match &st.layers[li] {
                LayerState::Feature { r } => r[idx],
                _ => unreachable!("neuron state matches platform"),
            }));
            fe.run_rows_resume_into(row_descs, classes, clen, r_scratch, out);
            for (st, &r) in states.iter_mut().zip(r_scratch.iter()) {
                match &mut st.layers[li] {
                    LayerState::Feature { r: rs } => rs[idx] = r,
                    _ => unreachable!("neuron state matches platform"),
                }
            }
        }
        Platform::Cmos => {
            let mut fsms: Vec<&mut Btanh> = states
                .iter_mut()
                .map(|st| match &mut st.layers[li] {
                    LayerState::Fsm { fsm } => &mut fsm[idx],
                    _ => unreachable!("neuron state matches platform"),
                })
                .collect();
            Btanh::run_rows_resume_into(&mut fsms, row_descs, classes, clen, out);
        }
    }
}

/// AQFP pooling counterpart of [`lane_neuron_chunk`]: one pool window's
/// chunk output for a whole lane group through
/// `AveragePooling::run_rows_resume_into` (the same fused count → FSM
/// sweep, any window size), with the sorter-feedback residual resumed
/// from each lane's `PoolSorter` slot.
#[allow(clippy::too_many_arguments)]
fn lane_pool_chunk<const W: usize>(
    states: &mut [&mut ExecState],
    li: usize,
    idx: usize,
    window: usize,
    row_descs: &[LaneRow<'_, W>],
    classes: &OffsetClasses<W>,
    clen: usize,
    r_scratch: &mut Vec<i64>,
    out: &mut Vec<Stripe<W>>,
) {
    out.clear();
    out.resize(clen, Stripe::ZERO);
    let ap = AveragePooling::new(window);
    r_scratch.clear();
    r_scratch.extend(states.iter().map(|st| match &st.layers[li] {
        LayerState::PoolSorter { r } => r[idx],
        _ => unreachable!("pool state matches platform"),
    }));
    ap.run_rows_resume_into(row_descs, classes, clen, r_scratch, out);
    for (st, &r) in states.iter_mut().zip(r_scratch.iter()) {
        match &mut st.layers[li] {
            LayerState::PoolSorter { r: rs } => rs[idx] = r,
            _ => unreachable!("pool state matches platform"),
        }
    }
}

/// Resets a conv/dense layer's state slot in place for a fresh image:
/// sorter feedback on AQFP, a `Btanh` FSM per neuron on CMOS.
fn reset_neuron_slot(platform: Platform, slot: &mut LayerState, rows: usize, count: usize) {
    match (platform, &mut *slot) {
        (Platform::Aqfp, LayerState::Feature { r }) => {
            r.clear();
            r.resize(count, 0);
        }
        (Platform::Cmos, LayerState::Fsm { fsm }) => {
            fsm.clear();
            fsm.resize(count, Btanh::new(rows));
        }
        _ => {
            *slot = match platform {
                Platform::Aqfp => LayerState::Feature { r: vec![0; count] },
                Platform::Cmos => LayerState::Fsm { fsm: vec![Btanh::new(rows); count] },
            }
        }
    }
}

/// Resets a pooling layer's state slot in place for a fresh image: sorter
/// feedback per window on AQFP, a reseeded selector RNG per channel on CMOS.
fn reset_pool_slot(
    platform: Platform,
    slot: &mut LayerState,
    channels: usize,
    windows_per_channel: usize,
    seed_of: impl Fn(usize) -> u64,
) {
    match (platform, &mut *slot) {
        (Platform::Aqfp, LayerState::PoolSorter { r }) => {
            r.clear();
            r.resize(channels * windows_per_channel, 0);
        }
        (Platform::Cmos, LayerState::PoolMux { rngs }) => {
            rngs.clear();
            rngs.extend((0..channels).map(|c| StdRng::seed_from_u64(seed_of(c))));
        }
        _ => {
            *slot = match platform {
                Platform::Aqfp => LayerState::PoolSorter {
                    r: vec![0; channels * windows_per_channel],
                },
                Platform::Cmos => LayerState::PoolMux {
                    rngs: (0..channels).map(|c| StdRng::seed_from_u64(seed_of(c))).collect(),
                },
            }
        }
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
    /// AQFP conv/dense: feature-extraction feedback occupancy per neuron.
    Feature { r: Vec<i64> },
    /// CMOS conv/dense: Btanh counter FSM per neuron.
    Fsm { fsm: Vec<Btanh> },
    /// AQFP pooling: conserving-sorter feedback occupancy per window.
    PoolSorter { r: Vec<i64> },
    /// CMOS pooling: one selector RNG cursor per channel.
    PoolMux { rngs: Vec<StdRng> },
    /// The categorization layer is stateless per cycle; its running score
    /// lives in `ExecState::class_acc`.
    Output,
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

/// One weight/bias stream from its own platform-specific generator.
fn generate_stream(
    platform: Platform,
    bits: u32,
    key: u64,
    level: u64,
    len: usize,
) -> BitStream {
    match platform {
        Platform::Aqfp => Sng::new(bits, ThermalRng::with_seed(key)).generate_level(level, len),
        // The CMOS baseline uses pseudo-random generators; a whitened
        // SplitMix stream models a well-scrambled LFSR bank (a raw
        // shared-polynomial LFSR bank would add cross-correlation the
        // baseline papers explicitly design away).
        Platform::Cmos => Sng::new(bits, SplitMix64::new(key)).generate_level(level, len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqfp_sc_core::baseline::btanh_states;

    #[test]
    fn btanh_word_runner_matches_the_recurrence() {
        // The CMOS neuron's word-at-a-time runner, fed chunks that end one
        // short of, on, and one past a 64-cycle word (and past two words)
        // from a counter pushed off its power-on value — every chunk after
        // the first resumes the counter the runner stored — against the
        // saturating up/down counter written out one cycle at a time.
        let m = 9usize;
        let max = i64::from(btanh_states(m)) - 1;
        for clen in [63usize, 64, 65, 129] {
            let counts: Vec<u32> =
                (0..3 * clen + 17).map(|i| ((i * 13) % (m + 2)) as u32).collect();
            let mut fsm = Btanh::new(m);
            let mut state = max / 2;
            for _ in 0..3 {
                fsm.step(m as u32);
                state = (state + m as i64).clamp(0, max);
            }
            let mut want = Vec::new();
            for &c in &counts {
                state = (state + 2 * i64::from(c) - m as i64).clamp(0, max);
                want.push(state > max / 2);
            }
            let mut lstate = LayerState::Fsm { fsm: vec![Btanh::new(m), fsm] };
            let mut got = Vec::new();
            let mut out = BitStream::zeros(0);
            for chunk in counts.chunks(clen) {
                neuron_chunk_into(m, &mut lstate, 1, chunk, &mut out);
                assert_eq!(out.len(), chunk.len());
                got.extend(out.iter());
            }
            assert_eq!(got, want, "chunk {clen}");
        }
    }
}
