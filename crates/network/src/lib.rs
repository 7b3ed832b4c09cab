//! End-to-end SC-DNN pipeline: architecture specs (paper Table 8), training
//! with hardware-faithful activations, quantised compilation onto the SC
//! blocks, stream-level inference for the AQFP design and the CMOS SC
//! baseline, and network-level hardware cost aggregation (paper Table 9).
//!
//! The flow mirrors the paper's §5.2:
//!
//! 1. [`NetworkSpec::snn`] / [`NetworkSpec::dnn`] describe the two
//!    evaluated networks.
//! 2. [`build_model`] instantiates a float training model whose hidden
//!    activations are *lookup tables of the stationary response of the
//!    sorter-based feature-extraction block* (AQFP flavour) or a `tanh`
//!    (matching the CMOS baseline's Btanh FSM) — "the network is trained
//!    with taking all limitations of AQFP and SC into considerations".
//! 3. [`CompiledNetwork::from_model`] quantises weights to the SNG
//!    comparator grid.
//! 4. [`ExecPlan`] is the single chunk-resumable forward-pass core: XNOR
//!    products, sorter-based feature extraction and pooling plus
//!    majority-chain categorization on the AQFP path; APC + Btanh
//!    counters, mux pooling and LFSR number generators on the CMOS path.
//!    Weight streams are cached at plan construction; a per-image
//!    [`ExecState`] carries resumable cursors and a scratch arena through
//!    [`ExecPlan::advance`].
//! 5. Every front-end is a thin wrapper over the same plan, bit-identical
//!    by construction: the serial [`CompiledNetwork::classify_aqfp`] /
//!    [`classify_cmos`] entry points run one full-length chunk, the
//!    batched [`InferenceEngine`] shares images among a scoped worker
//!    pool ([`InferenceEngine::classify_batch`]), and the
//!    [`StreamingEngine`] drives smaller chunks through a
//!    [`ChunkSchedule`] with a pluggable [`ExitPolicy`], so each image
//!    consumes only as many cycles as its decision needs.
//! 6. [`network_cost`] aggregates per-block hardware costs into the
//!    energy/throughput columns of Table 9.
//! 7. A compiled model persists as a versioned, deterministic artifact
//!    ([`CompiledNetwork::save`] / [`CompiledNetwork::load`]) whose
//!    content [`fingerprint`](CompiledNetwork::fingerprint) makes
//!    load→plan bit-identical to in-process compilation, and a
//!    [`ModelRegistry`] serves many named plans with atomic hot-swap.
//!
//! [`classify_cmos`]: CompiledNetwork::classify_cmos
//!
//! # Example (tiny network, quick to run)
//!
//! ```
//! use aqfp_sc_network::{ActivationStyle, build_model, CompiledNetwork, NetworkSpec};
//! use aqfp_sc_nn::Tensor;
//!
//! let spec = NetworkSpec::tiny(8); // 8x8 inputs, one conv, one pool, dense 10
//! let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 1);
//! let image = Tensor::zeros(vec![1, 8, 8]);
//! let float_class = model.predict(&image);
//! let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
//! let sc_class = compiled.classify_aqfp(&image, 128, 42);
//! assert!(float_class < 10 && sc_class < 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod artifact;
mod compile;
mod cost;
mod engine;
mod eval;
mod plan;
mod registry;
mod scheduler;
mod streaming;

pub use arch::{build_model, response_table, ActivationStyle, LayerSpec, NetworkSpec};
pub use artifact::{ArtifactError, ModelFingerprint, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use compile::{CompiledLayer, CompiledNetwork};
pub use cost::{network_cost, NetworkCost, PlatformCost};
pub use engine::InferenceEngine;
pub use eval::{run_table9, Table9Config, Table9Row};
pub use plan::{ExecPlan, ExecState, PlanFingerprint, Platform, StripeArenas};
pub use registry::{ModelRegistry, RegistryError};
pub use scheduler::{lane_min, stripe_width, GroupStats};
pub use streaming::{
    ChunkSchedule, ExitPolicy, LaneJob, LaneSource, StreamingEngine, StreamingEvaluation,
    StreamingOutcome,
};
