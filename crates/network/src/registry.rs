//! A multi-model registry: many named, ready-to-run [`ExecPlan`]s behind
//! atomically hot-swappable handles.
//!
//! A serving process compiles (or [loads](CompiledNetwork::load)) each model
//! once, registers the resulting plan under a name, and hands out
//! `Arc<ExecPlan>` clones to request handlers. Replacing a model is one
//! [`ModelRegistry::insert`]: the map entry swaps under a short write lock,
//! new lookups see the new plan immediately, and in-flight work keeps the
//! old plan alive through its own `Arc` until it finishes — no rebuild, no
//! pause, no torn state. The [`PlanFingerprint`] bind-guard makes the swap
//! safe even against misuse: an [`ExecState`](crate::ExecState) begun under
//! the old plan refuses to be advanced by the new one.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::artifact::ArtifactError;
use crate::compile::CompiledNetwork;
use crate::engine::InferenceEngine;
use crate::plan::{ExecPlan, PlanFingerprint, Platform};

/// Why a registry lookup failed — typed so a serving front-end can turn it
/// into a structured error response (and tell a client asking for a
/// misspelled model apart from one talking to a process that has loaded
/// nothing at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The registry has no models at all — lookups cannot succeed until
    /// something is [`insert`](ModelRegistry::insert)ed or
    /// [`load`](ModelRegistry::load)ed.
    Empty,
    /// No model is registered under the requested name.
    UnknownModel {
        /// The name that was looked up.
        name: String,
        /// The names that *are* registered (sorted), for actionable error
        /// messages.
        registered: Vec<String>,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Empty => write!(f, "model registry is empty"),
            RegistryError::UnknownModel { name, registered } => {
                write!(f, "unknown model `{name}` (registered: {})", registered.join(", "))
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Thread-safe collection of named execution plans.
///
/// # Example
///
/// ```
/// use aqfp_sc_network::{build_model, ActivationStyle, CompiledNetwork};
/// use aqfp_sc_network::{ModelRegistry, NetworkSpec, Platform};
/// use aqfp_sc_nn::Tensor;
///
/// let spec = NetworkSpec::tiny(8);
/// let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 1);
/// let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
///
/// let registry = ModelRegistry::new();
/// registry.install("digits", &compiled, 128, Platform::Aqfp);
/// let engine = registry.engine("digits").expect("registered");
/// assert!(engine.classify(&Tensor::zeros(vec![1, 8, 8]), 42) < 10);
///
/// // Hot-swap: a different weight-stream seed is a different model.
/// let twin = compiled.clone().with_stream_seed(99);
/// let old = registry.install("digits", &twin, 128, Platform::Aqfp);
/// assert!(old.is_some()); // previous plan handed back, engines on it live on
/// ```
#[derive(Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ExecPlan>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `plan` under `name`, atomically replacing (and returning)
    /// any previous plan of that name. Engines holding the old `Arc` are
    /// unaffected — the swap only redirects future lookups.
    pub fn insert(&self, name: impl Into<String>, plan: Arc<ExecPlan>) -> Option<Arc<ExecPlan>> {
        self.write().insert(name.into(), plan)
    }

    /// Compiles `net` into a fresh plan (paying weight-stream generation
    /// once) and registers it, returning any replaced plan.
    ///
    /// # Panics
    ///
    /// Panics when `stream_len` is 0 (see [`ExecPlan::from_arc`]).
    pub fn install(
        &self,
        name: impl Into<String>,
        net: &CompiledNetwork,
        stream_len: usize,
        platform: Platform,
    ) -> Option<Arc<ExecPlan>> {
        self.insert(name, Arc::new(ExecPlan::new(net, stream_len, platform)))
    }

    /// Loads a model artifact from `path`, builds its plan, and registers
    /// it under `name`. Every decode failure is a typed
    /// [`ArtifactError`]; the registry is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics when `stream_len` is 0 (see [`ExecPlan::from_arc`]).
    pub fn load(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
        stream_len: usize,
        platform: Platform,
    ) -> Result<Arc<ExecPlan>, ArtifactError> {
        let net = CompiledNetwork::load(path)?;
        let plan = Arc::new(ExecPlan::from_arc(Arc::new(net), stream_len, platform));
        self.insert(name, Arc::clone(&plan));
        Ok(plan)
    }

    /// The plan registered under `name` (a cheap `Arc` clone), or a typed
    /// [`RegistryError`] saying *why* the lookup failed.
    pub fn get(&self, name: &str) -> Result<Arc<ExecPlan>, RegistryError> {
        let map = self.read();
        match map.get(name) {
            Some(plan) => Ok(Arc::clone(plan)),
            None if map.is_empty() => Err(RegistryError::Empty),
            None => {
                let mut registered: Vec<String> = map.keys().cloned().collect();
                registered.sort();
                Err(RegistryError::UnknownModel { name: name.to_string(), registered })
            }
        }
    }

    /// A batch engine over the plan registered under `name` (default
    /// worker count; construction pays nothing — the cached streams are
    /// shared with the registry's handle).
    pub fn engine(&self, name: &str) -> Result<InferenceEngine, RegistryError> {
        self.get(name).map(InferenceEngine::from_plan)
    }

    /// Removes and returns the plan registered under `name` (`None` when
    /// nothing was registered — removal of an absent name is a no-op, not
    /// an error).
    pub fn remove(&self, name: &str) -> Option<Arc<ExecPlan>> {
        self.write().remove(name)
    }

    /// Fingerprint of the plan registered under `name` (model content +
    /// platform + stream length) — what two processes compare to agree
    /// they serve the same model.
    pub fn fingerprint(&self, name: &str) -> Result<PlanFingerprint, RegistryError> {
        self.get(name).map(|p| p.fingerprint())
    }

    /// Registered names, sorted (a point-in-time snapshot).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Read access that survives lock poisoning: the map is only ever
    /// mutated by `HashMap::insert`/`remove`, which cannot leave it torn,
    /// so a panicking writer elsewhere must not wedge every later lookup.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<ExecPlan>>> {
        self.models.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<ExecPlan>>> {
        self.models.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build_model, ActivationStyle, NetworkSpec};

    fn compiled() -> CompiledNetwork {
        let spec = NetworkSpec::tiny(8);
        let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 7);
        CompiledNetwork::from_model(&spec, &mut model, 8)
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelRegistry>();
        assert_send_sync::<Arc<ExecPlan>>();
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let net = compiled();
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        // Lookups on an empty registry are a distinct typed error …
        assert_eq!(registry.get("a").err(), Some(RegistryError::Empty));
        assert_eq!(registry.engine("a").err().map(|e| e == RegistryError::Empty), Some(true));
        registry.install("a", &net, 64, Platform::Aqfp);
        registry.install("b", &net, 64, Platform::Cmos);
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        // … and an unknown name on a populated one names the alternatives.
        assert_eq!(
            registry.get("z").err().expect("unknown name"),
            RegistryError::UnknownModel {
                name: "z".to_string(),
                registered: vec!["a".to_string(), "b".to_string()],
            }
        );
        let a = registry.get("a").expect("registered");
        assert_eq!(a.platform(), Platform::Aqfp);
        assert_eq!(
            registry.fingerprint("a").expect("registered").model,
            net.fingerprint()
        );
        assert!(registry.remove("a").is_some());
        assert!(registry.get("a").is_err());
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn hot_swap_returns_old_plan_and_redirects_lookups() {
        let net = compiled();
        let twin = net.clone().with_stream_seed(net.stream_seed() ^ 0xABCD);
        let registry = ModelRegistry::new();
        registry.install("m", &net, 64, Platform::Aqfp);
        let before = registry.get("m").expect("registered");
        let replaced = registry.install("m", &twin, 64, Platform::Aqfp).expect("was present");
        // The replaced handle is the original plan; lookups now see the twin.
        assert_eq!(replaced.fingerprint(), before.fingerprint());
        let after = registry.get("m").expect("registered");
        assert_ne!(after.fingerprint(), before.fingerprint());
        assert_eq!(after.fingerprint().model, twin.fingerprint());
        // The old plan still runs — in-flight holders are unaffected.
        let mut state = before.new_state();
        let scores =
            before.run_one_shot(&mut state, &aqfp_sc_nn::Tensor::zeros(vec![1, 8, 8]), 3);
        assert_eq!(scores.len(), 10);
    }
}
