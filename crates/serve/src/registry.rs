//! The model registry: warm, shareable [`VisionTransformer`] instances keyed by
//! `name:variant`.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::ServeError;
use vitality_vit::{TrainConfig, VisionTransformer};

/// One registered model: a warm [`VisionTransformer`] plus the identity it serves under.
///
/// Entries are immutable after registration and handed out as `Arc<ModelEntry>`, so the
/// batcher, every worker and every connection handler share the same weights without
/// copying them.
#[derive(Debug)]
pub struct ModelEntry {
    key: String,
    name: String,
    variant_label: &'static str,
    model: VisionTransformer,
}

impl ModelEntry {
    /// The full registry key, `name:variant` (e.g. `"deit:taylor"`).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The caller-chosen model name (the part of the key before the variant).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attention-variant label (the part of the key after the `:`), used to tag
    /// the per-variant `/metrics` counters.
    pub fn variant_label(&self) -> &'static str {
        self.variant_label
    }

    /// The model itself.
    pub fn model(&self) -> &VisionTransformer {
        &self.model
    }

    /// The model's training configuration (used to validate request image shapes).
    pub fn config(&self) -> TrainConfig {
        self.model.config()
    }
}

/// Registry of every model a server instance can serve.
///
/// Keys are `name:variant`, where the variant half comes from the model's active
/// [`AttentionVariant`](vitality_vit::AttentionVariant) label — registering the same
/// weights once with the Taylor variant and once with the softmax baseline yields the
/// two keys the paper's comparison needs (`"m:taylor"`, `"m:softmax"`). The registry is
/// populated at boot and read-only afterwards; lookups are lock-free clones of `Arc`s.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: BTreeMap<String, Arc<ModelEntry>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `model` under `name`, deriving the full key from the model's active
    /// attention variant. Returns the key. Re-registering a key replaces the entry.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidModelName`] (HTTP 400) when `name` contains `:`
    /// (reserved as the name/variant separator) — a typed error rather than a panic,
    /// so a boot sequence driven by external configuration can surface the bad name
    /// instead of killing the process.
    pub fn register(&mut self, name: &str, model: VisionTransformer) -> Result<String, ServeError> {
        if name.contains(':') {
            return Err(ServeError::InvalidModelName(name.to_string()));
        }
        let variant_label = model.variant().label();
        let key = format!("{name}:{variant_label}");
        self.entries.insert(
            key.clone(),
            Arc::new(ModelEntry {
                key: key.clone(),
                name: name.to_string(),
                variant_label,
                model,
            }),
        );
        Ok(key)
    }

    /// Looks up a model by its full `name:variant` key.
    pub fn get(&self, key: &str) -> Result<Arc<ModelEntry>, ServeError> {
        self.entries
            .get(key)
            .cloned()
            .ok_or_else(|| ServeError::ModelNotFound(key.to_string()))
    }

    /// All registered keys, sorted (the `/healthz` model list).
    pub fn keys(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_vit::AttentionVariant;

    fn tiny(variant: AttentionVariant, seed: u64) -> VisionTransformer {
        VisionTransformer::new(
            &mut StdRng::seed_from_u64(seed),
            TrainConfig::tiny(),
            variant,
        )
    }

    #[test]
    fn keys_combine_name_and_variant() {
        let mut reg = ModelRegistry::new();
        let k1 = reg
            .register("deit", tiny(AttentionVariant::Taylor, 1))
            .unwrap();
        let k2 = reg
            .register("deit", tiny(AttentionVariant::Softmax, 1))
            .unwrap();
        let k3 = reg
            .register(
                "deit",
                tiny(AttentionVariant::Unified { threshold: 0.5 }, 1),
            )
            .unwrap();
        assert_eq!(k1, "deit:taylor");
        assert_eq!(k2, "deit:softmax");
        assert_eq!(k3, "deit:unified");
        assert_eq!(reg.len(), 3);
        assert_eq!(
            reg.keys(),
            vec!["deit:softmax", "deit:taylor", "deit:unified"]
        );
        let entry = reg.get("deit:taylor").unwrap();
        assert_eq!(entry.name(), "deit");
        assert_eq!(entry.key(), "deit:taylor");
        assert_eq!(entry.variant_label(), "taylor");
        assert_eq!(entry.config(), TrainConfig::tiny());
        assert_eq!(reg.get("deit:unified").unwrap().variant_label(), "unified");
    }

    #[test]
    fn missing_models_produce_typed_errors() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(
            reg.get("nope:taylor").unwrap_err(),
            ServeError::ModelNotFound("nope:taylor".into())
        );
    }

    #[test]
    fn names_with_the_separator_are_rejected_with_a_typed_error() {
        let err = ModelRegistry::new()
            .register("a:b", tiny(AttentionVariant::Taylor, 2))
            .unwrap_err();
        assert_eq!(err, ServeError::InvalidModelName("a:b".into()));
        assert_eq!(err.http_status(), 400);
        assert_eq!(err.code(), "invalid_model_name");
    }
}
