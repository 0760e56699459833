//! Content-addressed cache keys for compiled artifacts.
//!
//! An [`ArtifactKey`] is the full canonical encoding of everything the
//! compiler output depends on: the graph in [`canonical_form`] (stable
//! under node-id permutation), the [`DeployConfig`], the [`DianaConfig`]
//! platform model, and the compile-relevant subset of [`LowerOptions`]
//! (the *fingerprint* — runtime plumbing like the tile cache handle, the
//! parallelism switch and the tracer are deliberately excluded because
//! they never change the produced artifact; `tests/determinism.rs` in
//! `htvm` asserts exactly that).
//!
//! The key stores the complete encoded bytes, not just a digest, so two
//! distinct requests can never alias to one cache slot: equality is
//! byte-for-byte. The 128-bit FNV digest ([`ArtifactKey::id`]) is only a
//! display handle for logs and spans.

use htvm::{DeployConfig, DianaConfig, LowerOptions};
use htvm_ir::{canonical_form, fnv128, Graph};
use serde::Serialize;

/// The serializable subset of [`LowerOptions`] that determines the
/// artifact. Everything excluded (`tile_cache`, `parallel`, `extracted`,
/// `tracer`) is observational or a pure-function memo and cannot change
/// the output bytes.
#[derive(Serialize)]
struct LowerFingerprint {
    digital_objective: htvm::TilingObjective,
    analog_objective: htvm::TilingObjective,
    naive_l2: bool,
    l1_act_override: Option<usize>,
    size_model: htvm::binsize::BinarySizeModel,
}

/// A content-addressed identity for one compile request.
///
/// Two keys are equal exactly when a cold compile of both requests is
/// guaranteed to produce byte-identical artifacts. The `platform_id` is
/// the routing id from the fleet manifest; it enters the key so two
/// manifest entries that happen to share an SoC config still account
/// (and persist) their artifacts separately.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    bytes: Vec<u8>,
}

impl ArtifactKey {
    /// Builds the key for compiling `graph` on the platform routed as
    /// `platform_id`, under the given deploy target, SoC model and
    /// lowering options.
    #[must_use]
    pub fn new(
        platform_id: &str,
        graph: &Graph,
        deploy: DeployConfig,
        platform: &DianaConfig,
        opts: &LowerOptions,
    ) -> Self {
        let fingerprint = LowerFingerprint {
            digital_objective: opts.digital_objective.clone(),
            analog_objective: opts.analog_objective.clone(),
            naive_l2: opts.naive_l2,
            l1_act_override: opts.l1_act_override,
            size_model: opts.size_model,
        };
        let mut bytes = canonical_form(graph);
        bytes.extend_from_slice(b"\0platform_id:");
        bytes.extend_from_slice(platform_id.as_bytes());
        bytes.extend_from_slice(b"\0deploy:");
        bytes.extend_from_slice(json(&deploy).as_bytes());
        bytes.extend_from_slice(b"\0platform:");
        bytes.extend_from_slice(json(platform).as_bytes());
        bytes.extend_from_slice(b"\0lower:");
        bytes.extend_from_slice(json(&fingerprint).as_bytes());
        ArtifactKey { bytes }
    }

    /// The 128-bit FNV-1a digest of the encoded key, as 32 hex digits.
    /// A display handle for logs, spans and bench reports — cache lookup
    /// compares the full bytes, never this digest.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{:032x}", fnv128(&self.bytes))
    }

    /// Size of the encoded key in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// The full encoded key bytes — what the persistent store writes so
    /// a restarted service can re-admit entries under the *exact* key
    /// (cache lookup compares these bytes, never the digest).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuilds a key from previously persisted [`ArtifactKey::as_bytes`]
    /// output. For cache re-admission only: the bytes are trusted to be
    /// a real encoding, and the persistence layer cross-checks the
    /// recorded digest against [`ArtifactKey::id`] before using one.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        ArtifactKey { bytes }
    }
}

impl std::fmt::Debug for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactKey")
            .field("id", &self.id())
            .field("encoded_len", &self.bytes.len())
            .finish()
    }
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("config types serialize infallibly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_ir::{DType, GraphBuilder, Tensor};

    fn conv_graph(channels: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[channels, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[channels, channels, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let y = b.requantize(c, 7, true).unwrap();
        b.finish(&[y]).unwrap()
    }

    #[test]
    fn same_request_same_key() {
        let platform = DianaConfig::default();
        let opts = LowerOptions::default();
        let a = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &opts,
        );
        let b = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &opts,
        );
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn every_component_feeds_the_key() {
        let platform = DianaConfig::default();
        let opts = LowerOptions::default();
        let base = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &opts,
        );

        let other_graph = ArtifactKey::new(
            "diana",
            &conv_graph(16),
            DeployConfig::Both,
            &platform,
            &opts,
        );
        assert_ne!(base, other_graph, "graph must feed the key");

        let other_deploy = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Digital,
            &platform,
            &opts,
        );
        assert_ne!(base, other_deploy, "deploy target must feed the key");

        let other_id =
            ArtifactKey::new("gap9", &conv_graph(8), DeployConfig::Both, &platform, &opts);
        assert_ne!(base, other_id, "the routing platform id must feed the key");

        let mut small = DianaConfig::default();
        small.l1_act_bytes /= 2;
        let other_platform =
            ArtifactKey::new("diana", &conv_graph(8), DeployConfig::Both, &small, &opts);
        assert_ne!(base, other_platform, "platform model must feed the key");

        let naive = LowerOptions {
            naive_l2: true,
            ..LowerOptions::default()
        };
        let other_opts = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &naive,
        );
        assert_ne!(base, other_opts, "lowering options must feed the key");
    }

    #[test]
    fn calibrated_cost_models_feed_the_key() {
        // A calibrated objective must never alias with the heuristic one,
        // and two calibrations must never alias with each other — the
        // calibration version is part of the serialized cost model.
        let platform = DianaConfig::default();
        let graph = conv_graph(8);
        let base = ArtifactKey::new(
            "diana",
            &graph,
            DeployConfig::Both,
            &platform,
            &LowerOptions::default(),
        );
        let model = htvm::CostModel {
            version: 1,
            gamma: 4.0,
            dma_setup: 30,
            dma_bytes_per_cycle: 8,
            kernel_call_overhead: 800,
            tile_overhead: 300,
            engine: htvm::EngineModel::Digital {
                pe_rows: 16,
                pe_cols: 16,
                dw_macs_per_cycle_x100: 375,
                add_elems_per_cycle: 16,
                efficiency_pct: 40,
            },
        };
        let calibrated = LowerOptions {
            digital_objective: htvm::TilingObjective::calibrated(model),
            ..LowerOptions::default()
        };
        let with_model =
            ArtifactKey::new("diana", &graph, DeployConfig::Both, &platform, &calibrated);
        assert_ne!(
            base, with_model,
            "a calibrated objective must produce a distinct key"
        );

        let mut bumped_model = model;
        bumped_model.version = 2;
        let bumped = LowerOptions {
            digital_objective: htvm::TilingObjective::calibrated(bumped_model),
            ..LowerOptions::default()
        };
        let with_bumped = ArtifactKey::new("diana", &graph, DeployConfig::Both, &platform, &bumped);
        assert_ne!(
            with_model, with_bumped,
            "bumping the calibration version must re-key the artifact"
        );
    }

    #[test]
    fn runtime_only_options_do_not_feed_the_key() {
        let platform = DianaConfig::default();
        let base = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &LowerOptions::default(),
        );
        let mut runtime = LowerOptions::default();
        runtime.parallel = !runtime.parallel;
        runtime.tile_cache = Some(htvm::TileCache::new());
        runtime.tracer = htvm::Tracer::new();
        let same = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &runtime,
        );
        assert_eq!(
            base, same,
            "tile cache, parallelism and tracing never change the artifact"
        );
    }

    #[test]
    fn bytes_round_trip_preserves_identity() {
        let key = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &DianaConfig::default(),
            &LowerOptions::default(),
        );
        let back = ArtifactKey::from_bytes(key.as_bytes().to_vec());
        assert_eq!(back, key, "persisted bytes rebuild the exact key");
        assert_eq!(back.id(), key.id());
        assert_eq!(back.encoded_len(), key.encoded_len());
    }

    #[test]
    fn id_is_stable_hex() {
        let key = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &DianaConfig::default(),
            &LowerOptions::default(),
        );
        let id = key.id();
        assert_eq!(id.len(), 32);
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(id, key.id());
    }
}
