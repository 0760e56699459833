//! The artifact cache charges each entry its serialized length without
//! building the JSON: for every zoo model × deployment artifact,
//! `serde_json::encoded_len` must equal `to_string().len()`, and a fresh
//! cache must report exactly that many resident bytes.

use htvm::{Compiler, DeployConfig};
use htvm_ir::{DType, GraphBuilder};
use htvm_models::{all_models, QuantScheme};
use htvm_serve::{ArtifactCache, ArtifactKey};

const DEPLOYS: [(DeployConfig, QuantScheme); 4] = [
    (DeployConfig::CpuTvm, QuantScheme::Int8),
    (DeployConfig::Digital, QuantScheme::Int8),
    (DeployConfig::Analog, QuantScheme::Ternary),
    (DeployConfig::Both, QuantScheme::Mixed),
];

fn key() -> ArtifactKey {
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[1, 4, 4], DType::I8);
    let y = b.relu(x).unwrap();
    ArtifactKey::new(
        "diana",
        &b.finish(&[y]).unwrap(),
        DeployConfig::Both,
        &htvm::DianaConfig::default(),
        &htvm::LowerOptions::default(),
    )
}

#[test]
fn encoded_len_sizes_every_zoo_artifact_exactly() {
    let mut sized = 0;
    for (deploy, scheme) in DEPLOYS {
        for model in all_models(scheme) {
            // Plain TVM runs out of L2 on mobilenet_v1, as in the paper.
            let Ok(artifact) = Compiler::new().with_deploy(deploy).compile(&model.graph) else {
                continue;
            };
            let json = serde_json::to_string(&artifact).expect("artifacts serialize");
            assert_eq!(
                serde_json::encoded_len(&artifact),
                json.len(),
                "{} / {deploy:?}",
                model.name
            );
            let cache = ArtifactCache::new(json.len());
            assert!(
                cache.insert(key(), &artifact),
                "{} / {deploy:?}",
                model.name
            );
            assert_eq!(cache.stats().bytes, json.len() as u64);
            sized += 1;
        }
    }
    assert_eq!(sized, 19, "every servable zoo cell was sized");
}
