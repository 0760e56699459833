//! The cells the benchmark deploys: zoo model × deployment configuration,
//! each with its HTF bytes, a seeded input, the reference output from
//! `htvm_kernels::evaluate`, and its committed `BENCH_BASELINE.json` row.

use crate::stats::Rng;
use htvm::{DeployConfig, Graph, Tensor};
use htvm_bench::calibration::CalibrationReport;
use htvm_bench::report::{all_deploys, calibrated_deploys, calibrated_id, deploy_id, BenchReport};
use htvm_bench::scheme_for;
use htvm_models::{all_models, random_input, QuantScheme};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The exact simulated-design numbers the repository's ±2% gate holds
/// every cell to.
const BASELINE_JSON: &str = include_str!("../../BENCH_BASELINE.json");
/// The committed calibration the `*_cal` cells compile under.
const CALIBRATION_JSON: &str = include_str!("../../CALIBRATION.json");

pub fn calibration() -> &'static CalibrationReport {
    static CAL: OnceLock<CalibrationReport> = OnceLock::new();
    CAL.get_or_init(|| serde_json::from_str(CALIBRATION_JSON).expect("CALIBRATION.json parses"))
}

fn baseline_report() -> &'static BenchReport {
    static BASE: OnceLock<BenchReport> = OnceLock::new();
    BASE.get_or_init(|| serde_json::from_str(BASELINE_JSON).expect("BENCH_BASELINE.json parses"))
}

/// One `BENCH_BASELINE.json` row, reduced to what a deploy must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// The paper's expected plain-TVM out-of-memory outcome.
    pub oom: bool,
    pub cycles: u64,
    pub energy_uj: f64,
    pub binary_bytes: u64,
}

pub fn baseline(model: &str, label: &str) -> Option<Baseline> {
    let e = baseline_report()
        .entries
        .iter()
        .find(|e| e.model == model && e.deploy == label)?;
    Some(Baseline {
        oom: e.status == "oom",
        cycles: e.run.as_ref().map_or(0, |r| r.total_cycles),
        energy_uj: e.run.as_ref().map_or(0.0, |r| r.energy_uj),
        binary_bytes: e.compile.binary_bytes,
    })
}

#[derive(Clone)]
pub struct Cell {
    pub model: &'static str,
    pub deploy: DeployConfig,
    /// `BENCH_BASELINE.json` deploy label (`digital`, `digital_cal`, …).
    pub label: &'static str,
    pub calibrated: bool,
    pub graph: Arc<Graph>,
    pub htf: Arc<Vec<u8>>,
    pub input: Arc<Tensor>,
    /// `htvm_kernels::evaluate` on `input`: what every deploy must output.
    pub reference: Arc<Vec<Tensor>>,
    pub baseline: Baseline,
}

/// Which cells a workload deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSet {
    /// The 35 rows of `BENCH_BASELINE.json`: 5 zoo models × 4 deploys,
    /// plus the 15 calibrated accelerator rows.
    Table1,
    /// The 19 cells the DIANA service can compile: 5 models × 4 deploys
    /// without the out-of-memory `mobilenet_v1`/`cpu_tvm`.
    Served,
}

fn scheme_key(s: QuantScheme) -> u8 {
    match s {
        QuantScheme::Int8 => 0,
        QuantScheme::Ternary => 1,
        QuantScheme::Mixed => 2,
    }
}

/// Builds the cell set. The seed picks each model's input tensor; every
/// other property of a cell is fixed by the zoo.
pub fn build(set: CellSet, seed: u64) -> Vec<Cell> {
    struct Built {
        graph: Arc<Graph>,
        htf: Arc<Vec<u8>>,
        input: Arc<Tensor>,
        reference: Arc<Vec<Tensor>>,
    }
    let mut built: HashMap<(u8, &'static str), Built> = HashMap::new();
    let mut rows: Vec<(&'static str, DeployConfig, &'static str, bool)> = Vec::new();
    for deploy in all_deploys() {
        for (i, model) in all_models(scheme_for(deploy)).into_iter().enumerate() {
            let name = model.name;
            built
                .entry((scheme_key(model.scheme), name))
                .or_insert_with(|| {
                    let input = random_input(
                        Rng::fork(seed, 100 + i as u64).next_u64(),
                        &model.input_dims,
                    );
                    let reference =
                        htvm_kernels::evaluate(&model.graph, std::slice::from_ref(&input))
                            .expect("zoo models evaluate");
                    Built {
                        htf: Arc::new(htvm_frontend::emit(&model.graph).expect("zoo models emit")),
                        graph: Arc::new(model.graph),
                        input: Arc::new(input),
                        reference: Arc::new(reference),
                    }
                });
            rows.push((name, deploy, deploy_id(deploy), false));
        }
    }
    if set == CellSet::Table1 {
        for deploy in calibrated_deploys() {
            for model in all_models(scheme_for(deploy)) {
                rows.push((model.name, deploy, calibrated_id(deploy), true));
            }
        }
    }
    rows.into_iter()
        .filter_map(|(model, deploy, label, calibrated)| {
            let base = baseline(model, label).expect("every cell has a baseline row");
            if set == CellSet::Served && base.oom {
                return None;
            }
            let b = &built[&(scheme_key(scheme_for(deploy)), model)];
            Some(Cell {
                model,
                deploy,
                label,
                calibrated,
                graph: Arc::clone(&b.graph),
                htf: Arc::clone(&b.htf),
                input: Arc::clone(&b.input),
                reference: Arc::clone(&b.reference),
                baseline: base,
            })
        })
        .collect()
}

/// Zoo model names in sweep order.
pub const MODELS: [&str; 5] = [
    "ds_cnn",
    "mobilenet_v1",
    "resnet8",
    "toyadmos_dae",
    "tiny_transformer",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_sets_cover_the_baseline() {
        let cells = build(CellSet::Table1, 1);
        assert_eq!(cells.len(), baseline_report().entries.len());
        assert_eq!(cells.len(), 35);
        assert_eq!(cells.iter().filter(|c| c.baseline.oom).count(), 1);
        let served = build(CellSet::Served, 1);
        assert_eq!(served.len(), 19);
        assert!(served.iter().all(|c| !c.calibrated && !c.baseline.oom));
        for name in MODELS {
            assert!(cells.iter().any(|c| c.model == name));
        }
    }
}
