//! The compiled deployment artifact.

use crate::binsize::BinarySize;
use htvm_soc::{EngineKind, Program};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Observability counters from one [`lower`](crate::lower) run: how much
/// tiling-solver work the compile did, how much the [`TileCache`] absorbed,
/// and how the wall time split between the parallel solve phase and the
/// sequential emit phase.
///
/// Stats describe *how* the artifact was produced, not *what* was produced:
/// they are excluded from `Artifact` equality and serialization, so a
/// warm-cache recompile yields an artifact equal to the cold one even
/// though its stats differ.
///
/// [`TileCache`]: htvm_dory::TileCache
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Accelerator regions lowered (one tiling solve each).
    pub regions: usize,
    /// Solver invocations actually performed (cache misses, or all regions
    /// when no cache is installed).
    pub solves_performed: u64,
    /// Solves answered from the [`TileCache`](htvm_dory::TileCache).
    pub cache_hits: u64,
    /// Wall time of the solve phase (extraction + tiling, fanned out).
    pub solve_time: Duration,
    /// Wall time of the emit phase (buffers, steps, L2 planning).
    pub emit_time: Duration,
}

/// Where one layer of the network ended up after dispatch — the report the
/// `htvm` driver prints so users can audit offload decisions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerAssignment {
    /// Step name.
    pub name: String,
    /// Engine executing the step.
    pub engine: EngineKind,
    /// Pattern that matched (accelerator steps only).
    pub pattern: Option<String>,
    /// MACs in the step.
    pub macs: u64,
    /// Tile-loop length (1 when untiled; accelerator steps only).
    pub n_tiles: usize,
}

/// A compiled deployment: the device program, its modeled binary size, the
/// L2 activation schedule summary and the per-layer engine assignment.
///
/// Equality and serialization cover the *product* only; [`CompileStats`]
/// (wall times, cache counters) is carried for observability but compares
/// equal regardless and round-trips as `Default`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Artifact {
    /// The executable program (see [`htvm_soc::Machine`]).
    pub program: Program,
    /// Modeled deployed image size.
    pub binary: BinarySize,
    /// Per-step engine assignment, in execution order.
    pub assignments: Vec<LayerAssignment>,
    /// How the compile went (solver work, cache hits, phase timings).
    #[serde(skip)]
    pub stats: CompileStats,
}

impl PartialEq for Artifact {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program
            && self.binary == other.binary
            && self.assignments == other.assignments
    }
}

impl Artifact {
    /// Number of steps offloaded to an engine.
    #[must_use]
    pub fn steps_on(&self, engine: EngineKind) -> usize {
        self.assignments
            .iter()
            .filter(|a| a.engine == engine)
            .count()
    }

    /// Fraction of total MACs offloaded to accelerators (0 when the graph
    /// has no MAC workload at all).
    #[must_use]
    pub fn offload_fraction(&self) -> f64 {
        let total: u64 = self.assignments.iter().map(|a| a.macs).sum();
        if total == 0 {
            return 0.0;
        }
        let offloaded: u64 = self
            .assignments
            .iter()
            .filter(|a| a.engine != EngineKind::Cpu)
            .map(|a| a.macs)
            .sum();
        offloaded as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_fraction_counts_macs() {
        let artifact = Artifact {
            program: Program {
                buffers: vec![],
                steps: vec![],
                inputs: vec![],
                outputs: vec![],
                activation_peak: 0,
            },
            binary: BinarySize::default(),
            stats: CompileStats::default(),
            assignments: vec![
                LayerAssignment {
                    name: "conv".into(),
                    engine: EngineKind::Digital,
                    pattern: Some("conv2d".into()),
                    macs: 900,
                    n_tiles: 4,
                },
                LayerAssignment {
                    name: "softmax".into(),
                    engine: EngineKind::Cpu,
                    pattern: None,
                    macs: 100,
                    n_tiles: 1,
                },
            ],
        };
        assert_eq!(artifact.steps_on(EngineKind::Digital), 1);
        assert_eq!(artifact.steps_on(EngineKind::Analog), 0);
        assert!((artifact.offload_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_artifact_offloads_nothing() {
        let artifact = Artifact {
            program: Program {
                buffers: vec![],
                steps: vec![],
                inputs: vec![],
                outputs: vec![],
                activation_peak: 0,
            },
            binary: BinarySize::default(),
            stats: CompileStats::default(),
            assignments: vec![],
        };
        assert_eq!(artifact.offload_fraction(), 0.0);
    }
}
