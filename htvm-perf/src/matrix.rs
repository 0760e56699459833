//! The in-process deploy path: HTF bytes → `htvm_frontend::import` →
//! `Compiler::compile` on a fresh compiler (cold tile cache, as a fresh
//! `htvmc` process has) → `Machine::run`, checked bit-exact against the
//! reference and cycle/energy/size-exact against `BENCH_BASELINE.json`.

use crate::cells::{calibration, Cell};
use crate::metrics::{Metrics, Timeline, BENCH_TRACK};
use crate::stats::{geomean, median, Rng};
use htvm::{
    tracks, Artifact, CompileError, Compiler, DeployConfig, EnergyConfig, LowerError, Machine,
    TimeDomain, Tracer,
};
use htvm_bench::report::deploy_id;
use htvm_serve::http::wire::WireResult;
use htvm_serve::{ArtifactCache, CompileService, JobRequest, ServeConfig};
use std::time::{Duration, Instant};

fn compiler_for(cell: &Cell) -> Compiler {
    let mut compiler = Compiler::new();
    if cell.calibrated {
        // Before `with_deploy`, which sets the deploy's `naive_l2` choice.
        compiler = compiler.with_lower_options(calibration().lower_options());
    }
    compiler.with_deploy(cell.deploy)
}

fn machine_for(cell: &Cell, compiler: &Compiler) -> Machine {
    let machine = Machine::new(*compiler.platform());
    if cell.calibrated {
        machine.with_tuning(calibration().tuning())
    } else {
        machine
    }
}

/// One cell deployed once.
pub struct Deploy {
    pub import_us: f64,
    pub compile_us: f64,
    /// 0 when compilation failed (the expected out-of-memory cell).
    pub run_us: f64,
    /// Every check held: bit-exact outputs and baseline-exact cycles,
    /// energy and binary size, or the typed OOM where the baseline has it.
    pub correct: bool,
    pub cycles: u64,
    pub energy_uj: f64,
    pub binary_bytes: u64,
    pub macs: u64,
    pub artifact: Option<Artifact>,
}

impl Deploy {
    pub fn total_us(&self) -> f64 {
        self.import_us + self.compile_us + self.run_us
    }
}

/// Deploys one cell; `tracer` (when enabled) receives the compiler's
/// phase spans.
pub fn deploy(cell: &Cell, tracer: &Tracer) -> Deploy {
    let t0 = Instant::now();
    let graph = htvm_frontend::import(&cell.htf);
    let t1 = Instant::now();
    let mut out = Deploy {
        import_us: us(t1 - t0),
        compile_us: 0.0,
        run_us: 0.0,
        correct: false,
        cycles: 0,
        energy_uj: 0.0,
        binary_bytes: 0,
        macs: 0,
        artifact: None,
    };
    let Ok(graph) = graph else { return out };
    let compiler = compiler_for(cell).with_tracer(tracer.clone());
    let compiled = compiler.compile(&graph);
    let t2 = Instant::now();
    out.compile_us = us(t2 - t1);
    match compiled {
        Ok(artifact) => {
            let machine = machine_for(cell, &compiler);
            let report = machine.run(&artifact.program, std::slice::from_ref(&cell.input));
            out.run_us = us(t2.elapsed());
            let Ok(report) = report else { return out };
            out.cycles = report.total_cycles();
            out.energy_uj = EnergyConfig::default().run_uj(&report);
            out.binary_bytes = artifact.binary.total() as u64;
            out.macs = report.total_macs();
            let b = &cell.baseline;
            out.correct = !b.oom
                && report.outputs == *cell.reference
                && out.cycles == b.cycles
                && out.energy_uj == b.energy_uj
                && out.binary_bytes == b.binary_bytes;
            out.artifact = Some(artifact);
        }
        Err(CompileError::Lower(LowerError::OutOfMemory(_))) => out.correct = cell.baseline.oom,
        Err(_) => {}
    }
    out
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f`, logging its wall time in µs and as a benchmark span.
fn timed<T>(tl: &Timeline, name: &str, log: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let at = tl.now_us();
    let t = Instant::now();
    let out = f();
    let took = us(t.elapsed());
    log.push(took);
    tl.span(BENCH_TRACK, name, at, took);
    out
}

/// A pass over every cell, in a seeded order.
pub struct Pass {
    pub deploys: Vec<(usize, Deploy)>,
}

impl Pass {
    pub fn run(cells: &[Cell], rng: &mut Rng, tracer: &Tracer) -> Pass {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        rng.shuffle(&mut order);
        let deploys = order
            .into_iter()
            .map(|i| {
                let mut d = deploy(&cells[i], tracer);
                d.artifact = None;
                (i, d)
            })
            .collect();
        Pass { deploys }
    }

    fn compile_ms(&self) -> f64 {
        self.deploys
            .iter()
            .map(|(_, d)| d.import_us + d.compile_us)
            .sum::<f64>()
            / 1e3
    }

    fn simulate_ms(&self) -> f64 {
        self.deploys.iter().map(|(_, d)| d.run_us).sum::<f64>() / 1e3
    }
}

/// Repeated passes over a cell set and what they measured.
pub struct MatrixRun {
    pub passes: Vec<Pass>,
    pub wall_s: f64,
}

impl MatrixRun {
    /// Passes until `budget` is spent (at least `min_passes`).
    pub fn measure(cells: &[Cell], rng: &mut Rng, budget: Duration, min_passes: usize) -> Self {
        let start = Instant::now();
        let mut passes = Vec::new();
        let off = Tracer::disabled();
        while passes.len() < min_passes || start.elapsed() < budget {
            passes.push(Pass::run(cells, rng, &off));
        }
        MatrixRun {
            passes,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.deploys.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.passes
            .iter()
            .flat_map(|p| &p.deploys)
            .filter(|(_, d)| !d.correct)
            .count() as u64
    }

    pub fn deploy_ms(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| p.deploys.iter().filter(|(_, d)| d.run_us > 0.0))
            .map(|(_, d)| d.total_us() / 1e3)
            .collect()
    }

    /// Adds another run's passes (measurement spread over a longer run).
    pub fn extend(&mut self, more: MatrixRun) {
        self.passes.extend(more.passes);
        self.wall_s += more.wall_s;
    }

    /// `compile_ms`, `simulate_ms` and the exact Table I quantities.
    pub fn report(&self, m: &mut Metrics) {
        let compile: Vec<f64> = self.passes.iter().map(Pass::compile_ms).collect();
        let simulate: Vec<f64> = self.passes.iter().map(Pass::simulate_ms).collect();
        m.push("compile_ms", median(&compile), "ms");
        m.push("simulate_ms", median(&simulate), "ms");
        // In cell order, so the float sums repeat bit for bit.
        let mut first: Vec<&(usize, Deploy)> = self.passes[0].deploys.iter().collect();
        first.sort_by_key(|(i, _)| *i);
        let ran: Vec<&Deploy> = first
            .into_iter()
            .map(|(_, d)| d)
            .filter(|d| d.cycles > 0)
            .collect();
        let cycles: Vec<f64> = ran.iter().map(|d| d.cycles as f64).collect();
        let energy: Vec<f64> = ran.iter().map(|d| d.energy_uj).collect();
        m.push("sim_cycles_geomean", geomean(&cycles), "cycles");
        m.push("sim_energy_uj_geomean", geomean(&energy), "uJ");
        let binary: u64 = ran.iter().map(|d| d.binary_bytes).sum();
        m.push("binary_kb", binary as f64 / 1e3, "kB");
    }
}

const PHASES: [(&str, &str); 6] = [
    ("verify", "ir.verify_us"),
    ("fold_constants", "ir.fold_constants_us"),
    ("partition", "pattern.partition_us"),
    ("solve", "dory.solve_us"),
    ("emit", "codegen.emit_us"),
    ("l2_plan", "codegen.l2_plan_us"),
];

const DEPLOYS: [DeployConfig; 4] = [
    DeployConfig::CpuTvm,
    DeployConfig::Digital,
    DeployConfig::Analog,
    DeployConfig::Both,
];

/// The traced per-layer passes: every cell deployed with the compiler's
/// tracer on, plus the serve-layer calls a request for that cell makes
/// (key, cache insert, response serialization), each timed from outside.
/// Layer times are per-pass sums over the cell set (medians over passes);
/// serve-layer times are per-call medians. Each traced pass follows an
/// untraced one, and `trace.overhead_pct` compares their median deploy
/// time. Runs until `budget` is spent (at least three pairs); returns
/// the attempted and failed deploy counts.
pub fn layer_metrics(
    cells: &[Cell],
    rng: &mut Rng,
    budget: Duration,
    tl: &Timeline,
    m: &mut Metrics,
) -> (u64, u64) {
    let start = Instant::now();
    let mut failed = 0;
    let mut plain_ms = Vec::new();
    let oracle = CompileService::new(ServeConfig::default());
    let jobs: Vec<JobRequest> = cells
        .iter()
        .map(|c| JobRequest::compile_only(c.label, (*c.graph).clone(), c.deploy))
        .collect();
    let mut sums: Vec<Vec<(String, f64)>> = Vec::new();
    let (mut key_us, mut insert_us, mut json_us) = (Vec::new(), Vec::new(), Vec::new());
    while sums.len() < 3 || start.elapsed() < budget {
        let plain = Pass::run(cells, rng, &Tracer::disabled());
        failed += plain.deploys.iter().filter(|(_, d)| !d.correct).count() as u64;
        plain_ms.push(plain.compile_ms() + plain.simulate_ms());
        let mut s: Vec<(String, f64)> = Vec::new();
        let mut add = |name: String, v: f64| match s.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => *acc += v,
            None => s.push((name, v)),
        };
        let mut order: Vec<usize> = (0..cells.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let cell = &cells[i];
            let tracer = Tracer::new();
            let at = tl.now_us();
            let d = deploy(cell, &tracer);
            let compile_trace = tracer.take(TimeDomain::WallMicros, tracks::compile());
            tl.record_shifted(compile_trace.spans.clone(), at);
            tl.span(
                BENCH_TRACK,
                &format!("deploy:{}/{}", cell.model, cell.label),
                at,
                d.total_us(),
            );
            failed += u64::from(!d.correct);
            add("pass_us".into(), d.total_us());
            add("frontend.import_us".into(), d.import_us);
            add("frontend.bytes".into(), cell.htf.len() as f64);
            for (phase, name) in PHASES {
                add(name.into(), compile_trace.dur_of(phase).unwrap_or(0) as f64);
            }
            if let Some(span) = compile_trace.span("solve") {
                add(
                    "dory.solves".into(),
                    span.arg_u64("solves_performed").unwrap_or(0) as f64,
                );
                add(
                    "dory.tile_cache_hits".into(),
                    span.arg_u64("cache_hits").unwrap_or(0) as f64,
                );
            }
            add(
                format!("compile_us.{}", cell.model),
                d.import_us + d.compile_us,
            );
            add(format!("simulate_us.{}", cell.model), d.run_us);
            let dep = deploy_id(cell.deploy);
            add(format!("soc.run_us.{dep}"), d.run_us);
            add(format!("soc.kcycles.{dep}"), d.cycles as f64 / 1e3);
            add(format!("kernels.macs.{dep}"), d.macs as f64);
            add("kernels.macs".into(), d.macs as f64);

            let key = timed(tl, "serve.key_of", &mut key_us, || {
                oracle.key_of(&jobs[i]).expect("served cells route")
            });
            let Some(artifact) = d.artifact else { continue };
            let cache = ArtifactCache::new(ServeConfig::default().cache_budget_bytes);
            timed(tl, "serve.cache_insert", &mut insert_us, || {
                cache.insert(key, &artifact)
            });
            let wire = WireResult {
                job: cell.label.to_owned(),
                key_id: String::new(),
                cache_hit: true,
                coalesced: false,
                queue_us: 0,
                service_us: 0,
                artifact: Some(artifact),
            };
            let body = timed(tl, "serve.response_json", &mut json_us, || {
                serde_json::to_string(&wire).expect("wire results serialize")
            });
            add("codegen.artifact_bytes".into(), body.len() as f64);
        }
        sums.push(s);
    }
    let med = |name: &str| -> f64 {
        let v: Vec<f64> = sums
            .iter()
            .map(|s| s.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v))
            .collect();
        median(&v)
    };
    m.push("frontend.import_us", med("frontend.import_us"), "us");
    m.push(
        "frontend.import_mb_s",
        med("frontend.bytes") / med("frontend.import_us"),
        "MB/s",
    );
    for (_, name) in PHASES {
        m.push(name, med(name), "us");
    }
    m.push("dory.solves", med("dory.solves"), "count");
    m.push("dory.tile_cache_hits", med("dory.tile_cache_hits"), "count");
    m.push(
        "codegen.artifact_kb",
        med("codegen.artifact_bytes") / 1e3,
        "kB",
    );
    for dep in DEPLOYS.map(deploy_id) {
        let run_us = med(&format!("soc.run_us.{dep}"));
        m.push(&format!("soc.run_us.{dep}"), run_us, "us");
        m.push(
            &format!("soc.host_ns_per_kcycle.{dep}"),
            run_us * 1e3 / med(&format!("soc.kcycles.{dep}")),
            "ns/kcycle",
        );
    }
    m.push("kernels.macs", med("kernels.macs"), "count");
    m.push(
        "kernels.gmac_s",
        med("kernels.macs.cpu_tvm") / med("soc.run_us.cpu_tvm") / 1e3,
        "GMAC/s",
    );
    for model in crate::cells::MODELS {
        m.push(
            &format!("compile_us.{model}"),
            med(&format!("compile_us.{model}")),
            "us",
        );
        m.push(
            &format!("simulate_us.{model}"),
            med(&format!("simulate_us.{model}")),
            "us",
        );
    }
    m.push("serve.key_us", median(&key_us), "us");
    m.push("serve.cache_insert_us", median(&insert_us), "us");
    m.push("serve.response_json_us", median(&json_us), "us");
    m.push(
        "trace.overhead_pct",
        (med("pass_us") / 1e3 / median(&plain_ms) - 1.0) * 100.0,
        "%",
    );
    (2 * (sums.len() * cells.len()) as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{build, CellSet};

    /// The benchmark and the repository's ±2% gate measure the same
    /// program: for any seed, every Table I cell reproduces its
    /// `BENCH_BASELINE.json` cycles, energy and binary size exactly (and
    /// its outputs bit-exactly), and the expected OOM stays typed.
    #[test]
    fn every_cell_matches_the_baseline_for_every_seed() {
        for seed in [3, 12345] {
            for cell in build(CellSet::Table1, seed) {
                let d = deploy(&cell, &Tracer::disabled());
                assert!(
                    d.correct,
                    "seed {seed}: {}/{} diverged",
                    cell.model, cell.label
                );
                assert_eq!(d.cycles, cell.baseline.cycles);
                assert_eq!(d.binary_bytes, cell.baseline.binary_bytes);
            }
        }
    }
}
