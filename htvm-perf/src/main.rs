//! The HTVM-RS benchmark: the paper's Table I experiment (compile and
//! simulate every zoo cell) and the compile service under open-loop
//! churn traffic. See `README.md` for the workloads, metrics and layer
//! map.
//!
//! ```text
//! cargo run --release --manifest-path htvm-perf/Cargo.toml -- \
//!     --workload table1|serve-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it records the seed and how each figure was taken. A traced run
//! also writes its spans as a chrome trace under `htvm-perf/out/`.

mod cells;
mod load;
mod matrix;
mod metrics;
mod serve;
mod stats;

use cells::{Cell, CellSet};
use matrix::MatrixRun;
use metrics::{Metrics, Timeline};
use serde_json::Value;
use serve::{Churn, Phase, Rung, Server};
use stats::{median, tail, Rng};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table1,
    ServeChurn,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "table1" => Workload::Table1,
                    "serve-churn" => Workload::ServeChurn,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds wants a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What one run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    details: Vec<(String, Value)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            details: Vec::new(),
        }
    }

    fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_owned(), value));
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Set-up repeats per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn tail_detail(values: &[f64]) -> Value {
    match tail(values) {
        Some(t) => {
            serde_json::json!({"value": t.value, "percentile": t.pct, "samples": t.n as u64})
        }
        None => Value::Null,
    }
}

/// A windowed tail (see `stats::windowed_tail`) and how it was taken.
fn windowed(values: &[f64]) -> (f64, Value) {
    let (value, pct, windows) = stats::windowed_tail(values).expect("enough samples for a tail");
    let how = serde_json::json!({
        "value": value,
        "window_percentile": pct,
        "windows": windows as u64,
        "samples": values.len() as u64,
    });
    (value, how)
}

/// Table I, closed loop: repeated seeded-order passes over the 35 cells.
fn table1(args: &Args, out: &mut Outcome) {
    let mut setup = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        cells = cells::build(CellSet::Table1, args.seed);
        setup.push(secs(t.elapsed()));
    }
    let mut rng = Rng::fork(args.seed, 1);
    if args.trace {
        let tl = Timeline::new(true);
        let budget = Duration::from_secs_f64(args.seconds * 0.8);
        let (attempted, failed) =
            matrix::layer_metrics(&cells, &mut rng, budget, &tl, &mut out.metrics);
        out.count(attempted, failed);
        let served: Vec<Cell> = cells
            .iter()
            .filter(|c| !c.calibrated && !c.baseline.oom)
            .cloned()
            .collect();
        serve_probe(args, &served, &tl, out);
        write_trace(args, tl);
        return;
    }
    let run = MatrixRun::measure(&cells, &mut rng, Duration::from_secs_f64(args.seconds), 3);
    out.count(run.attempted(), run.failed());
    run.report(&mut out.metrics);
    let deploy = run.deploy_ms();
    let (deploy_tail, how) = windowed(&deploy);
    out.metrics.push("deploy_tail_ms", deploy_tail, "ms");
    out.metrics.push("p50_ms", median(&deploy), "ms");
    out.metrics.push("tail_ms", deploy_tail, "ms");
    let good = run.attempted() - run.failed();
    out.metrics
        .push("goodput_rps", good as f64 / run.wall_s, "1/s");
    out.metrics.push("setup_s", median(&setup), "s");
    out.detail("passes", Value::UInt(run.passes.len() as u64));
    out.detail("deploy_tail", how);
    out.detail("setup_s_samples", serde_json::to_value(&setup));
}

/// Served set-up: cells, the in-process key oracle, a fresh server and
/// its warm-up. Repeated; the last server is kept.
struct Served {
    cells: Vec<Cell>,
    oracle: htvm_serve::CompileService,
    server: Server,
    warm: Vec<htvm_serve::http::wire::WireResult>,
}

fn serve_setup(
    args: &Args,
    tl: &Timeline,
    traced: bool,
    repeats: usize,
    out: &mut Outcome,
) -> (Served, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept: Option<Served> = None;
    for _ in 0..repeats {
        if let Some(old) = kept.take() {
            old.server.stop(tl);
        }
        let t = Instant::now();
        let cells = cells::build(CellSet::Served, args.seed);
        let oracle = htvm_serve::CompileService::new(htvm_serve::ServeConfig::default());
        let keys = serve::cell_keys(&oracle, &cells);
        let server = Server::start(tl, traced);
        let (warm, failed) = serve::warm_up(&server, &cells, &keys);
        times.push(secs(t.elapsed()));
        out.count(cells.len() as u64, failed);
        kept = Some(Served {
            cells,
            oracle,
            server,
            warm,
        });
    }
    (kept.expect("at least one set-up"), times)
}

/// Plans about `secs` seconds of churn traffic at `rate`, in whole epochs
/// (at least one).
fn plan(churn: &mut Churn<'_>, rng: &mut Rng, rate: f64, secs: f64) -> Vec<serve::Planned> {
    let epochs = ((rate * secs / churn.epoch_len() as f64).round() as usize).max(1);
    churn.plan(rng, rate, epochs)
}

fn serve_churn(args: &Args, out: &mut Outcome) {
    let tl = Timeline::new(args.trace);
    let mut memo = HashMap::new();
    if args.trace {
        let (s, _) = serve_setup(args, &tl, true, 1, out);
        let mut rng = Rng::fork(args.seed, 2);
        let mut churn = Churn::new(&s.cells, &s.oracle);
        prelude(&s, &mut churn, &mut rng, &tl, out, &mut memo);
        let plan = plan(&mut churn, &mut rng, serve::NOMINAL_RPS, args.seconds * 0.5);
        let before = s.server.stats();
        let phase = checked(&s, &plan, &tl, out, &mut memo);
        let after = s.server.stats();
        serve::layer_metrics(&phase, &s.warm, &before, &after, &mut out.metrics);
        let mut rng = Rng::fork(args.seed, 3);
        let budget = Duration::from_secs_f64(args.seconds * 0.3);
        let (attempted, failed) =
            matrix::layer_metrics(&s.cells, &mut rng, budget, &tl, &mut out.metrics);
        out.count(attempted, failed);
        drop(churn);
        s.server.stop(&tl);
        write_trace(args, tl);
        return;
    }

    let (s, setup) = serve_setup(args, &tl, false, SETUPS, out);
    out.metrics.push("setup_s", median(&setup), "s");
    out.detail("setup_s_samples", serde_json::to_value(&setup));

    // The in-process deploy path over the served cells (what a miss
    // costs), measured in three slices spread over the run.
    let mut mrng = Rng::fork(args.seed, 1);
    let slice = Duration::from_secs_f64(args.seconds * 0.10);
    let mut run = MatrixRun::measure(&s.cells, &mut mrng, slice, 1);

    let mut rng = Rng::fork(args.seed, 2);
    let mut churn = Churn::new(&s.cells, &s.oracle);
    prelude(&s, &mut churn, &mut rng, &tl, out, &mut memo);
    let nominal = plan(
        &mut churn,
        &mut rng,
        serve::NOMINAL_RPS,
        args.seconds * 0.35,
    );
    let phase = checked(&s, &nominal, &tl, out, &mut memo);
    run.extend(MatrixRun::measure(&s.cells, &mut mrng, slice, 1));
    let lat = phase.latencies_ms();
    out.metrics.push("p50_ms", median(&lat), "ms");
    let (tail_ms, how) = windowed(&lat);
    out.metrics.push("tail_ms", tail_ms, "ms");
    let late: Vec<f64> = phase
        .samples
        .iter()
        .map(|s| s.late_us as f64 / 1e3)
        .collect();
    out.detail(
        "nominal",
        serde_json::json!({
            "rate_rps": serve::NOMINAL_RPS,
            "tail": how,
            "late_ms_tail": tail_detail(&late),
        }),
    );

    // Goodput: bisect the ladder for its highest passing rung, assuming
    // rungs pass below the knee and fail above it.
    let rung_s = args.seconds * 0.35 / 5.0;
    let (mut lo, mut hi) = (None::<usize>, serve::RUNGS + 1);
    let mut rungs = Vec::new();
    while hi - lo.map_or(0, |l| l + 1) > 0 {
        let k = (lo.map_or(0, |l| l + 1) + hi) / 2;
        let rate = serve::rung(k);
        let plan = plan(&mut churn, &mut rng, rate, rung_s);
        let rung = Rung::measure(&checked(&s, &plan, &tl, out, &mut memo), rate);
        rungs.push(rung.to_json());
        if rung.passes() {
            lo = Some(k);
        } else {
            hi = k;
        }
    }
    let goodput = lo.map_or(0.0, serve::rung);
    run.extend(MatrixRun::measure(&s.cells, &mut mrng, slice, 1));
    out.count(run.attempted(), run.failed());
    run.report(&mut out.metrics);
    let deploy = run.deploy_ms();
    let (deploy_tail, how) = windowed(&deploy);
    out.metrics.push("deploy_tail_ms", deploy_tail, "ms");
    out.detail("deploy_tail", how);
    out.metrics.push("goodput_rps", goodput, "1/s");
    out.detail("ladder", Value::Array(rungs));
    out.detail("variants", Value::UInt(churn.variants() as u64));
    let stats = s.server.stats();
    out.detail("service", serde_json::to_value(&stats));
    drop(churn);
    s.server.stop(&tl);
}

/// Runs a planned phase against the server, checks every reply and counts
/// the phase's requests.
fn checked(
    s: &Served,
    plan: &[serve::Planned],
    tl: &Timeline,
    out: &mut Outcome,
    memo: &mut HashMap<String, (u64, usize)>,
) -> Phase {
    let mut phase = Phase::run(&s.server, plan, tl);
    phase.verify_artifacts(memo);
    out.count(phase.attempted(), phase.failed);
    phase
}

/// Churn traffic that fills the artifact cache to its budget before any
/// measurement, so measured phases see the steady state of a long-running
/// server (evicting on every insert). Checked, not timed.
fn prelude(
    s: &Served,
    churn: &mut Churn<'_>,
    rng: &mut Rng,
    tl: &Timeline,
    out: &mut Outcome,
    memo: &mut HashMap<String, (u64, usize)>,
) {
    let plan = churn.plan(rng, serve::rung(12), PRELUDE_EPOCHS);
    checked(s, &plan, tl, out, memo);
}

/// Churn epochs in the prelude: about 80 new artifacts, more than the
/// 64 MiB cache budget holds.
const PRELUDE_EPOCHS: usize = 2;

/// The serve layers as the Table I cells see them: each servable cell
/// imported cold over HTTP, then a short open-loop run of repeats.
fn serve_probe(args: &Args, cells: &[Cell], tl: &Timeline, out: &mut Outcome) {
    let oracle = htvm_serve::CompileService::new(htvm_serve::ServeConfig::default());
    let keys = serve::cell_keys(&oracle, cells);
    let server = Server::start(tl, true);
    let (warm, failed) = serve::warm_up(&server, cells, &keys);
    out.count(cells.len() as u64, failed);
    let mut rng = Rng::fork(args.seed, 4);
    let plan = serve::plan_repeats(cells, &keys, &mut rng, 100.0, 2);
    let before = server.stats();
    let phase = Phase::run(&server, &plan, tl);
    let after = server.stats();
    out.count(phase.attempted(), phase.failed);
    serve::layer_metrics(&phase, &warm, &before, &after, &mut out.metrics);
    server.stop(tl);
}

fn write_trace(args: &Args, tl: Timeline) {
    let dir = std::path::Path::new("htvm-perf/out");
    let path = dir.join(format!(
        "trace-{}-{}.json",
        match args.workload {
            Workload::Table1 => "table1",
            Workload::ServeChurn => "serve-churn",
        },
        args.seed
    ));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tl.into_trace().to_chrome_trace()));
    match written {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("trace not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::new();
    match args.workload {
        Workload::Table1 => table1(&args, &mut out),
        Workload::ServeChurn => serve_churn(&args, &mut out),
    }
    if !args.trace {
        out.metrics.push("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    let expected: &[(&str, &str)] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    if let Err(e) = out.metrics.check(expected) {
        eprintln!("error: metric set does not match the benchmark definition: {e}");
        return ExitCode::FAILURE;
    }
    let mut details = vec![
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("trace".to_owned(), Value::Bool(args.trace)),
    ];
    details.append(&mut out.details);
    println!(
        "{}",
        serde_json::to_string(&Value::Object(details)).expect("details serialize")
    );
    let result = serde_json::json!({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics.to_json(),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("metric field")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(&metrics::END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&metrics::PER_LAYER));
    }

    #[test]
    fn benchmark_json_records_each_traffic_shape() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let why = |name: &str| -> String {
            doc.get("workloads")
                .and_then(Value::as_array)
                .and_then(|ws| {
                    ws.iter()
                        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
                })
                .and_then(|w| w.get("why"))
                .and_then(Value::as_str)
                .expect("workload listed")
                .to_owned()
        };
        let churn = why("serve-churn");
        for fact in [
            format!("{} req/s", serve::NOMINAL_RPS),
            format!(
                "ladder {}*2^(k/4) req/s, k=0..{}",
                serve::LADDER_BASE,
                serve::RUNGS
            ),
            format!("tail limit {} ms", serve::LIMIT_MS),
        ] {
            assert!(churn.contains(&fact), "{churn:?} lacks {fact:?}");
        }
        assert!(why("table1").contains("closed loop"));
    }
}
