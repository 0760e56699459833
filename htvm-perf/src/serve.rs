//! The served workload, `serve-churn`: open-loop traffic against an
//! in-process `HttpServer` over a default-configured `CompileService`.
//! Most requests carry a never-seen variant (a seeded shuffle of a zoo
//! model's weight tensors: same shapes, dtypes and value ranges, new
//! cache key); the rest repeat earlier variants. Some ask for the
//! artifact, some arrive as `/v1/batch` bodies that carry one variant for
//! several deploy targets with a duplicate.

use crate::cells::Cell;
use crate::load::{self, Conn, Request, Sample};
use crate::metrics::{Metrics, Timeline};
use crate::stats::{median, tail, Rng};
use htvm::{Compiler, DeployConfig, Graph, GraphBuilder, Tracer};
use htvm_bench::report::deploy_id;
use htvm_ir::NodeKind;
use htvm_serve::http::wire::{encode_hex, WireBatch, WireBatchResult, WireJob, WireResult};
use htvm_serve::http::{HttpConfig, HttpServer};
use htvm_serve::{CompileService, JobRequest, ServeConfig, ServiceStats};
use serde_json::Value;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Nominal churn rate: `p50_ms` and `tail_ms` are measured here.
pub const NOMINAL_RPS: f64 = 20.0;
/// Goodput ladder: rung `k` (for `k` in `0..=RUNGS`) is
/// `LADDER_BASE · 2^(k/4)` req/s, a factor of 16 in all.
pub const LADDER_BASE: f64 = 10.0;
pub const RUNGS: usize = 16;
/// The tail latency a ladder rung must meet.
pub const LIMIT_MS: f64 = 100.0;

pub fn rung(k: usize) -> f64 {
    LADDER_BASE * 2f64.powf(k as f64 / 4.0)
}

/// Churn epochs rotate their extras over the cells: a cell's repeat asks
/// for the artifact when `(cell + 3·epoch) % ARTIFACT_EVERY == 0`, its new
/// variant gets a twin when `(cell + 5·epoch) % TWIN_EVERY == 0`, and it
/// gets a batch when `(cell + 2·epoch) % BATCH_EVERY == 0` — about 3
/// artifact requests, 2 twins and 2 batches per 61-request epoch.
const ARTIFACT_EVERY: usize = 7;
const TWIN_EVERY: usize = 10;
const BATCH_EVERY: usize = 10;

/// Load-generator connections: never more than the machine has CPUs.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

pub struct Server {
    service: Arc<CompileService>,
    http: HttpServer,
    trace_base_us: u64,
}

impl Server {
    /// The default service configuration; a traced server only adds the
    /// service's span collector.
    pub fn start(tl: &Timeline, traced: bool) -> Server {
        let trace_base_us = tl.now_us();
        let tracer = if traced {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let service = Arc::new(CompileService::new(ServeConfig {
            tracer,
            ..ServeConfig::default()
        }));
        let http = HttpServer::spawn(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
            .expect("binding a loopback port");
        Server {
            service,
            http,
            trace_base_us,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// `GET /v1/stats`.
    pub fn stats(&self) -> ServiceStats {
        let (status, body) = Conn::connect(self.addr())
            .and_then(|mut c| c.call("GET", "/v1/stats", b""))
            .expect("stats request");
        assert_eq!(status, 200, "stats answers 200");
        serde_json::from_str(std::str::from_utf8(&body).expect("utf-8 stats")).expect("stats parse")
    }

    pub fn stop(self, tl: &Timeline) {
        self.http.shutdown();
        tl.record_shifted(self.service.take_trace().spans, self.trace_base_us);
    }
}

/// What a response must say.
pub enum Expect {
    Import {
        key_id: String,
        /// The model and deploy whose in-process compile the returned
        /// artifact must equal byte for byte.
        artifact: Option<(Arc<Vec<u8>>, DeployConfig)>,
    },
    Batch {
        key_ids: Vec<String>,
    },
}

pub struct Planned {
    pub req: Request,
    pub expect: Expect,
}

fn key_id(oracle: &CompileService, graph: &Graph, deploy: DeployConfig) -> String {
    oracle
        .key_of(&JobRequest::compile_only("oracle", graph.clone(), deploy))
        .expect("diana routes every deploy")
        .id()
}

fn import_target(name: &str, deploy: DeployConfig, artifact: bool) -> String {
    let art = if artifact { "&artifact=true" } else { "" };
    format!("/v1/import?name={name}&deploy={}{art}", deploy_id(deploy))
}

/// The 19 cells' keys, as the in-process service computes them.
pub fn cell_keys(oracle: &CompileService, cells: &[Cell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| key_id(oracle, &c.graph, c.deploy))
        .collect()
}

/// Warms the server with every cell once over one connection (each a
/// cache miss); returns the parsed results and the failure count.
pub fn warm_up(server: &Server, cells: &[Cell], keys: &[String]) -> (Vec<WireResult>, u64) {
    let mut conn = Conn::connect(server.addr()).expect("connect");
    let mut results = Vec::new();
    let mut failed = 0;
    for (i, cell) in cells.iter().enumerate() {
        let target = import_target(&format!("warm-{i}"), cell.deploy, false);
        match conn.call("POST", &target, &cell.htf) {
            Ok((200, body)) => match parse_result(&body) {
                Some(r) if r.key_id == keys[i] => results.push(r),
                _ => failed += 1,
            },
            _ => failed += 1,
        }
    }
    (results, failed)
}

fn parse_result(head: &[u8]) -> Option<WireResult> {
    serde_json::from_str(std::str::from_utf8(head).ok()?).ok()
}

/// Repeats of already-warm cells: `rounds` seeded shuffles of the cell
/// list, open loop at `rate`.
pub fn plan_repeats(
    cells: &[Cell],
    keys: &[String],
    rng: &mut Rng,
    rate: f64,
    rounds: usize,
) -> Vec<Planned> {
    let mut deck = Vec::new();
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..cells.len()).collect();
        rng.shuffle(&mut round);
        deck.extend(round);
    }
    load::arrivals(rng, rate, deck.len())
        .into_iter()
        .zip(deck)
        .enumerate()
        .map(|(i, (due_us, c))| Planned {
            req: Request {
                due_us,
                method: "POST",
                target: import_target(&format!("repeat-{i}"), cells[c].deploy, false),
                body: Arc::clone(&cells[c].htf),
            },
            expect: Expect::Import {
                key_id: keys[c].clone(),
                artifact: None,
            },
        })
        .collect()
}

/// A seeded shuffle of every constant tensor of `base`: shapes, dtypes
/// and value multisets are unchanged, so compile work is the zoo
/// model's, but the cache key is new.
pub fn variant(base: &Graph, rng: &mut Rng) -> Graph {
    let mut b = GraphBuilder::new();
    let mut ids = Vec::with_capacity(base.len());
    for (_, node) in base.nodes() {
        let id = match &node.kind {
            NodeKind::Input => b.input(&node.name, node.shape.dims(), node.dtype),
            NodeKind::Constant(t) => {
                let mut t = t.clone();
                rng.shuffle(t.data_mut());
                b.constant(&node.name, t)
            }
            NodeKind::Op { op, inputs } => {
                let inputs: Vec<_> = inputs.iter().map(|i| ids[i.index()]).collect();
                b.apply_named(op.clone(), &inputs, &node.name)
                    .expect("a shuffled zoo graph rebuilds")
            }
        };
        ids.push(id);
    }
    let outputs: Vec<_> = base.outputs().iter().map(|o| ids[o.index()]).collect();
    b.finish(&outputs).expect("a shuffled zoo graph rebuilds")
}

const ACCEL: [DeployConfig; 3] = [
    DeployConfig::Digital,
    DeployConfig::Analog,
    DeployConfig::Both,
];

struct Variant {
    deploy: DeployConfig,
    htf: Arc<Vec<u8>>,
    /// Key ids for the variant's own deploy and its batch deploys.
    keys: Vec<(DeployConfig, String)>,
}

impl Variant {
    fn key(&self, deploy: DeployConfig) -> String {
        self.keys
            .iter()
            .find(|(d, _)| *d == deploy)
            .map(|(_, k)| k.clone())
            .expect("variant keys cover its deploys")
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Import a brand-new variant of the cell (a miss).
    New,
    /// Import the new variant again right behind its first import, so the
    /// two meet on different connections (single-flight coalescing, or a
    /// hit when the compile already landed).
    Twin,
    /// Import the cell's variant from the previous epoch (a cache hit).
    Repeat { artifact: bool },
    /// The previous epoch's variant for two deploy targets plus a
    /// duplicate of the first (in-batch coalescing).
    Batch,
}

/// Churn traffic generator. An epoch holds, for every cell, two new
/// variants and one repeat of the previous epoch's variant, plus a few
/// twins, batches and artifact requests chosen by rotation, in a seeded
/// order; every seed sends the same mix.
pub struct Churn<'a> {
    cells: &'a [Cell],
    oracle: &'a CompileService,
    /// Per cell, the accelerator deploys its graph compiles for (a
    /// property of shapes and dtypes, so it holds for every variant).
    batch_deploys: Vec<Vec<DeployConfig>>,
    /// Each cell's variants of this and the previous epoch; before the
    /// first, the cell itself.
    latest: Vec<Arc<Variant>>,
    prev: Vec<Arc<Variant>>,
    created: usize,
    epoch: usize,
}

impl<'a> Churn<'a> {
    pub fn new(cells: &'a [Cell], oracle: &'a CompileService) -> Self {
        let batch_deploys: Vec<Vec<DeployConfig>> = cells
            .iter()
            .map(|c| {
                ACCEL
                    .into_iter()
                    .filter(|&d| Compiler::new().with_deploy(d).compile(&c.graph).is_ok())
                    .collect()
            })
            .collect();
        let latest: Vec<Arc<Variant>> = cells
            .iter()
            .zip(&batch_deploys)
            .map(|(c, ds)| {
                Arc::new(Variant {
                    deploy: c.deploy,
                    htf: Arc::clone(&c.htf),
                    keys: Self::keys(oracle, &c.graph, c.deploy, ds),
                })
            })
            .collect();
        Churn {
            cells,
            oracle,
            batch_deploys,
            prev: latest.clone(),
            latest,
            created: 0,
            epoch: 0,
        }
    }

    fn keys(
        oracle: &CompileService,
        graph: &Graph,
        own: DeployConfig,
        batch: &[DeployConfig],
    ) -> Vec<(DeployConfig, String)> {
        let mut keys = vec![(own, key_id(oracle, graph, own))];
        for &d in batch {
            if d != own {
                keys.push((d, key_id(oracle, graph, d)));
            }
        }
        keys
    }

    fn new_variant(&mut self, c: usize, rng: &mut Rng) {
        let cell = &self.cells[c];
        let graph = variant(&cell.graph, rng);
        self.latest[c] = Arc::new(Variant {
            deploy: cell.deploy,
            htf: Arc::new(htvm_frontend::emit(&graph).expect("variants emit")),
            keys: Self::keys(self.oracle, &graph, cell.deploy, &self.batch_deploys[c]),
        });
        self.created += 1;
    }

    /// Variants created so far.
    pub fn variants(&self) -> usize {
        self.created
    }

    /// Requests in one epoch (rotation moves a twin or batch between
    /// epochs, so lengths differ by at most a few).
    pub fn epoch_len(&self) -> usize {
        let n = self.cells.len();
        3 * n + n.div_ceil(TWIN_EVERY) + n.div_ceil(BATCH_EVERY)
    }

    fn next_epoch(&mut self, rng: &mut Rng) -> Vec<(usize, Kind)> {
        let e = self.epoch;
        self.epoch += 1;
        self.prev = self.latest.clone();
        let mut items = Vec::new();
        for c in 0..self.cells.len() {
            items.push((c, Kind::New));
            items.push((c, Kind::New));
            let artifact = (c + 3 * e).is_multiple_of(ARTIFACT_EVERY);
            items.push((c, Kind::Repeat { artifact }));
            if (c + 2 * e).is_multiple_of(BATCH_EVERY) {
                items.push((c, Kind::Batch));
            }
        }
        rng.shuffle(&mut items);
        // Twins go right behind their cell's first new import.
        let mut twinned = vec![false; self.cells.len()];
        let mut out = Vec::with_capacity(items.len() + 4);
        for (c, kind) in items {
            out.push((c, kind));
            if matches!(kind, Kind::New) && (c + 5 * e).is_multiple_of(TWIN_EVERY) && !twinned[c] {
                twinned[c] = true;
                out.push((c, Kind::Twin));
            }
        }
        out
    }

    /// Plans whole epochs at `rate`.
    pub fn plan(&mut self, rng: &mut Rng, rate: f64, epochs: usize) -> Vec<Planned> {
        let mut out = Vec::new();
        for _ in 0..epochs {
            let e = self.epoch;
            for (c, kind) in self.next_epoch(rng) {
                let name = format!("churn-{}", out.len());
                if let Kind::New = kind {
                    self.new_variant(c, rng);
                }
                let var = match kind {
                    Kind::New | Kind::Twin => Arc::clone(&self.latest[c]),
                    Kind::Repeat { .. } | Kind::Batch => Arc::clone(&self.prev[c]),
                };
                let (target, body, expect) = match kind {
                    Kind::Batch => {
                        let ds = &self.batch_deploys[c];
                        let deploys = [ds[e % ds.len()], ds[(e + 1) % ds.len()], ds[e % ds.len()]];
                        let hex = encode_hex(&var.htf);
                        let jobs = deploys
                            .iter()
                            .enumerate()
                            .map(|(j, &deploy)| WireJob {
                                name: format!("{name}.{j}"),
                                tenant: None,
                                platform: None,
                                graph: None,
                                model_hex: Some(hex.clone()),
                                deploy,
                                include_artifact: false,
                            })
                            .collect();
                        let body =
                            serde_json::to_string(&WireBatch { jobs }).expect("batch serializes");
                        let key_ids = deploys.iter().map(|&d| var.key(d)).collect();
                        let body = Arc::new(body.into_bytes());
                        ("/v1/batch".to_owned(), body, Expect::Batch { key_ids })
                    }
                    Kind::New | Kind::Twin | Kind::Repeat { .. } => {
                        let artifact = matches!(kind, Kind::Repeat { artifact: true });
                        (
                            import_target(&name, var.deploy, artifact),
                            Arc::clone(&var.htf),
                            Expect::Import {
                                key_id: var.key(var.deploy),
                                artifact: artifact.then(|| (Arc::clone(&var.htf), var.deploy)),
                            },
                        )
                    }
                };
                out.push(Planned {
                    req: Request {
                        due_us: 0,
                        method: "POST",
                        target,
                        body,
                    },
                    expect,
                });
            }
        }
        let due = load::arrivals(rng, rate, out.len());
        for (p, due_us) in out.iter_mut().zip(due) {
            p.req.due_us = due_us;
        }
        out
    }
}

/// One open-loop phase, checked.
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Service-side results of every job, in request order.
    pub results: Vec<WireResult>,
    pub failed: u64,
    /// Front-door overhead of each single-job request: time on the wire
    /// and in the server, minus the service's own queue and service time.
    pub overhead_us: Vec<f64>,
    /// Artifacts still to be compared: (sample index, key id, model,
    /// deploy).
    pending: Vec<(usize, String, Arc<Vec<u8>>, DeployConfig)>,
}

impl Phase {
    pub fn run(server: &Server, plan: &[Planned], tl: &Timeline) -> Phase {
        let reqs: Vec<&Request> = plan.iter().map(|p| &p.req).collect();
        let samples = load::run(server.addr(), &reqs, connections(), tl);
        let mut phase = Phase {
            samples,
            results: Vec::new(),
            failed: 0,
            overhead_us: Vec::new(),
            pending: Vec::new(),
        };
        for (i, (p, s)) in plan.iter().zip(&phase.samples).enumerate() {
            let Some(reply) = s.reply.as_ref().filter(|r| r.status == 200) else {
                let status = s.reply.as_ref().map(|r| r.status);
                eprintln!("failed: {} answered {status:?}", p.req.target);
                phase.failed += 1;
                continue;
            };
            let ok = match &p.expect {
                Expect::Import { key_id, artifact } => match parse_result(&reply.head) {
                    Some(r)
                        if r.key_id == *key_id
                            && artifact.is_some() == reply.artifact.is_some() =>
                    {
                        if let Some((htf, deploy)) = artifact {
                            phase
                                .pending
                                .push((i, r.key_id.clone(), Arc::clone(htf), *deploy));
                        }
                        phase
                            .overhead_us
                            .push(s.exchange_us() as f64 - (r.queue_us + r.service_us) as f64);
                        phase.results.push(r);
                        true
                    }
                    _ => false,
                },
                Expect::Batch { key_ids } => {
                    let parsed: Option<WireBatchResult> = std::str::from_utf8(&reply.head)
                        .ok()
                        .and_then(|t| serde_json::from_str(t).ok());
                    match parsed {
                        Some(b) if b.results.len() == key_ids.len() => {
                            let rs: Vec<WireResult> =
                                b.results.into_iter().filter_map(|e| e.result).collect();
                            let ok = rs.len() == key_ids.len()
                                && rs.iter().zip(key_ids).all(|(r, k)| r.key_id == *k);
                            phase.results.extend(rs);
                            ok
                        }
                        _ => false,
                    }
                }
            };
            if !ok {
                eprintln!("failed: {} answered an unexpected body", p.req.target);
                phase.failed += 1;
            }
        }
        phase
    }

    /// Compares every returned artifact with an in-process compile of the
    /// same model and deploy (outside any timed window).
    /// `memo` maps key ids to the hash and length of their artifact JSON.
    pub fn verify_artifacts(&mut self, memo: &mut HashMap<String, (u64, usize)>) {
        for (i, key_id, htf, deploy) in std::mem::take(&mut self.pending) {
            let want = *memo.entry(key_id).or_insert_with(|| {
                let graph = htvm_frontend::import(&htf).expect("planned models import");
                let artifact = Compiler::new()
                    .with_deploy(deploy)
                    .compile(&graph)
                    .expect("planned models compile");
                let json = serde_json::to_string(&artifact).expect("artifacts serialize");
                (load::hash(json.as_bytes()), json.len())
            });
            let got = self.samples[i].reply.as_ref().and_then(|r| r.artifact);
            if got != Some(want) {
                eprintln!("failed: artifact of request {i} differs from an in-process compile");
                self.failed += 1;
            }
        }
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_ms).collect()
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }
}

/// One goodput rung.
pub struct Rung {
    pub rate: f64,
    pub n: usize,
    pub tail_ms: f64,
    pub failed: u64,
    pub backlog_ok: bool,
}

impl Rung {
    pub fn passes(&self) -> bool {
        self.failed == 0 && self.backlog_ok && self.tail_ms <= LIMIT_MS
    }

    pub fn measure(phase: &Phase, rate: f64) -> Rung {
        let lat = phase.latencies_ms();
        let tail_ms = crate::stats::windowed_tail(&lat).map_or(f64::INFINITY, |t| t.0);
        // A growing backlog shows as send lag that is still over the
        // limit across the rung's last quarter.
        let last = &phase.samples[phase.samples.len() * 3 / 4..];
        let lag: Vec<f64> = last
            .iter()
            .map(|s| (s.send_us - s.due_us) as f64 / 1e3)
            .collect();
        Rung {
            rate,
            n: lat.len(),
            tail_ms,
            failed: phase.failed,
            backlog_ok: median(&lag) <= LIMIT_MS,
        }
    }

    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "rate_rps": self.rate,
            "requests": self.n as u64,
            "tail_ms": self.tail_ms,
            "failed": self.failed,
            "backlog_ok": self.backlog_ok,
        })
    }
}

/// Serve-layer metrics of a traced phase. `warm` adds the set-up misses
/// to the miss-service median (a phase of repeats has none).
pub fn layer_metrics(
    phase: &Phase,
    warm: &[WireResult],
    before: &ServiceStats,
    after: &ServiceStats,
    m: &mut Metrics,
) {
    let rs = &phase.results;
    let q: Vec<f64> = rs.iter().map(|r| r.queue_us as f64).collect();
    m.push("serve.queue_us_p50", median(&q), "us");
    let hit: Vec<f64> = rs
        .iter()
        .filter(|r| r.cache_hit)
        .map(|r| r.service_us as f64)
        .collect();
    let miss: Vec<f64> = rs
        .iter()
        .chain(warm)
        .filter(|r| !r.cache_hit && !r.coalesced)
        .map(|r| r.service_us as f64)
        .collect();
    m.push("serve.service_us_p50.hit", median(&hit), "us");
    m.push("serve.service_us_p50.miss", median(&miss), "us");
    let hits = rs.iter().filter(|r| r.cache_hit).count();
    m.push(
        "serve.hit_ratio",
        hits as f64 / rs.len().max(1) as f64,
        "ratio",
    );
    m.push(
        "serve.coalesced",
        (after.coalesced - before.coalesced) as f64,
        "count",
    );
    m.push(
        "serve.evictions",
        (after.artifact_cache.evictions - before.artifact_cache.evictions) as f64,
        "count",
    );
    m.push("serve.shed", (after.shed - before.shed) as f64, "count");
    m.push("http.overhead_us_p50", median(&phase.overhead_us), "us");
    let late: Vec<f64> = phase
        .samples
        .iter()
        .map(|s| s.late_us as f64 / 1e3)
        .collect();
    m.push(
        "generator.late_ms_tail",
        tail(&late).map_or_else(|| median(&late), |t| t.value),
        "ms",
    );
}
