//! Named metrics with units, and the in-memory span timeline of a traced
//! run (the `htvm-trace` model, written out as a chrome trace at the end).

use htvm::{tracks, Span, TimeDomain, Trace, Track};
use serde_json::Value;
use std::sync::Mutex;
use std::time::Instant;

/// Benchmark-side spans around each call into the program.
pub const BENCH_TRACK: u32 = 10;
/// One span per HTTP request, from its due time to its response.
pub const CLIENT_TRACK: u32 = 11;

/// Every end-to-end metric a `--trace 0` run reports, with its unit.
pub const END_TO_END: [(&str, &str); 11] = [
    ("compile_ms", "ms"),
    ("simulate_ms", "ms"),
    ("deploy_tail_ms", "ms"),
    ("sim_cycles_geomean", "cycles"),
    ("sim_energy_uj_geomean", "uJ"),
    ("binary_kb", "kB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric a `--trace 1` run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("frontend.import_us", "us"),
    ("frontend.import_mb_s", "MB/s"),
    ("ir.verify_us", "us"),
    ("ir.fold_constants_us", "us"),
    ("pattern.partition_us", "us"),
    ("dory.solve_us", "us"),
    ("codegen.emit_us", "us"),
    ("codegen.l2_plan_us", "us"),
    ("dory.solves", "count"),
    ("dory.tile_cache_hits", "count"),
    ("codegen.artifact_kb", "kB"),
    ("soc.run_us.cpu_tvm", "us"),
    ("soc.host_ns_per_kcycle.cpu_tvm", "ns/kcycle"),
    ("soc.run_us.digital", "us"),
    ("soc.host_ns_per_kcycle.digital", "ns/kcycle"),
    ("soc.run_us.analog", "us"),
    ("soc.host_ns_per_kcycle.analog", "ns/kcycle"),
    ("soc.run_us.both", "us"),
    ("soc.host_ns_per_kcycle.both", "ns/kcycle"),
    ("kernels.macs", "count"),
    ("kernels.gmac_s", "GMAC/s"),
    ("compile_us.ds_cnn", "us"),
    ("simulate_us.ds_cnn", "us"),
    ("compile_us.mobilenet_v1", "us"),
    ("simulate_us.mobilenet_v1", "us"),
    ("compile_us.resnet8", "us"),
    ("simulate_us.resnet8", "us"),
    ("compile_us.toyadmos_dae", "us"),
    ("simulate_us.toyadmos_dae", "us"),
    ("compile_us.tiny_transformer", "us"),
    ("simulate_us.tiny_transformer", "us"),
    ("serve.key_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.response_json_us", "us"),
    ("trace.overhead_pct", "%"),
    ("serve.queue_us_p50", "us"),
    ("serve.service_us_p50.hit", "us"),
    ("serve.service_us_p50.miss", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.evictions", "count"),
    ("serve.shed", "count"),
    ("http.overhead_us_p50", "us"),
    ("generator.late_ms_tail", "ms"),
];

#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit));
    }

    /// Checks that exactly the metrics of `expected` were reported, each
    /// once and with its unit; names what differs otherwise.
    pub fn check(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        let mut got: Vec<(&str, &str)> = self
            .entries
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect();
        let mut want = expected.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        if got == want {
            Ok(())
        } else {
            Err(format!("reported {got:?}, expected {want:?}"))
        }
    }

    pub fn to_json(&self) -> Value {
        Value::Object(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    let v = if value.is_finite() {
                        Value::F64(*value)
                    } else {
                        Value::Null
                    };
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("value".into(), v),
                            ("unit".into(), Value::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Spans of a traced run, on one wall-clock epoch. Disabled timelines
/// record nothing.
pub struct Timeline {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Timeline {
    pub fn new(enabled: bool) -> Self {
        Timeline {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Microseconds from the epoch to `at`.
    pub fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    pub fn record(&self, span: Span) {
        if let Some(spans) = &self.spans {
            spans.lock().expect("timeline poisoned").push(span);
        }
    }

    pub fn span(&self, track: u32, name: &str, start_us: u64, dur_us: f64) {
        if self.spans.is_some() {
            self.record(Span::new(name, track, start_us, dur_us as u64));
        }
    }

    /// Adds spans recorded on another tracer's epoch, shifted so that
    /// epoch lands at `base_us` on this timeline.
    pub fn record_shifted(&self, spans: Vec<Span>, base_us: u64) {
        for mut s in spans {
            s.start += base_us;
            self.record(s);
        }
    }

    pub fn into_trace(self) -> Trace {
        let mut trace = Trace::new(TimeDomain::WallMicros, {
            let mut t = vec![
                Track::new(BENCH_TRACK, "bench"),
                Track::new(CLIENT_TRACK, "client"),
            ];
            t.extend(tracks::serve());
            t
        });
        if let Some(spans) = self.spans {
            trace.spans = spans.into_inner().expect("timeline poisoned");
            trace.spans.sort_by_key(|s| (s.start, s.track));
        }
        trace
    }
}
