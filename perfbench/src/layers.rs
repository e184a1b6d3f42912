//! Per-layer metrics: what one traced request spent in each layer.

use std::collections::BTreeMap;

use crate::compose::Work;
use crate::spans::{self, Span};
use crate::stats::{median, Report};

/// Every per-layer metric with its unit, in print order. A traced sample
/// reports the ones its request reaches; the rest are 0 (the request
/// spent nothing there), and [`report`] reads them off another sample.
pub const METRICS: &[(&str, &str)] = &[
    ("suites.build_ms", "ms"),
    ("isa.compile_calls", "count"),
    ("isa.compile_us", "us"),
    ("machine.invocations", "count"),
    ("machine.accesses", "count"),
    ("machine.ns_per_access", "ns"),
    ("extract.app_runs", "count"),
    ("extract.app_run_s", "s"),
    ("extract.micro_runs", "count"),
    ("extract.micro_s", "s"),
    ("extract.detect_ms", "ms"),
    ("analysis.features_ms", "ms"),
    ("core.profile_s", "s"),
    ("core.wellness_s", "s"),
    ("core.target_runs_s", "s"),
    ("core.predict_s", "s"),
    ("core.reduction_factor_s", "s"),
    ("core.micro_cache_hit_ratio", "ratio"),
    ("pool.efficiency", "ratio"),
    ("clustering.distance_us", "us"),
    ("clustering.linkage_us", "us"),
    ("clustering.elbow_us", "us"),
    ("clustering.select_us", "us"),
    ("clustering.masked_patch_us", "us"),
    ("genetic.evaluations", "count"),
    ("genetic.fitness_cache_hit_ratio", "ratio"),
    ("genetic.eval_us", "us"),
    ("store.get_us", "us"),
    ("store.hits", "count"),
    ("store.put_ms", "ms"),
    ("store.puts", "count"),
    ("store.misses", "count"),
    ("serve.handle_hit_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.handle_miss_ms", "ms"),
    ("serve.computations_per_cold_key", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.batches", "count"),
    ("trace.span_ns", "ns"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// (span name, metric, scale from ns, inclusive?) for the metrics read
/// straight off span totals. Leaf layer calls report self time; `core.*`
/// stages report their inclusive time (their children are the extract
/// and clustering calls listed separately).
const SPAN_TIMES: &[(&str, &str, f64, bool)] = &[
    ("suites.build", "suites.build_ms", 1e6, false),
    ("isa.compile", "isa.compile_us", 1e3, false),
    ("extract.app_run", "extract.app_run_s", 1e9, false),
    ("extract.micro", "extract.micro_s", 1e9, false),
    ("extract.detect", "extract.detect_ms", 1e6, false),
    ("analysis.features", "analysis.features_ms", 1e6, false),
    ("core.profile", "core.profile_s", 1e9, true),
    ("core.wellness", "core.wellness_s", 1e9, true),
    ("core.target_runs", "core.target_runs_s", 1e9, true),
    ("core.predict", "core.predict_s", 1e9, true),
    (
        "core.reduction_factor",
        "core.reduction_factor_s",
        1e9,
        true,
    ),
    ("clustering.distance", "clustering.distance_us", 1e3, false),
    ("clustering.linkage", "clustering.linkage_us", 1e3, false),
    ("clustering.elbow", "clustering.elbow_us", 1e3, false),
    ("clustering.select", "clustering.select_us", 1e3, false),
    (
        "clustering.masked_patch",
        "clustering.masked_patch_us",
        1e3,
        false,
    ),
];

/// The per-layer values of one traced request.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    pub values: BTreeMap<&'static str, f64>,
    /// Wall seconds of the traced request, for the overhead comparison.
    pub wall_s: f64,
    /// Share of the blocking threads' time that layer spans cover.
    pub covered: f64,
    /// Self time per span name, for the layer-share table.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Sample {
    /// The span-derived metrics of one request.
    pub fn from_spans(spans: &[Span]) -> Sample {
        let totals = spans::totals(spans);
        let mut s = Sample::default();
        for &(span, metric, scale, inclusive) in SPAN_TIMES {
            let t = totals.get(span).copied().unwrap_or_default();
            let ns = if inclusive { t.incl_ns } else { t.self_ns };
            s.set(metric, ns as f64 / scale);
        }
        let count = |name: &str| totals.get(name).map_or(0, |t| t.count) as f64;
        s.set("isa.compile_calls", count("isa.compile"));
        s.set("extract.app_runs", count("extract.app_run"));
        if let Some(t) = totals.get("genetic.eval") {
            s.set(
                "genetic.eval_us",
                t.incl_ns as f64 / 1e3 / t.count.max(1) as f64,
            );
        }
        let (gap, wall) = spans::unattributed(spans);
        s.covered = 1.0 - gap as f64 / wall.max(1) as f64;
        s.wall_s = spans
            .iter()
            .filter(|sp| sp.name.starts_with("bench."))
            .map(|sp| sp.dur_ns())
            .max()
            .unwrap_or(0) as f64
            / 1e9;
        s.self_ns = totals.iter().map(|(k, t)| (*k, t.self_ns)).collect();
        s.set("trace.span_ns", trace_span_ns());
        s
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|(m, _)| *m == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Microbenchmark cache use: `calls` measure calls the untraced
    /// stages make, `distinct` measurements actually run.
    pub fn micro_cache(&mut self, calls: u64, distinct: u64) {
        self.set("extract.micro_runs", distinct as f64);
        self.set(
            "core.micro_cache_hit_ratio",
            1.0 - distinct as f64 / calls.max(1) as f64,
        );
    }

    /// Simulated work: application runs, all microbenchmark runs, and
    /// the microbenchmark runs that sit in `extract.micro` spans (the
    /// host time per access divides the timed runs by their own work).
    pub fn machine(&mut self, apps: Work, micro: Work, timed_micro: Work) {
        self.set(
            "machine.invocations",
            (apps.invocations + micro.invocations) as f64,
        );
        self.set("machine.accesses", (apps.accesses + micro.accesses) as f64);
        let host_ns = self.self_ns.get("extract.app_run").copied().unwrap_or(0)
            + self.self_ns.get("extract.micro").copied().unwrap_or(0);
        let accesses = apps.accesses + timed_micro.accesses;
        self.set(
            "machine.ns_per_access",
            host_ns as f64 / accesses.max(1) as f64,
        );
    }

    /// Busy time of the pool's work items over the workers' capacity for
    /// as long as the submitting span waited on them.
    pub fn pool_efficiency(&mut self, spans: &[Span], item: &str, wait: &str, workers: usize) {
        let sum = |name: &str| -> u64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_ns)
                .sum()
        };
        let capacity = workers as u64 * sum(wait);
        self.set("pool.efficiency", sum(item) as f64 / capacity.max(1) as f64);
    }
}

/// Host nanoseconds per `fgbs_trace` span with the collector on and the
/// flight recorder armed, as the daemon runs them. Tracing is restored
/// to its previous state afterwards.
pub fn trace_span_ns() -> f64 {
    const N: u64 = 20_000;
    let was_on = fgbs_trace::enabled();
    if !was_on {
        fgbs_trace::set_capacity(4096);
        fgbs_trace::set_enabled(true);
    }
    let t0 = std::time::Instant::now();
    for _ in 0..N {
        let _s = fgbs_trace::span("perfbench.span");
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    if !was_on {
        fgbs_trace::set_enabled(false);
        fgbs_trace::set_capacity(0);
        drop(fgbs_trace::drain());
    }
    ns
}

/// Median of every metric over the main operation's traced samples; a
/// metric they leave at 0 is taken from the first side sample that
/// reaches it. The two accounting metrics compare each traced sample
/// with the untraced sample of the program itself run just before it,
/// and take the median over those pairs:
///
/// - `bench.trace_overhead_pct`: traced over untraced wall, − 1.
/// - `bench.unattributed_pct`: how far the time the layer spans cover
///   on the blocking threads misses the program's untraced wall, either
///   way. The traced samples run the benchmark's own copy of each stage
///   body, so a program change inside a stage that the copy does not
///   make shows here and in no layer metric.
pub fn report(samples: &[Sample], side: &[Sample], untraced_walls: &[f64], report: &mut Report) {
    let per_pair = |f: fn(&Sample) -> f64| -> f64 {
        let ratios: Vec<f64> = samples
            .iter()
            .zip(untraced_walls)
            .map(|(s, &u)| f(s) / u)
            .collect();
        median(&ratios)
    };
    let value = |s: &Sample, name: &str| s.values.get(name).copied().unwrap_or(0.0);
    for &(name, unit) in METRICS {
        let (v, n) = match name {
            "bench.trace_overhead_pct" => (100.0 * (per_pair(|s| s.wall_s) - 1.0), samples.len()),
            "bench.unattributed_pct" => (
                100.0 * (1.0 - per_pair(|s| s.wall_s * s.covered)).abs(),
                samples.len(),
            ),
            _ => {
                let main: Vec<f64> = samples.iter().map(|s| value(s, name)).collect();
                let m = median(&main);
                match side.iter().map(|s| value(s, name)).find(|&v| v != 0.0) {
                    Some(v) if m == 0.0 => (v, 1),
                    _ => (m, samples.len()),
                }
            }
        };
        report.put(name, unit, v, n);
    }
}

/// Each layer's share of the summed self time of a request's spans
/// (roots and pool waits excluded), largest first.
pub fn shares(samples: &[Sample]) -> Vec<(String, f64)> {
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for s in samples {
        for (name, &ns) in &s.self_ns {
            if name.starts_with("bench.") || *name == "pool.map" || *name == "genetic.minimize" {
                continue;
            }
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *by_layer.entry(layer).or_insert(0) += ns;
        }
    }
    let total: u64 = by_layer.values().sum();
    let mut v: Vec<(String, f64)> = by_layer
        .into_iter()
        .map(|(k, ns)| (k, 100.0 * ns as f64 / total.max(1) as f64))
        .collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}
