//! Request and stage metrics: counts, quantile latencies, EWMA.
//!
//! Everything is lock-free atomics so recording never contends with the
//! request path. The registry is a fixed set of named series — the
//! endpoints plus the three pipeline stages — each backed by a
//! log-linear quantile histogram ([`fgbs_trace::hist::Histogram`]) and
//! an EWMA ([`fgbs_trace::hist::Estimator`]), rendered into `/metrics`
//! as JSON or Prometheus text exposition.
//!
//! The per-stage estimators double as the latency feed for admission
//! control (ROADMAP item 1): `ewma × queue depth` against a request's
//! remaining deadline budget. Requests the event loop answers itself
//! never queue, so they count in the quantiles but not in the EWMA
//! ([`Metrics::record_inline`]).

use std::sync::atomic::{AtomicU64, Ordering};

use fgbs_trace::hist::Estimator;
use fgbs_trace::Json;

pub use fgbs_trace::hist::N_BUCKETS;

/// EWMA smoothing factor: ~63% of the estimate renews every 5 samples,
/// fast enough to track load shifts without chasing single outliers.
const EWMA_ALPHA: f64 = 0.2;

/// Quantiles exported per series, as `(label, p)` pairs.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

/// Series tracked by the registry (endpoints, then pipeline stages).
pub const SERIES: [&str; 12] = [
    "predict",
    "sweep",
    "reduce",
    "snippets",
    "artifacts",
    "metrics",
    "health",
    "trace",
    "other",
    "stage.profile",
    "stage.reduce",
    "stage.predict",
];

/// One latency series: a quantile histogram + EWMA, plus the most
/// recent sample (the smoke tests' cache-hit probe).
#[derive(Debug)]
struct Series {
    last_micros: AtomicU64,
    est: Estimator,
}

impl Series {
    fn new() -> Series {
        Series {
            last_micros: AtomicU64::new(0),
            est: Estimator::new(EWMA_ALPHA),
        }
    }

    fn record(&self, micros: u64) {
        self.est.record(micros);
        self.last_micros.store(micros, Ordering::Relaxed);
    }

    fn record_inline(&self, micros: u64) {
        self.est.histogram().record(micros);
        self.last_micros.store(micros, Ordering::Relaxed);
    }

    fn to_json(&self) -> Json {
        let h = self.est.histogram();
        let mut fields = vec![
            ("count", Json::U64(h.count())),
            ("total_micros", Json::U64(h.sum())),
            (
                "last_micros",
                Json::U64(self.last_micros.load(Ordering::Relaxed)),
            ),
            ("min_micros", Json::U64(h.min())),
            ("max_micros", Json::U64(h.max())),
        ];
        for (label, p) in QUANTILES {
            fields.push((label, Json::U64(h.quantile(p))));
        }
        fields.push(("ewma_micros", Json::Num(self.est.ewma())));
        Json::obj(fields)
    }
}

/// The metrics registry.
#[derive(Debug)]
pub struct Metrics {
    series: Vec<(&'static str, Series)>,
}

impl Metrics {
    /// A registry with every known series at zero.
    pub fn new() -> Metrics {
        Metrics {
            series: SERIES.iter().map(|&n| (n, Series::new())).collect(),
        }
    }

    fn find(&self, name: &str) -> Option<&Series> {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// Record one sample; unknown names fall into `other`. A sample
    /// matching no series at all (impossible while `SERIES` contains
    /// `other`) is dropped rather than panicking a connection worker.
    pub fn record(&self, name: &str, micros: u64) {
        if let Some(series) = self.find(name).or_else(|| self.find("other")) {
            series.record(micros);
        }
    }

    /// Record one sample of a request the event loop answered itself: it
    /// counts in the quantiles and `last_micros` but not in the EWMA,
    /// which admission control multiplies by the executor's queue depth
    /// and so must price an executor job.
    pub fn record_inline(&self, name: &str, micros: u64) {
        if let Some(series) = self.find(name).or_else(|| self.find("other")) {
            series.record_inline(micros);
        }
    }

    /// Samples recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.find(name)
            .map(|s| s.est.histogram().count())
            .unwrap_or(0)
    }

    /// Latency of the most recent sample under `name` (µs).
    pub fn last_micros(&self, name: &str) -> u64 {
        self.find(name)
            .map(|s| s.last_micros.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Latency quantile estimate for `name` (µs); 0 for an unknown or
    /// empty series.
    pub fn quantile(&self, name: &str, p: f64) -> u64 {
        self.find(name)
            .map(|s| s.est.histogram().quantile(p))
            .unwrap_or(0)
    }

    /// Current EWMA latency for `name` (µs) — the admission-control
    /// feed (0.0 before the first sample).
    pub fn ewma_micros(&self, name: &str) -> f64 {
        self.find(name).map(|s| s.est.ewma()).unwrap_or(0.0)
    }

    /// Render every series as a JSON object keyed by name.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.series
                .iter()
                .map(|(n, s)| (n.to_string(), s.to_json()))
                .collect(),
        )
    }

    /// Append every series to `out` as Prometheus text exposition: one
    /// summary family `fgbs_request_duration_microseconds` with
    /// quantile-labelled samples plus `_sum` and `_count`.
    pub fn render_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str(
            "# HELP fgbs_request_duration_microseconds Request and stage latency in microseconds.\n",
        );
        out.push_str("# TYPE fgbs_request_duration_microseconds summary\n");
        for (name, s) in &self.series {
            let h = s.est.histogram();
            for (_, p) in QUANTILES {
                let _ = writeln!(
                    out,
                    "fgbs_request_duration_microseconds{{series=\"{name}\",quantile=\"{p}\"}} {}",
                    h.quantile(p)
                );
            }
            let _ = writeln!(
                out,
                "fgbs_request_duration_microseconds_sum{{series=\"{name}\"}} {}",
                h.sum()
            );
            let _ = writeln!(
                out,
                "fgbs_request_duration_microseconds_count{{series=\"{name}\"}} {}",
                h.count()
            );
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let m = Metrics::new();
        m.record("predict", 100);
        m.record("predict", 200);
        m.record("nonsense", 5);
        assert_eq!(m.count("predict"), 2);
        assert_eq!(m.last_micros("predict"), 200);
        assert_eq!(m.count("other"), 1);
        let rendered = m.to_json().render();
        assert!(rendered.contains("\"predict\""));
        assert!(rendered.contains("\"stage.profile\""));
        assert!(rendered.contains("\"snippets\""));
    }

    #[test]
    fn series_report_quantiles_and_ewma() {
        let m = Metrics::new();
        for v in 1..=100 {
            m.record("sweep", v);
        }
        // Bounded relative error: p50 near 50, p99 near 99, extremes exact.
        assert_eq!(m.quantile("sweep", 0.0), 1);
        assert_eq!(m.quantile("sweep", 1.0), 100);
        assert!((45..=55).contains(&m.quantile("sweep", 0.5)));
        assert!(m.quantile("sweep", 0.5) <= m.quantile("sweep", 0.99));
        assert!(m.ewma_micros("sweep") > 0.0);
        let rendered = m.to_json().render();
        assert!(rendered.contains("\"p50\""), "{rendered}");
        assert!(rendered.contains("\"p95\""), "{rendered}");
        assert!(rendered.contains("\"p99\""), "{rendered}");
        assert!(rendered.contains("\"ewma_micros\""), "{rendered}");
        // The keys the CI smoke test scrapes stay stable.
        assert!(rendered.contains("\"count\""), "{rendered}");
        assert!(rendered.contains("\"total_micros\""), "{rendered}");
        assert!(rendered.contains("\"last_micros\""), "{rendered}");
    }

    #[test]
    fn inline_samples_count_but_leave_the_ewma() {
        let m = Metrics::new();
        m.record("predict", 3000);
        for _ in 0..50 {
            m.record_inline("predict", 10);
        }
        assert_eq!(m.count("predict"), 51);
        assert_eq!(m.last_micros("predict"), 10);
        assert_eq!(m.ewma_micros("predict"), 3000.0);
    }

    #[test]
    fn snippets_is_a_dedicated_series() {
        let m = Metrics::new();
        m.record("snippets", 40);
        assert_eq!(m.count("snippets"), 1);
        assert_eq!(m.count("other"), 0, "snippets must not fall into other");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = Metrics::new();
        m.record("predict", 150);
        let mut out = String::new();
        m.render_prometheus(&mut out);
        assert!(out.starts_with("# HELP fgbs_request_duration_microseconds"));
        assert!(out.contains("# TYPE fgbs_request_duration_microseconds summary\n"));
        assert!(out.contains(
            "fgbs_request_duration_microseconds{series=\"predict\",quantile=\"0.5\"} 150\n"
        ));
        assert!(out.contains("fgbs_request_duration_microseconds_sum{series=\"predict\"} 150\n"));
        assert!(out.contains("fgbs_request_duration_microseconds_count{series=\"predict\"} 1\n"));
        // Every non-comment line is `name{labels} value`.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value) = line.rsplit_once(' ').expect("sample line");
            assert!(name_part.starts_with("fgbs_"), "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1000 {
                        m.record("sweep", i);
                    }
                });
            }
        });
        assert_eq!(m.count("sweep"), 8000);
    }
}
