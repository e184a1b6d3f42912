//! The benchmark barometer: a declarative registry of perf probes, a
//! runner that emits schema-versioned measurement records, and a
//! noise-aware record comparison engine.
//!
//! Layout:
//! - [`registry`] — the data-driven benchmark catalogue (embedded
//!   `registry.json`), keyed `suite/stage/nSIZE/tTHREADS`, with
//!   declarative perf gates (`max_ns`, `gate: {vs, max_ratio}`).
//! - [`workloads`] — the table from stage name to the measured
//!   operation behind it, timed on the calibrated trace clock.
//! - [`runner`] — selection (`--filter`, `--quick`), execution under
//!   deterministic `bench.case` spans, gate evaluation, and the
//!   human-readable run report.
//! - [`record`] — the versioned on-disk record: environment
//!   fingerprint, per-benchmark robust stats, strict round-trip codec.
//! - [`cmp`] — `fgbs bench cmp`: ratio-of-medians verdicts against
//!   per-benchmark noise floors, normalized by the calibration spin so
//!   a committed baseline gates CI runners of a different speed.

pub mod cmp;
pub mod record;
pub mod registry;
pub mod runner;
pub mod workloads;

pub use cmp::{compare, decide, threshold_pct, CmpOptions, CmpReport, CmpRow, Verdict};
pub use record::{BenchResult, EnvFingerprint, Record, RECORD_SCHEMA};
pub use registry::{BenchDef, Gate, Registry, REGISTRY_SCHEMA};
pub use runner::{render_report, run_registry, GateOutcome, RunOptions, RunOutput};

/// Render a nanosecond quantity with a human-scale unit.
pub fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        format!("{ns}")
    } else if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::fmt_ns;

    #[test]
    fn fmt_ns_picks_human_units() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 us");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(12_340_000_000.0), "12.340 s");
    }
}
