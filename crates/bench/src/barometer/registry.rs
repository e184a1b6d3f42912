//! The declarative benchmark registry.
//!
//! Benchmarks are *data*, not code: the built-in registry lives in
//! `registry.json` (embedded at compile time) and an alternate file can
//! be loaded with `fgbs bench --registry FILE`. Each entry names a
//! `stage` from the workload table (`workloads::WORKLOADS`),
//! keyed by suite × stage × size × threads, with its sample counts,
//! per-sample batch size, and optional perf gates — either an absolute
//! per-op bound (`max_ns`) or a ratio bound against a sibling entry
//! (`gate`).
//!
//! Adding a benchmark means adding a JSON object; the workload table is
//! the only code surface.

use fgbs_trace::Json;

use super::workloads;

/// Registry format version. Bump when the entry schema changes.
pub const REGISTRY_SCHEMA: u64 = 1;

/// A ratio gate: `median(self) <= max_ratio × median(vs)`, checked
/// within one run. `max_ratio < 1` asserts a speedup (the NN-chain must
/// be ≥5× faster than the naive scan ⇒ `max_ratio: 0.2`); `> 1` bounds
/// an overhead (the traced pipeline within 5% of the untraced one).
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The entry this one is measured against.
    pub vs: String,
    /// Largest acceptable `median(self) / median(vs)`.
    pub max_ratio: f64,
}

/// One benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDef {
    /// Stable identity, `suite/stage/n<size>/t<threads>` by convention.
    /// Records are aligned by this id in `fgbs bench cmp`.
    pub id: String,
    /// Grouping label (`clustering`, `store`, `calibration`, …).
    pub suite: String,
    /// The workload to run: a name in the workload table.
    pub stage: String,
    /// Problem-size knob, interpreted per stage (codelets, bytes, apps).
    pub size: usize,
    /// Worker threads; `0` means "use the runner's `--threads`".
    pub threads: usize,
    /// Samples recorded in a full run.
    pub iters: usize,
    /// Samples recorded under `--quick`.
    pub quick_iters: usize,
    /// Operations timed per sample (per-op cost = sample / batch).
    pub batch: u64,
    /// Run only in full mode (too slow for the CI quick gate).
    pub full_only: bool,
    /// Absolute per-op bound in nanoseconds, checked after the run.
    pub max_ns: Option<u64>,
    /// Ratio bound against a sibling entry, checked after the run.
    pub gate: Option<Gate>,
}

impl BenchDef {
    /// Sample count for the given mode.
    pub fn samples(&self, quick: bool) -> usize {
        if quick {
            self.quick_iters
        } else {
            self.iters
        }
    }
}

/// A validated set of benchmark definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    /// Format version of the source document.
    pub schema: u64,
    /// The benchmark definitions, in document order.
    pub benchmarks: Vec<BenchDef>,
}

impl Registry {
    /// The registry embedded in the binary (`registry.json`).
    pub fn builtin() -> Registry {
        Registry::parse(include_str!("registry.json"))
            .expect("the embedded registry must be valid")
    }

    /// Parse and validate a registry document.
    pub fn parse(src: &str) -> Result<Registry, String> {
        let doc = Json::parse(src).map_err(|e| format!("registry is not valid JSON: {e}"))?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("registry needs a numeric `schema`")?;
        if schema != REGISTRY_SCHEMA {
            return Err(format!(
                "unsupported registry schema {schema} (this build reads {REGISTRY_SCHEMA})"
            ));
        }
        let entries = doc
            .get("benchmarks")
            .and_then(Json::as_arr)
            .ok_or("registry needs a `benchmarks` array")?;
        let mut benchmarks = Vec::with_capacity(entries.len());
        for e in entries {
            benchmarks.push(parse_entry(e)?);
        }
        let reg = Registry { schema, benchmarks };
        reg.validate()?;
        Ok(reg)
    }

    /// Entry lookup by id.
    pub fn find(&self, id: &str) -> Option<&BenchDef> {
        self.benchmarks.iter().find(|b| b.id == id)
    }

    /// Cross-entry invariants: unique ids, resolvable gates.
    fn validate(&self) -> Result<(), String> {
        for (i, b) in self.benchmarks.iter().enumerate() {
            if self.benchmarks[..i].iter().any(|o| o.id == b.id) {
                return Err(format!("duplicate benchmark id `{}`", b.id));
            }
        }
        for b in &self.benchmarks {
            if let Some(g) = &b.gate {
                if g.vs == b.id {
                    return Err(format!("`{}` gates against itself", b.id));
                }
                if self.find(&g.vs).is_none() {
                    return Err(format!(
                        "`{}` gates against unknown benchmark `{}`",
                        b.id, g.vs
                    ));
                }
                if !(g.max_ratio.is_finite() && g.max_ratio > 0.0) {
                    return Err(format!("`{}` has a non-positive gate ratio", b.id));
                }
            }
        }
        Ok(())
    }
}

fn parse_entry(e: &Json) -> Result<BenchDef, String> {
    let str_field = |key: &str| -> Result<String, String> {
        e.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("benchmark entry needs a string `{key}`: {}", e.render()))
    };
    let num_field = |key: &str| -> Result<u64, String> {
        e.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("benchmark entry needs a numeric `{key}`: {}", e.render()))
    };
    let id = str_field("id")?;
    let stage = str_field("stage")?;
    if workloads::workload(&stage).is_none() {
        return Err(format!("`{id}`: unknown stage `{stage}`"));
    }
    let iters = num_field("iters")? as usize;
    let quick_iters = num_field("quick_iters")? as usize;
    if iters == 0 || quick_iters == 0 {
        return Err(format!("`{id}`: iteration counts must be >= 1"));
    }
    let batch = match e.get("batch") {
        Some(v) => v
            .as_u64()
            .filter(|b| *b >= 1)
            .ok_or_else(|| format!("`{id}`: `batch` must be a positive integer"))?,
        None => 1,
    };
    let full_only = match e.get("full_only") {
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(format!("`{id}`: `full_only` must be a boolean")),
        None => false,
    };
    let max_ns = match e.get("max_ns") {
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| format!("`{id}`: `max_ns` must be an integer"))?,
        ),
        None => None,
    };
    let gate = match e.get("gate") {
        Some(g) => {
            let vs = g
                .get("vs")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("`{id}`: gate needs a string `vs`"))?;
            let max_ratio = g
                .get("max_ratio")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{id}`: gate needs a numeric `max_ratio`"))?;
            Some(Gate {
                vs: vs.to_string(),
                max_ratio,
            })
        }
        None => None,
    };
    Ok(BenchDef {
        id,
        suite: str_field("suite")?,
        stage,
        size: num_field("size")? as usize,
        threads: num_field("threads")? as usize,
        iters,
        quick_iters,
        batch,
        full_only,
        max_ns,
        gate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_is_valid_and_covers_every_subsystem() {
        let r = Registry::builtin();
        assert_eq!(r.schema, REGISTRY_SCHEMA);
        assert!(r.benchmarks.len() >= 15, "got {}", r.benchmarks.len());
        for suite in [
            "calibration",
            "clustering",
            "ga",
            "store",
            "trace",
            "fault",
            "pipeline",
            "snippet",
            "obs",
            "serve",
            "machine",
        ] {
            assert!(
                r.benchmarks.iter().any(|b| b.suite == suite),
                "no `{suite}` benchmarks in the built-in registry"
            );
        }
        // The folded gates survive the move into data: NN-chain ≥5×,
        // span ≤100 ns, disarmed probe ≤1 µs, traced pipeline ≤5%.
        let chain = r.find("clustering/linkage_nnchain/n1024/t1").unwrap();
        assert_eq!(chain.gate.as_ref().unwrap().max_ratio, 0.2);
        // The SIMD distance kernel's pin: the absolute bound on the
        // n1024 build (4.7 ms before the kernel layer).
        let d1 = r.find("clustering/distance/n1024/t1").unwrap();
        assert_eq!(d1.max_ns, Some(1_500_000));
        assert_eq!(r.find("trace/span/n1/t1").unwrap().max_ns, Some(200));
        assert_eq!(r.find("fault/probe/n1/t1").unwrap().max_ns, Some(1000));
        let traced = r.find("pipeline/reduce_traced/n10/t0").unwrap();
        assert_eq!(traced.gate.as_ref().unwrap().vs, "pipeline/reduce/n10/t0");
        // The observability gates: armed recorder ≤50 ns/event, full
        // armed pipeline still within 5% of the untraced baseline.
        assert_eq!(r.find("obs/flightrec_record/n1/t1").unwrap().max_ns, Some(50));
        assert!(r.find("obs/hist_record/n1/t1").unwrap().max_ns.is_some());
        let armed = r.find("pipeline/reduce_traced_armed/n10/t0").unwrap();
        let armed_gate = armed.gate.as_ref().unwrap();
        assert_eq!(armed_gate.vs, "pipeline/reduce/n10/t0");
        assert_eq!(armed_gate.max_ratio, 1.05);
        // Replaying a pack must cost within 5% of in-process execution.
        let replay = r.find("snippet/replay/n3/t1").unwrap();
        let gate = replay.gate.as_ref().unwrap();
        assert_eq!(gate.vs, "snippet/inproc/n3/t1");
        assert_eq!(gate.max_ratio, 1.05);
        // The serve rows are absolute: mean, p99 and wall per request at
        // 64 keep-alive connections, held by `bench cmp` alone.
        for id in [
            "serve/hot_event/n64/t4",
            "serve/p99_event/n64/t4",
            "serve/wall_event/n64/t4",
        ] {
            let row = r.find(id).unwrap();
            assert!(row.gate.is_none() && row.max_ns.is_none(), "{id}");
        }
    }

    #[test]
    fn rejects_malformed_registries() {
        for (bad, why) in [
            ("{", "not JSON"),
            (r#"{"schema":2,"benchmarks":[]}"#, "wrong schema"),
            (r#"{"benchmarks":[]}"#, "missing schema"),
            (r#"{"schema":1}"#, "missing benchmarks"),
            (
                r#"{"schema":1,"benchmarks":[{"id":"a","suite":"s","stage":"warp","size":1,"threads":1,"iters":1,"quick_iters":1}]}"#,
                "unknown stage",
            ),
            (
                r#"{"schema":1,"benchmarks":[{"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":0,"quick_iters":1}]}"#,
                "zero iters",
            ),
            (
                r#"{"schema":1,"benchmarks":[
                    {"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":1,"quick_iters":1},
                    {"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":1,"quick_iters":1}]}"#,
                "duplicate id",
            ),
            (
                r#"{"schema":1,"benchmarks":[{"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":1,"quick_iters":1,"gate":{"vs":"ghost","max_ratio":1.0}}]}"#,
                "dangling gate",
            ),
            (
                r#"{"schema":1,"benchmarks":[{"id":"a","suite":"s","stage":"calibrate","size":1,"threads":1,"iters":1,"quick_iters":1,"gate":{"vs":"a","max_ratio":1.0}}]}"#,
                "self gate",
            ),
        ] {
            assert!(Registry::parse(bad).is_err(), "should reject: {why}");
        }
    }
}
