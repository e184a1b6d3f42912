//! The registry runner behind `fgbs bench`.
//!
//! Selects entries (substring `--filter`, `--quick` skips `full_only`
//! ones), executes each workload, and assembles one [`Record`] plus the
//! outcomes of every in-run perf gate. A ratio gate's rows — its `vs`
//! row and every row gated against it — take their samples interleaved
//! ([`interleave`]), so the gate compares rows measured over the same
//! stretch of host time. Each executed benchmark gets one `bench.case`
//! span carrying only deterministic arguments (id, sample count), so a
//! `--trace`d bench run keeps the repo's thread-invariant digest
//! contract.

use std::time::{SystemTime, UNIX_EPOCH};

use super::record::{BenchResult, EnvFingerprint, Record, RECORD_SCHEMA};
use super::registry::{BenchDef, Registry};
use super::workloads::{self, Sampler};

/// Run-time options for [`run_registry`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Use each entry's `quick_iters` and skip `full_only` entries.
    pub quick: bool,
    /// Substring filter over benchmark ids.
    pub filter: Option<String>,
    /// Effective worker threads for `threads: 0` entries (0 ⇒ 1).
    pub threads: usize,
}

/// The verdict of one declared perf gate.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Gated benchmark id.
    pub id: String,
    /// Human description of the bound.
    pub what: String,
    /// Whether the bound held (skipped gates count as passed).
    pub pass: bool,
    /// The gate was not evaluated: its `vs` entry was filtered out or
    /// is `full_only` in a quick run, or its row or `vs` row runs more
    /// threads than the host has cores.
    pub skipped: bool,
    /// Measured detail for the report.
    pub detail: String,
}

/// A completed run: the record plus its gate verdicts.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The measurement record (what `--out` writes).
    pub record: Record,
    /// One outcome per declared gate on an executed benchmark.
    pub gates: Vec<GateOutcome>,
}

impl RunOutput {
    /// Ids of gates whose bound failed.
    pub fn failed_gates(&self) -> Vec<&GateOutcome> {
        self.gates.iter().filter(|g| !g.pass).collect()
    }
}

/// Execute every selected registry entry and collect one record.
pub fn run_registry(reg: &Registry, opts: &RunOptions) -> Result<RunOutput, String> {
    let effective_threads = opts.threads.max(1);
    let selected: Vec<&BenchDef> = reg
        .benchmarks
        .iter()
        .filter(|b| !(opts.quick && b.full_only))
        .filter(|b| opts.filter.as_deref().is_none_or(|f| b.id.contains(f)))
        .collect();
    if selected.is_empty() {
        return Err(match &opts.filter {
            Some(f) => format!("no benchmark id contains `{f}`"),
            None => "the registry selected no benchmarks".to_string(),
        });
    }

    // One group per `vs` row of a selected gate, holding the rows gated
    // against it; every other row is a group of its own. A group is
    // measured when the runner reaches its first row.
    fn group<'a>(def: &'a BenchDef, selected: &[&BenchDef]) -> &'a str {
        match &def.gate {
            Some(g) if selected.iter().any(|d| d.id == g.vs) => &g.vs,
            _ => &def.id,
        }
    }
    let mut samples: Vec<Option<Vec<f64>>> = vec![None; selected.len()];
    for first in 0..selected.len() {
        if samples[first].is_some() {
            continue;
        }
        let key = group(selected[first], &selected);
        let members: Vec<usize> = (first..selected.len())
            .filter(|&i| group(selected[i], &selected) == key)
            .collect();
        let rows: Vec<&BenchDef> = members.iter().map(|&i| selected[i]).collect();
        let measured = measure_group(&rows, opts.quick, effective_threads)?;
        for (i, row) in members.into_iter().zip(measured) {
            samples[i] = Some(row);
        }
    }
    let benchmarks = selected
        .iter()
        .zip(samples)
        .map(|(def, s)| {
            let s = s.expect("every selected row belongs to a measured group");
            BenchResult::from_samples(def.id.clone(), def.batch, s)
        })
        .collect();

    let record = Record {
        schema: RECORD_SCHEMA,
        created_unix: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        mode: if opts.quick { "quick" } else { "full" }.to_string(),
        threads: effective_threads as u64,
        env: EnvFingerprint::capture(),
        benchmarks,
    };
    let gates = check_gates(&selected, &record);
    Ok(RunOutput { record, gates })
}

/// The order a group of rows takes its samples in, `wanted[row]` of
/// each: one sample of every row still short per turn, round-robin.
pub(crate) fn interleave(wanted: &[usize]) -> Vec<usize> {
    let turns = wanted.iter().copied().max().unwrap_or(0);
    (0..turns)
        .flat_map(|turn| (0..wanted.len()).filter(move |&row| turn < wanted[row]))
        .collect()
}

/// Take `rows`' samples in [`interleave`] order. A row's `bench.case`
/// span covers its setup and first sample; its later samples graft
/// their spans under it, as a pool worker's spans graft under the span
/// that submitted its work.
fn measure_group(rows: &[&BenchDef], quick: bool, threads: usize) -> Result<Vec<Vec<f64>>, String> {
    let wanted: Vec<usize> = rows.iter().map(|def| def.samples(quick)).collect();
    let mut out: Vec<Vec<f64>> = wanted.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut started: Vec<Option<(Sampler, Option<u64>)>> = rows.iter().map(|_| None).collect();
    for row in interleave(&wanted) {
        let sample = match &mut started[row] {
            Some((sampler, case)) => {
                let _parent = fgbs_trace::inherit_parent(*case);
                sampler()?
            }
            None => {
                let def = rows[row];
                let mut span = fgbs_trace::span("bench.case");
                span.arg_str("id", def.id.clone());
                span.arg_u64("samples", wanted[row] as u64);
                fgbs_trace::counter("bench.cases", 1);
                let mut sampler = workloads::prepare(def, threads)?;
                let first = sampler()?;
                started[row] = Some((sampler, fgbs_trace::current_span_id()));
                first
            }
        };
        out[row].push(sample);
    }
    Ok(out)
}

/// Evaluate the absolute (`max_ns`) and ratio (`gate`) bounds of every
/// executed entry against the freshly recorded medians. A gate whose
/// row, or `vs` row, runs more threads than the host has cores is
/// skipped: it would measure oversubscription, not the code.
fn check_gates(selected: &[&BenchDef], record: &Record) -> Vec<GateOutcome> {
    let oversubscribed = |id: &str| {
        let def = selected.iter().find(|d| d.id == id)?;
        // `t0` rows run on the runner's `--threads`.
        let threads = if def.threads == 0 {
            record.threads
        } else {
            def.threads as u64
        };
        (threads > record.env.ncpu).then(|| {
            format!(
                "skipped: `{id}` runs {threads} threads on a {}-core host",
                record.env.ncpu
            )
        })
    };
    let mut out = Vec::new();
    for def in selected {
        let mine = match record.find(&def.id) {
            Some(r) => r,
            None => continue,
        };
        let skipped = |what: String, detail: String| GateOutcome {
            id: def.id.clone(),
            what,
            pass: true,
            skipped: true,
            detail,
        };
        if let Some(max_ns) = def.max_ns {
            let what = format!("median <= {max_ns} ns/op");
            out.push(match oversubscribed(&def.id) {
                Some(why) => skipped(what, why),
                None => GateOutcome {
                    id: def.id.clone(),
                    what,
                    pass: mine.median_ns <= max_ns as f64,
                    skipped: false,
                    detail: format!("measured {:.1} ns/op", mine.median_ns),
                },
            });
        }
        if let Some(g) = &def.gate {
            let what = format!("median <= {} x `{}`", g.max_ratio, g.vs);
            let why = oversubscribed(&def.id).or_else(|| oversubscribed(&g.vs));
            out.push(match (record.find(&g.vs), why) {
                (_, Some(why)) => skipped(what, why),
                (Some(vs), None) if vs.median_ns > 0.0 => {
                    let ratio = mine.median_ns / vs.median_ns;
                    GateOutcome {
                        id: def.id.clone(),
                        what,
                        pass: ratio <= g.max_ratio,
                        skipped: false,
                        detail: format!("measured ratio {ratio:.3}"),
                    }
                }
                _ => skipped(
                    what,
                    format!("skipped: `{}` was not measured in this run", g.vs),
                ),
            });
        }
    }
    out
}

/// Human-readable run report: per-benchmark medians and gate verdicts.
pub fn render_report(out: &RunOutput) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let id_w = out
        .record
        .benchmarks
        .iter()
        .map(|b| b.id.len())
        .max()
        .unwrap_or(9)
        .max(9);
    let _ = writeln!(
        s,
        "{:<id_w$}  {:>5}  {:>12} {:>12} {:>12} {:>8}",
        "benchmark", "iters", "median", "min", "p95", "noise"
    );
    for b in &out.record.benchmarks {
        let _ = writeln!(
            s,
            "{:<id_w$}  {:>5}  {:>12} {:>12} {:>12} {:>7.1}%",
            b.id,
            b.iters,
            super::fmt_ns(b.median_ns),
            super::fmt_ns(b.min_ns),
            super::fmt_ns(b.p95_ns),
            b.noise_pct,
        );
    }
    if !out.gates.is_empty() {
        let _ = writeln!(s, "\ngates:");
        for g in &out.gates {
            let mark = if g.skipped {
                "SKIP"
            } else if g.pass {
                "ok"
            } else {
                "FAIL"
            };
            let _ = writeln!(s, "  [{mark:>4}] {}: {} ({})", g.id, g.what, g.detail);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barometer::registry::Registry;

    fn tiny_registry() -> Registry {
        Registry::parse(
            r#"{"schema":1,"benchmarks":[
                {"id":"calibration/spin/n4096/t1","suite":"calibration","stage":"calibrate",
                 "size":4096,"threads":1,"iters":5,"quick_iters":3,"batch":4},
                {"id":"fault/probe/n1/t1","suite":"fault","stage":"fault_probe",
                 "size":1,"threads":1,"iters":5,"quick_iters":3,"batch":512,"max_ns":1000},
                {"id":"slow/only/n1/t1","suite":"slow","stage":"calibrate",
                 "size":1,"threads":1,"iters":2,"quick_iters":1,"full_only":true,
                 "gate":{"vs":"calibration/spin/n4096/t1","max_ratio":1.0}}
            ]}"#,
        )
        .unwrap()
    }

    #[test]
    fn quick_run_skips_full_only_and_records_everything_else() {
        let out = run_registry(
            &tiny_registry(),
            &RunOptions {
                quick: true,
                filter: None,
                threads: 1,
            },
        )
        .unwrap();
        let ids: Vec<&str> = out.record.benchmarks.iter().map(|b| b.id.as_str()).collect();
        assert_eq!(ids, ["calibration/spin/n4096/t1", "fault/probe/n1/t1"]);
        assert_eq!(out.record.mode, "quick");
        assert!(out.record.benchmarks.iter().all(|b| b.iters == 3));
        assert!(out.record.created_unix > 0);
        // The probe gate was evaluated against real numbers.
        let probe = out.gates.iter().find(|g| g.id.contains("probe")).unwrap();
        assert!(!probe.skipped);
        let report = render_report(&out);
        assert!(report.contains("fault/probe"));
        assert!(report.contains("gates:"));
    }

    #[test]
    fn filter_selects_by_substring_and_rejects_no_match() {
        let out = run_registry(
            &tiny_registry(),
            &RunOptions {
                quick: true,
                filter: Some("calibration".into()),
                threads: 1,
            },
        )
        .unwrap();
        assert_eq!(out.record.benchmarks.len(), 1);
        assert!(run_registry(
            &tiny_registry(),
            &RunOptions {
                quick: true,
                filter: Some("nonexistent".into()),
                threads: 1,
            },
        )
        .is_err());
    }

    #[test]
    fn full_run_evaluates_ratio_gates_and_skips_unmeasured_vs() {
        // Full mode includes `slow/only`, whose gate target *is*
        // measured; filtering the target away must mark it skipped.
        let full = run_registry(
            &tiny_registry(),
            &RunOptions {
                quick: false,
                filter: None,
                threads: 1,
            },
        )
        .unwrap();
        let gate = full.gates.iter().find(|g| g.id == "slow/only/n1/t1").unwrap();
        assert!(!gate.skipped);

        let filtered = run_registry(
            &tiny_registry(),
            &RunOptions {
                quick: false,
                filter: Some("slow".into()),
                threads: 1,
            },
        )
        .unwrap();
        let gate = filtered.gates.iter().find(|g| g.id == "slow/only/n1/t1").unwrap();
        assert!(gate.skipped && gate.pass);
    }

    #[test]
    fn interleave_alternates_rows_one_sample_per_turn() {
        assert_eq!(interleave(&[3, 3]), [0, 1, 0, 1, 0, 1]);
        assert_eq!(interleave(&[2, 3, 3]), [0, 1, 2, 0, 1, 2, 1, 2]);
        assert_eq!(
            interleave(&[9, 5]),
            [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0]
        );
        assert_eq!(interleave(&[4]), [0, 0, 0, 0]);
        assert!(interleave(&[]).is_empty());
        // No row waits more than one turn while another samples.
        let order = interleave(&[5, 5, 5]);
        for w in order.windows(2) {
            assert_ne!(w[0], w[1], "{order:?}");
        }
    }

    #[test]
    fn a_gate_and_its_vs_row_are_measured_together_in_registry_order() {
        // The gated row is listed first and its `vs` row after an
        // unrelated row: the pair is still measured as one group, with
        // each row's own sample count, and the record keeps registry
        // order.
        let reg = Registry::parse(
            r#"{"schema":1,"benchmarks":[
                {"id":"fault/probe/n1/t1","suite":"fault","stage":"fault_probe",
                 "size":1,"threads":1,"iters":3,"quick_iters":3,"batch":64,
                 "gate":{"vs":"calibration/spin/n64/t1","max_ratio":1000000.0}},
                {"id":"obs/hist_record/n1/t1","suite":"obs","stage":"obs_hist_record",
                 "size":1,"threads":1,"iters":2,"quick_iters":2,"batch":64},
                {"id":"calibration/spin/n64/t1","suite":"calibration","stage":"calibrate",
                 "size":64,"threads":1,"iters":4,"quick_iters":4,"batch":4}
            ]}"#,
        )
        .unwrap();
        let out = run_registry(
            &reg,
            &RunOptions {
                quick: true,
                filter: None,
                threads: 1,
            },
        )
        .unwrap();
        let rows: Vec<(&str, u64)> = out
            .record
            .benchmarks
            .iter()
            .map(|b| (b.id.as_str(), b.iters))
            .collect();
        assert_eq!(
            rows,
            [
                ("fault/probe/n1/t1", 3),
                ("obs/hist_record/n1/t1", 2),
                ("calibration/spin/n64/t1", 4)
            ]
        );
        let gate = out
            .gates
            .iter()
            .find(|g| g.id == "fault/probe/n1/t1")
            .unwrap();
        assert!(!gate.skipped && gate.pass, "{gate:?}");
    }

    #[test]
    fn gates_on_oversubscribed_rows_are_skipped() {
        let over = EnvFingerprint::capture().ncpu + 1;
        // Both bounds are unreachable, so only a skip can pass them.
        let reg = Registry::parse(&format!(
            r#"{{"schema":1,"benchmarks":[
                {{"id":"fault/probe/n1/t{over}","suite":"fault","stage":"fault_probe",
                 "size":1,"threads":{over},"iters":3,"quick_iters":3,"batch":64,"max_ns":0}},
                {{"id":"fault/probe/n1/t1","suite":"fault","stage":"fault_probe",
                 "size":1,"threads":1,"iters":3,"quick_iters":3,"batch":64,"max_ns":1000000,
                 "gate":{{"vs":"fault/probe/n1/t{over}","max_ratio":0.000001}}}}
            ]}}"#
        ))
        .unwrap();
        let out = run_registry(
            &reg,
            &RunOptions {
                quick: true,
                filter: None,
                threads: 1,
            },
        )
        .unwrap();
        assert_eq!(out.record.benchmarks.len(), 2, "both rows are measured");
        assert!(out.failed_gates().is_empty(), "{:?}", out.gates);
        let over_id = format!("fault/probe/n1/t{over}");
        let max = out.gates.iter().find(|g| g.id == over_id).unwrap();
        assert!(max.skipped && max.detail.contains(&format!("runs {over} threads")));
        let t1: Vec<&GateOutcome> = out.gates.iter().filter(|g| g.id.ends_with("/t1")).collect();
        assert!(!t1[0].skipped, "the t1 row's own bound is evaluated");
        assert!(t1[1].skipped, "a ratio against an oversubscribed row is skipped");
        assert!(render_report(&out).contains("[SKIP]"));
    }
}
