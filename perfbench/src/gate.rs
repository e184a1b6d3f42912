//! The regression gate over result sets, and its self-check.
//!
//! A result set is the last lines of several runs of one workload. The
//! gate flags an end-to-end metric when the newer set's median is worse
//! than the older set's median by more than the metric's bound (a share
//! of the older median), in the direction `BENCHMARK.json` gives.

use fgbs_trace::Json;

use crate::stats::median;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The workloads and end-to-end gates `BENCHMARK.json` declares.
pub fn load(path: &str) -> Result<(Vec<String>, Vec<Gate>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text)?;
    let workloads = json
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let gates = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end metrics")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("metric without {k}"));
            Ok(Gate {
                name: field("name")?.as_str().ok_or("name")?.to_string(),
                unit: field("unit")?.as_str().ok_or("unit")?.to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, gates))
}

/// Whether `new` regressed against `old` beyond the gate's bound.
pub fn regressed(gate: &Gate, old: &[f64], new: &[f64]) -> bool {
    let (o, n) = (median(old), median(new));
    if gate.lower_is_better {
        n > o * (1.0 + gate.bound)
    } else {
        n < o * (1.0 - gate.bound)
    }
}

/// `new` made worse than `old` by `factor` times the gate's bound.
fn slowed(gate: &Gate, old: &[f64], factor: f64) -> Vec<f64> {
    let worse = 1.0 + factor * gate.bound;
    old.iter()
        .map(|v| {
            if gate.lower_is_better {
                v * worse
            } else {
                v / worse
            }
        })
        .collect()
}

/// For every workload and end-to-end metric: identical samples pass,
/// a slowdown of half the bound passes, and a slowdown of 1.5 times the
/// bound is flagged. Returns the number of gates that misbehaved.
pub fn self_check(workloads: &[String], gates: &[Gate]) -> usize {
    // Ten runs' worth of samples with a few percent of spread.
    let base: Vec<f64> = (0..10)
        .map(|i| 100.0 * (1.0 + 0.004 * f64::from(i % 5) - 0.008))
        .collect();
    let mut bad = 0;
    for w in workloads {
        for g in gates {
            let same = regressed(g, &base, &base);
            let within = regressed(g, &base, &slowed(g, &base, 0.5));
            let beyond = regressed(g, &base, &slowed(g, &base, 1.5));
            let ok = !same && !within && beyond;
            println!(
                "{w:<14} {:<14} bound {:>5.2}: identical {}, +0.5 bound {}, +1.5 bound {} -> {}",
                g.name,
                g.bound,
                verdict(same),
                verdict(within),
                verdict(beyond),
                if ok { "ok" } else { "GATE BROKEN" }
            );
            bad += usize::from(!ok);
        }
    }
    bad
}

fn verdict(flagged: bool) -> &'static str {
    if flagged {
        "flagged"
    } else {
        "passed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_direction_can_fail() {
        let gates = [
            Gate {
                name: "t".into(),
                unit: "s".into(),
                lower_is_better: true,
                bound: 0.1,
            },
            Gate {
                name: "r".into(),
                unit: "1/s".into(),
                lower_is_better: false,
                bound: 0.25,
            },
        ];
        assert_eq!(self_check(&["w".to_string()], &gates), 0);
    }
}
