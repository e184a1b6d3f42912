//! Sample statistics, output digests and the printed result.

use fgbs_trace::Json;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Smallest of `v`; 0 when empty.
pub fn min(v: &[f64]) -> f64 {
    quantile(v, 0.0)
}

/// Largest of `v`; 0 when empty.
pub fn max(v: &[f64]) -> f64 {
    quantile(v, 1.0)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// FNV-1a over everything fed in: the output digests the checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn absorb(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.absorb(b);
        // Length-terminate so adjacent fields cannot alias.
        self.u64(b.len() as u64)
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.absorb(&v.to_le_bytes());
        self
    }

    /// Floats digest by their exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 for exact counts).
    pub samples: usize,
}

/// The metrics of one run, in the order they are printed.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Human-readable lines, then the one-line JSON result.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for m in &self.metrics {
            println!(
                "{:<34} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        );
        let result = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::U64(attempted)),
            ("failed", Json::U64(failed)),
            ("metrics", metrics),
        ]);
        println!("{}", result.render());
    }
}

/// Success and failure tallies plus the output check's verdict.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    /// Count one operation whose output digest must equal `expected`.
    pub fn check(&mut self, what: &str, got: &str, expected: &str) {
        if got == expected {
            self.ok();
        } else {
            self.fail(format!("{what}: digest {got}, expected {expected}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_separates_fields() {
        let a = Digest::default().str("ab").str("c").hex();
        let b = Digest::default().str("a").str("bc").hex();
        assert_ne!(a, b);
    }
}
