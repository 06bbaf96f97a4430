//! Collected results of one run, printed as one JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median; the mean of the two middle values for an even count.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of `v` (a quarter
/// dropped from each end).  Repeated timings of one operation can fall
/// into two modes (the same decomposition on the same input took either
/// ~35 or ~60 ms on the measuring host, in proportions that changed from
/// run to run); a median jumps between the modes with those proportions,
/// while this mean moves with them smoothly and still ignores outliers.
pub fn interquartile_mean(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile, `q` in `(0, 1]`.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[derive(Default)]
pub struct Report {
    /// End-to-end metrics.
    metrics: BTreeMap<String, f64>,
    /// Per-layer metrics.
    infos: BTreeMap<String, f64>,
    checks: Vec<(String, bool)>,
    digests: BTreeMap<String, u64>,
    counts: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn info(&mut self, name: &str, value: f64) {
        self.infos.insert(name.to_string(), value);
    }

    pub fn info_value(&self, name: &str) -> f64 {
        self.infos.get(name).copied().unwrap_or(f64::NAN)
    }

    /// An output check; a failing one counts as a failed operation.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempt(1, u64::from(!ok));
        self.checks.push((name.to_string(), ok));
    }

    pub fn attempt(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn digest(&mut self, name: &str, value: u64) {
        self.digests.insert(name.to_string(), value);
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        fn map<V>(m: &BTreeMap<String, V>, f: impl Fn(&V) -> String) -> String {
            let items: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{}", f(v))).collect();
            format!("{{{}}}", items.join(","))
        }
        let mut out = String::new();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(n, ok)| format!("{{\"name\":\"{n}\",\"ok\":{ok}}}"))
            .collect();
        write!(
            out,
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{},\"layers\":{},\"checks\":[{}],\"digests\":{},\"counts\":{}}}",
            self.attempted,
            self.failed,
            map(&self.metrics, |v| num(*v)),
            map(&self.infos, |v| num(*v)),
            checks.join(","),
            map(&self.digests, |v| format!("\"{v:016x}\"")),
            map(&self.counts, |v| v.to_string()),
        )
        .expect("write to String");
        out
    }
}
