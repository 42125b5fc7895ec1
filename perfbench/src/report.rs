//! What a run reports: metrics, correctness accounting, and the three
//! renderings (human table, result document, final contract line).

use crate::stats::Metric;

/// Mismatch descriptions kept per run (all are counted).
const MAX_ERRORS: usize = 20;

#[derive(Default)]
pub struct Report {
    /// The metrics of the final line: every end-to-end metric
    /// untraced, every per-layer metric traced.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed and recorded beside them.
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn info(&mut self, m: Metric) {
        self.info.push(m);
    }

    /// Count a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .metrics
                .iter()
                .chain(&self.info)
                .all(|m| m.value.is_finite())
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One line per metric: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let fail = Metric::new("fail_frac", self.fail_frac(), "frac", self.attempted);
        for m in self.metrics.iter().chain(&self.info).chain([&fail]) {
            out.push_str(&format!(
                "{:<34} {:>16} {:<6} n={}\n",
                m.name,
                format!("{:.6e}", m.value),
                m.unit,
                m.samples
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("FAILED: {e}\n"));
        }
        out
    }

    /// The last stdout line: `correct`, `attempted`, `failed` and the
    /// metrics as `{name: {value, unit}}`.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The full result document written under `--out`.
    pub fn document(&self, header: &str) -> String {
        let list = |ms: &[Metric]| {
            ms.iter()
                .map(|m| {
                    format!(
                        "{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{}}}",
                        json_str(&m.name),
                        json_num(m.value),
                        json_str(m.unit),
                        m.samples
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{{header},\"attempted\":{},\"failed\":{},\"fail_frac\":{},\"metrics\":[{}],\"info\":[{}],\"errors\":[{}]}}\n",
            self.attempted,
            self.failed,
            json_num(self.fail_frac()),
            list(&self.metrics),
            list(&self.info),
            errors.join(",")
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest round-trip form; JSON has no NaN or infinity, so those
/// (which `correct` already rejects) print as null.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}
