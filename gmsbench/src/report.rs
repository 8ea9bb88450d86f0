//! The run's output: provenance, named metrics with units, and the final
//! JSON line.

use memlint::json_escape;

/// One named metric reading.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// A finite number as JSON (non-finite readings become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Where and on what a run was made.
pub fn provenance(
    seed: u64,
    workers: usize,
    backend: &str,
    pretouch: &str,
) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("seed".into(), format!("{seed:#x}")),
        ("git_sha".into(), git_sha().unwrap_or_else(|| "unknown".into())),
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), cpu_model().unwrap_or_else(|| "unknown".into())),
        ("workers".into(), workers.to_string()),
        ("heap_backend".into(), backend.into()),
        ("pretouch".into(), pretouch.into()),
    ]
}

/// The commit checked out in the working directory, if it is a git
/// checkout.
fn git_sha() -> Option<String> {
    let out = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(3, 0, &[Metric::new("a.b", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(rss_peak_mib() > 0.0);
    }
}
