//! Named metrics with units: the human listing on stderr, the JSON result
//! line, and the per-run row appended under `adbench/out/`.

use std::io::Write;
use std::path::Path;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// The end-to-end and per-layer metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_obj(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl Metrics {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push(Metric { name, value, unit });
    }

    /// A value of either set recorded earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Print every metric by name with its unit on stderr.
    pub fn print(&self, header: &str) {
        eprintln!("{header}");
        for (title, ms) in [("end-to-end", &self.e2e), ("per-layer", &self.layer)] {
            if ms.is_empty() {
                continue;
            }
            eprintln!("  {title}:");
            for m in ms {
                eprintln!("    {:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
    }

    /// Are all reported values finite numbers?
    pub fn all_finite(&self, trace: bool) -> bool {
        let ms = if trace { &self.layer } else { &self.e2e };
        ms.iter().all(|m| m.value.is_finite())
    }

    /// The result line: end-to-end metrics without tracing, per-layer
    /// metrics with it.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64, trace: bool) -> String {
        let ms = if trace { &self.layer } else { &self.e2e };
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            json_obj(ms)
        )
    }

    /// Append this run's full row (both metric sets) to
    /// `out_dir/runs.jsonl`. Best effort: a failed write only warns.
    pub fn append_row(
        &self,
        out_dir: &Path,
        workload: &str,
        seed: u64,
        trace: bool,
        correct: bool,
    ) {
        let row = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"correct\": {correct}, \"end_to_end\": {}, \"per_layer\": {}}}\n",
            json_obj(&self.e2e),
            json_obj(&self.layer)
        );
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir.join("runs.jsonl"))
            .and_then(|mut f| f.write_all(row.as_bytes()));
        if let Err(e) = written {
            eprintln!("warning: could not append the run row: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_the_selected_set() {
        let mut m = Metrics::default();
        m.e2e("setup_s", 0.5, "s");
        m.layer("core.prune_ratio", 0.0, "ratio");
        let plain = m.result_json(true, 10, 1, false);
        assert_eq!(
            plain,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let traced = m.result_json(true, 10, 1, true);
        assert!(traced.contains("core.prune_ratio") && !traced.contains("setup_s"));
        assert_eq!(m.get("setup_s"), Some(0.5));
    }
}
