//! The metric names this benchmark reports, and the result line.

use std::fmt::Write as _;

use crate::stats::quantile;

/// End-to-end metrics (untraced run): name and unit. `BENCHMARK.json`
/// lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_rounds", "rounds"),
    ("sim_messages", "messages"),
    ("correct_frac", "frac"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("long.landmarks", "count"),
    ("long.pair_items", "count"),
    ("long.bfs_landmarks_s", "s"),
    ("long.compose_s", "s"),
    ("long.compose_peak_mb", "MB"),
    ("long.broadcast_messages", "count"),
    ("long.segments_s", "s"),
    ("short.hop_bfs_s", "s"),
    ("short.hop_bfs_messages", "count"),
    ("short.x_ge_s", "s"),
    ("short.pipeline_dp_s", "s"),
    ("congest.bfs_tree_s", "s"),
    ("congest.floor_rounds", "count"),
    ("congest.seq_rounds", "count"),
    ("congest.par_rounds", "count"),
    ("congest.ns_per_message", "ns"),
    ("congest.width1_solve_s", "s"),
    ("knowledge.acquire_s", "s"),
    ("knowledge.messages", "count"),
    ("session.solver_runs", "count"),
    ("session.cold_solve_ms", "ms"),
    ("session.overhead_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("graphkit.generate_s", "s"),
    ("graphkit.instance_s", "s"),
    ("graphkit.oracle_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.attributed_frac", "frac"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Answers checked against the oracles.
    pub attempted: u64,
    /// Answers that were wrong or errored.
    pub failed: u64,
    /// Count and quantiles of each timed sample set, and ungated
    /// context such as throughput (for the run stamp).
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    /// Records metric `name`; the unit comes from the tables above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Looks up a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Notes the count, p10, median, p75 and p90 of a timed sample set
    /// in the run stamp.
    pub fn samples(&mut self, name: &'static str, xs: &[f64]) {
        let summary = format!(
            "{{\"n\": {}, \"p10\": {}, \"p50\": {}, \"p75\": {}, \"p90\": {}}}",
            xs.len(),
            quantile(xs, 0.1),
            quantile(xs, 0.5),
            quantile(xs, 0.75),
            quantile(xs, 0.9)
        );
        self.context.push((name, summary));
    }

    /// Counts `checked` answers of which `wrong` failed.
    pub fn check(&mut self, checked: usize, wrong: usize) {
        self.attempted += checked as u64;
        self.failed += wrong as u64;
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of `table`.
    ///
    /// # Errors
    ///
    /// Names a metric of `table` that the run did not record, or one
    /// whose value is not a finite number.
    pub fn result_line(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not recorded"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }
}
