//! Timed `solve_batch` calls, each checked against the oracles.

use rpaths_core::oracle::check_answer;
use rpaths_core::{Query, SolverSession};

use crate::calib::Calibrator;
use crate::report::Report;
use crate::stats::quantile;
use crate::trace::Tracer;

/// The timed batches of one run.
#[derive(Debug, Default)]
pub struct Batches {
    /// Wall time of each batch (ms).
    pub ms: Vec<f64>,
    /// The same in reference milliseconds (see [`crate::calib`]).
    pub ref_ms: Vec<f64>,
    queries: usize,
}

impl Batches {
    /// Times `session.solve_batch(batch)` next to the calibration
    /// kernel, checks every answer against the oracles outside the timed
    /// region, and returns the batch's wall time (ms).
    ///
    /// # Errors
    ///
    /// The batch ran a number of cold solves other than `cold`: the
    /// workload no longer does the same engine work in every batch.
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        cal: &mut Calibrator,
        session: &mut SolverSession<'_>,
        batch: &[Query],
        cold: u64,
        report: &mut Report,
    ) -> Result<f64, String> {
        let ran_before = session.stats().solver_runs;
        let (got, wall, ref_secs) = cal.time(|| tr.span("batch", |_| session.solve_batch(batch)));
        let ms = wall * 1e3;
        self.ms.push(ms);
        self.ref_ms.push(ref_secs * 1e3);
        self.queries += batch.len();
        let g = session.graph();
        let wrong = match got {
            Ok(answers) => batch
                .iter()
                .zip(&answers)
                .enumerate()
                .filter(|(i, (q, a))| check_answer(g, q, a, 0, 1, *i).is_err())
                .count(),
            Err(_) => batch.len(),
        };
        report.check(batch.len(), wrong);
        let ran = session.stats().solver_runs - ran_before;
        if ran != cold {
            return Err(format!(
                "a timed batch ran {ran} cold solves instead of {cold}"
            ));
        }
        Ok(ms)
    }

    /// Records the batch latencies, and the throughput in the stamp.
    pub fn finish(&self, report: &mut Report) {
        let total_s: f64 = self.ms.iter().sum::<f64>() / 1e3;
        report.set("batch_p50_ms", quantile(&self.ref_ms, 0.5));
        report.set("batch_p90_ms", quantile(&self.ref_ms, 0.9));
        report.samples("batch_wall_ms", &self.ms);
        report.samples("batch_ref_ms", &self.ref_ms);
        let qps = self.queries as f64 / total_s;
        report.context.push(("queries_per_s", qps.to_string()));
    }
}
