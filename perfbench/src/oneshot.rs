//! The one-shot workloads: repeated cold `unweighted::solve` calls on a
//! single instance (`landmark-broadcast`, `hop-sweep`), each followed by
//! the same instance's rerouting batch on a fresh `SolverSession`.

use std::hint::black_box;
use std::time::Instant;

use congest::Metrics;
use graphkit::alg::replacement_lengths;
use graphkit::gen::grid_road;
use graphkit::Dist;
use rpaths_core::{unweighted, Instance, Params, Query, SessionStats, SolverSession};

use crate::batch::Batches;
use crate::calib::Calibrator;
use crate::layers::{self, SolveLog};
use crate::replay::{check_recomposition, replay};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// One instance solved cold again and again.
pub struct OneShot {
    /// `grid_road` rows, columns and chords; the seed picks the chords.
    pub rows: usize,
    pub cols: usize,
    pub chords: usize,
    /// Definition 5.2's sampling probability; ζ is always `n`.
    pub landmark_prob: f64,
    /// Set-ups timed together in one repetition, so that no timed
    /// interval is shorter than a few milliseconds.
    pub setup_inner: usize,
}

/// Lemma 5.4's `|L|²` broadcast dominates: every vertex is a landmark.
pub const LANDMARK_BROADCAST: OneShot = OneShot {
    rows: 12,
    cols: 12,
    chords: 12,
    landmark_prob: 1.0,
    setup_inner: 32,
};

/// Lemma 4.2's ζ-round hop BFS dominates: no landmarks, ζ = n.
pub const HOP_SWEEP: OneShot = OneShot {
    rows: 32,
    cols: 32,
    chords: 32,
    landmark_prob: 0.0,
    setup_inner: 1,
};

/// Fewest rounds per run, whatever `--seconds` says. A round is one
/// set-up repetition, one cold solve and one rerouting batch, so every
/// metric samples the whole run, not one stretch of it.
const MIN_ROUNDS: usize = 5;
/// Single-thread solves in the traced run.
const WIDTH1_SOLVES: usize = 2;

/// Runs the workload for about `seconds`.
///
/// # Errors
///
/// A broken benchmark invariant: the instance cannot be built, repeated
/// solves of one instance did different simulated work, a rerouting
/// batch did not run exactly one cold solve, or the traced replay no
/// longer recomposes the solver.
pub fn run(cfg: &OneShot, seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let generate = || grid_road(cfg.rows, cfg.cols, cfg.chords, seed);
    let (g, s, t) = generate();
    let inst = Instance::from_endpoints(&g, s, t).map_err(|e| format!("instance: {e:?}"))?;
    let n = g.node_count();
    let mut params = Params::with_zeta(n, n);
    params.landmark_prob = cfg.landmark_prob;
    // The rerouting desk's batch (as in `examples/transport_rerouting.rs`):
    // a closure query per edge of the route, plus the intact route.
    let reroute: Vec<Query> = inst
        .path
        .edges()
        .iter()
        .map(|&e| Query::avoiding(s, t, e))
        .chain(std::iter::once(Query::intact(s, t)))
        .collect();

    let mut cal = Calibrator::new();
    let mut setup = Vec::new();
    let mut setup_ref = Vec::new();
    let mut solve_ref = Vec::new();
    let mut log = SolveLog::default();
    let mut batches = Batches::default();
    let mut runs = SessionStats::default();
    let mut overhead_ms = Vec::new();
    let mut answers: Vec<Vec<Dist>> = Vec::new();
    let mut errored = 0;
    let mut first: Option<Metrics> = None;
    let start = Instant::now();
    while setup.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        // Set-up: graph generation plus `Instance::from_endpoints`.
        let ((), wall, ref_secs) = cal.time(|| {
            for _ in 0..cfg.setup_inner {
                tr.span("setup", |tr| {
                    let (g, s, t) = tr.span("graphkit.generate", |_| generate());
                    let inst = tr.span("graphkit.instance", |_| Instance::from_endpoints(&g, s, t));
                    black_box(inst.map(|i| i.hops()).ok());
                });
            }
        });
        setup.push(wall / cfg.setup_inner as f64);
        setup_ref.push(ref_secs / cfg.setup_inner as f64);

        // One cold solve; the traced run follows it with a replay.
        let (out, wall, ref_secs) = cal.time(|| black_box(unweighted::solve(&inst, &params)));
        match out {
            Err(_) => errored += 1,
            Ok(out) => {
                match &first {
                    None => first = Some(out.metrics.clone()),
                    Some(m) if *m != out.metrics => {
                        return Err("two solves of one instance did different simulated work".into())
                    }
                    Some(_) => {}
                }
                log.push(wall, &out.metrics);
                solve_ref.push(ref_secs);
                if tr.enabled() {
                    let replayed = replay(tr, &inst, &params);
                    check_recomposition(&replayed, &out)?;
                    log.push_counts(replayed.counts);
                }
                answers.push(out.replacement);
            }
        }

        // The rerouting batch on a fresh session: one cold solve, plus
        // the session's diameter, route and answer lookups.
        let mut session = SolverSession::new(&g, params.clone());
        let ms = batches.run(tr, &mut cal, &mut session, &reroute, 1, &mut report)?;
        overhead_ms.push(ms - wall * 1e3);
        layers::absorb_stats(&mut runs, session.stats());
    }

    // Oracle gate, outside the timed region.
    let want = tr.span("graphkit.oracle", |_| replacement_lengths(&g, &inst.path));
    for got in &answers {
        let wrong = got.iter().zip(&want).filter(|(a, b)| a != b).count();
        report.check(want.len(), wrong);
    }
    report.check(errored * want.len(), errored * want.len());

    let sim = first.unwrap_or_default();
    report.set("setup_s", median(&setup_ref));
    report.set("solve_s", median(&solve_ref));
    report.set("peak_rss_mb", crate::procfs::peak_rss_mb());
    report.set("sim_rounds", sim.total.rounds as f64);
    report.set("sim_messages", sim.total.messages as f64);
    report.samples("setup_wall_s", &setup);
    report.samples("solve_wall_s", log.walls());
    report.samples("setup_ref_s", &setup_ref);
    report.samples("solve_ref_s", &solve_ref);
    report.samples("calib_s", &cal.readings);
    batches.finish(&mut report);

    if tr.enabled() {
        let width1 = layers::width1_solves(&mut report, &params, &[(&inst, &want); WIDTH1_SOLVES]);
        layers::solver_layers(&mut report, tr, &log, &width1);
        layers::graphkit_layers(&mut report, tr);
        // A batch's overhead is its time beyond the one-shot solve of
        // the same round.
        let cold_ms: Vec<f64> = log.walls().iter().map(|w| w * 1e3).collect();
        layers::session_layers(&mut report, runs, &cold_ms, &overhead_ms);
    }
    Ok(report)
}
