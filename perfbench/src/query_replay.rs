//! The `query-replay` workload: one client, closed loop, asking failed-
//! edge batches of one `SolverSession` under a fixed reuse schedule.
//!
//! Pairs are a seeded permutation of all ordered `(s, t)` pairs. Batch
//! `b` asks pair `b` (new), pairs `b-1 ..= b-RECENT` (cached) and, once
//! `b ≥ LAG`, pair `b-LAG` (evicted long ago by the 128-entry LRU). Each
//! pair contributes a query per path edge, `RANDOM_AVOIDS` random-edge
//! avoids and one intact query. After the `LAG` warm-up batches every
//! batch runs the same number of cold solves (two), so the seed changes
//! which pairs are asked, never how much engine work a batch takes.

use std::hint::black_box;
use std::time::Instant;

use congest::Metrics;
use graphkit::alg::{replacement_lengths, shortest_st_path};
use graphkit::gen::grid_road;
use graphkit::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rpaths_core::{unweighted, Instance, Params, Query, SolverSession};

use crate::batch::Batches;
use crate::calib::Calibrator;
use crate::layers::{self, SolveLog};
use crate::replay::{check_recomposition, replay};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// `grid_road` shape; the seed picks the chords.
const ROWS: usize = 8;
const COLS: usize = 8;
const CHORDS: usize = 8;
/// Recently asked pairs repeated in every batch.
const RECENT: usize = 6;
/// Age of the evicted pair asked again; also the warm-up batch count.
const LAG: usize = 72;
/// Random-edge avoids per pair.
const RANDOM_AVOIDS: usize = 4;
/// Set-up repetitions (graph, session and warm-up); median reported.
/// They are spread evenly over the run, so all metrics sample the
/// whole run.
const SETUP_REPS: usize = 11;
/// Warm-up batches timed together in a set-up repetition.
const WARMUP_CHUNK: usize = 8;
/// Timed batches per round; each round also makes one one-shot solve.
const ROUND_BATCHES: usize = 8;
/// Pairs at the end of the permutation that no batch asks, solved
/// one-shot in turn, one per round.
const FIXED_PAIRS: usize = 8;
/// Fewest rounds per run, whatever `--seconds` says: enough for p90 to
/// have ten batches beyond it. Runs end on a multiple of
/// [`FIXED_PAIRS`] rounds, so every fixed pair is solved equally often.
const MIN_ROUNDS: usize = 2 * FIXED_PAIRS;
/// Timed batches whose simulated work is reported (a fixed prefix, so
/// the count does not depend on how many batches fit in the run).
const SIM_BATCHES: usize = 100;
/// Single-thread solves in the traced run.
const WIDTH1_SOLVES: usize = 5;

/// The client's side: which pairs each batch asks, and their queries.
struct Schedule {
    pairs: Vec<(NodeId, NodeId)>,
    queries: Vec<Option<Vec<Query>>>,
    seed: u64,
}

impl Schedule {
    fn new(g: &DiGraph, seed: u64) -> Schedule {
        let n = g.node_count();
        let mut pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t)))
            .collect();
        pairs.shuffle(&mut StdRng::seed_from_u64(seed));
        let queries = vec![None; pairs.len()];
        Schedule {
            pairs,
            queries,
            seed,
        }
    }

    /// Pair indices asked by batch `b`.
    fn batch_pairs(b: usize) -> impl Iterator<Item = usize> {
        let recent = (b.saturating_sub(RECENT)..b).rev();
        let old = b.checked_sub(LAG);
        std::iter::once(b).chain(recent).chain(old)
    }

    /// The queries of pair `i`, drawn from `seed` and `i` alone.
    fn pair_queries(&mut self, g: &DiGraph, i: usize) -> &[Query] {
        let (s, t) = self.pairs[i];
        let seed = self.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.queries[i].get_or_insert_with(|| {
            let path = shortest_st_path(g, s, t).expect("grid_road is strongly connected");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut qs: Vec<Query> = path
                .edges()
                .iter()
                .map(|&e| Query::avoiding(s, t, e))
                .collect();
            qs.extend(
                (0..RANDOM_AVOIDS).map(|_| Query::avoiding(s, t, rng.gen_range(0..g.edge_count()))),
            );
            qs.push(Query::intact(s, t));
            qs
        })
    }

    fn batch(&mut self, g: &DiGraph, b: usize) -> Vec<Query> {
        Schedule::batch_pairs(b)
            .flat_map(|i| self.pair_queries(g, i).to_vec())
            .collect()
    }
}

/// One set-up repetition: the graph, and a session over it whose cache
/// the warm-up batches fill. Each step is timed next to the calibration
/// kernel, so a set-up of a few seconds is calibrated piece by piece.
/// Returns the set-up's wall and reference times (s).
fn set_up(
    tr: &mut Tracer,
    cal: &mut Calibrator,
    seed: u64,
    params: &Params,
    warmup: &[Vec<Query>],
) -> Result<(f64, f64), String> {
    let (g, mut wall, mut ref_secs) = cal.time(|| {
        tr.span("graphkit.generate", |_| {
            grid_road(ROWS, COLS, CHORDS, seed).0
        })
    });
    let (mut session, w, r) =
        cal.time(|| tr.span("session.new", |_| SolverSession::new(&g, params.clone())));
    (wall, ref_secs) = (wall + w, ref_secs + r);
    for chunk in warmup.chunks(WARMUP_CHUNK) {
        let (got, w, r) = cal.time(|| {
            chunk.iter().try_for_each(|batch| {
                tr.span("session.warmup", |_| session.solve_batch(batch).map(drop))
            })
        });
        got.map_err(|e| format!("warm-up batch failed: {e}"))?;
        (wall, ref_secs) = (wall + w, ref_secs + r);
    }
    black_box(session.stats());
    Ok((wall, ref_secs))
}

/// Runs the workload: about `seconds` of rounds, each of
/// [`ROUND_BATCHES`] timed batches and one one-shot cold solve of a
/// fixed pair no batch asks, with the set-up repeated in between.
///
/// # Errors
///
/// A broken benchmark invariant: a timed batch did not run exactly two
/// cold solves, repeated solves of one fixed pair did different
/// simulated work, the traced replay no longer recomposes the solver,
/// or the schedule ran out of pairs.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    // The graph the client draws its schedule from and the timed
    // session serves; set-up repetitions build their own.
    let g = grid_road(ROWS, COLS, CHORDS, seed).0;
    let mut sched = Schedule::new(&g, seed);
    let warmup: Vec<Vec<Query>> = (0..LAG).map(|b| sched.batch(&g, b)).collect();
    let params = Params::for_n(g.node_count());

    let mut cal = Calibrator::new();
    let (mut setup, mut setup_ref) = (Vec::new(), Vec::new());
    let mut session = SolverSession::new(&g, params.clone());
    for batch in &warmup {
        session
            .solve_batch(batch)
            .map_err(|e| format!("warm-up batch failed: {e}"))?;
    }
    session.take_metrics();

    // The fixed one-shot pairs and their oracle answers.
    let fixed_from = sched.pairs.len() - FIXED_PAIRS;
    let mut fixed = Vec::with_capacity(FIXED_PAIRS);
    for &(s, t) in &sched.pairs[fixed_from..] {
        let inst = tr
            .span("graphkit.instance", |_| Instance::from_endpoints(&g, s, t))
            .map_err(|e| format!("instance: {e:?}"))?;
        let want = tr.span("graphkit.oracle", |_| replacement_lengths(&g, &inst.path));
        fixed.push((inst, want));
    }
    let mut first: Vec<Option<Metrics>> = vec![None; FIXED_PAIRS];

    let before = session.stats();
    let mut batches = Batches::default();
    let (mut rounds, mut messages) = (0u64, 0u64);
    let mut log = SolveLog::default();
    let mut solve_ref = Vec::new();
    let (mut cold_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let mut b = LAG;
    let start = Instant::now();
    for round in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if round >= MIN_ROUNDS
            && round % FIXED_PAIRS == 0
            && elapsed >= seconds
            && setup.len() == SETUP_REPS
        {
            break;
        }
        if setup.len() < SETUP_REPS && elapsed >= setup.len() as f64 * seconds / SETUP_REPS as f64 {
            let (wall, ref_secs) = set_up(tr, &mut cal, seed, &params, &warmup)?;
            setup.push(wall);
            setup_ref.push(ref_secs);
        }

        // Timed batches.
        for _ in 0..ROUND_BATCHES {
            if b >= fixed_from {
                return Err("the schedule ran out of pairs".into());
            }
            let batch = sched.batch(&g, b);
            let ms = batches.run(tr, &mut cal, &mut session, &batch, 2, &mut report)?;
            if tr.enabled() {
                // Solve the batch's two cold pairs again, one-shot and
                // right away, so its overhead is measured against solves
                // taken in the same host state.
                let mut solves_ms = 0.0;
                for i in [b, b - LAG] {
                    let (s, t) = sched.pairs[i];
                    let inst = Instance::from_endpoints(&g, s, t)
                        .map_err(|e| format!("instance: {e:?}"))?;
                    let t0 = Instant::now();
                    black_box(unweighted::solve(&inst, &params).ok());
                    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
                    cold_ms.push(solve_ms);
                    solves_ms += solve_ms;
                }
                overhead_ms.push(ms - solves_ms);
            }
            b += 1;
            let sim = session.take_metrics();
            if batches.ms.len() <= SIM_BATCHES {
                rounds += sim.total.rounds;
                messages += sim.total.messages;
            }
        }

        // One one-shot cold solve of the next fixed pair.
        let i = round % FIXED_PAIRS;
        let (inst, want) = &fixed[i];
        let (out, wall, ref_secs) = cal.time(|| black_box(unweighted::solve(inst, &params)));
        let Ok(out) = out else {
            report.check(want.len(), want.len());
            continue;
        };
        match &first[i] {
            None => first[i] = Some(out.metrics.clone()),
            Some(m) if *m != out.metrics => {
                return Err("two solves of one instance did different simulated work".into())
            }
            Some(_) => {}
        }
        log.push(wall, &out.metrics);
        solve_ref.push(ref_secs);
        let wrong = out
            .replacement
            .iter()
            .zip(want)
            .filter(|(x, y)| x != y)
            .count();
        report.check(want.len(), wrong);
        if tr.enabled() {
            let replayed = replay(tr, inst, &params);
            check_recomposition(&replayed, &out)?;
            log.push_counts(replayed.counts);
        }
    }
    let runs = layers::stats_delta(before, session.stats());

    report.set("setup_s", median(&setup_ref));
    report.set("solve_s", median(&solve_ref));
    report.set("peak_rss_mb", crate::procfs::peak_rss_mb());
    report.set("sim_rounds", rounds as f64 / SIM_BATCHES as f64);
    report.set("sim_messages", messages as f64 / SIM_BATCHES as f64);
    report.samples("setup_wall_s", &setup);
    report.samples("solve_wall_s", log.walls());
    report.samples("setup_ref_s", &setup_ref);
    report.samples("solve_ref_s", &solve_ref);
    report.samples("calib_s", &cal.readings);
    batches.finish(&mut report);

    if tr.enabled() {
        let cases: Vec<_> = fixed[..WIDTH1_SOLVES]
            .iter()
            .map(|(inst, want)| (inst, want))
            .collect();
        let width1 = layers::width1_solves(&mut report, &params, &cases);
        layers::solver_layers(&mut report, tr, &log, &width1);
        layers::graphkit_layers(&mut report, tr);
        layers::session_layers(&mut report, runs, &cold_ms, &overhead_ms);
    }
    Ok(report)
}
