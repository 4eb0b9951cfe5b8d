//! Per-layer metrics of the traced run, assembled from spans and from
//! the counters the library already reports.

use std::time::Instant;

use congest::{Metrics, Network};
use graphkit::Dist;
use rpaths_core::{unweighted, Instance, Params, SessionStats};

use crate::replay::{ReplayCounts, SOLVE};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Per cold solve: the untraced wall time and the engine's counters.
#[derive(Debug, Default)]
pub struct SolveLog {
    walls: Vec<f64>,
    messages: Vec<f64>,
    hop_bfs_messages: Vec<f64>,
    broadcast_messages: Vec<f64>,
    knowledge_messages: Vec<f64>,
    floor_rounds: Vec<f64>,
    seq_rounds: Vec<f64>,
    par_rounds: Vec<f64>,
    landmarks: Vec<f64>,
    pair_items: Vec<f64>,
}

impl SolveLog {
    /// Logs one untraced cold solve.
    pub fn push(&mut self, wall: f64, m: &Metrics) {
        let msgs = |needle: &str| m.phase_total(needle).messages as f64;
        self.walls.push(wall);
        self.messages.push(m.total.messages as f64);
        self.hop_bfs_messages.push(msgs("short/hop-bfs"));
        self.broadcast_messages
            .push(msgs("long/broadcast-landmark-pairs"));
        self.knowledge_messages.push(msgs("lemma2.5/"));
        self.floor_rounds.push(m.dispatch.floor_rounds as f64);
        self.seq_rounds.push(m.dispatch.seq_rounds as f64);
        self.par_rounds.push(m.dispatch.par_rounds as f64);
    }

    /// Logs what a traced replay counted.
    pub fn push_counts(&mut self, c: ReplayCounts) {
        self.landmarks.push(c.landmarks as f64);
        self.pair_items.push(c.pair_items as f64);
    }

    /// Untraced cold-solve wall times (s).
    pub fn walls(&self) -> &[f64] {
        &self.walls
    }
}

/// The solver layers (`long`, `short`, `congest`, `knowledge`) and the
/// tracing cost, from the traced replays and the untraced solves.
pub fn solver_layers(r: &mut Report, tr: &Tracer, log: &SolveLog, width1: &[f64]) {
    let phase = |names: &[&str]| median(&tr.per_request(SOLVE, names));
    r.set("long.landmarks", median(&log.landmarks));
    r.set("long.pair_items", median(&log.pair_items));
    r.set(
        "long.bfs_landmarks_s",
        phase(&["long.bfs_from_landmarks", "long.bfs_to_landmarks"]),
    );
    r.set("long.compose_s", phase(&["long.compose"]));
    r.set("long.compose_peak_mb", median(&tr.peaks("long.compose")));
    r.set("long.broadcast_messages", median(&log.broadcast_messages));
    r.set(
        "long.segments_s",
        phase(&["long.segments_from_s", "long.segments_to_t"]),
    );
    r.set("short.hop_bfs_s", phase(&["short.hop_bfs"]));
    r.set("short.hop_bfs_messages", median(&log.hop_bfs_messages));
    r.set("short.x_ge_s", phase(&["short.x_ge"]));
    r.set("short.pipeline_dp_s", phase(&["short.pipeline_dp"]));
    r.set("congest.bfs_tree_s", phase(&["congest.bfs_tree"]));
    r.set("congest.floor_rounds", median(&log.floor_rounds));
    r.set("congest.seq_rounds", median(&log.seq_rounds));
    r.set("congest.par_rounds", median(&log.par_rounds));
    let untraced = median(&log.walls);
    r.set(
        "congest.ns_per_message",
        untraced / median(&log.messages) * 1e9,
    );
    r.set("congest.width1_solve_s", median(width1));
    r.set("knowledge.acquire_s", phase(&["knowledge.acquire"]));
    r.set("knowledge.messages", median(&log.knowledge_messages));
    // Each replay directly follows its untraced solve, so the ratios are
    // taken pair by pair: the host's speed drifts less within a pair
    // than across the run.
    let paired = |traced: Vec<f64>| {
        let ratios: Vec<f64> = traced.iter().zip(&log.walls).map(|(t, u)| t / u).collect();
        median(&ratios)
    };
    r.set("trace.overhead_frac", paired(tr.root_secs(SOLVE)) - 1.0);
    r.set("trace.attributed_frac", paired(tr.attributed(SOLVE)));
}

/// Solves each `(instance, oracle answers)` case again at engine width
/// 1, the single-thread baseline; checks the answers and returns the
/// wall times.
pub fn width1_solves(
    r: &mut Report,
    params: &Params,
    cases: &[(&Instance<'_>, &Vec<Dist>)],
) -> Vec<f64> {
    cases
        .iter()
        .map(|&(inst, want)| {
            let mut net = Network::new(inst.graph);
            net.set_threads(1);
            let t0 = Instant::now();
            let got = unweighted::solve_on(&mut net, inst, params);
            let wall = t0.elapsed().as_secs_f64();
            let wrong = got.map_or(want.len(), |a| {
                a.iter().zip(want).filter(|(x, y)| x != y).count()
            });
            r.check(want.len(), wrong);
            wall
        })
        .collect()
}

/// The session and cache layers over the timed batches: `runs` is the
/// session's counters across them; `cold_solve_ms` the cold solves a
/// batch runs, and `overhead_ms` a batch's time beyond them.
pub fn session_layers(
    r: &mut Report,
    runs: SessionStats,
    cold_solve_ms: &[f64],
    overhead_ms: &[f64],
) {
    r.set("session.solver_runs", runs.solver_runs as f64);
    r.set("session.cold_solve_ms", median(cold_solve_ms));
    r.set("session.overhead_ms", median(overhead_ms));
    r.set("cache.hits", runs.cache.hits as f64);
    r.set("cache.misses", runs.cache.misses as f64);
    r.set("cache.evictions", runs.cache.evictions as f64);
}

/// The `graphkit` layer: input generation, instance building (path plus
/// diameter) and the centralized oracles.
pub fn graphkit_layers(r: &mut Report, tr: &Tracer) {
    r.set(
        "graphkit.generate_s",
        median(&tr.secs_of("graphkit.generate")),
    );
    r.set(
        "graphkit.instance_s",
        median(&tr.secs_of("graphkit.instance")),
    );
    r.set(
        "graphkit.oracle_s",
        tr.secs_of("graphkit.oracle").iter().sum(),
    );
}

/// Adds one session's counters to `total`.
pub fn absorb_stats(total: &mut SessionStats, s: SessionStats) {
    total.queries += s.queries;
    total.batches += s.batches;
    total.solver_runs += s.solver_runs;
    total.cache.absorb(&s.cache);
}

/// Session counters accumulated between `before` and `after`.
pub fn stats_delta(before: SessionStats, after: SessionStats) -> SessionStats {
    SessionStats {
        queries: after.queries - before.queries,
        batches: after.batches - before.batches,
        solver_runs: after.solver_runs - before.solver_runs,
        cache: after.cache.delta_since(&before.cache),
    }
}
