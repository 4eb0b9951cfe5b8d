//! `unweighted::solve_on`, replayed phase by phase from public functions
//! so each layer's call gets its own span.
//!
//! The replay must stay the same computation as the library's solver:
//! [`check_recomposition`] compares its answers and its per-phase
//! `RunStats` log with a one-shot `unweighted::solve` of the same
//! instance, and the traced run fails when they differ. When the solver
//! changes, change this file with it.

use congest::bfs_tree::build_bfs_tree;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::{Metrics, Network};
use graphkit::Dist;
use rpaths_core::long::{dists, landmarks, segments};
use rpaths_core::short::{combine, hop_bfs};
use rpaths_core::{knowledge, Instance, Params, RPathsOutput};

use crate::trace::Tracer;

/// Name of the root span of one replayed solve.
pub const SOLVE: &str = "solve";

/// What the replay learned besides the answers.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    /// `|L|`, the sampled landmarks.
    pub landmarks: usize,
    /// Hop-bounded landmark pairs broadcast by Lemma 5.4.
    pub pair_items: usize,
}

/// One replayed solve: answers, the network's metrics, and counts.
pub struct Replayed {
    pub answers: Vec<Dist>,
    pub metrics: Metrics,
    pub counts: ReplayCounts,
}

/// Replays the Theorem 1 solver on a fresh network, one span per phase
/// under a root span named [`SOLVE`].
pub fn replay(tr: &mut Tracer, inst: &Instance<'_>, params: &Params) -> Replayed {
    let mut counts = ReplayCounts::default();
    let mut metrics = Metrics::default();
    let answers = tr.span(SOLVE, |tr| {
        let mut net = tr.span_peak("congest.network", |_| Network::new(inst.graph));
        let net = &mut net;
        let (tree, _) = tr.span_peak("congest.bfs_tree", |_| {
            build_bfs_tree(net, inst.s()).expect("benchmark graphs are connected")
        });
        let know = tr.span_peak("knowledge.acquire", |_| {
            knowledge::acquire(net, inst, params, &tree)
        });
        assert_eq!(know.dist_s, inst.prefix, "Lemma 2.5 prefix distances");

        // Proposition 4.1 (short detours).
        let zeta = params.zeta;
        let aux: Vec<u64> = (0..=inst.hops())
            .map(|j| inst.suffix[j].finite().expect("path distances are finite"))
            .collect();
        let cfg = hop_bfs::HopBfsConfig {
            zeta,
            objective: hop_bfs::Objective::MaxIndex,
            delays: None,
            aux: &aux,
        };
        let fstar = tr.span_peak("short.hop_bfs", |_| {
            hop_bfs::hop_constrained_bfs(net, inst, &cfg, "short/hop-bfs")
        });
        let x_ge = tr.span_peak("short.x_ge", |_| combine::x_ge_tables(inst, &fstar, zeta));
        let short_ans = tr.span_peak("short.pipeline_dp", |_| {
            combine::pipeline_dp(net, inst, &x_ge, zeta)
        });

        // Proposition 5.1 (long detours).
        let lm = tr.span_peak("long.landmarks", |_| landmarks::sample(inst, params));
        counts.landmarks = lm.len();
        let long_ans = if lm.is_empty() {
            vec![Dist::INF; inst.hops()]
        } else {
            let k = lm.len();
            let budget = default_budget(k, zeta as u64).max(8 * net.node_count() as u64)
                * params.budget_factor;
            let in_g_minus_p = |e| inst.in_g_minus_p(e);
            let bfs = |net: &mut Network<'_>, reverse: bool, phase: &str| {
                let cfg = MultiBfsConfig {
                    sources: &lm,
                    max_dist: zeta as u64,
                    reverse,
                    delays: None,
                };
                multi_source_bfs(net, &cfg, in_g_minus_p, phase, budget)
                    .expect("landmark BFS quiesces")
                    .0
            };
            let fwd = tr.span_peak("long.bfs_from_landmarks", |_| {
                bfs(net, false, "long/bfs-from-landmarks")
            });
            let bwd = tr.span_peak("long.bfs_to_landmarks", |_| {
                bfs(net, true, "long/bfs-to-landmarks")
            });
            counts.pair_items = fwd
                .iter()
                .map(|row| lm.iter().filter(|&&l| row[l].is_finite()).count())
                .sum();
            let ld = tr.span_peak("long.compose", |_| {
                dists::compose_from_tables(net, inst, &lm, fwd, bwd, &tree)
            });
            let m_table = tr.span_peak("long.segments_from_s", |_| {
                segments::distances_from_s(net, inst, params, &ld, &tree, &inst.prefix)
            });
            let n_table = tr.span_peak("long.segments_to_t", |_| {
                segments::distances_to_t(net, inst, params, &ld, &tree, &inst.suffix)
            });
            tr.span_peak("long.combine", |_| {
                (0..inst.hops())
                    .map(|i| {
                        (0..k)
                            .map(|j| m_table[i][j] + n_table[i][j])
                            .min()
                            .unwrap_or(Dist::INF)
                    })
                    .collect()
            })
        };
        let answers = tr.span_peak("core.merge", |_| {
            short_ans
                .into_iter()
                .zip(long_ans)
                .map(|(a, b)| a.min(b))
                .collect()
        });
        metrics = net.take_metrics();
        answers
    });
    Replayed {
        answers,
        metrics,
        counts,
    }
}

/// Checks that a replay recomposed the one-shot solve exactly: the same
/// answers bit for bit and the same per-phase `RunStats` log.
pub fn check_recomposition(replayed: &Replayed, one_shot: &RPathsOutput) -> Result<(), String> {
    if replayed.answers != one_shot.replacement {
        return Err("replayed answers differ from unweighted::solve".into());
    }
    if replayed.metrics.phases != one_shot.metrics.phases {
        let names = |m: &Metrics| m.phases.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
        return Err(format!(
            "replayed phase log {:?} differs from unweighted::solve's {:?}",
            names(&replayed.metrics),
            names(&one_shot.metrics)
        ));
    }
    Ok(())
}
