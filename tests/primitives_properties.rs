//! Property-based tests for the `congest` communication primitives:
//! whatever the topology, the primitives must deliver exactly the right
//! data within their claimed round bounds.

use congest::aggregate::{aggregate, AggOp};
use congest::bfs_tree::build_bfs_tree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::pipeline::{diagonal_dp, prefix_sweep, Lane};
use congest::{FaultPlan, Metrics, Network, NodeCtx, RunStats, Scheduling, ShardedProtocol};
use graphkit::alg::bfs_hop_bounded;
use graphkit::gen::random_digraph;
use graphkit::{DiGraph, Dist, GraphBuilder};
use proptest::prelude::*;

/// The recorder's send rule: does `node` send on port `port` in `round`?
fn rec_fires(seed: u64, node: usize, round: u64, port: usize) -> bool {
    (node as u64 * 31 + round * 17 + port as u64 * 7 + seed).is_multiple_of(3)
}

/// The payload of the recorder's send by `node` on `port` in `round`.
fn rec_payload(node: usize, round: u64, port: usize) -> u64 {
    ((node as u64) << 32) | (round << 16) | port as u64
}

/// The per-node inbox logs a correct CONGEST engine must hand the
/// recorder, derived from its send rule alone: a message sent by `v` on
/// port `p` in round `r` arrives in round `r + 1` at the port's peer, on
/// the peer's port for that link, and each inbox lists its messages by
/// ascending sender, then ascending sender port. Only the port tables
/// are read from the network.
fn model_recorder_logs(g: &DiGraph, seed: u64, send_rounds: u64) -> Vec<Vec<(u64, u32, u64)>> {
    let net = Network::new(g);
    let mut logs = vec![Vec::new(); g.node_count()];
    // Rounds, senders and ports ascending: appending in this order
    // yields every inbox in the required order.
    for r in 0..send_rounds {
        for v in 0..g.node_count() {
            for (p, port) in net.ports(v).iter().enumerate() {
                if !rec_fires(seed, v, r, p) {
                    continue;
                }
                let back = net
                    .ports(port.peer)
                    .iter()
                    .position(|q| q.link == port.link && q.outgoing != port.outgoing)
                    .expect("every link has a port at both ends");
                logs[port.peer].push((r + 1, back as u32, rec_payload(v, r, p)));
            }
        }
    }
    logs
}

/// A traffic generator that records exactly what the engine delivers:
/// every node sends on a pseudo-random subset of its ports each round
/// and logs its inbox verbatim (round, port, payload). Any change to
/// delivery contents *or order* — the quantities the sharded-parallel
/// engine must preserve — shows up as a log difference.
struct RecShared {
    seed: u64,
    send_rounds: u64,
}

struct RecNode {
    log: Vec<(u64, u32, u64)>,
}

struct Recorder {
    shared: RecShared,
    nodes: Vec<RecNode>,
}

impl ShardedProtocol for Recorder {
    type Msg = u64;
    type Node = RecNode;
    type Shared = RecShared;

    fn msg_bits(_: &RecShared, _: &u64) -> u64 {
        32
    }

    fn split(&mut self) -> (&RecShared, &mut [RecNode]) {
        (&self.shared, &mut self.nodes)
    }

    fn step_node(shared: &RecShared, node: &mut RecNode, ctx: &mut NodeCtx<'_, u64>) {
        for &(port, msg) in ctx.inbox() {
            node.log.push((ctx.round, port, msg));
        }
        if ctx.round < shared.send_rounds {
            for p in 0..ctx.ports().len() {
                if rec_fires(shared.seed, ctx.node, ctx.round, p) {
                    ctx.send(p as u32, rec_payload(ctx.node, ctx.round, p));
                }
            }
            ctx.wake();
        }
    }

    fn scheduling(&self) -> Scheduling {
        Scheduling::ActiveSet
    }
}

/// Drives the recorder for `send_rounds + 1` rounds under `configure`
/// and returns (per-node logs, stats).
fn run_recorder(
    g: &DiGraph,
    seed: u64,
    send_rounds: u64,
    configure: impl FnOnce(&mut Network<'_>),
) -> (Vec<Vec<(u64, u32, u64)>>, RunStats) {
    let mut net = Network::new(g);
    configure(&mut net);
    let mut proto = Recorder {
        shared: RecShared { seed, send_rounds },
        nodes: (0..g.node_count())
            .map(|_| RecNode { log: Vec::new() })
            .collect(),
    };
    let stats = net.run_rounds("recorder", &mut proto, send_rounds + 1);
    (proto.nodes.into_iter().map(|nd| nd.log).collect(), stats)
}

/// [`run_recorder`] under a fault plan, with a longer drain window so
/// delayed messages land; also returns the full metrics log so that
/// `FaultStats` parity is part of the comparison.
fn run_recorder_faulty(
    g: &DiGraph,
    seed: u64,
    send_rounds: u64,
    plan: &FaultPlan,
    configure: impl FnOnce(&mut Network<'_>),
) -> (Vec<Vec<(u64, u32, u64)>>, RunStats, Metrics) {
    let mut net = Network::new(g);
    configure(&mut net);
    net.set_fault_plan(Some(plan.clone()));
    let mut proto = Recorder {
        shared: RecShared { seed, send_rounds },
        nodes: (0..g.node_count())
            .map(|_| RecNode { log: Vec::new() })
            .collect(),
    };
    let stats = net.run_rounds("recorder", &mut proto, send_rounds + 5);
    (
        proto.nodes.into_iter().map(|nd| nd.log).collect(),
        stats,
        net.metrics().clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn broadcast_delivers_every_item_to_everyone(
        n in 4usize..60,
        per_node in 0usize..4,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 2 * n, seed);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        let items: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..per_node).map(|j| (v * 10 + j) as u64).collect())
            .collect();
        let total: usize = items.iter().map(|i| i.len()).sum();
        let (out, stats) = broadcast(&mut net, &tree, items, |_| 16, "bc");
        for v in 0..n {
            prop_assert_eq!(out[v].len(), total);
            prop_assert_eq!(&out[v], &out[0], "node {} diverged", v);
        }
        let mut sorted = out[0].clone();
        sorted.sort_unstable();
        let mut expect: Vec<u64> = (0..n)
            .flat_map(|v| (0..per_node).map(move |j| (v * 10 + j) as u64))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
        // Lemma 2.4's O(M + D) with an explicit constant.
        prop_assert!(stats.rounds <= 3 * (total as u64 + tree.height) + 8);
    }

    #[test]
    fn multi_bfs_equals_centralized_oracle(
        n in 4usize..50,
        k in 1usize..6,
        h in 1u64..30,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 3 * n, seed);
        let sources: Vec<usize> = (0..k).map(|i| (i * 13 + 1) % n).collect();
        let cfg = MultiBfsConfig {
            sources: &sources,
            max_dist: h,
            reverse: false,
            delays: None,
        };
        let mut net = Network::new(&g);
        let (dist, stats) =
            multi_source_bfs(&mut net, &cfg, |_| true, "mbfs", default_budget(k, h))
                .expect("quiesces");
        for (i, &s) in sources.iter().enumerate() {
            let oracle = bfs_hop_bounded(&g, &[s], h as usize, |_| true);
            prop_assert_eq!(&dist[i], &oracle, "source {}", s);
        }
        // Lemma 5.5's O(k + h) with an explicit constant.
        prop_assert!(stats.rounds <= 2 * (k as u64 + h) + 16);
    }

    #[test]
    fn prefix_sweep_is_a_prefix_min(
        len in 2usize..20,
        jobs in 1usize..10,
        seed in 0u64..500,
    ) {
        let mut b = GraphBuilder::new(len);
        let links: Vec<usize> = (0..len - 1).map(|i| b.add_arc(i, i + 1)).collect();
        let g = b.build();
        let lane = Lane::forward((0..len).collect(), links);
        let val = |pos: usize, job: usize| {
            ((pos as u64 * 7919 + job as u64 * 104729 + seed) % 97) + 1
        };
        let mut net = Network::new(&g);
        let (out, stats) = prefix_sweep(
            &mut net,
            std::slice::from_ref(&lane),
            jobs,
            &|_, pos, job| Dist::new(val(pos, job)),
            "sweep",
        );
        for pos in 0..len {
            for job in 0..jobs {
                let expect = (0..=pos).map(|p| val(p, job)).min().unwrap();
                prop_assert_eq!(out[0][pos][job], Dist::new(expect));
            }
        }
        prop_assert_eq!(stats.rounds, jobs as u64 + len as u64);
    }

    #[test]
    fn diagonal_dp_matches_direct_recurrence(
        len in 2usize..16,
        rounds in 1u64..12,
        seed in 0u64..500,
    ) {
        let mut b = GraphBuilder::new(len);
        let links: Vec<usize> = (0..len - 1).map(|i| b.add_arc(i, i + 1)).collect();
        let g = b.build();
        let lane = Lane::forward((0..len).collect(), links);
        let f = |p: usize, r: u64| ((p as u64 * 31 + r * 17 + seed) % 89) + 1;
        let mut net = Network::new(&g);
        let (cur, _) = diagonal_dp(
            &mut net,
            &lane,
            |p| Dist::new(f(p, 0)),
            &|p, r| Dist::new(f(p, r)),
            rounds,
            "dp",
        );
        let mut reference: Vec<Dist> = (0..len).map(|p| Dist::new(f(p, 0))).collect();
        for r in 1..=rounds {
            let prev = reference.clone();
            for p in 0..len {
                let local = Dist::new(f(p, r));
                reference[p] = if p == 0 { local } else { prev[p - 1].min(local) };
            }
        }
        prop_assert_eq!(cur, reference);
    }

    #[test]
    fn aggregate_matches_local_fold(
        n in 2usize..60,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 2 * n, seed);
        let values: Vec<Dist> = (0..n)
            .map(|v| Dist::new(((v as u64 * 37 + seed) % 1000) + 1))
            .collect();
        for (op, expect) in [
            (AggOp::Min, values.iter().copied().min().unwrap()),
            (AggOp::Max, values.iter().copied().max().unwrap()),
            (AggOp::Sum, values.iter().copied().sum()),
        ] {
            let mut net = Network::new(&g);
            let (tree, _) = build_bfs_tree(&mut net, seed as usize % n).unwrap();
            prop_assert_eq!(aggregate(&mut net, &tree, op, &values), expect);
        }
    }

    #[test]
    fn shard_geometry_never_changes_delivery(
        n in 8usize..48,
        density in 1usize..4,
        threads in 2usize..9,
        nsplits in 1usize..6,
        seed in 0u64..1000,
    ) {
        let g = random_digraph(n, density * n + n / 2, seed);
        let (ref_logs, ref_stats) =
            run_recorder(&g, seed, 6, |net| net.set_threads(1));
        // Random interior shard split points, derived deterministically
        // from the generated inputs.
        let mut splits: Vec<usize> = (0..nsplits)
            .map(|i| 1 + ((seed as usize)
                .wrapping_mul(31)
                .wrapping_add(i * 7 + threads) % (n - 1)))
            .collect();
        splits.sort_unstable();
        splits.dedup();
        let (par_logs, par_stats) = run_recorder(&g, seed, 6, |net| {
            net.set_threads(threads);
            net.set_parallel_threshold(0);
            net.set_shard_bounds(Some(splits.clone()));
        });
        prop_assert_eq!(par_stats, ref_stats, "splits {:?}", &splits);
        prop_assert_eq!(par_logs, ref_logs, "splits {:?}", &splits);
        // Even chunking (no explicit bounds) must agree too.
        let (even_logs, even_stats) = run_recorder(&g, seed, 6, |net| {
            net.set_threads(threads);
            net.set_parallel_threshold(0);
        });
        prop_assert_eq!(even_stats, ref_stats);
        prop_assert_eq!(even_logs, ref_logs);
    }

    #[test]
    fn recorder_delivery_matches_the_reference_model(
        n in 3usize..48,
        density in 1usize..4,
        threads in 2usize..9,
        nsplits in 0usize..6,
        seed in 0u64..1000,
    ) {
        // The thread-parity suites compare the engine with itself; this
        // pins delivery to a model that shares no code with the commit,
        // at width 1 and with every step phase fanned out over random
        // shard bounds.
        let g = random_digraph(n, density * n, seed);
        let send_rounds = 6;
        let expected = model_recorder_logs(&g, seed, send_rounds);
        let messages: usize = expected.iter().map(Vec::len).sum();
        let (logs, stats) = run_recorder(&g, seed, send_rounds, |net| net.set_threads(1));
        prop_assert_eq!(&logs, &expected, "width 1");
        prop_assert_eq!(stats.rounds, send_rounds + 1);
        prop_assert_eq!(stats.messages, messages as u64);
        prop_assert_eq!(stats.bits, 32 * messages as u64);
        let mut splits: Vec<usize> = (0..nsplits)
            .map(|i| 1 + (seed as usize * 13 + i * 29 + threads) % (n - 1))
            .collect();
        splits.sort_unstable();
        splits.dedup();
        let (par_logs, par_stats) = run_recorder(&g, seed, send_rounds, |net| {
            net.set_threads(threads);
            net.set_parallel_threshold(0);
            net.set_shard_bounds(Some(splits.clone()));
        });
        prop_assert_eq!(&par_logs, &expected, "threads {} splits {:?}", threads, &splits);
        prop_assert_eq!(par_stats, stats);
    }

    #[test]
    fn fault_plans_never_break_shard_parity(
        n in 3usize..40,
        density in 1usize..4,
        threads in 2usize..9,
        seed in 0u64..500,
        fseed in 0u64..1000,
    ) {
        // Random fault plans mixing every failure mode (timed link
        // faults, crash/restart, probabilistic drop and delay) must be
        // invisible to shard geometry: per-message fates are pure
        // functions of (seed, round, link, direction), so sequential
        // and parallel runs agree on the delivery log, the RunStats,
        // and the FaultStats.
        let g = random_digraph(n, density * n, seed);
        prop_assert!(g.edge_count() > 0);
        let m = g.edge_count();
        let plan = FaultPlan::new(fseed)
            .fail_link((fseed as usize * 7 + 1) % m, fseed % 3, Some(fseed % 3 + 2))
            .crash_node((fseed as usize * 5 + 2) % n, 1 + fseed % 2, Some(4))
            .drop_messages((fseed % 4) as f64 * 0.08)
            .delay_messages((fseed % 5) as f64 * 0.07, 1 + fseed % 3);
        let (ref_logs, ref_stats, ref_metrics) =
            run_recorder_faulty(&g, seed, 6, &plan, |net| net.set_threads(1));
        let (par_logs, par_stats, par_metrics) =
            run_recorder_faulty(&g, seed, 6, &plan, |net| {
                net.set_threads(threads);
                net.set_parallel_threshold(0);
            });
        prop_assert_eq!(par_stats, ref_stats, "threads {}", threads);
        prop_assert_eq!(par_logs, ref_logs, "threads {}", threads);
        prop_assert_eq!(par_metrics, ref_metrics, "threads {}", threads);
    }

    #[test]
    fn degree_balanced_bounds_never_change_delivery(
        family in 0usize..3,
        n in 10usize..64,
        threads in 2usize..9,
        seed in 0u64..1000,
    ) {
        // The default (no explicit `set_shard_bounds`) geometry is now
        // degree-balanced: boundaries come from prefix sums of
        // `1 + deg(v)`, so they shift with the topology and the thread
        // count. On the most skewed families we have — star, two-hub,
        // power-law — that geometry must still be invisible: logs and
        // RunStats bit-identical to the sequential reference.
        let g = match family {
            0 => graphkit::gen::star(n),
            1 => graphkit::gen::two_hub(n),
            _ => graphkit::gen::power_law_digraph(n, seed),
        };
        let (ref_logs, ref_stats) =
            run_recorder(&g, seed, 6, |net| net.set_threads(1));
        let (par_logs, par_stats) = run_recorder(&g, seed, 6, |net| {
            net.set_threads(threads);
            net.set_parallel_threshold(0);
        });
        prop_assert_eq!(par_stats, ref_stats, "family {} threads {}", family, threads);
        prop_assert_eq!(par_logs, ref_logs, "family {} threads {}", family, threads);
    }

    #[test]
    fn until_quiet_parallel_agrees_on_quiescence_and_stats(
        n in 4usize..40,
        density in 1usize..4,
        threads in 2usize..9,
        seed in 0u64..500,
    ) {
        // `run_until_quiet` inline (threads = 1) and with every step
        // phase fanned out must agree on the quiescence round and
        // every RunStats field for the newly migrated quiescence-driven
        // protocols: BFS-tree construction and tree aggregation. Sparse
        // densities also cover the disconnected case, where both paths
        // must report the identical recoverable error.
        let g = random_digraph(n, density * n, seed);
        let root = seed as usize % n;
        let mut seq_net = Network::new(&g);
        seq_net.set_threads(1);
        let mut par_net = Network::new(&g);
        par_net.set_threads(threads);
        par_net.set_parallel_threshold(0);
        match (
            build_bfs_tree(&mut seq_net, root),
            build_bfs_tree(&mut par_net, root),
        ) {
            (Ok((ts, ss)), Ok((tp, sp))) => {
                prop_assert_eq!(ss, sp); // rounds = the quiescence round
                prop_assert_eq!(&ts.depth, &tp.depth);
                prop_assert_eq!(&ts.parent, &tp.parent);
                prop_assert_eq!(&ts.child_ports, &tp.child_ports);
                let values: Vec<Dist> = (0..n)
                    .map(|v| {
                        if (v + seed as usize).is_multiple_of(5) {
                            Dist::INF
                        } else {
                            Dist::new((v as u64 * 13 + seed) % 257)
                        }
                    })
                    .collect();
                for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
                    let rs = aggregate(&mut seq_net, &ts, op, &values);
                    let rp = aggregate(&mut par_net, &tp, op, &values);
                    prop_assert_eq!(rs, rp);
                }
                // The cumulative logs pin every phase's rounds/messages/
                // bits — quiescence rounds included.
                prop_assert_eq!(seq_net.metrics(), par_net.metrics());
            }
            (Err(es), Err(ep)) => prop_assert_eq!(es, ep),
            (seq, par) => {
                return Err(TestCaseError(format!(
                    "engines disagree on connectivity: seq ok = {}, par ok = {}",
                    seq.is_ok(),
                    par.is_ok()
                )));
            }
        }
    }

    #[test]
    fn migrated_pipelines_have_parallel_parity(
        len in 2usize..16,
        jobs in 1usize..6,
        threads in 2usize..9,
        seed in 0u64..500,
    ) {
        // The newly migrated pipeline protocols (prefix sweeps and the
        // systolic DP) must produce bit-identical outputs and stats on
        // the parallel path at any thread count.
        let mut b = GraphBuilder::new(len);
        let links: Vec<usize> = (0..len - 1).map(|i| b.add_arc(i, i + 1)).collect();
        let g = b.build();
        let lane = Lane::forward((0..len).collect(), links);
        let val = |pos: usize, job: usize| ((pos as u64 * 11 + job as u64 * 5 + seed) % 43) + 1;
        let run = |t: usize| {
            let mut net = Network::new(&g);
            net.set_threads(t);
            if t > 1 {
                net.set_parallel_threshold(0);
            }
            let sweep = prefix_sweep(
                &mut net,
                std::slice::from_ref(&lane),
                jobs,
                &|_, pos, job| Dist::new(val(pos, job)),
                "sweep",
            );
            let dp = diagonal_dp(
                &mut net,
                &lane,
                |p| Dist::new(val(p, 0)),
                &|p, r| Dist::new(val(p, r as usize)),
                jobs as u64,
                "dp",
            );
            (sweep, dp, net.metrics().clone())
        };
        prop_assert_eq!(run(1), run(threads));
    }

    #[test]
    fn graph_snapshot_round_trip_is_bit_identical(
        n in 1usize..80,
        density in 0usize..4,
        seed in 0u64..1000,
    ) {
        // The persistence codec is an exact bijection on encodable
        // graphs: decode(encode(g)) re-encodes to the same bytes, and
        // the decoded graph is structurally identical (CSRs included —
        // neighbor iteration order is part of determinism).
        let g = random_digraph(n, density * n, seed);
        let bytes = g.to_snapshot();
        let back = DiGraph::from_snapshot(&bytes).expect("round trip");
        prop_assert_eq!(back.to_snapshot(), bytes);
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        for v in 0..n {
            let a: Vec<usize> = g.undirected_neighbors(v).collect();
            let b: Vec<usize> = back.undirected_neighbors(v).collect();
            prop_assert_eq!(a, b, "node {}", v);
        }
    }

    #[test]
    fn store_snapshot_round_trip_is_bit_identical(
        n in 1usize..50,
        seed in 0u64..1000,
        nart in 0usize..4,
    ) {
        // Full store files (header + sections + footer) re-encode to
        // identical bytes after a decode, for any graph and artifact
        // payload mix — the invariant checkpoint/resume rides on.
        let g = random_digraph(n, 2 * n, seed);
        let mut snap = rpaths_store::Snapshot::new(g);
        for i in 0..nart {
            let body: Vec<u8> = (0..(seed as usize + 7 * i) % 40)
                .map(|j| (j as u8).wrapping_mul(31).wrapping_add(seed as u8))
                .collect();
            snap.artifacts
                .push(rpaths_store::Artifact::blob(format!("blob/{i}"), body));
        }
        let bytes = snap.encode();
        let back = rpaths_store::Snapshot::decode(&bytes)
            .expect("decode")
            .expect_complete("round trip");
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back.artifacts.len(), nart);
    }

    #[test]
    fn grid_road_has_exact_counts_symmetric_arcs_and_bounded_degrees(
        rows in 2usize..12,
        cols in 2usize..12,
        chords in 0usize..20,
        seed in 0u64..1000,
    ) {
        // The documented contract of `gen::grid_road`: rows·cols nodes,
        // every street bidirectional (arcs come in reverse pairs, so the
        // graph is strongly connected), exactly
        // 2·(rows·(cols−1) + cols·(rows−1)) + 2·chords arcs, and street
        // degree ≤ 4 with each incident chord adding at most one
        // out-arc.
        let (g, s, t) = graphkit::gen::grid_road(rows, cols, chords, seed);
        let n = rows * cols;
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(s, 0);
        prop_assert_eq!(t, n - 1);
        prop_assert_eq!(
            g.edge_count(),
            2 * (rows * (cols - 1) + cols * (rows - 1)) + 2 * chords
        );
        let mut pairs = std::collections::HashMap::new();
        for (_, e) in g.edges() {
            *pairs.entry((e.from, e.to)).or_insert(0i64) += 1;
        }
        for (&(u, v), &c) in &pairs {
            prop_assert_eq!(
                c, pairs.get(&(v, u)).copied().unwrap_or(0),
                "arc {}->{} lacks its reverse twin", u, v
            );
        }
        let dist = bfs_hop_bounded(&g, &[s], n, |_| true);
        for v in 0..n {
            prop_assert!(dist[v].is_finite(), "node {} unreachable", v);
            prop_assert!(
                g.successors(v).count() <= 4 + chords,
                "node {} exceeds the street + chord degree bound", v
            );
        }
    }

    #[test]
    fn octopus_pods_has_exact_counts_head_skew_and_pod_redundancy(
        pods in 1usize..10,
        pod_size in 1usize..12,
        extra in 0usize..8,
        seed in 0u64..1000,
    ) {
        // The documented contract of `gen::octopus_pods`: pods·pod_size
        // nodes; per pod 2·(pod_size−1) spoke arcs plus a 2·pod_size
        // member ring when pod_size ≥ 3; a head ring spine plus
        // 2·extra_spine shortcuts; strongly connected; heads dominate
        // member degrees; and a crashed head leaves its pod connected.
        // A 1×1 octopus is rejected by the generator; test from 2 nodes.
        let pod_size = if pods * pod_size < 2 { 2 } else { pod_size };
        let g = graphkit::gen::octopus_pods(pods, pod_size, extra, seed);
        let n = pods * pod_size;
        prop_assert_eq!(g.node_count(), n);
        let mut m =
            pods * (2 * (pod_size - 1) + if pod_size >= 3 { 2 * pod_size } else { 0 });
        m += match pods {
            0 | 1 => 0,
            2 => 2,
            _ => 2 * pods,
        };
        if pods >= 2 {
            m += 2 * extra;
        }
        prop_assert_eq!(g.edge_count(), m);
        let dist = bfs_hop_bounded(&g, &[0], n, |_| true);
        for v in 0..n {
            prop_assert!(dist[v].is_finite(), "node {} unreachable", v);
        }
        // Degree skew: members touch only their spoke and ring; heads
        // carry the whole pod plus the spine.
        for p in 0..pods {
            let head = p * pod_size;
            prop_assert!(g.successors(head).count() >= pod_size - 1);
            for k in 1..pod_size {
                prop_assert!(
                    g.successors(head + k).count() <= 3,
                    "member {} of pod {} exceeds spoke + ring degree", k, p
                );
            }
        }
        // Head-crash redundancy: with a member ring, dropping pod 0's
        // head must leave its members mutually reachable.
        if pod_size >= 3 {
            let head = 0;
            let avoid_head = |e: usize| {
                let edge = g.edge(e);
                edge.from != head && edge.to != head
            };
            let d = bfs_hop_bounded(&g, &[1], n, avoid_head);
            for k in 1..pod_size {
                prop_assert!(
                    d[k].is_finite(),
                    "member {} stranded after head crash", k
                );
            }
        }
    }

    #[test]
    fn bfs_tree_depths_are_undirected_distances(
        n in 2usize..60,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 2 * n, seed);
        let root = seed as usize % n;
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, root).unwrap();
        // Centralized undirected BFS.
        let mut dist = vec![usize::MAX; n];
        let mut q = std::collections::VecDeque::new();
        dist[root] = 0;
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for w in g.undirected_neighbors(u) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    q.push_back(w);
                }
            }
        }
        for v in 0..n {
            prop_assert_eq!(tree.depth[v] as usize, dist[v]);
        }
    }
}
