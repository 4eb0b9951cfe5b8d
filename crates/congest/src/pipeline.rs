//! Information pipelining along embedded paths.
//!
//! Two communication patterns recur in the paper:
//!
//! - [`diagonal_dp`]: the systolic wavefront of Lemma 4.4 — every round,
//!   every path vertex forwards its running value to its successor and
//!   folds in a step-dependent local term. `R` rounds compute an
//!   `R`-step min-recurrence at every vertex simultaneously.
//! - [`prefix_sweep`]: the staggered sweeps of Lemmas 5.7, 7.7 and 7.8 —
//!   `J` independent prefix-min jobs ride the same path, job `j` delayed
//!   by `j` rounds so each link carries at most one message per round.
//!   Sweeps over *disjoint* lanes (the paper's segments) run in parallel.
//!
//! Values are distances ([`Dist`]) and the fold is `min`, which is all the
//! paper's pipelines need.

use graphkit::{Dist, EdgeId, NodeId};

use crate::network::{word_bits, Network, NodeCtx, Scheduling, ShardedProtocol};
use crate::RunStats;

fn dist_bits(d: Dist) -> u64 {
    1 + word_bits(d.finite().unwrap_or(0))
}

/// A directed lane embedded in the graph: `nodes[i]` talks to
/// `nodes[i+1]` over graph edge `links[i]`.
///
/// When `against_edges` is `false`, `nodes[i]` must be `links[i]`'s tail;
/// when `true`, its head (the lane runs against edge orientation, which
/// the CONGEST model allows since links are bidirectional).
#[derive(Clone, Debug)]
pub struct Lane {
    /// Vertex sequence of the lane.
    pub nodes: Vec<NodeId>,
    /// Graph edges realizing consecutive lane hops.
    pub links: Vec<EdgeId>,
    /// Whether the lane traverses its edges head-to-tail.
    pub against_edges: bool,
}

impl Lane {
    /// A lane that follows a subpath of `P` in path order.
    pub fn forward(nodes: Vec<NodeId>, links: Vec<EdgeId>) -> Lane {
        Lane {
            nodes,
            links,
            against_edges: false,
        }
    }

    /// A lane that follows a subpath of `P` in reverse order
    /// (`nodes` and `links` already reversed by the caller).
    pub fn backward(nodes: Vec<NodeId>, links: Vec<EdgeId>) -> Lane {
        Lane {
            nodes,
            links,
            against_edges: true,
        }
    }

    fn validate(&self, net: &Network<'_>) {
        assert_eq!(self.nodes.len(), self.links.len() + 1, "lane shape");
        for (i, &l) in self.links.iter().enumerate() {
            let e = net.graph().edge(l);
            if self.against_edges {
                assert_eq!(e.to, self.nodes[i], "lane link {i} tail mismatch");
                assert_eq!(e.from, self.nodes[i + 1], "lane link {i} head mismatch");
            } else {
                assert_eq!(e.from, self.nodes[i], "lane link {i} tail mismatch");
                assert_eq!(e.to, self.nodes[i + 1], "lane link {i} head mismatch");
            }
        }
    }

    /// Port at `nodes[i]` used to reach `nodes[i+1]`.
    fn send_port(&self, net: &Network<'_>, i: usize) -> u32 {
        if self.against_edges {
            net.port_at_head(self.links[i])
        } else {
            net.port_at_tail(self.links[i])
        }
    }
}

// ---------------------------------------------------------------------
// Systolic diagonal DP (Lemma 4.4).
// ---------------------------------------------------------------------

/// Read-only lane geometry and the step-input function.
struct DpShared<'a> {
    /// position of each node on the lane, usize::MAX if absent
    pos_of: Vec<usize>,
    send_ports: Vec<u32>,
    input: &'a (dyn Fn(usize, u64) -> Dist + Sync),
    rounds: u64,
    lane_len: usize,
}

/// One node's running DP value (sharded: the engine steps disjoint
/// slices of these from worker threads).
#[derive(Clone, Copy)]
struct DpNode {
    cur: Dist,
}

struct DiagonalDp<'a> {
    shared: DpShared<'a>,
    nodes: Vec<DpNode>,
}

impl<'a> ShardedProtocol for DiagonalDp<'a> {
    type Msg = Dist;
    type Node = DpNode;
    type Shared = DpShared<'a>;

    fn msg_bits(_: &Self::Shared, msg: &Dist) -> u64 {
        dist_bits(*msg)
    }

    fn split(&mut self) -> (&Self::Shared, &mut [Self::Node]) {
        (&self.shared, &mut self.nodes)
    }

    fn step_node(shared: &Self::Shared, node: &mut DpNode, ctx: &mut NodeCtx<'_, Dist>) {
        let pos = shared.pos_of[ctx.node];
        if pos == usize::MAX {
            return;
        }
        // The systolic schedule fires on round numbers, not on receipt
        // (position 0 never receives anything): every lane vertex stays
        // armed until the last fold step. Off-lane nodes fall out of the
        // active set after round 0.
        if ctx.round < shared.rounds {
            ctx.wake();
        }
        // Step r: fold the predecessor's value (sent in round r-1) and the
        // local term for step r, then forward.
        if ctx.round > 0 {
            let step = ctx.round;
            if step > shared.rounds {
                return;
            }
            let received = ctx.inbox().first().map(|&(_, d)| d).unwrap_or(Dist::INF);
            let local = (shared.input)(pos, step);
            node.cur = if pos == 0 { local } else { received.min(local) };
        }
        if ctx.round < shared.rounds && pos + 1 < shared.lane_len {
            ctx.send(shared.send_ports[pos], node.cur);
        }
    }

    fn scheduling(&self) -> Scheduling {
        Scheduling::ActiveSet
    }
}

/// Runs the systolic recurrence of Lemma 4.4 along a lane.
///
/// Let `cur⁰[p] = init(p)`. For step `r = 1..=rounds`:
///
/// ```text
/// curʳ[p] = min(curʳ⁻¹[p-1], input(p, r))    (p > 0)
/// curʳ[0] = input(0, r)
/// ```
///
/// Every link carries exactly one message per round, so the protocol
/// takes exactly `rounds + 1` engine rounds. Returns the final `cur`.
///
/// Runs on the sharded-parallel engine path; results and stats are
/// bit-identical at every thread count.
pub fn diagonal_dp(
    net: &mut Network<'_>,
    lane: &Lane,
    init: impl Fn(usize) -> Dist,
    input: &(dyn Fn(usize, u64) -> Dist + Sync),
    rounds: u64,
    phase: &str,
) -> (Vec<Dist>, RunStats) {
    lane.validate(net);
    let n = net.node_count();
    let mut pos_of = vec![usize::MAX; n];
    for (i, &v) in lane.nodes.iter().enumerate() {
        pos_of[v] = i;
    }
    let send_ports: Vec<u32> = (0..lane.links.len())
        .map(|i| lane.send_port(net, i))
        .collect();
    let mut nodes = vec![DpNode { cur: Dist::INF }; n];
    for (i, &v) in lane.nodes.iter().enumerate() {
        nodes[v].cur = init(i);
    }
    let mut proto = DiagonalDp {
        shared: DpShared {
            pos_of,
            send_ports,
            input,
            rounds,
            lane_len: lane.nodes.len(),
        },
        nodes,
    };
    let stats = net.run_rounds(phase, &mut proto, rounds + 1);
    let cur = lane.nodes.iter().map(|&v| proto.nodes[v].cur).collect();
    (cur, stats)
}

// ---------------------------------------------------------------------
// Staggered prefix sweeps (Lemmas 5.7, 7.7, 7.8).
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct SweepMsg {
    job: u32,
    dist: Dist,
}

/// One node's role on one lane.
#[derive(Clone, Copy, Debug)]
struct Placement {
    lane: u32,
    pos: u32,
    /// Port on which this lane's predecessor messages arrive
    /// (`u32::MAX` at position 0).
    recv_port: u32,
    /// Port towards this lane's successor (`u32::MAX` at the last
    /// position).
    send_port: u32,
}

/// Read-only sweep geometry and the per-cell input function.
struct SweepShared<'a> {
    jobs: usize,
    /// Each node may sit on several lanes (checkpoints join segments).
    placements: Vec<Vec<Placement>>,
    input: &'a (dyn Fn(usize, usize, usize) -> Dist + Sync),
}

/// One node's sweep state (sharded: the engine steps disjoint slices of
/// these from worker threads).
struct SweepNode {
    /// received[placement][job]: value arriving from that lane's
    /// predecessor.
    received: Vec<Vec<Dist>>,
}

struct PrefixSweep<'a> {
    shared: SweepShared<'a>,
    nodes: Vec<SweepNode>,
}

impl<'a> ShardedProtocol for PrefixSweep<'a> {
    type Msg = SweepMsg;
    type Node = SweepNode;
    type Shared = SweepShared<'a>;

    fn msg_bits(_: &Self::Shared, msg: &SweepMsg) -> u64 {
        word_bits(msg.job as u64) + dist_bits(msg.dist)
    }

    fn split(&mut self) -> (&Self::Shared, &mut [Self::Node]) {
        (&self.shared, &mut self.nodes)
    }

    fn step_node(shared: &Self::Shared, node: &mut SweepNode, ctx: &mut NodeCtx<'_, SweepMsg>) {
        let v = ctx.node;
        let placements = &shared.placements[v];
        if placements.is_empty() {
            return;
        }
        for &(port, msg) in ctx.inbox() {
            let pi = placements
                .iter()
                .position(|pl| pl.recv_port == port)
                .expect("sweep message arrived on a non-lane port");
            node.received[pi][msg.job as usize] = msg.dist;
        }
        // Job j leaves position p at round j + p.
        let r = ctx.round;
        for (pi, pl) in placements.iter().enumerate() {
            let (lane_idx, pos) = (pl.lane as usize, pl.pos as usize);
            if pl.send_port == u32::MAX {
                continue;
            }
            // The staggered schedule is round-driven (job j departs at
            // round j + pos whether or not anything arrived), so the
            // node re-arms itself until its last departure round.
            if shared.jobs > 0 && r < pos as u64 + shared.jobs as u64 - 1 {
                ctx.wake();
            }
            if r < pos as u64 {
                continue;
            }
            let job = (r - pos as u64) as usize;
            if job >= shared.jobs {
                continue;
            }
            let acc = node.received[pi][job].min((shared.input)(lane_idx, pos, job));
            if acc.is_finite() {
                ctx.send(
                    pl.send_port,
                    SweepMsg {
                        job: job as u32,
                        dist: acc,
                    },
                );
            }
        }
    }

    fn idle(&self) -> bool {
        true
    }

    fn scheduling(&self) -> Scheduling {
        Scheduling::ActiveSet
    }
}

/// Runs `jobs` staggered prefix-min sweeps over each lane in parallel.
///
/// For lane `l`, position `p`, job `j`, the result is
/// `min over p' <= p of input(l, p', j)`; every lane vertex ends up
/// knowing the result at its own position for every job. Lanes must be
/// *link*-disjoint; sharing endpoint vertices is allowed (the paper's
/// segments overlap at checkpoints).
///
/// Takes exactly `jobs + max_lane_len` engine rounds — the `O(|I| + J)`
/// pipelining cost of Lemma 5.7.
///
/// Runs on the sharded-parallel engine path; results and stats are
/// bit-identical at every thread count.
///
/// # Panics
///
/// Panics if two lanes share a link (that would violate the CONGEST
/// bandwidth of the shared link).
pub fn prefix_sweep(
    net: &mut Network<'_>,
    lanes: &[Lane],
    jobs: usize,
    input: &(dyn Fn(usize, usize, usize) -> Dist + Sync),
    phase: &str,
) -> (Vec<Vec<Vec<Dist>>>, RunStats) {
    let n = net.node_count();
    let mut placements: Vec<Vec<Placement>> = vec![Vec::new(); n];
    let mut used_links = std::collections::HashSet::new();
    for (li, lane) in lanes.iter().enumerate() {
        lane.validate(net);
        for &l in &lane.links {
            assert!(
                used_links.insert(l),
                "link {l} appears on two lanes; lanes must be link-disjoint"
            );
        }
        for (pi, &v) in lane.nodes.iter().enumerate() {
            let recv_port = if pi == 0 {
                u32::MAX
            } else if lane.against_edges {
                net.port_at_tail(lane.links[pi - 1])
            } else {
                net.port_at_head(lane.links[pi - 1])
            };
            let send_port = if pi + 1 == lane.nodes.len() {
                u32::MAX
            } else {
                lane.send_port(net, pi)
            };
            placements[v].push(Placement {
                lane: li as u32,
                pos: pi as u32,
                recv_port,
                send_port,
            });
        }
    }
    let nodes: Vec<SweepNode> = placements
        .iter()
        .map(|pls| SweepNode {
            received: vec![vec![Dist::INF; jobs]; pls.len()],
        })
        .collect();
    let max_len = lanes.iter().map(|l| l.nodes.len()).max().unwrap_or(0) as u64;
    let total_rounds = jobs as u64 + max_len;
    let mut proto = PrefixSweep {
        shared: SweepShared {
            jobs,
            placements,
            input,
        },
        nodes,
    };
    let stats = net.run_rounds(phase, &mut proto, total_rounds);
    // Reassemble the per-lane tables from the per-node state, then
    // finalize locally: fold each position's own input into what arrived.
    let mut out: Vec<Vec<Vec<Dist>>> = lanes
        .iter()
        .map(|lane| vec![vec![Dist::INF; jobs]; lane.nodes.len()])
        .collect();
    let PrefixSweep { shared, nodes } = proto;
    for (pls, node) in shared.placements.iter().zip(nodes) {
        for (pl, row) in pls.iter().zip(node.received) {
            out[pl.lane as usize][pl.pos as usize] = row;
        }
    }
    for (li, lane) in lanes.iter().enumerate() {
        for pos in 0..lane.nodes.len() {
            for job in 0..jobs {
                let own = input(li, pos, job);
                out[li][pos][job] = out[li][pos][job].min(own);
            }
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::GraphBuilder;

    fn path_graph(n: usize) -> (graphkit::DiGraph, Vec<EdgeId>) {
        let mut b = GraphBuilder::new(n);
        let links: Vec<EdgeId> = (0..n - 1).map(|i| b.add_arc(i, i + 1)).collect();
        (b.build(), links)
    }

    #[test]
    fn diagonal_dp_computes_windowed_min() {
        // input(p, r) = X[p][r], init = X[p][0]; after R rounds
        // cur[p] = min over k in 0..=min(p, R) of X[p-k][R-k]
        // ... with the boundary rule cur resets at pos 0.
        let n = 6;
        let (g, links) = path_graph(n);
        let lane = Lane::forward((0..n).collect(), links);
        let table: Vec<Vec<u64>> = (0..n)
            .map(|p| (0..4u64).map(|r| (10 * p as u64 + r) % 17 + 1).collect())
            .collect();
        let rounds = 3;
        let mut net = Network::new(&g);
        let (cur, stats) = diagonal_dp(
            &mut net,
            &lane,
            |p| Dist::new(table[p][0]),
            &|p, r| Dist::new(table[p][r as usize]),
            rounds,
            "dp",
        );
        // Reference: simulate the recurrence directly.
        let mut reference: Vec<Dist> = (0..n).map(|p| Dist::new(table[p][0])).collect();
        for r in 1..=rounds {
            let prev = reference.clone();
            for p in 0..n {
                let local = Dist::new(table[p][r as usize]);
                reference[p] = if p == 0 {
                    local
                } else {
                    prev[p - 1].min(local)
                };
            }
        }
        assert_eq!(cur, reference);
        assert_eq!(stats.rounds, rounds + 1);
    }

    #[test]
    fn prefix_sweep_computes_prefix_minima() {
        let n = 7;
        let jobs = 5;
        let (g, links) = path_graph(n);
        let lane = Lane::forward((0..n).collect(), links);
        let val = |pos: usize, job: usize| ((pos * 13 + job * 7) % 11 + 1) as u64;
        let mut net = Network::new(&g);
        let (out, stats) = prefix_sweep(
            &mut net,
            std::slice::from_ref(&lane),
            jobs,
            &|_, pos, job| Dist::new(val(pos, job)),
            "sweep",
        );
        for pos in 0..n {
            for job in 0..jobs {
                let expect = (0..=pos).map(|p| val(p, job)).min().unwrap();
                assert_eq!(out[0][pos][job], Dist::new(expect), "pos {pos} job {job}");
            }
        }
        assert_eq!(stats.rounds, jobs as u64 + n as u64);
    }

    #[test]
    fn prefix_sweep_skips_infinite_inputs() {
        let n = 5;
        let (g, links) = path_graph(n);
        let lane = Lane::forward((0..n).collect(), links);
        let mut net = Network::new(&g);
        let (out, stats) = prefix_sweep(
            &mut net,
            std::slice::from_ref(&lane),
            2,
            &|_, pos, job| {
                if pos == 2 && job == 1 {
                    Dist::new(42)
                } else {
                    Dist::INF
                }
            },
            "sweep",
        );
        assert_eq!(out[0][1][1], Dist::INF);
        assert_eq!(out[0][2][1], Dist::new(42));
        assert_eq!(out[0][4][1], Dist::new(42));
        assert_eq!(out[0][4][0], Dist::INF);
        // Infinite values are never sent.
        assert!(stats.messages <= 2);
    }

    #[test]
    fn backward_lane_runs_against_edges() {
        let n = 5;
        let (g, links) = path_graph(n);
        // Lane from node 4 down to node 0, against the edge directions.
        let nodes: Vec<NodeId> = (0..n).rev().collect();
        let rev_links: Vec<EdgeId> = links.into_iter().rev().collect();
        let lane = Lane::backward(nodes, rev_links);
        let mut net = Network::new(&g);
        let (out, _) = prefix_sweep(
            &mut net,
            std::slice::from_ref(&lane),
            1,
            &|_, pos, _| Dist::new(10 - pos as u64),
            "sweep",
        );
        // pos on the lane: 0 is node 4, 4 is node 0; prefix mins decrease.
        for pos in 0..n {
            let expect = (0..=pos).map(|p| 10 - p as u64).min().unwrap();
            assert_eq!(out[0][pos][0], Dist::new(expect));
        }
    }

    #[test]
    fn two_disjoint_lanes_run_in_parallel() {
        // Two separate 3-node paths in one graph.
        let mut b = GraphBuilder::new(6);
        let l0 = vec![b.add_arc(0, 1), b.add_arc(1, 2)];
        let l1 = vec![b.add_arc(3, 4), b.add_arc(4, 5)];
        // A connecting edge so the communication graph is connected.
        b.add_arc(2, 3);
        let g = b.build();
        let lanes = vec![
            Lane::forward(vec![0, 1, 2], l0),
            Lane::forward(vec![3, 4, 5], l1),
        ];
        let mut net = Network::new(&g);
        let (out, stats) = prefix_sweep(
            &mut net,
            &lanes,
            3,
            &|lane, pos, job| Dist::new((lane * 100 + pos * 10 + job) as u64 + 1),
            "sweep",
        );
        for lane in 0..2 {
            for pos in 0..3 {
                for job in 0..3 {
                    let expect = (0..=pos)
                        .map(|p| (lane * 100 + p * 10 + job) as u64 + 1)
                        .min()
                        .unwrap();
                    assert_eq!(out[lane][pos][job], Dist::new(expect));
                }
            }
        }
        // Parallel lanes: rounds = jobs + max_len, not the sum over lanes.
        assert_eq!(stats.rounds, 3 + 3);
    }

    #[test]
    fn lanes_may_share_checkpoint_vertices() {
        // Two segments of one path share node 2, like the paper's
        // checkpoints.
        let (g, links) = path_graph(5);
        let lane1 = Lane::forward(vec![0, 1, 2], vec![links[0], links[1]]);
        let lane2 = Lane::forward(vec![2, 3, 4], vec![links[2], links[3]]);
        let mut net = Network::new(&g);
        let (out, _) = prefix_sweep(
            &mut net,
            &[lane1, lane2],
            2,
            &|lane, pos, job| Dist::new((lane * 50 + pos * 10 + job + 1) as u64),
            "sweep",
        );
        // Lane 0 prefix-min at its last position.
        assert_eq!(out[0][2][0], Dist::new(1));
        // Lane 1 restarts its own prefix at node 2.
        assert_eq!(out[1][0][1], Dist::new(52));
        assert_eq!(out[1][2][0], Dist::new(51));
    }

    #[test]
    #[should_panic(expected = "link-disjoint")]
    fn link_sharing_lanes_rejected() {
        let (g, links) = path_graph(3);
        let lane1 = Lane::forward(vec![0, 1], vec![links[0]]);
        let lane2 = Lane::forward(vec![0, 1], vec![links[0]]);
        let mut net = Network::new(&g);
        let _ = prefix_sweep(&mut net, &[lane1, lane2], 1, &|_, _, _| Dist::INF, "x");
    }
}
