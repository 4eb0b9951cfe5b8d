//! Primer: writing your own CONGEST protocol against the `congest`
//! engine.
//!
//! The engine gives you exactly what the model gives a distributed
//! algorithm: per-round inboxes, one `O(log n)`-bit message per link
//! direction per round (enforced — overdo it and the engine panics),
//! and free local computation. This example implements *leader
//! election by id-flooding* from scratch and cross-checks the round
//! count against the graph's diameter.
//!
//! Run with: `cargo run --release -p rpaths --example congest_primer`

use congest::{Network, NodeCtx, Scheduling, ShardedProtocol};
use graphkit::gen::random_digraph;

/// Every node floods the largest node id it has heard; after `D` rounds
/// everyone agrees on the maximum id — the leader.
///
/// A protocol splits its state into a part every node reads (here:
/// nothing) and one slot per node (here: the best id heard). A step may
/// touch only its own slot, so the engine is free to step disjoint node
/// ranges on worker threads.
struct LeaderElection {
    best: Vec<u64>,
}

impl ShardedProtocol for LeaderElection {
    type Msg = u64;
    type Node = u64;
    type Shared = ();

    fn msg_bits(_: &(), id: &u64) -> u64 {
        congest::word_bits(*id)
    }

    fn split(&mut self) -> (&(), &mut [u64]) {
        (&(), &mut self.best)
    }

    fn step_node(_: &(), best: &mut u64, ctx: &mut NodeCtx<'_, u64>) {
        // Round 0: announce yourself. Later: forward improvements only —
        // that is what keeps the message count at O(m·D) worst case and
        // the protocol quiescent once opinions stabilize.
        let mut improved = ctx.round == 0;
        for &(_, id) in ctx.inbox() {
            if id > *best {
                *best = id;
                improved = true;
            }
        }
        if improved {
            for p in 0..ctx.ports().len() as u32 {
                ctx.send(p, *best);
            }
        }
    }

    // Opinions only change on receipt, so the engine can skip settled
    // nodes: with the active-set schedule, simulation cost tracks the
    // number of opinion changes instead of n · rounds.
    fn scheduling(&self) -> Scheduling {
        Scheduling::ActiveSet
    }
}

fn main() {
    let n = 200;
    let g = random_digraph(n, 3 * n, 2026);
    let mut net = Network::new(&g);
    println!("network: {net:?}");

    let mut proto = LeaderElection {
        best: (0..n as u64).collect(), // node v's id is v
    };
    let stats = net
        .run_until_quiet("leader-election", &mut proto, 10 * n as u64)
        .expect("flooding quiesces");

    let leader = proto.best[0];
    assert!(proto.best.iter().all(|&b| b == leader), "disagreement!");
    println!(
        "elected leader {leader} in {} rounds ({} messages, {} bits)",
        stats.rounds, stats.messages, stats.bits
    );

    let diameter = graphkit::alg::undirected_diameter(&g).expect("connected");
    println!("undirected diameter D = {diameter}; flooding needs ≥ D and ≤ D+2 rounds");
    assert!(stats.rounds as usize >= diameter);
    assert!(stats.rounds as usize <= diameter + 2);

    // The engine accounts everything; a phase log accumulates across
    // protocol runs on the same network:
    println!("\nmetrics log:\n{}", net.metrics());
}
