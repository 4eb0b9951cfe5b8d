//! Lemma 2.4: broadcasting `M` messages to all nodes in `O(M + D)` rounds.
//!
//! Every node starts with a (possibly empty) list of `O(log n)`-bit items.
//! Items are upcast towards the BFS-tree root (one per tree link per
//! round, pipelined), the root serializes them, and the stream is downcast
//! to everyone. All nodes receive all items in the same order.

use std::collections::VecDeque;

use crate::bfs_tree::BfsTree;
use crate::network::{Network, NodeCtx, Scheduling, ShardedProtocol};
use crate::RunStats;

#[derive(Clone, Debug)]
enum Flow<T> {
    Up(T),
    Down(T),
}

/// Read-only state every node consults: the tree and the item sizing.
struct BcastShared<'t, F> {
    tree: &'t BfsTree,
    bits: F,
    expected_total: usize,
}

/// One node's pipeline state (sharded: the engine steps disjoint slices
/// of these from worker threads).
struct BcastNode<T> {
    /// Items waiting to move towards the root.
    up_queue: VecDeque<T>,
    /// The root's serialized stream so far (only meaningful at the root).
    /// At non-root nodes, items received from the parent, in stream order.
    delivered: Vec<T>,
    /// Next index of `delivered` to forward to children.
    down_cursor: usize,
}

struct BroadcastProtocol<'t, T, F> {
    shared: BcastShared<'t, F>,
    nodes: Vec<BcastNode<T>>,
}

impl<'t, T, F> ShardedProtocol for BroadcastProtocol<'t, T, F>
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    type Msg = Flow<T>;
    type Node = BcastNode<T>;
    type Shared = BcastShared<'t, F>;

    fn msg_bits(shared: &Self::Shared, msg: &Flow<T>) -> u64 {
        match msg {
            Flow::Up(t) | Flow::Down(t) => 1 + (shared.bits)(t),
        }
    }

    fn split(&mut self) -> (&Self::Shared, &mut [Self::Node]) {
        (&self.shared, &mut self.nodes)
    }

    fn step_node(shared: &Self::Shared, node: &mut BcastNode<T>, ctx: &mut NodeCtx<'_, Flow<T>>) {
        let v = ctx.node;
        let tree = shared.tree;
        for (_, msg) in ctx.inbox() {
            match msg {
                Flow::Up(item) => {
                    if v == tree.root {
                        node.delivered.push(item.clone());
                    } else {
                        node.up_queue.push_back(item.clone());
                    }
                }
                Flow::Down(item) => node.delivered.push(item.clone()),
            }
        }
        // Move one queued item towards the root.
        if let Some(item) = node.up_queue.pop_front() {
            match tree.parent_port[v] {
                Some(pp) => ctx.send(pp, Flow::Up(item)),
                // The root's "upward" move is appending to its own stream.
                None => node.delivered.push(item),
            }
        }
        // Relay the next stream item to all children.
        if node.down_cursor < node.delivered.len() {
            let item = node.delivered[node.down_cursor].clone();
            node.down_cursor += 1;
            for &cp in &tree.child_ports[v] {
                ctx.send(cp, Flow::Down(item.clone()));
            }
        }
        // The pipeline moves one item per round, so a node with queued
        // uploads or an unforwarded stream suffix must act again next
        // round even if nothing new arrives.
        if !node.up_queue.is_empty() || node.down_cursor < node.delivered.len() {
            ctx.wake();
        }
    }

    fn idle(&self) -> bool {
        self.nodes.iter().all(|nd| {
            nd.up_queue.is_empty()
                && nd.down_cursor == nd.delivered.len()
                && nd.delivered.len() == self.shared.expected_total
        })
    }

    fn scheduling(&self) -> Scheduling {
        Scheduling::ActiveSet
    }
}

/// Broadcasts every node's items to every node over `tree`.
///
/// Returns, per node, all items in a globally consistent order, plus the
/// run statistics. `bits` declares the size of one item (the engine
/// checks it against the bandwidth, so items must be `O(log n)` bits —
/// split larger payloads into multiple items).
///
/// Round complexity is `O(M + height(tree))` where `M` is the total item
/// count, matching Lemma 2.4; tests assert the constant.
///
/// Runs on the sharded-parallel engine path: on dense instances the
/// per-node pipeline steps are split across worker threads, with output
/// and [`RunStats`] bit-identical to a sequential run.
///
/// # Panics
///
/// Panics if the protocol fails to quiesce within `4(M + height) + 16`
/// rounds, which would indicate an engine or tree bug.
pub fn broadcast<T: Clone + Send + Sync>(
    net: &mut Network<'_>,
    tree: &BfsTree,
    items: Vec<Vec<T>>,
    bits: impl Fn(&T) -> u64 + Sync,
    phase: &str,
) -> (Vec<Vec<T>>, RunStats) {
    let n = net.node_count();
    assert_eq!(items.len(), n);
    let total: usize = items.iter().map(|i| i.len()).sum();
    let mut proto = BroadcastProtocol {
        shared: BcastShared {
            tree,
            bits,
            expected_total: total,
        },
        nodes: items
            .into_iter()
            .map(|i| BcastNode {
                up_queue: VecDeque::from(i),
                delivered: Vec::new(),
                down_cursor: 0,
            })
            .collect(),
    };
    let budget = 4 * (total as u64 + tree.height) + 16;
    let stats = net
        .run_until_quiet(phase, &mut proto, budget)
        .expect("broadcast quiesces within O(M + D)");
    (
        proto.nodes.into_iter().map(|nd| nd.delivered).collect(),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_tree::build_bfs_tree;
    use graphkit::gen::random_digraph;

    #[test]
    fn everyone_gets_everything_in_same_order() {
        let g = random_digraph(30, 60, 2);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        let items: Vec<Vec<u64>> = (0..30).map(|v| vec![v as u64, 100 + v as u64]).collect();
        let (out, _) = broadcast(&mut net, &tree, items, |_| 16, "bcast");
        assert_eq!(out[0].len(), 60);
        let mut sorted = out[0].clone();
        sorted.sort_unstable();
        let expected: Vec<u64> = (0..30u64).chain(100..130).collect();
        assert_eq!(sorted, expected);
        for v in 1..30 {
            assert_eq!(out[v], out[0], "node {v} must see the same stream");
        }
    }

    #[test]
    fn rounds_linear_in_items_plus_depth() {
        let g = random_digraph(64, 128, 7);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        let m = 50usize;
        let items: Vec<Vec<u64>> = (0..64)
            .map(|v| if v < m { vec![v as u64] } else { vec![] })
            .collect();
        let (_, stats) = broadcast(&mut net, &tree, items, |_| 16, "bcast");
        assert!(
            stats.rounds <= 3 * (m as u64 + tree.height) + 8,
            "rounds {} too high for M={m}, depth={}",
            stats.rounds,
            tree.height
        );
    }

    #[test]
    fn empty_broadcast_is_cheap() {
        let g = random_digraph(20, 30, 1);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        let (out, stats) = broadcast(&mut net, &tree, vec![vec![]; 20], |_: &u64| 8, "bcast");
        assert!(out.iter().all(|o| o.is_empty()));
        assert!(stats.rounds <= 2);
    }

    #[test]
    fn single_origin_many_items() {
        let g = random_digraph(25, 50, 3);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 5).unwrap();
        let mut items: Vec<Vec<u64>> = vec![vec![]; 25];
        items[13] = (0..40).collect();
        let (out, _) = broadcast(&mut net, &tree, items, |_| 16, "bcast");
        for v in 0..25 {
            assert_eq!(out[v], (0..40).collect::<Vec<u64>>());
        }
    }
}
