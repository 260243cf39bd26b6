//! Maximum flow (Edmonds–Karp) and node-capacitated networks.
//!
//! Theorem 6.1's reduction views the input graph "as an appropriate directed
//! network with **node capacities**" and asks whether it carries a flow at
//! least the out-degree `k` of the pattern root. [`NodeCapNetwork`] realizes
//! node capacities by the classic in/out node-splitting, and
//! [`NodeCapNetwork::disjoint_paths`] decomposes an integral max flow into
//! the node-disjoint path system the Menger / Max-Flow Min-Cut argument
//! guarantees.

use kv_structures::govern::{Governor, Interrupted};
use kv_structures::Digraph;
use std::collections::VecDeque;

/// A directed flow network with integer capacities, stored as paired
/// edge/reverse-edge entries for residual bookkeeping.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// `(to, capacity)` per directed arc; arc `i ^ 1` is the reverse of `i`.
    arcs: Vec<(u32, i64)>,
    /// Arc indices leaving each node.
    adj: Vec<Vec<usize>>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        Self {
            arcs: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Adds an arc `u -> v` with capacity `cap` (and its residual reverse).
    /// Returns the arc index.
    pub fn add_arc(&mut self, u: u32, v: u32, cap: i64) -> usize {
        assert!(cap >= 0, "negative capacity");
        let id = self.arcs.len();
        self.arcs.push((v, cap));
        self.arcs.push((u, 0));
        self.adj[u as usize].push(id);
        self.adj[v as usize].push(id + 1);
        id
    }

    /// Runs Edmonds–Karp from `s` to `t`, mutating residual capacities.
    /// Returns the max-flow value.
    pub fn max_flow(&mut self, s: u32, t: u32) -> i64 {
        match self.try_max_flow(s, t, &Governor::unlimited()) {
            Ok(flow) => flow,
            Err(e) => unreachable!("unlimited governor interrupted: {e}"),
        }
    }

    /// Governed [`max_flow`](Self::max_flow): checks the governor between
    /// augmenting iterations and charges one step per BFS edge scan. On
    /// interrupt the network keeps the flow pushed so far — the residual
    /// capacities *are* the checkpoint — so calling `try_max_flow` again
    /// with a fresh or relaxed governor continues augmenting and returns
    /// the **additional** flow; the final residual state is identical to
    /// an uninterrupted run.
    pub fn try_max_flow(&mut self, s: u32, t: u32, gov: &Governor) -> Result<i64, Interrupted> {
        assert_ne!(s, t, "source equals sink");
        let n = self.node_count();
        let mut total = 0i64;
        loop {
            gov.check()?;
            // BFS for a shortest augmenting path.
            let mut scanned = 0u64;
            let mut pred: Vec<Option<usize>> = vec![None; n];
            let mut seen = vec![false; n];
            seen[s as usize] = true;
            let mut queue = VecDeque::new();
            queue.push_back(s);
            'bfs: while let Some(u) = queue.pop_front() {
                scanned += self.adj[u as usize].len() as u64;
                for &a in &self.adj[u as usize] {
                    let (v, cap) = self.arcs[a];
                    if cap > 0 && !seen[v as usize] {
                        seen[v as usize] = true;
                        pred[v as usize] = Some(a);
                        if v == t {
                            break 'bfs;
                        }
                        queue.push_back(v);
                    }
                }
            }
            if !seen[t as usize] {
                return Ok(total);
            }
            // Charge before augmenting: an interrupt here discards only
            // the (recomputable) BFS, never a half-applied augmentation.
            gov.step(scanned)?;
            // Bottleneck. The BFS reached `t`, so every node on the path
            // back to `s` has a predecessor arc.
            let mut bottleneck = i64::MAX;
            let mut v = t;
            #[allow(clippy::unwrap_used)]
            while v != s {
                let a = pred[v as usize].unwrap();
                bottleneck = bottleneck.min(self.arcs[a].1);
                v = self.arcs[a ^ 1].0;
            }
            // Augment.
            let mut v = t;
            #[allow(clippy::unwrap_used)]
            while v != s {
                let a = pred[v as usize].unwrap();
                self.arcs[a].1 -= bottleneck;
                self.arcs[a ^ 1].1 += bottleneck;
                v = self.arcs[a ^ 1].0;
            }
            total += bottleneck;
        }
    }

    /// After [`max_flow`](Self::max_flow), the flow pushed on arc `id` (forward arcs only).
    pub fn flow_on(&self, id: usize) -> i64 {
        debug_assert_eq!(id % 2, 0, "flow_on takes forward-arc indices");
        self.arcs[id ^ 1].1
    }

    /// After [`max_flow`](Self::max_flow), the set of nodes reachable from `s` in the
    /// residual graph — the source side of a minimum cut.
    pub fn residual_reachable(&self, s: u32) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        seen[s as usize] = true;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &a in &self.adj[u as usize] {
                let (v, cap) = self.arcs[a];
                if cap > 0 && !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }
}

/// A node-capacitated view of a [`Digraph`]: each graph node `v` becomes
/// `v_in = 2v` and `v_out = 2v + 1` joined by an arc of the node's capacity;
/// each graph edge `u -> v` becomes `u_out -> v_in` with unlimited capacity.
///
/// This is exactly the construction by which Fortune et al. (and Theorem
/// 6.1) turn node-disjointness into flow.
#[derive(Debug, Clone)]
pub struct NodeCapNetwork {
    net: FlowNetwork,
    /// Arc index of the `v_in -> v_out` splitter arc for each node.
    splitter: Vec<usize>,
    /// Arc indices of graph edges, with their endpoints.
    edge_arcs: Vec<(u32, u32, usize)>,
    /// Index of the auxiliary super-sink, if one was added.
    super_sink: Option<u32>,
}

const INF: i64 = i64::MAX / 4;

impl NodeCapNetwork {
    /// Builds the split network. `node_cap(v)` gives each node's capacity.
    pub fn build(g: &Digraph, node_cap: impl Fn(u32) -> i64) -> Self {
        let mut net = FlowNetwork::new(2 * g.node_count());
        let mut splitter = Vec::with_capacity(g.node_count());
        for v in g.nodes() {
            splitter.push(net.add_arc(2 * v, 2 * v + 1, node_cap(v)));
        }
        let mut edge_arcs = Vec::with_capacity(g.edge_count());
        for (u, v) in g.edges() {
            let a = net.add_arc(2 * u + 1, 2 * v, INF);
            edge_arcs.push((u, v, a));
        }
        Self {
            net,
            splitter,
            edge_arcs,
            super_sink: None,
        }
    }

    /// Adds a super-sink with an arc of capacity 1 from each target's
    /// out-node. Call before [`run`](Self::run) when computing a fan.
    pub fn add_unit_sink(&mut self, targets: &[u32]) -> u32 {
        let t = self.net.node_count() as u32;
        self.net.adj.push(Vec::new());
        for &v in targets {
            self.net.add_arc(2 * v + 1, t, 1);
        }
        self.super_sink = Some(t);
        t
    }

    /// Runs max flow from the out-node of `source` to `sink` (a raw network
    /// node id, e.g. the result of [`add_unit_sink`](Self::add_unit_sink) or
    /// `2 * v` for a graph node `v`'s in-node).
    pub fn run(&mut self, source: u32, sink_raw: u32) -> i64 {
        self.net.max_flow(2 * source + 1, sink_raw)
    }

    /// Governed [`run`](Self::run): see [`FlowNetwork::try_max_flow`] for
    /// the interrupt and resume semantics.
    pub fn try_run(
        &mut self,
        source: u32,
        sink_raw: u32,
        gov: &Governor,
    ) -> Result<i64, Interrupted> {
        self.net.try_max_flow(2 * source + 1, sink_raw, gov)
    }

    /// After [`run`](Self::run), decomposes the integral flow into
    /// node-disjoint paths in the original graph, starting at `source`.
    /// Each returned path is a node sequence `source, …, target` following
    /// saturated edges. Node capacities must have been 1 on all interior
    /// nodes for the node-disjointness guarantee to hold.
    pub fn disjoint_paths(&self, source: u32) -> Vec<Vec<u32>> {
        // Successor map along flow-carrying edges.
        let n = self.splitter.len();
        let mut next: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v, a) in &self.edge_arcs {
            let f = self.net.flow_on(a);
            for _ in 0..f {
                next[u as usize].push(v);
            }
        }
        let mut paths = Vec::new();
        // The flow out of `source` splits into unit paths; peel them off.
        while let Some(&first) = next[source as usize].last() {
            next[source as usize].pop();
            let mut path = vec![source, first];
            let mut cur = first;
            // Follow until a node with no outgoing flow (a target whose
            // sink arc absorbed the unit).
            while let Some(&nxt) = next[cur as usize].last() {
                next[cur as usize].pop();
                path.push(nxt);
                cur = nxt;
            }
            paths.push(path);
        }
        paths
    }

    /// After [`run`](Self::run), the set of graph nodes whose splitter arc is
    /// saturated and crosses the minimum cut — a minimum **vertex** cut
    /// separating source from targets (Menger's theorem's cut side).
    pub fn min_vertex_cut(&self, source: u32) -> Vec<u32> {
        let reach = self.net.residual_reachable(2 * source + 1);
        let mut cut = Vec::new();
        for (v, &a) in self.splitter.iter().enumerate() {
            let v_in = 2 * v;
            let v_out = 2 * v + 1;
            if reach[v_in] && !reach[v_out] && self.net.flow_on(a) > 0 {
                cut.push(v as u32);
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kv_structures::generators::directed_path_graph;

    #[test]
    fn unit_path_network() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 1);
        net.add_arc(1, 2, 1);
        assert_eq!(net.max_flow(0, 2), 1);
    }

    #[test]
    fn parallel_paths_add_up() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3);
        net.add_arc(1, 3, 2);
        net.add_arc(0, 2, 2);
        net.add_arc(2, 3, 5);
        assert_eq!(net.max_flow(0, 3), 4);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS-style example with a known max flow of 23.
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 16);
        net.add_arc(0, 2, 13);
        net.add_arc(1, 2, 10);
        net.add_arc(2, 1, 4);
        net.add_arc(1, 3, 12);
        net.add_arc(3, 2, 9);
        net.add_arc(2, 4, 14);
        net.add_arc(4, 3, 7);
        net.add_arc(3, 5, 20);
        net.add_arc(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn node_capacity_bottleneck() {
        // Two edge-disjoint s -> t routes sharing a middle node of cap 1.
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 3);
        g.add_edge(0, 1); // duplicate ignored by Digraph
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let mut net = NodeCapNetwork::build(&g, |v| if v == 0 || v == 3 { INF } else { 1 });
        let flow = net.run(0, 2 * 3);
        assert_eq!(flow, 1, "node 1 is a 1-cut despite two edge routes");
    }

    #[test]
    fn fan_with_unit_sink_and_path_extraction() {
        // Star: 0 -> {1, 2, 3} via disjoint two-hop paths.
        let mut g = Digraph::new(7);
        for (i, mid, t) in [(0u32, 4u32, 1u32), (0, 5, 2), (0, 6, 3)] {
            g.add_edge(i, mid);
            g.add_edge(mid, t);
        }
        let targets = [1u32, 2, 3];
        let mut net = NodeCapNetwork::build(&g, |v| if v == 0 { 3 } else { 1 });
        let sink = net.add_unit_sink(&targets);
        assert_eq!(net.run(0, sink), 3);
        let mut paths = net.disjoint_paths(0);
        paths.sort();
        assert_eq!(paths.len(), 3);
        // Pairwise node-disjoint except the shared source.
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                for x in &paths[i][1..] {
                    assert!(!paths[j][1..].contains(x));
                }
            }
        }
        for p in &paths {
            assert_eq!(p.len(), 3);
            assert_eq!(p[0], 0);
            assert!(targets.contains(p.last().unwrap()));
        }
    }

    #[test]
    fn min_vertex_cut_on_hourglass() {
        // 0 -> {1,2} -> 3 -> {4,5}; the cut is {3}.
        let mut g = Digraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(3, 5);
        let targets = [4u32, 5];
        let mut net = NodeCapNetwork::build(&g, |v| if v == 0 { 2 } else { 1 });
        let sink = net.add_unit_sink(&targets);
        assert_eq!(net.run(0, sink), 1);
        assert_eq!(net.min_vertex_cut(0), vec![3]);
    }

    #[test]
    fn single_path_graph_flow_is_one() {
        let g = directed_path_graph(6);
        let mut net = NodeCapNetwork::build(&g, |v| if v == 0 { 10 } else { 1 });
        let sink = net.add_unit_sink(&[5]);
        assert_eq!(net.run(0, sink), 1);
        let paths = net.disjoint_paths(0);
        assert_eq!(paths, vec![vec![0, 1, 2, 3, 4, 5]]);
    }
}
