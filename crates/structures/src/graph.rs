//! A thin directed-graph type bridging to [`Structure`].
//!
//! The case study of Section 6 is entirely about directed graphs with
//! distinguished nodes. [`Digraph`] stores adjacency lists (fast iteration
//! for the graph algorithms in `kv-graphalg`) and converts losslessly to a
//! [`Structure`] over the vocabulary `{E/2, s1, …, sk}` for the logic and
//! game machinery.

use crate::structure::Structure;
use crate::vocabulary::{ConstId, RelId, Vocabulary};
use std::collections::HashSet;
use std::sync::Arc;

/// A finite directed graph with nodes `0, …, n-1`, no parallel edges, and an
/// ordered list of distinguished nodes.
///
/// Self-loops are allowed (the paper's class `C` explicitly discusses roots
/// with self-loops).
///
/// ```
/// use kv_structures::Digraph;
///
/// let mut g = Digraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.set_distinguished(vec![0, 2]);
/// let s = g.to_structure(); // {E/2, s1, s2} structure
/// assert_eq!(s.constant_values(), &[0, 2]);
/// assert_eq!(Digraph::from_structure(&s), g);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Digraph {
    out_edges: Vec<Vec<u32>>,
    in_edges: Vec<Vec<u32>>,
    edge_set: HashSet<(u32, u32)>,
    distinguished: Vec<u32>,
}

/// Equality is semantic: same node count, same edge *set* (adjacency-list
/// order is an implementation detail), same distinguished list.
impl PartialEq for Digraph {
    fn eq(&self, other: &Self) -> bool {
        self.out_edges.len() == other.out_edges.len()
            && self.edge_set == other.edge_set
            && self.distinguished == other.distinguished
    }
}

impl Eq for Digraph {}

impl Digraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            out_edges: vec![Vec::new(); n],
            in_edges: vec![Vec::new(); n],
            edge_set: HashSet::new(),
            distinguished: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out_edges.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_set.len()
    }

    /// Iterates over nodes.
    pub fn nodes(&self) -> impl Iterator<Item = u32> {
        0..self.out_edges.len() as u32
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> u32 {
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        (self.out_edges.len() - 1) as u32
    }

    /// Adds `count` fresh nodes and returns the id of the first.
    pub fn add_nodes(&mut self, count: usize) -> u32 {
        let first = self.out_edges.len() as u32;
        for _ in 0..count {
            self.add_node();
        }
        first
    }

    /// Adds the edge `u -> v`; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if `u` or `v` is not a node.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        let n = self.node_count() as u32;
        assert!(u < n && v < n, "edge ({u},{v}) outside node range 0..{n}");
        if self.edge_set.insert((u, v)) {
            self.out_edges[u as usize].push(v);
            self.in_edges[v as usize].push(u);
            true
        } else {
            false
        }
    }

    /// Tests for the edge `u -> v`.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.edge_set.contains(&(u, v))
    }

    /// Out-neighbours of `u`.
    pub fn successors(&self, u: u32) -> &[u32] {
        &self.out_edges[u as usize]
    }

    /// In-neighbours of `u`.
    pub fn predecessors(&self, u: u32) -> &[u32] {
        &self.in_edges[u as usize]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: u32) -> usize {
        self.out_edges[u as usize].len()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: u32) -> usize {
        self.in_edges[u as usize].len()
    }

    /// Iterates over all edges in an unspecified but deterministic order
    /// (sorted by source, then insertion order).
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.out_edges
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as u32, v)))
    }

    /// The ordered list of distinguished nodes.
    pub fn distinguished(&self) -> &[u32] {
        &self.distinguished
    }

    /// Replaces the distinguished-node list.
    ///
    /// # Panics
    /// Panics if any listed node does not exist.
    pub fn set_distinguished(&mut self, nodes: Vec<u32>) {
        let n = self.node_count() as u32;
        assert!(nodes.iter().all(|&v| v < n), "distinguished node missing");
        self.distinguished = nodes;
    }

    /// Converts to a [`Structure`] over `{E/2}` plus one constant per
    /// distinguished node.
    pub fn to_structure(&self) -> Structure {
        let vocab = Arc::new(Vocabulary::graph_with_constants(self.distinguished.len()));
        self.to_structure_with(vocab)
    }

    /// Converts to a [`Structure`] over the supplied vocabulary, which must
    /// be `{E/2}` plus exactly one constant per distinguished node. Sharing
    /// one vocabulary across many graphs keeps game configurations
    /// comparable.
    pub fn to_structure_with(&self, vocab: Arc<Vocabulary>) -> Structure {
        assert_eq!(vocab.relation_count(), 1, "expected a single relation E");
        assert_eq!(vocab.arity(RelId(0)), 2, "E must be binary");
        assert_eq!(
            vocab.constant_count(),
            self.distinguished.len(),
            "constant count must match distinguished nodes"
        );
        let mut s = Structure::new(vocab, self.node_count().max(1));
        for (u, v) in self.edges() {
            s.insert(RelId(0), &[u, v]);
        }
        for (i, &d) in self.distinguished.iter().enumerate() {
            s.set_constant(ConstId(i), d);
        }
        s
    }

    /// Builds a digraph from a structure over a graph vocabulary (one binary
    /// relation, any number of constants).
    pub fn from_structure(s: &Structure) -> Self {
        let vocab = s.vocabulary();
        assert_eq!(vocab.relation_count(), 1, "expected a single relation");
        assert_eq!(vocab.arity(RelId(0)), 2, "relation must be binary");
        let mut g = Self::new(s.universe_size());
        for t in s.relation(RelId(0)).iter() {
            g.add_edge(t[0], t[1]);
        }
        g.distinguished = s.constant_values().to_vec();
        g
    }

    /// Renders the graph in Graphviz DOT format. Distinguished nodes are
    /// labelled and doubly circled; `names` may provide human-readable node
    /// labels.
    pub fn to_dot(&self, title: &str, names: &dyn Fn(u32) -> Option<String>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=TB;");
        for v in self.nodes() {
            let label = names(v).unwrap_or_else(|| v.to_string());
            let dist = self.distinguished.iter().position(|&d| d == v);
            match dist {
                Some(i) => {
                    let _ = writeln!(
                        out,
                        "  n{v} [label=\"{label}\\ns{}\", shape=doublecircle];",
                        i + 1
                    );
                }
                None => {
                    let _ = writeln!(out, "  n{v} [label=\"{label}\"];");
                }
            }
        }
        let mut edges: Vec<(u32, u32)> = self.edges().collect();
        edges.sort_unstable();
        for (u, v) in edges {
            let _ = writeln!(out, "  n{u} -> n{v};");
        }
        out.push_str("}\n");
        out
    }
}

/// An element-renaming view used when composing graphs: maps old node ids to
/// new ones while copying edges.
pub fn copy_into(dst: &mut Digraph, src: &Digraph) -> Vec<u32> {
    let mapping: Vec<u32> = (0..src.node_count()).map(|_| dst.add_node()).collect();
    for (u, v) in src.edges() {
        dst.add_edge(mapping[u as usize], mapping[v as usize]);
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = Digraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(g.add_edge(2, 2)); // self-loop allowed
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(2, 2));
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.predecessors(2), &[1, 2]);
        assert_eq!(g.out_degree(2), 1);
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    fn structure_roundtrip() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.set_distinguished(vec![0, 3]);
        let s = g.to_structure();
        assert_eq!(s.universe_size(), 4);
        assert_eq!(s.tuple_count(), 3);
        assert_eq!(s.constant_values(), &[0, 3]);
        let g2 = Digraph::from_structure(&s);
        assert_eq!(g, g2);
    }

    #[test]
    fn copy_into_remaps() {
        let mut dst = Digraph::new(2);
        dst.add_edge(0, 1);
        let mut src = Digraph::new(2);
        src.add_edge(0, 1);
        let mapping = copy_into(&mut dst, &src);
        assert_eq!(mapping, vec![2, 3]);
        assert!(dst.has_edge(2, 3));
        assert_eq!(dst.edge_count(), 2);
    }

    #[test]
    fn dot_output_mentions_distinguished() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.set_distinguished(vec![1]);
        let dot = g.to_dot("t", &|_| None);
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("n0 -> n1;"));
    }

    #[test]
    #[should_panic(expected = "outside node range")]
    fn edge_out_of_range_panics() {
        let mut g = Digraph::new(1);
        g.add_edge(0, 1);
    }
}
