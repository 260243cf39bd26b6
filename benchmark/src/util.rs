//! Input generators, run settings and process measurements shared by the
//! workloads.

use kv_core::structures::{Digraph, Element, SplitMix64, Structure};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// How long the measured part of a phase runs.
    pub measure: Duration,
    /// Scratch directory for durable engines, inside the checkout.
    pub work_dir: PathBuf,
    /// Set-up repetitions whose median is reported as `setup_s`.
    pub setups: usize,
    /// Shrinks every input for the benchmark's own tests.
    pub small: bool,
}

impl RunConfig {
    /// A seeded generator for one named input stream of this run.
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
    }
}

/// A random digraph on `n` nodes with exactly `m` edges and no
/// self-loops. A fixed edge count keeps the work of instances drawn from
/// different seeds comparable.
pub fn random_gnm(n: usize, m: usize, rng: &mut SplitMix64) -> Digraph {
    let mut g = Digraph::new(n);
    let mut added = 0;
    while added < m.min(n * (n - 1)) {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u != v && g.add_edge(u, v) {
            added += 1;
        }
    }
    g
}

/// A random digraph in which every node has exactly `d` successors.
pub fn random_out_regular(n: usize, d: usize, rng: &mut SplitMix64) -> Digraph {
    let mut g = Digraph::new(n);
    for u in 0..n as u32 {
        let mut added = 0;
        while added < d.min(n - 1) {
            let v = rng.gen_range(0..n as u32);
            if u != v && g.add_edge(u, v) {
                added += 1;
            }
        }
    }
    g
}

/// `blocks` disjoint random digraphs of `k` nodes and `m` edges each: the
/// tenant component graph, where a mutation's blast radius is one
/// component.
pub fn component_edges(blocks: usize, k: usize, m: usize, rng: &mut SplitMix64) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for b in 0..blocks {
        let base = (b * k) as u32;
        edges.extend(
            random_gnm(k, m, rng)
                .edges()
                .map(|(u, v)| (base + u, base + v)),
        );
    }
    edges
}

/// The skewed layered tripartite digraph of the triangle query: complete
/// bipartite stages `L → M → R` of width `m` and `back` random `R → L`
/// edges closing a few triangles. A binary join walks all `m³` paths;
/// the generic join dead-ends on every `L` node without a back edge.
pub fn layered_triangles(m: u32, back: u32, rng: &mut SplitMix64) -> Digraph {
    let mut g = Digraph::new(3 * m as usize);
    for a in 0..m {
        for b in 0..m {
            g.add_edge(a, m + b);
            g.add_edge(m + a, 2 * m + b);
        }
    }
    let mut added = 0;
    while added < back {
        if g.add_edge(2 * m + rng.gen_range(0..m), rng.gen_range(0..m)) {
            added += 1;
        }
    }
    g
}

/// A list of directed edges.
pub type Edges = Vec<(u32, u32)>;

/// The live edge set of a mutating graph, with O(1) uniform sampling of
/// a live edge. Edges are only ever drawn within one block of
/// `block_size` consecutive nodes, and edges in `pinned` never leave.
#[derive(Debug, Clone)]
pub struct EdgeSet {
    edges: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
    pinned: Vec<(u32, u32)>,
    blocks: usize,
    block_size: usize,
}

impl EdgeSet {
    pub fn new(
        edges: &[(u32, u32)],
        pinned: &[(u32, u32)],
        blocks: usize,
        block_size: usize,
    ) -> Self {
        let mut set = EdgeSet {
            edges: Vec::new(),
            index: HashMap::new(),
            pinned: pinned.to_vec(),
            blocks,
            block_size,
        };
        for &e in edges {
            if !pinned.contains(&e) {
                set.insert(e);
            }
        }
        set
    }

    pub fn contains(&self, e: (u32, u32)) -> bool {
        self.index.contains_key(&e) || self.pinned.contains(&e)
    }

    pub fn insert(&mut self, e: (u32, u32)) {
        if !self.contains(e) {
            self.index.insert(e, self.edges.len());
            self.edges.push(e);
        }
    }

    pub fn remove(&mut self, e: (u32, u32)) {
        if let Some(i) = self.index.remove(&e) {
            self.edges.swap_remove(i);
            if let Some(&moved) = self.edges.get(i) {
                self.index.insert(moved, i);
            }
        }
    }

    /// Every live edge, pinned ones included, in a canonical order.
    pub fn all(&self) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = self.edges.iter().chain(&self.pinned).copied().collect();
        v.sort_unstable();
        v
    }

    /// Draws a batch: `ins` absent edges to insert and `ret` live
    /// unpinned edges to retract, each within a random block, plus, with
    /// probability `touch_p`, one live edge both retracted and
    /// re-inserted (a pair the engine's batch coalescing cancels).
    /// Applies the batch to the set (retracts first, like the engines).
    pub fn draw_batch(
        &mut self,
        rng: &mut SplitMix64,
        ins: usize,
        ret: usize,
        touch_p: f64,
    ) -> (Edges, Edges) {
        let mut retracts = Vec::new();
        for _ in 0..ret.min(self.edges.len()) {
            let e = self.edges[rng.gen_range(0..self.edges.len())];
            self.remove(e);
            retracts.push(e);
        }
        let mut inserts = Vec::new();
        for _ in 0..ins {
            if let Some(e) = self.absent_edge(rng, &retracts) {
                self.insert(e);
                inserts.push(e);
            }
        }
        if !self.edges.is_empty() && rng.gen_bool(touch_p) {
            let e = self.edges[rng.gen_range(0..self.edges.len())];
            if !inserts.contains(&e) {
                retracts.push(e);
                inserts.push(e);
            }
        }
        (inserts, retracts)
    }

    /// A random absent edge (not one just retracted), or `None` when 64
    /// draws found none.
    fn absent_edge(&self, rng: &mut SplitMix64, avoid: &[(u32, u32)]) -> Option<(u32, u32)> {
        let k = self.block_size as u32;
        for _ in 0..64 {
            let base = rng.gen_range(0..self.blocks as u32) * k;
            let (u, v) = (base + rng.gen_range(0..k), base + rng.gen_range(0..k));
            if u != v && !self.contains((u, v)) && !avoid.contains(&(u, v)) {
                return Some((u, v));
            }
        }
        None
    }
}

/// A tuple as engine elements.
pub fn pair(e: (u32, u32)) -> Vec<Element> {
    vec![e.0, e.1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sizes of the regular files in `dir`, by name.
pub fn file_sizes(dir: &Path) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(meta) = e.metadata() {
                if meta.is_file() {
                    out.insert(e.file_name().to_string_lossy().into_owned(), meta.len());
                }
            }
        }
    }
    out
}

/// Bytes written between two listings of a directory: growth of files
/// present in both plus the full size of new files.
pub fn bytes_written(before: &HashMap<String, u64>, after: &HashMap<String, u64>) -> u64 {
    after
        .iter()
        .map(|(name, &len)| len.saturating_sub(before.get(name).copied().unwrap_or(0)))
        .sum()
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// A structure over `template`'s vocabulary and universe holding exactly
/// `edges` in relation 0.
pub fn with_edges(template: &Structure, edges: &[(u32, u32)]) -> Structure {
    let mut s = Structure::new(template.vocabulary().clone(), template.universe_size());
    let rel = kv_core::structures::RelId(0);
    for &e in edges {
        s.insert(rel, &[e.0, e.1]);
    }
    s
}

/// Content fingerprint of the program sources the benchmark was built
/// from (the checkout carries no version-control metadata): FNV-1a over
/// the path and bytes of every `.rs` and `Cargo.toml` file under
/// `crates/`, in sorted path order.
pub fn source_revision(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(root.join(f)).unwrap_or_default());
    }
    format!("src-{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            if let Some(rel) = path
                .components()
                .skip_while(|c| c.as_os_str() != "crates")
                .collect::<PathBuf>()
                .to_str()
            {
                out.push(PathBuf::from(rel));
            }
        }
    }
}
