//! A tiny text format for digraphs with distinguished nodes.
//!
//! ```text
//! # comment lines start with '#'
//! nodes 5
//! 0 1
//! 1 2
//! 2 4
//! distinguished 0 4
//! ```
//!
//! `nodes` must come first; each following bare line is an edge; an
//! optional `distinguished` line lists the distinguished nodes in order.
//! Used by the CLI and handy for ad-hoc experiments.
//!
//! Parsing is total: malformed input yields a structured
//! [`DigraphParseError`] carrying the 1-based line and column of the
//! offending token — never a panic (property-tested on arbitrary input).
//! A node count above [`MAX_NODES`] is such an error, so a short input
//! cannot ask for gigabytes of adjacency lists.

use crate::graph::Digraph;
use std::fmt;
use std::fmt::Write as _;

/// The largest `nodes` count [`parse_digraph`] accepts: 2^20 nodes, about
/// 48 MB of empty adjacency vectors.
pub const MAX_NODES: usize = 1 << 20;

/// A parse failure with source position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigraphParseError {
    /// 1-based line of the offending token (0 for whole-input errors).
    pub line: usize,
    /// 1-based column of the offending token (0 for whole-line errors).
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl DigraphParseError {
    fn at(line: usize, col: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for DigraphParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.col) {
            (0, _) => write!(f, "{}", self.message),
            (l, 0) => write!(f, "line {l}: {}", self.message),
            (l, c) => write!(f, "line {l}, col {c}: {}", self.message),
        }
    }
}

impl std::error::Error for DigraphParseError {}

/// Whitespace-separated tokens of a line, each with its 1-based column.
fn tokens(line: &str) -> impl Iterator<Item = (usize, &str)> {
    line.split_whitespace().map(move |tok| {
        // Safe: split_whitespace yields subslices of `line`.
        let col = tok.as_ptr() as usize - line.as_ptr() as usize + 1;
        (col, tok)
    })
}

fn parse_u32(lineno: usize, col: usize, tok: &str, what: &str) -> Result<u32, DigraphParseError> {
    tok.parse()
        .map_err(|e| DigraphParseError::at(lineno, col, format!("invalid {what} {tok:?}: {e}")))
}

/// Parses the edge-list format.
pub fn parse_digraph(text: &str) -> Result<Digraph, DigraphParseError> {
    let mut graph: Option<Digraph> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = tokens(raw);
        let Some((head_col, head)) = parts.next() else {
            continue; // unreachable after the trim check, but never panic
        };
        match head {
            "nodes" => {
                if graph.is_some() {
                    return Err(DigraphParseError::at(lineno, head_col, "duplicate 'nodes'"));
                }
                let Some((col, tok)) = parts.next() else {
                    return Err(DigraphParseError::at(lineno, 0, "missing node count"));
                };
                let n = parse_u32(lineno, col, tok, "node count")? as usize;
                if n > MAX_NODES {
                    return Err(DigraphParseError::at(
                        lineno,
                        col,
                        format!("node count {n} exceeds the limit {MAX_NODES}"),
                    ));
                }
                if let Some((col, tok)) = parts.next() {
                    return Err(DigraphParseError::at(
                        lineno,
                        col,
                        format!("trailing token {tok:?}"),
                    ));
                }
                graph = Some(Digraph::new(n));
            }
            "distinguished" => {
                let g = graph.as_mut().ok_or_else(|| {
                    DigraphParseError::at(lineno, head_col, "'nodes' must come first")
                })?;
                let n = g.node_count() as u32;
                let mut nodes = Vec::new();
                for (col, tok) in parts {
                    let v = parse_u32(lineno, col, tok, "distinguished node")?;
                    if v >= n {
                        return Err(DigraphParseError::at(
                            lineno,
                            col,
                            format!("distinguished node {v} out of range (< {n})"),
                        ));
                    }
                    nodes.push(v);
                }
                g.set_distinguished(nodes);
            }
            u_tok => {
                let g = graph.as_mut().ok_or_else(|| {
                    DigraphParseError::at(lineno, head_col, "'nodes' must come first")
                })?;
                let n = g.node_count() as u32;
                let u = parse_u32(lineno, head_col, u_tok, "edge tail")?;
                let Some((v_col, v_tok)) = parts.next() else {
                    return Err(DigraphParseError::at(lineno, 0, "missing edge head"));
                };
                let v = parse_u32(lineno, v_col, v_tok, "edge head")?;
                if u >= n {
                    return Err(DigraphParseError::at(
                        lineno,
                        head_col,
                        format!("edge ({u},{v}) out of range (< {n})"),
                    ));
                }
                if v >= n {
                    return Err(DigraphParseError::at(
                        lineno,
                        v_col,
                        format!("edge ({u},{v}) out of range (< {n})"),
                    ));
                }
                if let Some((col, tok)) = parts.next() {
                    return Err(DigraphParseError::at(
                        lineno,
                        col,
                        format!("trailing token {tok:?}"),
                    ));
                }
                g.add_edge(u, v);
            }
        }
    }
    graph.ok_or_else(|| DigraphParseError::at(0, 0, "missing 'nodes' line"))
}

/// Serializes a digraph to the edge-list format.
pub fn write_digraph(g: &Digraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "nodes {}", g.node_count());
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.sort_unstable();
    for (u, v) in edges {
        let _ = writeln!(out, "{u} {v}");
    }
    if !g.distinguished().is_empty() {
        let parts: Vec<String> = g.distinguished().iter().map(u32::to_string).collect();
        let _ = writeln!(out, "distinguished {}", parts.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 2);
        g.set_distinguished(vec![0, 3]);
        let text = write_digraph(&g);
        let g2 = parse_digraph(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nnodes 3\n0 1\n# middle\n1 2\n";
        let g = parse_digraph(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn error_cases() {
        assert!(parse_digraph("0 1\n").is_err()); // nodes missing
        assert!(parse_digraph("nodes 2\n0 5\n").is_err()); // out of range
        assert!(parse_digraph("nodes 2\n0\n").is_err()); // half an edge
        assert!(parse_digraph("nodes 2\ndistinguished 7\n").is_err());
        assert!(parse_digraph("nodes 2\nnodes 3\n").is_err());
        assert!(parse_digraph("").is_err());
        assert!(parse_digraph("nodes 2\n0 1 9\n").is_err()); // trailing token
    }

    #[test]
    fn node_counts_above_the_limit_are_refused_before_allocating() {
        // Two adjacency vectors per node would ask for about 200 GB here.
        let e = parse_digraph("nodes 4294967295\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 7));
        assert!(e.message.contains("exceeds the limit"), "{e}");
        let over = format!("# big\n  nodes {}\n", MAX_NODES + 1);
        assert_eq!(parse_digraph(&over).unwrap_err().col, 9);
    }

    #[test]
    fn fuzzed_inputs_never_panic() {
        let valid = [
            "# header\nnodes 5\n0 1\n1 2\n2 4\ndistinguished 0 4\n",
            "nodes 3\n\n0 1\n  1 2  \n2 0\n",
            "nodes 12\n10 11\n3 9\ndistinguished 11\n",
        ];
        let mut rng = crate::SplitMix64::seed_from_u64(0xD16A_F022);
        for _ in 0..20_000 {
            let text = rng.fuzz_text(&valid);
            let parsed = std::panic::catch_unwind(|| parse_digraph(&text));
            assert!(parsed.is_ok(), "parse_digraph panicked on {text:?}");
        }
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = parse_digraph("nodes 3\n0 1\n0 zap\n").unwrap_err();
        assert_eq!((e.line, e.col), (3, 3));
        assert!(e.to_string().contains("line 3, col 3"));
        assert!(e.to_string().contains("zap"));

        let e = parse_digraph("nodes 3\n  0 1 extra\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 7); // column of "extra" in the raw line
        assert!(e.message.contains("extra"));

        let e = parse_digraph("nodes 2\ndistinguished 0 9\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 17));

        let e = parse_digraph("").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.to_string().contains("missing 'nodes'"));
    }
}
