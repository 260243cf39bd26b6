//! Query planning: the predicate dependency graph, its strongly connected
//! components, and the `RunPlan` every evaluation runs.
//!
//! Theorem 3.6 fixes what a stage derives, not the order a rule body is
//! joined in, so textual and cost-based evaluation are two plans run by one
//! stage loop. This module is the only code that reads
//! [`kv_structures::PlannerMode`]: from-scratch runs and the incremental
//! engine's insertion pass get their plan from one entry, `plan`, which
//! borrows the written (textual) plan or re-plans it. A plan carries all
//! the modes differ in: atom order, kernels, probe memos and batched
//! emission, Bloom pre-filters, and which rules a stage skips.
//!
//! - **SCC stratum schedule.** [`SccInfo`] computes the IDB dependency
//!   graph (head depends on body predicates), its SCCs (iterative Tarjan),
//!   and a topological stratum order. Within the engine's global stage
//!   loop — which must be kept *exactly* as the paper defines it, because
//!   the Theorem 3.6 experiments compare Datalog stages against `L^k`
//!   stage formulas tuple set by tuple set — the schedule manifests as
//!   work-avoidance: a cost-based plan skips a rule with any provably-empty
//!   source before a single probe is issued, so not-yet-populated
//!   downstream strata and already-converged upstream strata cost nothing.
//! - **Cardinality-driven join ordering.** A cost-based plan orders each
//!   body greedily by estimated selectivity (bound-position coverage ×
//!   [`CardStats`] estimates), with the semi-naive delta atom pinned first
//!   and ≠-constraints re-hoisted to their earliest fully-bound point. Atom
//!   order within a body is semantics-free — the set of satisfying
//!   assignments of a conjunction does not depend on the order its
//!   conjuncts are enumerated — so every stage derives the same tuple set
//!   as the written order (property-tested via `same_stages`).
//! - **Kernel selection.** Each planned atom gets the cheapest applicable
//!   join kernel: a single interner lookup when every argument is bound, a
//!   merged two-position posting intersection, a one-position index probe,
//!   or the full-scan fallback. Rules whose head is fully bound before the
//!   last atom also get an early-exit point: once the head tuple is known
//!   to exist, the remaining atoms would only re-verify a derivation that
//!   adds nothing.
//!
//! Plans are pure functions of `(program, EDB statistics, options)`, so
//! governed interrupt/resume re-derives them deterministically, and
//! [`CompiledProgram::explain`]/[`CompiledProgram::explain_for`] render
//! them for golden tests and review diffs.

use crate::ast::{Pred, Term};
use crate::eval::{
    schedule_neqs, CompiledProgram, CompiledRule, EvalOptions, IdbAccess, JoinAtom, JoinKernel,
};
use crate::program::Program;
use crate::wcoj;
use kv_structures::store::{CardStats, TupleStore};
use kv_structures::{JoinLowering, PlannerMode, Structure};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;

/// How much larger than the final estimate the largest predicted binary
/// intermediate must be before [`JoinLowering::Auto`] switches a cyclic
/// rule to the generic join.
const BLOWUP_FACTOR: f64 = 1.5;

/// The strongly connected components of a program's IDB dependency graph,
/// in topological stratum order.
///
/// There is an edge `p → q` when some rule for `p` mentions `q` in its
/// body ("`p` depends on `q`"). Components are numbered in dependency
/// order: every predicate a component depends on lives in a component
/// with a smaller or equal stratum number, so evaluating strata in order
/// `0, 1, …` is a valid schedule.
#[derive(Debug, Clone)]
pub struct SccInfo {
    /// Stratum (component) id of each IDB predicate.
    scc_of: Vec<usize>,
    /// Member predicates of each component, in stratum order.
    members: Vec<Vec<usize>>,
    /// Whether each component is recursive (size > 1, or a self-loop).
    recursive: Vec<bool>,
}

impl SccInfo {
    /// Computes the SCC decomposition of `program`'s IDB dependency graph
    /// with an iterative Tarjan pass.
    pub fn of_program(program: &Program) -> Self {
        let n = program.idb_count();
        // Dependency adjacency: head -> body IDB predicates (deduplicated).
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for rule in program.rules() {
            for (pred, _) in rule.atoms() {
                if let Pred::Idb(q) = pred {
                    if !deps[rule.head.0].contains(&q.0) {
                        deps[rule.head.0].push(q.0);
                    }
                }
            }
        }
        // Iterative Tarjan. Because edges point at dependencies, a
        // component is emitted only after every component it depends on,
        // so emission order *is* the stratum order.
        const UNVISITED: usize = usize::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut scc_of = vec![0usize; n];
        // Explicit DFS frames: (node, next child position).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            frames.push((root, 0));
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(&mut (v, ref mut child)) = frames.last_mut() {
                if *child < deps[v].len() {
                    let w = deps[v][*child];
                    *child += 1;
                    if index[w] == UNVISITED {
                        frames.push((w, 0));
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let mut component = Vec::new();
                        loop {
                            #[allow(clippy::expect_used)]
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        component.sort_unstable();
                        for &w in &component {
                            scc_of[w] = members.len();
                        }
                        members.push(component);
                    }
                }
            }
        }
        let recursive: Vec<bool> = members
            .iter()
            .map(|component| component.len() > 1 || component.iter().any(|&p| deps[p].contains(&p)))
            .collect();
        SccInfo {
            scc_of,
            members,
            recursive,
        }
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// The stratum (component) id of IDB predicate `idb`.
    pub fn component_of(&self, idb: usize) -> usize {
        self.scc_of[idb]
    }

    /// The member predicates of component `scc`, sorted.
    pub fn members(&self, scc: usize) -> &[usize] {
        &self.members[scc]
    }

    /// Whether component `scc` is recursive (its predicates feed back into
    /// themselves, so deltas circulate within it across stages).
    pub fn is_recursive(&self, scc: usize) -> bool {
        self.recursive[scc]
    }

    /// The components whose predicates carry tuples not yet consumed as a
    /// delta — the live set of the stratum schedule at a stage boundary
    /// (recorded into checkpoints by governed runs).
    pub(crate) fn active_components(&self, delta_lo: &[u32], stores: &[TupleStore]) -> Vec<u32> {
        let mut active: Vec<u32> = delta_lo
            .iter()
            .zip(stores)
            .enumerate()
            .filter(|(_, (&lo, store))| (lo as usize) < store.len())
            .map(|(i, _)| self.scc_of[i] as u32)
            .collect();
        active.sort_unstable();
        active.dedup();
        active
    }
}

/// A rule set ready to run, and how a stage runs it.
#[derive(Debug, Clone)]
pub(crate) struct RunPlan {
    /// Stage-one rules: a from-scratch run's naive rules, or a maintenance
    /// insertion pass's EDB-delta variants.
    pub(crate) naive_rules: Vec<CompiledRule>,
    /// The semi-naive IDB-delta variants every later stage runs.
    pub(crate) semi_variants: Vec<CompiledRule>,
    /// Whether a from-scratch run keeps Bloom pre-filters over the IDBs'
    /// committed tuples, sparing interner lookups on the emit paths.
    pub(crate) blooms: bool,
    /// Which rules a stage skips.
    pub(crate) fire: Fire,
}

/// Which of a stage's rules run. A rule that reads an empty window derives
/// nothing, so skipping it changes no stage, only the work counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fire {
    /// Skip a rule whose first atom is a delta with an empty window: the
    /// written plan's filter, which counts probes as the seed engine did.
    Seed,
    /// Skip a rule with any empty window.
    AllSources,
}

/// The planning entry of every run: `written` under `options`. The textual
/// plan is `written` itself, borrowed. The cost-based plan re-plans each
/// rule against `edb_stats()` (called only then) under `options.lowering`,
/// with memos, batched emission, Bloom filters and the all-sources filter
/// on. Pure in its inputs, so a resumed run or batch re-derives it.
pub(crate) fn plan<'w>(
    written: &'w RunPlan,
    options: &EvalOptions,
    edb_stats: impl FnOnce() -> Vec<CardStats>,
    universe: usize,
) -> Cow<'w, RunPlan> {
    let lowering = match options.planner {
        PlannerMode::Textual => return Cow::Borrowed(written),
        PlannerMode::CostBased => options.lowering,
    };
    let ctx = PlanCtx::from_stats(edb_stats(), universe);
    let lower = |rules: &[CompiledRule]| -> Vec<CompiledRule> {
        rules.iter().map(|r| plan_rule(r, &ctx, lowering)).collect()
    };
    Cow::Owned(RunPlan {
        naive_rules: lower(&written.naive_rules),
        semi_variants: lower(&written.semi_variants),
        blooms: true,
        fire: Fire::AllSources,
    })
}

/// Plans maintenance's deletion variants — `lost` and the rederivation
/// `check`s — against `edb_stats`, under every planner mode: no
/// from-scratch counter depends on them, and written order gives the
/// checks' bound atoms no Check kernels. Seeds are small and scanned, and
/// memos stay off (seeds rarely repeat a key; the upkeep measured slower).
/// Only the checks keep a head early exit, skipping heads an earlier rule
/// rederived; they stay binary, where the cut stops each seed at its first
/// derivation.
pub(crate) fn plan_deletion(
    lost: &[CompiledRule],
    check: &[CompiledRule],
    lowering: JoinLowering,
    edb_stats: Vec<CardStats>,
    universe: usize,
) -> (Vec<CompiledRule>, Vec<CompiledRule>) {
    let ctx = PlanCtx::from_stats(edb_stats, universe);
    let seeded = |rules: &[CompiledRule], lowering, checks: bool| -> Vec<CompiledRule> {
        rules
            .iter()
            .map(|rule| {
                let mut planned = plan_rule(rule, &ctx, lowering);
                planned.head_check_at = (checks && planned.atoms.len() > 1).then_some(1);
                planned.atoms[0].kernel = JoinKernel::Scan;
                planned.batched = false;
                planned
            })
            .collect()
    };
    (
        seeded(lost, lowering, false),
        seeded(check, JoinLowering::Binary, true),
    )
}

/// Per-structure planning context: EDB cardinality snapshots plus the
/// fallback estimates used for IDB sources (whose final cardinality is
/// unknowable before the fixpoint is computed).
struct PlanCtx {
    edb_stats: Vec<CardStats>,
    /// Default cardinality estimate for an IDB source: the largest EDB
    /// relation (derived relations are usually at least that dense), but
    /// no smaller than the universe.
    idb_len_est: f64,
    /// Universe size, for fully-bound EDB check selectivities.
    universe: f64,
}

impl PlanCtx {
    /// A context over per-relation cardinality snapshots.
    fn from_stats(edb_stats: Vec<CardStats>, universe_size: usize) -> Self {
        let idb_len_est = edb_stats
            .iter()
            .map(|s| s.len)
            .max()
            .unwrap_or(0)
            .max(universe_size.max(1)) as f64;
        PlanCtx {
            edb_stats,
            idb_len_est,
            universe: universe_size.max(1) as f64,
        }
    }

    /// Positions of `atom` whose argument is a constant or an
    /// already-bound variable.
    fn bound_positions(atom: &JoinAtom, bound: &HashSet<usize>) -> Vec<usize> {
        atom.args
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(&v.0),
            })
            .map(|(p, _)| p)
            .collect()
    }

    /// Estimated number of candidate tuples the join must visit for
    /// `atom` given the currently bound variables. Fully bound atoms are
    /// membership checks and cost (effectively) nothing. EDB estimates
    /// come from real [`CardStats`]; IDB relations do not exist yet at
    /// plan time, so the planner deliberately does **not** credit their
    /// bound positions — a partially bound IDB atom is assumed full-cost
    /// (mis-crediting fuzzy IDB selectivity against precise EDB stats is
    /// exactly how a reorder regresses). Magic predicates are the
    /// exception: they hold seeded demand sets, which are small by
    /// construction, so they keep their textual role as early guards.
    fn estimate(&self, atom: &JoinAtom, bound: &HashSet<usize>) -> f64 {
        let b = Self::bound_positions(atom, bound);
        if b.len() == atom.args.len() {
            return 0.0;
        }
        match atom.pred {
            Pred::Edb(r) => self.edb_stats[r.0].estimate_matches(&b),
            Pred::Idb(_) if atom.is_magic => 1.0,
            Pred::Idb(_) => self.idb_len_est,
        }
    }

    /// The two most selective bound positions for a merged probe: highest
    /// distinct-value counts first (EDB); positional order for IDB
    /// sources, whose per-position distribution is unknown at plan time.
    fn merge_pair(&self, atom: &JoinAtom, b: &[usize]) -> (usize, usize) {
        let mut ranked: Vec<usize> = b.to_vec();
        if let Pred::Edb(r) = atom.pred {
            let stats = &self.edb_stats[r.0];
            ranked.sort_by_key(|&p| {
                (
                    std::cmp::Reverse(stats.distinct.get(p).copied().unwrap_or(0)),
                    p,
                )
            });
        }
        let (pos_a, pos_b) = (ranked[0], ranked[1]);
        (pos_a.min(pos_b), pos_a.max(pos_b))
    }
}

/// Re-plans one compiled rule: greedy selectivity ordering (delta atom
/// pinned first), cost-based kernels, re-hoisted ≠-constraints, the head
/// early-exit point, the join lowering, and probe memos with batched
/// emission.
fn plan_rule(rule: &CompiledRule, ctx: &PlanCtx, lowering: JoinLowering) -> CompiledRule {
    let mut out = rule.clone();
    let mut remaining: Vec<JoinAtom> = std::mem::take(&mut out.atoms);
    let mut ordered: Vec<JoinAtom> = Vec::with_capacity(remaining.len());
    let mut bound: HashSet<usize> = HashSet::new();
    let bind = |atom: &JoinAtom, bound: &mut HashSet<usize>| {
        for t in &atom.args {
            if let Term::Var(v) = t {
                bound.insert(v.0);
            }
        }
    };
    // The delta atom seeds the join: every derivation this variant is
    // responsible for uses a delta tuple, so it stays pinned first.
    if remaining
        .first()
        .is_some_and(|a| a.access == IdbAccess::Delta)
    {
        let delta = remaining.remove(0);
        bind(&delta, &mut bound);
        ordered.push(delta);
    }
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .enumerate()
            .min_by(|(i, a), (j, b)| {
                ctx.estimate(a, &bound)
                    .total_cmp(&ctx.estimate(b, &bound))
                    .then(i.cmp(j))
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let atom = remaining.remove(best);
        bind(&atom, &mut bound);
        ordered.push(atom);
    }
    // Kernel assignment over the final order.
    let mut bound_vars: HashSet<usize> = HashSet::new();
    for atom in &mut ordered {
        let b = PlanCtx::bound_positions(atom, &bound_vars);
        atom.kernel = if b.len() == atom.args.len() {
            JoinKernel::Check
        } else if b.is_empty() {
            JoinKernel::Scan
        } else if b.len() == 1 {
            JoinKernel::Probe { pos: b[0] }
        } else {
            let (pos_a, pos_b) = ctx.merge_pair(atom, &b);
            JoinKernel::MergedProbe { pos_a, pos_b }
        };
        for t in &atom.args {
            if let Term::Var(v) = t {
                bound_vars.insert(v.0);
            }
        }
    }
    out.atoms = ordered;
    out.neq_at = schedule_neqs(&out.atoms, &out.free_vars, &out.neqs);
    out.head_check_at = head_check_point(&out);
    out.batched = true;
    choose_lowering(&mut out, ctx, lowering);
    out
}

/// GYO ear removal on the rule-body hypergraph (variables as vertices,
/// atoms as hyperedges): an edge is an *ear* when the vertices it shares
/// with the rest of the hypergraph all lie inside one single other edge
/// (or it shares nothing). Repeatedly removing ears empties an acyclic
/// hypergraph; a non-empty residue means the body is cyclic — the regime
/// where every binary join order can blow up past the AGM output bound.
fn body_is_cyclic(rule: &CompiledRule) -> bool {
    let mut edges: Vec<HashSet<usize>> = rule
        .atoms
        .iter()
        .map(|a| {
            a.args
                .iter()
                .filter_map(|t| match t {
                    Term::Var(v) => Some(v.0),
                    Term::Const(_) => None,
                })
                .collect()
        })
        .collect();
    edges.retain(|e: &HashSet<usize>| !e.is_empty());
    while edges.len() > 1 {
        let mut ear = None;
        for i in 0..edges.len() {
            let shared: HashSet<usize> = edges[i]
                .iter()
                .copied()
                .filter(|v| {
                    edges
                        .iter()
                        .enumerate()
                        .any(|(j, e)| j != i && e.contains(v))
                })
                .collect();
            let witnessed = shared.is_empty()
                || edges
                    .iter()
                    .enumerate()
                    .any(|(j, e)| j != i && shared.is_subset(e));
            if witnessed {
                ear = Some(i);
                break;
            }
        }
        match ear {
            Some(i) => {
                edges.swap_remove(i);
            }
            None => return true,
        }
    }
    false
}

/// Ratio of the largest predicted intermediate to the final estimate when
/// the planned binary order runs left to right. Each partially-bound atom
/// multiplies the running estimate by its expected match count; a fully
/// bound **EDB** atom filters by its observed density (`len / |A|^arity`),
/// while fully bound IDB atoms get no credit — their selectivity is
/// unknowable at plan time (the same philosophy as
/// [`PlanCtx::estimate`]), and crediting it would flip acyclic-in-spirit
/// recursive rules to the generic lowering on guesswork.
fn blowup_ratio(rule: &CompiledRule, ctx: &PlanCtx) -> f64 {
    let mut bound: HashSet<usize> = HashSet::new();
    let mut running = 1.0f64;
    let mut max_intermediate = 0.0f64;
    for (i, atom) in rule.atoms.iter().enumerate() {
        let b = PlanCtx::bound_positions(atom, &bound);
        let mult = if b.len() == atom.args.len() {
            match atom.pred {
                Pred::Edb(r) => {
                    let cells = ctx.universe.powi(atom.args.len() as i32).max(1.0);
                    (ctx.edb_stats[r.0].len as f64 / cells).min(1.0)
                }
                Pred::Idb(_) => 1.0,
            }
        } else {
            ctx.estimate(atom, &bound).max(1e-6)
        };
        running *= mult;
        if i + 1 < rule.atoms.len() {
            max_intermediate = max_intermediate.max(running);
        }
        for t in &atom.args {
            if let Term::Var(v) = t {
                bound.insert(v.0);
            }
        }
    }
    max_intermediate / running.max(1e-6)
}

/// Decides the join lowering for one planned rule and attaches the
/// generic plan when chosen. `Binary` never lowers generically; `Generic`
/// forces it for every multi-atom body; `Auto` requires a cyclic body
/// hypergraph *and* a predicted intermediate blow-up beyond
/// [`BLOWUP_FACTOR`] — the regime where variable-at-a-time intersection
/// provably beats every binary order.
fn choose_lowering(rule: &mut CompiledRule, ctx: &PlanCtx, lowering: JoinLowering) {
    let generic = match lowering {
        JoinLowering::Binary => false,
        JoinLowering::Generic => rule.atoms.len() >= 2,
        JoinLowering::Auto => {
            rule.atoms.len() >= 2 && body_is_cyclic(rule) && blowup_ratio(rule, ctx) > BLOWUP_FACTOR
        }
    };
    if generic {
        rule.generic = wcoj::build_generic_plan(rule);
    }
}

/// The earliest atom index at which every head argument is bound, if the
/// head needs no free-variable enumeration. From that point on, a branch
/// whose head tuple already exists can stop early. Points at or past the
/// last atom are dropped: `emit` already deduplicates, so a check that
/// skips no atoms is pure overhead.
fn head_check_point(rule: &CompiledRule) -> Option<usize> {
    if !rule.free_vars.is_empty() {
        return None;
    }
    let mut point = 0usize;
    for t in &rule.head_args {
        if let Term::Var(v) = t {
            match rule
                .atoms
                .iter()
                .position(|a| a.args.contains(&Term::Var(*v)))
            {
                Some(j) => point = point.max(j + 1),
                None => return None,
            }
        }
    }
    if point < rule.atoms.len() {
        Some(point)
    } else {
        None
    }
}

impl CompiledProgram {
    /// Renders an atom's predicate with its semi-naive access decoration
    /// (`Δ` / `old·`), without the kernel suffix.
    fn pred_label(&self, atom: &JoinAtom) -> String {
        let name = match atom.pred {
            Pred::Edb(r) => self.vocabulary.relation_name(r).to_string(),
            Pred::Idb(i) => self.idb_names[i.0].clone(),
        };
        let access = match atom.access {
            IdbAccess::Delta => "Δ",
            IdbAccess::Old => "old·",
            IdbAccess::Full => "",
        };
        format!("{access}{name}")
    }

    fn atom_label(&self, atom: &JoinAtom) -> String {
        let kernel = match atom.kernel {
            JoinKernel::Scan => "scan".to_string(),
            JoinKernel::Probe { pos } => format!("probe@{pos}"),
            JoinKernel::MergedProbe { pos_a, pos_b } => format!("merge@{pos_a},{pos_b}"),
            JoinKernel::Check => "check".to_string(),
        };
        format!("{}:{kernel}", self.pred_label(atom))
    }

    /// Renders a generic-join plan: the variable binding order, and for
    /// each variable the posting-list iterators (atom@positions) whose
    /// intersection drives the step.
    fn wcoj_label(&self, rule: &CompiledRule, plan: &crate::wcoj::GenericPlan) -> String {
        let steps: Vec<String> = plan
            .steps
            .iter()
            .map(|st| {
                let iters: Vec<String> = st
                    .occurrences
                    .iter()
                    .map(|(ai, positions)| {
                        let pos: Vec<String> = positions.iter().map(ToString::to_string).collect();
                        format!("{}@{}", self.pred_label(&rule.atoms[*ai]), pos.join(","))
                    })
                    .collect();
                format!("v{}←∩({})", st.var, iters.join(" "))
            })
            .collect();
        format!("wcoj[{}]", steps.join("; "))
    }

    fn render_rules(&self, out: &mut String, title: &str, prefix: &str, rules: &[CompiledRule]) {
        let _ = writeln!(out, "{title}:");
        for (i, rule) in rules.iter().enumerate() {
            let atoms = if rule.generic.is_some() {
                // Generic lowering: atom 0 seeds the join, every other
                // atom is a trie of sorted postings; the per-atom binary
                // kernels are not executed.
                rule.atoms
                    .iter()
                    .enumerate()
                    .map(|(j, a)| {
                        let role = if j == 0 { "seed" } else { "trie" };
                        format!("{}:{role}", self.pred_label(a))
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            } else {
                rule.atoms
                    .iter()
                    .map(|a| self.atom_label(a))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let body = if atoms.is_empty() { "⊤" } else { &atoms };
            let _ = write!(
                out,
                "  {prefix}{i}: {} ← {body}",
                self.idb_names[rule.head.0]
            );
            if !rule.neqs.is_empty() {
                let slots: Vec<String> = rule
                    .neq_at
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.is_empty())
                    .map(|(slot, s)| format!("{slot}×{}", s.len()))
                    .collect();
                let _ = write!(out, " | ≠@[{}]", slots.join(" "));
            }
            if let Some(plan) = &rule.generic {
                // The generic executor verifies atoms by intersection, so
                // the binary head early-exit point is not rendered.
                let _ = write!(out, " | {}", self.wcoj_label(rule, plan));
            } else if let Some(k) = rule.head_check_at {
                let _ = write!(out, " | head-check@{k}");
            }
            let _ = writeln!(out);
        }
    }

    fn render_strata(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "strata ({} SCCs, topological order):",
            self.scc.count()
        );
        for scc in 0..self.scc.count() {
            let names: Vec<&str> = self
                .scc
                .members(scc)
                .iter()
                .map(|&p| self.idb_names[p].as_str())
                .collect();
            let _ = writeln!(
                out,
                "  s{scc}: {}{}",
                names.join(", "),
                if self.scc.is_recursive(scc) {
                    " (recursive)"
                } else {
                    ""
                }
            );
        }
    }

    /// Renders `plan` below the mode-specific header `out`: goal, stratum
    /// schedule, and every rule/variant with its kernels and hoisted
    /// ≠-slots.
    fn render(&self, mut out: String, plan: &RunPlan) -> String {
        let _ = writeln!(
            out,
            "goal: {} | {} IDB(s), {} rule(s), {} semi-naive variant(s)",
            self.idb_names[self.goal.0],
            self.idb_names.len(),
            plan.naive_rules.len(),
            plan.semi_variants.len()
        );
        self.render_strata(&mut out);
        self.render_rules(&mut out, "naive rules", "n", &plan.naive_rules);
        self.render_rules(&mut out, "semi-naive variants", "v", &plan.semi_variants);
        out
    }

    /// Renders the written (textual) plan.
    pub fn explain(&self) -> String {
        self.render("plan mode: textual\n".to_string(), &self.written)
    }

    /// Renders the cost-based plan chosen for `structure` under the
    /// default [`JoinLowering::Auto`] selection. See
    /// [`explain_for_lowered`](Self::explain_for_lowered).
    pub fn explain_for(&self, structure: &Structure) -> String {
        self.explain_for_lowered(structure, JoinLowering::Auto)
    }

    /// Renders the cost-based plan chosen for `structure` under the given
    /// join lowering: the EDB cardinality snapshot the planner saw, and
    /// every rule in its planned atom order with selected kernels,
    /// hoisted ≠-slots, head early-exit points, and — for generically
    /// lowered rules — the variable binding order with its per-variable
    /// posting-list iterators.
    pub fn explain_for_lowered(&self, structure: &Structure, lowering: JoinLowering) -> String {
        let edb_stats = self.edb_card_stats(structure);
        let mut out = String::new();
        let _ = writeln!(out, "plan mode: cost-based");
        let _ = writeln!(out, "lowering: {lowering}");
        let _ = writeln!(out, "structure: |A| = {}", structure.universe_size());
        for (r, stats) in self.vocabulary.relations().zip(&edb_stats) {
            let _ = writeln!(
                out,
                "edb {}: {} tuple(s), distinct {:?}",
                self.vocabulary.relation_name(r),
                stats.len,
                stats.distinct
            );
        }
        let options = EvalOptions::default()
            .with_planner(PlannerMode::CostBased)
            .with_lowering(lowering);
        let plan = plan(
            &self.written,
            &options,
            || edb_stats,
            structure.universe_size(),
        );
        self.render(out, &plan)
    }

    /// Renders the shard plan a sharded run over `structure` would choose
    /// at the given worker count: one `shard[pred←pos, local|exchange]`
    /// line per predicate, where `pos` is the hash-partitioning key
    /// position and the verdict says whether every semi-naive variant
    /// producing that predicate keeps its derivations on the delta seed's
    /// owner (`local`) or some variant must cross the inter-worker
    /// exchange at the stage barrier (`exchange`).
    pub fn explain_sharded(&self, structure: &Structure, shards: usize) -> String {
        let variants = &self.written.semi_variants;
        let edb_arities: Vec<usize> = self
            .vocabulary
            .relations()
            .map(|r| self.vocabulary.arity(r))
            .collect();
        let plan = crate::sharded::choose_plan(
            variants,
            &[],
            &self.idb_arities,
            &edb_arities,
            &self.edb_card_stats(structure),
        );
        let mut out = String::new();
        let _ = writeln!(out, "shard plan: W = {}", shards.max(1));
        for (p, name) in self.idb_names.iter().enumerate() {
            let producing: Vec<usize> = (0..variants.len())
                .filter(|&v| variants[v].head.0 == p)
                .collect();
            let verdict = if producing.iter().all(|&v| plan.local[v]) {
                "local"
            } else {
                "exchange"
            };
            let _ = writeln!(out, "  shard[{name}←{}, {verdict}]", plan.idb_keys[p].pos);
        }
        for (r, key) in self.vocabulary.relations().zip(&plan.edb_keys) {
            let _ = writeln!(
                out,
                "  shard[{}←{}, edb]",
                self.vocabulary.relation_name(r),
                key.pos
            );
        }
        let local = plan.local.iter().filter(|&&l| l).count();
        let _ = writeln!(
            out,
            "  variants: {local} local, {} exchange",
            plan.local.len() - local
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use kv_structures::generators::directed_path;

    #[test]
    fn explain_sharded_renders_keys_and_locality() {
        let compiled = CompiledProgram::compile(&programs::transitive_closure());
        let rendered = compiled.explain_sharded(&directed_path(6), 4);
        assert!(rendered.starts_with("shard plan: W = 4\n"), "{rendered}");
        // S(x,z) :- E(x,y), S(y,z) keeps the delta seed's second column in
        // its head, so keying S on position 1 makes the variant local.
        assert!(rendered.contains("shard[S←1, local]"), "{rendered}");
        assert!(rendered.contains("shard[E←1, edb]"), "{rendered}");
        assert!(
            rendered.contains("variants: 1 local, 0 exchange"),
            "{rendered}"
        );
    }

    #[test]
    fn tc_has_one_recursive_scc() {
        let p = programs::transitive_closure();
        let scc = SccInfo::of_program(&p);
        assert_eq!(scc.count(), 1);
        assert!(scc.is_recursive(0));
        assert_eq!(scc.members(0), &[0]);
    }

    #[test]
    fn mutual_recursion_is_one_component() {
        use crate::parser::parse_program;
        use kv_structures::Vocabulary;
        use std::sync::Arc;
        let src = "
            Odd(x, y) :- E(x, y).
            Odd(x, y) :- Even(x, z), E(z, y).
            Even(x, y) :- Odd(x, z), E(z, y).
            Tail(x, y) :- Even(x, y).
            ?- Tail.
        ";
        let p = parse_program(src, Arc::new(Vocabulary::graph())).unwrap();
        let scc = SccInfo::of_program(&p);
        assert_eq!(scc.count(), 2);
        // Odd/Even form one recursive component; Tail depends on it, so it
        // sits in a strictly later stratum.
        let odd_even = scc.component_of(0);
        assert_eq!(odd_even, scc.component_of(1));
        assert!(scc.is_recursive(odd_even));
        let tail = scc.component_of(2);
        assert_ne!(odd_even, tail);
        assert!(!scc.is_recursive(tail));
        assert!(odd_even < tail, "dependency must precede dependent");
    }

    #[test]
    fn q_kl_strata_order_q1_before_q2() {
        let p = programs::q_kl(2, 1);
        let scc = SccInfo::of_program(&p);
        // Q1 and Q2 are each self-recursive, so they form two singleton
        // recursive components; Q2 depends on Q1, so Q1's stratum comes
        // first.
        let (s1, s2) = (scc.component_of(0), scc.component_of(1));
        assert_ne!(s1, s2);
        assert!(s1 < s2, "Q1's stratum must precede Q2's");
        assert!(scc.is_recursive(s1));
        assert!(scc.is_recursive(s2));
    }

    #[test]
    fn textual_plan_is_the_written_plan_borrowed() {
        // Textual runs evaluate the compiled rules as written: the entry
        // hands back the program's own plan, reading no statistics.
        let compiled = CompiledProgram::compile(&programs::q_kl(2, 1));
        let plan = plan(
            &compiled.written,
            &EvalOptions::default(),
            || unreachable!("the textual plan reads no statistics"),
            5,
        );
        assert!(matches!(plan, Cow::Borrowed(p) if std::ptr::eq(p, &compiled.written)));
        assert_eq!(plan.fire, Fire::Seed);
        assert!(!plan.blooms);
        let rules = plan.naive_rules.iter().chain(&plan.semi_variants);
        assert!(rules
            .clone()
            .all(|r| !r.batched && r.head_check_at.is_none()));
        // The cost-based plan of the same rules turns the batching aids on.
        let s = directed_path(5);
        let options = EvalOptions::default().with_planner(PlannerMode::CostBased);
        let cost = super::plan(
            &compiled.written,
            &options,
            || compiled.edb_card_stats(&s),
            5,
        );
        assert!(matches!(cost, Cow::Owned(_)));
        assert_eq!(cost.fire, Fire::AllSources);
        assert!(cost.blooms);
        assert!(cost.semi_variants.iter().all(|r| r.batched));
    }

    #[test]
    fn planned_rules_start_with_delta_and_cover_all_atoms() {
        let p = programs::q_kl(2, 1);
        let compiled = CompiledProgram::compile(&p);
        let s = kv_structures::generators::random_digraph(10, 0.2, 11).to_structure();
        let options = EvalOptions::default().with_planner(PlannerMode::CostBased);
        let written = &compiled.written;
        let plan = plan(written, &options, || compiled.edb_card_stats(&s), 10);
        assert_eq!(plan.naive_rules.len(), written.naive_rules.len());
        assert_eq!(plan.semi_variants.len(), written.semi_variants.len());
        for (planned, textual) in plan.semi_variants.iter().zip(&written.semi_variants) {
            assert_eq!(planned.atoms.len(), textual.atoms.len());
            // The delta atom stays pinned first.
            if textual
                .atoms
                .first()
                .is_some_and(|a| a.access == IdbAccess::Delta)
            {
                assert_eq!(
                    planned.atoms[0].access,
                    IdbAccess::Delta,
                    "delta atom must stay pinned"
                );
            }
            // Same multiset of (pred, access) pairs — reordering only.
            let mut a: Vec<_> = planned.atoms.iter().map(|x| (x.pred, x.access)).collect();
            let mut b: Vec<_> = textual.atoms.iter().map(|x| (x.pred, x.access)).collect();
            a.sort_by_key(|(p, _)| format!("{p:?}"));
            b.sort_by_key(|(p, _)| format!("{p:?}"));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn explain_golden_for_transitive_closure() {
        let p = programs::transitive_closure();
        let compiled = CompiledProgram::compile(&p);
        let textual = compiled.explain();
        let expected_textual = "\
plan mode: textual
goal: S | 1 IDB(s), 2 rule(s), 1 semi-naive variant(s)
strata (1 SCCs, topological order):
  s0: S (recursive)
naive rules:
  n0: S ← E:scan
  n1: S ← E:scan, S:probe@0
semi-naive variants:
  v0: S ← ΔS:scan, E:probe@1
";
        assert_eq!(textual, expected_textual);

        let planned = compiled.explain_for(&directed_path(6));
        let expected_planned = "\
plan mode: cost-based
lowering: auto
structure: |A| = 6
edb E: 5 tuple(s), distinct [5, 5]
goal: S | 1 IDB(s), 2 rule(s), 1 semi-naive variant(s)
strata (1 SCCs, topological order):
  s0: S (recursive)
naive rules:
  n0: S ← E:scan
  n1: S ← E:scan, S:probe@0
semi-naive variants:
  v0: S ← ΔS:scan, E:probe@1
";
        assert_eq!(planned, expected_planned);
    }

    #[test]
    fn explain_golden_for_triangles_generic_join() {
        use kv_structures::generators::random_digraph;
        let p = programs::triangles();
        let compiled = CompiledProgram::compile(&p);
        let s = random_digraph(12, 0.25, 1).to_structure();
        // Auto flips the cyclic triangle body to the generic lowering: the
        // first E atom seeds (x, y), one variable step binds z by
        // intersecting the postings E@1 (of E(y, z)) and E@0 (of E(z, x)).
        let rendered = compiled.explain_for(&s);
        let expected = "\
plan mode: cost-based
lowering: auto
structure: |A| = 12
edb E: 32 tuple(s), distinct [11, 11]
goal: Tri | 1 IDB(s), 1 rule(s), 0 semi-naive variant(s)
strata (1 SCCs, topological order):
  s0: Tri
naive rules:
  n0: Tri ← E:seed, E:trie, E:trie | wcoj[v2←∩(E@1 E@0)]
semi-naive variants:
";
        assert_eq!(rendered, expected);
        // Forcing generic yields the same plan; forcing binary renders
        // ordinary kernels and no wcoj section.
        assert_eq!(
            compiled.explain_for_lowered(&s, JoinLowering::Generic),
            expected.replace("lowering: auto", "lowering: generic")
        );
        let binary = compiled.explain_for_lowered(&s, JoinLowering::Binary);
        assert!(!binary.contains("wcoj"), "{binary}");
        assert!(binary.contains("E:scan"), "{binary}");
    }

    #[test]
    fn auto_keeps_acyclic_and_recursive_bodies_binary() {
        // TC and Q_{2,1} bodies are GYO-acyclic or blow-up-free: Auto must
        // not flip them, so the planned bench numbers stay binary-kernel.
        for p in [programs::transitive_closure(), programs::q_kl(2, 1)] {
            let compiled = CompiledProgram::compile(&p);
            let rendered = compiled.explain_for(&directed_path(6));
            assert!(!rendered.contains("wcoj"), "{rendered}");
        }
    }

    #[test]
    fn explain_renders_neq_hoists_and_checks() {
        // Q_{2,1}'s recursive Q2 rule binds its whole head after the
        // delta and edge atoms, leaving the inner Q1 probe skippable.
        let p = programs::q_kl(2, 1);
        let compiled = CompiledProgram::compile(&p);
        let rendered = compiled.explain_for(&directed_path(5));
        assert!(rendered.contains("≠@["), "{rendered}");
        assert!(rendered.contains("head-check@"), "{rendered}");
    }
}
