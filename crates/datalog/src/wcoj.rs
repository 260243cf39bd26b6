//! Worst-case-optimal generic join: variable-at-a-time evaluation over
//! sorted posting lists.
//!
//! Binary join plans — even the cost-based ones picked by
//! [`crate::planner`] — materialize one intermediate relation per atom
//! pair, and for cyclic rule bodies (the triangle rule being the canonical
//! example) *every* binary order is asymptotically worse than the
//! AGM-bound output size. The generic-join algorithm sidesteps this by
//! binding one **variable** at a time instead of one **atom** at a time:
//! each step intersects, for every atom the variable occurs in, the
//! posting lists of candidate tuples consistent with the bindings so far,
//! in the style of leapfrog trie-join over the id-sorted
//! [`kv_structures::PosIndex`] lists.
//!
//! The lowering lives entirely *inside* the global semi-naive stage loop:
//! a rule executed generically still reads the same frozen old/delta/full
//! id ranges and emits into the same scratch arenas as the binary kernel
//! pipeline, so every stage is identical tuple-for-tuple to the binary
//! lowering (Theorem 3.6 stage identity — asserted program-by-program in
//! `tests/planned.rs`). Duplicate-suppression, ≠-constraints, free
//! variables, and resource governance all reuse the [`RuleJoin`]
//! machinery from [`crate::eval`].

use crate::ast::{Term, VarId};
use crate::eval::{CompiledRule, RuleJoin, SCAN_BLOCK};
use kv_structures::store::gallop_intersect;
use kv_structures::{Element, Interrupted, TupleId};

/// One variable-binding step of a generic-join execution: the variable to
/// bind, every non-seed atom (with argument positions) it occurs in, and
/// the ≠-constraints that become fully bound once it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VarStep {
    /// The canonical variable bound by this step (index into the
    /// binding vector).
    pub(crate) var: usize,
    /// `(atom_index, positions)` for every non-seed atom the variable
    /// occurs in; `positions` lists every argument slot holding it.
    pub(crate) occurrences: Vec<(usize, Vec<usize>)>,
    /// Indices into [`CompiledRule::neqs`] checked right after this step
    /// binds its variable.
    pub(crate) neqs: Vec<usize>,
}

/// A compiled generic-join plan for one rule: the seed atom (always atom
/// 0, which carries the delta pin under semi-naive rewriting) is scanned
/// in blocks; every remaining variable is bound by one [`VarStep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GenericPlan {
    /// Variable-binding steps, most-shared variables first.
    pub(crate) steps: Vec<VarStep>,
    /// Indices into [`CompiledRule::neqs`] whose variables are all bound
    /// by the seed atom (or constants), checked once per seed tuple.
    pub(crate) seed_neqs: Vec<usize>,
}

/// Builds a generic-join plan for `rule`, or `None` when the body has
/// fewer than two atoms (a single scan cannot benefit).
///
/// Seed variables are those of atom 0; the remaining atom variables are
/// ordered by descending occurrence count (ties by variable id) so the
/// most constrained variable is bound first. Atom-scheduled ≠-constraints
/// are re-hoisted for the new binding order: checks whose variables are
/// all seed-bound run per seed tuple, the rest attach to the latest step
/// binding one of their variables. Entry checks (`neq_at[0]`) run before
/// dispatch and free-variable checks keep their atom-order-independent
/// slots in the shared free-variable odometer.
pub(crate) fn build_generic_plan(rule: &CompiledRule) -> Option<GenericPlan> {
    if rule.atoms.len() < 2 {
        return None;
    }
    let mut is_seed = vec![false; rule.var_count];
    for t in &rule.atoms[0].args {
        if let Term::Var(v) = t {
            is_seed[v.0] = true;
        }
    }
    // Occurrence counts (once per atom) for the non-seed atom variables.
    let mut occ_count = vec![0usize; rule.var_count];
    for atom in &rule.atoms {
        let mut seen = vec![false; rule.var_count];
        for t in &atom.args {
            if let Term::Var(v) = t {
                if !is_seed[v.0] && !seen[v.0] {
                    occ_count[v.0] += 1;
                    seen[v.0] = true;
                }
            }
        }
    }
    let mut step_vars: Vec<usize> = (0..rule.var_count).filter(|&v| occ_count[v] > 0).collect();
    step_vars.sort_by_key(|&v| (std::cmp::Reverse(occ_count[v]), v));
    let mut steps: Vec<VarStep> = step_vars
        .iter()
        .map(|&v| {
            let mut occurrences = Vec::new();
            for (ai, atom) in rule.atoms.iter().enumerate().skip(1) {
                let positions: Vec<usize> = atom
                    .args
                    .iter()
                    .enumerate()
                    .filter_map(|(p, t)| match t {
                        Term::Var(w) if w.0 == v => Some(p),
                        _ => None,
                    })
                    .collect();
                if !positions.is_empty() {
                    occurrences.push((ai, positions));
                }
            }
            VarStep {
                var: v,
                occurrences,
                neqs: Vec::new(),
            }
        })
        .collect();
    // Re-hoist the atom-scheduled ≠-checks for the variable binding order.
    let mut handled = vec![false; rule.neqs.len()];
    for &ni in &rule.neq_at[0] {
        handled[ni] = true;
    }
    for slot in &rule.neq_at[rule.atoms.len() + 1..] {
        for &ni in slot {
            handled[ni] = true;
        }
    }
    let mut seed_neqs = Vec::new();
    for (ni, (a, b)) in rule.neqs.iter().enumerate() {
        if handled[ni] {
            continue;
        }
        let mut latest: Option<usize> = None;
        for t in [a, b] {
            if let Term::Var(v) = t {
                if let Some(si) = steps.iter().position(|s| s.var == v.0) {
                    latest = Some(latest.map_or(si, |l| l.max(si)));
                }
            }
        }
        match latest {
            Some(si) => steps[si].neqs.push(ni),
            None => seed_neqs.push(ni),
        }
    }
    Some(GenericPlan { steps, seed_neqs })
}

/// Checks a set of ≠-constraints against the current binding; a
/// constraint with an unbound side is vacuously satisfied (its check is
/// scheduled again at the step that binds it).
fn neqs_hold(join: &RuleJoin, neqs: &[usize]) -> bool {
    for &ni in neqs {
        let (a, b) = &join.rule.neqs[ni];
        if let (Some(x), Some(y)) = (join.term_value(a), join.term_value(b)) {
            if x == y {
                return false;
            }
        }
    }
    true
}

/// Executes `plan` for the rule held by `join`: scans the seed atom in
/// columnar blocks, then binds the remaining variables one at a time via
/// sorted-posting intersection, finishing each full assignment through
/// the shared free-variable odometer and head emission.
pub(crate) fn execute(join: &mut RuleJoin, plan: &GenericPlan) -> Result<(), Interrupted> {
    let seed = &join.rule.atoms[0];
    let (store, _, range) = join.ctx.source(seed);
    join.count_probe(seed.is_magic)?;
    let arity = seed.args.len();
    if arity == 0 {
        for _ in range.iter() {
            seed_tuple(join, plan, &[])?;
        }
        return Ok(());
    }
    let cols = store.range_slice(range);
    let mut first = true;
    for block in cols.chunks(SCAN_BLOCK * arity) {
        if !first {
            join.charge()?;
        }
        first = false;
        for tuple in block.chunks_exact(arity) {
            seed_tuple(join, plan, tuple)?;
        }
    }
    Ok(())
}

/// Binds the seed atom's arguments against one tuple (with repeated-var
/// and constant consistency checks), then runs the variable steps.
fn seed_tuple(
    join: &mut RuleJoin,
    plan: &GenericPlan,
    tuple: &[Element],
) -> Result<(), Interrupted> {
    let seed = &join.rule.atoms[0];
    let mut newly: Vec<VarId> = Vec::new();
    let mut ok = true;
    for (pos, t) in seed.args.iter().enumerate() {
        let good = match t {
            Term::Const(c) => join.ctx.env.structure.constant(*c) == tuple[pos],
            Term::Var(v) => match join.binding[v.0] {
                Some(e) => e == tuple[pos],
                None => {
                    join.binding[v.0] = Some(tuple[pos]);
                    newly.push(*v);
                    true
                }
            },
        };
        if !good {
            ok = false;
            break;
        }
    }
    let r = if ok && neqs_hold(join, &plan.seed_neqs) {
        run_steps(join, plan)
    } else {
        Ok(())
    };
    for v in newly {
        join.binding[v.0] = None;
    }
    r
}

/// Builds the initial per-atom candidate id lists for the current seed
/// binding and recurses through the variable steps.
fn run_steps(join: &mut RuleJoin, plan: &GenericPlan) -> Result<(), Interrupted> {
    let atom_count = join.rule.atoms.len();
    let mut cands: Vec<Vec<u32>> = Vec::with_capacity(atom_count);
    cands.push(Vec::new()); // seed slot, never consulted
    for ai in 1..atom_count {
        let atom = &join.rule.atoms[ai];
        let (_, indexes, range) = join.ctx.source(atom);
        join.count_probe(atom.is_magic)?;
        let mut lists: Vec<&[u32]> = Vec::new();
        for (pos, t) in atom.args.iter().enumerate() {
            if let Some(e) = join.term_value(t) {
                lists.push(indexes.at(pos).probe(e, range));
            }
        }
        let mut ids: Vec<u32> = if lists.is_empty() {
            // No position bound yet: every tuple in the accessible range
            // is a candidate (covers nullary atoms naturally).
            (range.start..range.end).collect()
        } else {
            let mut out = Vec::new();
            let mut gsteps = 0u64;
            gallop_intersect(&lists, &mut out, &mut gsteps);
            join.buf.gallop_steps += gsteps;
            out
        };
        // Survivor atoms of a deletion plan drop deleted candidates once;
        // every refinement below intersects with this list.
        if let Some(dead) = join.ctx.dead(atom) {
            ids.retain(|&id| !dead.contains(id));
        }
        if ids.is_empty() {
            return Ok(()); // some atom is unsatisfiable: dead branch
        }
        cands.push(ids);
    }
    step_rec(join, plan, &mut cands, 0)
}

/// Binds the variable of step `idx` to each value consistent with every
/// candidate list, refines the lists by posting intersection, and
/// recurses; exhausted steps hand off to the free-variable odometer.
fn step_rec(
    join: &mut RuleJoin,
    plan: &GenericPlan,
    cands: &mut Vec<Vec<u32>>,
    idx: usize,
) -> Result<(), Interrupted> {
    if idx == plan.steps.len() {
        // Every candidate list is non-empty and every atom variable bound:
        // the assignment satisfies the whole body.
        return join.enumerate_free(0);
    }
    let st = &plan.steps[idx];
    // Drive from the occurrence atom with the fewest candidates.
    #[allow(clippy::expect_used)]
    let (drv_ai, drv_pos) = st
        .occurrences
        .iter()
        .min_by_key(|(ai, _)| cands[*ai].len())
        .map(|(ai, pos)| (*ai, pos.as_slice()))
        .expect("step variables occur in at least one non-seed atom");
    let (drv_store, _, _) = join.ctx.source(&join.rule.atoms[drv_ai]);
    let mut vals: Vec<Element> = Vec::new();
    for &id in &cands[drv_ai] {
        let t = drv_store.get(TupleId(id));
        let v = t[drv_pos[0]];
        if drv_pos[1..].iter().all(|&p| t[p] == v) {
            vals.push(v);
        }
    }
    vals.sort_unstable();
    vals.dedup();
    for v in vals {
        join.charge()?;
        let mut saved: Vec<(usize, Vec<u32>)> = Vec::with_capacity(st.occurrences.len());
        let mut alive = true;
        for (ai, positions) in &st.occurrences {
            let atom = &join.rule.atoms[*ai];
            let (_, indexes, range) = join.ctx.source(atom);
            join.count_probe(atom.is_magic)?;
            let mut lists: Vec<&[u32]> = Vec::with_capacity(positions.len() + 1);
            lists.push(&cands[*ai]);
            for &p in positions {
                lists.push(indexes.at(p).probe(v, range));
            }
            let mut out = Vec::new();
            let mut gsteps = 0u64;
            gallop_intersect(&lists, &mut out, &mut gsteps);
            join.buf.gallop_steps += gsteps;
            let empty = out.is_empty();
            saved.push((*ai, std::mem::replace(&mut cands[*ai], out)));
            if empty {
                alive = false;
                break;
            }
        }
        let r = if alive {
            join.binding[st.var] = Some(v);
            let rr = if neqs_hold(join, &st.neqs) {
                step_rec(join, plan, cands, idx + 1)
            } else {
                Ok(())
            };
            join.binding[st.var] = None;
            rr
        } else {
            Ok(())
        };
        for (ai, old) in saved.into_iter().rev() {
            cands[ai] = old;
        }
        r?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::eval::{EvalOptions, Evaluator};
    use crate::parser::parse_program;
    use kv_structures::generators::random_digraph;
    use kv_structures::{JoinLowering, PlannerMode, Vocabulary};
    use std::sync::Arc;

    fn opts(lowering: JoinLowering) -> EvalOptions {
        EvalOptions::default()
            .with_planner(PlannerMode::CostBased)
            .with_lowering(lowering)
    }

    #[test]
    fn generic_matches_binary_on_triangles() {
        let p = parse_program(
            "T(x, y, z) :- E(x, y), E(y, z), E(z, x). ?- T.",
            Arc::new(Vocabulary::graph()),
        )
        .unwrap();
        for seed in 0..6 {
            let s = random_digraph(12, 0.25, seed).to_structure();
            let ev = Evaluator::new(&p);
            let bin = ev.run(&s, opts(JoinLowering::Binary));
            let gen = ev.run(&s, opts(JoinLowering::Generic));
            assert_eq!(bin.idb, gen.idb, "fixpoints differ on seed {seed}");
            assert!(bin.same_stages(&gen), "stages differ on seed {seed}");
            assert!(
                gen.eval_stats.wcoj_rules > 0,
                "generic lowering not engaged"
            );
        }
    }

    #[test]
    fn generic_handles_neqs_and_free_vars() {
        // w is free (occurs in no atom); x ≠ z prunes self-loop triangles.
        let p = parse_program(
            "T(x, z, w) :- E(x, y), E(y, z), x != z, w != x. ?- T.",
            Arc::new(Vocabulary::graph()),
        )
        .unwrap();
        for seed in 0..4 {
            let s = random_digraph(9, 0.3, seed).to_structure();
            let ev = Evaluator::new(&p);
            let bin = ev.run(&s, opts(JoinLowering::Binary));
            let gen = ev.run(&s, opts(JoinLowering::Generic));
            assert_eq!(bin.idb, gen.idb, "fixpoints differ on seed {seed}");
            assert!(bin.same_stages(&gen), "stages differ on seed {seed}");
        }
    }

    #[test]
    fn generic_matches_binary_on_recursive_program() {
        let p = parse_program(
            "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y). ?- S.",
            Arc::new(Vocabulary::graph()),
        )
        .unwrap();
        for seed in 0..4 {
            let s = random_digraph(10, 0.2, seed).to_structure();
            let ev = Evaluator::new(&p);
            let bin = ev.run(&s, opts(JoinLowering::Binary));
            let gen = ev.run(&s, opts(JoinLowering::Generic));
            assert_eq!(bin.idb, gen.idb, "fixpoints differ on seed {seed}");
            assert!(bin.same_stages(&gen), "stages differ on seed {seed}");
            assert!(
                gen.eval_stats.wcoj_rules > 0,
                "generic lowering not engaged"
            );
        }
    }
}
