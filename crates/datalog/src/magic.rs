//! Magic-set rewriting for Datalog(≠): demand-driven evaluation.
//!
//! The paper's queries are goal-directed — the FHW queries of Section 6 ask
//! whether one distinguished tuple `(s, t)` is in the goal relation — yet
//! bottom-up evaluation saturates the entire IDB. The classic remedy is the
//! *magic-set* transformation: adorn every IDB predicate with a binding
//! pattern recording which argument positions arrive bound from the query,
//! and guard every rule with a *magic* predicate that enumerates exactly the
//! bindings the query can demand. Semi-naive evaluation of the rewritten
//! program then derives only goal-relevant tuples.
//!
//! # Sideways information passing with `=` and `≠`
//!
//! Binding propagates through a rule body left to right. We maintain a
//! union-find over the rule's variables in which a class is *bound* when it
//! contains a constant or a variable already known to be bound:
//!
//! - head variables at bound positions of the head adornment start bound;
//! - an atom (EDB or IDB) binds all of its argument variables once it has
//!   been evaluated — an IDB atom's *own* adornment is computed from the
//!   state just before it;
//! - `x = y` merges the two classes (bound if either side is);
//! - `x ≠ y` binds nothing — it is a filter, never a generator.
//!
//! Variables that end up in no atom and unbound (the engine enumerates
//! these over the whole universe) are simply *free* positions of the
//! adornments they reach; the rewrite stays correct because adorned rules
//! are the original rules plus one extra magic guard, so the engine's
//! enumeration semantics are untouched.
//!
//! # Shape of the rewrite
//!
//! For every reachable adorned predicate `p^α` the rewritten program has
//! an IDB `p_α` (same arity as `p`) and a magic IDB `M_p_α` whose arity is
//! the number of bound positions of `α`. Each source rule
//! `p(t̄) :- L₁, …, Lₙ` contributes
//!
//! - the *adorned rule* `p_α(t̄) :- M_p_α(t̄|α), L₁', …, Lₙ'`, where `t̄|α`
//!   projects the head arguments to the bound positions and `Lᵢ'` replaces
//!   IDB atoms by their adorned versions;
//! - for the `i`-th body literal, when it is an IDB atom `q(ū)` with
//!   derived adornment `β`, the *magic rule*
//!   `M_q_β(ū|β) :- M_p_α(t̄|α), L₁', …, Lᵢ₋₁'`.
//!
//! At evaluation time the magic goal predicate is *seeded* with the query's
//! bound values (see [`MagicProgram::seed`] and
//! [`crate::CompiledProgram::run_seeded`]); no other facts are assumed.
//! The classical soundness/completeness argument (answers of the rewritten
//! program restricted to the query's bound values coincide with the answers
//! of the original program) goes through verbatim for Datalog(≠): `≠` and
//! `=` literals are carried into the adorned rules and magic-rule prefixes
//! unchanged and are satisfied by the same variable assignments, and magic
//! predicates only ever *restrict* rule applicability, never enable a new
//! derivation. See DESIGN.md §6 for the full argument.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{IdbId, Literal, Pred, Rule, Term, VarId};
use crate::eval::CompiledProgram;
use crate::program::{Program, ProgramError};
use kv_structures::Element;

/// A bound/free binding pattern ("adornment") for a goal predicate.
///
/// Rendered in the classical notation: `"bf"` means first position bound,
/// second free.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BindingPattern(Vec<bool>);

impl BindingPattern {
    /// A pattern from per-position bound flags.
    pub fn new(bound: Vec<bool>) -> Self {
        Self(bound)
    }

    /// All positions bound (the shape of an `(s, t)`-style boolean query).
    pub fn all_bound(arity: usize) -> Self {
        Self(vec![true; arity])
    }

    /// All positions free (full saturation).
    pub fn all_free(arity: usize) -> Self {
        Self(vec![false; arity])
    }

    /// Parses the classical `"bf"` notation. Returns `None` on any
    /// character other than `b`/`f`.
    pub fn parse(s: &str) -> Option<Self> {
        s.chars()
            .map(|c| match c {
                'b' => Some(true),
                'f' => Some(false),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .map(Self)
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the pattern has no positions (nullary goal).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether position `i` is bound.
    pub fn is_bound(&self, i: usize) -> bool {
        self.0[i]
    }

    /// Number of bound positions.
    pub fn bound_count(&self) -> usize {
        self.0.iter().filter(|&&b| b).count()
    }

    /// Indices of the bound positions, ascending.
    pub fn bound_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
    }

    /// The per-position flags.
    pub fn as_flags(&self) -> &[bool] {
        &self.0
    }
}

impl fmt::Display for BindingPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.0 {
            f.write_str(if b { "b" } else { "f" })?;
        }
        Ok(())
    }
}

/// Union-find over a rule's variables tracking which classes are bound.
struct Boundness {
    parent: Vec<usize>,
    bound: Vec<bool>,
}

impl Boundness {
    fn new(vars: usize) -> Self {
        Self {
            parent: (0..vars).collect(),
            bound: vec![false; vars],
        }
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    fn term_bound(&mut self, t: &Term) -> bool {
        match t {
            Term::Const(_) => true,
            Term::Var(VarId(v)) => {
                let r = self.find(*v);
                self.bound[r]
            }
        }
    }

    fn bind_term(&mut self, t: &Term) {
        if let Term::Var(VarId(v)) = t {
            let r = self.find(*v);
            self.bound[r] = true;
        }
    }

    /// `x = y`: merge classes; the merged class is bound if either side
    /// was (or either side is a constant).
    fn equate(&mut self, a: &Term, b: &Term) {
        match (a, b) {
            (Term::Var(VarId(x)), Term::Var(VarId(y))) => {
                let (rx, ry) = (self.find(*x), self.find(*y));
                if rx != ry {
                    let joint = self.bound[rx] || self.bound[ry];
                    self.parent[rx] = ry;
                    self.bound[ry] = joint;
                }
            }
            (Term::Var(_), Term::Const(_)) => self.bind_term(a),
            (Term::Const(_), Term::Var(_)) => self.bind_term(b),
            (Term::Const(_), Term::Const(_)) => {}
        }
    }
}

/// A magic-set rewritten program, ready to compile and run against seeds.
#[derive(Debug, Clone)]
pub struct MagicProgram {
    program: Program,
    pattern: BindingPattern,
    /// Per-IDB flag of the rewritten program: `true` for magic predicates.
    magic_flags: Vec<bool>,
    /// The magic predicate guarding the adorned goal — the one to seed.
    magic_goal: IdbId,
}

impl MagicProgram {
    /// Rewrites `source` for a query on its goal predicate with the given
    /// binding pattern.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len()` differs from the goal arity.
    pub fn rewrite(source: &Program, pattern: &BindingPattern) -> Result<Self, ProgramError> {
        let goal_arity = source.idb_arity(source.goal());
        assert_eq!(
            pattern.len(),
            goal_arity,
            "binding pattern arity {} != goal arity {goal_arity}",
            pattern.len()
        );

        let mut rewriter = Rewriter::new(source);
        rewriter.discover(source.goal(), pattern.as_flags().to_vec());
        // Worklist: process each adorned predicate once, in discovery
        // order; processing may discover further adornments.
        let mut next = 0;
        while next < rewriter.pairs.len() {
            rewriter.process(next);
            next += 1;
        }

        let Rewriter {
            idbs, rules, flags, ..
        } = rewriter;
        let program = Program::new(source.vocabulary().clone(), idbs, rules, IdbId(0))?;
        Ok(Self {
            program,
            pattern: pattern.clone(),
            magic_flags: flags,
            magic_goal: IdbId(1),
        })
    }

    /// The rewritten program. Its goal is the adorned goal predicate.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The binding pattern this rewrite was specialized for.
    pub fn pattern(&self) -> &BindingPattern {
        &self.pattern
    }

    /// The adorned goal predicate (same arity as the source goal).
    pub fn goal(&self) -> IdbId {
        self.program.goal()
    }

    /// The magic predicate to seed with the query's bound values.
    pub fn magic_goal(&self) -> IdbId {
        self.magic_goal
    }

    /// Per-IDB magic flags of the rewritten program.
    pub fn magic_flags(&self) -> &[bool] {
        &self.magic_flags
    }

    /// Projects a full query tuple to the seed fact for
    /// [`MagicProgram::magic_goal`]: the values at bound positions.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the goal arity.
    pub fn seed(&self, query: &[Element]) -> Vec<Element> {
        assert_eq!(query.len(), self.pattern.len(), "query arity mismatch");
        self.pattern.bound_positions().map(|i| query[i]).collect()
    }

    /// Compiles the rewritten program with magic predicates marked, so the
    /// evaluator attributes their probes to
    /// [`kv_structures::EvalStats::magic_probes`].
    pub fn compile(&self) -> CompiledProgram {
        CompiledProgram::compile_with_magic(&self.program, &self.magic_flags)
    }
}

/// Working state of one rewrite.
struct Rewriter<'p> {
    source: &'p Program,
    /// Discovered (source idb, adornment) pairs in discovery order. Pair
    /// `i` owns IDBs `2i` (adorned) and `2i + 1` (magic).
    pairs: Vec<(IdbId, Vec<bool>)>,
    pair_index: HashMap<(IdbId, Vec<bool>), usize>,
    idbs: Vec<(String, usize)>,
    flags: Vec<bool>,
    rules: Vec<Rule>,
}

impl<'p> Rewriter<'p> {
    fn new(source: &'p Program) -> Self {
        Self {
            source,
            pairs: Vec::new(),
            pair_index: HashMap::new(),
            idbs: Vec::new(),
            flags: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// Interns an adorned predicate, allocating its adorned + magic IDBs
    /// on first sight, and returns its pair index.
    fn discover(&mut self, idb: IdbId, adornment: Vec<bool>) -> usize {
        if let Some(&i) = self.pair_index.get(&(idb, adornment.clone())) {
            return i;
        }
        let i = self.pairs.len();
        self.pair_index.insert((idb, adornment.clone()), i);

        let pat: String = adornment
            .iter()
            .map(|&b| if b { 'b' } else { 'f' })
            .collect();
        let base = self.source.idb_name(idb);
        let arity = self.source.idb_arity(idb);
        let adorned_name = self.uniquify(format!("{base}_{pat}"));
        self.idbs.push((adorned_name, arity));
        self.flags.push(false);
        let magic_name = self.uniquify(format!("M_{base}_{pat}"));
        let magic_arity = adornment.iter().filter(|&&b| b).count();
        self.idbs.push((magic_name, magic_arity));
        self.flags.push(true);

        self.pairs.push((idb, adornment));
        i
    }

    /// Defends generated names against clashes with EDB relation names (a
    /// source IDB could legitimately be called `M_S_bb`).
    fn uniquify(&self, mut name: String) -> String {
        while self.source.vocabulary().relation_by_name(&name).is_some()
            || self.idbs.iter().any(|(n, _)| *n == name)
        {
            name.push('_');
        }
        name
    }

    fn adorned_id(i: usize) -> IdbId {
        IdbId(2 * i)
    }

    fn magic_id(i: usize) -> IdbId {
        IdbId(2 * i + 1)
    }

    /// Generates the adorned rule and the magic rules for every source
    /// rule whose head is pair `i`'s predicate.
    fn process(&mut self, i: usize) {
        let (head, adornment) = self.pairs[i].clone();
        for ri in 0..self.source.rules().len() {
            if self.source.rules()[ri].head == head {
                self.rewrite_rule(i, &adornment, ri);
            }
        }
    }

    fn rewrite_rule(&mut self, pair: usize, adornment: &[bool], ri: usize) {
        let rule = self.source.rules()[ri].clone();
        let magic_head_args: Vec<Term> = adornment
            .iter()
            .zip(&rule.head_args)
            .filter(|&(&b, _)| b)
            .map(|(_, &t)| t)
            .collect();
        let guard = Literal::Atom(Pred::Idb(Self::magic_id(pair)), magic_head_args);

        // Left-to-right boundness pass: derive each IDB occurrence's
        // adornment and build the adorned body as we go.
        let mut bind = Boundness::new(rule.var_count());
        for (pos, t) in rule.head_args.iter().enumerate() {
            if adornment[pos] {
                bind.bind_term(t);
            }
        }
        let mut adorned_body: Vec<Literal> = vec![guard.clone()];
        for lit in &rule.body {
            match lit {
                Literal::Atom(Pred::Idb(q), args) => {
                    let beta: Vec<bool> = args.iter().map(|t| bind.term_bound(t)).collect();
                    let sub = self.discover(*q, beta.clone());
                    // Magic rule: demand on q's bound values, justified by
                    // the guard plus the (adorned) prefix evaluated so far.
                    let magic_args: Vec<Term> = beta
                        .iter()
                        .zip(args)
                        .filter(|&(&b, _)| b)
                        .map(|(_, &t)| t)
                        .collect();
                    self.rules.push(Rule {
                        head: Self::magic_id(sub),
                        head_args: magic_args,
                        body: adorned_body.clone(),
                        var_names: rule.var_names.clone(),
                    });
                    adorned_body.push(Literal::Atom(
                        Pred::Idb(Self::adorned_id(sub)),
                        args.clone(),
                    ));
                    for t in args {
                        bind.bind_term(t);
                    }
                }
                Literal::Atom(p @ Pred::Edb(_), args) => {
                    adorned_body.push(Literal::Atom(*p, args.clone()));
                    for t in args {
                        bind.bind_term(t);
                    }
                }
                Literal::Eq(a, b) => {
                    bind.equate(a, b);
                    adorned_body.push(lit.clone());
                }
                Literal::Neq(_, _) => adorned_body.push(lit.clone()),
            }
        }
        self.rules.push(Rule {
            head: Self::adorned_id(pair),
            head_args: rule.head_args,
            body: adorned_body,
            var_names: rule.var_names,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{EvalOptions, Evaluator};
    use crate::programs;
    use kv_structures::generators::{directed_path, random_digraph};
    use kv_structures::Structure;

    /// Runs the rewritten program seeded with `query`'s bound values and
    /// asserts selection equality: tuples of the full-saturation goal that
    /// agree with `query` on bound positions == such tuples of the adorned
    /// goal.
    fn assert_demand_matches_full(
        program: &crate::Program,
        s: &Structure,
        pattern: &BindingPattern,
        query: &[kv_structures::Element],
    ) {
        let full = Evaluator::new(program).run(s, EvalOptions::default());
        let full_goal = &full.idb[program.goal().0];
        let magic = MagicProgram::rewrite(program, pattern).unwrap();
        let compiled = magic.compile();
        let seeds = vec![(magic.magic_goal(), magic.seed(query))];
        let demand = compiled.run_seeded(s, EvalOptions::default(), &seeds);
        let demand_goal = &demand.idb[magic.goal().0];
        let matches =
            |t: &[kv_structures::Element]| pattern.bound_positions().all(|i| t[i] == query[i]);
        for t in full_goal.iter().filter(|t| matches(t)) {
            assert!(
                demand_goal.contains(t),
                "demand missed {t:?} (pattern {pattern}, query {query:?})"
            );
        }
        for t in demand_goal.iter().filter(|t| matches(t)) {
            assert!(
                full_goal.contains(t),
                "demand over-derived {t:?} (pattern {pattern}, query {query:?})"
            );
        }
    }

    #[test]
    fn tc_bb_demand_equals_full_on_paths_and_digraphs() {
        let tc = programs::transitive_closure();
        let bb = BindingPattern::all_bound(2);
        let s = directed_path(7);
        for (a, b) in [(0u32, 6u32), (6, 0), (2, 5), (3, 3)] {
            assert_demand_matches_full(&tc, &s, &bb, &[a, b]);
        }
        let g = random_digraph(10, 0.2, 11).to_structure();
        for (a, b) in [(0u32, 9u32), (4, 2), (7, 7)] {
            assert_demand_matches_full(&tc, &g, &bb, &[a, b]);
        }
    }

    #[test]
    fn tc_partial_patterns_demand_equals_full() {
        let tc = programs::transitive_closure();
        let s = random_digraph(9, 0.22, 13).to_structure();
        for pat in ["bf", "fb", "ff"] {
            let pattern = BindingPattern::parse(pat).unwrap();
            assert_demand_matches_full(&tc, &s, &pattern, &[2, 6]);
        }
    }

    #[test]
    fn avoiding_path_bbb_demand_equals_full() {
        let ap = programs::avoiding_path();
        let s = random_digraph(8, 0.25, 17).to_structure();
        let bbb = BindingPattern::all_bound(3);
        for q in [[0u32, 5, 3], [1, 7, 0], [2, 2, 4]] {
            assert_demand_matches_full(&ap, &s, &bbb, &q);
        }
    }

    #[test]
    fn demand_derives_fewer_tuples_on_bounded_tc_query() {
        let tc = programs::transitive_closure();
        let s = directed_path(20);
        let full = Evaluator::new(&tc).run(&s, EvalOptions::default());
        let full_tuples: usize = full.idb.iter().map(|r| r.len()).sum();
        let magic = MagicProgram::rewrite(&tc, &BindingPattern::all_bound(2)).unwrap();
        let compiled = magic.compile();
        let seeds = vec![(magic.magic_goal(), magic.seed(&[17, 19]))];
        let demand = compiled.run_seeded(&s, EvalOptions::default(), &seeds);
        let demand_tuples: usize = demand.idb.iter().map(|r| r.len()).sum();
        assert!(demand.idb[magic.goal().0].contains(&[17u32, 19][..]));
        assert!(
            demand_tuples * 2 <= full_tuples,
            "demand {demand_tuples} vs full {full_tuples}"
        );
        // Magic guard probes are attributed separately and do not leak
        // into join_probes.
        assert!(demand.eval_stats.magic_probes > 0);
        assert_eq!(full.eval_stats.magic_probes, 0);
    }

    #[test]
    fn seeded_run_composes_with_sharded_workers() {
        let tc = programs::transitive_closure();
        let s = random_digraph(12, 0.18, 29).to_structure();
        let magic = MagicProgram::rewrite(&tc, &BindingPattern::all_bound(2)).unwrap();
        let compiled = magic.compile();
        let seeds = vec![(magic.magic_goal(), magic.seed(&[0, 11]))];
        let seq = compiled.run_seeded(&s, EvalOptions::default(), &seeds);
        for w in [1, 4] {
            let sharded = compiled.run_seeded(&s, EvalOptions::default().with_shards(w), &seeds);
            assert!(sharded.same_stages(&seq), "W={w}");
            if w == 1 {
                // One worker is the default path: counters are identical.
                assert_eq!(sharded.idb, seq.idb);
                assert_eq!(sharded.eval_stats, seq.eval_stats);
            }
        }
    }

    #[test]
    fn seeded_run_composes_with_cost_based_planner() {
        use kv_structures::PlannerMode;
        // The planner reorders atoms of the *adorned* program (magic
        // rewriting first, planning second); every stage must still match
        // the textual order, for every binding pattern of the goal.
        let tc = programs::transitive_closure();
        let s = random_digraph(12, 0.18, 29).to_structure();
        for pattern in ["bb", "bf", "fb", "ff"] {
            let pattern = BindingPattern::parse(pattern).unwrap();
            let magic = MagicProgram::rewrite(&tc, &pattern).unwrap();
            let compiled = magic.compile();
            let seeds = vec![(magic.magic_goal(), magic.seed(&[0, 11]))];
            let textual = compiled.run_seeded(&s, EvalOptions::default(), &seeds);
            let planned = compiled.run_seeded(
                &s,
                EvalOptions::default().with_planner(PlannerMode::CostBased),
                &seeds,
            );
            assert_eq!(textual.idb, planned.idb, "pattern {pattern}");
            assert!(textual.same_stages(&planned), "pattern {pattern}");
            assert!(
                planned.eval_stats.join_probes <= textual.eval_stats.join_probes,
                "pattern {pattern}: planned probes must not regress"
            );
        }
    }

    #[test]
    fn binding_pattern_basics() {
        let p = BindingPattern::parse("bfb").unwrap();
        assert_eq!(p.len(), 3);
        assert!(p.is_bound(0) && !p.is_bound(1) && p.is_bound(2));
        assert_eq!(p.bound_count(), 2);
        assert_eq!(p.bound_positions().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(p.to_string(), "bfb");
        assert!(BindingPattern::parse("bx").is_none());
        assert_eq!(BindingPattern::all_bound(2).to_string(), "bb");
        assert_eq!(BindingPattern::all_free(2).to_string(), "ff");
    }

    #[test]
    fn transitive_closure_bb_rewrite_shape() {
        let tc = programs::transitive_closure();
        let magic = MagicProgram::rewrite(&tc, &BindingPattern::all_bound(2)).unwrap();
        let p = magic.program();
        // One reachable adornment S^bb: S_bb + M_S_bb.
        assert_eq!(p.idb_count(), 2);
        assert_eq!(p.idb_name(magic.goal()), "S_bb");
        assert_eq!(p.idb_name(magic.magic_goal()), "M_S_bb");
        assert_eq!(p.idb_arity(magic.magic_goal()), 2);
        assert_eq!(magic.magic_flags(), &[false, true]);
        // TC has two rules; the recursive one has one IDB occurrence, so:
        // 2 adorned rules + 1 magic rule.
        assert_eq!(p.rules().len(), 3);
        assert_eq!(magic.seed(&[4, 7]), vec![4, 7]);
    }

    #[test]
    fn transitive_closure_bf_magic_is_unary() {
        let tc = programs::transitive_closure();
        let magic = MagicProgram::rewrite(&tc, &BindingPattern::parse("bf").unwrap()).unwrap();
        let p = magic.program();
        assert_eq!(p.idb_arity(magic.magic_goal()), 1);
        assert_eq!(magic.seed(&[4, 7]), vec![4]);
    }

    #[test]
    fn all_free_pattern_gives_nullary_magic() {
        let tc = programs::transitive_closure();
        let magic = MagicProgram::rewrite(&tc, &BindingPattern::all_free(2)).unwrap();
        assert_eq!(magic.program().idb_arity(magic.magic_goal()), 0);
        assert_eq!(magic.seed(&[4, 7]), Vec::<Element>::new());
    }

    #[test]
    fn avoiding_path_keeps_inequalities() {
        let ap = programs::avoiding_path();
        let magic = MagicProgram::rewrite(&ap, &BindingPattern::all_bound(3)).unwrap();
        // Inequality literals must survive into the rewritten rules.
        assert!(magic.program().rules().iter().any(Rule::uses_inequality));
        // Every rule is guarded by a magic atom in first body position.
        for rule in magic.program().rules() {
            let first = rule.body.first().expect("non-empty body");
            match first {
                Literal::Atom(Pred::Idb(id), _) => {
                    assert!(magic.magic_flags()[id.0], "first literal must be magic")
                }
                other => panic!("expected magic guard, got {other:?}"),
            }
        }
    }

    #[test]
    fn q_prime_discovers_nested_adornments() {
        let qp = programs::q_prime();
        let magic = MagicProgram::rewrite(&qp, &BindingPattern::all_bound(3)).unwrap();
        // Qp's rules call T, so at least Qp^bbb and one T adornment exist.
        assert!(magic.program().idb_count() >= 4);
        let names: Vec<&str> = (0..magic.program().idb_count())
            .map(|i| magic.program().idb_name(IdbId(i)))
            .collect();
        assert!(names.contains(&"Qp_bbb"));
        assert!(names.iter().any(|n| n.starts_with("T_")));
    }

    #[test]
    #[should_panic(expected = "binding pattern arity")]
    fn pattern_arity_mismatch_panics() {
        let tc = programs::transitive_closure();
        let _ = MagicProgram::rewrite(&tc, &BindingPattern::all_bound(3));
    }
}
