//! A small text syntax for Datalog(≠) programs.
//!
//! ```text
//! // Example 2.1: is there a w-avoiding path from x to y?
//! T(x, y, w) :- E(x, y), w != x, w != y.
//! T(x, y, w) :- E(x, z), T(z, y, w), w != x.
//! ?- T.
//! ```
//!
//! Conventions:
//! - `:-` or `<-` separates head from body; every rule ends with `.`;
//! - an identifier in term position denotes a **constant** iff the
//!   vocabulary declares a constant of that name, otherwise a rule-local
//!   variable;
//! - a predicate name denotes an **EDB** relation iff the vocabulary
//!   declares it, otherwise an IDB predicate (auto-declared at first use,
//!   with the arity of that first use);
//! - `?- P.` selects the goal predicate (defaults to the first IDB);
//! - `//` starts a line comment.
//!
//! Parsing is total: malformed input yields a structured [`ParseError`]
//! carrying the 1-based line and column of the offending token — never a
//! panic. Arity mismatches (against both earlier IDB uses and the EDB
//! vocabulary) are reported at parse time with their position instead of
//! surfacing later as positionless [`ProgramError`]s. The default parse is
//! *permissive* about head variables that occur in no positive body atom
//! (they range over the whole universe, as the evaluator defines);
//! [`parse_program_strict`] rejects them with a positioned error.

use crate::ast::{IdbId, Literal, Pred, Rule, Term, VarId};
use crate::program::{Program, ProgramError};
use kv_structures::Vocabulary;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors produced while parsing program text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Lexical, syntactic, or positioned semantic error.
    Syntax {
        /// 1-based line number (0 for whole-input errors).
        line: usize,
        /// 1-based column number (0 for whole-line errors).
        col: usize,
        /// Description.
        message: String,
    },
    /// The parsed program failed semantic validation.
    Invalid(ProgramError),
}

impl ParseError {
    fn at(line: usize, col: usize, message: impl Into<String>) -> Self {
        Self::Syntax {
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax { line, col, message } => match (line, col) {
                (0, _) => write!(f, "{message}"),
                (l, 0) => write!(f, "line {l}: {message}"),
                (l, c) => write!(f, "line {l}, col {c}: {message}"),
            },
            Self::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ProgramError> for ParseError {
    fn from(e: ProgramError) -> Self {
        Self::Invalid(e)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Arrow, // ":-" or "<-"
    Eq,    // "="
    Neq,   // "!="
    Goal,  // "?-"
}

/// A token with its 1-based (line, col) start position.
type Spanned = (Tok, usize, usize);

fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                col += 1;
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                toks.push((Tok::LParen, line, col));
                col += 1;
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, line, col));
                col += 1;
                i += 1;
            }
            ',' => {
                toks.push((Tok::Comma, line, col));
                col += 1;
                i += 1;
            }
            '.' => {
                toks.push((Tok::Dot, line, col));
                col += 1;
                i += 1;
            }
            '=' => {
                toks.push((Tok::Eq, line, col));
                col += 1;
                i += 1;
            }
            ':' if bytes.get(i + 1) == Some(&'-') => {
                toks.push((Tok::Arrow, line, col));
                col += 2;
                i += 2;
            }
            '<' if bytes.get(i + 1) == Some(&'-') => {
                toks.push((Tok::Arrow, line, col));
                col += 2;
                i += 2;
            }
            '!' if bytes.get(i + 1) == Some(&'=') => {
                toks.push((Tok::Neq, line, col));
                col += 2;
                i += 2;
            }
            '?' if bytes.get(i + 1) == Some(&'-') => {
                toks.push((Tok::Goal, line, col));
                col += 2;
                i += 2;
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                let start_col = col;
                while i < bytes.len()
                    && (bytes[i].is_alphanumeric() || bytes[i] == '_' || bytes[i] == '\'')
                {
                    i += 1;
                    col += 1;
                }
                toks.push((
                    Tok::Ident(bytes[start..i].iter().collect()),
                    line,
                    start_col,
                ));
            }
            other => {
                return Err(ParseError::at(
                    line,
                    col,
                    format!("unexpected character {other:?}"),
                ))
            }
        }
    }
    Ok(toks)
}

struct Parser<'a> {
    toks: Vec<Spanned>,
    pos: usize,
    vocab: &'a Vocabulary,
    idbs: Vec<(String, usize)>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _, _)| t)
    }

    /// (line, col) of the current token, or of the last token at EOF.
    fn pos_of(&self) -> (usize, usize) {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or((0, 0), |&(_, l, c)| (l, c))
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.pos_of();
        ParseError::at(line, col, message)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.next();
                Ok(())
            }
            other => {
                let msg = format!("expected {what}, found {other:?}");
                Err(self.err(msg))
            }
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(_)) => match self.next() {
                Some(Tok::Ident(s)) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            other => {
                let msg = format!("expected identifier, found {other:?}");
                Err(self.err(msg))
            }
        }
    }

    /// Resolves a predicate name, auto-declaring IDBs. Arity is checked at
    /// parse time against both the vocabulary (EDB) and earlier uses (IDB).
    fn pred(
        &mut self,
        name: &str,
        arity: usize,
        line: usize,
        col: usize,
    ) -> Result<Pred, ParseError> {
        if let Some(r) = self.vocab.relation_by_name(name) {
            let declared = self.vocab.arity(r);
            if declared != arity {
                return Err(ParseError::at(
                    line,
                    col,
                    format!("EDB relation {name} used with arity {arity}, declared {declared}"),
                ));
            }
            return Ok(Pred::Edb(r));
        }
        if let Some(i) = self.idbs.iter().position(|(n, _)| n == name) {
            if self.idbs[i].1 != arity {
                return Err(ParseError::at(
                    line,
                    col,
                    format!(
                        "predicate {name} used with arity {arity}, previously {}",
                        self.idbs[i].1
                    ),
                ));
            }
            return Ok(Pred::Idb(IdbId(i)));
        }
        self.idbs.push((name.to_string(), arity));
        Ok(Pred::Idb(IdbId(self.idbs.len() - 1)))
    }

    fn term(
        &mut self,
        vars: &mut Vec<String>,
        var_ids: &mut HashMap<String, VarId>,
    ) -> Result<Term, ParseError> {
        let name = self.ident()?;
        if let Some(c) = self.vocab.constant_by_name(&name) {
            return Ok(Term::Const(c));
        }
        let id = *var_ids.entry(name.clone()).or_insert_with(|| {
            vars.push(name.clone());
            VarId(vars.len() - 1)
        });
        Ok(Term::Var(id))
    }

    fn term_list(
        &mut self,
        vars: &mut Vec<String>,
        var_ids: &mut HashMap<String, VarId>,
    ) -> Result<Vec<Term>, ParseError> {
        self.expect(&Tok::LParen, "'('")?;
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.next();
            return Ok(args);
        }
        loop {
            args.push(self.term(vars, var_ids)?);
            match self.peek() {
                Some(Tok::Comma) => {
                    self.next();
                }
                Some(Tok::RParen) => {
                    self.next();
                    break;
                }
                other => {
                    let msg = format!("expected ',' or ')', found {other:?}");
                    return Err(self.err(msg));
                }
            }
        }
        Ok(args)
    }
}

/// Parses a program from text against the given EDB vocabulary.
///
/// Head variables that occur in no positive body atom are accepted and
/// range over the whole universe (the evaluator's semantics); use
/// [`parse_program_strict`] to reject them.
///
/// ```
/// use kv_datalog::{parse_program, Evaluator};
/// use kv_structures::{generators::directed_path, Vocabulary};
/// use std::sync::Arc;
///
/// let program = parse_program(
///     "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y). ?- S.",
///     Arc::new(Vocabulary::graph()),
/// )?;
/// let tc = Evaluator::new(&program).goal(&directed_path(4));
/// assert!(tc.contains(&[0u32, 3][..])); // 0 reaches 3
/// # Ok::<(), kv_datalog::ParseError>(())
/// ```
pub fn parse_program(src: &str, vocabulary: Arc<Vocabulary>) -> Result<Program, ParseError> {
    parse_program_impl(src, vocabulary, false)
}

/// Like [`parse_program`], but rejects rules whose head mentions a
/// variable that occurs in no positive body atom, reporting the rule's
/// position. Safe-range Datalog texts parse identically under both modes.
///
/// ```
/// use kv_datalog::parser::parse_program_strict;
/// use kv_structures::Vocabulary;
/// use std::sync::Arc;
///
/// let err = parse_program_strict("P(x, w) :- E(x, x).", Arc::new(Vocabulary::graph()))
///     .unwrap_err();
/// assert!(err.to_string().contains("unbound head variable"));
/// ```
pub fn parse_program_strict(src: &str, vocabulary: Arc<Vocabulary>) -> Result<Program, ParseError> {
    parse_program_impl(src, vocabulary, true)
}

fn parse_program_impl(
    src: &str,
    vocabulary: Arc<Vocabulary>,
    strict: bool,
) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let vocab_ref = Arc::clone(&vocabulary);
    let mut p = Parser {
        toks,
        pos: 0,
        vocab: &vocab_ref,
        idbs: Vec::new(),
    };
    let mut rules: Vec<Rule> = Vec::new();
    let mut goal_name: Option<String> = None;
    while p.peek().is_some() {
        if p.peek() == Some(&Tok::Goal) {
            p.next();
            let name = p.ident()?;
            p.expect(&Tok::Dot, "'.'")?;
            goal_name = Some(name);
            continue;
        }
        // Head.
        let mut vars: Vec<String> = Vec::new();
        let mut var_ids: HashMap<String, VarId> = HashMap::new();
        let (head_line, head_col) = p.pos_of();
        let head_name = p.ident()?;
        let head_args = p.term_list(&mut vars, &mut var_ids)?;
        let head = match p.pred(&head_name, head_args.len(), head_line, head_col)? {
            Pred::Idb(i) => i,
            Pred::Edb(_) => {
                return Err(ParseError::at(
                    head_line,
                    head_col,
                    format!("rule head {head_name} is an EDB relation"),
                ))
            }
        };
        // Body (optional).
        let mut body = Vec::new();
        match p.next() {
            Some(Tok::Dot) => {}
            Some(Tok::Arrow) => loop {
                // A literal: either ident(...) or term (= | !=) term.
                let (lit_line, lit_col) = p.pos_of();
                let first = p.term(&mut vars, &mut var_ids)?;
                match p.peek() {
                    Some(Tok::LParen) => {
                        // `first` was actually a predicate name: undo the
                        // variable registration if it created one.
                        let name = match first {
                            Term::Var(v) => {
                                let name = vars[v.0].clone();
                                // Only remove if it was freshly created and
                                // is the last one (no other use yet).
                                if v.0 == vars.len() - 1
                                    && !body_mentions(&body, v)
                                    && !head_args.contains(&Term::Var(v))
                                {
                                    vars.pop();
                                    var_ids.remove(&name);
                                }
                                name
                            }
                            Term::Const(_) => return Err(p.err("constant used as predicate name")),
                        };
                        let args = p.term_list(&mut vars, &mut var_ids)?;
                        let pred = p.pred(&name, args.len(), lit_line, lit_col)?;
                        body.push(Literal::Atom(pred, args));
                    }
                    Some(Tok::Eq) => {
                        p.next();
                        let second = p.term(&mut vars, &mut var_ids)?;
                        body.push(Literal::Eq(first, second));
                    }
                    Some(Tok::Neq) => {
                        p.next();
                        let second = p.term(&mut vars, &mut var_ids)?;
                        body.push(Literal::Neq(first, second));
                    }
                    other => {
                        let msg = format!("expected '(', '=' or '!=', found {other:?}");
                        return Err(p.err(msg));
                    }
                }
                match p.peek() {
                    Some(Tok::Comma) => {
                        p.next();
                        continue;
                    }
                    Some(Tok::Dot) => {
                        p.next();
                        break;
                    }
                    other => {
                        let msg = format!("expected ',' or '.', found {other:?}");
                        return Err(p.err(msg));
                    }
                }
            },
            other => {
                return Err(ParseError::at(
                    head_line,
                    head_col,
                    format!("expected ':-' or '.', found {other:?}"),
                ))
            }
        }
        if strict {
            check_head_range(&head_name, &head_args, &body, &vars, head_line, head_col)?;
        }
        rules.push(Rule {
            head,
            head_args,
            body,
            var_names: vars,
        });
    }
    let goal = match goal_name {
        Some(name) => IdbId(p.idbs.iter().position(|(n, _)| *n == name).ok_or_else(|| {
            ParseError::at(
                0,
                0,
                format!("goal predicate {name} is not an IDB of the program"),
            )
        })?),
        None => IdbId(0),
    };
    Ok(Program::new(vocabulary, p.idbs, rules, goal)?)
}

/// Strict-mode range check: every head variable must occur in a positive
/// body atom (equalities and inequalities do not bind).
fn check_head_range(
    head_name: &str,
    head_args: &[Term],
    body: &[Literal],
    vars: &[String],
    line: usize,
    col: usize,
) -> Result<(), ParseError> {
    for t in head_args {
        let Term::Var(v) = t else { continue };
        let bound = body.iter().any(|l| match l {
            Literal::Atom(_, args) => args.contains(&Term::Var(*v)),
            Literal::Eq(..) | Literal::Neq(..) => false,
        });
        if !bound {
            return Err(ParseError::at(
                line,
                col,
                format!(
                    "unbound head variable {} in rule for {head_name} \
                     (strict mode: every head variable must occur in a positive body atom)",
                    vars[v.0]
                ),
            ));
        }
    }
    Ok(())
}

fn body_mentions(body: &[Literal], v: VarId) -> bool {
    body.iter().any(|l| match l {
        Literal::Atom(_, args) => args.contains(&Term::Var(v)),
        Literal::Eq(a, b) | Literal::Neq(a, b) => *a == Term::Var(v) || *b == Term::Var(v),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_vocab() -> Arc<Vocabulary> {
        Arc::new(Vocabulary::graph())
    }

    #[test]
    fn parses_transitive_closure() {
        let src = "
            // Example 2.2
            S(x, y) :- E(x, y).
            S(x, y) :- E(x, z), S(z, y).
            ?- S.
        ";
        let p = parse_program(src, graph_vocab()).unwrap();
        assert_eq!(p.idb_count(), 1);
        assert!(p.is_pure_datalog());
        assert_eq!(p.rules().len(), 2);
        assert_eq!(p.goal(), IdbId(0));
    }

    #[test]
    fn parses_avoiding_path_with_inequalities() {
        let src = "
            T(x, y, w) :- E(x, y), w != x, w != y.
            T(x, y, w) :- E(x, z), T(z, y, w), w != x.
        ";
        let p = parse_program(src, graph_vocab()).unwrap();
        assert!(!p.is_pure_datalog());
        assert_eq!(p.idb_arity(IdbId(0)), 3);
        assert_eq!(p.max_rule_vars(), 4);
    }

    #[test]
    fn parses_constants_from_vocabulary() {
        let vocab = Arc::new(Vocabulary::graph_with_constants(2));
        let src = "
            P(x) :- E(s1, x), x != s2.
            ?- P.
        ";
        let p = parse_program(src, vocab).unwrap();
        let rule = &p.rules()[0];
        // The only variable is x; s1 and s2 are constants.
        assert_eq!(rule.var_names, vec!["x".to_string()]);
    }

    #[test]
    fn parses_fact_rules_with_empty_body() {
        let vocab = Arc::new(Vocabulary::graph_with_constants(2));
        let src = "D(s1, s2).";
        let p = parse_program(src, vocab).unwrap();
        assert!(p.rules()[0].body.is_empty());
    }

    #[test]
    fn parses_explicit_equality() {
        let src = "P(x, y) :- E(x, z), z = y.";
        let p = parse_program(src, graph_vocab()).unwrap();
        assert!(matches!(p.rules()[0].body[1], Literal::Eq(_, _)));
    }

    #[test]
    fn goal_directive_selects_idb() {
        let src = "
            A(x) :- E(x, x).
            B(x) :- A(x).
            ?- B.
        ";
        let p = parse_program(src, graph_vocab()).unwrap();
        assert_eq!(p.idb_name(p.goal()), "B");
    }

    #[test]
    fn rejects_edb_head() {
        let src = "E(x, y) :- E(y, x).";
        let err = parse_program(src, graph_vocab()).unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
    }

    #[test]
    fn rejects_arity_flip_flop() {
        let src = "
            P(x) :- E(x, x).
            Q(x) :- P(x, x).
        ";
        let err = parse_program(src, graph_vocab()).unwrap_err();
        match err {
            ParseError::Syntax { line, col, message } => {
                assert_eq!(line, 3, "error should point at the offending atom");
                assert!(col > 0);
                assert!(message.contains("arity 2, previously 1"), "{message}");
            }
            other => panic!("expected positioned syntax error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_edb_arity_mismatch_at_parse_time() {
        // E is binary in the graph vocabulary; using it unary must fail
        // at the use site, not as a positionless program error.
        let src = "P(x) :- E(x).";
        let err = parse_program(src, graph_vocab()).unwrap_err();
        match err {
            ParseError::Syntax { line, col, message } => {
                assert_eq!(line, 1);
                assert_eq!(col, 9);
                assert!(message.contains("arity 1, declared 2"), "{message}");
            }
            other => panic!("expected positioned syntax error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_goal() {
        let src = "P(x) :- E(x, x). ?- Z.";
        assert!(parse_program(src, graph_vocab()).is_err());
    }

    #[test]
    fn arrow_variants_accepted() {
        let src = "P(x) <- E(x, x).";
        assert!(parse_program(src, graph_vocab()).is_ok());
    }

    #[test]
    fn errors_carry_line_and_column() {
        // The stray '=' sits on line 2 at column 18.
        let src = "P(x) :- E(x, x).\nQ(y) :- E(y, y), = .";
        let err = parse_program(src, graph_vocab()).unwrap_err();
        match err {
            ParseError::Syntax { line, col, .. } => {
                assert_eq!(line, 2);
                assert_eq!(col, 18);
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
        assert!(err.to_string().starts_with("line 2, col 18:"));
    }

    #[test]
    fn lex_error_position_is_exact() {
        let src = "P(x) :- E(x, x).\n  @";
        let err = parse_program(src, graph_vocab()).unwrap_err();
        assert_eq!(
            err,
            ParseError::at(2, 3, "unexpected character '@'".to_string())
        );
    }

    #[test]
    fn malformed_rules_never_panic() {
        // A grab-bag of malformed inputs: every one must produce an error,
        // never a panic.
        let bad = [
            "P(",
            "P(x",
            "P(x,",
            "P(x))",
            ":- E(x, y).",
            "P(x) :-",
            "P(x) :- .",
            "P(x) :- E(x, y),",
            "P(x) :- E(x, y) Q(y).",
            "?-",
            "?- .",
            "P(x) :- s1(x, y).",
            "P(x) := E(x, y).",
            "P(x) :- x != .",
            "P(x) :- E(x, y). ?- P. ?-",
        ];
        let vocab = Arc::new(Vocabulary::graph_with_constants(1));
        for src in bad {
            let res = parse_program(src, Arc::clone(&vocab));
            assert!(res.is_err(), "expected error for {src:?}");
        }
    }

    #[test]
    fn fuzzed_programs_never_panic() {
        let valid = [
            "// TC\nS(x, y) :- E(x, y).\nS(x, y) :- E(x, z), S(z, y).\n?- S.\n",
            "T(x, y, w) :- E(x, y), w != x, w != y.\nT(x, y, w) <- E(x, z), T(z, y, w), w != x.\n",
            "D(s1, s2).\nP(x) :- E(s1, x), x = s2, D(x, x).\n?- P.\n",
            "A(x) :- E(x, x).\nB(x, w) :- A(x), E(w, w).\n?- B.",
        ];
        let vocab = Arc::new(Vocabulary::graph_with_constants(2));
        let mut rng = kv_structures::SplitMix64::seed_from_u64(0xDA7A_F022);
        for _ in 0..20_000 {
            let src = rng.fuzz_text(&valid);
            let parsed = std::panic::catch_unwind(|| {
                let _ = parse_program(&src, Arc::clone(&vocab));
                let _ = parse_program_strict(&src, Arc::clone(&vocab));
            });
            assert!(parsed.is_ok(), "the parser panicked on {src:?}");
        }
    }

    #[test]
    fn strict_mode_rejects_unbound_head_variable() {
        let src = "P(x, w) :- E(x, x).";
        let err = parse_program_strict(src, graph_vocab()).unwrap_err();
        match err {
            ParseError::Syntax { line, col, message } => {
                assert_eq!((line, col), (1, 1));
                assert!(message.contains("unbound head variable w"), "{message}");
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
        // The permissive default accepts the same text (the variable
        // ranges over the universe).
        assert!(parse_program(src, graph_vocab()).is_ok());
    }

    #[test]
    fn strict_mode_ignores_inequality_bindings() {
        // w appears in the body, but only in an inequality — still unbound.
        let src = "P(x, w) :- E(x, x), w != x.";
        assert!(parse_program_strict(src, graph_vocab()).is_err());
        // Bound through a positive atom: fine in both modes.
        let ok = "P(x, w) :- E(x, w).";
        assert!(parse_program_strict(ok, graph_vocab()).is_ok());
    }

    #[test]
    fn strict_mode_accepts_safe_range_programs_identically() {
        let src = "
            T(x, y, w) :- E(x, y), T(y, x, w), w != x.
            T(x, y, w) :- E(x, y), E(w, w).
            ?- T.
        ";
        let p1 = parse_program(src, graph_vocab()).unwrap();
        let p2 = parse_program_strict(src, graph_vocab()).unwrap();
        assert_eq!(p1.rules(), p2.rules());
        assert_eq!(p1.goal(), p2.goal());
    }

    #[test]
    fn display_reparses_to_same_program() {
        let vocab = Arc::new(Vocabulary::graph_with_constants(2));
        let src = "
            T(x, y, w) :- E(x, y), w != x, w != y.
            T(x, y, w) :- E(x, z), T(z, y, w), w != x.
            Q(x) :- T(s1, x, s2).
            ?- Q.
        ";
        let p1 = parse_program(src, Arc::clone(&vocab)).unwrap();
        let p2 = parse_program(&p1.to_string(), vocab).unwrap();
        assert_eq!(p1.rules(), p2.rules());
        assert_eq!(p1.goal(), p2.goal());
    }
}
