//! Finite structures: a universe together with interpretations of every
//! symbol of a [`Vocabulary`].

use crate::store::{TupleId, TupleStore};
use crate::vocabulary::{ConstId, RelId, Vocabulary};
use std::fmt;
use std::sync::Arc;

/// An element of a structure's universe. Universes are always `{0, …, n-1}`.
pub type Element = u32;

/// A tuple of elements (one row of a relation), in owned/boxed form.
///
/// Storage no longer boxes tuples — relations intern rows into a
/// [`TupleStore`] arena — but the boxed form remains the convenient owned
/// representation for sorting, error reporting, and test fixtures.
pub type Tuple = Box<[Element]>;

/// The interpretation of one relation symbol: a set of tuples of the symbol's
/// arity, interned in a [`TupleStore`].
///
/// Iteration yields borrowed `&[Element]` slices in insertion (id) order;
/// equality is *set* equality, independent of insertion order. The
/// underlying store is exposed ([`store`](Self::store)) so evaluators can
/// index and join the relation without copying its tuples.
#[derive(Debug, Clone, Default, Eq)]
pub struct Relation {
    store: TupleStore,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            store: TupleStore::new(arity),
        }
    }

    /// Wraps an existing store as a relation.
    pub fn from_store(store: TupleStore) -> Self {
        Self { store }
    }

    /// The arity of this relation.
    pub fn arity(&self) -> usize {
        self.store.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple length does not match the arity.
    pub fn insert(&mut self, tuple: &[Element]) -> bool {
        self.store.intern(tuple).1
    }

    /// Tests membership.
    pub fn contains(&self, tuple: &[Element]) -> bool {
        self.store.contains(tuple)
    }

    /// The dense id of a tuple within this relation's store, if present.
    pub fn id_of(&self, tuple: &[Element]) -> Option<TupleId> {
        self.store.lookup(tuple)
    }

    /// Iterates over the tuples in insertion (id) order.
    pub fn iter(&self) -> impl Iterator<Item = &[Element]> {
        self.store.iter()
    }

    /// The backing interned store.
    pub fn store(&self) -> &TupleStore {
        &self.store
    }

    /// Removes a tuple; returns `true` if it was present.
    ///
    /// The backing arena is append-only (that is what makes delta views id
    /// ranges), so removal rebuilds the store without the tuple — O(n).
    /// No hot path removes tuples; this exists for test fixtures and
    /// ad-hoc structure surgery.
    pub fn remove(&mut self, tuple: &[Element]) -> bool {
        if !self.store.contains(tuple) {
            return false;
        }
        let mut rebuilt = TupleStore::new(self.store.arity());
        for t in self.store.iter().filter(|t| *t != tuple) {
            rebuilt.intern(t);
        }
        self.store = rebuilt;
        true
    }

    /// Returns the tuples as a sorted vector (deterministic order, for
    /// display and hashing-independent comparisons).
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.store.iter().map(Box::from).collect();
        v.sort();
        v
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.store.set_eq(&other.store)
    }
}

/// A finite relational structure `A` over a vocabulary `σ`.
///
/// The universe is `{0, …, n-1}`; every relation symbol of `σ` is interpreted
/// by a [`Relation`] and every constant symbol by an element.
///
/// The vocabulary is held behind an [`Arc`] so that the many structures built
/// during game solving and reductions share it cheaply.
#[derive(Debug, Clone, PartialEq)]
pub struct Structure {
    vocabulary: Arc<Vocabulary>,
    universe: usize,
    relations: Vec<Relation>,
    constants: Vec<Element>,
}

impl Structure {
    /// Creates a structure with an empty interpretation of every relation
    /// symbol and all constants interpreted as element `0`.
    ///
    /// # Panics
    /// Panics if `universe == 0` but the vocabulary has constant symbols
    /// (constants need somewhere to point).
    pub fn new(vocabulary: Arc<Vocabulary>, universe: usize) -> Self {
        assert!(
            universe > 0 || vocabulary.constant_count() == 0,
            "empty universe cannot interpret constant symbols"
        );
        let relations = vocabulary
            .relations()
            .map(|r| Relation::new(vocabulary.arity(r)))
            .collect();
        let constants = vec![0; vocabulary.constant_count()];
        Self {
            vocabulary,
            universe,
            relations,
            constants,
        }
    }

    /// The vocabulary.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocabulary
    }

    /// Universe size `n`; the universe is `{0, …, n-1}`.
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// Iterates over all elements of the universe.
    pub fn elements(&self) -> impl Iterator<Item = Element> {
        0..self.universe as Element
    }

    /// The interpretation of relation `rel`.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.0]
    }

    /// Inserts a tuple into relation `rel`; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics on arity mismatch or if a tuple component is outside the
    /// universe.
    pub fn insert(&mut self, rel: RelId, tuple: &[Element]) -> bool {
        assert!(
            tuple.iter().all(|&e| (e as usize) < self.universe),
            "tuple {tuple:?} outside universe of size {}",
            self.universe
        );
        self.relations[rel.0].insert(tuple)
    }

    /// Tests whether `tuple` is in relation `rel`.
    pub fn contains(&self, rel: RelId, tuple: &[Element]) -> bool {
        self.relations[rel.0].contains(tuple)
    }

    /// The interpretation of constant `c`.
    pub fn constant(&self, c: ConstId) -> Element {
        self.constants[c.0]
    }

    /// Sets the interpretation of constant `c`.
    ///
    /// # Panics
    /// Panics if `value` is outside the universe.
    pub fn set_constant(&mut self, c: ConstId, value: Element) {
        assert!(
            (value as usize) < self.universe,
            "constant outside universe"
        );
        self.constants[c.0] = value;
    }

    /// All constant interpretations, in `ConstId` order.
    pub fn constant_values(&self) -> &[Element] {
        &self.constants
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Grows the universe by `extra` fresh elements and returns the first new
    /// element. Relations and constants are unchanged.
    pub fn grow(&mut self, extra: usize) -> Element {
        let first = self.universe as Element;
        self.universe += extra;
        first
    }

    /// Checks the structure for internal consistency (tuples within the
    /// universe, arities correct, constants within the universe). Used by
    /// tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        for rel in self.vocabulary.relations() {
            let r = &self.relations[rel.0];
            if r.arity() != self.vocabulary.arity(rel) {
                return Err(format!(
                    "relation {} has arity {} but vocabulary says {}",
                    self.vocabulary.relation_name(rel),
                    r.arity(),
                    self.vocabulary.arity(rel)
                ));
            }
            for t in r.iter() {
                if t.iter().any(|&e| e as usize >= self.universe) {
                    return Err(format!(
                        "tuple {t:?} of {} outside universe of size {}",
                        self.vocabulary.relation_name(rel),
                        self.universe
                    ));
                }
            }
        }
        for (i, &c) in self.constants.iter().enumerate() {
            if c as usize >= self.universe {
                return Err(format!(
                    "constant {} = {c} outside universe of size {}",
                    self.vocabulary.constant_name(ConstId(i)),
                    self.universe
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "structure with |A| = {}", self.universe)?;
        for rel in self.vocabulary.relations() {
            let name = self.vocabulary.relation_name(rel);
            let rows = self.relations[rel.0].sorted();
            write!(f, "  {name} = {{")?;
            for (i, t) in rows.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "(")?;
                for (j, e) in t.iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")?;
            }
            writeln!(f, "}}")?;
        }
        for c in self.vocabulary.constants() {
            writeln!(
                f,
                "  {} = {}",
                self.vocabulary.constant_name(c),
                self.constants[c.0]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_vocab() -> Arc<Vocabulary> {
        Arc::new(Vocabulary::graph())
    }

    #[test]
    fn empty_structure() {
        let s = Structure::new(graph_vocab(), 3);
        assert_eq!(s.universe_size(), 3);
        assert_eq!(s.tuple_count(), 0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn insert_and_contains() {
        let mut s = Structure::new(graph_vocab(), 3);
        let e = RelId(0);
        assert!(s.insert(e, &[0, 1]));
        assert!(!s.insert(e, &[0, 1]));
        assert!(s.insert(e, &[1, 2]));
        assert!(s.contains(e, &[0, 1]));
        assert!(!s.contains(e, &[1, 0]));
        assert_eq!(s.tuple_count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut s = Structure::new(graph_vocab(), 2);
        s.insert(RelId(0), &[0, 5]);
    }

    #[test]
    fn constants_roundtrip() {
        let v = Arc::new(Vocabulary::graph_with_constants(2));
        let mut s = Structure::new(v, 4);
        s.set_constant(ConstId(0), 1);
        s.set_constant(ConstId(1), 3);
        assert_eq!(s.constant(ConstId(0)), 1);
        assert_eq!(s.constant(ConstId(1)), 3);
        assert_eq!(s.constant_values(), &[1, 3]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn grow_adds_elements() {
        let mut s = Structure::new(graph_vocab(), 2);
        let first = s.grow(3);
        assert_eq!(first, 2);
        assert_eq!(s.universe_size(), 5);
        assert!(s.insert(RelId(0), &[4, 0]));
    }

    #[test]
    fn validate_rejects_bad_constant() {
        let v = Arc::new(Vocabulary::graph_with_constants(1));
        let mut s = Structure::new(v, 3);
        s.set_constant(ConstId(0), 2);
        // Shrink behind validate's back is impossible through the API, so
        // build the error by hand via a cloned structure with fewer elements.
        s.universe = 1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn relation_sorted_is_deterministic() {
        let mut r = Relation::new(2);
        r.insert(&[2, 0]);
        r.insert(&[0, 1]);
        r.insert(&[1, 1]);
        let rows = r.sorted();
        assert_eq!(
            rows,
            vec![
                vec![0u32, 1].into_boxed_slice(),
                vec![1u32, 1].into_boxed_slice(),
                vec![2u32, 0].into_boxed_slice(),
            ]
        );
    }

    #[test]
    fn display_contains_relations_and_constants() {
        let v = Arc::new(Vocabulary::graph_with_constants(1));
        let mut s = Structure::new(v, 2);
        s.insert(RelId(0), &[0, 1]);
        s.set_constant(ConstId(0), 1);
        let text = s.to_string();
        assert!(text.contains("E = {(0,1)}"));
        assert!(text.contains("s1 = 1"));
    }
}
