//! Shared machinery for relational (semi-)Fraïssé classes.
//!
//! All relational classes in this crate (free, `HOM`, linear orders,
//! equivalence relations, data products) implement the [`AmalgamClass`]
//! trait: they enumerate `k`-generated members and, most importantly,
//! *amalgams* — extensions of a base pointed structure by `k` new register
//! values that stay inside the class. A blanket implementation turns any
//! `AmalgamClass` into a [`SymbolicClass`] for the Theorem 5 engine,
//! providing:
//!
//! * sub-transition successors (amalgams that satisfy the guard, restricted
//!   to the substructure generated by the new points and canonicalized in
//!   one pass by [`RelConfig::generated`]);
//! * witness concretization by replaying the trace against ever-growing full
//!   databases — the executable form of the paper's soundness induction
//!   ("by closure under amalgamation we get a database A′ ...", §4.1).
//!
//! # Guard-directed enumeration
//!
//! A successor is the substructure generated by the new points of an
//! amalgam that satisfies the guard; nothing else about the amalgam
//! matters. The guard therefore steers the enumeration instead of filtering
//! it afterwards ([`GuardHints`] carries it, translated to the internal
//! schema). The classes built from optional facts (free, `HOM`) use it in
//! three ways, once per placement of the new points (and per coloring of
//! the fresh points in `HOM`):
//!
//! * **Cross tuples.** Classes closed under removing tuples only ever add
//!   the cross tuples some guard atom mentions. Any richer amalgam can be
//!   thinned to such a candidate without changing membership, the guard's
//!   atoms, or the generated new configuration, so the enumeration stays
//!   complete while avoiding the `2^(2k)^arity` blow-up of enumerating
//!   every cross tuple.
//! * **Guard compilation.** Against one placement the guard compiles into
//!   a propositional program over the bits of an optional-fact mask. An
//!   atom whose tuple is optional fact `i` reads bit `i`; any other atom is
//!   decided by the placement's base structure, and a variable
//!   (dis)equality by the placement itself. Masks are visited in ascending
//!   order, and a mask whose program is false is skipped before its
//!   candidate is built.
//! * **Projection dedup.** Two masks that agree on the optional facts lying
//!   wholly inside the new-point universe generate the same successor.
//!   Among the masks that pass, only the first of each such projection is
//!   built.
//!
//! The program is exact — it decides what `eval` decides on the candidate
//! — and `transitions` still runs the reference `eval` on every
//! candidate, so the program only prunes. The kept candidates are those
//! of the unpruned enumeration (every subset of every placement), in its
//! order, minus guard rejects and minus later duplicates of an earlier
//! successor. `transitions` keeps the first occurrence of each successor
//! in candidate order, and [`replay_trace`] takes the first candidate
//! that matches a trace step; both are the first passing mask of their
//! projection, so the successor lists, every deterministic engine
//! statistic and every witness are those of the unpruned enumeration. A
//! guard that does not compile (a quantifier, a function term, an
//! out-of-range variable), or no guard at all, becomes the constant
//! `true` with every mask its own projection: the same loop, pruning
//! nothing.

use crate::class::{Pointed, RelConfig, SymbolicClass, Trace};
use dds_logic::eval::eval;
use dds_logic::{Formula, Term, Var};
use dds_structure::{Element, Schema, Structure, SymbolId, SymbolKind};
use dds_system::{Run, System};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ----------------------------------------------------------------------
// Per-thread scratch: a structure reuse pool and a placement memo.
//
// The successor hot path builds one candidate structure per placement and
// per optional-fact subset — thousands of short-lived structures per BFS
// layer, each of which used to be a fresh allocation tree. The pool hands
// the buffers back out ([`Structure::clone_from`] reuses the flat relation
// rows), and the engine reports the hit/miss counters as
// `EngineStats::scratch_reuses` / `scratch_allocs`. Thread-locals keep the
// pool lock-free under the engine's worker pool; the counters are global
// atomics so the coordinator can read a process-wide delta.
// ----------------------------------------------------------------------

static SCRATCH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SCRATCH_REUSES: AtomicU64 = AtomicU64::new(0);

/// Pooled structures kept per thread; beyond this, released structures are
/// simply dropped. The hot path holds at most one layer's accepted
/// candidates outside the pool, so a small cap suffices.
const SCRATCH_POOL_CAP: usize = 256;

/// All placements of `k` points into a base of a given size, shared by
/// reference between the memo and its borrowers.
type PlacementTable = Rc<Vec<Vec<PointTarget>>>;

thread_local! {
    static STRUCT_POOL: RefCell<Vec<Structure>> = const { RefCell::new(Vec::new()) };
    static PLACEMENTS_MEMO: RefCell<HashMap<(usize, usize), PlacementTable>> =
        RefCell::new(HashMap::new());
}

/// Process-wide `(allocs, reuses)` scratch counters; the engine snapshots a
/// delta around each run.
pub(crate) fn scratch_counters() -> (u64, u64) {
    (
        SCRATCH_ALLOCS.load(Ordering::Relaxed),
        SCRATCH_REUSES.load(Ordering::Relaxed),
    )
}

/// A structure initialized as a copy of `src`, drawn from this thread's
/// reuse pool when possible. Pair with [`release_structure`] to recycle.
pub fn scratch_structure(src: &Structure) -> Structure {
    STRUCT_POOL.with(|pool| match pool.borrow_mut().pop() {
        Some(mut s) => {
            SCRATCH_REUSES.fetch_add(1, Ordering::Relaxed);
            s.clone_from(src);
            s
        }
        None => {
            SCRATCH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            src.clone()
        }
    })
}

/// Hands a structure's buffers back to this thread's reuse pool.
pub fn release_structure(s: Structure) {
    STRUCT_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(s);
        }
    });
}

/// A relation atom of a guard, as a variable tuple (relational schemas have
/// no function symbols, so guard terms are plain variables).
pub type Hint = (SymbolId, Vec<Var>);

/// What a relational class must provide. See the module docs.
///
/// The internal schema must be purely relational (free and `HOM` assert
/// it; linear orders, equivalences and data products are built that way):
/// the blanket [`SymbolicClass`] implementation canonicalizes successors
/// with [`RelConfig::generated`], which keeps exactly the facts among the
/// new points.
///
/// `Sync` is required because the blanket [`SymbolicClass`] implementation
/// hands `&self` to the engine's scoped worker threads; all implementations
/// are immutable data, so the bound is automatic.
pub trait AmalgamClass: Sync {
    /// Schema of the structures the class actually manipulates (may extend
    /// the public schema, e.g. with the colors of the `HOM` lift).
    fn internal_schema(&self) -> &Arc<Schema>;

    /// Schema the guards are written against.
    fn public_schema(&self) -> &Arc<Schema>;

    /// Every `k`-pointed member generated by its points (duplicates allowed;
    /// the engine canonicalizes). Over the internal schema.
    fn initial_pointed(&self, k: usize) -> Vec<Pointed>;

    /// Candidate amalgams: pointed structures `(A, new_points)` such that
    /// `A` is a member of the class, `A` extends `base.structure` *in place*
    /// (elements `0..base.size()` are untouched, fresh elements appended),
    /// and `new_points` are the new register values. For every member
    /// amalgam in the class sense that satisfies the guard carried in the
    /// hints, the returned set must contain a candidate that also satisfies
    /// that guard and agrees with it on the substructure generated by the
    /// new points. Candidates that fail the guard may be returned (the
    /// caller evaluates it) or skipped, and so may later candidates that
    /// generate the same successor as an earlier one — so implementations
    /// may (and should) skip placements ruled out by
    /// [`GuardHints::placement_allows`] and masks ruled out by the compiled
    /// guard ([`guarded_fact_subsets`]).
    fn amalgams(&self, base: &Pointed, hints: &GuardHints) -> Vec<Pointed>;

    /// Projects an internal structure to the public schema (copying the
    /// symbols shared by name). The default handles the identity case.
    fn project(&self, s: &Structure) -> Structure {
        project_structure(s, self.public_schema())
    }
}

/// Copies all facts of symbols that exist (by name) in `target` — the
/// σ-projection of Lemma 6.
pub fn project_structure(s: &Structure, target: &Arc<Schema>) -> Structure {
    if s.schema() == target {
        return s.clone();
    }
    let mut out = Structure::new(target.clone(), s.size());
    for sym in target.symbols() {
        let name = target.name(sym);
        if let Ok(src) = s.schema().lookup(name) {
            match target.kind(sym) {
                dds_structure::SymbolKind::Relation => {
                    for t in s.rel_tuples(src) {
                        out.add_fact(sym, t).expect("same arity by construction");
                    }
                }
                dds_structure::SymbolKind::Function => {
                    for (args, v) in s.func_entries(src) {
                        out.set_func(sym, args, v)
                            .expect("same arity by construction");
                    }
                }
            }
        }
    }
    out
}

/// Rewrites a formula's symbol ids from one schema to another by name.
/// Needed because guards are parsed against the public schema while classes
/// evaluate them on internal structures.
pub fn translate_formula(f: &Formula, from: &Schema, to: &Schema) -> Formula {
    fn term(t: &Term, from: &Schema, to: &Schema) -> Term {
        match t {
            Term::Var(v) => Term::Var(*v),
            Term::App(s, args) => Term::App(
                to.lookup(from.name(*s)).expect("symbol exists in target"),
                args.iter().map(|a| term(a, from, to)).collect(),
            ),
        }
    }
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Eq(a, b) => Formula::Eq(term(a, from, to), term(b, from, to)),
        Formula::Rel(r, args) => Formula::Rel(
            to.lookup(from.name(*r)).expect("symbol exists in target"),
            args.iter().map(|a| term(a, from, to)).collect(),
        ),
        Formula::Not(inner) => Formula::Not(Box::new(translate_formula(inner, from, to))),
        Formula::And(fs) => {
            Formula::And(fs.iter().map(|x| translate_formula(x, from, to)).collect())
        }
        Formula::Or(fs) => Formula::Or(fs.iter().map(|x| translate_formula(x, from, to)).collect()),
        Formula::Exists(vs, inner) => {
            Formula::Exists(vs.clone(), Box::new(translate_formula(inner, from, to)))
        }
    }
}

/// Guard information steering the amalgam enumeration: the guard itself
/// (compiled per placement by [`guarded_fact_subsets`]), its relation atoms
/// (tuple hints for the optional cross facts) and the variable
/// (dis)equalities it *forces* — literals on every conjunction path, whose
/// truth depends only on the point placement. Placements violating a
/// forced (dis)equality cannot satisfy the guard under any choice of facts,
/// so classes skip them before their exponential fact/coloring enumerations.
#[derive(Clone, Debug, Default)]
pub struct GuardHints {
    /// All relation atoms of the guard, as variable tuples.
    pub atoms: Vec<Hint>,
    /// Forced variable (dis)equalities: `(a, b, true)` means every model of
    /// the guard has `a = b`; `(a, b, false)` means `a != b`.
    pub eqs: Vec<(Var, Var, bool)>,
    /// The guard over the class's internal schema, or `None` when the
    /// caller holds none it can decide (every candidate is then kept).
    pub guard: Option<Arc<Formula>>,
}

impl GuardHints {
    /// Extracts the hints of a quantifier-free guard and keeps the guard.
    pub fn of(guard: &Formula) -> GuardHints {
        let mut eqs = Vec::new();
        collect_forced_eqs(guard, &mut eqs);
        GuardHints {
            atoms: collect_hints(guard),
            eqs,
            guard: Some(Arc::new(guard.clone())),
        }
    }

    /// True when the combined old/new valuation satisfies every forced
    /// (dis)equality — a necessary condition for any amalgam of this
    /// placement to satisfy the guard. Out-of-range variables are treated
    /// conservatively (allowed).
    pub fn placement_allows(&self, combined: &[Element]) -> bool {
        self.eqs.iter().all(|&(a, b, want_eq)| {
            match (combined.get(a.index()), combined.get(b.index())) {
                (Some(x), Some(y)) => (x == y) == want_eq,
                _ => true,
            }
        })
    }
}

/// Pushes the variable (dis)equality literals found on every conjunction
/// path of `f` (the literals that must hold in each model of `f`).
fn collect_forced_eqs(f: &Formula, eqs: &mut Vec<(Var, Var, bool)>) {
    match f {
        Formula::And(fs) => {
            for g in fs {
                collect_forced_eqs(g, eqs);
            }
        }
        Formula::Eq(Term::Var(a), Term::Var(b)) => eqs.push((*a, *b, true)),
        Formula::Not(inner) => {
            if let Formula::Eq(Term::Var(a), Term::Var(b)) = &**inner {
                eqs.push((*a, *b, false));
            }
        }
        _ => {}
    }
}

/// Collects the relation atoms of a quantifier-free guard as variable
/// tuples, skipping atoms with non-variable arguments.
pub fn collect_hints(guard: &Formula) -> Vec<Hint> {
    dds_logic::transform::atoms(guard)
        .into_iter()
        .filter_map(|a| match a {
            Formula::Rel(r, args) => {
                let vars: Option<Vec<Var>> = args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => Some(*v),
                        Term::App(..) => None,
                    })
                    .collect();
                vars.map(|vs| (r, vs))
            }
            _ => None,
        })
        .collect()
}

/// Interleaved old/new valuation (matches `dds_system`'s convention:
/// variable `2i` = old value of register `i`, `2i+1` = new value).
pub fn combined_valuation(old: &[Element], new: &[Element]) -> Vec<Element> {
    debug_assert_eq!(old.len(), new.len());
    let mut out = Vec::with_capacity(2 * old.len());
    for i in 0..old.len() {
        out.push(old[i]);
        out.push(new[i]);
    }
    out
}

/// Where a new register value lands in an amalgam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointTarget {
    /// An existing element of the base structure.
    Old(usize),
    /// The j-th fresh element (appended after the base domain).
    Fresh(usize),
}

/// All normalized placements of `k` new points over a base with `m_old`
/// elements: each point is an old element or a fresh one; fresh indices are
/// normalized to first-occurrence order so placements are canonical.
pub fn placements(m_old: usize, k: usize) -> Vec<Vec<PointTarget>> {
    let mut out = Vec::new();
    let mut cur: Vec<PointTarget> = Vec::with_capacity(k);
    fn go(
        m_old: usize,
        k: usize,
        next_fresh: usize,
        cur: &mut Vec<PointTarget>,
        out: &mut Vec<Vec<PointTarget>>,
    ) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for j in 0..m_old {
            cur.push(PointTarget::Old(j));
            go(m_old, k, next_fresh, cur, out);
            cur.pop();
        }
        for f in 0..=next_fresh {
            cur.push(PointTarget::Fresh(f));
            go(m_old, k, next_fresh.max(f + 1), cur, out);
            cur.pop();
        }
    }
    go(m_old, k, 0, &mut cur, &mut out);
    out
}

/// Memoized [`placements`]: the placement list depends only on
/// `(m_old, k)`, and the same handful of pairs recur for every successor
/// computation of a search, so each thread computes each list once.
fn placements_cached(m_old: usize, k: usize) -> PlacementTable {
    PLACEMENTS_MEMO.with(|memo| {
        Rc::clone(
            memo.borrow_mut()
                .entry((m_old, k))
                .or_insert_with(|| Rc::new(placements(m_old, k))),
        )
    })
}

/// A placement instantiated against a base structure: the extended domain,
/// the concrete new points and the fresh elements.
#[derive(Debug)]
pub struct PlacementCtx {
    /// Base structure with fresh isolated elements appended.
    pub ext: Structure,
    /// Concrete positions of the new register values.
    pub new_points: Vec<Element>,
    /// The fresh elements (contiguous at the end of the domain).
    pub fresh: Vec<Element>,
}

/// Instantiates every placement of `k` new points against `base`. The
/// `ext` structures come from the scratch pool — callers that are done with
/// a context should hand `ctx.ext` back via [`release_structure`].
pub fn placement_contexts(base: &Structure, k: usize) -> Vec<PlacementCtx> {
    let m_old = base.size();
    placements_cached(m_old, k)
        .iter()
        .map(|pl| {
            let fresh_count = pl
                .iter()
                .filter_map(|t| match t {
                    PointTarget::Fresh(f) => Some(f + 1),
                    PointTarget::Old(_) => None,
                })
                .max()
                .unwrap_or(0);
            let mut ext = scratch_structure(base);
            ext.extend_domain_in_place(fresh_count);
            let new_points = pl
                .iter()
                .map(|t| match t {
                    PointTarget::Old(j) => Element::from_index(*j),
                    PointTarget::Fresh(f) => Element::from_index(m_old + f),
                })
                .collect();
            let fresh = (0..fresh_count)
                .map(|f| Element::from_index(m_old + f))
                .collect();
            PlacementCtx {
                ext,
                new_points,
                fresh,
            }
        })
        .collect()
}

/// Concrete tuples a guard's hint atoms refer to under a combined valuation
/// (deduplicated). Only tuples involving at least one element of `involving`
/// are returned — the others are frozen parts of the base.
pub fn hint_tuples(
    hints: &[Hint],
    combined: &[Element],
    involving: &[Element],
) -> Vec<(SymbolId, Vec<Element>)> {
    let mut out: BTreeSet<(SymbolId, Vec<Element>)> = BTreeSet::new();
    for (rel, vars) in hints {
        let tuple: Option<Vec<Element>> = vars
            .iter()
            .map(|v| combined.get(v.index()).copied())
            .collect();
        if let Some(t) = tuple {
            if t.iter().any(|e| involving.contains(e)) {
                out.insert((*rel, t));
            }
        }
    }
    out.into_iter().collect()
}

/// All tuples over `universe` (per relation of `schema`) that involve at
/// least one element of `involving` and whose elements all lie in
/// `universe`. These are the tuples that survive into the new configuration,
/// so completeness requires enumerating all subsets of them.
pub fn internal_new_tuples(
    schema: &Schema,
    universe: &[Element],
    involving: &[Element],
) -> Vec<(SymbolId, Vec<Element>)> {
    let mut out = Vec::new();
    for r in schema.relations() {
        for t in dds_structure::structure::tuples_over(universe, schema.arity(r)) {
            if t.iter().any(|e| involving.contains(e)) {
                out.push((r, t));
            }
        }
    }
    out
}

/// Upper bound on the optional facts of one enumeration (`2^n` masks).
const MAX_OPTIONAL_FACTS: usize = 24;

/// `base_struct` plus the optional facts selected by `mask`, drawn from the
/// scratch pool (one `clone_from`, no fresh allocation tree).
fn with_facts(
    base_struct: &Structure,
    optional: &[(SymbolId, Vec<Element>)],
    mask: u64,
) -> Structure {
    let mut cand = scratch_structure(base_struct);
    for (i, (rel, t)) in optional.iter().enumerate() {
        if mask & (1 << i) != 0 {
            cand.add_fact(*rel, t).expect("valid fact");
        }
    }
    cand
}

/// Enumerates all subsets of `optional` facts added on top of `base_struct`
/// in ascending mask order, pushing the structures into `out`. Consumers
/// should [`release_structure`] them once done.
pub fn enumerate_fact_subsets(
    base_struct: &Structure,
    optional: &[(SymbolId, Vec<Element>)],
    out: &mut Vec<Structure>,
) {
    assert!(
        optional.len() <= MAX_OPTIONAL_FACTS,
        "enumerate_fact_subsets: too many optional facts ({})",
        optional.len()
    );
    for mask in 0u64..(1u64 << optional.len()) {
        out.push(with_facts(base_struct, optional, mask));
    }
}

/// A guard compiled against one placement: a propositional program over
/// the bits of an optional-fact mask (see the module docs).
#[derive(Debug)]
enum FactProgram {
    Const(bool),
    Bit(u32),
    Not(Box<FactProgram>),
    And(Vec<FactProgram>),
    Or(Vec<FactProgram>),
}

impl FactProgram {
    /// Compiles `guard` for the candidates `base ∪ {optional[i] : bit i}`
    /// under the valuation `combined`. Every optional fact must be absent
    /// from `base`. `None` when the guard has a quantifier, a function
    /// term, an out-of-range variable or an ill-typed atom — the cases the
    /// reference `eval` may reject, which the program must not decide.
    fn compile(
        guard: &Formula,
        base: &Structure,
        combined: &[Element],
        optional: &[(SymbolId, Vec<Element>)],
    ) -> Option<FactProgram> {
        let value = |t: &Term| match t {
            Term::Var(v) => combined.get(v.index()).copied(),
            Term::App(..) => None,
        };
        let all = |fs: &[Formula]| -> Option<Vec<FactProgram>> {
            fs.iter()
                .map(|f| FactProgram::compile(f, base, combined, optional))
                .collect()
        };
        Some(match guard {
            Formula::True => FactProgram::Const(true),
            Formula::False => FactProgram::Const(false),
            Formula::Eq(a, b) => FactProgram::Const(value(a)? == value(b)?),
            Formula::Rel(r, args) => {
                let schema = base.schema();
                if r.index() >= schema.len()
                    || schema.kind(*r) != SymbolKind::Relation
                    || schema.arity(*r) != args.len()
                {
                    return None;
                }
                let tuple: Vec<Element> = args.iter().map(value).collect::<Option<_>>()?;
                match optional.iter().position(|(o, t)| o == r && *t == tuple) {
                    Some(i) => FactProgram::Bit(i as u32),
                    None => FactProgram::Const(base.holds(*r, &tuple)),
                }
            }
            Formula::Not(inner) => match FactProgram::compile(inner, base, combined, optional)? {
                FactProgram::Const(b) => FactProgram::Const(!b),
                p => FactProgram::Not(Box::new(p)),
            },
            Formula::And(fs) => FactProgram::junction(all(fs)?, true),
            Formula::Or(fs) => FactProgram::junction(all(fs)?, false),
            Formula::Exists(..) => return None,
        })
    }

    /// Folds the constants out of a conjunction (`is_and`) or disjunction.
    fn junction(parts: Vec<FactProgram>, is_and: bool) -> FactProgram {
        let mut kept = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                FactProgram::Const(b) if b == is_and => {}
                FactProgram::Const(b) => return FactProgram::Const(b),
                p => kept.push(p),
            }
        }
        match kept.len() {
            0 => FactProgram::Const(is_and),
            1 => kept.pop().expect("one part"),
            _ if is_and => FactProgram::And(kept),
            _ => FactProgram::Or(kept),
        }
    }

    fn eval(&self, mask: u64) -> bool {
        match self {
            FactProgram::Const(b) => *b,
            FactProgram::Bit(i) => mask >> i & 1 == 1,
            FactProgram::Not(p) => !p.eval(mask),
            FactProgram::And(ps) => ps.iter().all(|p| p.eval(mask)),
            FactProgram::Or(ps) => ps.iter().any(|p| p.eval(mask)),
        }
    }
}

/// The bits of `mask` selected by `select`, packed into the low bits.
fn compress(mask: u64, select: u64) -> usize {
    let (mut out, mut next, mut rest) = (0usize, 0u32, select);
    while rest != 0 {
        if mask & rest & rest.wrapping_neg() != 0 {
            out |= 1 << next;
        }
        next += 1;
        rest &= rest - 1;
    }
    out
}

/// The guard-directed fact enumeration of one placement (see the module
/// docs): pushes `base_struct` plus each subset of `optional` whose
/// compiled `guard` holds under `combined`, in ascending mask order,
/// keeping only the first mask of each projection onto the optional facts
/// that lie wholly inside `universe` (the new points). Every optional fact
/// must be absent from `base_struct`. Consumers should
/// [`release_structure`] the pushed structures once done.
pub fn guarded_fact_subsets(
    base_struct: &Structure,
    optional: &[(SymbolId, Vec<Element>)],
    universe: &[Element],
    guard: Option<&Formula>,
    combined: &[Element],
    out: &mut Vec<Structure>,
) {
    assert!(
        optional.len() <= MAX_OPTIONAL_FACTS,
        "guarded_fact_subsets: too many optional facts ({})",
        optional.len()
    );
    let all = (1u64 << optional.len()) - 1;
    let (program, projection) =
        match guard.and_then(|g| FactProgram::compile(g, base_struct, combined, optional)) {
            Some(program) => {
                let inside = optional
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, t))| t.iter().all(|e| universe.contains(e)))
                    .fold(0u64, |m, (i, _)| m | 1 << i);
                (program, inside)
            }
            None => (FactProgram::Const(true), all),
        };
    if matches!(program, FactProgram::Const(false)) {
        return;
    }
    let mut seen = vec![0u64; (1usize << projection.count_ones()).div_ceil(64)];
    for mask in 0..=all {
        if !program.eval(mask) {
            continue;
        }
        let slot = compress(mask, projection);
        if seen[slot / 64] >> (slot % 64) & 1 == 1 {
            continue;
        }
        seen[slot / 64] |= 1 << (slot % 64);
        out.push(with_facts(base_struct, optional, mask));
    }
}

/// Restricted-growth strings of length `k`: all set partitions of `k` points
/// (the patterns of which registers share a value).
pub fn point_patterns(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn go(k: usize, max: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for c in 0..=max {
            cur.push(c);
            go(k, max.max(c + 1), cur, out);
            cur.pop();
        }
    }
    go(k, 0, &mut cur, &mut out);
    out
}

/// All surjective maps `k -> m` (order of classes matters, e.g. positions of
/// a chain).
pub fn surjections(k: usize, m: usize) -> Vec<Vec<usize>> {
    if m == 0 {
        return if k == 0 { vec![vec![]] } else { vec![] };
    }
    let mut out = Vec::new();
    let mut cur = vec![0usize; k];
    fn go(i: usize, k: usize, m: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if i == k {
            let mut used = vec![false; m];
            for &c in cur.iter() {
                used[c] = true;
            }
            if used.iter().all(|&u| u) {
                out.push(cur.clone());
            }
            return;
        }
        for c in 0..m {
            cur[i] = c;
            go(i + 1, k, m, cur, out);
        }
    }
    go(0, k, m, &mut cur, &mut out);
    out
}

/// Generic witness concretization by trace replay (see module docs): grows a
/// full database step by step, at each step selecting an amalgam of the
/// *entire current database* whose new-point-generated configuration matches
/// the trace. Mirrors the paper's soundness induction.
pub fn replay_trace<T: AmalgamClass>(
    class: &T,
    system: &System,
    trace: &Trace<RelConfig>,
) -> Option<(Structure, Run)> {
    let first = trace.steps.first()?;
    let mut db = first.config.pointed.structure.clone();
    let mut points = first.config.pointed.points.clone();
    let mut states = vec![first.state];
    let mut vals = vec![points.clone()];

    for step in &trace.steps[1..] {
        let rule = &system.rules()[step.rule?];
        let guard = translate_formula(&rule.guard, system.schema(), class.internal_schema());
        let hints = GuardHints::of(&guard);
        let base = Pointed::new(db.clone(), points.clone());
        let mut found = None;
        for cand in class.amalgams(&base, &hints) {
            let combined = combined_valuation(&points, &cand.points);
            if eval(&guard, &cand.structure, &combined).unwrap_or(false)
                && RelConfig::generated(&cand) == step.config
            {
                found = Some(cand);
                break;
            }
            release_structure(cand.structure);
        }
        let cand = found?;
        db = cand.structure;
        points = cand.points;
        states.push(step.state);
        vals.push(points.clone());
    }
    Some((class.project(&db), Run { states, vals }))
}

impl<T: AmalgamClass> SymbolicClass for T {
    type Config = RelConfig;

    fn schema(&self) -> &Arc<Schema> {
        self.public_schema()
    }

    fn initial_configs(&self, k: usize) -> Vec<RelConfig> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for p in self.initial_pointed(k) {
            let cfg = RelConfig::canonical(&p);
            if seen.insert(cfg.key().clone()) {
                out.push(cfg);
            }
        }
        out
    }

    fn transitions(&self, cfg: &RelConfig, guard: &Formula) -> Vec<RelConfig> {
        let guard = translate_formula(guard, self.public_schema(), self.internal_schema());
        let hints = GuardHints::of(&guard);
        // First index in `out` of each key hash; a hash hit falls back to
        // comparing keys, so a collision never drops a successor.
        let mut first: HashMap<u64, usize> = HashMap::new();
        let mut out: Vec<RelConfig> = Vec::new();
        for cand in self.amalgams(&cfg.pointed, &hints) {
            let combined = combined_valuation(&cfg.pointed.points, &cand.points);
            if eval(&guard, &cand.structure, &combined).unwrap_or(false) {
                let next = RelConfig::generated(&cand);
                let fresh = match first.entry(next.key_hash()) {
                    Entry::Vacant(slot) => {
                        slot.insert(out.len());
                        true
                    }
                    Entry::Occupied(slot) => out[*slot.get()] != next && !out.contains(&next),
                };
                if fresh {
                    out.push(next);
                }
            }
            // The candidate is fully canonicalized (or rejected) — recycle
            // its buffers for the next expansion.
            release_structure(cand.structure);
        }
        out
    }

    fn materialize(&self, cfg: &RelConfig) -> Pointed {
        Pointed {
            structure: self.project(&cfg.pointed.structure),
            points: cfg.pointed.points.clone(),
        }
    }

    fn concretize(&self, system: &System, trace: &Trace<RelConfig>) -> Option<(Structure, Run)> {
        replay_trace(self, system, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_are_normalized_and_complete() {
        // m_old = 1, k = 2: targets per point: Old(0) or Fresh; patterns:
        // OO, OF0, F0O, F0F0, F0F1 -> 5
        let p = placements(1, 2);
        assert_eq!(p.len(), 5);
        assert!(p.contains(&vec![PointTarget::Fresh(0), PointTarget::Fresh(1)]));
        // Non-normalized Fresh(1) before Fresh(0) is absent.
        assert!(!p.contains(&vec![PointTarget::Fresh(1), PointTarget::Fresh(0)]));
        // k = 0: single empty placement.
        assert_eq!(placements(3, 0).len(), 1);
    }

    #[test]
    fn point_patterns_count_is_bell() {
        assert_eq!(point_patterns(0).len(), 1);
        assert_eq!(point_patterns(1).len(), 1);
        assert_eq!(point_patterns(2).len(), 2);
        assert_eq!(point_patterns(3).len(), 5);
        assert_eq!(point_patterns(4).len(), 15);
    }

    #[test]
    fn surjections_counts() {
        assert_eq!(surjections(2, 1).len(), 1);
        assert_eq!(surjections(2, 2).len(), 2);
        assert_eq!(surjections(3, 2).len(), 6);
        assert_eq!(surjections(2, 3).len(), 0);
        assert_eq!(surjections(0, 0).len(), 1);
    }

    #[test]
    fn hints_collected_from_guard() {
        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let schema = sc.finish();
        let guard = Formula::and(vec![
            Formula::rel_vars(e, &[Var(0), Var(3)]),
            Formula::negate(Formula::rel_vars(e, &[Var(1), Var(1)])),
            Formula::var_eq(Var(0), Var(1)),
        ]);
        let hints = collect_hints(&guard);
        assert_eq!(hints.len(), 2);
        assert_eq!(hints[0], (e, vec![Var(0), Var(3)]));
        let _ = schema;
    }

    #[test]
    fn translate_formula_remaps_by_name() {
        let mut a = Schema::new();
        let e_a = a.add_relation("E", 2).unwrap();
        let a = a.finish();
        let mut b = Schema::new();
        b.add_relation("pad", 1).unwrap();
        let e_b = b.add_relation("E", 2).unwrap();
        let b = b.finish();
        let f = Formula::rel_vars(e_a, &[Var(0), Var(1)]);
        let g = translate_formula(&f, &a, &b);
        assert_eq!(g, Formula::rel_vars(e_b, &[Var(0), Var(1)]));
    }

    #[test]
    fn compress_packs_selected_bits() {
        assert_eq!(compress(0b1011, 0b1111), 0b1011);
        assert_eq!(compress(0b1010, 0b1010), 0b11);
        assert_eq!(compress(0b0101, 0b1010), 0);
        assert_eq!(compress(0b1100, 0b1001), 0b10);
    }

    #[test]
    fn guarded_subsets_prune_and_keep_first_of_each_projection() {
        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let schema = sc.finish();
        // Old point e0, new point e1 (fresh): fact 0 = E(e1,e1) lies inside
        // the new points, fact 1 = E(e0,e1) is a cross fact.
        let base = Structure::new(schema, 2);
        let optional = vec![
            (e, vec![Element(1), Element(1)]),
            (e, vec![Element(0), Element(1)]),
        ];
        let universe = [Element(1)];
        let combined = [Element(0), Element(1)];
        let masks = |guard: Option<&Formula>| {
            let mut out = Vec::new();
            guarded_fact_subsets(&base, &optional, &universe, guard, &combined, &mut out);
            out.iter().map(Structure::fact_count).collect::<Vec<_>>()
        };
        // No guard: every mask, in ascending order.
        assert_eq!(masks(None), vec![0, 1, 1, 2]);
        // E(x_old, x_new): masks 0b10 and 0b11 pass, with distinct
        // projections onto fact 0.
        let cross = Formula::rel_vars(e, &[Var(0), Var(1)]);
        assert_eq!(masks(Some(&cross)), vec![1, 2]);
        // True: all masks pass; 0b10 repeats 0b00's projection, 0b11
        // repeats 0b01's, so only the first two are built.
        assert_eq!(masks(Some(&Formula::True)), vec![0, 1]);
        // Decided by the placement alone: nothing is built.
        let apart = Formula::var_eq(Var(0), Var(1));
        assert_eq!(masks(Some(&apart)), Vec::<usize>::new());
        // An out-of-range variable does not compile: every mask is kept
        // for `eval` to reject.
        let unbound = Formula::rel_vars(e, &[Var(0), Var(7)]);
        assert_eq!(masks(Some(&unbound)), vec![0, 1, 1, 2]);
    }

    #[test]
    fn projection_keeps_shared_symbols() {
        let mut big = Schema::new();
        let e = big.add_relation("E", 2).unwrap();
        let c = big.add_relation("col0", 1).unwrap();
        let big = big.finish();
        let mut small = Schema::new();
        small.add_relation("E", 2).unwrap();
        let small = small.finish();
        let mut s = Structure::new(big, 2);
        s.add_fact(e, &[Element(0), Element(1)]).unwrap();
        s.add_fact(c, &[Element(0)]).unwrap();
        let p = project_structure(&s, &small);
        assert_eq!(p.fact_count(), 1);
        let e_small = small.lookup("E").unwrap();
        assert!(p.holds(e_small, &[Element(0), Element(1)]));
    }
}
