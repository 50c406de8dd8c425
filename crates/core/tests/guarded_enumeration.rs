//! Differential tests of guard-directed amalgam enumeration and one-pass
//! relational canonicalization against test-local references.
//!
//! The references below are the unpruned algorithm: every subset of the
//! optional facts of every placement (and, for `HOM`, every coloring of the
//! fresh points) is built, the guard is evaluated on it, and successors are
//! canonicalized through `Pointed::generated` + `RelConfig::canonical`. The
//! library's `transitions` and `concretize` must agree with them element by
//! element and in order: pruning may only drop guard rejects and later
//! duplicates of an earlier successor.

use dds_core::amalgam::{
    combined_valuation, hint_tuples, internal_new_tuples, placements, translate_formula,
    GuardHints, PointTarget,
};
use dds_core::{
    AmalgamClass, FreeRelationalClass, HomClass, Pointed, RelConfig, SymbolicClass, Trace,
    TraceStep,
};
use dds_logic::eval::eval;
use dds_logic::{Formula, Term, Var};
use dds_structure::{Element, Schema, Structure, SymbolId};
use dds_system::{Run, StateId, System, SystemBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// splitmix64: the per-case generator, seeded by proptest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// One or two relations of arity 0–2 (small enough that every subset of
/// the optional facts can be enumerated in a debug build).
fn random_schema(rng: &mut Rng) -> Arc<Schema> {
    let mut s = Schema::new();
    for i in 0..1 + rng.below(2) {
        s.add_relation(&format!("R{i}"), [0, 1, 1, 2][rng.below(4)])
            .unwrap();
    }
    s.finish()
}

fn random_structure(rng: &mut Rng, schema: &Arc<Schema>, size: usize) -> Structure {
    let mut s = Structure::new(schema.clone(), size);
    let elems: Vec<Element> = (0..size as u32).map(Element).collect();
    for r in schema.relations() {
        for t in dds_structure::structure::tuples_over(&elems, schema.arity(r)) {
            if rng.chance(40) {
                s.add_fact(r, &t).unwrap();
            }
        }
    }
    s
}

/// A random guard over the old/new variables of `k` registers: atoms,
/// variable (dis)equalities, `Not`, `And`, `Or` and constants. Rarely it
/// mentions an out-of-range variable or (when `exists`) an existential
/// quantifier — the guards the enumerator cannot compile and must leave to
/// `eval`.
fn random_guard(rng: &mut Rng, schema: &Schema, k: usize, depth: usize, exists: bool) -> Formula {
    let var = |rng: &mut Rng| {
        if rng.chance(3) {
            Var(2 * k as u32)
        } else {
            Var(rng.below(2 * k) as u32)
        }
    };
    if depth == 0 || rng.chance(35) {
        return match rng.below(10) {
            0 => Formula::True,
            1 => Formula::False,
            2..=4 => Formula::var_eq(var(rng), var(rng)),
            _ => {
                let rels: Vec<SymbolId> = schema.relations().collect();
                let r = rels[rng.below(rels.len())];
                let args: Vec<Var> = (0..schema.arity(r)).map(|_| var(rng)).collect();
                Formula::rel_vars(r, &args)
            }
        };
    }
    match rng.below(if exists { 9 } else { 8 }) {
        0..=1 => Formula::Not(Box::new(random_guard(rng, schema, k, depth - 1, exists))),
        2..=5 => Formula::And(
            (0..1 + rng.below(3))
                .map(|_| random_guard(rng, schema, k, depth - 1, exists))
                .collect(),
        ),
        6..=7 => Formula::Or(
            (0..1 + rng.below(3))
                .map(|_| random_guard(rng, schema, k, depth - 1, exists))
                .collect(),
        ),
        _ => {
            let bound = Var(2 * k as u32);
            let rels: Vec<SymbolId> = schema.relations().collect();
            let r = rels[rng.below(rels.len())];
            let args: Vec<Term> = (0..schema.arity(r))
                .map(|_| {
                    Term::Var(if rng.chance(50) {
                        bound
                    } else {
                        Var(rng.below(2 * k) as u32)
                    })
                })
                .collect();
            Formula::Exists(vec![bound], Box::new(Formula::Rel(r, args)))
        }
    }
}

/// The class under test, with what the references need to know about it.
enum Class {
    Free(FreeRelationalClass),
    Hom(HomClass),
}

impl Class {
    fn random(rng: &mut Rng) -> Class {
        let schema = random_schema(rng);
        if rng.chance(50) {
            Class::Free(FreeRelationalClass::new(schema))
        } else {
            let size = 1 + rng.below(2);
            Class::Hom(HomClass::new(random_structure(rng, &schema, size)))
        }
    }

    fn internal(&self) -> &Arc<Schema> {
        match self {
            Class::Free(c) => c.internal_schema(),
            Class::Hom(c) => c.internal_schema(),
        }
    }

    fn public(&self) -> &Arc<Schema> {
        match self {
            Class::Free(c) => c.public_schema(),
            Class::Hom(c) => c.public_schema(),
        }
    }

    fn initial_configs(&self, k: usize) -> Vec<RelConfig> {
        match self {
            Class::Free(c) => c.initial_configs(k),
            Class::Hom(c) => c.initial_configs(k),
        }
    }

    fn transitions(&self, cfg: &RelConfig, guard: &Formula) -> Vec<RelConfig> {
        match self {
            Class::Free(c) => c.transitions(cfg, guard),
            Class::Hom(c) => c.transitions(cfg, guard),
        }
    }

    fn concretize(&self, system: &System, trace: &Trace<RelConfig>) -> Option<(Structure, Run)> {
        match self {
            Class::Free(c) => c.concretize(system, trace),
            Class::Hom(c) => c.concretize(system, trace),
        }
    }

    fn project(&self, s: &Structure) -> Structure {
        match self {
            Class::Free(c) => c.project(s),
            Class::Hom(c) => c.project(s),
        }
    }

    /// Colorings of `fresh` fresh elements, in the lift's order (first
    /// element fastest); a single empty coloring for the free class.
    fn colorings(&self, fresh: usize) -> Vec<Vec<usize>> {
        let nh = match self {
            Class::Free(_) => return vec![Vec::new()],
            Class::Hom(c) => c.template().size(),
        };
        let mut out = Vec::new();
        for code in 0..nh.pow(fresh as u32) {
            out.push((0..fresh).map(|i| code / nh.pow(i as u32) % nh).collect());
        }
        out
    }

    /// The color predicate of template element `h`.
    fn color(&self, h: usize) -> SymbolId {
        self.internal().lookup(&format!("__col{h}")).unwrap()
    }

    /// Whether a fact may appear in a member under `colors` (always, for
    /// the free class; for `HOM`, σ-facts mapping into the template).
    fn allows(&self, rel: SymbolId, t: &[Element], colors: &[usize]) -> bool {
        match self {
            Class::Free(_) => true,
            Class::Hom(c) => {
                rel.index() < c.public_schema().len() && {
                    let mapped: Vec<Element> = t
                        .iter()
                        .map(|e| Element::from_index(colors[e.index()]))
                        .collect();
                    c.template().holds(rel, &mapped)
                }
            }
        }
    }

    /// Colors of the elements of a member of the lift (all 0 for the free
    /// class, which has none).
    fn colors_of(&self, s: &Structure) -> Vec<usize> {
        match self {
            Class::Free(_) => vec![0; s.size()],
            Class::Hom(c) => s
                .elements()
                .map(|e| {
                    (0..c.template().size())
                        .find(|&h| s.holds(self.color(h), &[e]))
                        .expect("members are colored")
                })
                .collect(),
        }
    }

    /// Every candidate amalgam of the unpruned enumeration, in its order:
    /// placements, then colorings, then all subsets of the optional facts
    /// in ascending mask order.
    fn all_candidates(&self, base: &Pointed, guard: &Formula) -> Vec<Pointed> {
        let atoms = GuardHints::of(guard).atoms;
        let base_colors = self.colors_of(&base.structure);
        let m = base.structure.size();
        let mut out = Vec::new();
        for pl in placements(m, base.points.len()) {
            let new_points: Vec<Element> = pl
                .iter()
                .map(|t| match t {
                    PointTarget::Old(j) => Element::from_index(*j),
                    PointTarget::Fresh(f) => Element::from_index(m + f),
                })
                .collect();
            let fresh_count = new_points
                .iter()
                .map(|e| (e.index() + 1).saturating_sub(m))
                .max()
                .unwrap_or(0);
            let fresh: Vec<Element> = (m..m + fresh_count).map(Element::from_index).collect();
            let mut universe = new_points.clone();
            universe.sort_unstable();
            universe.dedup();
            let combined = combined_valuation(&base.points, &new_points);
            let tuples: BTreeSet<(SymbolId, Vec<Element>)> =
                internal_new_tuples(self.internal(), &universe, &fresh)
                    .into_iter()
                    .chain(hint_tuples(&atoms, &combined, &fresh))
                    .collect();
            for fresh_colors in self.colorings(fresh_count) {
                let mut colors = base_colors.clone();
                colors.extend(&fresh_colors);
                let mut ext = Structure::new(self.internal().clone(), m + fresh_count);
                for r in self.internal().relations() {
                    for t in base.structure.rel_tuples(r) {
                        ext.add_fact(r, t).unwrap();
                    }
                }
                if let Class::Hom(_) = self {
                    for (f, &h) in fresh.iter().zip(&fresh_colors) {
                        ext.add_fact(self.color(h), &[*f]).unwrap();
                    }
                }
                let optional: Vec<&(SymbolId, Vec<Element>)> = tuples
                    .iter()
                    .filter(|(r, t)| self.allows(*r, t, &colors))
                    .collect();
                for mask in 0u64..1 << optional.len() {
                    let mut cand = ext.clone();
                    for (i, (r, t)) in optional.iter().enumerate() {
                        if mask >> i & 1 == 1 {
                            cand.add_fact(*r, t).unwrap();
                        }
                    }
                    out.push(Pointed::new(cand, new_points.clone()));
                }
            }
        }
        out
    }

    /// Reference successors: every candidate, `eval`, two-step
    /// canonicalization, first occurrence of each key.
    fn reference_transitions(&self, cfg: &RelConfig, guard: &Formula) -> Vec<RelConfig> {
        let guard = translate_formula(guard, self.public(), self.internal());
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for cand in self.all_candidates(&cfg.pointed, &guard) {
            let combined = combined_valuation(&cfg.pointed.points, &cand.points);
            if eval(&guard, &cand.structure, &combined).unwrap_or(false) {
                let next = RelConfig::canonical(&cand.generated());
                if seen.insert(next.key().clone()) {
                    out.push(next);
                }
            }
        }
        out
    }

    /// Reference witness replay: at each step, the first candidate over the
    /// whole database that satisfies the guard and generates the step's
    /// configuration.
    fn reference_concretize(
        &self,
        system: &System,
        trace: &Trace<RelConfig>,
    ) -> Option<(Structure, Run)> {
        let first = trace.steps.first()?;
        let mut db = first.config.pointed.structure.clone();
        let mut points = first.config.pointed.points.clone();
        let mut states = vec![first.state];
        let mut vals = vec![points.clone()];
        for step in &trace.steps[1..] {
            let guard = &system.rules()[step.rule?].guard;
            let guard = translate_formula(guard, self.public(), self.internal());
            let base = Pointed::new(db.clone(), points.clone());
            let cand = self
                .all_candidates(&base, &guard)
                .into_iter()
                .find(|cand| {
                    let combined = combined_valuation(&points, &cand.points);
                    eval(&guard, &cand.structure, &combined).unwrap_or(false)
                        && RelConfig::canonical(&cand.generated()) == step.config
                })?;
            db = cand.structure;
            points = cand.points;
            states.push(step.state);
            vals.push(points.clone());
        }
        Some((self.project(&db), Run { states, vals }))
    }
}

fn same_configs(got: &[RelConfig], want: &[RelConfig]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.pointed == w.pointed && g.key() == w.key())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn transitions_and_witnesses_match_the_unpruned_reference(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let class = Class::random(&mut rng);
        let k = 1 + rng.below(2);
        let initial = class.initial_configs(k);
        prop_assert!(!initial.is_empty());
        for _ in 0..3 {
            let cfg = &initial[rng.below(initial.len())];
            let guard = random_guard(&mut rng, class.public(), k, 3, true);
            let got = class.transitions(cfg, &guard);
            let want = class.reference_transitions(cfg, &guard);
            prop_assert!(
                same_configs(&got, &want),
                "transitions differ from {:?} under {:?}: got {:?}, want {:?}",
                cfg, guard, got, want
            );
        }

        // A short trace through reference successors, then both replays.
        // Its guards are quantifier-free, as the engine's are: an
        // existential may be witnessed in the small configuration and not in
        // the whole database, and then no replay exists.
        let mut b = SystemBuilder::new(class.public().clone(), &["x", "y"][..k]);
        let mut steps = vec![TraceStep {
            state: StateId(0),
            config: initial[rng.below(initial.len())].clone(),
            rule: None,
        }];
        let mut guards = Vec::new();
        for _ in 0..12 {
            if steps.len() == 4 {
                break;
            }
            let guard = random_guard(&mut rng, class.public(), k, 2, false);
            let succs = class.reference_transitions(&steps.last().unwrap().config, &guard);
            if succs.is_empty() {
                continue;
            }
            steps.push(TraceStep {
                state: StateId(steps.len() as u32),
                config: succs[rng.below(succs.len())].clone(),
                rule: Some(guards.len()),
            });
            guards.push(guard);
        }
        for i in 0..steps.len() {
            let s = b.state(&format!("s{i}"));
            if i == 0 {
                s.initial();
            } else if i + 1 == steps.len() {
                s.accepting();
            }
        }
        for (i, guard) in guards.into_iter().enumerate() {
            b.rule_formula(StateId(i as u32), StateId(i as u32 + 1), guard);
        }
        let system = b.finish().unwrap();
        let trace = Trace { steps };
        let got = class.concretize(&system, &trace);
        let want = class.reference_concretize(&system, &trace);
        prop_assert!(want.is_some(), "the reference replays its own trace");
        prop_assert_eq!(got, want);
    }

    #[test]
    fn one_pass_canonicalization_matches_generated_then_canonical(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let schema = random_schema(&mut rng);
        let size = 1 + rng.below(5);
        let structure = random_structure(&mut rng, &schema, size);
        // Repeated points are likely; elements no point names are dropped.
        let points: Vec<Element> = (0..1 + rng.below(4))
            .map(|_| Element::from_index(rng.below(size)))
            .collect();
        let p = Pointed::new(structure, points);
        let got = RelConfig::generated(&p);
        let want = RelConfig::canonical(&p.generated());
        prop_assert_eq!(&got.pointed, &want.pointed);
        prop_assert_eq!(got.key(), want.key());
        prop_assert_eq!(got.key_hash(), want.key_hash());
    }
}
