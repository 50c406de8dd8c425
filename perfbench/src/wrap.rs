//! Timing wrappers around the engine's class traits.
//!
//! The engine calls a class from several worker threads at once, so the
//! wrappers count into atomics. [`TimedAmalgam`] times the amalgam
//! enumeration of a relational class; [`TimedSymbolic`] sits above it (or
//! directly above a word or tree class) and times `transitions` and
//! `concretize`. Both forward every trait method unchanged, so a traced
//! search explores exactly what an untraced one does.

use dds_core::amalgam::GuardHints;
use dds_core::{AmalgamClass, Pointed, SymbolicClass, Trace};
use dds_logic::Formula;
use dds_structure::{Schema, Structure};
use dds_system::{Run, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls, items produced and busy time of one instrumented method,
/// summed over every thread that called it.
#[derive(Debug, Default)]
pub struct Counter {
    calls: AtomicU64,
    items: AtomicU64,
    busy_ns: AtomicU64,
}

/// A plain copy of a [`Counter`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Items the calls returned (candidates, successors, witnesses).
    pub items: u64,
    /// Busy time summed over threads, in milliseconds.
    pub busy_ms: f64,
}

impl Counter {
    // Statistics only: no other data is published through these atomics.
    fn record(&self, items: usize, started: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
        let ns = started.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Reads the counter.
    pub fn tally(&self) -> Tally {
        Tally {
            calls: self.calls.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            busy_ms: self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// The counters one traced run fills.
#[derive(Debug, Default)]
pub struct ClassCounters {
    /// `AmalgamClass::amalgams` during the search (items = candidates);
    /// calls made while `concretize` replays a witness are not counted.
    pub amalgams: Counter,
    /// `SymbolicClass::transitions` (items = successors).
    pub transitions: Counter,
    /// `SymbolicClass::concretize` (items = witnesses produced).
    pub concretize: Counter,
}

thread_local! {
    // Set while `concretize` runs on this thread, so the amalgams a
    // witness replay enumerates are not billed to the search.
    static IN_CONCRETIZE: Cell<bool> = const { Cell::new(false) };
}

/// An [`AmalgamClass`] that times `amalgams` of the class it wraps.
#[derive(Debug)]
pub struct TimedAmalgam<'a, C> {
    inner: &'a C,
    counters: &'a ClassCounters,
}

impl<'a, C: AmalgamClass> TimedAmalgam<'a, C> {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: &'a C, counters: &'a ClassCounters) -> Self {
        TimedAmalgam { inner, counters }
    }
}

impl<C: AmalgamClass> AmalgamClass for TimedAmalgam<'_, C> {
    fn internal_schema(&self) -> &Arc<Schema> {
        self.inner.internal_schema()
    }

    fn public_schema(&self) -> &Arc<Schema> {
        self.inner.public_schema()
    }

    fn initial_pointed(&self, k: usize) -> Vec<Pointed> {
        self.inner.initial_pointed(k)
    }

    fn amalgams(&self, base: &Pointed, hints: &GuardHints) -> Vec<Pointed> {
        let started = Instant::now();
        let out = self.inner.amalgams(base, hints);
        if !IN_CONCRETIZE.with(Cell::get) {
            self.counters.amalgams.record(out.len(), started);
        }
        out
    }

    fn project(&self, s: &Structure) -> Structure {
        self.inner.project(s)
    }
}

/// A [`SymbolicClass`] that times `transitions` and `concretize` of the
/// class it wraps.
#[derive(Debug)]
pub struct TimedSymbolic<'a, S> {
    inner: &'a S,
    counters: &'a ClassCounters,
}

impl<'a, S: SymbolicClass> TimedSymbolic<'a, S> {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: &'a S, counters: &'a ClassCounters) -> Self {
        TimedSymbolic { inner, counters }
    }
}

impl<S: SymbolicClass> SymbolicClass for TimedSymbolic<'_, S> {
    type Config = S::Config;

    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn initial_configs(&self, k: usize) -> Vec<Self::Config> {
        self.inner.initial_configs(k)
    }

    fn transitions(&self, cfg: &Self::Config, guard: &Formula) -> Vec<Self::Config> {
        let started = Instant::now();
        let out = self.inner.transitions(cfg, guard);
        self.counters.transitions.record(out.len(), started);
        out
    }

    fn materialize(&self, cfg: &Self::Config) -> Pointed {
        self.inner.materialize(cfg)
    }

    fn concretize(&self, system: &System, trace: &Trace<Self::Config>) -> Option<(Structure, Run)> {
        let started = Instant::now();
        let was = IN_CONCRETIZE.with(|f| f.replace(true));
        let out = self.inner.concretize(system, trace);
        IN_CONCRETIZE.with(|f| f.set(was));
        self.counters
            .concretize
            .record(usize::from(out.is_some()), started);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_cli::{AnyClass, Task};
    use dds_core::{Engine, EngineOptions};

    const SPEC: &str = "system s\n\
        schema {\n  relation E/2\n  relation red/1\n}\n\
        class free\n\
        registers x y\n\
        states {\n  start init\n  mid\n  acc\n}\n\
        rule start -> mid: E(x_old, x_new) & y_old = y_new\n\
        rule mid -> acc: red(x_old) & E(y_old, y_new) & x_new = x_old\n\
        property reach {\n  accept acc\n}\n";

    fn lowered() -> (dds_core::FreeRelationalClass, System) {
        let l = dds_cli::load_spec(SPEC).expect("test spec lowers");
        let Task::Reach(system) = l.properties[0].task.clone() else {
            panic!("reach property expected");
        };
        let AnyClass::Free(class) = l.class else {
            panic!("free class expected");
        };
        (class, system)
    }

    #[test]
    fn timed_amalgam_forwards_every_method() {
        let (class, system) = lowered();
        let counters = ClassCounters::default();
        let timed = TimedAmalgam::new(&class, &counters);
        assert_eq!(timed.internal_schema(), class.internal_schema());
        assert_eq!(timed.public_schema(), class.public_schema());
        let initial = class.initial_pointed(2);
        assert_eq!(timed.initial_pointed(2), initial);
        let hints = GuardHints::of(&system.rules()[0].guard);
        let want = class.amalgams(&initial[0], &hints);
        assert_eq!(timed.amalgams(&initial[0], &hints), want);
        assert_eq!(
            timed.project(&initial[0].structure),
            class.project(&initial[0].structure)
        );
        let t = counters.amalgams.tally();
        assert_eq!((t.calls, t.items), (1, want.len() as u64));
    }

    #[test]
    fn timed_symbolic_forwards_every_method() {
        let (class, system) = lowered();
        let counters = ClassCounters::default();
        let amalgam = TimedAmalgam::new(&class, &counters);
        let timed = TimedSymbolic::new(&amalgam, &counters);
        assert_eq!(timed.schema(), SymbolicClass::schema(&class));
        let initial = class.initial_configs(2);
        assert_eq!(timed.initial_configs(2), initial);
        let guard = &system.rules()[0].guard;
        let succ = class.transitions(&initial[0], guard);
        assert_eq!(timed.transitions(&initial[0], guard), succ);
        assert_eq!(
            timed.materialize(&initial[0]),
            class.materialize(&initial[0])
        );
        assert_eq!(counters.transitions.tally().items, succ.len() as u64);

        // The same search through both wrappers: identical outcome and
        // deterministic statistics, and a concretized witness.
        let plain = Engine::new(&class, &system)
            .with_options(EngineOptions::default())
            .run();
        let traced = Engine::new(&timed, &system)
            .with_options(EngineOptions::default())
            .run();
        assert_eq!(plain.keyword(), "nonempty");
        assert_eq!(traced.keyword(), plain.keyword());
        assert_eq!(traced.stats(), plain.stats());
        assert_eq!(traced.witness(), plain.witness());
        let dds_core::Outcome::NonEmpty { trace, .. } = &traced else {
            panic!("nonempty outcome carries a trace");
        };
        let searched = counters.amalgams.tally().calls;
        assert_eq!(
            timed.concretize(&system, trace),
            class.concretize(&system, trace)
        );
        assert_eq!(counters.concretize.tally().items, 2);
        assert_eq!(
            counters.amalgams.tally().calls,
            searched,
            "a witness replay is not search work"
        );
    }

    #[test]
    fn timed_symbolic_forwards_words() {
        let src = "system w\n\
            class words {\n  letters open close\n  state O reads open\n  \
            state C reads close\n  edges O->C C->O\n  entry O\n  final C\n}\n\
            registers x y\n\
            states {\n  scan init\n  flag\n}\n\
            rule scan -> flag: open(x_old) & close(y_new) & x_old < y_new & x_old = x_new\n\
            property reach {\n  accept flag\n}\n";
        let l = dds_cli::load_spec(src).expect("word spec lowers");
        let AnyClass::Words(class) = &l.class else {
            panic!("words class expected");
        };
        let Task::Reach(system) = &l.properties[0].task else {
            panic!("reach property expected");
        };
        let counters = ClassCounters::default();
        let timed = TimedSymbolic::new(class, &counters);
        let plain = Engine::new(class, system).run();
        let traced = Engine::new(&timed, system).run();
        assert_eq!(traced.keyword(), plain.keyword());
        assert_eq!(traced.stats(), plain.stats());
        assert_eq!(traced.witness(), plain.witness());
        assert!(counters.transitions.tally().calls > 0);
    }
}
