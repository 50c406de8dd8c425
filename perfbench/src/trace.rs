//! Spans and the traced pipelines.
//!
//! A traced request calls each layer's public function itself — parse,
//! fingerprint, lower, product, search, render — and records one span per
//! call. Spans stay in memory until the run ends. The searches go through
//! the [`crate::wrap`] classes, so the class layers are timed too. The
//! witness re-check (`System::check_run`) is the engine's own: it certifies
//! every witness against the compiled and the original system inside the
//! search, and its time is read from `EngineStats::certify_ns`.

use crate::wrap::{ClassCounters, TimedAmalgam, TimedSymbolic};
use dds_cli::equiv::PairReport;
use dds_cli::lower::{AnyClass, Lowered, Task};
use dds_cli::runner::{PropertyReport, RunOptions, SpecReport};
use dds_cli::{api, render, EquivReport};
use dds_core::product::{self, Product, Side};
use dds_core::{Engine, EngineOptions, EngineStats, Outcome, SymbolicClass, TargetStatus, Trace};
use dds_reductions::words_succ;
use dds_structure::Structure;
use dds_system::{Run, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`cli.parse`, `core.engine.run`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request all spans of one input share.
    pub request: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Name of the span that covers one whole traced request.
const REQUEST: &str = "request";

impl Default for Tracer {
    /// An empty tracer whose clock starts now.
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a request.
    pub fn open_request(&mut self, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: REQUEST,
            start_ns,
            end_ns: start_ns,
            parent: None,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened earlier.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` as a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
        });
        out
    }

    /// Total milliseconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.ms();
        }
        out
    }

    /// The requests whose child spans do not add up to their wall time:
    /// the children run one after another, so anything beyond `slack_ms`
    /// plus `share` of the wall time is time the trace lost.
    pub fn unaccounted(&self, share: f64, slack_ms: f64) -> Vec<String> {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .filter_map(|(i, s)| {
                let gap = s.ms() - children[i];
                (gap.abs() > slack_ms + share * s.ms()).then(|| {
                    format!(
                        "request {}: spans cover {:.3} of {:.3} ms",
                        s.request,
                        children[i],
                        s.ms()
                    )
                })
            })
            .collect()
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// A generic computation over whichever class a spec lowered to.
trait WithClass {
    type Out;
    fn run<C: SymbolicClass>(self, class: &C) -> Self::Out;
}

/// Runs `job` over `class` wrapped in the timing classes.
fn with_timed_class<J: WithClass>(class: &AnyClass, counters: &ClassCounters, job: J) -> J::Out {
    macro_rules! amalgam {
        ($c:expr) => {{
            let a = TimedAmalgam::new($c, counters);
            job.run(&TimedSymbolic::new(&a, counters))
        }};
    }
    match class {
        AnyClass::Free(c) => amalgam!(c),
        AnyClass::Hom(c) => amalgam!(c),
        AnyClass::Order(c) => amalgam!(c),
        AnyClass::Equiv(c) => amalgam!(c),
        AnyClass::DataFree(c) => amalgam!(c),
        AnyClass::DataHom(c) => amalgam!(c),
        AnyClass::DataOrder(c) => amalgam!(c),
        AnyClass::DataEquiv(c) => amalgam!(c),
        AnyClass::Words(c) => job.run(&TimedSymbolic::new(c, counters)),
        AnyClass::Trees(c) => job.run(&TimedSymbolic::new(c, counters)),
        AnyClass::Counter(_) => unreachable!("counter machines have no search"),
    }
}

fn engine_options(o: &RunOptions) -> EngineOptions {
    EngineOptions::default()
        .threads(o.threads)
        .chunk_size(o.chunk_size)
        .max_configs(o.max_configs)
        .concretize(o.concretize)
}

/// A witness trace as `dds verify` prints it: `a -[r0]-> b`.
fn render_trace<Cfg>(trace: &Trace<Cfg>, system: &System) -> String {
    let mut t = String::new();
    for step in &trace.steps {
        let state = system.state_name(step.state);
        match step.rule {
            None => t.push_str(state),
            Some(r) => {
                let _ = write!(t, " -[r{r}]-> {state}");
            }
        }
    }
    t
}

struct Reach<'a> {
    system: &'a System,
    options: EngineOptions,
}

struct Reached {
    keyword: &'static str,
    stats: EngineStats,
    trace: Option<String>,
    witness: Option<(Structure, Run)>,
}

impl WithClass for Reach<'_> {
    type Out = Reached;
    fn run<C: SymbolicClass>(self, class: &C) -> Reached {
        let outcome = Engine::new(class, self.system)
            .with_options(self.options)
            .run();
        let keyword = outcome.keyword();
        let stats = *outcome.stats();
        let (trace, witness) = match outcome {
            Outcome::NonEmpty { trace, witness, .. } => {
                (Some(render_trace(&trace, self.system)), witness)
            }
            _ => (None, None),
        };
        Reached {
            keyword,
            stats,
            trace,
            witness,
        }
    }
}

/// What a traced verification produced, for comparison with the library.
#[derive(Debug)]
pub struct TracedVerify {
    /// The report document, `wall_ns` zeroed.
    pub body: String,
    /// Per property: engine statistics, trace, witness database and run.
    pub properties: Vec<PropertyReport>,
    /// Engine threads the searches resolved to.
    pub threads: usize,
}

impl TracedVerify {
    /// Whether the traced run answered exactly what the library did: the
    /// same report document and, per property, the same engine statistics,
    /// trace and witness.
    pub fn matches(&self, want: &SpecReport) -> bool {
        self.body == render::normalize_wall_ns(&render::json(std::slice::from_ref(want)))
            && self.properties.len() == want.properties.len()
            && self.properties.iter().zip(&want.properties).all(|(g, w)| {
                g.stats == w.stats
                    && g.trace == w.trace
                    && g.witness_db == w.witness_db
                    && g.witness_run == w.witness_run
            })
    }
}

/// Verifies one spec layer by layer under a new request span.
pub fn verify(
    tr: &mut Tracer,
    request: u64,
    label: &str,
    text: &str,
    options: &RunOptions,
    counters: &ClassCounters,
) -> Result<TracedVerify, String> {
    let root = tr.open_request(request);
    let out = verify_in(tr, root, label, text, options, counters);
    tr.close(root);
    out
}

/// Parses, fingerprints and lowers one spec under a new request span —
/// the work a cache hit does before the cache answers.
pub fn load(
    tr: &mut Tracer,
    request: u64,
    label: &str,
    text: &str,
    options: &RunOptions,
) -> Result<u128, String> {
    let root = tr.open_request(request);
    let out = load_in(tr, root, label, text, options).map(|(_, fingerprint)| fingerprint);
    tr.close(root);
    out
}

fn load_in(
    tr: &mut Tracer,
    root: usize,
    label: &str,
    text: &str,
    options: &RunOptions,
) -> Result<(Lowered, u128), String> {
    let ast = tr
        .time("cli.parse", root, || dds_cli::parse_spec(text))
        .map_err(|e| e.with_path(label))?;
    let fingerprint = tr.time("cli.api.fingerprint", root, || {
        api::fingerprint(&ast, options)
    });
    let lowered = tr
        .time("cli.lower", root, || dds_cli::lower(&ast))
        .map_err(|e| e.with_path(label))?;
    Ok((lowered, fingerprint))
}

fn verify_in(
    tr: &mut Tracer,
    root: usize,
    label: &str,
    text: &str,
    options: &RunOptions,
    counters: &ClassCounters,
) -> Result<TracedVerify, String> {
    let (lowered, _) = load_in(tr, root, label, text, options)?;
    let eo = engine_options(options);
    let mut properties = Vec::with_capacity(lowered.properties.len());
    for p in &lowered.properties {
        let started = Instant::now();
        let (outcome, stats, trace, witness) = match &p.task {
            Task::Reach(system) => {
                let job = Reach {
                    system,
                    options: eo,
                };
                let r = tr.time("core.engine.run", root, || {
                    with_timed_class(&lowered.class, counters, job)
                });
                (r.keyword.to_owned(), Some(r.stats), r.trace, r.witness)
            }
            Task::BoundedHalt { bound } => {
                let AnyClass::Counter(m) = &lowered.class else {
                    return Err(format!("{label}: bounded-halt over a non-counter class"));
                };
                let found = tr.time("reductions.words_succ.bounded_check", root, || {
                    words_succ::bounded_check(m, *bound)
                });
                let keyword = if found.is_some() { "halts" } else { "open" };
                (keyword.to_owned(), None, None, found)
            }
            Task::Elim(_) | Task::Blowup { .. } => {
                return Err(format!(
                    "{label}: the traced pipeline covers reach and bounded-halt only"
                ));
            }
        };
        let wall_ns = started.elapsed().as_nanos();
        properties.push((p, outcome, stats, trace, witness, wall_ns));
    }
    let (body, properties) = tr.time("cli.render", root, || {
        let properties: Vec<PropertyReport> = properties
            .into_iter()
            .map(|(p, outcome, stats, trace, witness, wall_ns)| {
                let pass = match &p.expect {
                    Some(want) => Some(want == &outcome),
                    None => (outcome == "resource-limit").then_some(false),
                };
                PropertyReport {
                    id: format!("{}::{}", lowered.name, p.name),
                    configs_explored: stats.map_or(0, |s| s.configs_explored as u64),
                    outcome,
                    expect: p.expect.clone(),
                    pass,
                    wall_ns,
                    stats,
                    trace,
                    witness_db: witness.as_ref().map(|(db, _)| db.to_string()),
                    witness_run: witness.as_ref().map(|(_, run)| run.to_string()),
                }
            })
            .collect();
        let report = SpecReport {
            path: label.to_owned(),
            system: lowered.name.clone(),
            header: format!("class {}{}", lowered.class.describe(), lowered.shape),
            properties,
        };
        let body = render::normalize_wall_ns(&render::json(std::slice::from_ref(&report)));
        (body, report.properties)
    });
    Ok(TracedVerify {
        body,
        properties,
        threads: eo.resolved_threads(),
    })
}

struct Multi<'a> {
    product: &'a Product,
    options: EngineOptions,
}

struct MultiReached {
    a: &'static str,
    b: &'static str,
    stats: EngineStats,
    /// The diverging side and its projected witness, if any.
    witness: Option<(Side, Structure, Run)>,
}

impl WithClass for Multi<'_> {
    type Out = MultiReached;
    fn run<C: SymbolicClass>(self, class: &C) -> MultiReached {
        let p = self.product;
        let out = Engine::new(class, p.system())
            .with_options(self.options)
            .run_multi(&[p.a_targets().to_vec(), p.b_targets().to_vec()]);
        let witness = match (&out.targets[0], &out.targets[1]) {
            (TargetStatus::Reached { witness, .. }, TargetStatus::Unreachable)
            | (TargetStatus::Unreachable, TargetStatus::Reached { witness, .. }) => {
                witness.as_ref().map(|(db, run)| {
                    let (side, local) = p.project_run(run);
                    (side, db.clone(), local)
                })
            }
            _ => None,
        };
        MultiReached {
            a: out.targets[0].keyword(),
            b: out.targets[1].keyword(),
            stats: out.stats,
            witness,
        }
    }
}

/// Decides equivalence of two specs layer by layer under a new request
/// span. Both specs must be comparable reach specs (the workload's mutants
/// are by construction).
pub fn equiv(
    tr: &mut Tracer,
    request: u64,
    a: &str,
    b: &str,
    options: &RunOptions,
    counters: &ClassCounters,
) -> Result<EquivReport, String> {
    let root = tr.open_request(request);
    let out = equiv_in(tr, root, a, b, options, counters);
    tr.close(root);
    out
}

fn equiv_in(
    tr: &mut Tracer,
    root: usize,
    a: &str,
    b: &str,
    options: &RunOptions,
    counters: &ClassCounters,
) -> Result<EquivReport, String> {
    let parse = |tr: &mut Tracer, text: &str| {
        tr.time("cli.parse", root, || dds_cli::parse_spec(text))
            .map_err(|e| e.to_string())
    };
    let (ast_a, ast_b) = (parse(tr, a)?, parse(tr, b)?);
    let fingerprint = tr.time("cli.api.fingerprint", root, || {
        api::fingerprint(&ast_a, options) ^ api::fingerprint(&ast_b, options).rotate_left(1)
    });
    let lower = |tr: &mut Tracer, ast| {
        tr.time("cli.lower", root, || dds_cli::lower(ast))
            .map_err(|e| e.to_string())
    };
    let (la, lb) = (lower(tr, &ast_a)?, lower(tr, &ast_b)?);
    let eo = engine_options(options);
    let mut pairs = Vec::new();
    for (pa, pb) in la.properties.iter().zip(&lb.properties) {
        let (Task::Reach(sa), Task::Reach(sb)) = (&pa.task, &pb.task) else {
            return Err(format!("property {} is not a reach property", pa.name));
        };
        let started = Instant::now();
        let prod = tr
            .time("core.product.build", root, || product::product(sa, sb))
            .map_err(|e| format!("{e:?}"))?;
        let job = Multi {
            product: &prod,
            options: eo,
        };
        let r = tr.time("core.engine.run", root, || {
            with_timed_class(&la.class, counters, job)
        });
        let verdict = match (r.a, r.b) {
            (x, y) if x == y && x != "resource-limit" => "equivalent",
            ("nonempty", "empty") | ("empty", "nonempty") => "divergent",
            _ => "resource-limit",
        };
        pairs.push(PairReport {
            name: pa.name.clone(),
            a_outcome: r.a.to_owned(),
            b_outcome: r.b.to_owned(),
            verdict: verdict.to_owned(),
            witness_side: r.witness.as_ref().map(|(s, _, _)| s.label().to_owned()),
            trace: None,
            witness_db: r.witness.as_ref().map(|(_, db, _)| db.to_string()),
            witness_run: r.witness.as_ref().map(|(_, _, run)| run.to_string()),
            detail: None,
            wall_ns: started.elapsed().as_nanos(),
            configs_explored: r.stats.configs_explored as u64,
            stats: Some(r.stats),
        });
    }
    let report = EquivReport {
        label_a: "a".to_owned(),
        label_b: "b".to_owned(),
        system_a: la.name.clone(),
        system_b: lb.name.clone(),
        class: la.class.describe(),
        bisim: false,
        pairs,
        fingerprint,
    };
    tr.time("cli.render", root, || render::equiv_json(&report));
    Ok(report)
}
