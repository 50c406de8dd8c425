//! The closed-loop workloads: one request at a time, the next one sent when
//! the previous verdict is in.
//!
//! * `verify_amalgam` — `VerifyRequest::verify` at the CLI default
//!   `threads = auto` over the 18 relational (amalgam-class) scenarios of
//!   `bench/macro/`;
//! * `verify_automata` — the same over the 7 word, tree and counter-machine
//!   scenarios, which never enumerate amalgams;
//! * `equiv_mutants` — `EquivRequest::run` at `threads = 1` over
//!   `dds_gen::macro_suite()` bases paired with seeded mutations whose
//!   preserving/breaking label is the known verdict.

use crate::corpus::{self, Input};
use crate::layers::TracedRun;
use crate::stats::{geomean, median, percentile};
use crate::trace::{self, Tracer};
use crate::wrap::ClassCounters;
use crate::{repeat_setup, Args, Metric, Report, SETUP_SECS};
use dds_cli::api::VerifyRequest;
use dds_cli::runner::RunOptions;
use dds_cli::{render, EquivRequest};
use dds_core::EngineStats;
use dds_gen::{FuzzRng, Mutation};
use std::time::{Duration, Instant};

const AMALGAM: [&str; 6] = [
    "chain_free_",
    "grid_free_",
    "hom_",
    "order_",
    "equiv_",
    "data_order_",
];
const AUTOMATA: [&str; 3] = ["words_", "trees_", "counter_"];

/// Macro-suite bases of `equiv_mutants`: the non-counter scenarios whose
/// product searches take well under a second each at one thread, so a
/// pass over all their mutants stays a few seconds long.
const EQUIV_BASES: [&str; 10] = [
    "chain_free_deep",
    "chain_free_exhaust",
    "chain_free_thin",
    "data_order_exhaust",
    "equiv_deep",
    "equiv_exhaust",
    "hom_chain_k5",
    "order_deep",
    "order_exhaust",
    "words_exhaust",
];

/// Length of the set-up batch timed before every pass.
const PASS_SETUP_SECS: f64 = 0.25;

/// A single verification or equivalence check slower than this fails.
const TIME_LIMIT: Duration = Duration::from_secs(60);

/// The number of passes a run makes: as many as fit in `seconds` at the
/// workload's nominal pass time on the 2-core host the bounds were set on.
/// It depends on `--seconds` alone, not on how fast the passes happen to
/// go, so every run — and both sides of a comparison — takes each input's
/// best time over the same number of passes.
fn passes(workload: &str, seconds: Duration) -> usize {
    let nominal_s = match workload {
        "verify_amalgam" => 14.0,
        "verify_automata" => 7.0,
        _ => 4.0,
    };
    ((seconds.as_secs_f64() / nominal_s) as usize).max(1)
}

enum Job {
    Verify(Input),
    Equiv {
        id: String,
        a: String,
        b: String,
        equivalent: bool,
    },
}

impl Job {
    fn id(&self) -> &str {
        match self {
            Job::Verify(i) => &i.id,
            Job::Equiv { id, .. } => id,
        }
    }
}

fn equiv_options() -> RunOptions {
    RunOptions {
        threads: 1,
        ..RunOptions::default()
    }
}

/// Reads (and for `equiv_mutants`, generates) the inputs in seed order.
fn setup(workload: &str, seed: u64) -> Result<Vec<Job>, String> {
    let mut rng = FuzzRng::new(seed);
    let mut jobs: Vec<Job> = match workload {
        "verify_amalgam" | "verify_automata" => {
            let prefixes: &[&str] = if workload == "verify_amalgam" {
                &AMALGAM
            } else {
                &AUTOMATA
            };
            let inputs = corpus::read_dir("bench/macro", prefixes)?;
            for i in &inputs {
                VerifyRequest::new(i.text.as_str())
                    .label(i.id.as_str())
                    .load()
                    .map_err(|e| e.to_string())?;
            }
            inputs.into_iter().map(Job::Verify).collect()
        }
        _ => mutants(&mut rng)?,
    };
    corpus::shuffle(&mut jobs, &mut rng);
    Ok(jobs)
}

/// Every applicable preserving mutation kind plus the breaking one, per
/// base, with seeded parameters.
fn mutants(rng: &mut FuzzRng) -> Result<Vec<Job>, String> {
    let stamped = corpus::read_dir("bench/macro", &EQUIV_BASES)?;
    let suite = dds_gen::macro_suite();
    let mut jobs = Vec::new();
    for base_id in EQUIV_BASES {
        let base = suite
            .iter()
            .find(|m| m.id == base_id)
            .ok_or(format!("{base_id}: not in the macro suite"))?;
        let stamp = stamped
            .iter()
            .find(|i| i.id == base_id)
            .and_then(|i| corpus::stamped_expect(&i.text))
            .ok_or(format!("bench/macro/{base_id}.dds: no expect stamp"))?;
        let mut param = || rng.next_u64() as usize;
        let mutations = [
            Mutation::RuleReorder { rotation: param() },
            Mutation::GuardTautology { rule: param() },
            Mutation::DuplicateRule { rule: param() },
            Mutation::StateSplit { state: param() },
            Mutation::RegisterRename { register: param() },
            Mutation::propose_breaking(stamp == "nonempty"),
        ];
        let a = base.scenario.render();
        for m in mutations {
            if let Some(mutant) = m.apply(&base.scenario) {
                jobs.push(Job::Equiv {
                    id: format!("{base_id}+{}", m.label()),
                    a: a.clone(),
                    b: mutant.render(),
                    equivalent: m.preserving(),
                });
            }
        }
    }
    Ok(jobs)
}

/// Runs one job through the library; `Err` describes a wrong answer.
fn run_untraced(job: &Job) -> Result<Untraced, String> {
    match job {
        Job::Verify(i) => {
            let r = VerifyRequest::new(i.text.as_str())
                .label(i.id.as_str())
                .verify()
                .map_err(|e| e.to_string())?;
            for p in &r.report.properties {
                if p.expect.is_none() || p.pass != Some(true) {
                    return Err(format!(
                        "{}: outcome {} against stamp {:?}",
                        p.id, p.outcome, p.expect
                    ));
                }
            }
            Ok(Untraced::Verify(r.report))
        }
        Job::Equiv {
            id,
            a,
            b,
            equivalent,
        } => {
            let r = EquivRequest::new(a.as_str(), b.as_str())
                .labels("a", "b")
                .options(equiv_options())
                .run()
                .map_err(|e| format!("{id}: {e}"))?;
            let want = if *equivalent {
                "equivalent"
            } else {
                "divergent"
            };
            if r.verdict() != want {
                return Err(format!(
                    "{id}: verdict {} against label {want}",
                    r.verdict()
                ));
            }
            Ok(Untraced::Equiv(r))
        }
    }
}

enum Untraced {
    Verify(dds_cli::SpecReport),
    Equiv(dds_cli::EquivReport),
}

impl Untraced {
    /// The response document, which the traced pipeline renders too.
    fn render(&self) -> String {
        match self {
            Untraced::Verify(r) => render::json(std::slice::from_ref(r)),
            Untraced::Equiv(r) => render::equiv_json(r),
        }
    }
}

/// Runs one job through the traced pipeline and checks it answered
/// exactly what the library did. Returns the merged search statistics and
/// the engine threads used.
fn run_traced(
    job: &Job,
    untraced: &Untraced,
    tr: &mut Tracer,
    request: u64,
    counters: &ClassCounters,
) -> Result<(EngineStats, usize), String> {
    let mut merged = EngineStats::default();
    match (job, untraced) {
        (Job::Verify(i), Untraced::Verify(want)) => {
            let opts = RunOptions::default();
            let got = trace::verify(tr, request, &i.id, &i.text, &opts, counters)?;
            if !got.matches(want) {
                return Err(format!("{}: traced report differs", i.id));
            }
            for s in got.properties.iter().filter_map(|p| p.stats.as_ref()) {
                merged.merge(s);
            }
            Ok((merged, got.threads))
        }
        (Job::Equiv { id, a, b, .. }, Untraced::Equiv(want)) => {
            let got = trace::equiv(tr, request, a, b, &equiv_options(), counters)?;
            if got.pairs.len() != want.pairs.len() {
                return Err(format!("{id}: traced pair count differs"));
            }
            for (g, w) in got.pairs.iter().zip(&want.pairs) {
                let same = g.verdict == w.verdict
                    && g.a_outcome == w.a_outcome
                    && g.b_outcome == w.b_outcome
                    && g.configs_explored == w.configs_explored
                    && g.stats == w.stats
                    && g.witness_side == w.witness_side
                    && g.witness_db == w.witness_db
                    && g.witness_run == w.witness_run;
                if !same {
                    return Err(format!("{id}: traced pair {} differs", g.name));
                }
                if let Some(s) = &g.stats {
                    merged.merge(s);
                }
            }
            Ok((merged, 1))
        }
        _ => unreachable!("untraced results match their jobs"),
    }
}

/// Runs a closed-loop workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let set_up = || setup(&args.workload, args.seed);
    let (jobs, first_setup_s) = repeat_setup(SETUP_SECS, set_up, drop)?;
    let mut report = Report::default();
    if args.trace {
        traced(args, &jobs, &mut report)?;
        return Ok(report);
    }

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut pass_s: Vec<f64> = Vec::new();
    let mut setup_s = first_setup_s;
    for _ in 0..passes(&args.workload, args.seconds) {
        // Set-up is timed again before every pass and the best batch kept,
        // for the reason each input keeps its best time: the host's speed
        // moves within a run, and one batch at the start reads whichever
        // speed the host had then.
        setup_s = setup_s.min(repeat_setup(PASS_SETUP_SECS, set_up, drop)?.1);
        let pass = Instant::now();
        for (job, t) in jobs.iter().zip(&mut times) {
            let t0 = Instant::now();
            let result = run_untraced(job);
            let dt = t0.elapsed();
            report.attempted += 1;
            t.push(dt.as_secs_f64() * 1e3);
            match result {
                Err(e) => report.fail(e),
                Ok(_) if dt > TIME_LIMIT => {
                    report.fail(format!("{}: over the time limit", job.id()))
                }
                Ok(_) => {}
            }
        }
        pass_s.push(pass.elapsed().as_secs_f64());
    }
    // Each input's best time over the passes: a shared host's speed drifts by
    // up to ~45% within half a minute, and interference only adds time.
    let best: Vec<f64> = times
        .iter()
        .map(|t| t.iter().copied().fold(f64::MAX, f64::min))
        .collect();
    for (job, b) in jobs.iter().zip(&best) {
        report
            .notes
            .push(Metric::new(format!("best_ms.{}", job.id()), *b, "ms"));
    }
    let p50 = percentile(&best, 50.0);
    let p90 = percentile(&best, 90.0);
    report.notes.extend([
        Metric::new("suite_s", median(&pass_s), "s"),
        Metric::new("passes", pass_s.len() as f64, "count"),
        Metric::new("inputs", jobs.len() as f64, "count"),
        Metric::new("p50_ms", p50.value, "ms"),
        Metric::new("p90_ms", p90.value, "ms"),
        Metric::new("p90_samples_beyond", p90.beyond as f64, "count"),
    ]);
    report.metrics.extend([
        Metric::new("setup_s", setup_s, "s"),
        Metric::new(
            "throughput_rps",
            best.len() as f64 / (best.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        Metric::new("geomean_ms", geomean(&best), "ms"),
    ]);
    Ok(report)
}

/// The traced run: every input through the library and through the traced
/// pipeline, compared, with the layer totals per pass.
fn traced(args: &Args, jobs: &[Job], report: &mut Report) -> Result<(), String> {
    let mut run = TracedRun::default();
    let mut passes = 0;
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for job in jobs {
            report.attempted += 1;
            let t0 = Instant::now();
            let want = run_untraced(job);
            if let Ok(w) = &want {
                std::hint::black_box(w.render());
            }
            run.untraced_s += t0.elapsed().as_secs_f64();
            let want = match want {
                Ok(w) => w,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            let t1 = Instant::now();
            let got = run_traced(job, &want, &mut run.tracer, report.attempted, &run.counters);
            run.traced_s += t1.elapsed().as_secs_f64();
            match got {
                Ok((stats, threads)) => {
                    run.engine.merge(&stats);
                    run.threads = run.threads.max(threads);
                }
                Err(e) => report.fail(e),
            }
        }
        passes += 1;
        if start.elapsed() + pass.elapsed() > args.seconds {
            break;
        }
    }
    let layers = run.finish(args, passes, report)?;
    report
        .notes
        .push(Metric::new("passes", passes as f64, "count"));
    report.metrics = layers.metrics();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_depends_on_the_budget_alone() {
        let secs = Duration::from_secs(30);
        assert_eq!(passes("verify_amalgam", secs), 2);
        assert_eq!(passes("verify_automata", secs), 4);
        assert_eq!(passes("equiv_mutants", secs), 7);
        assert_eq!(passes("verify_amalgam", Duration::from_secs(1)), 1);
    }
}
