//! The per-layer metrics of a traced run.
//!
//! Every workload reports every metric; a layer the workload never calls
//! reads 0. Totals are per pass over the workload's inputs.

use crate::trace::Tracer;
use crate::wrap::{ClassCounters, Tally};
use crate::{Args, Metric, Report};
use dds_cli::serve::ServerStats;
use dds_core::EngineStats;
use std::collections::BTreeMap;

/// Everything a traced run measured.
#[derive(Debug, Default)]
pub struct Layers {
    /// Search-time `amalgams` calls.
    pub amalgams: Tally,
    /// `transitions` calls.
    pub transitions: Tally,
    /// `concretize` calls.
    pub concretize: Tally,
    /// Span totals by layer name (ms).
    pub spans: BTreeMap<&'static str, f64>,
    /// Merged statistics of every traced search.
    pub engine: EngineStats,
    /// Daemon counters (`serve_mixed` only).
    pub serve: Option<ServerStats>,
    /// Traced over untraced wall time of the same calls.
    pub trace_overhead_ratio: f64,
    /// 99th percentile of how late the open-loop generator sent (ms).
    pub generator_late_p99_ms: f64,
    /// Passes the totals were summed over.
    pub passes: usize,
}

/// Traced runs may lose this share of a request's wall time (plus
/// [`TRACE_SLACK_MS`]) between its layer spans.
const TRACE_SHARE: f64 = 0.02;
const TRACE_SLACK_MS: f64 = 0.5;

/// What a traced run accumulates while it goes.
#[derive(Debug, Default)]
pub struct TracedRun {
    /// The spans.
    pub tracer: Tracer,
    /// The class wrappers' counters.
    pub counters: ClassCounters,
    /// Merged statistics of every traced search.
    pub engine: EngineStats,
    /// The most engine threads any traced search used.
    pub threads: usize,
    /// Wall time of the untraced calls.
    pub untraced_s: f64,
    /// Wall time of the traced calls.
    pub traced_s: f64,
}

impl TracedRun {
    /// Checks the run's accounting (a failed check goes to `report`),
    /// writes its spans under `perfbench/out/` and returns its layers.
    pub fn finish(self, args: &Args, passes: usize, report: &mut Report) -> Result<Layers, String> {
        for lost in self.tracer.unaccounted(TRACE_SHARE, TRACE_SLACK_MS) {
            report.fail(format!("trace accounting: {lost}"));
        }
        let layers = Layers {
            amalgams: self.counters.amalgams.tally(),
            transitions: self.counters.transitions.tally(),
            concretize: self.counters.concretize.tally(),
            spans: self.tracer.totals(),
            engine: self.engine,
            serve: None,
            trace_overhead_ratio: self.traced_s / self.untraced_s,
            generator_late_p99_ms: 0.0,
            passes,
        };
        // Worker time inside `transitions` cannot exceed the searches' wall
        // time times their threads; a trace that does has double-counted.
        let run_ms = layers.spans.get("core.engine.run").copied().unwrap_or(0.0);
        if layers.transitions.busy_ms > run_ms * self.threads.max(1) as f64 * 1.05 + 1.0 {
            report.fail(format!(
                "trace accounting: transitions busy {:.1} ms over {} x engine {run_ms:.1} ms",
                layers.transitions.busy_ms, self.threads
            ));
        }
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, self.tracer.jsonl())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(layers)
    }
}

impl Layers {
    /// The metrics, named as in `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = 1.0 / self.passes.max(1) as f64;
        let span = |name: &str| self.spans.get(name).copied().unwrap_or(0.0) * per;
        let count = |x: u64| x as f64 * per;
        let ms = |ns: u64| ns as f64 / 1e6 * per;
        let e = &self.engine;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mut out = vec![
            Metric::new(
                "core.amalgam.amalgams.calls",
                count(self.amalgams.calls),
                "count",
            ),
            Metric::new(
                "core.amalgam.amalgams.busy_ms",
                self.amalgams.busy_ms * per,
                "ms",
            ),
            Metric::new(
                "core.amalgam.candidates",
                count(self.amalgams.items),
                "count",
            ),
            Metric::new(
                "core.amalgam.guard_canon.busy_ms",
                if self.amalgams.calls == 0 {
                    0.0
                } else {
                    (self.transitions.busy_ms - self.amalgams.busy_ms) * per
                },
                "ms",
            ),
            Metric::new(
                "core.amalgam.useful_ratio",
                if self.amalgams.calls == 0 {
                    0.0
                } else {
                    ratio(self.transitions.items, self.amalgams.items)
                },
                "ratio",
            ),
            Metric::new(
                "class.transitions.calls",
                count(self.transitions.calls),
                "count",
            ),
            Metric::new(
                "class.transitions.successors",
                count(self.transitions.items),
                "count",
            ),
            Metric::new(
                "class.transitions.busy_ms",
                self.transitions.busy_ms * per,
                "ms",
            ),
            Metric::new(
                "class.concretize.calls",
                count(self.concretize.calls),
                "count",
            ),
            Metric::new(
                "class.concretize.busy_ms",
                self.concretize.busy_ms * per,
                "ms",
            ),
            // The engine's certification is concretization followed by
            // `System::check_run` on the compiled and the original system.
            Metric::new(
                "system.explicit.check_run.ms",
                (ms(e.certify_ns) - self.concretize.busy_ms * per).max(0.0),
                "ms",
            ),
            Metric::new(
                "reductions.words_succ.bounded_check.ms",
                span("reductions.words_succ.bounded_check"),
                "ms",
            ),
            Metric::new("core.engine.run.ms", span("core.engine.run"), "ms"),
            Metric::new(
                "core.engine.configs_explored",
                count(e.configs_explored as u64),
                "count",
            ),
            Metric::new(
                "core.engine.transitions_computed",
                count(e.transitions_computed as u64),
                "count",
            ),
            Metric::new(
                "core.engine.transition_cache_hits",
                count(e.transition_cache_hits as u64),
                "count",
            ),
            Metric::new(
                "core.engine.dedup_probes",
                count(e.dedup_probes as u64),
                "count",
            ),
            Metric::new(
                "core.engine.dedup_hits",
                count(e.dedup_hits as u64),
                "count",
            ),
            // `EngineStats::merge` keeps the deepest search's level count.
            Metric::new("core.engine.levels", e.levels as f64, "count"),
            Metric::new(
                "core.engine.layers_parallel",
                count(e.layers_parallel),
                "count",
            ),
            Metric::new("core.engine.layers_inline", count(e.layers_inline), "count"),
            Metric::new("core.engine.tasks_stolen", count(e.tasks_stolen), "count"),
            Metric::new("core.engine.idle_ms", ms(e.idle_ns), "ms"),
            Metric::new("core.engine.merge_ms", ms(e.merge_ns), "ms"),
            Metric::new("core.product.build.ms", span("core.product.build"), "ms"),
            Metric::new("cli.parse.ms", span("cli.parse"), "ms"),
            Metric::new("cli.api.fingerprint.ms", span("cli.api.fingerprint"), "ms"),
            Metric::new("cli.lower.ms", span("cli.lower"), "ms"),
            Metric::new("cli.render.ms", span("cli.render"), "ms"),
        ];
        let s = self.serve.unwrap_or_default();
        out.extend([
            Metric::new("cli.serve.requests", s.requests as f64, "count"),
            Metric::new("cli.serve.connections", s.connections as f64, "count"),
            Metric::new("cli.serve.engine_runs", s.engine_runs as f64, "count"),
            Metric::new("cli.serve.cache_hits", s.cache_hits as f64, "count"),
            Metric::new("cli.serve.cache_hit_ratio", s.cache_hit_rate(), "ratio"),
            Metric::new("cli.serve.rejected", s.rejected as f64, "count"),
            Metric::new("cli.serve.timeouts", s.timeouts as f64, "count"),
            Metric::new(
                "bench.trace_overhead_ratio",
                self.trace_overhead_ratio,
                "ratio",
            ),
            Metric::new(
                "bench.generator_late_p99_ms",
                self.generator_late_p99_ms,
                "ms",
            ),
        ]);
        out
    }
}
