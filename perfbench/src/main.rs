//! The repository benchmark: end-to-end and per-layer measurements of the
//! `dds` verifier over four workloads. See `README.md` beside this crate
//! for why each workload exists and which layer should move which metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify_amalgam --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root: the inputs are read from `bench/macro/`
//! and `specs/`. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer ones with `--trace 1`). The exit code is
//! non-zero when any verdict, body, trace comparison or accounting check
//! failed.

mod closed;
mod corpus;
mod layers;
mod serve;
mod stats;
mod trace;
mod wrap;

use std::fmt::Write as _;
use std::time::Duration;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "verify_amalgam",
    "verify_automata",
    "equiv_mutants",
    "serve_mixed",
];

/// Set-up is repeated at least this many times in a batch, and for at
/// least the batch's seconds ([`SETUP_SECS`] for the first batch of a run),
/// and read as the median: a millisecond set-up read once is mostly noise.
const SETUP_REPS: usize = 5;
pub const SETUP_SECS: f64 = 1.0;

/// Runs `setup` repeatedly for at least `secs` (see [`SETUP_REPS`]),
/// handing every result but the last to `discard`. Returns the last result
/// and the median time.
pub fn repeat_setup<T>(
    secs: f64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let out = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPS && start.elapsed().as_secs_f64() >= secs {
            return Ok((out, stats::median(&times)));
        }
        discard(out);
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (or `all`).
    pub workload: String,
    /// Seed for input order, mutations and the serve schedule.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (verifications, equivalence checks, requests).
    pub attempted: u64,
    /// What went wrong, one line per failed operation or check.
    pub failures: Vec<String>,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Further readings printed for people (not in the JSON line).
    pub notes: Vec<Metric>,
}

impl Report {
    /// Records a failed operation or check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

fn run_one(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "verify_amalgam" | "verify_automata" | "equiv_mutants" => closed::run(args)?,
        "serve_mixed" => serve::run(args)?,
        other => unreachable!("workload {other} was validated"),
    };
    let rss = Metric::new("peak_rss_mb", peak_rss_mb(), "MB");
    if args.trace {
        report.notes.push(rss);
    } else {
        report.metrics.push(rss);
    }
    let failed_ratio = report.failures.len() as f64 / report.attempted.max(1) as f64;
    report
        .notes
        .push(Metric::new("failed_ratio", failed_ratio, "ratio"));
    Ok(report)
}

/// Runs every workload in a child process of its own, so each one's peak
/// RSS is its own. Each child prints its own report.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.as_secs().to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{w}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        match run_all(&args) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    let report = match run_one(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for f in &report.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for m in report.notes.iter().chain(&report.metrics) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.failures.is_empty() && finite;
    println!(
        "{}",
        json_line(
            correct,
            report.attempted.max(1),
            report.failures.len() as u64,
            &report.metrics
        )
    );
    if !correct {
        std::process::exit(1);
    }
}
