//! The repository's benchmark: end-to-end pass times of three workloads
//! and, in a separate traced run, a per-layer cost ledger.
//!
//! A **pass** runs every `paper_suite(Size::Paper)` kernel once, in an order
//! drawn from the seed. The workloads are described in `NOTES.md` next to
//! this package; [`run`] measures one of them.

pub mod pass;
pub mod probes;
pub mod stats;
pub mod suite;
pub mod trace;
mod traced;

pub use traced::measure_traced;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::pass::{run_pass, Kind, PassOutcome};
use crate::stats::{median, percentile, process_cpu_time, Rng};
use crate::suite::Suite;

/// Whole-suite compiles per set-up (their median is `compile_ms_p50` on the
/// native workloads).
const COMPILE_REPS: usize = 10;
/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Kind,
    /// Seed of kernel orders and queue-probe data.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=3600).contains(&s) {
                        return Err("--seconds must be in 1..=3600".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Number of samples the value was computed from.
    pub samples: usize,
}

/// Everything a run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Kernel and probe runs attempted.
    pub attempted: u64,
    /// Runs that returned an error or a wrong result.
    pub failed: u64,
    /// Reasons the run is not correct besides failed runs (counts that did
    /// not repeat, probes that could not run).
    pub errors: Vec<String>,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Statistics that are printed and stored but kept out of the result
    /// line, because not every workload can hold them steadily.
    pub informational: Vec<Metric>,
    /// Counts that must repeat exactly, keyed `layer/kernel`.
    pub counts: BTreeMap<String, u64>,
    /// Per-kernel detail for the results file (JSON object members).
    pub kernels: Vec<String>,
    /// Recorded spans as a JSON array (traced runs).
    pub spans: Option<String>,
    /// Raw per-pass samples of the untraced run, by name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// Records the median of `xs` and returns it.
    fn median_of(&mut self, name: impl Into<String>, unit: &'static str, xs: &[f64]) -> f64 {
        let m = median(xs);
        self.metric(name, unit, m, xs.len());
        m
    }

    fn add(&mut self, o: &PassOutcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// Records a probe run: `Err` counts as a failed run.
    fn probe<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }

    /// Records a count that must be identical every time it is observed.
    fn count(&mut self, key: String, value: u64) {
        match self.counts.get(&key) {
            Some(&seen) if seen != value => {
                self.errors
                    .push(format!("count {key} did not repeat: {seen} then {value}"));
            }
            Some(_) => {}
            None => {
                self.counts.insert(key, value);
            }
        }
    }

    /// Whether every run succeeded, every count repeated and every metric
    /// is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The full results file: the result plus what it was measured on,
    /// sample counts, repeatable counts, per-kernel detail and spans.
    pub fn to_json(&self, args: &Args, machine: &stats::MachineInfo) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "\"workload\": \"{}\",", args.workload.name());
        let _ = writeln!(
            s,
            "\"seed\": {},\n\"seconds\": {},\n\"trace\": {},",
            args.seed, args.seconds, args.trace
        );
        let _ = writeln!(
            s,
            "\"machine\": {{\"available_parallelism\": {}, \"cpu_model\": {}, \"commit\": {}}},",
            machine.cores,
            quote(&machine.cpu_model),
            quote(&machine.commit)
        );
        let _ = writeln!(
            s,
            "\"correct\": {},\n\"attempted\": {},\n\"failed\": {},",
            self.correct(),
            self.attempted,
            self.failed
        );
        let errors: Vec<String> = self.errors.iter().map(|e| quote(e)).collect();
        let _ = writeln!(s, "\"errors\": [{}],", errors.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.informational)
            .map(|m| {
                format!(
                    "\n  \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    m.name,
                    num(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect();
        let _ = writeln!(s, "\"metrics\": {{{}\n}},", metrics.join(","));
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\n  {}: {v}", quote(k)))
            .collect();
        let _ = writeln!(s, "\"counts\": {{{}\n}},", counts.join(","));
        let _ = writeln!(s, "\"kernels\": [{}\n],", self.kernels.join(","));
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, v)| {
                let v: Vec<String> = v.iter().map(|&x| num(x)).collect();
                format!("\n  \"{name}\": [{}]", v.join(", "))
            })
            .collect();
        let _ = writeln!(s, "\"samples\": {{{}\n}},", samples.join(","));
        let _ = writeln!(s, "\"spans\": {}", self.spans.as_deref().unwrap_or("[]"));
        s.push('}');
        s
    }
}

/// A JSON number; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Set-ups per untraced run; `setup_s` is their median.
fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::CompileSimulate => 5,
        _ => 15,
    }
}

/// Host speed reference that gated times are scaled to (see [`Timed`]).
pub const REFERENCE_NOMINAL_MS: f64 = 1.0;

/// A time taken right after a host-speed reference sample
/// ([`stats::reference_ms`]).
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// The time as measured.
    pub raw: f64,
    /// The reference sample taken just before it.
    pub reference_ms: f64,
}

impl Timed {
    /// Times `f` after taking a reference sample; `f` returns its own
    /// measurement.
    fn take<T>(f: impl FnOnce() -> (f64, T)) -> (Timed, T) {
        let reference_ms = stats::reference_ms();
        let (raw, out) = f();
        (Timed { raw, reference_ms }, out)
    }

    /// The time scaled to a host on which the reference takes
    /// [`REFERENCE_NOMINAL_MS`]: a host that gives the process half its
    /// usual speed doubles both, and the scaled time stays put.
    pub fn scaled(self) -> f64 {
        self.raw * REFERENCE_NOMINAL_MS / self.reference_ms
    }
}

/// What the set-up phase produced.
#[derive(Debug)]
pub struct Setup {
    /// The suite of the last set-up.
    pub suite: Suite,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<Timed>,
    /// Wall ms of each whole-suite `dswp_loop` during set-up.
    pub compile_ms: Vec<Timed>,
}

/// Builds the suite (kernels, interpreter profile and oracle, compile) and
/// warms the workload up, `reps` times.
pub fn setup(kind: Kind, seed: u64, reps: usize) -> Setup {
    let mut rng = Rng::new(seed ^ 0x5E70_5E70);
    let (mut setup_s, mut compile_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (timed, suite) = Timed::take(|| {
            let t0 = Instant::now();
            let mut suite = Suite::build();
            // Each compile gets its own reference sample, whose time is not
            // part of the set-up.
            let mut reference_s = 0.0;
            for _ in 0..COMPILE_REPS {
                let (c, ()) = Timed::take(|| (suite.compile_all().as_secs_f64() * 1e3, ()));
                reference_s += c.reference_ms / 1e3;
                compile_ms.push(c);
            }
            // One untimed pass warms caches and the runtime's first spawns.
            run_pass(kind, &suite, &rng.permutation(suite.kernels.len()), 0, None);
            (t0.elapsed().as_secs_f64() - reference_s, suite)
        });
        setup_s.push(timed);
        last = Some(suite);
    }
    Setup {
        suite: last.expect("at least one set-up"),
        setup_s,
        compile_ms,
    }
}

/// Runs the benchmark as `args` says.
pub fn run(args: &Args) -> Report {
    if args.trace {
        let s = setup(args.workload, args.seed, 1);
        measure_traced(args, &s.suite)
    } else {
        let s = setup(args.workload, args.seed, setup_reps(args.workload));
        measure(args, &s)
    }
}

/// Untraced run: pass wall and CPU time, each pass right after a host-speed
/// reference sample. The gated times are medians of [`Timed::scaled`]
/// values; the raw medians are kept as informational metrics.
pub fn measure(args: &Args, s: &Setup) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let n = s.suite.kernels.len();
    let (mut wall, mut cpu, mut compile_ms) = (Vec::new(), Vec::new(), Vec::new());
    let end = Instant::now() + std::time::Duration::from_secs(args.seconds);
    while Instant::now() < end {
        let order = rng.permutation(n);
        let (w, (c, o)) = Timed::take(|| {
            let c0 = process_cpu_time();
            let t0 = Instant::now();
            let o = run_pass(args.workload, &s.suite, &order, 0, None);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (ms, ((process_cpu_time() - c0).as_secs_f64() * 1e3, o))
        });
        let timed = |raw| Timed { raw, ..w };
        wall.push(w);
        cpu.push(timed(c));
        compile_ms.push(timed(o.compile.as_secs_f64() * 1e3));
        report.add(&o);
    }
    if args.workload != Kind::CompileSimulate {
        compile_ms = s.compile_ms.clone();
    }
    let raw = |xs: &[Timed]| xs.iter().map(|t| t.raw).collect::<Vec<_>>();
    let scaled = |xs: &[Timed]| xs.iter().map(|t| t.scaled()).collect::<Vec<_>>();
    let timings = [
        ("pass_wall_ms_p50", "ms", &wall),
        ("pass_cpu_ms_p50", "ms", &cpu),
        ("compile_ms_p50", "ms", &compile_ms),
        ("setup_s", "s", &s.setup_s),
    ];
    for (name, unit, xs) in timings {
        report.median_of(name, unit, &scaled(xs));
        report.informational.push(Metric {
            name: format!("raw.{name}"),
            unit,
            value: median(&raw(xs)),
            samples: xs.len(),
        });
    }
    report.metric("peak_rss_mb", "MB", stats::peak_rss_mb(), 1);
    // A compile-simulate run holds too few passes for ten samples beyond
    // p90, so p90 is reported but not part of the result line.
    report.informational.push(Metric {
        name: "raw.pass_wall_ms_p90".into(),
        unit: "ms",
        value: percentile(&raw(&wall), 90.0),
        samples: wall.len(),
    });
    let reference: Vec<f64> = wall.iter().map(|t| t.reference_ms).collect();
    report.informational.push(Metric {
        name: "host.reference_ms_p50".into(),
        unit: "ms",
        value: median(&reference),
        samples: reference.len(),
    });
    report.samples = vec![
        ("pass_wall_ms", raw(&wall)),
        ("pass_cpu_ms", raw(&cpu)),
        ("compile_ms", raw(&compile_ms)),
        ("reference_ms", reference),
    ];
    report
}
