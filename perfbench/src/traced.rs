//! The traced run: per-layer costs and the ledger that reconciles them
//! with the end-to-end time.

use std::collections::BTreeMap;
use std::time::Instant;

use dswp::{analyze_loop, scc_costs, tpp_heuristic, DswpOptions, TppOptions};

use crate::pass::{run_pass, Kind};
use crate::stats::{self, geomean, median, process_cpu_time, Rng};
use crate::suite::{compile, declined, Suite};
use crate::trace::{Span, Tracer};
use crate::{num, probes, quote, Args, Report};

/// Passes of the traced sweep per workload kind.
const SWEEP_PASSES_NATIVE: usize = 10;
const SWEEP_PASSES_SIM: usize = 3;
/// Repetitions of the compile-layer probe.
const COMPILE_PROBE_REPS: usize = 20;
/// Native runs of the trivial program per setup/join probe.
const SETUP_JOIN_REPS: usize = 200;
/// Values streamed per queue-probe repetition, and round trips per
/// ping-pong repetition.
const STREAM_VALUES: usize = 1 << 18;
const PINGPONG_VALUES: usize = 1 << 15;
const QUEUE_PROBE_REPS: usize = 5;
/// Native runs of each program in the replication probe.
const REPLICATION_REPS: usize = 7;
/// The DOALL kernels replication applies to.
const REPLICATED_KERNELS: [&str; 2] = ["29.compress", "jpegenc"];

/// Indices of the spans of `layer`, grouped by pass.
fn by_pass(t: &Tracer, layer: &str) -> BTreeMap<u32, Vec<usize>> {
    let mut m: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in t.spans.iter().enumerate().filter(|(_, s)| s.layer == layer) {
        m.entry(s.pass).or_default().push(i);
    }
    m
}

/// Σ duration ÷ Σ work over the spans of `layers`, in ns per unit of work.
fn ns_per_work(t: &Tracer, layers: &[&str]) -> (f64, usize) {
    let spans: Vec<&Span> = t
        .spans
        .iter()
        .filter(|s| layers.contains(&s.layer))
        .collect();
    let ns: u64 = spans.iter().map(|s| s.ns()).sum();
    let work: u64 = spans.iter().map(|s| s.work).sum();
    (ns as f64 / work as f64, spans.len())
}

/// The critical stage of a native-run span: the one with the most busy
/// time, as `(busy_ns, blocked_ns)`.
fn critical_stage(t: &Tracer, span: usize) -> (u64, u64) {
    t.stages
        .iter()
        .filter(|s| s.span == span)
        .map(|s| (s.busy_ns, s.blocked_ns))
        .max_by_key(|&(busy, _)| busy)
        .unwrap_or((0, 0))
}

/// Traced run: a sweep of traced passes of every workload kind, the
/// compile-layer and runtime micro-probes, then alternating untraced and
/// traced passes of the chosen workload to measure tracing overhead.
pub fn measure_traced(args: &Args, suite: &Suite) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let mut t = Tracer::default();
    let n = suite.kernels.len();
    let mut pass_id = 0u32;
    let (mut pipe_cpu, mut pipe_wall) = (0.0, 0.0);
    for kind in Kind::ALL {
        let passes = match kind {
            Kind::CompileSimulate => SWEEP_PASSES_SIM,
            _ => SWEEP_PASSES_NATIVE,
        };
        for _ in 0..passes {
            let order = rng.permutation(n);
            let c0 = process_cpu_time();
            let t0 = Instant::now();
            let o = run_pass(kind, suite, &order, pass_id, Some(&mut t));
            if kind == Kind::NativePipelined {
                pipe_wall += t0.elapsed().as_secs_f64();
                pipe_cpu += (process_cpu_time() - c0).as_secs_f64();
            }
            report.add(&o);
            pass_id += 1;
        }
    }
    for s in &t.spans {
        if s.kernel != u8::MAX && s.layer != "core.dswp_loop" {
            report.count(
                format!("{}/{}", s.layer, suite.kernels[s.kernel as usize].name),
                s.work,
            );
        }
    }

    // Simulators and interpreter: ns per unit of work, and the
    // compile-simulate ledger (pass wall minus the layers' self times).
    let (v, n_s) = ns_per_work(&t, &["ir.interp"]);
    report.metric("ir.interp.ns_per_step", "ns", v, n_s);
    let (v, n_s) = ns_per_work(&t, &["sim.executor"]);
    report.metric("sim.executor.ns_per_step", "ns", v, n_s);
    let (v, n_s) = ns_per_work(&t, &["sim.machine.original", "sim.machine.dswp"]);
    report.metric("sim.machine.ns_per_cycle", "ns", v, n_s);
    let cycles: u64 = report
        .counts
        .iter()
        .filter(|(k, _)| k.starts_with("sim.machine."))
        .map(|(_, v)| v)
        .sum();
    report.metric("sim.machine.cycles", "count", cycles as f64, 1);
    let sim_passes = by_pass(&t, Kind::CompileSimulate.pass_layer());
    let residual: Vec<f64> = sim_passes
        .iter()
        .map(|(&p, spans)| {
            let children: u64 = t
                .spans
                .iter()
                .filter(|s| s.pass == p && s.kernel != u8::MAX)
                .map(Span::ns)
                .sum();
            (t.spans[spans[0]].ns() as f64 - children as f64) / 1e6
        })
        .collect();
    report.median_of("sim.ledger.residual_ms", "ms", &residual);

    // Native runs: setup/join probe first, since the ledger subtracts it.
    let t1 = report.probe(
        probes::setup_join_us(1, SETUP_JOIN_REPS).ok_or("1-stage setup probe failed".to_string()),
    );
    let t2 = report.probe(
        probes::setup_join_us(2, SETUP_JOIN_REPS).ok_or("2-stage setup probe failed".to_string()),
    );
    let (t1, t2) = (t1.unwrap_or(f64::NAN), t2.unwrap_or(f64::NAN));
    report.metric("rt.setup_join_us.t1", "us", t1, SETUP_JOIN_REPS);
    report.metric("rt.setup_join_us.t2", "us", t2, SETUP_JOIN_REPS);
    native_ledger(&mut report, &t, suite, t1, t2);
    report.metric(
        "rt.cores_busy",
        "cores",
        pipe_cpu / pipe_wall,
        SWEEP_PASSES_NATIVE,
    );

    compile_probe(&mut report, &mut t, suite, &mut pass_id);
    queue_probes(&mut report, args.seed);
    for name in REPLICATED_KERNELS {
        let k = suite.kernels.iter().find(|k| k.name == name);
        let v = report.probe(
            k.ok_or(format!("{name} is not in the suite"))
                .and_then(|k| probes::scatter_gather_ns_per_iter(k, REPLICATION_REPS)),
        );
        report.metric(
            format!("core.replicate.scatter_gather_ns_per_iter.{name}"),
            "ns",
            v.unwrap_or(f64::NAN),
            REPLICATION_REPS,
        );
    }

    // Tracing overhead on the chosen workload: untraced and traced passes
    // alternate, so drift hits both alike.
    let (mut plain, mut traced, mut reference) = (Vec::new(), Vec::new(), Vec::new());
    let end = Instant::now() + std::time::Duration::from_secs(args.seconds);
    while Instant::now() < end || traced.len() < 2 {
        reference.push(stats::reference_ms());
        for on in [false, true] {
            let order = rng.permutation(n);
            let t0 = Instant::now();
            let o = run_pass(args.workload, suite, &order, pass_id, on.then_some(&mut t));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if on { &mut traced } else { &mut plain }.push(ms);
            report.add(&o);
            pass_id += 1;
        }
    }
    report.metric(
        "trace.overhead_ratio",
        "ratio",
        median(&traced) / median(&plain),
        traced.len(),
    );
    report.median_of("host.reference_ms", "ms", &reference);
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("error_rate", "ratio", error_rate, report.attempted as usize);
    report.spans = Some(t.to_json());
    report
}

/// Native metrics from the sweep: per-kernel critical-stage busy and
/// blocked time, step inflation, speedup over one stage, estimate versus
/// measurement, and the ledger `span − (setup/join + busy + blocked)`.
fn native_ledger(report: &mut Report, t: &Tracer, suite: &Suite, t1_us: f64, t2_us: f64) {
    let spans_of = |layer: &str, kernel: usize| -> Vec<usize> {
        (0..t.spans.len())
            .filter(|&i| t.spans[i].layer == layer && t.spans[i].kernel as usize == kernel)
            .collect()
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let residual_ms = |span: usize| {
        let stages = t.stages.iter().filter(|s| s.span == span).count();
        let setup_ms = if stages <= 1 { t1_us } else { t2_us } / 1e3;
        let (busy, blocked) = critical_stage(t, span);
        ms(t.spans[span].ns()) - setup_ms - ms(busy) - ms(blocked)
    };
    let per_pass = |layer: &str, f: &dyn Fn(usize) -> f64| -> Vec<f64> {
        by_pass(t, layer)
            .values()
            .map(|spans| spans.iter().map(|&i| f(i)).sum())
            .collect()
    };
    let blocks = |span: usize| -> f64 {
        t.blocks
            .iter()
            .filter(|&&(s, _)| s == span)
            .map(|&(_, b)| b as f64)
            .sum()
    };

    // Worker cost per step, from single-stage runs (busy time only).
    let single_stages = t
        .stages
        .iter()
        .filter(|s| t.spans[s.span].layer == "rt.run.single");
    let (busy, steps, runs) = single_stages.fold((0, 0, 0), |(b, st, n), s| {
        (b + s.busy_ns, st + s.steps, n + 1)
    });
    report.metric(
        "rt.worker.ns_per_step",
        "ns",
        busy as f64 / steps as f64,
        runs,
    );

    let pipe = "rt.run.pipelined";
    report.median_of(
        "rt.stage.busy_ms",
        "ms",
        &per_pass(pipe, &|i| ms(critical_stage(t, i).0)),
    );
    report.median_of(
        "rt.stage.blocked_ms",
        "ms",
        &per_pass(pipe, &|i| ms(critical_stage(t, i).1)),
    );
    report.median_of("rt.queue.blocks", "count", &per_pass(pipe, &blocks));
    report.median_of("rt.ledger.residual_ms", "ms", &per_pass(pipe, &residual_ms));
    report.median_of(
        "rt.ledger.residual_ms.single",
        "ms",
        &per_pass("rt.run.single", &residual_ms),
    );

    let (mut inflation, mut speedup, mut est_vs_meas) = (Vec::new(), Vec::new(), Vec::new());
    for (i, k) in suite.kernels.iter().enumerate() {
        let (pipe_spans, single_spans) = (spans_of(pipe, i), spans_of("rt.run.single", i));
        let of = |spans: &[usize], f: &dyn Fn(usize) -> f64| -> Vec<f64> {
            spans.iter().map(|&s| f(s)).collect()
        };
        let busy = report.median_of(
            format!("rt.stage.busy_ms.{}", k.name),
            "ms",
            &of(&pipe_spans, &|s| ms(critical_stage(t, s).0)),
        );
        let blocked = report.median_of(
            format!("rt.stage.blocked_ms.{}", k.name),
            "ms",
            &of(&pipe_spans, &|s| ms(critical_stage(t, s).1)),
        );
        let residual = report.median_of(
            format!("rt.ledger.residual_ms.{}", k.name),
            "ms",
            &of(&pipe_spans, &residual_ms),
        );
        let wall = |spans: &[usize]| median(&of(spans, &|s| ms(t.spans[s].ns())));
        let measured = wall(&single_spans) / wall(&pipe_spans);
        let pipe_steps = pipe_spans
            .first()
            .map_or(f64::NAN, |&s| t.spans[s].work as f64);
        let infl = pipe_steps / k.interp_steps as f64;
        report.metric(format!("core.step_inflation.{}", k.name), "ratio", infl, 1);
        let estimated = k.dswp.as_ref().map(|(_, r)| r.estimated_speedup);
        inflation.push(infl);
        speedup.push(measured);
        est_vs_meas.extend(estimated.map(|e| e / measured));
        report.kernels.push(format!(
            "\n  {{\"name\": {}, \"stages\": {}, \"interp_steps\": {}, \"pipelined_steps\": {}, \
             \"step_inflation\": {}, \"estimated_speedup\": {}, \"measured_speedup\": {}, \
             \"critical_busy_ms\": {}, \"critical_blocked_ms\": {}, \"residual_ms\": {}}}",
            quote(k.name),
            k.pipelined().num_threads(),
            k.interp_steps,
            num(pipe_steps),
            num(infl),
            num(estimated.unwrap_or(f64::NAN)),
            num(measured),
            num(busy),
            num(blocked),
            num(residual)
        ));
    }
    report.metric(
        "core.step_inflation",
        "ratio",
        geomean(&inflation),
        inflation.len(),
    );
    report.metric(
        "core.estimate_vs_measured",
        "ratio",
        geomean(&est_vs_meas),
        est_vs_meas.len(),
    );
    report.metric(
        "derived.speedup_vs_single",
        "ratio",
        geomean(&speedup),
        speedup.len(),
    );
}

/// Compile layers, called one at a time on every kernel: `analyze_loop`
/// (PDG and SCCs), `scc_costs` plus `tpp_heuristic`, and the whole
/// `dswp_loop`. Medians over repetitions of the whole-suite total.
fn compile_probe(report: &mut Report, t: &mut Tracer, suite: &Suite, pass_id: &mut u32) {
    let opts = DswpOptions::default();
    let tpp = TppOptions {
        max_threads: opts.max_threads,
        min_speedup: opts.min_speedup,
    };
    let (mut analyze, mut partition, mut whole) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..COMPILE_PROBE_REPS {
        let (mut a_ns, mut p_ns, mut d_ns) = (0u64, 0u64, 0u64);
        for (i, k) in suite.kernels.iter().enumerate() {
            let kernel = i as u8;
            let main = k.original.main();
            let s0 = t.now_ns();
            let analysis = analyze_loop(&k.original, main, k.header, opts.alias);
            let span = t.push(*pass_id, kernel, "analysis.analyze_loop", s0, 0);
            a_ns += t.spans[span].ns();
            let Some(a) =
                report.probe(analysis.map_err(|e| format!("{}: analyze_loop: {e}", k.name)))
            else {
                continue;
            };
            report.count(
                format!("analysis.pdg_arcs/{}", k.name),
                a.pdg.arcs().len() as u64,
            );

            let s0 = t.now_ns();
            let costs = scc_costs(
                a.normalized.function(main),
                main,
                &a.pdg,
                &a.dag,
                &k.profile,
                &opts.latency,
            );
            let p = std::hint::black_box(tpp_heuristic(&a.dag, &costs, &tpp));
            let span = t.push(*pass_id, kernel, "core.partition", s0, p.num_threads as u64);
            p_ns += t.spans[span].ns();

            let s0 = t.now_ns();
            let compiled = compile(&k.original, k.header, &k.profile);
            let span = t.push(*pass_id, kernel, "core.dswp_loop", s0, 0);
            d_ns += t.spans[span].ns();
            match compiled {
                Ok((p, r)) => {
                    let f = &r.artifacts.flows;
                    report.count(
                        format!("core.flows/{}", k.name),
                        (f.initial + f.loop_flows + f.final_flows) as u64,
                    );
                    report.count(
                        format!("core.static_instrs/{}", k.name),
                        p.num_instrs() as u64,
                    );
                }
                Err(e) if declined(&e) => {}
                Err(e) => report.errors.push(format!("{}: dswp_loop: {e}", k.name)),
            }
        }
        analyze.push(a_ns as f64 / 1e3);
        partition.push(p_ns as f64 / 1e3);
        whole.push(d_ns as f64 / 1e3);
        *pass_id += 1;
    }
    let sum = |prefix: &str| -> f64 {
        report
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v as f64)
            .sum()
    };
    let (arcs, flows, instrs) = (
        sum("analysis.pdg_arcs/"),
        sum("core.flows/"),
        sum("core.static_instrs/"),
    );
    report.median_of("analysis.analyze_loop_us", "us", &analyze);
    report.metric("analysis.pdg_arcs", "count", arcs, 1);
    report.median_of("core.partition_us", "us", &partition);
    report.median_of("core.dswp_loop_us", "us", &whole);
    report.metric("core.flows", "count", flows, 1);
    report.metric("core.static_instrs", "count", instrs, 1);
}

/// SPSC queue probes on seeded data: streaming at chunks 1/16/64 and a
/// one-value ping-pong.
fn queue_probes(report: &mut Report, seed: u64) {
    let mut rng = Rng::new(seed ^ 0x0051_EE5E);
    let values: Vec<i64> = (0..STREAM_VALUES).map(|_| rng.next_u64() as i64).collect();
    for chunk in [1usize, 16, 64] {
        let mut ns = Vec::new();
        for _ in 0..QUEUE_PROBE_REPS {
            let r = probes::stream_ns_per_value(&values, chunk)
                .ok_or(format!("stream c{chunk}: wrong values"));
            ns.extend(report.probe(r));
        }
        report.median_of(format!("rt.queue.stream_ns_per_value.c{chunk}"), "ns", &ns);
    }
    let mut ns = Vec::new();
    for _ in 0..QUEUE_PROBE_REPS {
        let r = probes::pingpong_ns_per_roundtrip(&values[..PINGPONG_VALUES])
            .ok_or("ping-pong: wrong reply".to_string());
        ns.extend(report.probe(r));
    }
    report.median_of("rt.queue.pingpong_ns_per_roundtrip", "ns", &ns);
}
