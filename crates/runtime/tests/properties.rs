//! Randomized properties of the native runtime.
//!
//! The central claim: the observable result of a valid DSWP pipeline is
//! independent of queue capacity and of scheduling. The functional
//! `Executor` simulates capacity-∞ queues deterministically; the native
//! runtime runs the same program with bounded queues under whatever
//! schedule the OS produces. Across randomized capacities (1..64) and
//! workloads, all observables must coincide.
//!
//! Plus the liveness property: a *miswired* pipeline (queues that never
//! connect) must return a structured deadlock error, never hang.

use dswp::{dswp_loop, DswpOptions};
use dswp_ir::interp::Interpreter;
use dswp_ir::{Program, ProgramBuilder, QueueId};
use dswp_rt::{RtConfig, RtError, Runtime};
use dswp_sim::Executor;
use dswp_testutil::{cases, Rng};
use dswp_workloads::{paper_suite, Size};

/// DSWP-transforms every paper workload once (shared across seeds).
fn transformed_suite() -> Vec<(&'static str, Program)> {
    paper_suite(Size::Test)
        .into_iter()
        .map(|w| {
            let baseline = Interpreter::new(&w.program).run().unwrap();
            let mut p = w.program.clone();
            let main = p.main();
            dswp_loop(
                &mut p,
                main,
                w.header,
                &baseline.profile,
                &DswpOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{}: DSWP failed: {e}", w.name));
            (w.name, p)
        })
        .collect()
}

#[test]
fn random_queue_capacities_never_change_results() {
    let suite = transformed_suite();
    let oracles: Vec<_> = suite
        .iter()
        .map(|(name, p)| {
            Executor::new(p)
                .run()
                .unwrap_or_else(|e| panic!("{name}: oracle failed: {e}"))
        })
        .collect();

    for seed in 0..cases(24) as u64 {
        let mut rng = Rng::new(seed ^ 0x5254_4341_5053);
        let idx = rng.below(suite.len());
        let (name, program) = &suite[idx];
        let oracle = &oracles[idx];
        let capacity = rng.range(1, 65);

        let native = Runtime::new(program)
            .with_config(
                RtConfig::default()
                    .queue_capacity(capacity)
                    .record_streams(true),
            )
            .run()
            .unwrap_or_else(|e| panic!("{name} (cap {capacity}, seed {seed}): {e}"));

        assert_eq!(
            native.memory, oracle.memory,
            "{name}: memory, capacity {capacity}, seed {seed}"
        );
        assert_eq!(
            native.entry_regs, oracle.entry_regs,
            "{name}: entry regs, capacity {capacity}, seed {seed}"
        );
        assert_eq!(
            native.streams.as_ref().unwrap(),
            &oracle.streams,
            "{name}: streams, capacity {capacity}, seed {seed}"
        );
        let steps: Vec<u64> = native.stages.iter().map(|s| s.steps).collect();
        assert_eq!(
            steps, oracle.steps,
            "{name}: steps, capacity {capacity}, seed {seed}"
        );
        // Bounded queues really bound occupancy.
        for (q, qs) in native.queues.iter().enumerate() {
            assert!(
                qs.max_occupancy <= capacity,
                "{name}: queue {q} occupancy {} exceeds capacity {capacity}",
                qs.max_occupancy
            );
        }
    }
}

/// The batched analogue: across random queue capacities (1..64) *and*
/// random communication batch sizes (1..64, occasionally `auto`), every
/// observable — memory, entry registers, streams, per-stage step counts —
/// must still coincide with the capacity-∞ functional oracle. Batch sizes
/// above the capacity are deliberately in range: flushes then span several
/// partial `push_batch`es.
#[test]
fn random_batch_sizes_never_change_results() {
    let suite = transformed_suite();
    let oracles: Vec<_> = suite
        .iter()
        .map(|(name, p)| {
            Executor::new(p)
                .run()
                .unwrap_or_else(|e| panic!("{name}: oracle failed: {e}"))
        })
        .collect();

    for seed in 0..cases(24) as u64 {
        let mut rng = Rng::new(seed ^ 0x4241_5443_4845); // "BATCHE"
        let idx = rng.below(suite.len());
        let (name, program) = &suite[idx];
        let oracle = &oracles[idx];
        let capacity = rng.range(1, 65);
        let batch = rng.range(1, 65);
        let auto = rng.below(4) == 0;

        let mut config = RtConfig::default()
            .queue_capacity(capacity)
            .record_streams(true);
        if !auto {
            config = config.batch(batch); // otherwise the default, auto
        }
        let native = Runtime::new(program)
            .with_config(config)
            .run()
            .unwrap_or_else(|e| {
                panic!("{name} (cap {capacity}, batch {batch}, auto {auto}, seed {seed}): {e}")
            });

        let ctx = format!("cap {capacity}, batch {batch}, auto {auto}, seed {seed}");
        assert_eq!(native.memory, oracle.memory, "{name}: memory, {ctx}");
        assert_eq!(
            native.entry_regs, oracle.entry_regs,
            "{name}: entry regs, {ctx}"
        );
        assert_eq!(
            native.streams.as_ref().unwrap(),
            &oracle.streams,
            "{name}: streams, {ctx}"
        );
        let steps: Vec<u64> = native.stages.iter().map(|s| s.steps).collect();
        assert_eq!(steps, oracle.steps, "{name}: steps, {ctx}");
        for (q, qs) in native.queues.iter().enumerate() {
            assert!(
                qs.max_occupancy <= capacity,
                "{name}: queue {q} occupancy {} exceeds capacity {capacity} ({ctx})",
                qs.max_occupancy
            );
        }
    }
}

/// Random producer/consumer value batches through a capacity-1..4 pipeline:
/// FIFO order must survive real concurrency.
#[test]
fn random_value_batches_arrive_in_order() {
    for seed in 0..cases(16) as u64 {
        let mut rng = Rng::new(seed ^ 0x4649_464F);
        let n = rng.range(1, 200) as i64;
        let capacity = rng.range(1, 5);

        // Producer sends seed-derived values; consumer checksums them.
        let mut pb = ProgramBuilder::new();
        let q = QueueId(0);
        let mut f = pb.function("producer");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let tail = f.block("tail");
        let (i, lim, done, x) = (f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(lim, n);
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, lim);
        f.br(done, tail, body);
        f.switch_to(body);
        f.mul(x, i, 7);
        f.add(x, x, 3);
        f.produce(q, x);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(tail);
        f.produce(q, -1);
        f.halt();
        let producer = f.finish();

        let mut g = pb.function("consumer");
        let e2 = g.entry_block();
        let loop_ = g.block("loop");
        let acc = g.block("acc");
        let fin = g.block("fin");
        let (v, sum, neg, base) = (g.reg(), g.reg(), g.reg(), g.reg());
        g.switch_to(e2);
        g.iconst(sum, 0);
        g.jump(loop_);
        g.switch_to(loop_);
        g.consume(v, q);
        g.cmp_lt(neg, v, 0);
        g.br(neg, fin, acc);
        g.switch_to(acc);
        g.mul(sum, sum, 31);
        g.add(sum, sum, v);
        g.jump(loop_);
        g.switch_to(fin);
        g.iconst(base, 0);
        g.store(sum, base, 0);
        g.halt();
        let consumer = g.finish();

        let mut program = pb.finish(producer, 2);
        program.num_queues = 1;
        program.add_thread(consumer);

        // Order-sensitive checksum: any reordering changes it.
        let mut expected: i64 = 0;
        for k in 0..n {
            expected = expected.wrapping_mul(31).wrapping_add(k * 7 + 3);
        }
        let native = Runtime::new(&program)
            .with_config(RtConfig::default().queue_capacity(capacity))
            .run()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            native.memory[0], expected,
            "seed {seed}, capacity {capacity}"
        );
    }
}

/// A deliberately miswired pipeline: the producer writes queue 0, the
/// consumer waits on queue 1, and the producer then waits for an answer on
/// queue 2. Every thread ends up blocked on a queue nobody will ever touch
/// — the watchdog must report deadlock instead of hanging.
#[test]
fn miswired_queues_deadlock_with_structured_error() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    let (x, r) = (f.reg(), f.reg());
    f.switch_to(e);
    f.iconst(x, 42);
    f.produce(QueueId(0), x);
    f.consume(r, QueueId(2)); // never produced: blocks forever
    f.halt();
    let main = f.finish();

    let mut g = pb.function("aux");
    let e2 = g.entry_block();
    let v = g.reg();
    g.switch_to(e2);
    g.consume(v, QueueId(1)); // miswired: producer used queue 0
    g.produce(QueueId(2), v);
    g.halt();
    let aux = g.finish();

    let mut program = pb.finish(main, 4);
    program.num_queues = 3;
    program.add_thread(aux);

    let err = Runtime::new(&program).run().unwrap_err();
    match err {
        RtError::Deadlock { mut blocked } => {
            blocked.sort_unstable();
            assert_eq!(blocked, vec![0, 1]);
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

/// The same miswiring where only the aux thread blocks must *park*, not
/// deadlock, once main terminates — and the run succeeds.
#[test]
fn miswired_aux_parks_when_main_completes() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    let x = f.reg();
    f.switch_to(e);
    f.iconst(x, 7);
    f.produce(QueueId(0), x);
    f.halt();
    let main = f.finish();

    let mut g = pb.function("aux");
    let e2 = g.entry_block();
    let v = g.reg();
    g.switch_to(e2);
    g.consume(v, QueueId(1)); // miswired
    g.halt();
    let aux = g.finish();

    let mut program = pb.finish(main, 4);
    program.num_queues = 2;
    program.add_thread(aux);

    let res = Runtime::new(&program).run().unwrap();
    assert!(res.stages[1].parked);
}
