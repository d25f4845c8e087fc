//! Micro-probes of single runtime layers: thread setup and join, the SPSC
//! queue in streaming and ping-pong use, and scatter/gather replication.
//! Each probe checks its own output; a wrong value is a failure, not a
//! timing.

use std::hint::spin_loop;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dswp::{annotate_loop_affine, dswp_loop, DswpOptions, Replicate};
use dswp_analysis::AliasMode;
use dswp_ir::{Program, ProgramBuilder};
use dswp_rt::queue::SpscQueue;
use dswp_rt::Runtime;

use crate::stats::median;
use crate::suite::Kernel;

/// Capacity of the probe queues: large enough that a 64-value chunk is
/// never truncated by the ring itself.
pub const PROBE_CAPACITY: usize = 128;

/// Spins on `op` until it reports progress, yielding now and then so a
/// descheduled peer can run on a machine with few cores.
fn spin_until(mut op: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !op() {
        spins += 1;
        if spins.is_multiple_of(1024) {
            std::thread::yield_now();
        } else {
            spin_loop();
        }
    }
}

/// Streams `values` from one thread to another in chunks of `chunk`
/// (`push_batch`/`pop_batch`). Returns ns per value, or `None` when the
/// consumer did not receive exactly `values` in order.
pub fn stream_ns_per_value(values: &[i64], chunk: usize) -> Option<f64> {
    let q = SpscQueue::new(PROBE_CAPACITY, false);
    let barrier = Barrier::new(2);
    let n = values.len();
    let (start, (end, received)) = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            barrier.wait();
            let t0 = Instant::now();
            let mut i = 0;
            while i < n {
                let hi = (i + chunk).min(n);
                spin_until(|| {
                    let k = q.push_batch(&values[i..hi]);
                    i += k;
                    k > 0
                });
            }
            t0
        });
        let consumer = s.spawn(|| {
            let mut out = Vec::with_capacity(n);
            barrier.wait();
            while out.len() < n {
                spin_until(|| q.pop_batch(&mut out, chunk) > 0);
            }
            (Instant::now(), out)
        });
        (
            producer.join().expect("stream producer panicked"),
            consumer.join().expect("stream consumer panicked"),
        )
    });
    (received == values).then(|| end.duration_since(start).as_nanos() as f64 / n as f64)
}

/// Sends each value to a peer thread and waits for it to come back
/// incremented, over two queues. Returns ns per round trip, or `None` when
/// a reply was wrong.
pub fn pingpong_ns_per_roundtrip(values: &[i64]) -> Option<f64> {
    let there = SpscQueue::new(PROBE_CAPACITY, false);
    let back = SpscQueue::new(PROBE_CAPACITY, false);
    let barrier = Barrier::new(2);
    let n = values.len();
    let (elapsed, ok) = std::thread::scope(|s| {
        let echo = s.spawn(|| {
            barrier.wait();
            for _ in 0..n {
                let mut v = None;
                spin_until(|| {
                    v = there.try_consume();
                    v.is_some()
                });
                let reply = v.expect("spin_until returned").wrapping_add(1);
                spin_until(|| back.try_produce(reply));
            }
        });
        barrier.wait();
        let t0 = Instant::now();
        let mut ok = true;
        for &v in values {
            spin_until(|| there.try_produce(v));
            let mut r = None;
            spin_until(|| {
                r = back.try_consume();
                r.is_some()
            });
            ok &= r == Some(v.wrapping_add(1));
        }
        let elapsed = t0.elapsed();
        echo.join().expect("ping-pong echo panicked");
        (elapsed, ok)
    });
    ok.then(|| elapsed.as_nanos() as f64 / n as f64)
}

/// A program of `threads` stages that each halt at once: a native run of
/// it costs only thread setup and join.
pub fn trivial_program(threads: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut entries = Vec::new();
    for t in 0..threads {
        let mut f = pb.function(format!("stage{t}"));
        let e = f.entry_block();
        f.switch_to(e);
        f.halt();
        entries.push(f.finish());
    }
    let mut program = pb.finish(entries[0], 1);
    for &e in &entries[1..] {
        program.add_thread(e);
    }
    program
}

/// Median µs of `reps` native runs of [`trivial_program`]`(threads)`, timed
/// around `Runtime::run`. `None` when a run failed.
pub fn setup_join_us(threads: usize, reps: usize) -> Option<f64> {
    let p = trivial_program(threads);
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = Runtime::new(&p).run();
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        r.ok()?;
    }
    Some(median(&us))
}

/// The kernel compiled with precise alias analysis (which replication
/// needs), unreplicated and with every legal stage replicated twice.
fn replication_pair(k: &Kernel) -> Result<(Program, Program), String> {
    let build = |replicate: Replicate| -> Result<(Program, usize), String> {
        let mut p = k.original.clone();
        let main = p.main();
        annotate_loop_affine(&mut p, main, k.header).map_err(|e| e.to_string())?;
        let opts = DswpOptions {
            alias: AliasMode::Precise,
            replicate,
            ..DswpOptions::default()
        };
        let report =
            dswp_loop(&mut p, main, k.header, &k.profile, &opts).map_err(|e| e.to_string())?;
        Ok((p, report.replication.len()))
    };
    let (plain, _) = build(Replicate::Off)?;
    let (replicated, groups) = build(Replicate::Fixed(2))?;
    if groups == 0 {
        return Err(format!("{}: no stage was replicated", k.name));
    }
    Ok((plain, replicated))
}

/// Extra ns per loop iteration that 2-way scatter/gather replication costs
/// over the unreplicated pipeline (negative when replication wins), from
/// `reps` alternating native runs of each. `Err` on a failed or wrong run.
pub fn scatter_gather_ns_per_iter(k: &Kernel, reps: usize) -> Result<f64, String> {
    let (plain, replicated) = replication_pair(k)?;
    let time = |p: &Program| -> Result<Duration, String> {
        let t0 = Instant::now();
        let r = Runtime::new(p)
            .run()
            .map_err(|e| format!("{}: {e}", k.name))?;
        let elapsed = t0.elapsed();
        if r.memory != k.expected {
            return Err(format!(
                "{}: replicated run diverged from the oracle",
                k.name
            ));
        }
        Ok(elapsed)
    };
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        t1.push(time(&plain)?.as_nanos() as f64);
        t2.push(time(&replicated)?.as_nanos() as f64);
    }
    let iters = k.profile.weight(k.original.main(), k.header).max(1);
    Ok((median(&t2) - median(&t1)) / iters as f64)
}
