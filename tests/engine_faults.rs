//! Fault parity across the four execution engines.
//!
//! A table of tiny programs, each faulting on one instruction, runs through
//! the single-context `Interpreter`, the functional `Executor`, the
//! cycle-level `Machine` and the native `Runtime`. Every engine must report
//! the same fault: the same address and memory size for an out-of-bounds
//! access, the same target value for a bad indirect call, and the same
//! thread for a `ret` from an entry function. The multi-context engines
//! also run each faulting body as thread 1 next to a main thread that halts
//! at once, so the reported thread is checked as well.
//!
//! Unverified programs with a branch to a missing block or a call of a
//! missing function must behave the same everywhere too: as dead code when
//! the bad instruction never runs, and as a panic when it does.

use std::panic::AssertUnwindSafe;
use std::time::Duration;

use dswp_repro::ir::interp::{InterpError, Interpreter};
use dswp_repro::ir::verify::verify_program;
use dswp_repro::ir::{BlockId, FuncId, FunctionBuilder, Program, ProgramBuilder, QueueId, Reg};
use dswp_repro::rt::{RtConfig, RtError, Runtime};
use dswp_repro::sim::{ExecError, Executor, Machine, MachineConfig, SimError};

/// Memory size of every case program, in words.
const MEM: usize = 4;

/// The engine-independent fault every engine must report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expected {
    MemoryOutOfBounds {
        address: i64,
        size: usize,
    },
    BadIndirectTarget(i64),
    /// Carries the faulting thread.
    ReturnFromEntry(usize),
}

struct Case {
    name: &'static str,
    /// Emits the faulting body into the entry block of a fresh function.
    body: fn(&mut FunctionBuilder<'_>),
    /// The fault, with the thread left at 0.
    fault: Expected,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "load past the end of memory",
            body: |f| {
                let (a, v) = (f.reg(), f.reg());
                f.iconst(a, 1);
                f.load(v, a, MEM as i64);
                f.halt();
            },
            fault: Expected::MemoryOutOfBounds {
                address: MEM as i64 + 1,
                size: MEM,
            },
        },
        Case {
            name: "store to a negative address",
            body: |f| {
                let a = f.reg();
                f.iconst(a, 0);
                f.store(7, a, -3);
                f.halt();
            },
            fault: Expected::MemoryOutOfBounds {
                address: -3,
                size: MEM,
            },
        },
        Case {
            name: "call_ind on 99",
            body: |f| {
                let t = f.reg();
                f.iconst(t, 99);
                f.call_ind(t);
                f.halt();
            },
            fault: Expected::BadIndirectTarget(99),
        },
        Case {
            name: "ret from the entry function",
            body: |f| {
                f.nop();
                f.ret();
            },
            fault: Expected::ReturnFromEntry(0),
        },
    ]
}

/// The case body as the only thread.
fn single(case: &Case) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    f.switch_to(e);
    (case.body)(&mut f);
    let main = f.finish();
    pb.finish(main, MEM)
}

/// A main thread that halts at once, with the case body as thread 1.
fn as_thread_1(case: &Case) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    f.switch_to(e);
    f.halt();
    let main = f.finish();
    let mut g = pb.function("stage1");
    let e = g.entry_block();
    g.switch_to(e);
    (case.body)(&mut g);
    let stage1 = g.finish();
    let mut p = pb.finish(main, MEM);
    p.add_thread(stage1);
    p
}

fn on_thread(fault: Expected, thread: usize) -> Expected {
    match fault {
        Expected::ReturnFromEntry(_) => Expected::ReturnFromEntry(thread),
        other => other,
    }
}

fn interp_fault(p: &Program) -> Expected {
    match Interpreter::new(p).run().unwrap_err() {
        InterpError::MemoryOutOfBounds { address, size } => {
            Expected::MemoryOutOfBounds { address, size }
        }
        InterpError::BadIndirectTarget(v) => Expected::BadIndirectTarget(v),
        InterpError::ReturnFromEntry => Expected::ReturnFromEntry(0),
        other => panic!("interpreter: unexpected error {other:?}"),
    }
}

fn executor_fault(p: &Program) -> Expected {
    match Executor::new(p).run().unwrap_err() {
        ExecError::MemoryOutOfBounds { address, size } => {
            Expected::MemoryOutOfBounds { address, size }
        }
        ExecError::BadIndirectTarget(v) => Expected::BadIndirectTarget(v),
        ExecError::ReturnFromEntry(t) => Expected::ReturnFromEntry(t),
        other => panic!("executor: unexpected error {other:?}"),
    }
}

fn machine_fault(p: &Program) -> Expected {
    match Machine::new(p, MachineConfig::full_width())
        .run()
        .unwrap_err()
    {
        SimError::MemoryOutOfBounds { address, size } => {
            Expected::MemoryOutOfBounds { address, size }
        }
        SimError::BadIndirectTarget(v) => Expected::BadIndirectTarget(v),
        SimError::ReturnFromEntry(t) => Expected::ReturnFromEntry(t),
        other => panic!("machine: unexpected error {other:?}"),
    }
}

fn runtime_fault(p: &Program) -> Expected {
    let config = RtConfig::default().deadline(Duration::from_secs(30));
    match Runtime::new(p).with_config(config).run().unwrap_err() {
        RtError::MemoryOutOfBounds { address, size } => {
            Expected::MemoryOutOfBounds { address, size }
        }
        RtError::BadIndirectTarget(v) => Expected::BadIndirectTarget(v),
        RtError::ReturnFromEntry(t) => Expected::ReturnFromEntry(t),
        other => panic!("runtime: unexpected error {other:?}"),
    }
}

#[test]
fn every_engine_reports_the_same_fault() {
    for case in cases() {
        let p = single(&case);
        let want = case.fault;
        assert_eq!(interp_fault(&p), want, "interpreter: {}", case.name);
        assert_eq!(executor_fault(&p), want, "executor: {}", case.name);
        assert_eq!(machine_fault(&p), want, "machine: {}", case.name);
        assert_eq!(runtime_fault(&p), want, "runtime: {}", case.name);
    }
}

#[test]
fn multi_context_engines_name_the_faulting_thread() {
    for case in cases() {
        let p = as_thread_1(&case);
        let want = on_thread(case.fault, 1);
        assert_eq!(executor_fault(&p), want, "executor: {}", case.name);
        assert_eq!(machine_fault(&p), want, "machine: {}", case.name);
        assert_eq!(runtime_fault(&p), want, "runtime: {}", case.name);
    }
}

#[test]
fn interpreter_rejects_queue_instructions_at_their_instruction() {
    type Emit = fn(&mut FunctionBuilder<'_>) -> dswp_repro::ir::InstrId;
    let queue_ops: [(&str, Emit); 1] = [("produce", |f| f.produce(QueueId(0), 5))];
    for (name, emit) in queue_ops {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        f.nop();
        let instr = emit(&mut f);
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, MEM);
        p.num_queues = 1;
        assert_eq!(
            Interpreter::new(&p).run().unwrap_err(),
            InterpError::QueueOpInSingleThread(instr),
            "{name}"
        );
    }
}

/// A main thread that stores 7 and halts, followed by a block nothing
/// branches to, holding `dead`. The unreachable block makes the program
/// fail verification but never runs.
fn with_dead_block(dead: fn(&mut FunctionBuilder<'_>)) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    let unreachable = f.block("unreachable");
    f.switch_to(e);
    let (a, v) = (f.reg(), f.reg());
    f.iconst(a, 1);
    f.iconst(v, 7);
    f.store(v, a, 0);
    f.halt();
    f.switch_to(unreachable);
    dead(&mut f);
    let main = f.finish();
    pb.finish(main, MEM)
}

/// What one run of every engine observed: memory and entry registers of
/// each, interpreter, executor and native steps, and Machine cycles.
fn observe(p: &Program) -> (Vec<Vec<i64>>, u64, Vec<u64>, u64, Vec<u64>) {
    let interp = Interpreter::new(p).run().unwrap();
    let exec = Executor::new(p).run().unwrap();
    let sim = Machine::new(p, MachineConfig::full_width()).run().unwrap();
    let config = RtConfig::default().deadline(Duration::from_secs(30));
    let native = Runtime::new(p).with_config(config).run().unwrap();
    let images = vec![
        interp.memory,
        interp.entry_regs,
        exec.memory,
        exec.entry_regs,
        sim.memory,
        sim.entry_regs,
        native.memory,
        native.entry_regs,
    ];
    let native_steps = native.stages.iter().map(|s| s.steps).collect();
    (images, interp.steps, exec.steps, sim.cycles, native_steps)
}

#[test]
fn never_executed_dangling_targets_run_like_dead_code() {
    type Dead = fn(&mut FunctionBuilder<'_>);
    let dead: [(&str, Dead); 3] = [
        ("jump to a missing block", |f| {
            f.jump(BlockId(99));
        }),
        ("branch to a missing block", |f| {
            f.br(Reg(0), BlockId(98), BlockId(99));
        }),
        ("call of a missing function", |f| {
            f.call(FuncId(99));
            f.halt();
        }),
    ];
    // The same dead block with only a `halt`: a verified program.
    let clean = observe(&with_dead_block(|f| {
        f.halt();
    }));
    assert_eq!(clean.0[0], [0, 7, 0, 0]);
    for (name, body) in dead {
        let p = with_dead_block(body);
        assert!(verify_program(&p).is_err(), "{name}: must be unverified");
        assert_eq!(observe(&p), clean, "{name}");
    }
}

#[test]
fn executed_call_of_a_missing_function_fails_closed() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    f.switch_to(e);
    f.call(FuncId(99));
    f.halt();
    let main = f.finish();
    let p = pb.finish(main, MEM);
    // No engine may run past the call: the three in-process engines panic,
    // and the native runtime reports the panic of the stage.
    let panics = |run: &dyn Fn()| std::panic::catch_unwind(AssertUnwindSafe(run)).is_err();
    assert!(panics(&|| drop(Interpreter::new(&p).run())), "interpreter");
    assert!(panics(&|| drop(Executor::new(&p).run())), "executor");
    assert!(
        panics(&|| drop(Machine::new(&p, MachineConfig::full_width()).run())),
        "machine"
    );
    let config = RtConfig::default().deadline(Duration::from_secs(30));
    assert!(matches!(
        Runtime::new(&p).with_config(config).run(),
        Err(RtError::StagePanic { stage: 0, .. })
    ));
}
