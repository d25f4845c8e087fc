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

use std::time::Duration;

use dswp_repro::ir::interp::{InterpError, Interpreter};
use dswp_repro::ir::{FunctionBuilder, Program, ProgramBuilder, QueueId};
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
