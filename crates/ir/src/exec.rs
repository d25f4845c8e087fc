//! The instruction-step function shared by the four execution engines.
//!
//! The single-context [`Interpreter`](crate::interp::Interpreter), the
//! round-robin functional executor and the cycle-level timing model
//! (`dswp-sim`), and the native multi-threaded runtime (`dswp-rt`) all
//! execute the IR through [`step`], the one place that gives each [`Op`]
//! its meaning. An engine supplies only what differs between them through
//! an [`Env`]: memory access and the queue semantics of `produce` and
//! `consume` (unbounded, timed, bounded and blocking, or absent
//! altogether). What a step did comes back as a [`Flow`], so each engine
//! keeps its own bookkeeping (profiles, step counts, redirect bubbles,
//! scoreboards), and a trapped instruction comes back as a [`Fault`],
//! which each engine maps into its own error type. The exact arithmetic
//! lives next door in `interp`: [`eval_unary`], [`eval_binary`] and
//! [`eval_cmp`].

use crate::function::Function;
use crate::interp::{eval_binary, eval_cmp, eval_unary};
use crate::op::{Op, Operand};
use crate::program::Program;
use crate::types::{BlockId, FuncId, QueueId};

/// One call-stack entry of an executing hardware context: the function, its
/// register file, and the program counter (block + index within block).
#[derive(Clone, Debug)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// The function's register file (all registers start at zero).
    pub regs: Vec<i64>,
    /// Current basic block.
    pub block: BlockId,
    /// Index of the next instruction within `block`.
    pub index: usize,
}

/// Creates a fresh frame for `f`: registers zeroed, control at the entry
/// block.
pub fn new_frame(f: &Function, id: FuncId) -> Frame {
    Frame {
        func: id,
        regs: vec![0; f.num_regs() as usize],
        block: f.entry(),
        index: 0,
    }
}

/// Reads an operand against a register file.
#[inline]
pub fn read_operand(o: Operand, regs: &[i64]) -> i64 {
    match o {
        Operand::Reg(r) => regs[r.index()],
        Operand::Imm(v) => v,
    }
}

/// A bounds-checked memory read. Returns `None` when `addr` is negative or
/// past the end of memory; engines map that to their own fault type.
#[inline]
pub fn checked_read(memory: &[i64], addr: i64) -> Option<i64> {
    usize::try_from(addr)
        .ok()
        .and_then(|a| memory.get(a).copied())
}

/// A bounds-checked memory write. Returns `false` when `addr` is out of
/// bounds.
#[inline]
pub fn checked_write(memory: &mut [i64], addr: i64, value: i64) -> bool {
    match usize::try_from(addr).ok().and_then(|a| memory.get_mut(a)) {
        Some(slot) => {
            *slot = value;
            true
        }
        None => false,
    }
}

/// What differs between engines when an instruction executes: memory and
/// the synchronization-array queues.
///
/// A queue method that returns `false`/`None` reports an operation that did
/// not complete (an empty or full queue, or no queues at all); [`step`]
/// then returns [`Flow::Stalled`] and leaves the frame where it was, so the
/// same instruction is retried on the next step. Token instructions reuse
/// [`produce`](Env::produce) with the value 0 and [`consume`](Env::consume)
/// with the value discarded.
pub trait Env {
    /// Reads word `addr`, or `None` when it is outside memory.
    fn load(&mut self, addr: i64) -> Option<i64>;
    /// Writes `value` to word `addr`; `false` when it is outside memory.
    fn store(&mut self, addr: i64, value: i64) -> bool;
    /// Memory size in words, reported in [`Fault::MemoryOutOfBounds`].
    fn memory_size(&self) -> usize;
    /// Sends `value` on `queue`; `false` when the send did not complete.
    fn produce(&mut self, queue: QueueId, value: i64) -> bool;
    /// Receives from `queue`; `None` when nothing could be received.
    fn consume(&mut self, queue: QueueId) -> Option<i64>;
}

/// How control moved in one [`step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// The frame advanced to the next instruction of its block.
    Next,
    /// A branch or jump moved the frame to the start of a block.
    Jumped,
    /// A call advanced the caller and pushed a fresh frame for the callee.
    Called,
    /// `ret` popped the current frame.
    Returned,
    /// A queue instruction did not complete; nothing changed.
    Stalled,
    /// `halt`, or `call_ind` on a negative value (the master-loop
    /// terminate sentinel): the context is done.
    Halted,
}

/// An instruction that traps, in every engine alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A load or store addressed a word outside memory.
    MemoryOutOfBounds {
        /// The faulting word address.
        address: i64,
        /// The memory size in words.
        size: usize,
    },
    /// An indirect call's target was not a valid function id.
    BadIndirectTarget(i64),
    /// `ret` executed in the context's entry frame.
    ReturnFromEntry,
}

/// Executes the instruction at the top frame of `stack`.
///
/// # Errors
///
/// Returns the [`Fault`] of a trapping instruction; the frame is left at
/// that instruction.
///
/// # Panics
///
/// Panics if `stack` is empty.
// `always`: the native worker loop is instantiated twice (with and without
// the fault hook), and a plain hint leaves `step` out of line there.
#[inline(always)]
pub fn step<E: Env>(program: &Program, stack: &mut Vec<Frame>, env: &mut E) -> Result<Flow, Fault> {
    let frame = stack.last_mut().expect("live context has a frame");
    let func = program.function(frame.func);
    let op = func.op(func.block(frame.block).instrs()[frame.index]);
    let regs = &mut frame.regs;
    match *op {
        Op::Const { dst, value } => regs[dst.index()] = value,
        Op::Unary { dst, op, src } => regs[dst.index()] = eval_unary(op, read_operand(src, regs)),
        Op::Binary { dst, op, lhs, rhs } => {
            regs[dst.index()] = eval_binary(op, read_operand(lhs, regs), read_operand(rhs, regs))
        }
        Op::Cmp { dst, op, lhs, rhs } => {
            regs[dst.index()] = eval_cmp(op, read_operand(lhs, regs), read_operand(rhs, regs))
        }
        Op::Load {
            dst, addr, offset, ..
        } => {
            let address = regs[addr.index()].wrapping_add(offset);
            let Some(v) = env.load(address) else {
                return Err(Fault::MemoryOutOfBounds {
                    address,
                    size: env.memory_size(),
                });
            };
            regs[dst.index()] = v;
        }
        Op::Consume { queue, dst } => match env.consume(queue) {
            Some(v) => regs[dst.index()] = v,
            None => return Ok(Flow::Stalled),
        },
        Op::Store {
            src, addr, offset, ..
        } => {
            let address = regs[addr.index()].wrapping_add(offset);
            if !env.store(address, read_operand(src, regs)) {
                return Err(Fault::MemoryOutOfBounds {
                    address,
                    size: env.memory_size(),
                });
            }
        }
        Op::Produce { queue, src } => {
            if !env.produce(queue, read_operand(src, regs)) {
                return Ok(Flow::Stalled);
            }
        }
        Op::ProduceToken { queue } => {
            if !env.produce(queue, 0) {
                return Ok(Flow::Stalled);
            }
        }
        Op::ConsumeToken { queue } => {
            if env.consume(queue).is_none() {
                return Ok(Flow::Stalled);
            }
        }
        Op::Nop => {}
        Op::Br { cond, then_, else_ } => {
            frame.block = if regs[cond.index()] != 0 {
                then_
            } else {
                else_
            };
            frame.index = 0;
            return Ok(Flow::Jumped);
        }
        Op::Jump { target } => {
            frame.block = target;
            frame.index = 0;
            return Ok(Flow::Jumped);
        }
        Op::Call { callee } => {
            frame.index += 1;
            stack.push(new_frame(program.function(callee), callee));
            return Ok(Flow::Called);
        }
        Op::CallInd { target } => {
            let v = regs[target.index()];
            if v < 0 {
                return Ok(Flow::Halted);
            }
            let callee = usize::try_from(v)
                .ok()
                .filter(|&i| i < program.functions().len())
                .map(FuncId::from_index)
                .ok_or(Fault::BadIndirectTarget(v))?;
            frame.index += 1;
            stack.push(new_frame(program.function(callee), callee));
            return Ok(Flow::Called);
        }
        Op::Ret => {
            if stack.len() == 1 {
                return Err(Fault::ReturnFromEntry);
            }
            stack.pop();
            return Ok(Flow::Returned);
        }
        Op::Halt => return Ok(Flow::Halted),
    }
    frame.index += 1;
    Ok(Flow::Next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::Reg;

    #[test]
    fn frames_start_zeroed_at_entry() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let r = f.reg();
        f.switch_to(e);
        f.iconst(r, 1);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 0);
        let frame = new_frame(p.function(main), main);
        assert_eq!(frame.regs, vec![0]);
        assert_eq!(frame.block, p.function(main).entry());
        assert_eq!(frame.index, 0);
    }

    #[test]
    fn operand_reads() {
        let regs = vec![7, 9];
        assert_eq!(read_operand(Operand::Reg(Reg(1)), &regs), 9);
        assert_eq!(read_operand(Operand::Imm(-3), &regs), -3);
    }

    #[test]
    fn checked_memory_access() {
        let mut mem = vec![1, 2, 3];
        assert_eq!(checked_read(&mem, 2), Some(3));
        assert_eq!(checked_read(&mem, 3), None);
        assert_eq!(checked_read(&mem, -1), None);
        assert!(checked_write(&mut mem, 0, 42));
        assert_eq!(mem[0], 42);
        assert!(!checked_write(&mut mem, 99, 0));
    }

    /// One queue slot that is either full or empty; every send is logged.
    struct Slot {
        memory: Vec<i64>,
        value: Option<i64>,
        sent: Vec<i64>,
    }

    impl Env for Slot {
        fn load(&mut self, addr: i64) -> Option<i64> {
            checked_read(&self.memory, addr)
        }
        fn store(&mut self, addr: i64, value: i64) -> bool {
            checked_write(&mut self.memory, addr, value)
        }
        fn memory_size(&self) -> usize {
            self.memory.len()
        }
        fn produce(&mut self, _: QueueId, value: i64) -> bool {
            if self.value.is_some() {
                return false;
            }
            self.value = Some(value);
            self.sent.push(value);
            true
        }
        fn consume(&mut self, _: QueueId) -> Option<i64> {
            self.value.take()
        }
    }

    #[test]
    fn stalled_queue_ops_leave_the_frame_in_place() {
        let q = QueueId(0);
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let r = f.reg();
        f.switch_to(e);
        f.produce(q, 5);
        f.produce_token(q);
        f.consume(r, q);
        f.consume_token(q);
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, 0);
        p.num_queues = 1;

        let mut env = Slot {
            memory: Vec::new(),
            value: None,
            sent: Vec::new(),
        };
        let mut stack = vec![new_frame(p.function(main), main)];
        let mut run = |env: &mut Slot| step(&p, &mut stack, env).map(|flow| (flow, stack[0].index));
        assert_eq!(run(&mut env), Ok((Flow::Next, 1)));
        // The slot is full: the token send stalls without moving the frame.
        assert_eq!(run(&mut env), Ok((Flow::Stalled, 1)));
        env.value = None;
        assert_eq!(run(&mut env), Ok((Flow::Next, 2)));
        assert_eq!(env.sent, vec![5, 0]);
        assert_eq!(run(&mut env), Ok((Flow::Next, 3)));
        // The slot is empty: the token receive stalls.
        assert_eq!(run(&mut env), Ok((Flow::Stalled, 3)));
        env.value = Some(9);
        assert_eq!(run(&mut env), Ok((Flow::Next, 4)));
        assert_eq!(run(&mut env), Ok((Flow::Halted, 4)));
        // `r` received the token's 0.
        assert_eq!(stack[0].regs, vec![0]);
    }
}
