//! The instruction-step function shared by the four execution engines.
//!
//! The single-context [`Interpreter`](crate::interp::Interpreter), the
//! round-robin functional executor and the cycle-level timing model
//! (`dswp-sim`), and the native multi-threaded runtime (`dswp-rt`) all
//! execute the IR through [`step`], the one place that gives each
//! instruction its meaning. An engine supplies only what differs between
//! them through an [`Env`]: memory access and the queue semantics of
//! `produce` and `consume` (unbounded, timed, bounded and blocking, or
//! absent altogether). What a step did comes back as a [`Flow`], so each
//! engine keeps its own bookkeeping (profiles, step counts, redirect
//! bubbles, scoreboards), and a trapped instruction comes back as a
//! [`Fault`], which each engine maps into its own error type. The exact
//! arithmetic lives next door in `interp`: [`eval_unary`], [`eval_binary`]
//! and [`eval_cmp`].
//!
//! [`step`] does not walk the [`Program`]: each engine lowers it once per
//! run into [`Code`], one flat array of decoded [`Instr`]s per function in
//! block order, with branch targets resolved to program counters. A
//! [`Frame`]'s `pc` indexes that array directly.

use crate::function::Function;
use crate::interp::{eval_binary, eval_cmp, eval_unary};
use crate::op::{BinOp, CmpOp, Op, Operand, UnOp};
use crate::program::Program;
use crate::types::{BlockId, FuncId, InstrId, QueueId, Reg};

/// The pc of a branch target or entry block that does not exist, and the
/// [`InstrId`] index of a pc that holds no instruction. Fetching at it
/// panics, just as walking the IR into a missing block does.
const NONE: u32 = u32::MAX;

/// A decoded instruction: an [`Op`] without its memory-analysis facts,
/// with `Br`/`Jump` targets resolved to the first pc of the target block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // the fields mirror those of `Op`
pub enum Instr {
    Const {
        dst: Reg,
        value: i64,
    },
    Unary {
        dst: Reg,
        op: UnOp,
        src: Operand,
    },
    Binary {
        dst: Reg,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    Cmp {
        dst: Reg,
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
    },
    Load {
        dst: Reg,
        addr: Reg,
        offset: i64,
    },
    Store {
        src: Operand,
        addr: Reg,
        offset: i64,
    },
    Call {
        callee: FuncId,
    },
    CallInd {
        target: Reg,
    },
    /// To pc `then_` if `cond != 0`, else to pc `else_`.
    Br {
        cond: Reg,
        then_: u32,
        else_: u32,
    },
    /// To pc `target`.
    Jump {
        target: u32,
    },
    Ret,
    Halt,
    Produce {
        queue: QueueId,
        src: Operand,
    },
    Consume {
        queue: QueueId,
        dst: Reg,
    },
    ProduceToken {
        queue: QueueId,
    },
    ConsumeToken {
        queue: QueueId,
    },
    Nop,
    /// Control ran past the end of a block that has no terminator (only
    /// in an unverified program); executing it panics.
    Unterminated,
}

// The decoded array is the hottest data of every engine; a new `Op` field
// must not silently widen it.
const _: () = assert!(std::mem::size_of::<Instr>() <= 40);

impl Instr {
    /// Decodes `op`, resolving block targets through `block_pc`.
    fn decode(op: &Op, block_pc: impl Fn(BlockId) -> u32) -> Instr {
        match *op {
            Op::Const { dst, value } => Instr::Const { dst, value },
            Op::Unary { dst, op, src } => Instr::Unary { dst, op, src },
            Op::Binary { dst, op, lhs, rhs } => Instr::Binary { dst, op, lhs, rhs },
            Op::Cmp { dst, op, lhs, rhs } => Instr::Cmp { dst, op, lhs, rhs },
            Op::Load {
                dst, addr, offset, ..
            } => Instr::Load { dst, addr, offset },
            Op::Store {
                src, addr, offset, ..
            } => Instr::Store { src, addr, offset },
            Op::Call { callee } => Instr::Call { callee },
            Op::CallInd { target } => Instr::CallInd { target },
            Op::Br { cond, then_, else_ } => Instr::Br {
                cond,
                then_: block_pc(then_),
                else_: block_pc(else_),
            },
            Op::Jump { target } => Instr::Jump {
                target: block_pc(target),
            },
            Op::Ret => Instr::Ret,
            Op::Halt => Instr::Halt,
            Op::Produce { queue, src } => Instr::Produce { queue, src },
            Op::Consume { queue, dst } => Instr::Consume { queue, dst },
            Op::ProduceToken { queue } => Instr::ProduceToken { queue },
            Op::ConsumeToken { queue } => Instr::ConsumeToken { queue },
            Op::Nop => Instr::Nop,
        }
    }
}

/// One function's decoded form.
#[derive(Debug)]
struct FuncCode {
    /// The hot array: every instruction, blocks laid out in id order.
    instrs: Vec<Instr>,
    /// Cold side tables, indexed by pc.
    ids: Vec<InstrId>,
    blocks: Vec<BlockId>,
    entry: u32,
    num_regs: u32,
}

/// A [`Program`] lowered for execution: per function, a flat pc-indexed
/// array of decoded [`Instr`]s, plus pc→[`InstrId`] and pc→[`BlockId`]
/// tables for the engines that report in terms of the IR.
///
/// Decoding never fails: a branch to a missing block or a missing entry
/// block resolves to a pc outside the array, and a block without a
/// terminator ends in [`Instr::Unterminated`], so an unverified program
/// panics only where it would panic walking the IR, when that code runs.
#[derive(Debug)]
pub struct Code {
    funcs: Vec<FuncCode>,
}

impl Code {
    /// Decodes every function of `program`.
    pub fn new(program: &Program) -> Code {
        let funcs = program
            .functions()
            .iter()
            .map(|f| {
                let mut starts = Vec::with_capacity(f.num_blocks());
                let mut pc = 0usize;
                for b in f.block_ids() {
                    starts.push(u32::try_from(pc).expect("function fits in u32 pcs"));
                    let instrs = f.block(b).instrs();
                    pc += instrs.len() + usize::from(!terminated(f, instrs));
                }
                let block_pc = |b: BlockId| starts.get(b.index()).copied().unwrap_or(NONE);
                let mut code = FuncCode {
                    instrs: Vec::with_capacity(pc),
                    ids: Vec::with_capacity(pc),
                    blocks: Vec::with_capacity(pc),
                    entry: block_pc(f.entry()),
                    num_regs: f.num_regs(),
                };
                for b in f.block_ids() {
                    let instrs = f.block(b).instrs();
                    for &i in instrs {
                        code.instrs.push(Instr::decode(f.op(i), block_pc));
                        code.ids.push(i);
                        code.blocks.push(b);
                    }
                    if !terminated(f, instrs) {
                        code.instrs.push(Instr::Unterminated);
                        code.ids.push(InstrId(NONE));
                        code.blocks.push(b);
                    }
                }
                code
            })
            .collect();
        Code { funcs }
    }

    /// A fresh frame for `func`: registers zeroed, pc at the entry block.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn new_frame(&self, func: FuncId) -> Frame {
        let f = &self.funcs[func.index()];
        Frame {
            func,
            regs: vec![0; f.num_regs as usize],
            pc: f.entry,
        }
    }

    /// The decoded instructions of `func`, indexed by pc.
    pub fn instrs(&self, func: FuncId) -> &[Instr] {
        &self.funcs[func.index()].instrs
    }

    /// The IR instruction at `pc` of `func` (`InstrId(u32::MAX)` for an
    /// [`Instr::Unterminated`] slot).
    ///
    /// # Panics
    ///
    /// Panics if `func` or `pc` is out of range.
    pub fn instr_id(&self, func: FuncId, pc: u32) -> InstrId {
        self.funcs[func.index()].ids[pc as usize]
    }

    /// The block holding `pc` of `func`.
    ///
    /// # Panics
    ///
    /// Panics if `func` or `pc` is out of range.
    pub fn block(&self, func: FuncId, pc: u32) -> BlockId {
        self.funcs[func.index()].blocks[pc as usize]
    }
}

/// Whether a block's instructions end in a terminator.
fn terminated(f: &Function, instrs: &[InstrId]) -> bool {
    instrs.last().is_some_and(|&i| f.op(i).is_terminator())
}

/// One call-stack entry of an executing hardware context: the function, its
/// register file, and the program counter into the function's [`Code`].
#[derive(Clone, Debug)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// The function's register file (all registers start at zero).
    pub regs: Vec<i64>,
    /// Index of the next instruction in [`Code::instrs`].
    pub pc: u32,
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
/// Panics if `stack` is empty, or if the frame's pc or a callee lies
/// outside `code`.
// `always`: the native worker loop is instantiated twice (with and without
// the fault hook), and a plain hint leaves `step` out of line there.
#[inline(always)]
pub fn step<E: Env>(code: &Code, stack: &mut Vec<Frame>, env: &mut E) -> Result<Flow, Fault> {
    let frame = stack.last_mut().expect("live context has a frame");
    let regs = &mut frame.regs;
    match code.funcs[frame.func.index()].instrs[frame.pc as usize] {
        Instr::Const { dst, value } => regs[dst.index()] = value,
        Instr::Unary { dst, op, src } => {
            regs[dst.index()] = eval_unary(op, read_operand(src, regs))
        }
        Instr::Binary { dst, op, lhs, rhs } => {
            regs[dst.index()] = eval_binary(op, read_operand(lhs, regs), read_operand(rhs, regs))
        }
        Instr::Cmp { dst, op, lhs, rhs } => {
            regs[dst.index()] = eval_cmp(op, read_operand(lhs, regs), read_operand(rhs, regs))
        }
        Instr::Load { dst, addr, offset } => {
            let address = regs[addr.index()].wrapping_add(offset);
            let Some(v) = env.load(address) else {
                return Err(Fault::MemoryOutOfBounds {
                    address,
                    size: env.memory_size(),
                });
            };
            regs[dst.index()] = v;
        }
        Instr::Consume { queue, dst } => match env.consume(queue) {
            Some(v) => regs[dst.index()] = v,
            None => return Ok(Flow::Stalled),
        },
        Instr::Store { src, addr, offset } => {
            let address = regs[addr.index()].wrapping_add(offset);
            if !env.store(address, read_operand(src, regs)) {
                return Err(Fault::MemoryOutOfBounds {
                    address,
                    size: env.memory_size(),
                });
            }
        }
        Instr::Produce { queue, src } => {
            if !env.produce(queue, read_operand(src, regs)) {
                return Ok(Flow::Stalled);
            }
        }
        Instr::ProduceToken { queue } => {
            if !env.produce(queue, 0) {
                return Ok(Flow::Stalled);
            }
        }
        Instr::ConsumeToken { queue } => {
            if env.consume(queue).is_none() {
                return Ok(Flow::Stalled);
            }
        }
        Instr::Nop => {}
        Instr::Br { cond, then_, else_ } => {
            frame.pc = if regs[cond.index()] != 0 {
                then_
            } else {
                else_
            };
            return Ok(Flow::Jumped);
        }
        Instr::Jump { target } => {
            frame.pc = target;
            return Ok(Flow::Jumped);
        }
        Instr::Call { callee } => {
            frame.pc += 1;
            stack.push(code.new_frame(callee));
            return Ok(Flow::Called);
        }
        Instr::CallInd { target } => {
            let v = regs[target.index()];
            if v < 0 {
                return Ok(Flow::Halted);
            }
            let callee = usize::try_from(v)
                .ok()
                .filter(|&i| i < code.funcs.len())
                .map(FuncId::from_index)
                .ok_or(Fault::BadIndirectTarget(v))?;
            frame.pc += 1;
            stack.push(code.new_frame(callee));
            return Ok(Flow::Called);
        }
        Instr::Ret => {
            if stack.len() == 1 {
                return Err(Fault::ReturnFromEntry);
            }
            stack.pop();
            return Ok(Flow::Returned);
        }
        Instr::Halt => return Ok(Flow::Halted),
        Instr::Unterminated => panic!(
            "control ran past the end of {} in {}",
            code.block(frame.func, frame.pc),
            frame.func
        ),
    }
    frame.pc += 1;
    Ok(Flow::Next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

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
        let frame = Code::new(&p).new_frame(main);
        assert_eq!(frame.func, main);
        assert_eq!(frame.regs, vec![0]);
        assert_eq!(frame.pc, 0);
    }

    /// A three-word entry block, a two-word header and a two-word body:
    /// the blocks start at pcs 0, 3, 5 and 7.
    fn counted_loop() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let exit = f.block("exit");
        let (i, done) = (f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.nop();
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, 3);
        f.br(done, exit, body);
        f.switch_to(body);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(exit);
        f.halt();
        let main = f.finish();
        pb.finish(main, 0)
    }

    #[test]
    fn branch_targets_resolve_to_the_first_pc_of_their_block() {
        let p = counted_loop();
        let main = p.main();
        let code = Code::new(&p);
        let instrs = code.instrs(main);
        let blocks: Vec<u32> = (0..8).map(|pc| code.block(main, pc).0).collect();
        assert_eq!(blocks, [0, 0, 0, 1, 1, 2, 2, 3]);
        assert_eq!(instrs[2], Instr::Jump { target: 3 });
        assert!(matches!(
            instrs[4],
            Instr::Br {
                then_: 7,
                else_: 5,
                ..
            }
        ));
        assert_eq!(instrs[6], Instr::Jump { target: 3 });
        // Stepping follows the resolved targets: 3 trips of header + body.
        let mut stack = vec![code.new_frame(main)];
        let mut env = Slot::default();
        let mut steps = 0;
        while step(&code, &mut stack, &mut env) != Ok(Flow::Halted) {
            steps += 1;
        }
        assert_eq!(
            (steps, stack[0].pc, stack[0].regs[0]),
            (3 + 4 * 3 + 2, 7, 3)
        );
    }

    #[test]
    fn entry_block_other_than_block_zero_sets_the_first_pc() {
        let mut f = Function::new("main");
        let (a, b) = (f.add_block("a"), f.add_block("b"));
        let r = f.new_reg();
        f.append_op(a, Op::Const { dst: r, value: 1 });
        f.append_op(a, Op::Halt);
        f.append_op(b, Op::Const { dst: r, value: 2 });
        f.append_op(b, Op::Jump { target: a });
        f.set_entry(b);
        let p = Program::new(vec![f], FuncId(0), Vec::new());
        let code = Code::new(&p);
        let frame = code.new_frame(FuncId(0));
        assert_eq!(frame.pc, 2);
        assert_eq!(code.block(FuncId(0), frame.pc), b);
        let run = crate::interp::Interpreter::new(&p).run().unwrap();
        assert_eq!((run.steps, run.entry_regs[0]), (4, 1));
        assert_eq!(run.profile.weight(FuncId(0), b), 1);
        assert_eq!(run.profile.weight(FuncId(0), a), 1);
    }

    #[test]
    fn malformed_blocks_decode_without_panicking() {
        // An empty block, a block without a terminator and a branch to a
        // block that does not exist: none of them may stop decoding.
        let mut f = Function::new("main");
        let (a, empty, open) = (f.add_block("a"), f.add_block("empty"), f.add_block("open"));
        f.append_op(a, Op::Halt);
        f.append_op(open, Op::Nop);
        f.append_op(open, Op::Jump { target: BlockId(9) });
        f.append_op(a, Op::Nop); // after the halt: `a` is unterminated too
        let p = Program::new(vec![f], FuncId(0), Vec::new());
        let code = Code::new(&p);
        let main = FuncId(0);
        assert_eq!(
            code.instrs(main),
            [
                Instr::Halt,
                Instr::Nop,
                Instr::Unterminated,
                Instr::Unterminated,
                Instr::Nop,
                Instr::Jump { target: NONE },
            ]
        );
        assert_eq!(code.block(main, 3), empty);
        assert_eq!(code.instr_id(main, 3), InstrId(NONE));
        // The program halts before reaching any of it.
        let run = crate::interp::Interpreter::new(&p).run().unwrap();
        assert_eq!(run.steps, 1);
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
    #[derive(Default)]
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

        let mut env = Slot::default();
        let code = Code::new(&p);
        let mut stack = vec![code.new_frame(main)];
        let mut run = |env: &mut Slot| step(&code, &mut stack, env).map(|flow| (flow, stack[0].pc));
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
