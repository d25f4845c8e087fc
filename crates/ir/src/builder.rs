//! Fluent builders for constructing IR programs.
//!
//! [`ProgramBuilder`] collects functions; [`FunctionBuilder`] provides an
//! emit-into-current-block API with one method per opcode. Every emitter
//! returns the new [`InstrId`] so tests and analyses can refer to specific
//! instructions.

use crate::function::Function;
use crate::op::{BinOp, CmpOp, MemInfo, Op, Operand, UnOp};
use crate::program::Program;
use crate::types::{BlockId, FuncId, InstrId, QueueId, Reg, RegionId};

/// Builds a [`Program`] from a set of functions.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    functions: Vec<Function>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts building a new function. The function's entry block is created
    /// automatically; retrieve it with [`FunctionBuilder::entry_block`].
    pub fn function(&mut self, name: impl Into<String>) -> FunctionBuilder<'_> {
        let mut func = Function::from_parts(name.into(), BlockId(0), Vec::new(), Vec::new(), 0);
        let entry = func.add_block("entry");
        func.set_entry(entry);
        FunctionBuilder {
            pb: self,
            func: Some(func),
            current: None,
        }
    }

    fn register(&mut self, f: Function) -> FuncId {
        let id = FuncId::from_index(self.functions.len());
        self.functions.push(f);
        id
    }

    /// Finishes the program with a zero-initialized memory of `mem_words`
    /// words.
    pub fn finish(self, main: FuncId, mem_words: usize) -> Program {
        Program::new(self.functions, main, vec![0; mem_words])
    }

    /// Finishes the program with an explicit initial memory image.
    pub fn finish_with_memory(self, main: FuncId, memory: Vec<i64>) -> Program {
        Program::new(self.functions, main, memory)
    }
}

/// Builds one [`Function`], emitting instructions into a *current block*.
///
/// # Panics
///
/// Emitter methods panic if called before [`switch_to`](Self::switch_to)
/// selects a current block.
#[derive(Debug)]
pub struct FunctionBuilder<'p> {
    pb: &'p mut ProgramBuilder,
    func: Option<Function>,
    current: Option<BlockId>,
}

impl FunctionBuilder<'_> {
    fn f(&mut self) -> &mut Function {
        self.func.as_mut().expect("function already finished")
    }

    /// The entry block created when this builder was opened.
    pub fn entry_block(&self) -> BlockId {
        self.func
            .as_ref()
            .expect("function already finished")
            .entry()
    }

    /// Creates a new (empty) basic block.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        self.f().add_block(name)
    }

    /// Allocates a fresh virtual register.
    pub fn reg(&mut self) -> Reg {
        self.f().new_reg()
    }

    /// Selects the block subsequent emitters append to.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = Some(block);
    }

    /// Emits a raw opcode into the current block.
    pub fn emit(&mut self, op: Op) -> InstrId {
        let cur = self
            .current
            .expect("no current block: call switch_to first");
        self.f().append_op(cur, op)
    }

    // ---- moves and constants ----

    /// `dst = value`.
    pub fn iconst(&mut self, dst: Reg, value: i64) -> InstrId {
        self.emit(Op::Const { dst, value })
    }

    /// `dst = value` as an `f64` bit pattern.
    pub fn fconst(&mut self, dst: Reg, value: f64) -> InstrId {
        self.emit(Op::Const {
            dst,
            value: value.to_bits() as i64,
        })
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) -> InstrId {
        self.emit(Op::Unary {
            dst,
            op: UnOp::Mov,
            src: src.into(),
        })
    }

    /// `dst = op src`.
    pub fn unary(&mut self, dst: Reg, op: UnOp, src: impl Into<Operand>) -> InstrId {
        self.emit(Op::Unary {
            dst,
            op,
            src: src.into(),
        })
    }

    // ---- arithmetic ----

    /// `dst = lhs op rhs`.
    pub fn binary(
        &mut self,
        dst: Reg,
        op: BinOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> InstrId {
        self.emit(Op::Binary {
            dst,
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        })
    }

    /// `dst = (lhs op rhs) ? 1 : 0`.
    pub fn cmp(
        &mut self,
        dst: Reg,
        op: CmpOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> InstrId {
        self.emit(Op::Cmp {
            dst,
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        })
    }

    // ---- memory ----

    /// `dst = memory[addr + offset]` with no memory annotation
    /// (conservatively analyzed).
    pub fn load(&mut self, dst: Reg, addr: Reg, offset: i64) -> InstrId {
        self.load_mem(dst, addr, offset, MemInfo::UNKNOWN)
    }

    /// `dst = memory[addr + offset]`, annotated as accessing `region`.
    pub fn load_region(&mut self, dst: Reg, addr: Reg, offset: i64, region: RegionId) -> InstrId {
        self.load_mem(dst, addr, offset, MemInfo::region(region))
    }

    /// `dst = memory[addr + offset]` with explicit memory-analysis facts.
    pub fn load_mem(&mut self, dst: Reg, addr: Reg, offset: i64, mem: MemInfo) -> InstrId {
        self.emit(Op::Load {
            dst,
            addr,
            offset,
            mem,
        })
    }

    /// `memory[addr + offset] = src` with no memory annotation.
    pub fn store(&mut self, src: impl Into<Operand>, addr: Reg, offset: i64) -> InstrId {
        self.store_mem(src, addr, offset, MemInfo::UNKNOWN)
    }

    /// `memory[addr + offset] = src`, annotated as accessing `region`.
    pub fn store_region(
        &mut self,
        src: impl Into<Operand>,
        addr: Reg,
        offset: i64,
        region: RegionId,
    ) -> InstrId {
        self.store_mem(src, addr, offset, MemInfo::region(region))
    }

    /// `memory[addr + offset] = src` with explicit memory-analysis facts.
    pub fn store_mem(
        &mut self,
        src: impl Into<Operand>,
        addr: Reg,
        offset: i64,
        mem: MemInfo,
    ) -> InstrId {
        self.emit(Op::Store {
            src: src.into(),
            addr,
            offset,
            mem,
        })
    }

    // ---- control ----

    /// Conditional branch on `cond != 0`.
    pub fn br(&mut self, cond: Reg, then_: BlockId, else_: BlockId) -> InstrId {
        self.emit(Op::Br { cond, then_, else_ })
    }

    /// Unconditional jump.
    pub fn jump(&mut self, target: BlockId) -> InstrId {
        self.emit(Op::Jump { target })
    }

    /// Return from the function.
    pub fn ret(&mut self) -> InstrId {
        self.emit(Op::Ret)
    }

    /// Halt the executing context.
    pub fn halt(&mut self) -> InstrId {
        self.emit(Op::Halt)
    }

    /// Direct call.
    pub fn call(&mut self, callee: FuncId) -> InstrId {
        self.emit(Op::Call { callee })
    }

    /// Indirect call through `target`.
    pub fn call_ind(&mut self, target: Reg) -> InstrId {
        self.emit(Op::CallInd { target })
    }

    // ---- queues ----

    /// `produce [queue] = src`.
    pub fn produce(&mut self, queue: QueueId, src: impl Into<Operand>) -> InstrId {
        self.emit(Op::Produce {
            queue,
            src: src.into(),
        })
    }

    /// `consume dst = [queue]`.
    pub fn consume(&mut self, dst: Reg, queue: QueueId) -> InstrId {
        self.emit(Op::Consume { queue, dst })
    }

    /// `produce.token [queue]`.
    pub fn produce_token(&mut self, queue: QueueId) -> InstrId {
        self.emit(Op::ProduceToken { queue })
    }

    /// `consume.token [queue]`.
    pub fn consume_token(&mut self, queue: QueueId) -> InstrId {
        self.emit(Op::ConsumeToken { queue })
    }

    /// Nop.
    pub fn nop(&mut self) -> InstrId {
        self.emit(Op::Nop)
    }

    /// Finishes the function, registering it with the owning
    /// [`ProgramBuilder`] and returning its id.
    pub fn finish(mut self) -> FuncId {
        let f = self.func.take().expect("function already finished");
        self.pb.register(f)
    }

    /// Finishes the function into an already-built [`Program`] instead of
    /// the owning builder (used when extending a program after the fact).
    pub fn finish_into(mut self, program: &mut Program) -> FuncId {
        let f = self.func.take().expect("function already finished");
        program.add_function(f)
    }
}

macro_rules! binop_shorthand {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl FunctionBuilder<'_> {
            $(
                $(#[$doc])*
                pub fn $name(
                    &mut self,
                    dst: Reg,
                    lhs: impl Into<Operand>,
                    rhs: impl Into<Operand>,
                ) -> InstrId {
                    self.binary(dst, BinOp::$op, lhs, rhs)
                }
            )*
        }
    };
}

binop_shorthand! {
    /// `dst = lhs + rhs` (wrapping).
    add => Add,
    /// `dst = lhs - rhs` (wrapping).
    sub => Sub,
    /// `dst = lhs * rhs` (wrapping).
    mul => Mul,
    /// `dst = lhs / rhs` (0 on division by zero).
    div => Div,
    /// `dst = lhs % rhs` (0 on division by zero).
    rem => Rem,
    /// `dst = lhs & rhs`.
    and => And,
    /// `dst = lhs | rhs`.
    or => Or,
    /// `dst = lhs ^ rhs`.
    xor => Xor,
    /// `dst = lhs << rhs` (shift modulo 64).
    shl => Shl,
    /// `dst = lhs >> rhs` (arithmetic, shift modulo 64).
    shr => Shr,
    /// `dst = min(lhs, rhs)` (signed).
    min => Min,
    /// `dst = max(lhs, rhs)` (signed).
    max => Max,
    /// `dst = lhs + rhs` (f64).
    fadd => FAdd,
    /// `dst = lhs - rhs` (f64).
    fsub => FSub,
    /// `dst = lhs * rhs` (f64).
    fmul => FMul,
    /// `dst = lhs / rhs` (f64).
    fdiv => FDiv,
}

macro_rules! cmp_shorthand {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl FunctionBuilder<'_> {
            $(
                $(#[$doc])*
                pub fn $name(
                    &mut self,
                    dst: Reg,
                    lhs: impl Into<Operand>,
                    rhs: impl Into<Operand>,
                ) -> InstrId {
                    self.cmp(dst, CmpOp::$op, lhs, rhs)
                }
            )*
        }
    };
}

cmp_shorthand! {
    /// `dst = (lhs == rhs)`.
    cmp_eq => Eq,
    /// `dst = (lhs != rhs)`.
    cmp_ne => Ne,
    /// `dst = (lhs < rhs)` signed.
    cmp_lt => Lt,
    /// `dst = (lhs <= rhs)` signed.
    cmp_le => Le,
    /// `dst = (lhs > rhs)` signed.
    cmp_gt => Gt,
    /// `dst = (lhs >= rhs)` signed.
    cmp_ge => Ge,
    /// `dst = (lhs < rhs)` on f64 bit patterns.
    cmp_flt => FLt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_two_block_function() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let x = f.reg();
        let exit = f.block("exit");
        f.switch_to(e);
        f.iconst(x, 3);
        f.jump(exit);
        f.switch_to(exit);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 4);
        assert_eq!(p.function(main).num_blocks(), 2);
        assert_eq!(p.function(main).num_instrs(), 3);
        assert_eq!(p.initial_memory.len(), 4);
    }

    #[test]
    #[should_panic(expected = "no current block")]
    fn emitting_without_block_panics() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("bad");
        let r = f.reg();
        f.iconst(r, 0);
    }

    #[test]
    fn operand_conversions() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        let (a, b) = (f.reg(), f.reg());
        f.iconst(a, 1);
        f.add(b, a, 41); // Reg and i64 both convert to Operand
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 0);
        assert_eq!(p.function(main).num_instrs(), 3);
    }
}
