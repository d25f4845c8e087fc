//! Human-readable printing of functions and programs.
//!
//! The format intentionally mirrors the paper's assembly-flavored listings
//! (Figure 2): one instruction per line, `PRODUCE [q2] = r2` /
//! `CONSUME r2 = [q2]` for flows, labeled basic blocks.

use std::fmt;

use crate::function::Function;
use crate::op::{BinOp, CmpOp, Op, Operand, UnOp};
use crate::program::Program;

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        };
        f.write_str(s)
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Mov => "mov",
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::IntToFloat => "itof",
            UnOp::FloatToInt => "ftoi",
        };
        f.write_str(s)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::FLt => "<f",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Const { dst, value } => write!(f, "{dst} = {value}"),
            Op::Unary { dst, op, src } => write!(f, "{dst} = {op} {src}"),
            Op::Binary { dst, op, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            Op::Cmp { dst, op, lhs, rhs } => write!(f, "{dst} = ({lhs} {op} {rhs})"),
            Op::Load {
                dst,
                addr,
                offset,
                mem,
            } => {
                write!(f, "{dst} = M[{addr}{offset:+}]")?;
                if let Some(r) = mem.region {
                    write!(f, " !{r}")?;
                }
                Ok(())
            }
            Op::Store {
                src,
                addr,
                offset,
                mem,
            } => {
                write!(f, "M[{addr}{offset:+}] = {src}")?;
                if let Some(r) = mem.region {
                    write!(f, " !{r}")?;
                }
                Ok(())
            }
            Op::Call { callee } => write!(f, "call {callee}"),
            Op::CallInd { target } => write!(f, "call.ind {target}"),
            Op::Br { cond, then_, else_ } => write!(f, "br {cond}, {then_}, {else_}"),
            Op::Jump { target } => write!(f, "jump {target}"),
            Op::Ret => f.write_str("ret"),
            Op::Halt => f.write_str("halt"),
            Op::Produce { queue, src } => write!(f, "PRODUCE [{queue}] = {src}"),
            Op::Consume { queue, dst } => write!(f, "CONSUME {dst} = [{queue}]"),
            Op::ProduceToken { queue } => write!(f, "PRODUCE.token [{queue}]"),
            Op::ConsumeToken { queue } => write!(f, "CONSUME.token [{queue}]"),
            Op::Nop => f.write_str("nop"),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "func {} (entry {}):", self.name, self.entry())?;
        for b in self.block_ids() {
            let block = self.block(b);
            writeln!(f, "{b} ({}):", block.name)?;
            for &i in block.instrs() {
                writeln!(f, "  {:<5} {}", format!("{i}:"), self.op(i))?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program: {} function(s), {} thread(s), {} queue(s), {} memory words",
            self.functions().len(),
            self.num_threads(),
            self.num_queues,
            self.initial_memory.len()
        )?;
        for (idx, entry) in self.thread_entries().iter().enumerate() {
            writeln!(f, "thread {idx} enters {entry}")?;
        }
        for func in self.functions() {
            writeln!(f)?;
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::{QueueId, Reg, RegionId};

    #[test]
    fn op_formats_match_paper_style() {
        let p = Op::Produce {
            queue: QueueId(2),
            src: Operand::Reg(Reg(2)),
        };
        assert_eq!(p.to_string(), "PRODUCE [q2] = r2");
        let c = Op::Consume {
            queue: QueueId(2),
            dst: Reg(2),
        };
        assert_eq!(c.to_string(), "CONSUME r2 = [q2]");
        let l = Op::Load {
            dst: Reg(3),
            addr: Reg(1),
            offset: 2,
            mem: crate::op::MemInfo::region(RegionId(0)),
        };
        assert_eq!(l.to_string(), "r3 = M[r1+2] !mem0");
    }

    #[test]
    fn function_display_contains_blocks_and_instrs() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let x = f.reg();
        f.switch_to(e);
        f.iconst(x, 5);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 0);
        let s = p.to_string();
        assert!(s.contains("func main"), "{s}");
        assert!(s.contains("r0 = 5"), "{s}");
        assert!(s.contains("halt"), "{s}");
    }
}
