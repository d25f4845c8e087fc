//! Text serialization of whole programs: a readable assembler format that
//! round-trips through [`parse_program`].
//!
//! The format extends the [`Display`](std::fmt::Display) output with the
//! pieces a program needs to be reconstructed: the program header (threads,
//! queues, memory size), a sparse `memory` section, and affine
//! memory-analysis annotations. Example:
//!
//! ```text
//! program 1 threads 1 queues 0 memory 16
//! thread 0 = fn0
//!
//! memory {
//!   1: 42
//! }
//!
//! func main entry bb0 regs 3 {
//! bb0 entry:
//!   r0 = 1
//!   r1 = M[r0+0] !mem0 @affine(0, 1, 0)
//!   r2 = add r1, 41
//!   halt
//! }
//! ```

use std::fmt;
use std::fmt::Write as _;

use crate::function::Function;
use crate::op::{Affine, BinOp, CmpOp, MemInfo, Op, Operand, UnOp};
use crate::program::Program;
use crate::types::{BlockId, FuncId, QueueId, Reg, RegionId};

/// A parse failure, with 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending text.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes `program` to the round-trippable text format.
pub fn to_text(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program {} threads {} queues {} memory {}",
        program.functions().len(),
        program.num_threads(),
        program.num_queues,
        program.initial_memory.len()
    );
    for (t, entry) in program.thread_entries().iter().enumerate() {
        let _ = writeln!(out, "thread {t} = {entry}");
    }

    let nonzero: Vec<(usize, i64)> = program
        .initial_memory
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0)
        .map(|(a, &v)| (a, v))
        .collect();
    if !nonzero.is_empty() {
        let _ = writeln!(out, "\nmemory {{");
        for (a, v) in nonzero {
            let _ = writeln!(out, "  {a}: {v}");
        }
        let _ = writeln!(out, "}}");
    }

    for f in program.functions() {
        let _ = writeln!(
            out,
            "\nfunc {} entry {} regs {} {{",
            f.name,
            f.entry(),
            f.num_regs()
        );
        for b in f.block_ids() {
            let _ = writeln!(out, "{b} {}:", f.block(b).name);
            for &i in f.block(b).instrs() {
                let _ = writeln!(out, "  {}", op_to_text(f.op(i)));
            }
        }
        let _ = writeln!(out, "}}");
    }
    out
}

fn mem_suffix(mem: &MemInfo) -> String {
    let mut s = String::new();
    if let Some(r) = mem.region {
        let _ = write!(s, " !{r}");
    }
    if let Some(a) = mem.affine {
        let _ = write!(s, " @affine({}, {}, {})", a.iv, a.stride, a.phase);
    }
    s
}

fn op_to_text(op: &Op) -> String {
    match op {
        Op::Load {
            dst,
            addr,
            offset,
            mem,
        } => format!("{dst} = M[{addr}{offset:+}]{}", mem_suffix(mem)),
        Op::Store {
            src,
            addr,
            offset,
            mem,
        } => format!("M[{addr}{offset:+}] = {src}{}", mem_suffix(mem)),
        other => other.to_string(),
    }
}

/// Parses a program previously produced by [`to_text`] (or hand-written in
/// the same format).
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    Parser::new(text).parse()
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(n, l)| (n + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#') && !l.starts_with("//"))
            .collect();
        Parser { lines, pos: 0 }
    }

    fn err<T>(&self, line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line,
            message: msg.into(),
        })
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let l = self.peek();
        if l.is_some() {
            self.pos += 1;
        }
        l
    }

    fn parse(mut self) -> Result<Program, ParseError> {
        // Header.
        let (ln, header) = self.next_line().ok_or(ParseError {
            line: 0,
            message: "empty input".into(),
        })?;
        let toks: Vec<&str> = header.split_whitespace().collect();
        let [_, nfuncs, _, nthreads, _, nqueues, _, nmem] = toks.as_slice() else {
            return self.err(ln, "expected `program N threads N queues N memory N`");
        };
        if toks[0] != "program" {
            return self.err(ln, "expected `program` header");
        }
        let nfuncs: usize = self.num(ln, nfuncs)?;
        let nthreads: usize = self.num(ln, nthreads)?;
        let nqueues: u32 = self.num(ln, nqueues)?;
        let nmem: usize = self.num(ln, nmem)?;

        // Thread entries.
        let mut entries = Vec::with_capacity(nthreads);
        for t in 0..nthreads {
            let (ln, line) = self.expect_line("thread entry")?;
            let toks: Vec<&str> = line.split_whitespace().collect();
            let [kw, idx, eq, f] = toks.as_slice() else {
                return self.err(ln, "expected `thread T = fnN`");
            };
            if *kw != "thread" || *eq != "=" || self.num::<usize>(ln, idx)? != t {
                return self.err(ln, "expected `thread T = fnN` in order");
            }
            entries.push(self.func_id(ln, f)?);
        }

        // Optional memory section.
        let mut memory = vec![0i64; nmem];
        if let Some((_, l)) = self.peek() {
            if l == "memory {" {
                self.pos += 1;
                loop {
                    let (ln, l) = self.expect_line("memory entry or `}`")?;
                    if l == "}" {
                        break;
                    }
                    let Some((a, v)) = l.split_once(':') else {
                        return self.err(ln, "expected `addr: value`");
                    };
                    let a: usize = self.num(ln, a.trim())?;
                    let v: i64 = self.num(ln, v.trim())?;
                    if a >= memory.len() {
                        return self.err(ln, format!("address {a} beyond memory size {nmem}"));
                    }
                    memory[a] = v;
                }
            }
        }

        // Functions.
        let mut functions = Vec::with_capacity(nfuncs);
        for _ in 0..nfuncs {
            functions.push(self.parse_function()?);
        }
        if let Some((ln, l)) = self.peek() {
            return self.err(ln, format!("unexpected trailing content `{l}`"));
        }

        let Some((&first, rest)) = entries.split_first() else {
            return self.err(0, "program needs at least one thread");
        };
        let mut p = Program::new(functions, first, memory);
        p.num_queues = nqueues;
        for &e in rest {
            p.add_thread(e);
        }
        Ok(p)
    }

    fn parse_function(&mut self) -> Result<Function, ParseError> {
        let (ln, line) = self.expect_line("function header")?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        let [kw, name, _entry_kw, entry, _regs_kw, regs, brace] = toks.as_slice() else {
            return self.err(ln, "expected `func NAME entry bbN regs N {`");
        };
        if *kw != "func" || *brace != "{" {
            return self.err(ln, "expected `func NAME entry bbN regs N {`");
        }
        let entry = self.block_id(ln, entry)?;
        let regs: u32 = self.num(ln, regs)?;
        let mut f = Function::new(*name);
        f.ensure_reg(Reg(regs.saturating_sub(1)));

        let mut current: Option<BlockId> = None;
        loop {
            let (ln, l) = self.expect_line("block, instruction, or `}`")?;
            if l == "}" {
                break;
            }
            if let Some(rest) = l.strip_prefix("bb") {
                // Block header: `bbN name:`
                let Some(stripped) = rest.strip_suffix(':') else {
                    return self.err(ln, "expected block header `bbN name:`");
                };
                let (idx, name) = match stripped.split_once(' ') {
                    Some((i, n)) => (i, n.trim()),
                    None => (stripped, ""),
                };
                let idx: usize = self.num(ln, idx)?;
                if idx != f.num_blocks() {
                    return self.err(
                        ln,
                        format!("blocks must appear in order; expected bb{}", f.num_blocks()),
                    );
                }
                current = Some(f.add_block(name));
                continue;
            }
            let Some(block) = current else {
                return self.err(ln, "instruction before any block header");
            };
            let op = self.parse_op(ln, l)?;
            f.append_op(block, op);
        }
        if entry.index() >= f.num_blocks() {
            return self.err(ln, "entry block out of range");
        }
        f.set_entry(entry);
        Ok(f)
    }

    fn parse_op(&self, ln: usize, l: &str) -> Result<Op, ParseError> {
        // Strip an optional leading `iN:` tag (Display output carries one).
        let l = match l.split_once(':') {
            Some((tag, rest))
                if tag.starts_with('i') && tag[1..].chars().all(|c| c.is_ascii_digit()) =>
            {
                rest.trim()
            }
            _ => l,
        };

        // Keyword-led forms first.
        if l == "ret" {
            return Ok(Op::Ret);
        }
        if l == "halt" {
            return Ok(Op::Halt);
        }
        if l == "nop" {
            return Ok(Op::Nop);
        }
        if let Some(rest) = l.strip_prefix("jump ") {
            return Ok(Op::Jump {
                target: self.block_id(ln, rest.trim())?,
            });
        }
        if let Some(rest) = l.strip_prefix("br ") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            let [c, t, e] = parts.as_slice() else {
                return self.err(ln, "expected `br rC, bbT, bbE`");
            };
            return Ok(Op::Br {
                cond: self.reg(ln, c)?,
                then_: self.block_id(ln, t)?,
                else_: self.block_id(ln, e)?,
            });
        }
        if let Some(rest) = l.strip_prefix("call.ind ") {
            return Ok(Op::CallInd {
                target: self.reg(ln, rest.trim())?,
            });
        }
        if let Some(rest) = l.strip_prefix("call ") {
            return Ok(Op::Call {
                callee: self.func_id(ln, rest.trim())?,
            });
        }
        if let Some(rest) = l.strip_prefix("PRODUCE.token ") {
            return Ok(Op::ProduceToken {
                queue: self.queue(ln, rest.trim())?,
            });
        }
        if let Some(rest) = l.strip_prefix("CONSUME.token ") {
            return Ok(Op::ConsumeToken {
                queue: self.queue(ln, rest.trim())?,
            });
        }
        if let Some(rest) = l.strip_prefix("PRODUCE ") {
            let Some((q, src)) = rest.split_once('=') else {
                return self.err(ln, "expected `PRODUCE [qN] = src`");
            };
            return Ok(Op::Produce {
                queue: self.queue(ln, q.trim())?,
                src: self.operand(ln, src.trim())?,
            });
        }
        if let Some(rest) = l.strip_prefix("CONSUME ") {
            let Some((dst, q)) = rest.split_once('=') else {
                return self.err(ln, "expected `CONSUME rN = [qN]`");
            };
            return Ok(Op::Consume {
                queue: self.queue(ln, q.trim())?,
                dst: self.reg(ln, dst.trim())?,
            });
        }

        // Store: `M[rA+O] = src [!memR] [@affine(..)]`.
        if l.starts_with("M[") {
            let Some((lhs, rhs)) = l.split_once('=') else {
                return self.err(ln, "expected `M[rA+O] = src`");
            };
            let (addr, offset) = self.mem_ref(ln, lhs.trim())?;
            let (src, mem) = self.value_and_mem(ln, rhs.trim())?;
            return Ok(Op::Store {
                src,
                addr,
                offset,
                mem,
            });
        }

        // Everything else: `rD = ...`.
        let Some((dst, rhs)) = l.split_once('=') else {
            return self.err(ln, format!("unrecognized instruction `{l}`"));
        };
        let dst = self.reg(ln, dst.trim())?;
        let rhs = rhs.trim();

        if rhs.starts_with("M[") {
            let (mem_part, info) = self.split_mem_suffix(ln, rhs)?;
            let (addr, offset) = self.mem_ref(ln, mem_part)?;
            return Ok(Op::Load {
                dst,
                addr,
                offset,
                mem: info,
            });
        }
        if rhs.starts_with('(') && rhs.ends_with(')') {
            // Cmp: `(a <op> b)`.
            let inner = &rhs[1..rhs.len() - 1];
            for (sym, op) in [
                ("==", CmpOp::Eq),
                ("!=", CmpOp::Ne),
                ("<=", CmpOp::Le),
                (">=", CmpOp::Ge),
                ("<f", CmpOp::FLt),
                ("<", CmpOp::Lt),
                (">", CmpOp::Gt),
            ] {
                if let Some((a, b)) = inner.split_once(&format!(" {sym} ")) {
                    return Ok(Op::Cmp {
                        dst,
                        op,
                        lhs: self.operand(ln, a.trim())?,
                        rhs: self.operand(ln, b.trim())?,
                    });
                }
            }
            return self.err(ln, format!("unrecognized comparison `{rhs}`"));
        }
        let toks: Vec<&str> = rhs.split_whitespace().collect();
        match toks.as_slice() {
            [v] => {
                // Const or bare mov of an operand.
                match self.operand(ln, v)? {
                    Operand::Imm(value) => Ok(Op::Const { dst, value }),
                    src @ Operand::Reg(_) => Ok(Op::Unary {
                        dst,
                        op: UnOp::Mov,
                        src,
                    }),
                }
            }
            [un, src] => {
                let op = match *un {
                    "mov" => UnOp::Mov,
                    "neg" => UnOp::Neg,
                    "not" => UnOp::Not,
                    "itof" => UnOp::IntToFloat,
                    "ftoi" => UnOp::FloatToInt,
                    other => return self.err(ln, format!("unknown unary op `{other}`")),
                };
                Ok(Op::Unary {
                    dst,
                    op,
                    src: self.operand(ln, src)?,
                })
            }
            [bin, a, b] => {
                let a = a.trim_end_matches(',');
                let op = match *bin {
                    "add" => BinOp::Add,
                    "sub" => BinOp::Sub,
                    "mul" => BinOp::Mul,
                    "div" => BinOp::Div,
                    "rem" => BinOp::Rem,
                    "and" => BinOp::And,
                    "or" => BinOp::Or,
                    "xor" => BinOp::Xor,
                    "shl" => BinOp::Shl,
                    "shr" => BinOp::Shr,
                    "min" => BinOp::Min,
                    "max" => BinOp::Max,
                    "fadd" => BinOp::FAdd,
                    "fsub" => BinOp::FSub,
                    "fmul" => BinOp::FMul,
                    "fdiv" => BinOp::FDiv,
                    other => return self.err(ln, format!("unknown binary op `{other}`")),
                };
                Ok(Op::Binary {
                    dst,
                    op,
                    lhs: self.operand(ln, a)?,
                    rhs: self.operand(ln, b)?,
                })
            }
            _ => self.err(ln, format!("unrecognized instruction `{l}`")),
        }
    }

    /// Parses the `!memR @affine(..)` annotation tail.
    fn parse_annotations(&self, ln: usize, rest: &str) -> Result<MemInfo, ParseError> {
        let mut info = MemInfo::UNKNOWN;
        // `@affine(a, b, c)` contains spaces; re-join its pieces.
        let normalized = rest.replace(", ", ",");
        for tok in normalized.split_whitespace() {
            if let Some(r) = tok.strip_prefix("!mem") {
                info.region = Some(RegionId(self.num(ln, r)?));
            } else if let Some(a) = tok.strip_prefix("@affine(") {
                let a = a.trim_end_matches(')');
                let parts: Vec<&str> = a.split(',').map(str::trim).collect();
                let [iv, stride, phase] = parts.as_slice() else {
                    return self.err(ln, "expected `@affine(iv, stride, phase)`");
                };
                info.affine = Some(Affine {
                    iv: self.num(ln, iv)?,
                    stride: self.num(ln, stride)?,
                    phase: self.num(ln, phase)?,
                });
            } else {
                return self.err(ln, format!("unknown memory annotation `{tok}`"));
            }
        }
        Ok(info)
    }

    /// Splits `M[...] !memR @affine(..)` into the `M[...]` part and the
    /// parsed annotations.
    fn split_mem_suffix<'b>(
        &self,
        ln: usize,
        s: &'b str,
    ) -> Result<(&'b str, MemInfo), ParseError> {
        let (mem_part, rest) = match s.find(']') {
            Some(k) => (&s[..=k], s[k + 1..].trim()),
            None => return self.err(ln, "missing `]` in memory operand"),
        };
        Ok((mem_part, self.parse_annotations(ln, rest)?))
    }

    /// Parses `M[rA+O]` / `M[rA-O]`.
    fn mem_ref(&self, ln: usize, s: &str) -> Result<(Reg, i64), ParseError> {
        let inner = s
            .strip_prefix("M[")
            .and_then(|x| x.strip_suffix(']'))
            .ok_or(ParseError {
                line: ln,
                message: format!("expected `M[rA±O]`, found `{s}`"),
            })?;
        let split = inner
            .char_indices()
            .skip(1)
            .find(|&(_, c)| c == '+' || c == '-')
            .map(|(k, _)| k);
        let Some(k) = split else {
            return self.err(ln, "memory operand needs a signed offset");
        };
        let addr = self.reg(ln, &inner[..k])?;
        let offset: i64 = self.num(ln, &inner[k..])?;
        Ok((addr, offset))
    }

    /// Parses `src !memR @affine(..)` for stores.
    fn value_and_mem(&self, ln: usize, s: &str) -> Result<(Operand, MemInfo), ParseError> {
        let mut it = s.splitn(2, char::is_whitespace);
        let v = it.next().ok_or(ParseError {
            line: ln,
            message: "missing store value".into(),
        })?;
        let info = self.parse_annotations(ln, it.next().unwrap_or(""))?;
        Ok((self.operand(ln, v)?, info))
    }

    fn expect_line(&mut self, what: &str) -> Result<(usize, &'a str), ParseError> {
        // On EOF, point at the last line of input rather than a
        // nonsense sentinel: truncated files are a common hand-editing
        // mistake and the report should say where the text stopped.
        let last = self.lines.last().map_or(0, |&(n, _)| n);
        self.next_line().ok_or(ParseError {
            line: last,
            message: format!("unexpected end of input, expected {what}"),
        })
    }

    fn num<T: std::str::FromStr>(&self, ln: usize, s: &str) -> Result<T, ParseError> {
        s.parse().map_err(|_| ParseError {
            line: ln,
            message: format!("expected a number, found `{s}`"),
        })
    }

    fn reg(&self, ln: usize, s: &str) -> Result<Reg, ParseError> {
        s.strip_prefix('r')
            .and_then(|x| x.parse().ok())
            .map(Reg)
            .ok_or(ParseError {
                line: ln,
                message: format!("expected a register `rN`, found `{s}`"),
            })
    }

    fn operand(&self, ln: usize, s: &str) -> Result<Operand, ParseError> {
        let s = s.trim_end_matches(',');
        if s.starts_with('r') && s[1..].chars().all(|c| c.is_ascii_digit()) {
            Ok(Operand::Reg(self.reg(ln, s)?))
        } else {
            Ok(Operand::Imm(self.num(ln, s)?))
        }
    }

    fn block_id(&self, ln: usize, s: &str) -> Result<BlockId, ParseError> {
        s.strip_prefix("bb")
            .and_then(|x| x.parse().ok())
            .map(BlockId)
            .ok_or(ParseError {
                line: ln,
                message: format!("expected a block `bbN`, found `{s}`"),
            })
    }

    fn func_id(&self, ln: usize, s: &str) -> Result<FuncId, ParseError> {
        s.strip_prefix("fn")
            .and_then(|x| x.parse().ok())
            .map(FuncId)
            .ok_or(ParseError {
                line: ln,
                message: format!("expected a function `fnN`, found `{s}`"),
            })
    }

    fn queue(&self, ln: usize, s: &str) -> Result<QueueId, ParseError> {
        s.strip_prefix("[q")
            .and_then(|x| x.strip_suffix(']'))
            .or_else(|| s.strip_prefix('q'))
            .and_then(|x| x.parse().ok())
            .map(QueueId)
            .ok_or(ParseError {
                line: ln,
                message: format!("expected a queue `[qN]`, found `{s}`"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::verify::verify_program;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let h = f.block("header");
        let x = f.block("exit");
        let (i, n, done, v, base) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(n, 5);
        f.iconst(base, 0);
        f.jump(h);
        f.switch_to(h);
        f.cmp_ge(done, i, n);
        f.load_mem(v, i, 8, MemInfo::affine(RegionId(0), 0, 1, 0));
        f.add(v, v, 1);
        f.store_region(v, i, 8, RegionId(0));
        f.add(i, i, 1);
        f.br(done, x, h);
        f.switch_to(x);
        f.store(i, base, 0);
        f.halt();
        let main = f.finish();
        let mut mem = vec![0i64; 16];
        for (k, slot) in mem.iter_mut().enumerate().take(13).skip(8) {
            *slot = k as i64;
        }
        pb.finish_with_memory(main, mem)
    }

    #[test]
    fn round_trip_preserves_text_and_semantics() {
        let p = sample();
        let text = to_text(&p);
        let q = parse_program(&text).unwrap();
        verify_program(&q).unwrap();
        assert_eq!(to_text(&q), text, "text fixed point");
        let a = crate::interp::Interpreter::new(&p).run().unwrap();
        let b = crate::interp::Interpreter::new(&q).run().unwrap();
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn parses_hand_written_program() {
        let text = "\
program 1 threads 1 queues 0 memory 4
thread 0 = fn0
memory {
  1: 40
}
func main entry bb0 regs 3 {
bb0 entry:
  r0 = 1
  r1 = M[r0+0]
  r2 = add r1, 2
  M[r0+1] = r2
  halt
}
";
        let p = parse_program(text).unwrap();
        verify_program(&p).unwrap();
        let r = crate::interp::Interpreter::new(&p).run().unwrap();
        assert_eq!(r.memory[2], 42);
    }

    #[test]
    fn queue_instructions_round_trip() {
        let text = "\
program 2 threads 2 queues 2 memory 2
thread 0 = fn0
thread 1 = fn1
func producer entry bb0 regs 1 {
bb0 entry:
  r0 = 7
  PRODUCE [q0] = r0
  PRODUCE.token [q1]
  halt
}
func consumer entry bb0 regs 2 {
bb0 entry:
  CONSUME r0 = [q0]
  CONSUME.token [q1]
  r1 = 0
  M[r1+0] = r0
  halt
}
";
        let p = parse_program(text).unwrap();
        verify_program(&p).unwrap();
        let rt = parse_program(&to_text(&p)).unwrap();
        assert_eq!(to_text(&rt), to_text(&p));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "\
program 1 threads 1 queues 0 memory 0
thread 0 = fn0
func main entry bb0 regs 1 {
bb0 entry:
  r0 = frobnicate r0
  halt
}
";
        let err = parse_program(text).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.message.contains("frobnicate"), "{err}");
    }

    #[test]
    fn truncated_input_reports_last_line() {
        let text = "\
program 1 threads 1 queues 0 memory 0
thread 0 = fn0
func main entry bb0 regs 1 {
bb0 entry:
  r0 = 1
";
        let err = parse_program(text).unwrap_err();
        assert!(err.message.contains("end of input"), "{err}");
        assert_eq!(err.line, 5, "points at the last line, not a sentinel");
    }

    #[test]
    fn rejects_out_of_order_blocks() {
        let text = "\
program 1 threads 1 queues 0 memory 0
thread 0 = fn0
func main entry bb0 regs 1 {
bb1 entry:
  halt
}
";
        let err = parse_program(text).unwrap_err();
        assert!(err.message.contains("order"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
# a comment
program 1 threads 1 queues 0 memory 1

// another comment
thread 0 = fn0
func main entry bb0 regs 1 {
bb0 entry:
  r0 = 9
  M[r0-9] = r0
  halt
}
";
        let p = parse_program(text).unwrap();
        let r = crate::interp::Interpreter::new(&p).run().unwrap();
        assert_eq!(r.memory[0], 9);
    }
}
