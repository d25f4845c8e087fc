//! A small register-machine intermediate representation (IR) for the
//! Decoupled Software Pipelining (DSWP) reproduction.
//!
//! The MICRO 2005 DSWP paper operates inside the IMPACT compiler back-end on
//! predicated IA-64 assembly. This crate provides the equivalent substrate:
//! a RISC-like IR with
//!
//! * virtual registers holding 64-bit words (integers, or `f64` bit patterns
//!   for the floating-point opcodes),
//! * a control-flow graph of basic blocks per [`Function`],
//! * a flat, word-addressed shared memory per [`Program`],
//! * the paper's ISA extension: [`Op::Produce`] / [`Op::Consume`] (and their
//!   token forms) operating on the *synchronization array* queues
//!   (Section 2.1 of the paper).
//!
//! The crate also ships a [`FunctionBuilder`]/[`ProgramBuilder`] pair for
//! constructing programs, a structural [`verify_program`](verify::verify_program)
//! pass, a pretty-printer, and a single-context functional
//! [`Interpreter`](interp::Interpreter) used for baseline execution,
//! correctness oracles and block-frequency profiling.
//!
//! # Example
//!
//! ```
//! use dswp_ir::ProgramBuilder;
//!
//! // sum = 0; for i in 0..10 { sum += i }; mem[0] = sum
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! let (i, sum, limit, one) = (f.reg(), f.reg(), f.reg(), f.reg());
//! let entry = f.entry_block();
//! let header = f.block("header");
//! let body = f.block("body");
//! let exit = f.block("exit");
//!
//! f.switch_to(entry);
//! f.iconst(i, 0);
//! f.iconst(sum, 0);
//! f.iconst(limit, 10);
//! f.iconst(one, 1);
//! f.jump(header);
//!
//! f.switch_to(header);
//! let done = f.reg();
//! f.cmp_ge(done, i, limit);
//! f.br(done, exit, body);
//!
//! f.switch_to(body);
//! f.add(sum, sum, i);
//! f.add(i, i, one);
//! f.jump(header);
//!
//! f.switch_to(exit);
//! let base = f.reg();
//! f.iconst(base, 0);
//! f.store(sum, base, 0);
//! f.halt();
//! let main = f.finish();
//!
//! let program = pb.finish(main, 16);
//! let result = dswp_ir::interp::Interpreter::new(&program).run().unwrap();
//! assert_eq!(result.memory[0], 45);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod exec;
pub mod function;
pub mod interp;
pub mod latency;
pub mod op;
pub mod print;
pub mod program;
pub mod text;
pub mod types;
pub mod verify;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use function::{Block, Function};
pub use latency::LatencyTable;
pub use op::{BinOp, CmpOp, LatencyClass, Op, Operand, UnOp, Uses};
pub use program::Program;
pub use text::{parse_program, to_text, ParseError};
pub use types::{BlockId, FuncId, InstrId, QueueId, Reg, RegionId};
