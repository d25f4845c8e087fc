//! The kernels every pass runs, with their oracle images and compiled
//! forms. Building a [`Suite`] is the benchmark's set-up.

use std::time::{Duration, Instant};

use dswp::{dswp_loop, DswpError, DswpOptions, DswpReport};
use dswp_ir::interp::{Interpreter, Profile};
use dswp_ir::{BlockId, Program};
use dswp_workloads::{paper_suite, Size};

/// One `paper_suite(Size::Paper)` kernel, ready to run.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Label as the paper prints it.
    pub name: &'static str,
    /// The untransformed program.
    pub original: Program,
    /// Header of the DSWP candidate loop.
    pub header: BlockId,
    /// Interpreter profile of `original`.
    pub profile: Profile,
    /// Instructions the interpreter retired on `original`.
    pub interp_steps: u64,
    /// Memory image of `original` under the interpreter: the oracle every
    /// engine's result is compared with.
    pub expected: Vec<i64>,
    /// `dswp_loop` output under default options, or `None` when the
    /// compiler declined the loop (the kernel then runs untransformed).
    pub dswp: Option<(Program, DswpReport)>,
}

impl Kernel {
    /// The program a DSWP user runs: the transformed one when the compiler
    /// accepted the loop.
    pub fn pipelined(&self) -> &Program {
        self.dswp.as_ref().map_or(&self.original, |(p, _)| p)
    }
}

/// Every kernel of the paper's suite, in `paper_suite` order.
#[derive(Clone, Debug)]
pub struct Suite {
    /// The kernels.
    pub kernels: Vec<Kernel>,
}

/// Applies DSWP with default options to a clone of `original`.
pub fn compile(
    original: &Program,
    header: BlockId,
    profile: &Profile,
) -> Result<(Program, DswpReport), DswpError> {
    let mut p = original.clone();
    let main = p.main();
    dswp_loop(&mut p, main, header, profile, &DswpOptions::default()).map(|r| (p, r))
}

/// Whether a `dswp_loop` error is the compiler declining the loop (a
/// legitimate outcome) rather than a failure.
pub fn declined(e: &DswpError) -> bool {
    matches!(e, DswpError::SingleScc | DswpError::NotProfitable)
}

impl Suite {
    /// Builds the kernels and profiles them with the interpreter, which
    /// also yields the oracle images, then compiles them once.
    ///
    /// # Panics
    ///
    /// When a kernel fails under the interpreter or `dswp_loop` fails with
    /// anything but a decline: without an oracle there is nothing to
    /// measure against.
    pub fn build() -> Suite {
        let kernels = paper_suite(Size::Paper)
            .into_iter()
            .map(|w| {
                let r = Interpreter::new(&w.program)
                    .run()
                    .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", w.name));
                Kernel {
                    name: w.name,
                    original: w.program,
                    header: w.header,
                    profile: r.profile,
                    interp_steps: r.steps,
                    expected: r.memory,
                    dswp: None,
                }
            })
            .collect();
        let mut suite = Suite { kernels };
        suite.compile_all();
        suite
    }

    /// Compiles every kernel with `dswp_loop` and returns the wall time of
    /// the whole suite's compile.
    pub fn compile_all(&mut self) -> Duration {
        let t0 = Instant::now();
        let compiled: Vec<_> = self
            .kernels
            .iter()
            .map(|k| compile(&k.original, k.header, &k.profile))
            .collect();
        let elapsed = t0.elapsed();
        for (k, c) in self.kernels.iter_mut().zip(compiled) {
            k.dswp = match c {
                Ok(done) => Some(done),
                Err(e) if declined(&e) => None,
                Err(e) => panic!("{}: dswp_loop failed: {e}", k.name),
            };
        }
        elapsed
    }
}
