//! One pass of a workload: every kernel once, in a given order.

use std::time::{Duration, Instant};

use dswp::{dswp_loop, DswpOptions};
use dswp_ir::interp::Interpreter;
use dswp_ir::Program;
use dswp_rt::Runtime;
use dswp_sim::{Executor, Machine, MachineConfig};

use crate::stats::PinnedToCpu;
use crate::suite::{declined, Kernel, Suite};
use crate::trace::{StageSample, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// DSWP-transformed kernels on the native runtime, default `RtConfig`.
    NativePipelined,
    /// Untransformed kernels on the native runtime, one stage each.
    NativeSingle,
    /// Interpreter profile, `dswp_loop`, `Executor` check and `Machine` on
    /// the original and the transformed program.
    CompileSimulate,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [
        Kind::NativePipelined,
        Kind::NativeSingle,
        Kind::CompileSimulate,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::NativePipelined => "native-pipelined",
            Kind::NativeSingle => "native-single",
            Kind::CompileSimulate => "compile-simulate",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Layer name of this workload's pass spans.
    pub fn pass_layer(self) -> &'static str {
        match self {
            Kind::NativePipelined => "pass.native-pipelined",
            Kind::NativeSingle => "pass.native-single",
            Kind::CompileSimulate => "pass.compile-simulate",
        }
    }

    /// Layer name of this workload's native-run spans.
    pub fn native_layer(self) -> &'static str {
        match self {
            Kind::NativeSingle => "rt.run.single",
            _ => "rt.run.pipelined",
        }
    }
}

/// What a pass did.
#[derive(Clone, Debug, Default)]
pub struct PassOutcome {
    /// Kernel runs attempted.
    pub attempted: u64,
    /// Kernel runs that returned an error or a wrong memory image.
    pub failed: u64,
    /// Time spent in `dswp_loop` (compile-simulate only).
    pub compile: Duration,
}

/// Trace context of a traced pass.
struct Ctx<'t> {
    tracer: &'t mut Tracer,
    pass: u32,
    kernel: u8,
}

impl Ctx<'_> {
    fn start(&self) -> u64 {
        self.tracer.now_ns()
    }

    fn end(&mut self, layer: &'static str, start: u64, work: u64) -> usize {
        self.tracer.push(self.pass, self.kernel, layer, start, work)
    }
}

/// Runs every kernel of `suite` once in `order`. With a tracer, records a
/// pass span plus one span per layer call, all keyed by `pass`. A
/// native-single pass runs on one CPU ([`PinnedToCpu`]).
pub fn run_pass(
    kind: Kind,
    suite: &Suite,
    order: &[usize],
    pass: u32,
    mut tracer: Option<&mut Tracer>,
) -> PassOutcome {
    let _pinned = (kind == Kind::NativeSingle).then(PinnedToCpu::current);
    let pass_start = tracer.as_ref().map(|t| t.now_ns());
    let mut out = PassOutcome::default();
    for &i in order {
        let k = &suite.kernels[i];
        let mut ctx = tracer.as_deref_mut().map(|tracer| Ctx {
            tracer,
            pass,
            kernel: i as u8,
        });
        let ok = match kind {
            Kind::NativePipelined => native(k.pipelined(), &k.expected, kind, ctx.as_mut()),
            Kind::NativeSingle => native(&k.original, &k.expected, kind, ctx.as_mut()),
            Kind::CompileSimulate => compile_simulate(k, &mut out.compile, ctx.as_mut()),
        };
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    if let (Some(t), Some(start)) = (tracer, pass_start) {
        t.push(pass, u8::MAX, kind.pass_layer(), start, 0);
    }
    out
}

/// One native run with default `RtConfig`, checked against the oracle.
fn native(program: &Program, expected: &[i64], kind: Kind, ctx: Option<&mut Ctx>) -> bool {
    let start = ctx.as_ref().map(|c| c.start());
    let result = Runtime::new(program).run();
    if let (Some(c), Some(start), Ok(r)) = (ctx, start, &result) {
        let span = c.end(kind.native_layer(), start, r.total_steps());
        for (t, s) in r.stages.iter().enumerate() {
            c.tracer.stages.push(StageSample {
                span,
                stage: t as u8,
                busy_ns: s.wall.saturating_sub(s.blocked).as_nanos() as u64,
                blocked_ns: s.blocked.as_nanos() as u64,
                steps: s.steps,
            });
        }
        let blocks = r
            .queues
            .iter()
            .map(|q| q.producer_blocks + q.consumer_blocks)
            .sum();
        c.tracer.blocks.push((span, blocks));
    }
    matches!(result, Ok(r) if r.memory == expected)
}

/// Profile, compile, check on the functional executor and simulate both
/// programs on the timing model. Every engine's image must equal the
/// oracle's.
fn compile_simulate(k: &Kernel, compile: &mut Duration, mut ctx: Option<&mut Ctx>) -> bool {
    let span = |ctx: &mut Option<&mut Ctx>, layer, start: Option<u64>, work| {
        if let (Some(c), Some(s)) = (ctx.as_deref_mut(), start) {
            c.end(layer, s, work);
        }
    };
    let start = ctx.as_ref().map(|c| c.start());
    let Ok(profiled) = Interpreter::new(&k.original).run() else {
        return false;
    };
    span(&mut ctx, "ir.interp", start, profiled.steps);
    let mut ok = profiled.memory == k.expected;

    let mut program = k.original.clone();
    let main = program.main();
    let start = ctx.as_ref().map(|c| c.start());
    let t0 = Instant::now();
    let compiled = dswp_loop(
        &mut program,
        main,
        k.header,
        &profiled.profile,
        &DswpOptions::default(),
    );
    *compile += t0.elapsed();
    span(&mut ctx, "core.dswp_loop", start, 0);
    let transformed = match compiled {
        Ok(_) => Some(program),
        Err(e) if declined(&e) => None,
        Err(_) => return false,
    };

    if let Some(p) = &transformed {
        let start = ctx.as_ref().map(|c| c.start());
        match Executor::new(p).run() {
            Ok(r) => {
                span(&mut ctx, "sim.executor", start, r.steps.iter().sum());
                ok &= r.memory == k.expected;
            }
            Err(_) => return false,
        }
    }

    let programs = [(&k.original, "sim.machine.original")]
        .into_iter()
        .chain(transformed.as_ref().map(|p| (p, "sim.machine.dswp")));
    for (p, layer) in programs {
        let start = ctx.as_ref().map(|c| c.start());
        match Machine::new(p, MachineConfig::full_width()).run() {
            Ok(r) => {
                span(&mut ctx, layer, start, r.cycles);
                ok &= r.memory == k.expected;
            }
            Err(_) => return false,
        }
    }
    ok
}
