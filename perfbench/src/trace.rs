//! In-memory spans around each call the benchmark makes into a layer.
//!
//! Spans are recorded by the benchmark's own code, never inside the
//! program, and are written out once the run ends. A pass span is the
//! parent of every layer span with the same pass id, so a pass's residual
//! is its duration minus the time its children cover.

use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Pass the call belongs to.
    pub pass: u32,
    /// Index of the kernel in the suite (`u8::MAX` for a whole pass).
    pub kernel: u8,
    /// Layer called, e.g. `sim.machine`.
    pub layer: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Work the call did: retired steps, simulated cycles, or 0.
    pub work: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Busy/blocked split of one native stage, attached to a native-run span.
#[derive(Clone, Debug)]
pub struct StageSample {
    /// Index of the native-run span in [`Tracer::spans`].
    pub span: usize,
    /// Hardware context of the stage.
    pub stage: u8,
    /// Stage lifetime minus blocked time, in ns.
    pub busy_ns: u64,
    /// Time blocked on queue backpressure or starvation, in ns.
    pub blocked_ns: u64,
    /// Instructions the stage retired.
    pub steps: u64,
}

/// Span recorder; all data stays in memory until [`Tracer::to_json`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every recorded span, in completion order.
    pub spans: Vec<Span>,
    /// Stage splits of native runs.
    pub stages: Vec<StageSample>,
    /// Queue block events (producer plus consumer) of each native-run span,
    /// as `(span index, blocks)`.
    pub blocks: Vec<(usize, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stages: Vec::new(),
            blocks: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        pass: u32,
        kernel: u8,
        layer: &'static str,
        start_ns: u64,
        work: u64,
    ) -> usize {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            pass,
            kernel,
            layer,
            start_ns,
            end_ns,
            work,
        });
        self.spans.len() - 1
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"pass\":{},\"kernel\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.pass, s.kernel, s.layer, s.start_ns, s.end_ns, s.work
            ));
        }
        out.push_str("\n]");
        out
    }
}
