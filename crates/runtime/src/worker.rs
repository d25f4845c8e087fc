//! The per-stage worker: one OS thread interpreting one hardware context.
//!
//! Each DSWP pipeline stage runs this loop on its own `std::thread`. Every
//! instruction executes through [`dswp_ir::exec::step`], the same function
//! the interpreter, the functional executor and the cycle-level machine
//! use; the worker supplies only its [`Env`] (atomic memory and batched,
//! blocking queue endpoints), so the native runtime cannot drift from the
//! other engines on anything but scheduling.
//!
//! Shared program memory is a `Vec<AtomicI64>` accessed with relaxed
//! loads/stores; cross-stage ordering comes from the queues' release/acquire
//! cursor pairs, exactly the discipline the DSWP transformation enforces by
//! routing every cross-stage memory dependence through a synchronization
//! flow.
//!
//! # Endpoints
//!
//! A stage claims a queue's [`Producer`] on its first `produce` to that
//! queue and its [`Consumer`] on its first `consume`, and keeps both until
//! every stage has joined. A second stage on the same side of a queue
//! therefore always fails with [`RtError::QueueShared`], whatever the
//! timing.
//!
//! # Batched communication
//!
//! With a per-queue batch size `b`, a `produce` writes its value straight
//! into the ring slot and a `consume` reads straight out of one; batching
//! only decides when the cursors move. A producer *publishes* (one release
//! store of `tail`) when `b` written values are pending, and a consumer
//! *refills* (one acquire of `tail`, up to `b` values, never waiting for a
//! full chunk) when it has read its batch, and *releases* the batch's slots
//! (one release store) as soon as it has read the last of them. Each ring
//! has `b` slots beyond the queue capacity for the batch being read, so no
//! producer ever waits for a release. Three more publish rules keep
//! batching an invisible (timing-only) change:
//!
//! * **Publish before blocking.** A stage about to block for any reason
//!   first publishes every pending value and releases every read slot, so
//!   nothing it holds can manufacture a deadlock the unbatched runtime
//!   would not have, and the monitor need only look at the shared cursors.
//!   Publishing never needs free space — the values already sit in their
//!   slots — so this never blocks.
//! * **Publish on stage end.** A terminating stage publishes and releases
//!   everything before it reports termination.
//! * **Publish on cadence.** Every `STEP_BATCH` retired instructions (the
//!   budget-refill boundary) the worker publishes and releases whatever
//!   lingers, so a stage that stops touching its queues but keeps
//!   computing cannot starve its peers behind a half-filled chunk.
//!
//! Waking parked peers is batched along the same lines: a publish or refill
//! only records that the stage owes a wake-up, and the stage pays for the
//! monitor's fence at those three points, not once per batch.
//!
//! Fault hooks fire per *publish or refill operation* (the `b`-value
//! publish, the stage-end publish, and every refill) — with `b = 1` every
//! produce is a publish and every consume is a refill, so the unbatched
//! fault cadence is preserved exactly.
//!
//! When the runtime carries a [`FaultPlan`], each worker additionally
//! drives a [`FaultSession`]: periodic busy-spin delays, artificial
//! queue-operation stalls, queue poisoning, and forced panics at an exact
//! retired-instruction count. Benign faults perturb timing only — the
//! chaos differential suite asserts the observable results stay
//! bit-identical; lethal faults are converted by the recovery layer in
//! `lib.rs` into structured [`RtError`]s.
//!
//! The per-instruction fault hook sits on the hottest path of the runtime,
//! so the worker loop is instantiated twice: [`run_worker`] picks the
//! instance with the hook compiled in only when a plan is present, and a
//! run without faults never calls it.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dswp_ir::exec::{step, Code, Env, Fault, Flow, Frame};
use dswp_ir::{Program, QueueId};

use crate::fault::{FaultPlan, InjectedPanic, StageFaults};
use crate::monitor::{BlockInfo, BlockKind, Monitor, WaitOutcome};
use crate::queue::{BatchHistogram, Consumer, Producer, SpscQueue};
use crate::{QueueSide, RtError};

/// Steps claimed from the shared budget at a time; also the cadence of
/// abort-flag checks, progress heartbeats, and publishes of lingering
/// written values.
const STEP_BATCH: u64 = 1024;

/// Everything the stage threads share. Borrows the program for the scope of
/// the run (`std::thread::scope`).
#[derive(Debug)]
pub(crate) struct Shared<'p> {
    pub program: &'p Program,
    /// The program decoded once for every stage thread.
    pub code: Code,
    pub memory: Vec<AtomicI64>,
    pub queues: Vec<SpscQueue>,
    pub monitor: Monitor,
    /// Per-queue communication batch size (≥ 1; 1 = unbatched).
    pub batches: Vec<usize>,
    /// Total steps claimed across all threads (runaway guard).
    pub steps_claimed: AtomicU64,
    pub step_limit: u64,
    /// Set on any failure verdict; running threads stop at the next batch
    /// boundary or blocking attempt.
    pub abort: AtomicBool,
    /// Heartbeat for the wall-clock watchdog in `Runtime::run`.
    pub progress: AtomicU64,
    /// Per-stage retired-instruction counters, refreshed at batch
    /// boundaries: the deadline watchdog's `last_progress` diagnosis, and
    /// the best-effort step count of a crashed stage.
    pub stage_steps: Vec<AtomicU64>,
    /// Fault-injection plan, if any.
    pub faults: Option<&'p FaultPlan>,
    /// Busy-spin iterations on a blocked queue before yielding
    /// ([`RtConfig::spins`](crate::RtConfig::spins)).
    pub spins: u32,
    /// `yield_now` iterations after spinning before parking
    /// ([`RtConfig::yields`](crate::RtConfig::yields)).
    pub yields: u32,
}

/// How a worker's loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WorkerEnd {
    /// Reached `halt` or the terminate sentinel — normal completion.
    Terminated,
    /// Stopped by a Park verdict while blocked (run completed without it).
    Parked,
    /// Stopped by a failure verdict or the abort flag.
    Aborted,
    /// The stage thread panicked and was caught by the recovery layer.
    Panicked,
}

/// The queue endpoints a stage has claimed, indexed by queue.
#[derive(Debug, Default)]
pub(crate) struct Endpoints<'a> {
    outs: Vec<Option<Producer<'a>>>,
    ins: Vec<Option<Consumer<'a>>>,
}

/// Per-stage outcome and statistics, returned through the scoped join.
#[derive(Debug)]
pub(crate) struct WorkerReport<'a> {
    pub end: WorkerEnd,
    /// Successfully executed instructions (matches the functional
    /// executor's per-context step counts exactly).
    pub steps: u64,
    /// Entry-frame registers at the end of the run.
    pub entry_regs: Vec<i64>,
    /// Total wall-clock time of this stage thread.
    pub wall: Duration,
    /// Portion of `wall` spent blocked on queues (spin + park).
    pub blocked: Duration,
    /// Failed queue-operation attempts that entered the spin→yield→park
    /// backoff (each retry is one loop turn of a blocked operation).
    pub retries: u64,
    /// Times the stage gave up spinning and parked on the monitor.
    pub parks: u64,
    /// Sizes of the `b`-value and stage-end publishes of this stage.
    pub flushes: BatchHistogram,
    /// Sizes of the input batches this stage refilled.
    pub refills: BatchHistogram,
    /// The stage's endpoints, held until every stage has joined so that no
    /// other stage can claim the same side of a queue in this run.
    pub _endpoints: Endpoints<'a>,
}

enum QueueOutcome {
    /// The operation completed; for consumes, carries the value.
    Done(i64),
    /// The operation can never complete: its queue (or one this stage
    /// still owes a publish) is poisoned — the peer endpoint is dead, or a
    /// fault plan poisoned it — or another stage holds its side of the
    /// queue.
    Failed(RtError),
    Stop(WorkerEnd),
}

/// The per-worker fault-injection state: counters that decide when the
/// stage's [`StageFaults`] fire.
struct FaultSession {
    faults: StageFaults,
    /// Publish/refill operations performed so far (drives stall cadence;
    /// with batch size 1 this is exactly the queue-operation count).
    queue_ops: u64,
    /// Whether the poison fault already fired.
    poisoned: bool,
}

impl FaultSession {
    fn new(plan: Option<&FaultPlan>, stage: usize) -> Self {
        FaultSession {
            faults: plan
                .and_then(|p| p.stages.get(stage))
                .copied()
                .unwrap_or_default(),
            queue_ops: 0,
            poisoned: false,
        }
    }

    /// Per-instruction hook, called after `steps` was incremented. Applies
    /// the delay, poisons queues, and triggers the forced panic.
    ///
    /// # Panics
    ///
    /// Deliberately panics with an [`InjectedPanic`] payload when the plan
    /// says this stage must crash at this retired-instruction count; the
    /// recovery layer in `Runtime::run` catches it.
    fn on_step(&mut self, stage: usize, steps: u64, queues: &[SpscQueue]) {
        if let Some(d) = self.faults.delay {
            if steps.is_multiple_of(d.every) {
                for _ in 0..d.spins {
                    std::hint::spin_loop();
                }
            }
        }
        if !self.poisoned {
            if let Some(p) = self.faults.poison {
                if steps >= p.after_steps {
                    self.poisoned = true;
                    if let Some(q) = queues.get(p.queue) {
                        q.poison();
                    }
                }
            }
        }
        if self.faults.panic_at == Some(steps) {
            std::panic::panic_any(InjectedPanic { stage, steps });
        }
    }

    /// Publish/refill hook: how many attempts of the upcoming operation
    /// must artificially fail (`u32::MAX` = the operation never completes).
    fn stall_budget(&mut self) -> u32 {
        self.queue_ops += 1;
        match self.faults.stall {
            Some(s) if self.queue_ops.is_multiple_of(s.every) => {
                if s.permanent {
                    u32::MAX
                } else {
                    s.attempts
                }
            }
            _ => 0,
        }
    }
}

/// Tracks the retry/park accounting of one worker across its blocked
/// queue operations.
#[derive(Default)]
struct Backoff {
    retries: u64,
    parks: u64,
}

/// A stage's communication and blocking state, and the worker's [`Env`]:
/// shared memory, plus the stage's batched queue endpoints. A queue
/// operation that blocks waits inside the `Env` call; one that can never
/// complete (poison, a shared queue side, a park verdict, abort) records
/// why in `stop` and reports "did not complete".
struct Stage<'a, 'p> {
    shared: &'a Shared<'p>,
    thread: usize,
    ends: Endpoints<'a>,
    flushes: BatchHistogram,
    refills: BatchHistogram,
    faults: FaultSession,
    blocked_time: Duration,
    backoff: Backoff,
    /// Why the last queue operation did not complete.
    stop: Option<QueueOutcome>,
    /// Whether a cursor moved since peers were last woken.
    owe_wakeup: bool,
}

impl<'a> Stage<'a, '_> {
    /// Claims this stage's `side` of queue `qi` on first use. Returns
    /// `false`, with the reason kept in `stop`, when another stage holds
    /// it.
    #[cold]
    fn claim(&mut self, qi: usize, side: QueueSide) -> bool {
        let shared: &'a Shared<'_> = self.shared;
        let queue = &shared.queues[qi];
        let claimed = match side {
            QueueSide::Producer => queue
                .claim_producer(self.thread)
                .map(|p| self.ends.outs[qi] = Some(p)),
            QueueSide::Consumer => queue
                .claim_consumer(self.thread)
                .map(|c| self.ends.ins[qi] = Some(c)),
        };
        let Err(owner) = claimed else { return true };
        self.stop = Some(QueueOutcome::Failed(RtError::QueueShared {
            queue: qi,
            side,
            owner,
            stage: self.thread,
        }));
        false
    }

    /// The outcome of an operation that found `queue` poisoned.
    fn poisoned_queue(&self, queue: usize) -> QueueOutcome {
        QueueOutcome::Failed(RtError::QueuePoisoned {
            queue,
            stage: self.thread,
        })
    }

    /// Publishes every pending value and releases every read slot — the
    /// before-blocking, stage-end and cadence rules — except the pending
    /// values of `hold`, the queue whose own (stalled) publish is under
    /// way, then wakes parked peers if any cursor moved since they were
    /// last woken. Values for a poisoned queue stay unpublished; the first
    /// such queue is returned.
    fn publish_all(&mut self, hold: Option<usize>) -> Option<usize> {
        let queues = &self.shared.queues;
        let mut poisoned = None;
        let mut moved = std::mem::take(&mut self.owe_wakeup);
        for (qi, p) in self.ends.outs.iter_mut().enumerate() {
            let Some(p) = p else { continue };
            if p.pending() == 0 || hold == Some(qi) {
                continue;
            }
            if queues[qi].is_poisoned() {
                poisoned.get_or_insert(qi);
            } else {
                p.publish();
                moved = true;
            }
        }
        for c in self.ends.ins.iter_mut().flatten() {
            moved |= c.release() > 0;
        }
        if moved {
            self.shared.monitor.notify_activity();
        }
        poisoned
    }

    /// Whether `op` can never complete: a produce onto a poisoned queue can
    /// never be consumed; a consume may still drain published values, but
    /// once the queue is empty nothing will ever arrive.
    fn poisoned(&self, op: BlockInfo) -> bool {
        let queue = &self.shared.queues[op.queue];
        queue.is_poisoned()
            && match op.kind {
                BlockKind::Produce => true,
                BlockKind::Consume => queue.is_empty(),
            }
    }

    /// Performs one queue operation. `attempt` is the non-blocking try; it
    /// returns the consumed value (0 on the producer side) once the
    /// operation completes. `forced_fails` attempts are failed
    /// artificially first (fault injection; `u32::MAX` stalls the
    /// operation forever — the watchdog or deadline then ends the run).
    /// `hold` is passed to [`publish_all`](Self::publish_all) if the
    /// operation blocks.
    #[inline]
    fn queue_op(
        &mut self,
        op: BlockInfo,
        hold: Option<usize>,
        mut forced_fails: u32,
        mut attempt: impl FnMut(&mut Self) -> Option<i64>,
    ) -> QueueOutcome {
        let mut attempt = move |stage: &mut Self| {
            if forced_fails > 0 {
                if forced_fails != u32::MAX {
                    forced_fails -= 1;
                }
                return None;
            }
            attempt(stage)
        };
        if self.poisoned(op) {
            return self.poisoned_queue(op.queue);
        }
        match attempt(self) {
            Some(v) => QueueOutcome::Done(v),
            None => self.block(op, hold, attempt),
        }
    }

    /// The spin→yield→park loop of an operation whose first attempt
    /// failed. Publishes and releases everything first, so this stage
    /// holds nothing a peer could be waiting for while it waits.
    #[cold]
    #[inline(never)]
    fn block(
        &mut self,
        op: BlockInfo,
        hold: Option<usize>,
        mut attempt: impl FnMut(&mut Self) -> Option<i64>,
    ) -> QueueOutcome {
        let shared = self.shared;
        let queue = &shared.queues[op.queue];
        match op.kind {
            BlockKind::Produce => queue.count_producer_block(),
            BlockKind::Consume => queue.count_consumer_block(),
        };
        let began = Instant::now();
        let mut tries: u32 = 0;
        let poisoned_pending = self.publish_all(hold);
        let outcome = loop {
            // Values for a poisoned queue can never be delivered — fail
            // now rather than wait with them unpublished.
            if let Some(qi) = poisoned_pending {
                break self.poisoned_queue(qi);
            }
            if self.poisoned(op) {
                break self.poisoned_queue(op.queue);
            }
            if let Some(v) = attempt(self) {
                break QueueOutcome::Done(v);
            }
            if shared.abort.load(Ordering::Relaxed) {
                break QueueOutcome::Stop(WorkerEnd::Aborted);
            }
            self.backoff.retries += 1;
            tries += 1;
            if tries <= shared.spins {
                std::hint::spin_loop();
            } else if tries <= shared.spins + shared.yields {
                std::thread::yield_now();
            } else {
                tries = 0;
                self.backoff.parks += 1;
                match shared.monitor.wait(self.thread, op, &shared.queues) {
                    WaitOutcome::Ready => {}
                    WaitOutcome::Park => break QueueOutcome::Stop(WorkerEnd::Parked),
                    WaitOutcome::Fail => break QueueOutcome::Stop(WorkerEnd::Aborted),
                }
            }
        };
        shared.progress.fetch_add(1, Ordering::Relaxed);
        self.blocked_time += began.elapsed();
        outcome
    }

    /// The publish of queue `qi`'s pending values once `b` of them are
    /// written, or at stage end: a fault-hooked queue operation.
    fn publish_op(&mut self, qi: usize) -> bool {
        let stall = self.faults.stall_budget();
        let mut n = 0;
        let outcome = self.queue_op(BlockInfo::produce(qi), Some(qi), stall, |stage| {
            n = stage.ends.outs[qi].as_mut()?.publish();
            stage.owe_wakeup = true;
            Some(0)
        });
        if n > 0 {
            self.flushes.add(n);
        }
        self.done(outcome).is_some()
    }

    /// A produce whose ring is full, or whose producer side this stage has
    /// not claimed yet.
    #[cold]
    #[inline(never)]
    fn produce_slow(&mut self, qi: usize, value: i64) -> bool {
        if self.ends.outs[qi].is_none() && !self.claim(qi, QueueSide::Producer) {
            return false;
        }
        let outcome = self.queue_op(BlockInfo::produce(qi), None, 0, |stage| {
            stage.ends.outs[qi].as_mut()?.try_write(value).then_some(0)
        });
        if self.done(outcome).is_none() {
            return false;
        }
        let batch = self.shared.batches[qi];
        self.ends.outs[qi]
            .as_ref()
            .is_some_and(|p| p.pending() < batch)
            || self.publish_op(qi)
    }

    /// A consume whose acquired batch is used up: a fault-hooked refill of
    /// up to `b` values, or the claim of the consumer side on first use.
    #[cold]
    #[inline(never)]
    fn consume_slow(&mut self, qi: usize) -> Option<i64> {
        if self.ends.ins[qi].is_none() && !self.claim(qi, QueueSide::Consumer) {
            return None;
        }
        let stall = self.faults.stall_budget();
        let batch = self.shared.batches[qi];
        let mut n = 0;
        let outcome = self.queue_op(BlockInfo::consume(qi), None, stall, |stage| {
            let c = stage.ends.ins[qi].as_mut()?;
            n = c.refill(batch);
            let v = c.read()?;
            if c.is_drained() {
                c.release();
            }
            // The acquired values left the queue: a producer may be waiting
            // for room.
            stage.owe_wakeup = true;
            Some(v)
        });
        if n > 0 {
            self.refills.add(n);
        }
        self.done(outcome)
    }

    /// The value of a completed queue operation, or `None` with the reason
    /// it did not complete kept in `stop`.
    fn done(&mut self, outcome: QueueOutcome) -> Option<i64> {
        match outcome {
            QueueOutcome::Done(v) => Some(v),
            other => {
                self.stop = Some(other);
                None
            }
        }
    }
}

impl Env for Stage<'_, '_> {
    #[inline]
    fn load(&mut self, addr: i64) -> Option<i64> {
        usize::try_from(addr)
            .ok()
            .and_then(|a| self.shared.memory.get(a))
            .map(|cell| cell.load(Ordering::Relaxed))
    }

    #[inline]
    fn store(&mut self, addr: i64, value: i64) -> bool {
        match usize::try_from(addr)
            .ok()
            .and_then(|a| self.shared.memory.get(a))
        {
            Some(cell) => {
                cell.store(value, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    fn memory_size(&self) -> usize {
        self.shared.memory.len()
    }

    /// Writes `value` straight into its ring slot; publishes once `b`
    /// values are pending.
    #[inline]
    fn produce(&mut self, queue: QueueId, value: i64) -> bool {
        let qi = queue.index();
        if let Some(p) = &mut self.ends.outs[qi] {
            if p.try_write(value) {
                return p.pending() < self.shared.batches[qi] || self.publish_op(qi);
            }
        }
        self.produce_slow(qi, value)
    }

    /// Reads the next value straight out of its ring slot; releases the
    /// acquired batch's slots as soon as the last of them is read. Nobody
    /// waits for a release (the ring reserves room for the batch being
    /// read), so it wakes nobody.
    #[inline]
    fn consume(&mut self, queue: QueueId) -> Option<i64> {
        let qi = queue.index();
        if let Some(c) = &mut self.ends.ins[qi] {
            if let Some(v) = c.read() {
                if c.is_drained() {
                    c.release();
                }
                return Some(v);
            }
        }
        self.consume_slow(qi)
    }
}

/// Runs hardware context `thread` to completion. Errors are reported to the
/// monitor (first failure wins) and surface as an `Aborted` report.
pub(crate) fn run_worker<'a>(shared: &'a Shared<'_>, thread: usize) -> WorkerReport<'a> {
    if shared.faults.is_some() {
        worker_loop::<true>(shared, thread)
    } else {
        worker_loop::<false>(shared, thread)
    }
}

/// The worker loop proper. `FAULTS` selects whether the per-instruction
/// [`FaultSession::on_step`] hook is compiled in; the publish/refill stall
/// hook runs in both instances (it is per queue operation, not per step).
fn worker_loop<'a, const FAULTS: bool>(shared: &'a Shared<'_>, thread: usize) -> WorkerReport<'a> {
    let started = Instant::now();
    let num_queues = shared.queues.len();
    let mut stage = Stage {
        shared,
        thread,
        ends: Endpoints {
            outs: (0..num_queues).map(|_| None).collect(),
            ins: (0..num_queues).map(|_| None).collect(),
        },
        flushes: BatchHistogram::default(),
        refills: BatchHistogram::default(),
        faults: FaultSession::new(shared.faults, thread),
        blocked_time: Duration::ZERO,
        backoff: Backoff::default(),
        stop: None,
        owe_wakeup: false,
    };
    let code = &shared.code;
    let mut stack: Vec<Frame> = vec![code.new_frame(shared.program.thread_entries()[thread])];
    let mut steps: u64 = 0;
    let mut budget: u64 = 0;

    let fail = |err: RtError| {
        shared.abort.store(true, Ordering::Relaxed);
        shared.monitor.fail(err);
        WorkerEnd::Aborted
    };
    // Converts the outcome of a queue operation that did not complete.
    let queue_stop = |end: QueueOutcome| match end {
        QueueOutcome::Failed(err) => fail(err),
        QueueOutcome::Stop(e) => e,
        QueueOutcome::Done(_) => unreachable!("Done handled by the caller"),
    };

    let mut end = 'run: loop {
        if budget == 0 {
            let base = shared
                .steps_claimed
                .fetch_add(STEP_BATCH, Ordering::Relaxed);
            if base >= shared.step_limit {
                break 'run fail(RtError::StepLimit(shared.step_limit));
            }
            budget = STEP_BATCH.min(shared.step_limit - base);
            shared.progress.fetch_add(1, Ordering::Relaxed);
            shared.stage_steps[thread].store(steps, Ordering::Relaxed);
            if shared.abort.load(Ordering::Relaxed) {
                break 'run WorkerEnd::Aborted;
            }
            // Cadence publish: don't let written values or read slots
            // linger while this stage computes without touching its queues.
            stage.publish_all(None);
        }
        budget -= 1;
        steps += 1;
        if FAULTS {
            stage.faults.on_step(thread, steps, &shared.queues);
        }

        match step(code, &mut stack, &mut stage) {
            Ok(Flow::Next | Flow::Jumped | Flow::Called | Flow::Returned) => {}
            Ok(Flow::Halted) => {
                // Neither `halt` nor the terminate sentinel is a counted
                // step (executor parity).
                steps -= 1;
                break 'run WorkerEnd::Terminated;
            }
            Ok(Flow::Stalled) => {
                steps -= 1; // the op never completed
                let stop = stage.stop.take().expect("a stalled queue op records why");
                break 'run queue_stop(stop);
            }
            Err(fault) => break 'run fail(RtError::from_fault(fault, thread)),
        }
    };

    // Stage-end publish: a terminating stage still owes its peers whatever
    // it wrote or read since its last publish or release.
    if end == WorkerEnd::Terminated {
        for qi in 0..num_queues {
            let pending = stage.ends.outs[qi]
                .as_ref()
                .is_some_and(|p| p.pending() > 0);
            if pending && !stage.publish_op(qi) {
                end = queue_stop(stage.stop.take().expect("a failed publish records why"));
                break;
            }
        }
    }
    if end == WorkerEnd::Terminated {
        stage.publish_all(None);
        shared.monitor.terminate(thread, &shared.queues);
    }
    shared.stage_steps[thread].store(steps, Ordering::Relaxed);
    shared.progress.fetch_add(1, Ordering::Relaxed);

    WorkerReport {
        end,
        steps,
        entry_regs: stack.first().map(|f| f.regs.clone()).unwrap_or_default(),
        wall: started.elapsed(),
        blocked: stage.blocked_time,
        retries: stage.backoff.retries,
        parks: stage.backoff.parks,
        flushes: stage.flushes,
        refills: stage.refills,
        _endpoints: stage.ends,
    }
}

impl RtError {
    fn from_fault(fault: Fault, thread: usize) -> Self {
        match fault {
            Fault::MemoryOutOfBounds { address, size } => {
                RtError::MemoryOutOfBounds { address, size }
            }
            Fault::BadIndirectTarget(v) => RtError::BadIndirectTarget(v),
            Fault::ReturnFromEntry => RtError::ReturnFromEntry(thread),
        }
    }
}
