//! Global blocking coordination and deadlock detection.
//!
//! The queue fast path is lock-free; a stage thread only arrives here after
//! spinning on a full (produce) or empty (consume) queue. The [`Monitor`]
//! parks such threads on a condition variable and — because it sees every
//! blocked thread at once — doubles as the runtime's *watchdog brain*: when
//! every live thread is blocked and no blocked operation can ever be
//! satisfied, it issues a structured verdict instead of letting the process
//! hang.
//!
//! Two verdicts exist, mirroring the functional executor's semantics
//! (`dswp-sim`): if the main context has already terminated, the remaining
//! blocked threads are *parked* (a DSWP master loop that produced its
//! terminate sentinels may leave auxiliary threads waiting on queues that
//! will never fill — the run is complete); if the main context is itself
//! blocked, the program is *deadlocked* and the run fails with
//! [`RtError::Deadlock`].
//!
//! With batched communication a thread may hold written-but-unpublished
//! values and read-but-unreleased slots. The worker publishes and releases
//! all of them before it blocks, so the shared cursors the monitor reads
//! are the whole truth about a blocked thread: it waits on exactly one
//! operation, and quiescence is decided on that alone. (A queue operation
//! that a fault plan stalls may keep the values it is itself publishing;
//! its queue then cannot look full, so that wait is always satisfiable and
//! never counts towards quiescence.)
//!
//! A waiter announces itself in `blocked_hint` and then re-checks its
//! queues; a thread that moved a queue cursor then reads the hint. A
//! SeqCst fence on each side keeps the two from missing each other. The
//! worker pays for its side once per step cadence, before it blocks and at
//! stage end, not once per publish or refill, so a parked peer may wake up
//! to one cadence late. Waiters still poll with a bounded `wait_timeout`,
//! so a wakeup lost any other way costs milliseconds, never liveness.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::queue::SpscQueue;
use crate::RtError;

/// Which side of a queue a thread is blocked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Producer waiting for a free slot (queue full).
    Produce,
    /// Consumer waiting for a value (queue empty).
    Consume,
}

/// A blocked queue operation: the queue and the side.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockInfo {
    pub queue: usize,
    pub kind: BlockKind,
}

impl BlockInfo {
    /// A wait to produce into `queue`.
    pub fn produce(queue: usize) -> Self {
        BlockInfo {
            queue,
            kind: BlockKind::Produce,
        }
    }

    /// A wait to consume from `queue`.
    pub fn consume(queue: usize) -> Self {
        BlockInfo {
            queue,
            kind: BlockKind::Consume,
        }
    }
}

/// Terminal decision about a quiescent (or failed) run.
#[derive(Clone, Debug)]
pub(crate) enum Verdict {
    /// Main terminated; remaining blocked threads park and the run is
    /// complete.
    Park,
    /// The run failed; all threads must stop.
    Fail(RtError),
}

/// What a blocked thread should do next.
#[derive(Debug)]
pub(crate) enum WaitOutcome {
    /// The blocked operation became satisfiable — retry it.
    Ready,
    /// Park verdict: stop this thread, the run completed without it.
    Park,
    /// Failure verdict: stop this thread, the run is an error.
    Fail,
}

#[derive(Debug)]
struct MonState {
    /// `Some(op)` while thread `t` is blocked inside [`Monitor::wait`].
    blocked: Vec<Option<BlockInfo>>,
    /// Whether thread `t` has terminated (halt or terminate sentinel).
    terminated: Vec<bool>,
    verdict: Option<Verdict>,
}

/// The runtime-global coordination object.
#[derive(Debug)]
pub(crate) struct Monitor {
    state: Mutex<MonState>,
    cond: Condvar,
    /// Fast-path hint: number of threads currently inside [`wait`]. Lets
    /// queue operations skip the mutex when nobody is parked.
    blocked_hint: AtomicUsize,
}

/// Whether a blocked operation could complete right now. A poisoned queue
/// counts as satisfiable so its waiters wake up, re-attempt, and observe
/// the poison in the worker's blocking loop (which converts it into a
/// structured error) — instead of sleeping on a dead endpoint or tripping
/// a spurious deadlock verdict.
fn satisfiable(info: BlockInfo, queues: &[SpscQueue]) -> bool {
    let q = &queues[info.queue];
    if q.is_poisoned() {
        return true;
    }
    match info.kind {
        BlockKind::Consume => !q.is_empty(),
        BlockKind::Produce => !q.is_full(),
    }
}

impl Monitor {
    pub fn new(num_threads: usize) -> Self {
        Monitor {
            state: Mutex::new(MonState {
                blocked: vec![None; num_threads],
                terminated: vec![false; num_threads],
                verdict: None,
            }),
            cond: Condvar::new(),
            blocked_hint: AtomicUsize::new(0),
        }
    }

    /// Locks the shared state, tolerating mutex poisoning: a stage thread
    /// that panicked (crash recovery catches it) must not cascade into
    /// panics on every surviving thread. The state itself stays consistent
    /// — every mutation under the lock is a single field store.
    fn lock(&self) -> MutexGuard<'_, MonState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Quiescence check, called with the state lock held: if every live
    /// thread is blocked and no blocked operation is satisfiable, nothing
    /// can ever happen again — decide Park vs Deadlock.
    fn quiescent_verdict(st: &MonState, queues: &[SpscQueue]) -> Option<Verdict> {
        let all_stopped = st
            .blocked
            .iter()
            .zip(&st.terminated)
            .all(|(b, &t)| t || b.is_some());
        if !all_stopped {
            return None;
        }
        if st
            .blocked
            .iter()
            .flatten()
            .any(|&op| satisfiable(op, queues))
        {
            return None;
        }
        if st.terminated[0] {
            Some(Verdict::Park)
        } else {
            let blocked = st
                .blocked
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_some())
                .map(|(t, _)| t)
                .collect();
            Some(Verdict::Fail(RtError::Deadlock { blocked }))
        }
    }

    /// Blocks `thread` on `op` until it becomes satisfiable or a verdict is
    /// issued. Re-runs the quiescence check on every poll, so
    /// whichever thread blocks last detects deadlock within one poll
    /// interval.
    pub fn wait(&self, thread: usize, op: BlockInfo, queues: &[SpscQueue]) -> WaitOutcome {
        let mut st = self.lock();
        st.blocked[thread] = Some(op);
        self.blocked_hint.fetch_add(1, Ordering::Relaxed);
        // Pairs with the fence in `notify_activity`: either that thread's
        // hint load sees this increment, or the re-check below sees the
        // queue state it published. Without both fences each side may read
        // the other's old value, and this thread sleeps a full timeout.
        fence(Ordering::SeqCst);
        let outcome = loop {
            // Satisfiability first: a value that arrived just before a Park
            // verdict cannot exist (Park requires global unsatisfiability),
            // and SPSC ownership means a satisfiable operation stays
            // satisfiable until *this* thread performs it.
            if satisfiable(op, queues) {
                break WaitOutcome::Ready;
            }
            match st.verdict {
                Some(Verdict::Park) => break WaitOutcome::Park,
                Some(Verdict::Fail(_)) => break WaitOutcome::Fail,
                None => {}
            }
            if let Some(v) = Self::quiescent_verdict(&st, queues) {
                st.verdict = Some(v);
                self.cond.notify_all();
                continue;
            }
            let (guard, _timed_out) = self
                .cond
                .wait_timeout(st, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        };
        st.blocked[thread] = None;
        self.blocked_hint.fetch_sub(1, Ordering::Relaxed);
        outcome
    }

    /// Records that `thread` terminated (halt / terminate sentinel) and
    /// re-checks quiescence: this termination may strand blocked peers.
    pub fn terminate(&self, thread: usize, queues: &[SpscQueue]) {
        let mut st = self.lock();
        st.terminated[thread] = true;
        if st.verdict.is_none() {
            if let Some(v) = Self::quiescent_verdict(&st, queues) {
                st.verdict = Some(v);
            }
        }
        self.cond.notify_all();
    }

    /// Issues a failure verdict (first error wins) and wakes every waiter.
    pub fn fail(&self, err: RtError) {
        let mut st = self.lock();
        if st.verdict.is_none() {
            st.verdict = Some(Verdict::Fail(err));
        }
        self.cond.notify_all();
    }

    /// Wakes blocked threads after queue cursors moved. Cheap (a fence
    /// and one relaxed load) when nobody is blocked.
    pub fn notify_activity(&self) {
        // Orders the caller's cursor stores before the hint load; see
        // `wait`.
        fence(Ordering::SeqCst);
        if self.blocked_hint.load(Ordering::Relaxed) > 0 {
            let _guard = self.lock();
            self.cond.notify_all();
        }
    }

    /// The final verdict, if any.
    pub fn verdict(&self) -> Option<Verdict> {
        self.lock().verdict.clone()
    }

    /// The lowest-numbered thread currently blocked inside [`wait`](Self::wait)
    /// and what it is blocked on — the deadline watchdog's diagnosis of
    /// *where* a timed-out run is stuck.
    pub fn first_blocked(&self) -> Option<(usize, BlockInfo)> {
        self.lock()
            .blocked
            .iter()
            .enumerate()
            .find_map(|(t, b)| b.map(|op| (t, op)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_native, RtConfig};
    use dswp_ir::{ProgramBuilder, QueueId};
    use std::sync::Arc;

    #[test]
    fn lone_blocked_main_is_deadlock() {
        let queues = vec![SpscQueue::new(4, false)];
        let m = Monitor::new(1);
        let out = m.wait(0, BlockInfo::consume(0), &queues);
        assert!(matches!(out, WaitOutcome::Fail));
        assert!(matches!(
            m.verdict(),
            Some(Verdict::Fail(RtError::Deadlock { .. }))
        ));
    }

    #[test]
    fn blocked_aux_parks_after_main_terminates() {
        let queues = Arc::new(vec![SpscQueue::new(4, false)]);
        let m = Arc::new(Monitor::new(2));
        let (mc, qc) = (Arc::clone(&m), Arc::clone(&queues));
        let aux = std::thread::spawn(move || mc.wait(1, BlockInfo::consume(0), &qc));
        std::thread::sleep(Duration::from_millis(5));
        m.terminate(0, &queues);
        assert!(matches!(aux.join().unwrap(), WaitOutcome::Park));
        assert!(matches!(m.verdict(), Some(Verdict::Park)));
    }

    #[test]
    fn satisfiable_wait_returns_ready() {
        let queues = Arc::new(vec![SpscQueue::new(1, false)]);
        let m = Arc::new(Monitor::new(2));
        let (mc, qc) = (Arc::clone(&m), Arc::clone(&queues));
        let consumer = std::thread::spawn(move || mc.wait(1, BlockInfo::consume(0), &qc));
        std::thread::sleep(Duration::from_millis(5));
        assert!(queues[0].try_produce(9));
        m.notify_activity();
        assert!(matches!(consumer.join().unwrap(), WaitOutcome::Ready));
        assert!(m.verdict().is_none());
    }

    #[test]
    fn fail_wakes_waiters() {
        let queues = Arc::new(vec![SpscQueue::new(1, false)]);
        let m = Arc::new(Monitor::new(2));
        let (mc, qc) = (Arc::clone(&m), Arc::clone(&queues));
        let waiter = std::thread::spawn(move || mc.wait(1, BlockInfo::consume(0), &qc));
        std::thread::sleep(Duration::from_millis(5));
        m.fail(RtError::StepLimit(1));
        assert!(matches!(waiter.join().unwrap(), WaitOutcome::Fail));
    }

    #[test]
    fn blocked_stage_publishes_before_it_parks() {
        // Main writes one value into a batch-64 chunk it never fills, then
        // blocks consuming the echo. Only the publish-before-blocking rule
        // can show the value to the echo stage; without it both stages
        // would block and the monitor would call a deadlock.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let (x, r, base) = (f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(x, 7);
        f.produce(QueueId(0), x);
        f.consume(r, QueueId(1));
        f.iconst(base, 0);
        f.store(r, base, 0);
        f.halt();
        let main = f.finish();
        let mut g = pb.function("echo");
        let e2 = g.entry_block();
        let v = g.reg();
        g.switch_to(e2);
        g.consume(v, QueueId(0));
        g.produce(QueueId(1), v);
        g.halt();
        let echo = g.finish();
        let mut p = pb.finish(main, 1);
        p.num_queues = 2;
        p.add_thread(echo);

        let r = run_native(&p, RtConfig::default().batch(64)).unwrap();
        assert_eq!(r.memory[0], 7);
        assert_eq!(r.queues[0].flush_sizes.count, 1);
    }

    #[test]
    fn full_queue_nobody_drains_is_deadlock() {
        // Main blocks producing into a full queue that no thread consumes:
        // it holds nothing unpublished, so nothing can ever change.
        let queues = vec![SpscQueue::new(1, false)];
        assert!(queues[0].try_produce(1));
        let m = Monitor::new(1);
        let out = m.wait(0, BlockInfo::produce(0), &queues);
        assert!(matches!(out, WaitOutcome::Fail));
        assert!(matches!(
            m.verdict(),
            Some(Verdict::Fail(RtError::Deadlock { .. }))
        ));
    }
}
