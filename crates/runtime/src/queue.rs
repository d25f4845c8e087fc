//! Bounded single-producer/single-consumer ring-buffer queues — the native
//! realization of the paper's *synchronization array* (Section 2.1).
//!
//! Each DSWP queue connects exactly one producer stage to one consumer
//! stage, so the transfer path needs no locks: a fixed slot array plus two
//! monotonic atomic cursors. The shared part, [`SpscQueue`], holds the
//! slots, the cursors, the poison flag and the statistics. Its two sides
//! are the endpoint types [`Producer`] and [`Consumer`]: at most one of
//! each exists per queue at a time (a second claim of a side is refused),
//! and neither is `Clone` or `Sync`, so single-producer/single-consumer is
//! a property of the types, not of the callers.
//!
//! The endpoints batch *in the ring itself*. A [`Producer`] writes each
//! value straight into its slot and keeps the new tail private; one
//! [`publish`](Producer::publish) makes every written value visible with a
//! single release store of `tail` (and with it the producer's preceding
//! ordinary memory writes — the property DSWP's memory-synchronization
//! flows rely on). A [`Consumer`] acquires a batch of published values
//! with one acquire load of `tail` ([`refill`](Consumer::refill)), reads
//! them straight out of their slots, and hands the slots back with one
//! release store ([`release`](Consumer::release)). Acquired values leave
//! the queue's capacity at once; the runtime's rings keep extra slots for
//! them while they are read. Each side caches its view of the peer's
//! cursors and re-reads it only when that view runs out — the producer
//! when the queue looks full, the consumer when its cached tail cannot
//! fill a whole batch — and each keeps a wrapping slot index beside its
//! cursor, so no slot costs a `%`.
//!
//! The hardware synchronization array the paper models costs roughly a
//! cycle per `produce`/`consume`; a software queue costs a cross-core
//! cache-line transfer per cursor update. Batching amortizes that gap over
//! a chunk of values; *when* to publish, refill and release is the
//! runtime worker's policy, not this module's.
//!
//! Blocking (full queue on produce, empty queue on consume) is *not*
//! handled here either; the runtime's internal `Monitor` parks and unparks
//! threads and performs global deadlock detection. The one-call
//! [`push_batch`](SpscQueue::push_batch), [`pop_batch`](SpscQueue::pop_batch),
//! [`try_produce`](SpscQueue::try_produce) and
//! [`try_consume`](SpscQueue::try_consume) claim their side for the
//! duration of the call, for code that does not keep an endpoint.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Pads a hot atomic to its own cache line to avoid false sharing between
/// the producer's and consumer's cursors (the paper's Section 4.2 studies
/// exactly this effect in its `bslive` experiment).
#[repr(align(64))]
#[derive(Debug, Default)]
struct CacheLine<T>(T);

/// Slots per cache line.
const LINE_SLOTS: usize = 8;

/// One cache line of ring slots. Line-aligned, so a producer writing one
/// chunk and a consumer reading the previous one touch different lines
/// whenever the chunk size is a multiple of eight.
#[repr(align(64))]
#[derive(Debug)]
struct SlotLine([UnsafeCell<i64>; LINE_SLOTS]);

/// Number of power-of-two histogram buckets: sizes 1, 2–3, 4–7, … , ≥128.
const HIST_BUCKETS: usize = 8;

/// Single-writer histogram of batch sizes. Only the owning endpoint thread
/// (producer for flushes, consumer for refills) records into it, so plain
/// load+store on the atomics is exact — the atomics exist only so the
/// runtime thread can snapshot after joining.
#[derive(Debug, Default)]
struct Histo {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histo {
    fn record(&self, n: usize) {
        let b = (usize::BITS - 1 - (n | 1).leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize;
        let bucket = &self.buckets[b];
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.sum.store(
            self.sum.load(Ordering::Relaxed) + n as u64,
            Ordering::Relaxed,
        );
    }

    fn snapshot(&self) -> BatchHistogram {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        BatchHistogram {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of a batch-size distribution (flushes or refills) with
/// power-of-two buckets: `buckets[i]` counts batches of size
/// `2^i ..= 2^(i+1)-1` (last bucket is open-ended).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchHistogram {
    /// Power-of-two size buckets: 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64–127,
    /// ≥128.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total number of batches recorded.
    pub count: u64,
    /// Total number of values across all batches.
    pub sum: u64,
}

impl BatchHistogram {
    /// Records one batch of `n` values (single-owner accumulation — the
    /// worker-side counterpart of [`Histo::record`]).
    pub(crate) fn add(&mut self, n: usize) {
        let b = (usize::BITS - 1 - (n | 1).leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += n as u64;
    }

    /// Mean batch size, or 0.0 when nothing was recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Owner id of endpoints claimed through the public API (runtime stages
/// claim with their hardware-context index).
const EXTERNAL: usize = usize::MAX - 1;

/// Statistics written only by the producer endpoint, grouped onto their own
/// cache line(s) with the producer side's claim word. Before this grouping,
/// `producer_blocks` and `consumer_blocks` sat adjacent in the struct: a
/// producer stalling on a full queue and a consumer stalling on an empty
/// one would ping-pong the same line between cores on every failed attempt
/// — false sharing on the *statistics*, precisely the effect the padded
/// cursors already avoid on the transfer path.
#[repr(align(64))]
#[derive(Debug, Default)]
struct ProducerSide {
    /// Who holds the [`Producer`]: 0 when nobody does, else owner id + 1.
    owner: AtomicUsize,
    /// Maximum occupancy the producer observed when publishing.
    max_occupancy: AtomicUsize,
    /// Times the producer found the queue full.
    blocks: AtomicU64,
    /// Sizes of successful producer-side publishes.
    flush_hist: Histo,
}

/// The consumer endpoint's claim word and statistics (see
/// [`ProducerSide`]).
#[repr(align(64))]
#[derive(Debug, Default)]
struct ConsumerSide {
    /// Who holds the [`Consumer`]: 0 when nobody does, else owner id + 1.
    owner: AtomicUsize,
    /// Times the consumer found the queue empty.
    blocks: AtomicU64,
    /// Sizes of successful consumer-side acquires (refills).
    refill_hist: Histo,
}

/// The shared part of a bounded SPSC queue of `i64` words: slots, cursors,
/// poison flag and statistics. Values move through its [`Producer`] and
/// [`Consumer`] endpoints.
#[derive(Debug)]
pub struct SpscQueue {
    /// `ring` slots, in whole cache lines.
    slots: Box<[SlotLine]>,
    /// The most values published and not yet acquired by the consumer.
    capacity: usize,
    /// Slots in use: `capacity`, plus room for the batch the consumer has
    /// acquired and is still reading.
    ring: usize,
    /// Consumer cursors, on the consumer's cache line.
    head: CacheLine<Head>,
    /// Producer cursor: number of values published so far.
    tail: CacheLine<AtomicUsize>,
    /// Producer-endpoint claim and statistics, on their own cache line(s).
    producer: ProducerSide,
    /// Consumer-endpoint claim and statistics, on their own cache line(s).
    consumer: ConsumerSide,
    /// Produced-value log (only filled when stream recording is on).
    stream: Mutex<Vec<i64>>,
    record_stream: bool,
    /// Set when an endpoint stage died (crash recovery) or a fault plan
    /// poisons the queue: producers must stop, consumers may drain what is
    /// already published and must then stop.
    poisoned: AtomicBool,
}

/// The consumer's two cursors. A value is *acquired* when a refill takes it
/// into the consumer's batch (it no longer counts towards the capacity) and
/// *released* when the consumer has read it and hands its slot back.
#[derive(Debug, Default)]
struct Head {
    acquired: AtomicUsize,
    released: AtomicUsize,
}

// SAFETY: the only code that touches the `UnsafeCell` slots is in
// `Producer` (writes) and `Consumer` (reads). A side is claimed with a
// compare-exchange on its owner word, so at most one `Producer` and one
// `Consumer` exist per queue at a time, and neither endpoint is `Clone` or
// `Sync`. A producer writes only slots the consumer has released (its
// `limit` never exceeds an acquire load of `released` plus `ring`) and
// publishes them with a release store of `tail`; a consumer reads only
// slots below an acquire load of `tail` and hands them back with a release
// store of `released`. The cursors therefore order every slot access.
unsafe impl Sync for SpscQueue {}

/// Occupancy and traffic statistics of one queue, mirroring the simulator's
/// `OccupancyStats` at per-queue granularity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Configured capacity in values.
    pub capacity: usize,
    /// Total values published over the run.
    pub produced: u64,
    /// Total values released by the consumer over the run.
    pub consumed: u64,
    /// Maximum occupancy — values published and not yet acquired by the
    /// consumer — the producer observed at a publish. The producer re-reads
    /// the consumer's cursors only when its cached view says the queue is
    /// full, so this is an upper bound on the true peak, and never above
    /// the capacity.
    pub max_occupancy: usize,
    /// Produce attempts that found the queue full (backpressure events).
    pub producer_blocks: u64,
    /// Consume attempts that found the queue empty (starvation events).
    pub consumer_blocks: u64,
    /// Distribution of producer-side publish (flush) sizes.
    pub flush_sizes: BatchHistogram,
    /// Distribution of consumer-side acquire (refill) sizes.
    pub refill_sizes: BatchHistogram,
}

impl SpscQueue {
    /// Creates a queue with `capacity` slots (`capacity >= 1`).
    pub fn new(capacity: usize, record_stream: bool) -> Self {
        Self::with_reserve(capacity, 0, record_stream)
    }

    /// Creates a queue of `capacity` values (`capacity >= 1`) whose ring has
    /// `reserve` more slots for the batch the consumer is reading: with
    /// refills of up to `reserve` values, the producer never waits for the
    /// consumer to finish reading a batch it has already taken out of the
    /// queue.
    pub(crate) fn with_reserve(capacity: usize, reserve: usize, record_stream: bool) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        let ring = capacity + reserve;
        SpscQueue {
            slots: (0..ring.div_ceil(LINE_SLOTS))
                .map(|_| SlotLine(Default::default()))
                .collect(),
            capacity,
            ring,
            head: CacheLine(Head::default()),
            tail: CacheLine(AtomicUsize::new(0)),
            producer: ProducerSide::default(),
            consumer: ConsumerSide::default(),
            stream: Mutex::new(Vec::new()),
            record_stream,
            poisoned: AtomicBool::new(false),
        }
    }

    /// Claims the producer side. Returns `None` while another [`Producer`]
    /// of this queue is alive; dropping it frees the side again.
    ///
    /// ```
    /// use dswp_rt::queue::SpscQueue;
    ///
    /// let q = SpscQueue::new(4, false);
    /// let mut p = q.producer().expect("the side is free");
    /// assert!(q.producer().is_none()); // a second producer is refused
    /// assert!(p.try_write(7));
    /// p.publish();
    /// drop(p);
    /// assert!(q.producer().is_some()); // free again
    /// assert_eq!(q.try_consume(), Some(7));
    /// ```
    pub fn producer(&self) -> Option<Producer<'_>> {
        self.claim_producer(EXTERNAL).ok()
    }

    /// Claims the consumer side. Returns `None` while another [`Consumer`]
    /// of this queue is alive; dropping it frees the side again.
    pub fn consumer(&self) -> Option<Consumer<'_>> {
        self.claim_consumer(EXTERNAL).ok()
    }

    /// The cell of slot `i` (`i < ring`).
    #[inline]
    fn slot(&self, i: usize) -> &UnsafeCell<i64> {
        &self.slots[i / LINE_SLOTS].0[i % LINE_SLOTS]
    }

    /// Claims the producer side for `owner`, or returns the current owner.
    pub(crate) fn claim_producer(&self, owner: usize) -> Result<Producer<'_>, usize> {
        claim(&self.producer.owner, owner)?;
        // The claim's acquire orders this load after the previous owner's
        // last publish, so the endpoint resumes where that one stopped.
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut p = Producer {
            q: self,
            tail,
            published: tail,
            limit: tail,
            acquired: tail,
            slot: tail % self.ring,
            _not_sync: PhantomData,
        };
        p.refresh();
        Ok(p)
    }

    /// Claims the consumer side for `owner`, or returns the current owner.
    pub(crate) fn claim_consumer(&self, owner: usize) -> Result<Consumer<'_>, usize> {
        claim(&self.consumer.owner, owner)?;
        // A previous consumer may have left acquired values unread: this
        // one reads them first.
        let head = self.head.0.released.load(Ordering::Relaxed);
        let end = self.head.0.acquired.load(Ordering::Relaxed);
        Ok(Consumer {
            q: self,
            head,
            released: head,
            end,
            tail_seen: end,
            slot: head % self.ring,
            _not_sync: PhantomData,
        })
    }

    /// Marks the queue as poisoned: one of its endpoint stages is dead (or
    /// a fault plan says so). Blocked peers observe the flag through the
    /// monitor and shut down with a structured error instead of waiting for
    /// values that will never arrive (or never be consumed).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether [`poison`](Self::poison) was called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Counts one blocked produce attempt (called from the producer thread).
    pub(crate) fn count_producer_block(&self) {
        self.producer.blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one blocked consume attempt (called from the consumer thread).
    pub(crate) fn count_consumer_block(&self) {
        self.consumer.blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Enqueues a prefix of `vals`, publishing however many fit with a
    /// **single** release store of `tail`. Returns the number of values
    /// accepted (0 when the queue is full or `vals` is empty).
    ///
    /// # Panics
    ///
    /// If a [`Producer`] of this queue is alive (the side is claimed for
    /// the duration of the call).
    ///
    /// ```
    /// use dswp_rt::queue::SpscQueue;
    ///
    /// let q = SpscQueue::new(4, false);
    /// assert_eq!(q.push_batch(&[1, 2, 3]), 3);
    /// // Only one slot left: the batch is truncated, never split or lost.
    /// assert_eq!(q.push_batch(&[4, 5]), 1);
    /// assert_eq!(q.push_batch(&[6]), 0); // full
    /// assert_eq!(q.len(), 4);
    /// ```
    pub fn push_batch(&self, vals: &[i64]) -> usize {
        let mut p = self
            .producer()
            .expect("push_batch: the producer side of this queue is claimed");
        let n = vals.iter().take_while(|&&v| p.try_write(v)).count();
        p.publish();
        n
    }

    /// Dequeues up to `max` values into `out`, acquiring them with a
    /// **single** acquire of `tail` and releasing their slots with a single
    /// release store of `head`. Returns the number of values appended.
    ///
    /// # Panics
    ///
    /// If a [`Consumer`] of this queue is alive (the side is claimed for
    /// the duration of the call).
    ///
    /// ```
    /// use dswp_rt::queue::SpscQueue;
    ///
    /// let q = SpscQueue::new(8, false);
    /// q.push_batch(&[10, 20, 30]);
    /// let mut out = Vec::new();
    /// assert_eq!(q.pop_batch(&mut out, 2), 2); // bounded by `max`
    /// assert_eq!(q.pop_batch(&mut out, 16), 1); // bounded by occupancy
    /// assert_eq!(out, vec![10, 20, 30]);
    /// ```
    pub fn pop_batch(&self, out: &mut Vec<i64>, max: usize) -> usize {
        let mut c = self
            .consumer()
            .expect("pop_batch: the consumer side of this queue is claimed");
        let before = out.len();
        out.reserve(c.refill(max));
        out.extend(std::iter::from_fn(|| c.read()).take(max));
        c.release();
        out.len() - before
    }

    /// Attempts to enqueue `v`. Returns `false` when the queue is full.
    ///
    /// # Panics
    ///
    /// If a [`Producer`] of this queue is alive.
    pub fn try_produce(&self, v: i64) -> bool {
        self.push_batch(std::slice::from_ref(&v)) == 1
    }

    /// Attempts to dequeue a value. Returns `None` when the queue is empty.
    ///
    /// # Panics
    ///
    /// If a [`Consumer`] of this queue is alive.
    pub fn try_consume(&self) -> Option<i64> {
        let mut c = self
            .consumer()
            .expect("try_consume: the consumer side of this queue is claimed");
        c.refill(1);
        let v = c.read();
        c.release();
        v
    }

    /// Current occupancy: published values the consumer has not acquired
    /// (racy snapshot; exact from the owning threads).
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        tail.wrapping_sub(self.head.0.acquired.load(Ordering::Acquire))
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a producer could not write now (racy snapshot): the queue
    /// holds `capacity` values, or every slot of the ring is still being
    /// read.
    pub fn is_full(&self) -> bool {
        let tail = self.tail.0.load(Ordering::Acquire);
        let released = self.head.0.released.load(Ordering::Acquire);
        self.len() >= self.capacity || tail.wrapping_sub(released) >= self.ring
    }

    /// Final statistics. Exact once all stage threads have joined.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            capacity: self.capacity,
            produced: self.tail.0.load(Ordering::Acquire) as u64,
            consumed: self.head.0.released.load(Ordering::Acquire) as u64,
            max_occupancy: self.producer.max_occupancy.load(Ordering::Relaxed),
            producer_blocks: self.producer.blocks.load(Ordering::Relaxed),
            consumer_blocks: self.consumer.blocks.load(Ordering::Relaxed),
            flush_sizes: self.producer.flush_hist.snapshot(),
            refill_sizes: self.consumer.refill_hist.snapshot(),
        }
    }

    /// Drains the recorded produced-value stream.
    pub fn take_stream(&self) -> Vec<i64> {
        std::mem::take(&mut *self.lock_stream())
    }

    /// Locks the stream log, tolerating poisoning: a stage that crashed
    /// mid-publish must not take the survivors down with a second panic.
    fn lock_stream(&self) -> std::sync::MutexGuard<'_, Vec<i64>> {
        self.stream
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Takes a side's claim word from free to `owner`, or returns the current
/// owner. Pairs with the release store in the endpoint's `Drop`.
fn claim(word: &AtomicUsize, owner: usize) -> Result<(), usize> {
    word.compare_exchange(0, owner + 1, Ordering::Acquire, Ordering::Relaxed)
        .map(drop)
        .map_err(|held| held - 1)
}

/// The producer endpoint of an [`SpscQueue`]: the only writer of its
/// slots and of its `tail` cursor.
///
/// Written values stay private until [`publish`](Self::publish). A producer
/// can be sent to another thread, but not cloned or shared:
///
/// ```compile_fail
/// use dswp_rt::queue::SpscQueue;
///
/// let q = SpscQueue::new(4, false);
/// let p = q.producer().unwrap();
/// let second = p.clone(); // error: `Producer` is not `Clone`
/// ```
///
/// ```
/// use dswp_rt::queue::SpscQueue;
///
/// let q = SpscQueue::new(4, false);
/// let mut p = q.producer().unwrap();
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         p.try_write(1);
///         p.publish();
///     });
/// });
/// assert_eq!(q.try_consume(), Some(1));
/// ```
#[derive(Debug)]
pub struct Producer<'q> {
    q: &'q SpscQueue,
    /// Values written so far, published or not: the private tail.
    tail: usize,
    /// The tail last published to the consumer.
    published: usize,
    /// The tail at which the queue is full by the cached view of the
    /// consumer's cursors.
    limit: usize,
    /// The cached view of the consumer's `acquired` cursor.
    acquired: usize,
    /// Slot index of `tail`.
    slot: usize,
    _not_sync: PhantomData<Cell<()>>,
}

impl Producer<'_> {
    /// Writes `v` into the next slot without publishing it. Returns `false`
    /// when the queue is full; only then does the producer re-read the
    /// consumer's cursors.
    #[inline]
    pub fn try_write(&mut self, v: i64) -> bool {
        if self.tail == self.limit && !self.refresh() {
            return false;
        }
        // SAFETY: `tail < limit <= released + ring` for an acquire load of
        // `released`, so the consumer released this slot's previous value
        // and will not read the slot again until a publish covers `tail`.
        // This endpoint is the queue's only writer (see `SpscQueue`'s
        // `Sync`).
        unsafe { *self.q.slot(self.slot).get() = v };
        self.slot += 1;
        if self.slot == self.q.ring {
            self.slot = 0;
        }
        self.tail = self.tail.wrapping_add(1);
        true
    }

    /// Re-reads the consumer's cursors after the cached view said full;
    /// returns whether there is room now. The queue may hold `capacity`
    /// values beyond `acquired`, and the ring `ring` beyond `released`.
    #[cold]
    fn refresh(&mut self) -> bool {
        let q = self.q;
        let released = q.head.0.released.load(Ordering::Acquire);
        self.acquired = q.head.0.acquired.load(Ordering::Relaxed);
        let room = (self.acquired.wrapping_sub(released))
            .saturating_add(q.capacity)
            .min(q.ring);
        self.limit = released.wrapping_add(room);
        self.tail != self.limit
    }

    /// Written values not yet published.
    #[inline]
    pub fn pending(&self) -> usize {
        self.tail.wrapping_sub(self.published)
    }

    /// Makes every written value visible to the consumer with one release
    /// store of `tail`, and returns how many that was. Never needs free
    /// space: the values already sit in their slots.
    pub fn publish(&mut self) -> usize {
        let n = self.pending();
        if n == 0 {
            return 0;
        }
        let q = self.q;
        if q.record_stream {
            // The `n` pending values end just before `slot`, wrapping.
            let first = if self.slot >= n {
                self.slot - n
            } else {
                self.slot + q.ring - n
            };
            let pending = (first..q.ring).chain(0..first).take(n);
            // SAFETY: these slots hold this producer's own unpublished
            // writes; the consumer cannot touch them before the store
            // below.
            q.lock_stream()
                .extend(pending.map(|i| unsafe { *q.slot(i).get() }));
        }
        q.tail.0.store(self.tail, Ordering::Release);
        self.published = self.tail;
        // Only the producer writes these; load+store beats an RMW.
        let occupancy = self.tail.wrapping_sub(self.acquired);
        let max = &q.producer.max_occupancy;
        if occupancy > max.load(Ordering::Relaxed) {
            max.store(occupancy, Ordering::Relaxed);
        }
        q.producer.flush_hist.record(n);
        n
    }
}

impl Drop for Producer<'_> {
    /// Frees the side. Unpublished values are dropped with the endpoint:
    /// a stage that dies mid-chunk must not hand its peers a chunk it
    /// never finished.
    fn drop(&mut self) {
        self.q.producer.owner.store(0, Ordering::Release);
    }
}

/// The consumer endpoint of an [`SpscQueue`]: the only reader of its slots
/// and the only writer of its `acquired` and `released` cursors.
///
/// A consumer acquires published values in batches
/// ([`refill`](Self::refill)), reads them one by one
/// ([`read`](Self::read)) and hands their slots back to the producer with
/// [`release`](Self::release). It can be sent to another thread, but not
/// cloned or shared:
///
/// ```compile_fail
/// use dswp_rt::queue::SpscQueue;
///
/// let q = SpscQueue::new(4, false);
/// let c = q.consumer().unwrap();
/// std::thread::scope(|s| {
///     // error: `Consumer` is not `Sync`, so `&Consumer` is not `Send`
///     s.spawn(|| drop(&c));
///     s.spawn(|| drop(&c));
/// });
/// ```
#[derive(Debug)]
pub struct Consumer<'q> {
    q: &'q SpscQueue,
    /// Values read so far, released or not: the private head.
    head: usize,
    /// The head last released to the producer.
    released: usize,
    /// End of the acquired batch: values `head..end` may be read.
    end: usize,
    /// The tail the consumer last loaded.
    tail_seen: usize,
    /// Slot index of `head`.
    slot: usize,
    _not_sync: PhantomData<Cell<()>>,
}

impl Consumer<'_> {
    /// Acquires up to `max` more published values for [`read`](Self::read)
    /// and returns how many; they leave the queue's capacity at once. Re-reads
    /// `tail` only when the cached view cannot fill a whole batch of `max`.
    pub fn refill(&mut self, max: usize) -> usize {
        if self.tail_seen.wrapping_sub(self.end) < max {
            self.tail_seen = self.q.tail.0.load(Ordering::Acquire);
        }
        let n = self.tail_seen.wrapping_sub(self.end).min(max);
        if n > 0 {
            self.touch(n);
            self.end = self.end.wrapping_add(n);
            self.q.head.0.acquired.store(self.end, Ordering::Relaxed);
            self.q.consumer.refill_hist.record(n);
        }
        n
    }

    /// Loads one slot of every cache line among the `n` values after
    /// `end`, so the lines the producer wrote travel to this core at once,
    /// as a copy out of the ring would fetch them, rather than one miss at
    /// a time as [`read`](Self::read) reaches each line.
    fn touch(&self, n: usize) {
        let ring = self.q.ring;
        let mut slot = self.slot + self.end.wrapping_sub(self.head);
        if slot >= ring {
            slot -= ring;
        }
        let mut seen = 0i64;
        let mut k = 0;
        while k < n {
            // SAFETY: the value at position `end + k` is published
            // (`end + k < tail_seen`), as for `read`.
            seen ^= unsafe { *self.q.slot(slot).get() };
            let step = LINE_SLOTS - slot % LINE_SLOTS;
            k += step;
            slot += step;
            if slot >= ring {
                slot -= ring;
            }
        }
        std::hint::black_box(seen);
    }

    /// The next acquired value, or `None` when the acquired batch is used
    /// up. Its slot stays the consumer's until [`release`](Self::release).
    #[inline]
    pub fn read(&mut self) -> Option<i64> {
        if self.head == self.end {
            return None;
        }
        // SAFETY: `head < end <= tail_seen`, which came from an acquire
        // load of `tail`, so the producer's write to this slot is visible;
        // the producer will not overwrite it before a release covers it.
        // This endpoint is the queue's only reader.
        let v = unsafe { *self.q.slot(self.slot).get() };
        self.slot += 1;
        if self.slot == self.q.ring {
            self.slot = 0;
        }
        self.head = self.head.wrapping_add(1);
        Some(v)
    }

    /// Whether every acquired value has been read.
    #[inline]
    pub fn is_drained(&self) -> bool {
        self.head == self.end
    }

    /// Hands the slots of every read value back to the producer with one
    /// release store of `released`, and returns how many that was.
    pub fn release(&mut self) -> usize {
        let n = self.head.wrapping_sub(self.released);
        if n > 0 {
            self.q.head.0.released.store(self.head, Ordering::Release);
            self.released = self.head;
        }
        n
    }
}

impl Drop for Consumer<'_> {
    /// Releases the slots of every read value, then frees the side. Values
    /// acquired but not read stay acquired for the next consumer.
    fn drop(&mut self) {
        self.release();
        self.q.consumer.owner.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dswp_testutil::{cases, Rng};
    use std::collections::VecDeque;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = SpscQueue::new(4, false);
        assert!(q.try_produce(1));
        assert!(q.try_produce(2));
        assert!(q.try_produce(3));
        assert_eq!(q.try_consume(), Some(1));
        assert!(q.try_produce(4));
        assert!(q.try_produce(5));
        assert!(q.is_full());
        assert!(!q.try_produce(6));
        assert_eq!(q.try_consume(), Some(2));
        assert_eq!(q.try_consume(), Some(3));
        assert_eq!(q.try_consume(), Some(4));
        assert_eq!(q.try_consume(), Some(5));
        assert_eq!(q.try_consume(), None);
        assert_eq!(q.stats().max_occupancy, 4);
        assert_eq!(q.stats().produced, 5);
    }

    #[test]
    fn capacity_one_ping_pongs() {
        let q = SpscQueue::new(1, false);
        for i in 0..100 {
            assert!(q.try_produce(i));
            assert!(!q.try_produce(i));
            assert_eq!(q.try_consume(), Some(i));
            assert_eq!(q.try_consume(), None);
        }
    }

    #[test]
    fn batch_push_accepts_prefix_when_nearly_full() {
        let q = SpscQueue::new(4, false);
        assert_eq!(q.push_batch(&[1, 2, 3]), 3);
        assert_eq!(q.push_batch(&[4, 5, 6]), 1); // only one slot left
        assert_eq!(q.push_batch(&[9]), 0); // full
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 10), 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(q.pop_batch(&mut out, 10), 0);
    }

    #[test]
    fn batch_roundtrip_across_wraparound() {
        let q = SpscQueue::new(8, false);
        let mut next = 0i64;
        let mut expect = 0i64;
        let mut out = Vec::new();
        for round in 0..100 {
            let chunk: Vec<i64> = (0..(round % 7 + 1))
                .map(|_| {
                    next += 1;
                    next
                })
                .collect();
            let pushed = q.push_batch(&chunk);
            out.clear();
            q.pop_batch(&mut out, 16);
            for &v in &out {
                expect += 1;
                assert_eq!(v, expect);
            }
            // Push whatever didn't fit so values are never lost.
            let mut rest = &chunk[pushed..];
            while !rest.is_empty() {
                let n = q.push_batch(rest);
                rest = &rest[n..];
                if n == 0 {
                    out.clear();
                    q.pop_batch(&mut out, 16);
                    for &v in &out {
                        expect += 1;
                        assert_eq!(v, expect);
                    }
                }
            }
        }
        out.clear();
        q.pop_batch(&mut out, usize::MAX);
        for &v in &out {
            expect += 1;
            assert_eq!(v, expect);
        }
        assert_eq!(expect, next);
    }

    #[test]
    fn pop_batch_is_bounded_by_max() {
        let q = SpscQueue::new(8, false);
        assert_eq!(q.push_batch(&[1, 2, 3, 4, 5]), 5);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 2), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.pop_batch(&mut out, 0), 0);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn histograms_count_batch_sizes() {
        let q = SpscQueue::new(64, false);
        q.push_batch(&[0; 16]);
        q.push_batch(&[0; 1]);
        let mut out = Vec::new();
        q.pop_batch(&mut out, 17);
        let s = q.stats();
        assert_eq!(s.flush_sizes.count, 2);
        assert_eq!(s.flush_sizes.sum, 17);
        assert_eq!(s.flush_sizes.buckets[4], 1); // 16 lands in the 16–31 bucket
        assert_eq!(s.flush_sizes.buckets[0], 1); // the single value
        assert_eq!(s.refill_sizes.count, 1);
        assert_eq!(s.refill_sizes.sum, 17);
        assert!((s.refill_sizes.mean() - 17.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_batched_transfer_preserves_order_and_values() {
        const N: i64 = 100_000;
        let q = Arc::new(SpscQueue::new(32, false));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut i = 0i64;
            while i < N {
                let hi = (i + 13).min(N);
                let chunk: Vec<i64> = (i..hi).collect();
                let mut rest = &chunk[..];
                while !rest.is_empty() {
                    let n = qp.push_batch(rest);
                    rest = &rest[n..];
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
                i = hi;
            }
        });
        let mut expected = 0i64;
        let mut buf = Vec::new();
        while expected < N {
            buf.clear();
            if q.pop_batch(&mut buf, 16) == 0 {
                std::thread::yield_now();
                continue;
            }
            for &v in &buf {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
        assert!(q.stats().max_occupancy <= 32);
    }

    #[test]
    fn concurrent_transfer_preserves_order_and_values() {
        const N: i64 = 100_000;
        let q = Arc::new(SpscQueue::new(8, false));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                while !qp.try_produce(i) {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = q.try_consume() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
        assert!(q.stats().max_occupancy <= 8);
    }

    #[test]
    fn poisoning_still_allows_draining() {
        let q = SpscQueue::new(4, false);
        assert!(q.try_produce(1));
        assert!(q.try_produce(2));
        assert!(!q.is_poisoned());
        q.poison();
        assert!(q.is_poisoned());
        // Buffered values survive poisoning; the *blocking* layer decides
        // that producers stop and consumers stop once drained.
        assert_eq!(q.try_consume(), Some(1));
        assert_eq!(q.try_consume(), Some(2));
        assert_eq!(q.try_consume(), None);
    }

    #[test]
    fn stream_recording() {
        let q = SpscQueue::new(4, true);
        q.try_produce(7);
        q.try_produce(8);
        q.try_consume();
        assert_eq!(q.take_stream(), vec![7, 8]);
    }

    #[test]
    fn stream_records_batches_in_order() {
        let q = SpscQueue::new(4, true);
        assert_eq!(q.push_batch(&[1, 2, 3]), 3);
        let mut out = Vec::new();
        q.pop_batch(&mut out, 2);
        assert_eq!(q.push_batch(&[4, 5, 6]), 3);
        assert_eq!(q.take_stream(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn a_side_is_claimed_once_until_its_endpoint_drops() {
        let q = SpscQueue::new(4, false);
        let p = q.claim_producer(3).unwrap();
        let c = q.claim_consumer(5).unwrap();
        assert_eq!(q.claim_producer(7).err(), Some(3));
        assert_eq!(q.claim_consumer(7).err(), Some(5));
        assert!(q.producer().is_none() && q.consumer().is_none());
        drop(p);
        assert!(q.claim_producer(7).is_ok());
        drop(c);
        assert!(q.consumer().is_some());
    }

    #[test]
    #[should_panic(expected = "producer side of this queue is claimed")]
    fn wrapper_refuses_a_claimed_side() {
        let q = SpscQueue::new(4, false);
        let _p = q.producer().unwrap();
        q.push_batch(&[1]);
    }

    #[test]
    fn dropped_endpoints_keep_only_what_they_published() {
        let q = SpscQueue::new(4, false);
        let mut p = q.producer().unwrap();
        assert!(p.try_write(1) && p.try_write(2));
        p.publish();
        assert!(p.try_write(3));
        drop(p);
        assert_eq!(q.len(), 2); // the unpublished 3 is gone
        let mut c = q.consumer().unwrap();
        assert_eq!(c.refill(4), 2);
        assert_eq!(c.read(), Some(1));
        drop(c);
        // The read value's slot went back; the unread one stays acquired,
        // and the next consumer reads it first.
        assert_eq!(q.stats().consumed, 1);
        assert_eq!(q.len(), 0);
        assert_eq!(q.try_consume(), Some(2));
        assert_eq!(q.stats().consumed, 2);
    }

    /// The queue as the model sees it: every value by position, and the
    /// five cursors of the two endpoints.
    #[derive(Default)]
    struct Model {
        /// Values at positions `released..tail`.
        ring: VecDeque<i64>,
        /// Written (private tail), published, acquired (view end), read
        /// (private head) and released positions.
        tail: usize,
        published: usize,
        end: usize,
        head: usize,
        released: usize,
        /// The producer's cached view of `end` and `released`: re-read only
        /// when it says full.
        end_seen: usize,
        released_seen: usize,
        max_occupancy: usize,
        flushes: BatchHistogram,
        refills: BatchHistogram,
    }

    impl Model {
        fn value_at(&self, pos: usize) -> i64 {
            self.ring[pos - self.released]
        }

        /// The tail at which the producer's cached view says full.
        fn limit(&self, capacity: usize, ring: usize) -> usize {
            (self.end_seen + capacity).min(self.released_seen + ring)
        }
    }

    /// Random write / publish / refill / read / release / poison sequences
    /// against the model, at capacities 1–64 with random reading reserves
    /// and publish cadences:
    /// an unpublished value is invisible, order is FIFO with no loss or
    /// duplication, the statistics match, and after poison the consumer
    /// drains what was published and then finds nothing more.
    #[test]
    fn endpoints_match_a_vecdeque_model() {
        for seed in 0..cases(200) as u64 {
            let mut rng = Rng::new(seed ^ 0x454E_4450); // "ENDP"
            let capacity = rng.range(1, 65);
            let reserve = rng.range(0, capacity + 1);
            let ring = capacity + reserve;
            let cadence = rng.range(1, 2 * capacity + 2);
            let record = rng.bool();
            let q = SpscQueue::with_reserve(capacity, reserve, record);
            let mut p = q.producer().unwrap();
            let mut c = q.consumer().unwrap();
            let mut m = Model::default();
            let mut next = 0i64;
            let ctx =
                format!("seed {seed}, capacity {capacity}, reserve {reserve}, cadence {cadence}");

            for _ in 0..rng.range(1, 3_000) {
                match rng.below(10) {
                    0..=3 => {
                        // Write, publishing at the cadence.
                        if m.tail == m.limit(capacity, ring) {
                            m.end_seen = m.end;
                            m.released_seen = m.released;
                        }
                        let room = m.tail < m.limit(capacity, ring);
                        assert_eq!(p.try_write(next), room, "{ctx}: write");
                        if room {
                            m.ring.push_back(next);
                            m.tail += 1;
                            next += 1;
                        }
                        if p.pending() >= cadence {
                            publish(&mut p, &mut m);
                        }
                    }
                    4 => publish(&mut p, &mut m),
                    5 => {
                        let max = rng.range(0, capacity + 2);
                        let n = (m.published - m.end).min(max);
                        assert_eq!(c.refill(max), n, "{ctx}: refill");
                        if n > 0 {
                            m.end += n;
                            m.refills.add(n);
                        }
                    }
                    6..=8 => {
                        let want = (m.head < m.end).then(|| m.value_at(m.head));
                        assert_eq!(c.read(), want, "{ctx}: read");
                        m.head += usize::from(want.is_some());
                        assert_eq!(c.is_drained(), m.head == m.end, "{ctx}");
                    }
                    _ => {
                        assert_eq!(c.release(), m.head - m.released, "{ctx}: release");
                        m.ring.drain(..m.head - m.released);
                        m.released = m.head;
                    }
                }
                // Only published, unacquired values are in the queue, and
                // no slot holds two live values.
                assert_eq!(q.len(), m.published - m.end, "{ctx}: len");
                assert!(m.published - m.end <= capacity, "{ctx}");
                assert!(m.tail - m.released <= ring, "{ctx}");
            }

            // Poison: the producer stops, its unpublished values never
            // appear, and the consumer drains the rest, then stops.
            q.poison();
            loop {
                while let Some(v) = c.read() {
                    assert_eq!(v, m.value_at(m.head), "{ctx}: drain");
                    m.head += 1;
                }
                c.release();
                m.ring.drain(..m.head - m.released);
                m.released = m.head;
                let n = (m.published - m.end).min(capacity);
                assert_eq!(c.refill(capacity), n, "{ctx}: drain refill");
                if n == 0 {
                    break;
                }
                m.end += n;
                m.refills.add(n);
            }
            assert!(q.is_poisoned() && q.is_empty(), "{ctx}");
            assert_eq!(m.head, m.published, "{ctx}: every published value read");
            assert_eq!(c.read(), None, "{ctx}: unpublished values stay hidden");

            let s = q.stats();
            assert_eq!(s.produced as usize, m.published, "{ctx}");
            assert_eq!(s.consumed as usize, m.published, "{ctx}");
            assert_eq!(s.flush_sizes, m.flushes, "{ctx}: flush histogram");
            assert_eq!(s.refill_sizes, m.refills, "{ctx}: refill histogram");
            assert_eq!(s.max_occupancy, m.max_occupancy, "{ctx}: max occupancy");
            assert!(s.max_occupancy <= capacity, "{ctx}");
            if record {
                let published: Vec<i64> = (0..m.published as i64).collect();
                assert_eq!(q.take_stream(), published, "{ctx}: stream");
            }
        }

        fn publish(p: &mut Producer<'_>, m: &mut Model) {
            let n = m.tail - m.published;
            assert_eq!(p.publish(), n, "publish");
            if n > 0 {
                m.published = m.tail;
                m.flushes.add(n);
                m.max_occupancy = m.max_occupancy.max(m.tail - m.end_seen);
            }
        }
    }

    #[test]
    fn concurrent_endpoints_preserve_order_at_every_cadence() {
        const N: i64 = 50_000;
        for (capacity, batch) in [(1, 1), (4, 16), (32, 16), (32, 1), (64, 64)] {
            let q = SpscQueue::new(capacity, false);
            std::thread::scope(|s| {
                let mut p = q.producer().unwrap();
                s.spawn(move || {
                    for v in 0..N {
                        while !p.try_write(v) {
                            p.publish(); // publishing never needs room
                            std::thread::yield_now();
                        }
                        if p.pending() >= batch {
                            p.publish();
                        }
                    }
                    p.publish(); // the last, partial chunk
                });
                let mut c = q.consumer().unwrap();
                let mut expected = 0;
                while expected < N {
                    if c.refill(batch) == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    while let Some(v) = c.read() {
                        assert_eq!(v, expected, "capacity {capacity}, batch {batch}");
                        expected += 1;
                    }
                    c.release();
                }
            });
            assert!(q.is_empty());
            assert!(q.stats().max_occupancy <= capacity);
        }
    }
}
