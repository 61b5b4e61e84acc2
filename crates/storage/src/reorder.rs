//! Position-ordered staging: out-of-order fills, in-order consumption.
//!
//! NoPFS runs `p_0` staging prefetch threads in parallel; their fetches
//! complete out of order, but the trainer must consume samples in exact
//! access-stream order (Rule 1 requires the *buffer* to be filled in
//! `R` order, and SGD consumes it sequentially). The paper's circular
//! staging buffer assigns each sample a slot by stream position; this
//! type reproduces that with a ring of slots, where slot `i` holds
//! stream position `next + i`: producers insert `(position, sample)` in
//! any order, the consumer pops positions `0, 1, 2, …` strictly.
//!
//! The handoff is batched on both sides. A producer hands over a run of
//! consecutive positions under one lock hold ([`ReorderStage::push_run`])
//! and the consumer takes a whole mini-batch in one call
//! ([`ReorderStage::pop_many`]). Condition variables are signalled only
//! when someone waits on them: a push wakes the consumer only when it
//! fills the head slot the consumer is blocked on, and a pop wakes
//! producers only when one is blocked for space.
//!
//! Capacity is bounded in bytes with one escape hatch: the sample the
//! consumer is waiting for (`position == next`) is always admitted, so
//! a burst of out-of-order completions can never deadlock the pipeline.

use crate::SampleId;
use bytes::Bytes;
use nopfs_obs::{names, Counter, Gauge, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Debug)]
struct State {
    /// Stream position of `slots[0]`, the next one the consumer takes.
    next: u64,
    /// `slots[i]` holds position `next + i` once it has been pushed.
    slots: VecDeque<Option<(SampleId, Bytes)>>,
    used: u64,
    closed: bool,
    /// The consumer is blocked on `data`, waiting for the head slot.
    consumer_waiting: bool,
    /// Producers blocked on `space`.
    producers_waiting: usize,
}

/// Registry handles (`staging.*` metrics): cumulative push/pop
/// counters and a live occupancy gauge, updated inside the state lock.
#[derive(Debug)]
struct Metrics {
    pushed: Counter,
    popped: Counter,
    used_bytes: Gauge,
}

#[derive(Debug)]
struct Inner {
    capacity: u64,
    state: Mutex<State>,
    metrics: Metrics,
    space: Condvar,
    data: Condvar,
}

/// A byte-bounded reorder buffer keyed by stream position. Clone to
/// share between prefetcher threads and the one consumer.
#[derive(Debug, Clone)]
pub struct ReorderStage {
    inner: Arc<Inner>,
}

impl ReorderStage {
    /// Creates a stage with the given byte capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        Self::new_in_registry(capacity, &Registry::noop())
    }

    /// Like [`Self::new`], but the stage's `staging.*` metrics register
    /// in `registry` (with its scope labels) — the worker runtime
    /// passes its rank-scoped registry so staging occupancy and
    /// push/pop rates surface in live telemetry.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new_in_registry(capacity: u64, registry: &Registry) -> Self {
        assert!(capacity > 0, "stage needs capacity");
        Self {
            inner: Arc::new(Inner {
                capacity,
                state: Mutex::new(State {
                    next: 0,
                    slots: VecDeque::new(),
                    used: 0,
                    closed: false,
                    consumer_waiting: false,
                    producers_waiting: 0,
                }),
                metrics: Metrics {
                    pushed: registry.counter(names::STAGING_PUSHED),
                    popped: registry.counter(names::STAGING_POPPED),
                    used_bytes: registry.gauge(names::STAGING_USED_BYTES),
                },
                space: Condvar::new(),
                data: Condvar::new(),
            }),
        }
    }

    /// Inserts the sample for stream position `pos`, blocking while the
    /// stage is full — unless `pos` is the position the consumer needs
    /// next, which is always admitted immediately.
    ///
    /// Returns `false` if the stage was closed.
    ///
    /// # Panics
    /// Panics if `pos` was already pushed or already consumed (every
    /// stream position is fetched exactly once).
    pub fn push(&self, pos: u64, id: SampleId, data: Bytes) -> bool {
        self.push_run(pos, [(id, data)])
    }

    /// Inserts `items` at the consecutive stream positions `base`,
    /// `base + 1`, … under one lock hold, blocking per item exactly as
    /// [`Self::push`] does (the head position is always admitted).
    ///
    /// Before blocking partway through the run, the producer wakes a
    /// waiting consumer if it has already placed the head, so the
    /// consumer can free the space the rest of the run needs.
    ///
    /// Returns `false` if the stage was closed; items placed before the
    /// close stay placed.
    ///
    /// # Panics
    /// Panics if a position was already pushed or already consumed.
    pub fn push_run(&self, base: u64, items: impl IntoIterator<Item = (SampleId, Bytes)>) -> bool {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        assert!(base >= st.next, "position {base} already consumed");
        let mut placed = 0;
        let mut placed_head = false;
        for (pos, (id, data)) in (base..).zip(items) {
            let size = data.len() as u64;
            while !st.closed && pos != st.next && st.used + size > inner.capacity {
                if placed_head && st.consumer_waiting {
                    inner.data.notify_one();
                }
                placed_head = false;
                st.producers_waiting += 1;
                inner.space.wait(&mut st);
                st.producers_waiting -= 1;
            }
            if st.closed {
                break;
            }
            let off = (pos - st.next) as usize;
            if st.slots.len() <= off {
                st.slots.resize(off + 1, None);
            }
            let slot = &mut st.slots[off];
            assert!(slot.is_none(), "position {pos} pushed twice");
            *slot = Some((id, data));
            st.used += size;
            placed_head |= off == 0;
            placed += 1;
        }
        inner.metrics.pushed.add(placed);
        inner.metrics.used_bytes.set(st.used);
        let open = !st.closed;
        let wake = placed_head && st.consumer_waiting;
        drop(st);
        if wake {
            inner.data.notify_one();
        }
        open
    }

    /// Pops the sample at the next stream position, blocking until it
    /// arrives. Returns `None` once closed and the head is unavailable.
    pub fn pop(&self) -> Option<(SampleId, Bytes)> {
        let mut out = Vec::with_capacity(1);
        self.pop_many(1, &mut out);
        out.pop()
    }

    /// Appends the next `n` stream positions to `out`, in order, under
    /// one lock hold per wait. Blocks until all `n` arrive; returns
    /// fewer (the count appended) only once the stage is closed and the
    /// head is unavailable.
    ///
    /// Before waiting for the head, the consumer wakes any producers
    /// blocked for space, since its pops so far freed some.
    pub fn pop_many(&self, n: usize, out: &mut Vec<(SampleId, Bytes)>) -> usize {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        let mut popped = 0;
        let mut freed = false;
        while popped < n {
            if let Some((id, data)) = st.slots.front_mut().and_then(Option::take) {
                st.slots.pop_front();
                st.used -= data.len() as u64;
                st.next += 1;
                out.push((id, data));
                popped += 1;
                freed = true;
                continue;
            }
            if st.closed {
                break;
            }
            if freed && st.producers_waiting > 0 {
                inner.space.notify_all();
            }
            freed = false;
            debug_assert!(!st.consumer_waiting, "a reorder stage has one consumer");
            st.consumer_waiting = true;
            inner.data.wait(&mut st);
            st.consumer_waiting = false;
        }
        inner.metrics.popped.add(popped as u64);
        inner.metrics.used_bytes.set(st.used);
        let wake = freed && st.producers_waiting > 0;
        drop(st);
        if wake {
            inner.space.notify_all();
        }
        popped
    }

    /// Closes the stage; blocked producers and consumers return.
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        drop(st);
        self.inner.space.notify_all();
        self.inner.data.notify_all();
    }

    /// Bytes currently buffered.
    pub fn used(&self) -> u64 {
        self.inner.state.lock().used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn out_of_order_push_in_order_pop() {
        let stage = ReorderStage::new(1_000);
        stage.push(2, 102, Bytes::from_static(b"c"));
        stage.push(0, 100, Bytes::from_static(b"a"));
        stage.push(1, 101, Bytes::from_static(b"b"));
        assert_eq!(stage.pop().unwrap().0, 100);
        assert_eq!(stage.pop().unwrap().0, 101);
        assert_eq!(stage.pop().unwrap().0, 102);
    }

    #[test]
    fn consumer_waits_for_the_head_not_just_any_sample() {
        let stage = ReorderStage::new(1_000);
        stage.push(1, 11, Bytes::from_static(b"later"));
        let s2 = stage.clone();
        let consumer = thread::spawn(move || s2.pop().unwrap());
        thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished(), "pop must wait for position 0");
        stage.push(0, 10, Bytes::from_static(b"first"));
        assert_eq!(consumer.join().unwrap().0, 10);
    }

    #[test]
    fn head_position_is_always_admitted() {
        // Fill the stage with a future position, then push the head:
        // it must not block even though capacity is exceeded.
        let stage = ReorderStage::new(10);
        stage.push(1, 1, Bytes::from(vec![0u8; 10]));
        let t0 = Instant::now();
        assert!(stage.push(0, 0, Bytes::from(vec![0u8; 10])));
        assert!(t0.elapsed() < Duration::from_millis(50));
        assert_eq!(stage.pop().unwrap().0, 0);
        assert_eq!(stage.pop().unwrap().0, 1);
    }

    #[test]
    fn non_head_producer_blocks_when_full() {
        let stage = ReorderStage::new(10);
        stage.push(1, 1, Bytes::from(vec![0u8; 10]));
        let s2 = stage.clone();
        let producer = thread::spawn(move || s2.push(2, 2, Bytes::from(vec![0u8; 10])));
        thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "position 2 should block");
        stage.push(0, 0, Bytes::from(vec![0u8; 4]));
        stage.pop().unwrap(); // frees pos 0's bytes and advances next
        stage.pop().unwrap(); // consumes pos 1, frees space
        assert!(producer.join().unwrap());
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn duplicate_position_panics() {
        let stage = ReorderStage::new(100);
        stage.push(0, 1, Bytes::from_static(b"a"));
        stage.push(0, 2, Bytes::from_static(b"b"));
    }

    #[test]
    fn close_unblocks_everyone() {
        let stage = ReorderStage::new(10);
        let s2 = stage.clone();
        let consumer = thread::spawn(move || s2.pop());
        thread::sleep(Duration::from_millis(10));
        stage.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert!(!stage.push(0, 0, Bytes::from_static(b"x")));
    }

    #[test]
    fn run_with_head_reaches_consumer_while_producer_blocks() {
        // Capacity fits two samples; the run places the head (position
        // 0) and position 1, then blocks on position 2. The waiting
        // consumer must get the head without the run completing.
        let stage = ReorderStage::new(20);
        let s2 = stage.clone();
        let consumer = thread::spawn(move || s2.pop().unwrap().0);
        thread::sleep(Duration::from_millis(10));
        let s3 = stage.clone();
        let producer = thread::spawn(move || {
            s3.push_run(0, (0..6u64).map(|i| (i, Bytes::from(vec![i as u8; 10]))))
        });
        assert_eq!(consumer.join().unwrap(), 0);
        thread::sleep(Duration::from_millis(10));
        assert!(
            !producer.is_finished(),
            "the rest of the run exceeds capacity"
        );
        let mut out = Vec::new();
        assert_eq!(stage.pop_many(5, &mut out), 5);
        let ids: Vec<u64> = out.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert!(producer.join().unwrap());
        assert_eq!(stage.used(), 0);
    }

    #[test]
    fn close_returns_a_partial_pop_many() {
        let stage = ReorderStage::new(100);
        stage.push_run(
            0,
            [(7, Bytes::from_static(b"a")), (8, Bytes::from_static(b"b"))],
        );
        let s2 = stage.clone();
        let consumer = thread::spawn(move || {
            let mut out = Vec::new();
            let n = s2.pop_many(4, &mut out);
            (n, out)
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished(), "pop_many waits for all four");
        stage.close();
        let (n, out) = consumer.join().unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            out.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![7, 8]
        );
    }

    #[test]
    fn many_producers_full_stream_integrity() {
        let stage = ReorderStage::new(64);
        let n = 500u64;
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let stage = stage.clone();
                let counter = Arc::clone(&counter);
                thread::spawn(move || loop {
                    let pos = counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if pos >= n {
                        break;
                    }
                    // Sample id encodes the position for verification.
                    stage.push(pos, pos * 3, Bytes::from(vec![(pos % 256) as u8; 8]));
                })
            })
            .collect();
        for pos in 0..n {
            let (id, data) = stage.pop().unwrap();
            assert_eq!(id, pos * 3, "wrong sample at position {pos}");
            assert_eq!(data[0], (pos % 256) as u8);
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(stage.used(), 0);
    }
}
