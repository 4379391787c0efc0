//! The bounded submission queue behind [`ResolverService`]: a plain
//! `Mutex<VecDeque>` with two condvars — `std::sync` only, no external
//! dependencies — giving the service its three load-shedding behaviors:
//!
//! * **backpressure** — [`BoundedQueue::try_push`] refuses instead of
//!   blocking when the queue is at capacity, so a producer can shed or
//!   retry on its own terms ([`TrySubmit::Full`](crate::TrySubmit) at
//!   the service layer);
//! * **blocking submission** — [`BoundedQueue::push`] waits for room,
//!   for producers that prefer throttling to rejection;
//! * **graceful drain** — [`BoundedQueue::close`] stops new work but
//!   lets the consumer keep popping until empty;
//!   [`BoundedQueue::pop_group`] returns an empty batch only when the
//!   queue is closed *and* drained, which is the consumer's shutdown
//!   signal.
//!
//! [`ResolverService`]: crate::ResolverService

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submission was not enqueued.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// At capacity right now — retry later or shed ([`BoundedQueue::try_push`] only).
    Full(T),
    /// Closed for good; the item can never be accepted.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A multi-producer, single-consumer bounded FIFO (the consumer side is
/// safe for many threads too; the service just never needs it).
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// An open queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue without blocking. At capacity → [`PushError::Full`]
    /// (backpressure: the caller decides whether to retry, shed, or
    /// block); closed → [`PushError::Closed`]. The item rides back in
    /// the error so nothing is lost.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueue, blocking while the queue is at capacity. Returns the
    /// item back if the queue closes before it is accepted.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.state.lock().unwrap();
        loop {
            if s.closed {
                return Err(PushError::Closed(item));
            }
            if s.items.len() < self.capacity {
                s.items.push_back(item);
                drop(s);
                self.not_empty.notify_one();
                return Ok(());
            }
            s = self.not_full.wait(s).unwrap();
        }
    }

    /// Dequeue up to `max` items as one group, blocking while the queue
    /// is empty and open. An **empty** return means closed *and*
    /// drained — the consumer's signal to finish up. (Items already
    /// queued at close time are still delivered: close is a drain, not
    /// a drop.)
    pub fn pop_group(&self, max: usize) -> Vec<T> {
        let mut s = self.state.lock().unwrap();
        loop {
            if !s.items.is_empty() {
                let take = s.items.len().min(max.max(1));
                let group: Vec<T> = s.items.drain(..take).collect();
                drop(s);
                // Whole-group room opened up: wake every blocked producer.
                self.not_full.notify_all();
                return group;
            }
            if s.closed {
                return Vec::new();
            }
            s = self.not_empty.wait(s).unwrap();
        }
    }

    /// Stop accepting work. Producers blocked in [`BoundedQueue::push`]
    /// get their item back as [`PushError::Closed`]; the consumer keeps
    /// draining what was already accepted. Idempotent.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued (the saturation gauge).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// True iff nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_refuses_at_capacity_and_after_close() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.try_push(4), Err(PushError::Closed(4)));
        // Close drains, not drops.
        assert_eq!(q.pop_group(10), vec![1, 2]);
        assert!(q.pop_group(10).is_empty(), "closed + drained");
    }

    #[test]
    fn pop_group_caps_the_batch() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_group(3), vec![0, 1, 2]);
        assert_eq!(q.pop_group(3), vec![3, 4]);
    }

    #[test]
    fn blocked_push_unblocks_when_the_consumer_makes_room() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1))
        };
        // FIFO: the first pop must yield 0 (1 cannot fit yet), which
        // frees the slot; the second pop blocks until 1 lands.
        assert_eq!(q.pop_group(1), vec![0]);
        assert_eq!(q.pop_group(1), vec![1]);
        pusher.join().unwrap().unwrap();
    }

    #[test]
    fn close_rejects_a_pending_push_but_keeps_accepted_items() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(7).unwrap();
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(8))
        };
        // Whether the pusher has blocked yet or not, close makes its
        // outcome Closed(8) — the item rides back, nothing is lost.
        q.close();
        assert_eq!(blocked.join().unwrap(), Err(PushError::Closed(8)));
        assert_eq!(q.pop_group(4), vec![7], "accepted work still drains");
        assert!(q.pop_group(4).is_empty());
    }
}
