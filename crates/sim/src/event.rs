//! Deterministic future-event list.
//!
//! The event queue is the heart of the discrete-event engine: components
//! schedule an event for a future [`SimTime`]; the owning engine repeatedly
//! pops the earliest event and advances the clock to it. Events scheduled
//! for the same instant are delivered in FIFO order of scheduling, which
//! makes every simulation run bit-for-bit reproducible.

use crate::time::{SimDuration, SimTime};
use core::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event popped from the queue: its delivery time and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires.
    pub at: SimTime,
    /// The caller-defined payload.
    pub payload: E,
}

struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. `seq` breaks ties FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list with a built-in clock.
///
/// # Examples
///
/// ```
/// use ros_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_in(SimDuration::from_secs(5), "later");
/// q.schedule_in(SimDuration::from_secs(1), "sooner");
/// let first = q.pop().unwrap();
/// assert_eq!(first.payload, "sooner");
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// ```
pub struct EventQueue<E> {
    now: SimTime,
    next_seq: u64,
    heap: BinaryHeap<HeapEntry<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            next_seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Returns the current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to fire "now": the event is
    /// delivered at the current instant without rewinding the clock.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { at, seq, payload });
        self.debug_check_monotonic();
    }

    /// Debug-build invariant: the clock never sits past the earliest
    /// pending event, so delivery time is monotonic through every pop.
    /// Compiled out in release builds.
    #[cfg(debug_assertions)]
    fn debug_check_monotonic(&self) {
        if let Some(front) = self.heap.peek() {
            debug_assert!(
                front.at >= self.now,
                "event queue holds an event in the past: {:?} < {:?}",
                front.at,
                self.now
            );
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_monotonic(&self) {}

    /// Schedules `payload` to fire `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Returns the delivery time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the earliest pending event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.debug_check_monotonic();
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        Some(ScheduledEvent {
            at: entry.at,
            payload: entry.payload,
        })
    }

    /// Pops the earliest pending event only if it fires at or before
    /// `deadline`; otherwise advances the clock to `deadline` and returns
    /// `None`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        match self.heap.peek() {
            Some(e) if e.at <= deadline => self.pop(),
            _ => {
                self.now = self.now.max(deadline);
                None
            }
        }
    }

    /// Advances the clock without delivering events.
    ///
    /// Only moves forward; an `at` in the past is ignored.
    pub fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 'c');
        q.schedule_at(SimTime::from_secs(1), 'a');
        q.schedule_at(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(5), "second");
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_secs(15));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_at(SimTime::from_secs(1), "late");
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_secs(10));
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), "later");
        assert!(q.pop_until(SimTime::from_secs(3)).is_none());
        assert_eq!(q.now(), SimTime::from_secs(3));
        let e = q.pop_until(SimTime::from_secs(10)).unwrap();
        assert_eq!(e.payload, "later");
        assert_eq!(q.now(), SimTime::from_secs(5));
        // Deadline with empty queue still advances the clock.
        assert!(q.pop_until(SimTime::from_secs(10)).is_none());
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(4));
        q.advance_to(SimTime::from_secs(2));
        assert_eq!(q.now(), SimTime::from_secs(4));
    }
}
