//! The event calendar and simulation clock.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Why an event could not be scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError {
    /// The requested firing time is NaN or infinite.
    NonFiniteTime {
        /// The offending time.
        at: f64,
    },
    /// The requested firing time precedes the current clock.
    TimeInPast {
        /// The requested firing time.
        at: f64,
        /// The simulator's current time.
        now: f64,
    },
    /// A relative delay was negative (or NaN).
    NegativeDelay {
        /// The offending delay.
        delay: f64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NonFiniteTime { at } => {
                write!(f, "event time {at} is not finite")
            }
            ScheduleError::TimeInPast { at, now } => {
                write!(f, "cannot schedule at {at}: clock is already at {now}")
            }
            ScheduleError::NegativeDelay { delay } => {
                write!(f, "delay {delay} must be non-negative")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A pending event: fires at `time`, carrying `payload`.
struct Scheduled<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        // Ties broken by insertion order (seq) for determinism. `total_cmp`
        // keeps this panic-free; non-finite times are rejected at scheduling
        // time, so the IEEE total order only ever sees finite values here.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event simulator.
///
/// Caller-driven: schedule events with [`Simulator::try_schedule`] or
/// [`Simulator::try_schedule_at`], then drain them in time order with
/// [`Simulator::next_event`], scheduling follow-ups as you go. Same-time
/// events fire in scheduling order, making runs reproducible.
pub struct Simulator<E> {
    queue: BinaryHeap<Scheduled<E>>,
    now: f64,
    seq: u64,
    processed: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Simulator::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an empty simulator at time 0.
    pub fn new() -> Simulator<E> {
        Simulator {
            queue: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulation time (the time of the last delivered event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Errors
    /// [`ScheduleError::NonFiniteTime`] for NaN or infinite `at`;
    /// [`ScheduleError::TimeInPast`] when `at` precedes the current clock.
    pub fn try_schedule_at(&mut self, at: f64, payload: E) -> Result<(), ScheduleError> {
        if !at.is_finite() {
            return Err(ScheduleError::NonFiniteTime { at });
        }
        if at < self.now {
            return Err(ScheduleError::TimeInPast { at, now: self.now });
        }
        self.queue.push(Scheduled {
            time: at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
        Ok(())
    }

    /// Schedules `payload` after a `delay` from the current time.
    ///
    /// # Errors
    /// [`ScheduleError::NegativeDelay`] for NaN or negative `delay`; otherwise
    /// as [`Simulator::try_schedule_at`].
    pub fn try_schedule(&mut self, delay: f64, payload: E) -> Result<(), ScheduleError> {
        if delay.is_nan() || delay < 0.0 {
            return Err(ScheduleError::NegativeDelay { delay });
        }
        self.try_schedule_at(self.now + delay, payload)
    }

    /// Delivers the next event, advancing the clock. `None` when the
    /// calendar is empty.
    pub fn next_event(&mut self) -> Option<(f64, E)> {
        let ev = self.queue.pop()?;
        self.now = ev.time;
        self.processed += 1;
        Some((ev.time, ev.payload))
    }

    /// Peeks at the next event time without delivering.
    pub fn peek_time(&self) -> Option<f64> {
        self.queue.peek().map(|e| e.time)
    }
}

impl<E> Drop for Simulator<E> {
    /// Reports calendar throughput to the observability layer once per
    /// simulator lifetime — aggregated on drop rather than emitted per
    /// event, so the hot event loop stays record-free.
    fn drop(&mut self) {
        if self.seq > 0 && fedval_obs::is_enabled() {
            fedval_obs::counter_add("desim.engine.scheduled", self.seq);
            fedval_obs::counter_add("desim.engine.delivered", self.processed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::new();
        sim.try_schedule_at(3.0, "c").expect("finite, not past");
        sim.try_schedule_at(1.0, "a").expect("finite, not past");
        sim.try_schedule_at(2.0, "b").expect("finite, not past");
        let order: Vec<&str> = std::iter::from_fn(|| sim.next_event().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut sim = Simulator::new();
        for i in 0..10 {
            sim.try_schedule_at(5.0, i).expect("finite, not past");
        }
        let order: Vec<i32> = std::iter::from_fn(|| sim.next_event().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new();
        sim.try_schedule(2.5, ()).expect("finite, non-negative");
        assert_eq!(sim.now(), 0.0);
        assert_eq!(sim.peek_time(), Some(2.5));
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t, 2.5);
        assert_eq!(sim.now(), 2.5);
        sim.try_schedule(1.0, ()).expect("finite, non-negative");
        let (t2, _) = sim.next_event().unwrap();
        assert_eq!(t2, 3.5);
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    fn rejects_past_events() {
        let mut sim = Simulator::new();
        sim.try_schedule_at(2.0, ()).expect("finite, not past");
        sim.next_event();
        assert!(matches!(
            sim.try_schedule_at(1.0, ()),
            Err(ScheduleError::TimeInPast { .. })
        ));
    }

    #[test]
    fn empty_calendar_returns_none() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(sim.next_event().is_none());
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn try_schedule_reports_bad_times_without_panicking() {
        let mut sim = Simulator::new();
        assert!(matches!(
            sim.try_schedule_at(f64::NAN, ()),
            Err(ScheduleError::NonFiniteTime { .. })
        ));
        sim.try_schedule_at(2.0, ()).expect("finite, not past");
        sim.next_event();
        assert_eq!(
            sim.try_schedule_at(1.0, ()),
            Err(ScheduleError::TimeInPast { at: 1.0, now: 2.0 })
        );
        assert_eq!(
            sim.try_schedule(-0.5, ()),
            Err(ScheduleError::NegativeDelay { delay: -0.5 })
        );
        // The calendar is untouched by rejected schedules.
        assert_eq!(sim.pending(), 0);
        assert!(sim.try_schedule(1.0, ()).is_ok());
        assert_eq!(sim.pending(), 1);
    }
}
