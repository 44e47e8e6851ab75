//! The simulation run-loop.
//!
//! [`Engine`] owns the clock and pending-event set and repeatedly pops the
//! earliest event, advances the clock, and hands the event to a user-supplied
//! handler. The handler can schedule further events through the
//! [`Scheduler`] view it receives, but it cannot touch the clock — time only
//! moves forward through the loop itself.
//!
//! The design is deliberately monomorphic over the event payload type `E`
//! (each simulation defines one event enum) rather than trait objects: event
//! dispatch is the hottest loop of the simulator and an enum match compiles
//! to a jump table, whereas boxed closures would allocate per event.
//!
//! The loop hands every event it pops to the handler; there is no
//! interception seam. A layer that models a slow link does it in its own
//! handler by rescheduling the event, as the timed cluster's
//! message-delay fault does.

use ecolb_trace::{NoTrace, SpanKind, TraceEventKind, Tracer};

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// The scheduling interface handed to event handlers.
///
/// A thin wrapper over the queue that also knows the current instant, so
/// handlers schedule with relative delays. The tracer parameter defaults
/// to [`NoTrace`], so pre-trace `Scheduler<'_, E>` annotations keep
/// compiling and the untraced path monomorphizes to the original code.
pub struct Scheduler<'a, E, T: Tracer = NoTrace> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    tracer: &'a mut T,
}

impl<'a, E, T: Tracer> Scheduler<'a, E, T> {
    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's tracer, for handlers that emit domain events. A
    /// `&mut T` auto-coerces to `&mut dyn Tracer` at cold call sites.
    #[inline]
    pub fn tracer(&mut self) -> &mut T {
        self.tracer
    }

    /// Schedules `event` to fire `delay` after the current instant.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.tracer.counter("engine.scheduled", 1);
        self.queue.schedule(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant, which must not be in the
    /// past (panics in debug builds otherwise).
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.tracer.counter("engine.scheduled", 1);
        self.queue.schedule(at, event);
    }

    /// Number of currently pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained.
    Drained,
    /// A handler requested an early stop.
    Stopped,
}

impl RunOutcome {
    /// Stable snake_case label used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Drained => "drained",
            RunOutcome::Stopped => "stopped",
        }
    }
}

/// Flow-control decision returned by event handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Control {
    /// Keep running.
    #[default]
    Continue,
    /// Stop after this event; `Engine::run` returns [`RunOutcome::Stopped`].
    Stop,
}

/// A discrete-event simulation engine over event payload type `E`.
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    events_processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with nothing pending.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            events_processed: 0,
        }
    }

    /// [`Engine::new`] with the event queue pre-sized for `capacity`
    /// pending events. With enough headroom for the simulation's peak
    /// event population, the dispatch loop performs no heap allocation at
    /// all: popping, handling, and rescheduling reuse the queue's storage.
    pub fn with_capacity(capacity: usize) -> Self {
        Engine {
            queue: EventQueue::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules an initial event before the run starts (or between runs).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event);
    }

    /// Runs the loop until the queue drains or a handler (or an aborting
    /// tracer) stops it.
    ///
    /// The handler receives each event together with a [`Scheduler`] for
    /// follow-up scheduling and a `&mut S` simulation state.
    pub fn run<S>(
        &mut self,
        state: &mut S,
        handler: impl FnMut(&mut S, &mut Scheduler<'_, E>, E) -> Control,
    ) -> RunOutcome {
        self.run_traced(state, &mut NoTrace, handler)
    }

    /// [`Engine::run`] with a tracer: the loop emits `engine_started` /
    /// `engine_finished` events, an `engine` span, and per-dispatch
    /// counters. With [`NoTrace`] this monomorphizes back to the plain
    /// loop.
    pub fn run_traced<S, T: Tracer>(
        &mut self,
        state: &mut S,
        tracer: &mut T,
        mut handler: impl FnMut(&mut S, &mut Scheduler<'_, E, T>, E) -> Control,
    ) -> RunOutcome {
        tracer.span_enter(self.now.ticks(), SpanKind::Engine);
        tracer.event(self.now.ticks(), TraceEventKind::EngineStarted);
        let outcome = loop {
            if self.queue.is_empty() {
                break RunOutcome::Drained;
            }
            // An invariant-checking tracer can stop the run as soon as a
            // violation is detected, leaving the rest pending; the default
            // `false` lets this poll monomorphize away for `NoTrace`.
            if tracer.abort_requested() {
                break RunOutcome::Stopped;
            }
            // Not empty (checked above); drain rather than panic anyway.
            let Some((at, event)) = self.queue.pop() else {
                break RunOutcome::Drained;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            tracer.counter("engine.dispatched", 1);
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                tracer: &mut *tracer,
            };
            if handler(state, &mut sched, event) == Control::Stop {
                break RunOutcome::Stopped;
            }
        };
        tracer.event(
            self.now.ticks(),
            TraceEventKind::EngineFinished {
                outcome: outcome.label(),
                events: self.events_processed,
            },
        );
        tracer.span_exit(self.now.ticks(), SpanKind::Engine);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[test]
    fn drains_when_no_follow_ups() {
        let mut engine = Engine::new();
        for i in 0..5 {
            engine.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut seen = Vec::new();
        let outcome = engine.run(&mut seen, |seen, _s, ev| {
            if let Ev::Tick(i) = ev {
                seen.push(i);
            }
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(engine.events_processed(), 5);
    }

    #[test]
    fn self_scheduling_chain_advances_clock() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0u32;
        let outcome = engine.run(&mut count, |count, s, _ev| {
            *count += 1;
            if s.now() == SimTime::from_secs(10) {
                return Control::Stop;
            }
            s.schedule_in(SimDuration::from_secs(1), Ev::Tick(*count));
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::Stopped);
        // Events at t = 0..=10 inclusive fire; the handler stops at t = 10.
        assert_eq!(count, 11);
        assert_eq!(engine.now(), SimTime::from_secs(10));
    }

    #[test]
    fn handler_stop_is_honoured() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        engine.schedule_at(SimTime::from_secs(2), Ev::Stop);
        engine.schedule_at(SimTime::from_secs(3), Ev::Tick(3));
        let mut seen = Vec::new();
        let outcome = engine.run(&mut seen, |seen, _s, ev| match ev {
            Ev::Stop => Control::Stop,
            Ev::Tick(i) => {
                seen.push(i);
                Control::Continue
            }
        });
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut engine = Engine::new();
        for i in [5u64, 1, 9, 3, 3, 7] {
            engine.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut last = SimTime::ZERO;
        engine.run(&mut last, |last, s, _| {
            assert!(s.now() >= *last);
            *last = s.now();
            Control::Continue
        });
    }

    #[test]
    fn traced_run_brackets_with_engine_lifecycle_events() {
        use ecolb_trace::RingTracer;
        let mut engine = Engine::new();
        for i in 0..3 {
            engine.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut tracer = RingTracer::new();
        let outcome = engine.run_traced(&mut (), &mut tracer, |_, s, _| {
            s.tracer().counter("test.handled", 1);
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::Drained);
        let kinds: Vec<&'static str> = tracer.events().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "span_enter",
                "engine_started",
                "engine_finished",
                "span_exit"
            ]
        );
        assert_eq!(tracer.counter_value("engine.dispatched"), 3);
        assert_eq!(tracer.counter_value("test.handled"), 3);
        assert!(tracer.events().any(|e| e.kind
            == TraceEventKind::EngineFinished {
                outcome: "drained",
                events: 3
            }));
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        use ecolb_trace::RingTracer;
        let mk = || {
            let mut e = Engine::new();
            e.schedule_at(SimTime::ZERO, Ev::Tick(0));
            e
        };
        let mut plain = mk();
        let plain_outcome = plain.run(&mut 0u32, |n, s, _| {
            *n += 1;
            if *n < 10 {
                s.schedule_in(SimDuration::from_secs(1), Ev::Tick(*n));
            }
            Control::Continue
        });
        let mut traced = mk();
        let mut rt = RingTracer::new();
        let traced_outcome = traced.run_traced(&mut 0u32, &mut rt, |n, s, _| {
            *n += 1;
            if *n < 10 {
                s.schedule_in(SimDuration::from_secs(1), Ev::Tick(*n));
            }
            Control::Continue
        });
        assert_eq!(plain_outcome, traced_outcome);
        assert_eq!(plain.now(), traced.now());
        assert_eq!(plain.events_processed(), traced.events_processed());
        assert_eq!(rt.counter_value("engine.scheduled"), 9);
    }

    #[test]
    fn scheduler_reports_pending() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Ev::Tick(0));
        engine.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        let mut pendings = Vec::new();
        engine.run(&mut pendings, |p, s, _| {
            p.push(s.pending());
            Control::Continue
        });
        assert_eq!(pendings, vec![1, 0]);
    }
}
