//! The event queue and virtual clock.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdci_types::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;
use std::fmt;

/// A scheduled-event callback.
type EventFn = Box<dyn FnOnce(&mut Simulation)>;

/// Opaque handle identifying a scheduled event, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

struct Scheduled {
    time: SimTime,
    seq: u64,
    handle: EventHandle,
    run: EventFn,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time (then lowest
        // sequence number, preserving FIFO among simultaneous events) pops
        // first.
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

/// A deterministic, single-threaded discrete-event simulation.
///
/// Events are closures scheduled at virtual instants; [`Simulation::run`]
/// pops them in time order (FIFO among ties) and executes them with
/// mutable access to the simulation, so handlers can schedule further
/// events. A seeded [`StdRng`] is carried by the simulation so stochastic
/// models stay reproducible.
pub struct Simulation {
    now: SimTime,
    queue: BinaryHeap<Scheduled>,
    cancelled: HashSet<EventHandle>,
    next_seq: u64,
    executed: u64,
    rng: StdRng,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation at [`SimTime::EPOCH`] with the given
    /// RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::EPOCH,
            queue: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            executed: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled ones not yet
    /// reaped).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The simulation's seeded random-number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Schedules `event` to run at absolute virtual time `time`.
    ///
    /// Scheduling in the past is clamped to *now* (the event runs next,
    /// after already-queued events at the current instant).
    pub fn schedule_at(
        &mut self,
        time: SimTime,
        event: impl FnOnce(&mut Simulation) + 'static,
    ) -> EventHandle {
        let time = time.max(self.now);
        let handle = EventHandle(self.next_seq);
        self.queue.push(Scheduled { time, seq: self.next_seq, handle, run: Box::new(event) });
        self.next_seq += 1;
        handle
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        event: impl FnOnce(&mut Simulation) + 'static,
    ) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already run (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, handle: EventHandle) {
        self.cancelled.insert(handle);
    }

    /// Executes the next pending event, advancing the clock to its time.
    /// Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        while let Some(ev) = self.queue.pop() {
            if self.cancelled.remove(&ev.handle) {
                continue;
            }
            debug_assert!(ev.time >= self.now, "event queue went backwards");
            self.now = ev.time;
            self.executed += 1;
            (ev.run)(self);
            return true;
        }
        false
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events until the queue is empty or the next event would occur
    /// after `deadline`; the clock is then advanced to `deadline` (if it
    /// was not already past it). Events scheduled exactly at `deadline`
    /// are executed.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            // Peek past cancelled entries.
            let next_time = loop {
                match self.queue.peek() {
                    None => break None,
                    Some(ev) if self.cancelled.contains(&ev.handle) => {
                        // cannot fail: `peek` has just returned this entry and nothing ran in between.
                        let ev = self.queue.pop().expect("peeked entry vanished");
                        self.cancelled.remove(&ev.handle);
                    }
                    Some(ev) => break Some(ev.time),
                }
            };
            match next_time {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulation::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (delay, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let order = Rc::clone(&order);
            sim.schedule_in(SimDuration::from_millis(delay), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!['a', 'b', 'c']);
        assert_eq!(sim.executed(), 3);
    }

    #[test]
    fn ties_run_fifo() {
        let mut sim = Simulation::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..10 {
            let order = Rc::clone(&order);
            sim.schedule_at(SimTime::from_secs(1), move |_| order.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Simulation::new(0);
        let count = Rc::new(RefCell::new(0u32));
        fn tick(sim: &mut Simulation, count: Rc<RefCell<u32>>, remaining: u32) {
            *count.borrow_mut() += 1;
            if remaining > 0 {
                sim.schedule_in(SimDuration::from_secs(1), move |sim| {
                    tick(sim, count, remaining - 1)
                });
            }
        }
        let c = Rc::clone(&count);
        sim.schedule_in(SimDuration::ZERO, move |sim| tick(sim, c, 4));
        sim.run();
        assert_eq!(*count.borrow(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(4));
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut sim = Simulation::new(0);
        let seen = Rc::new(RefCell::new(None));
        let s = Rc::clone(&seen);
        sim.schedule_in(SimDuration::from_secs(5), move |sim| {
            let s = Rc::clone(&s);
            sim.schedule_at(SimTime::EPOCH, move |sim| {
                *s.borrow_mut() = Some(sim.now());
            });
        });
        sim.run();
        assert_eq!(*seen.borrow(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulation::new(0);
        let fired = Rc::new(RefCell::new(false));
        let f = Rc::clone(&fired);
        let h = sim.schedule_in(SimDuration::from_secs(1), move |_| *f.borrow_mut() = true);
        sim.cancel(h);
        sim.run();
        assert!(!*fired.borrow());
        assert_eq!(sim.executed(), 0);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Simulation::new(0);
        let count = Rc::new(RefCell::new(0u32));
        for s in 1..=10 {
            let count = Rc::clone(&count);
            sim.schedule_at(SimTime::from_secs(s), move |_| *count.borrow_mut() += 1);
        }
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(*count.borrow(), 4, "events at t<=4s should have run");
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.pending(), 6);
        sim.run();
        assert_eq!(*count.borrow(), 10);
    }

    #[test]
    fn run_until_with_cancelled_head() {
        let mut sim = Simulation::new(0);
        let fired = Rc::new(RefCell::new(0u32));
        let f = Rc::clone(&fired);
        let h = sim.schedule_at(SimTime::from_secs(1), move |_| *f.borrow_mut() += 1);
        let f = Rc::clone(&fired);
        sim.schedule_at(SimTime::from_secs(2), move |_| *f.borrow_mut() += 1);
        sim.cancel(h);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(*fired.borrow(), 1);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::Rng;
        let mut a = Simulation::new(7);
        let mut b = Simulation::new(7);
        let va: Vec<u64> = (0..8).map(|_| a.rng().gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.rng().gen()).collect();
        assert_eq!(va, vb);
        let mut c = Simulation::new(8);
        let vc: Vec<u64> = (0..8).map(|_| c.rng().gen()).collect();
        assert_ne!(va, vc);
    }
}
