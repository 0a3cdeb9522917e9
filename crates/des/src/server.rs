//! FIFO servers with utilization accounting.
//!
//! A [`Server`] models one pipeline stage — a Collector's ChangeLog
//! reader, the fid2path resolution step, the Aggregator's store/publish
//! threads — as `c` identical service slots behind a FIFO queue. Work is
//! submitted with a known service time; the server books it into the
//! earliest free slot and schedules a completion callback. Utilization
//! statistics feed the paper's Table 3 (CPU %) reproduction.

use crate::Simulation;
use sdci_types::{SimDuration, SimTime};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;

/// Cumulative statistics for a [`Server`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Jobs completed.
    pub completed: u64,
    /// Total busy slot-time accumulated (across all slots).
    pub busy: SimDuration,
    /// Total time jobs spent waiting for a free slot.
    pub queued: SimDuration,
    /// Maximum observed queue wait.
    pub max_wait: SimDuration,
}

impl ServerStats {
    /// Mean utilization of the server over `elapsed`, in `[0, 1]`,
    /// normalized by slot count.
    pub fn utilization(&self, elapsed: SimDuration, slots: usize) -> f64 {
        if elapsed.is_zero() || slots == 0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / elapsed.as_secs_f64() / slots as f64).min(1.0)
        }
    }

    /// Mean queueing delay per completed job.
    pub fn mean_wait(&self) -> SimDuration {
        match self.queued.as_nanos().checked_div(self.completed) {
            Some(mean) => SimDuration::from_nanos(mean),
            None => SimDuration::ZERO,
        }
    }
}

struct ServerState {
    name: String,
    // Min-heap of times at which each slot becomes free.
    slots: BinaryHeap<Reverse<SimTime>>,
    stats: ServerStats,
}

/// A FIFO multi-slot server living inside a [`Simulation`].
///
/// Cloning a `Server` clones a handle to the same underlying state, so a
/// server can be captured by many event closures.
///
/// # Example
///
/// ```
/// use sdci_des::{Server, Simulation};
/// use sdci_types::SimDuration;
///
/// let mut sim = Simulation::new(0);
/// let server = Server::new("fid2path", 1);
/// for _ in 0..3 {
///     let s = server.clone();
///     sim.schedule_in(SimDuration::ZERO, move |sim| {
///         s.submit(sim, SimDuration::from_millis(10), |_, _| {});
///     });
/// }
/// sim.run();
/// // One slot, three 10 ms jobs back to back.
/// assert_eq!(sim.now().elapsed_since_epoch().as_millis(), 30);
/// assert_eq!(server.stats().completed, 3);
/// ```
#[derive(Clone)]
pub struct Server {
    state: Rc<RefCell<ServerState>>,
    capacity: usize,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("Server")
            .field("name", &st.name)
            .field("capacity", &self.capacity)
            .field("completed", &st.stats.completed)
            .finish()
    }
}

impl Server {
    /// Creates a server with `capacity` parallel service slots.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "a server needs at least one slot");
        let mut slots = BinaryHeap::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Reverse(SimTime::EPOCH));
        }
        Server {
            state: Rc::new(RefCell::new(ServerState {
                name: name.into(),
                slots,
                stats: ServerStats::default(),
            })),
            capacity,
        }
    }

    /// The server's name (used in reports).
    pub fn name(&self) -> String {
        self.state.borrow().name.clone()
    }

    /// Number of parallel service slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Submits a job taking `service` time; `on_done(sim, finish_time)`
    /// runs when the job completes. Returns the scheduled finish time.
    ///
    /// Jobs are served FIFO: the job starts at the earliest instant a slot
    /// is free (which may be now).
    pub fn submit(
        &self,
        sim: &mut Simulation,
        service: SimDuration,
        on_done: impl FnOnce(&mut Simulation, SimTime) + 'static,
    ) -> SimTime {
        let now = sim.now();
        let finish = {
            let mut st = self.state.borrow_mut();
            // cannot fail: `new` gives the server at least one slot, and every slot popped here is pushed back below.
            let Reverse(free_at) = st.slots.pop().expect("server has no slots");
            let start = free_at.max(now);
            let wait = start - now;
            let finish = start + service;
            st.slots.push(Reverse(finish));
            st.stats.busy += service;
            st.stats.queued += wait;
            st.stats.max_wait = st.stats.max_wait.max(wait);
            finish
        };
        let state = Rc::clone(&self.state);
        sim.schedule_at(finish, move |sim| {
            state.borrow_mut().stats.completed += 1;
            on_done(sim, finish);
        });
        finish
    }

    /// Submits a job with no completion callback.
    pub fn submit_and_forget(&self, sim: &mut Simulation, service: SimDuration) -> SimTime {
        self.submit(sim, service, |_, _| {})
    }

    /// The instant the server becomes fully idle given currently booked
    /// work.
    pub fn drained_at(&self) -> SimTime {
        self.state.borrow().slots.iter().map(|Reverse(t)| *t).max().unwrap_or(SimTime::EPOCH)
    }

    /// A snapshot of cumulative statistics.
    pub fn stats(&self) -> ServerStats {
        self.state.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn single_slot_serializes_jobs() {
        let mut sim = Simulation::new(0);
        let s = Server::new("stage", 1);
        let finishes = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let s = s.clone();
            let finishes = Rc::clone(&finishes);
            sim.schedule_in(SimDuration::ZERO, move |sim| {
                let f = Rc::clone(&finishes);
                s.submit(sim, SimDuration::from_secs(1), move |_, t| {
                    f.borrow_mut().push(t.elapsed_since_epoch().as_secs());
                });
            });
        }
        sim.run();
        assert_eq!(*finishes.borrow(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn multi_slot_runs_in_parallel() {
        let mut sim = Simulation::new(0);
        let s = Server::new("stage", 4);
        for _ in 0..4 {
            let s = s.clone();
            sim.schedule_in(SimDuration::ZERO, move |sim| {
                s.submit_and_forget(sim, SimDuration::from_secs(1));
            });
        }
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(s.stats().completed, 4);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut sim = Simulation::new(0);
        let s = Server::new("stage", 2);
        // Two slots, 10 s window, 4 s of work each => 40% utilization.
        for _ in 0..2 {
            let s = s.clone();
            sim.schedule_in(SimDuration::ZERO, move |sim| {
                s.submit_and_forget(sim, SimDuration::from_secs(4));
            });
        }
        sim.run_until(SimTime::from_secs(10));
        let u = s.stats().utilization(SimDuration::from_secs(10), 2);
        assert!((u - 0.4).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn queue_wait_is_tracked() {
        let mut sim = Simulation::new(0);
        let s = Server::new("stage", 1);
        for _ in 0..3 {
            let s = s.clone();
            sim.schedule_in(SimDuration::ZERO, move |sim| {
                s.submit_and_forget(sim, SimDuration::from_secs(2));
            });
        }
        sim.run();
        let stats = s.stats();
        // Waits: 0, 2, 4 seconds.
        assert_eq!(stats.queued, SimDuration::from_secs(6));
        assert_eq!(stats.max_wait, SimDuration::from_secs(4));
        assert_eq!(stats.mean_wait(), SimDuration::from_secs(2));
    }

    #[test]
    fn throughput_is_capacity_over_service_time() {
        // A 1-slot server with 1 ms service time should complete ~1000
        // jobs over one second of saturated input.
        let mut sim = Simulation::new(0);
        let s = Server::new("stage", 1);
        for _ in 0..2000 {
            let s = s.clone();
            sim.schedule_in(SimDuration::ZERO, move |sim| {
                s.submit_and_forget(sim, SimDuration::from_millis(1));
            });
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(s.stats().completed, 1000);
    }

    #[test]
    fn drained_at_reflects_booked_work() {
        let mut sim = Simulation::new(0);
        let s = Server::new("stage", 1);
        let s2 = s.clone();
        sim.schedule_in(SimDuration::ZERO, move |sim| {
            s2.submit_and_forget(sim, SimDuration::from_secs(3));
        });
        sim.step();
        assert_eq!(s.drained_at(), SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_panics() {
        let _ = Server::new("bad", 0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = Server::new("idle", 2);
        let stats = s.stats();
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.mean_wait(), SimDuration::ZERO);
        assert_eq!(stats.utilization(SimDuration::ZERO, 2), 0.0);
        let _ = Cell::new(()); // silence unused import on some cfgs
    }
}
