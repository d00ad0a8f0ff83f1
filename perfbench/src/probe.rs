//! `Scheduler` wrappers that observe a policy from the outside.
//!
//! [`Clocked`] is all the untraced run adds around the policy: one clock
//! read per `schedule` call, for its [`RunClock`]. [`Traced`] opens a
//! `policy.schedule` span per call, counts calls, and checks GPU
//! conservation on every decision it passes on.

use crate::histogram::Histogram;
use crate::reference::HostSpeed;
use crate::spans::Recorder;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::time::{Duration, Instant};
use themis_cluster::cluster::Cluster;
use themis_cluster::time::Time;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{AllocationDecision, ControlPlaneStats, Scheduler};

/// Host time of one clock segment, at least.
const SEGMENT: Duration = Duration::from_millis(100);

/// The host time of one simulation, scaled to the nominal host piece by
/// piece (see `reference`).
///
/// The host's speed changes within a second, so a clock fed by [`Clocked`]
/// cuts its simulation into segments of about [`SEGMENT`] at `schedule`
/// calls. At the end of each segment it times the reference kernel, and
/// scales the segment's host time, and the intervals between `schedule`
/// calls inside it, by the kernel samples at the segment's two ends. The
/// kernel's own time is in no segment and no interval. A clock that no
/// `schedule` call reaches (a traced simulation) is one segment.
pub struct RunClock {
    speed: Rc<RefCell<HostSpeed>>,
    segment_start: Instant,
    last_call: Option<Instant>,
    /// Host ns between consecutive calls of the open segment, as measured.
    segment_ns: Vec<u64>,
    raw_s: f64,
    scaled_s: f64,
    intervals_ns: Histogram,
}

impl RunClock {
    /// A clock that samples the kernel through `speed`.
    pub fn new(speed: Rc<RefCell<HostSpeed>>) -> Self {
        RunClock {
            speed,
            segment_start: Instant::now(),
            last_call: None,
            segment_ns: Vec::new(),
            raw_s: 0.0,
            scaled_s: 0.0,
            intervals_ns: Histogram::default(),
        }
    }

    /// Starts the simulation's first segment.
    pub fn start(&mut self) {
        self.segment_start = Instant::now();
        self.last_call = None;
    }

    /// Reads the clock for one `schedule` call, and ends the segment once
    /// it has lasted [`SEGMENT`].
    fn call(&mut self) {
        let tick = Instant::now();
        if let Some(last) = self.last_call {
            self.segment_ns
                .push(tick.duration_since(last).as_nanos() as u64);
        }
        self.last_call = Some(tick);
        if tick.duration_since(self.segment_start) >= SEGMENT {
            self.end_segment(tick);
            // The next interval starts after the kernel sample.
            self.last_call = Some(self.segment_start);
        }
    }

    fn end_segment(&mut self, end: Instant) {
        let raw = end.duration_since(self.segment_start).as_secs_f64();
        let scale = self.speed.borrow_mut().bracket();
        self.raw_s += raw;
        self.scaled_s += raw * scale;
        for ns in self.segment_ns.drain(..) {
            self.intervals_ns.add((ns as f64 * scale).round() as u64, 1);
        }
        self.segment_start = Instant::now();
    }

    /// Ends the simulation at `end`: returns its host seconds as measured
    /// and scaled, and the intervals between its `schedule` calls, scaled.
    pub fn stop(&mut self, end: Instant) -> (f64, f64, Histogram) {
        self.end_segment(end);
        (
            self.raw_s,
            self.scaled_s,
            std::mem::take(&mut self.intervals_ns),
        )
    }
}

/// Records the host time between consecutive `schedule` calls of one
/// simulation (one engine event plus the decision it triggers) in its
/// [`RunClock`].
pub struct Clocked<S> {
    inner: S,
    clock: Rc<RefCell<RunClock>>,
}

impl<S: Scheduler> Clocked<S> {
    /// Wraps `inner`, reading `clock` on each call.
    pub fn new(inner: S, clock: Rc<RefCell<RunClock>>) -> Self {
        Clocked { inner, clock }
    }
}

impl<S: Scheduler> Scheduler for Clocked<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        self.clock.borrow_mut().call();
        self.inner.schedule(now, cluster, apps)
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }

    fn supports_incremental(&self) -> bool {
        self.inner.supports_incremental()
    }

    fn control_stats(&self) -> Option<ControlPlaneStats> {
        self.inner.control_stats()
    }
}

/// Counts of one traced simulation's policy calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallCounts {
    /// `schedule` calls.
    pub calls: u64,
    /// Calls that returned no decision.
    pub idle_calls: u64,
    /// Decided GPUs that were not free, or that the round named twice.
    pub conservation_violations: u64,
}

/// Times every `schedule` call as a `policy.schedule` span and checks that
/// every decided GPU is free (`Cluster::is_free`) and named once per round.
/// That implies the grants stay within capacity: a round can name no more
/// distinct GPUs than are free.
pub struct Traced<S> {
    inner: S,
    recorder: Rc<Recorder>,
    counts: Rc<RefCell<CallCounts>>,
    round: u32,
}

impl<S: Scheduler> Traced<S> {
    /// Wraps `inner`, adding its counts to `counts`.
    pub fn new(inner: S, recorder: Rc<Recorder>, counts: Rc<RefCell<CallCounts>>) -> Self {
        Traced {
            inner,
            recorder,
            counts,
            round: 0,
        }
    }
}

impl<S: Scheduler> Scheduler for Traced<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        self.round += 1;
        let span = self.recorder.open_call(self.round);
        let decisions = self.inner.schedule(now, cluster, apps);
        self.recorder.close(span);

        let mut counts = self.counts.borrow_mut();
        counts.calls += 1;
        if decisions.is_empty() {
            counts.idle_calls += 1;
        }
        let mut granted = HashSet::new();
        for gpu in decisions.iter().flat_map(|d| &d.gpus) {
            if !cluster.is_free(*gpu) || !granted.insert(*gpu) {
                counts.conservation_violations += 1;
            }
        }
        decisions
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }

    fn supports_incremental(&self) -> bool {
        self.inner.supports_incremental()
    }

    fn control_stats(&self) -> Option<ControlPlaneStats> {
        self.inner.control_stats()
    }
}
