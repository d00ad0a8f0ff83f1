//! In-memory spans for the traced run.
//!
//! Every span is recorded from the benchmark's side of a call into a layer:
//! the engine's `run`, the policy's `schedule`, and the Themis steps the
//! step driver calls. Spans are appended to one vector while the run goes
//! and written out once, at exit.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: the span is a root.
pub const ROOT: u32 = u32::MAX;

/// The span names, one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Trace generation of a batch workload, during set-up.
    WorkloadTrace,
    /// One streamed app generated for the service engine.
    WorkloadNextApp,
    /// One whole simulation: `Engine::run` or `ServiceEngine::run`.
    EngineRun,
    /// One `Scheduler::schedule` call.
    PolicySchedule,
    /// Step 1: the ρ probe of every schedulable app.
    AgentRho,
    /// Step 2a: participant selection.
    ArbiterSelect,
    /// Step 2b: the participants' bid tables.
    AgentBid,
    /// Step 3: the auction and leftover assignment.
    ArbiterAuction,
    /// Step 4: grants turned into concrete GPUs.
    Materialize,
}

impl Name {
    /// Every name; a name's position indexes the arrays of [`Totals`].
    pub const ALL: [Name; 9] = [
        Name::WorkloadTrace,
        Name::WorkloadNextApp,
        Name::EngineRun,
        Name::PolicySchedule,
        Name::AgentRho,
        Name::ArbiterSelect,
        Name::AgentBid,
        Name::ArbiterAuction,
        Name::Materialize,
    ];

    /// The name as written in the span dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::WorkloadTrace => "workload.trace",
            Name::WorkloadNextApp => "workload.next_app",
            Name::EngineRun => "engine.run",
            Name::PolicySchedule => "policy.schedule",
            Name::AgentRho => "core.agent.rho",
            Name::ArbiterSelect => "core.arbiter.select",
            Name::AgentBid => "core.agent.bid",
            Name::ArbiterAuction => "core.arbiter.auction",
            Name::Materialize => "core.materialize",
        }
    }

    fn index(self) -> usize {
        Name::ALL
            .iter()
            .position(|n| *n == self)
            .expect("every name is listed in ALL")
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    /// The simulation this span belongs to (one per traced instance run).
    run: u32,
    /// The policy call this span belongs to (0 outside any call).
    round: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals of one traced simulation, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Summed span durations per name.
    duration_ns: [u64; 9],
    /// Summed self times (duration minus the time child spans cover).
    self_ns: [u64; 9],
}

impl Totals {
    /// Summed duration of the spans named `name`, in ms.
    pub fn ms(&self, name: Name) -> f64 {
        self.duration_ns[name.index()] as f64 / 1e6
    }

    /// Summed self time of the spans named `name`, in ms.
    pub fn self_ms(&self, name: Name) -> f64 {
        self.self_ns[name.index()] as f64 / 1e6
    }
}

/// The time each span of `spans` has covered by child spans; `spans` are
/// the spans from id `first` on, and parents before `first` are ignored.
fn child_ns(spans: &[Span], first: usize) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT && span.parent as usize >= first {
            child_ns[span.parent as usize - first] += span.end_ns - span.start_ns;
        }
    }
    child_ns
}

/// The span store shared by every traced wrapper of one process.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    run: Cell<u32>,
    root: Cell<u32>,
    call: Cell<u32>,
    round: Cell<u32>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            run: Cell::new(0),
            root: Cell::new(ROOT),
            call: Cell::new(ROOT),
            round: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` and returns its id.
    pub fn open(&self, name: Name, parent: u32) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            name,
            parent,
            run: self.run.get(),
            round: self.round.get(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&self, id: u32) {
        let end = self.now_ns();
        self.spans.borrow_mut()[id as usize].end_ns = end;
    }

    /// Starts a new simulation: the spans recorded from now on carry its
    /// run number. Returns the index of its first span, for
    /// [`Recorder::totals_since`].
    pub fn begin_run(&self) -> usize {
        self.run.set(self.run.get() + 1);
        self.round.set(0);
        self.spans.borrow().len()
    }

    /// The open `engine.run` span of the current simulation.
    pub fn root(&self) -> u32 {
        self.root.get()
    }

    /// Registers the open `engine.run` span of the current simulation.
    pub fn set_root(&self, id: u32) {
        self.root.set(id);
    }

    /// Opens the `policy.schedule` span of policy call `round` under the
    /// current `engine.run` span; the Themis steps nest under it.
    pub fn open_call(&self, round: u32) -> u32 {
        self.round.set(round);
        let id = self.open(Name::PolicySchedule, self.root.get());
        self.call.set(id);
        id
    }

    /// The open `policy.schedule` span the Themis steps nest under.
    pub fn call(&self) -> u32 {
        self.call.get()
    }

    /// Per-name duration and self-time totals of the spans recorded since
    /// index `first` (every span of one simulation).
    pub fn totals_since(&self, first: usize) -> Totals {
        let spans = self.spans.borrow();
        let child_ns = child_ns(&spans[first..], first);
        let mut totals = Totals::default();
        for (offset, span) in spans[first..].iter().enumerate() {
            let duration = span.end_ns - span.start_ns;
            let k = span.name.index();
            totals.duration_ns[k] += duration;
            totals.self_ns[k] += duration.saturating_sub(child_ns[offset]);
        }
        totals
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span, one per line, to `path`:
    /// `id parent run round name start_ns end_ns self_ns` after a `#`
    /// header line. A root's parent is written as `-`.
    pub fn dump(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let child_ns = child_ns(&spans, 0);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "# id parent run round name start_ns end_ns self_ns")?;
        for (id, span) in spans.iter().enumerate() {
            let parent = if span.parent == ROOT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            let duration = span.end_ns - span.start_ns;
            writeln!(
                out,
                "{id} {parent} {} {} {} {} {} {}",
                span.run,
                span.round,
                span.name.as_str(),
                span.start_ns,
                span.end_ns,
                duration.saturating_sub(child_ns[id])
            )?;
        }
        out.flush()
    }
}
