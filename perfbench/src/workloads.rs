//! The four benchmark workloads, built only through `Scenario` and the
//! public engine, policy and service constructors.
//!
//! A run of a workload simulates a fixed number of independent instances,
//! each a scenario whose trace and scheduler seeds derive from the run's
//! `--seed`. Averaging over several instances is what keeps one run's
//! figures close to the next run's on another seed.

use crate::histogram::Histogram;
use crate::probe::{CallCounts, Clocked, RunClock, Traced};
use crate::reference::HostSpeed;
use crate::spans::{Name, Recorder, Totals, ROOT};
use crate::steps::{StepCounts, ThemisSteps};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use themis_bench::policies::Policy;
use themis_bench::scenarios::{ClusterKind, Scenario, ServiceAxis, ServiceShape, StormAxis};
use themis_cluster::cluster::Cluster;
use themis_cluster::time::Time;
use themis_protocol::log::{LogRecord, MessageLog, SendFate};
use themis_protocol::network::LogMode;
use themis_sim::arrivals::ArrivalProcess;
use themis_sim::engine::Engine;
use themis_sim::metrics::SimReport;
use themis_sim::scheduler::{ControlPlaneStats, Scheduler};
use themis_sim::service::{AppSource, ServiceConfig, ServiceEngine, StreamSource};
use themis_workload::app::AppSpec;
use themis_workload::stream::TraceStream;

/// Admission window of `service-poisson`, in simulated minutes. The run
/// continues past it until every admitted app has finished.
const SERVICE_ADMIT_MINUTES: f64 = 1_000.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scale1024, 200 apps with Poisson arrivals, in-process Themis, f = 0.8.
    BatchArrivals,
    /// Scale1024, 8 apps all arriving at t = 0, in-process Themis, f = 0.2.
    StormBurst,
    /// Testbed50, 4 apps at contention 2, `themis-dist` on lossy links.
    DistLossy,
    /// Scale1024, open-system service engine, Poisson arrivals at 1.5×.
    ServicePoisson,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::BatchArrivals,
        Workload::StormBurst,
        Workload::DistLossy,
        Workload::ServicePoisson,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchArrivals => "batch-arrivals",
            Workload::StormBurst => "storm-burst",
            Workload::DistLossy => "dist-lossy",
            Workload::ServicePoisson => "service-poisson",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent instances one untraced run simulates. Per-instance
    /// results vary widely with the trace, so a run averages over many:
    /// one pass over them takes 13–31 s on a 2-core x86-64 host, whose
    /// speed varies about 2× with the load its neighbours put on memory.
    pub fn instances(self) -> usize {
        match self {
            Workload::BatchArrivals => 6,
            Workload::StormBurst => 110,
            Workload::DistLossy => 80,
            Workload::ServicePoisson => 27,
        }
    }

    /// Instances a traced run simulates: the first half, each once
    /// untraced and once traced, so a traced run costs about as much host
    /// time as an untraced one.
    pub fn traced_instances(self) -> usize {
        self.instances() / 2
    }

    /// Whether the policy runs in-process (and so under the step driver
    /// when traced).
    pub fn in_process(self) -> bool {
        self != Workload::DistLossy
    }

    /// Whether every app must finish for the run to count as correct.
    pub fn must_finish(self) -> bool {
        self != Workload::DistLossy
    }

    /// The trace and scheduler seed of instance `index` of a run on `seed`.
    pub fn instance_seed(self, seed: u64, index: usize) -> u64 {
        seed.wrapping_mul(1_000).wrapping_add(index as u64)
    }

    /// The scenario of one instance.
    pub fn scenario(self, instance_seed: u64) -> Scenario {
        match self {
            Workload::BatchArrivals => Scenario::new(ClusterKind::Scale1024, 200, instance_seed),
            Workload::StormBurst => Scenario::new(ClusterKind::Scale1024, 8, instance_seed)
                .with_fairness_knob(0.2)
                .with_storm(StormAxis::new(0.5)),
            Workload::DistLossy => {
                let base =
                    Scenario::new(ClusterKind::Testbed50, 4, instance_seed).with_contention(2.0);
                let fault = base
                    .fault
                    .with_delay(Time::seconds(2.0))
                    .with_jitter(Time::seconds(2.0))
                    .with_drop_probability(0.01)
                    .with_arbiter_service_time(Time::seconds(0.05))
                    .with_arbiter_batch(4);
                base.with_fault(fault)
            }
            Workload::ServicePoisson => {
                Scenario::new(ClusterKind::Scale1024, 0, instance_seed).with_service(
                    ServiceAxis::new(ServiceShape::Poisson, 1.5, SERVICE_ADMIT_MINUTES),
                )
            }
        }
        .with_scheduler_seed(instance_seed)
    }

    fn policy(self) -> Policy {
        match self {
            Workload::DistLossy => Policy::themis_dist_default(),
            _ => Policy::themis_default(),
        }
    }
}

/// Message counts of a recorded transport transcript.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolCounts {
    /// Messages handed to the network.
    pub sends: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Messages dropped by a fault or a partition.
    pub dropped: u64,
    /// Protocol timers armed.
    pub timers: u64,
}

impl ProtocolCounts {
    fn of(log: &MessageLog) -> ProtocolCounts {
        let mut counts = ProtocolCounts::default();
        for record in log.records() {
            match record {
                LogRecord::Send { fate, .. } => {
                    counts.sends += 1;
                    if !matches!(fate, SendFate::Deliver { .. }) {
                        counts.dropped += 1;
                    }
                }
                LogRecord::Deliver { .. } => counts.deliveries += 1,
                LogRecord::Timer { .. } => counts.timers += 1,
            }
        }
        counts
    }
}

/// Service-engine counters of one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounts {
    /// Apps admitted.
    pub admitted: u64,
    /// Apps retired.
    pub retired: u64,
    /// Rounds that invoked the policy.
    pub auctions_run: u64,
    /// Rounds the incremental hot path skipped.
    pub auctions_skipped: u64,
}

/// The simulated results of one instance: a pure function of its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// FNV-1a digest of the report's full `Debug` rendering, which prints
    /// every float in round-trip form: equal digests mean equal bytes.
    pub digest: u64,
    /// Apps simulated.
    pub apps: u64,
    /// Apps finished.
    pub finished: u64,
    /// Jobs of the simulated apps.
    pub jobs: u64,
    /// Maximum finish-time fairness ρ over finished apps.
    pub max_rho: f64,
    /// Jain's index over the finished apps' ρ.
    pub jain: f64,
    /// Summed completion time of finished apps, in simulated minutes.
    pub jct_min_sum: f64,
    /// GPU time consumed, in simulated GPU-hours.
    pub gpu_hours: f64,
    /// Mean placement score of finished apps.
    pub placement: f64,
    /// Engine rounds.
    pub rounds: u64,
    /// Control-plane counters (`themis-dist` only).
    pub control: Option<ControlPlaneStats>,
    /// Service-engine counters (`service-poisson` only).
    pub service: Option<ServiceCounts>,
}

impl Summary {
    fn of(report: &SimReport, digest: u64, jobs: u64) -> Summary {
        Summary {
            digest,
            apps: report.apps.len() as u64,
            finished: report.finished_apps() as u64,
            jobs,
            max_rho: report.max_fairness().unwrap_or(f64::NAN),
            jain: report.jains_index().unwrap_or(f64::NAN),
            jct_min_sum: report
                .apps
                .iter()
                .filter_map(|a| a.completion_time)
                .map(|t| t.as_minutes())
                .sum(),
            gpu_hours: report.total_gpu_time.as_hours(),
            placement: report.mean_placement_score().unwrap_or(f64::NAN),
            rounds: report.scheduling_rounds,
            control: report.control,
            service: None,
        }
    }
}

/// What a traced simulation measured of each layer.
#[derive(Debug, Clone)]
pub struct Layers {
    /// Span totals per name.
    pub totals: Totals,
    /// Trace generation time, in ms: set-up for the batch workloads,
    /// streamed during the run for `service-poisson`.
    pub trace_ms: f64,
    /// Policy-call counts and GPU-conservation violations.
    pub calls: CallCounts,
    /// Themis step counts (in-process workloads).
    pub steps: StepCounts,
    /// Transport transcript counts (`dist-lossy`).
    pub protocol: ProtocolCounts,
}

/// The result of running one prepared instance.
pub struct Outcome {
    /// Simulated results.
    pub summary: Summary,
    /// Host seconds the simulation ran, set-up excluded, as measured.
    pub run_s: f64,
    /// The same, scaled to the nominal host (see `RunClock`).
    pub scaled_s: f64,
    /// Host ns between consecutive policy calls, scaled (untraced runs).
    pub intervals_ns: Histogram,
    /// Per-layer measurements (traced runs).
    pub layers: Option<Layers>,
}

/// Counts the streamed apps of `service-poisson`, and times their
/// generation as `workload.next_app` spans when traced.
struct CountingSource<A> {
    inner: A,
    admit_until: Time,
    jobs: Rc<RefCell<u64>>,
    recorder: Option<Rc<Recorder>>,
}

impl<A: AppSource> AppSource for CountingSource<A> {
    fn next_app(&mut self) -> Option<AppSpec> {
        let span = self
            .recorder
            .as_ref()
            .map(|r| (r, r.open(Name::WorkloadNextApp, r.root())));
        let app = self.inner.next_app();
        if let Some((recorder, id)) = span {
            recorder.close(id);
        }
        if let Some(spec) = &app {
            if spec.arrival <= self.admit_until {
                *self.jobs.borrow_mut() += spec.num_jobs() as u64;
            }
        }
        app
    }
}

type Service = ServiceEngine<Box<dyn Scheduler>, CountingSource<StreamSource>>;

enum Sim {
    Batch(Box<Engine<Box<dyn Scheduler>>>),
    Service(Box<Service>),
}

/// One instance, set up and ready to run.
pub struct Prepared {
    sim: Sim,
    jobs: Rc<RefCell<u64>>,
    clock: Rc<RefCell<RunClock>>,
    trace: Option<Trace>,
}

/// The traced run's handles into one instance.
struct Trace {
    recorder: Rc<Recorder>,
    first_span: usize,
    trace_ms: f64,
    calls: Rc<RefCell<CallCounts>>,
    steps: Rc<RefCell<StepCounts>>,
    log: Option<Arc<Mutex<MessageLog>>>,
}

/// Sets up instance `instance_seed` of `workload`: trace generation,
/// cluster build, policy build and engine construction. With a recorder
/// the policy runs traced: in-process Themis under the step driver,
/// `themis-dist` with its transport transcript recorded. The simulation's
/// clock samples the reference kernel through `speed`.
pub fn prepare(
    workload: Workload,
    instance_seed: u64,
    recorder: Option<&Rc<Recorder>>,
    speed: &Rc<RefCell<HostSpeed>>,
) -> Prepared {
    let scenario = workload.scenario(instance_seed);
    let first_span = recorder.map(|r| r.begin_run());
    let clock = Rc::new(RefCell::new(RunClock::new(Rc::clone(speed))));
    let calls = Rc::new(RefCell::new(CallCounts::default()));
    let steps = Rc::new(RefCell::new(StepCounts::default()));
    let log = (recorder.is_some() && !workload.in_process())
        .then(|| Arc::new(Mutex::new(MessageLog::new())));

    let policy = scenario.instantiate(workload.policy());
    let build = |config| -> Box<dyn Scheduler> {
        let mode = log
            .as_ref()
            .map_or(LogMode::Off, |l| LogMode::record(Arc::clone(l)));
        match recorder {
            None => Box::new(Clocked::new(
                policy.build_with_log(config, mode),
                Rc::clone(&clock),
            )),
            Some(recorder) => match policy {
                Policy::Themis(themis) => Box::new(Traced::new(
                    ThemisSteps::new(themis, Rc::clone(recorder), Rc::clone(&steps)),
                    Rc::clone(recorder),
                    Rc::clone(&calls),
                )),
                _ => Box::new(Traced::new(
                    policy.build_with_log(config, mode),
                    Rc::clone(recorder),
                    Rc::clone(&calls),
                )),
            },
        }
    };

    let jobs = Rc::new(RefCell::new(0u64));
    let mut trace_ms = 0.0;
    let sim = match scenario.service {
        None => {
            let started = Instant::now();
            let span = recorder.map(|r| r.open(Name::WorkloadTrace, ROOT));
            let trace = scenario.trace();
            if let (Some(r), Some(id)) = (recorder, span) {
                r.close(id);
            }
            trace_ms = started.elapsed().as_secs_f64() * 1e3;
            *jobs.borrow_mut() = trace.iter().map(|a| a.num_jobs() as u64).sum();
            let cluster = Cluster::new(scenario.cluster_spec());
            let config = scenario.sim_config();
            let scheduler = build(&config);
            Sim::Batch(Box::new(Engine::new(cluster, trace, scheduler, config)))
        }
        Some(axis) => {
            // The admission window is the axis horizon; the service horizon
            // is the batch engine's, so the backlog drains and every
            // admitted app finishes.
            let admit_until = Time::minutes(axis.horizon_minutes);
            let trace_config = scenario.trace_config();
            let mean = trace_config.mean_interarrival / axis.rate;
            let shape = axis.shape.arrival_shape(admit_until);
            let arrivals = ArrivalProcess::new(shape, mean, scenario.seed);
            let source = CountingSource {
                inner: StreamSource::new(arrivals, TraceStream::new(trace_config), admit_until),
                admit_until,
                jobs: Rc::clone(&jobs),
                recorder: recorder.cloned(),
            };
            let sim_config = scenario.sim_config().with_incremental(true);
            let service_config = ServiceConfig {
                horizon: sim_config.max_sim_time,
                ..scenario.service_config()
            };
            let cluster = Cluster::new(scenario.cluster_spec());
            let scheduler = build(&sim_config);
            Sim::Service(Box::new(ServiceEngine::new(
                cluster,
                scheduler,
                sim_config,
                service_config,
                source,
            )))
        }
    };
    let trace = recorder.map(|r| Trace {
        recorder: Rc::clone(r),
        first_span: first_span.expect("set when traced"),
        trace_ms,
        calls,
        steps,
        log,
    });
    Prepared {
        sim,
        jobs,
        clock,
        trace,
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Prepared {
    /// Runs the simulation to its end.
    pub fn run(self) -> Outcome {
        let root = self.trace.as_ref().map(|t| {
            let id = t.recorder.open(Name::EngineRun, ROOT);
            t.recorder.set_root(id);
            id
        });
        // Stops the root span and the clock as soon as the engine returns,
        // before the report is rendered.
        self.clock.borrow_mut().start();
        let stop = || {
            let end = Instant::now();
            if let (Some(t), Some(id)) = (&self.trace, root) {
                t.recorder.close(id);
            }
            self.clock.borrow_mut().stop(end)
        };
        let ((run_s, scaled_s, intervals_ns), report_text, report, service) = match self.sim {
            Sim::Batch(engine) => {
                let report = engine.run();
                (stop(), format!("{report:?}"), report, None)
            }
            Sim::Service(engine) => {
                let report = engine.run();
                let times = stop();
                let counts = ServiceCounts {
                    admitted: report.admitted,
                    retired: report.retired,
                    auctions_run: report.auctions_run,
                    auctions_skipped: report.auctions_skipped,
                };
                (times, format!("{report:?}"), report.sim, Some(counts))
            }
        };
        let mut summary = Summary::of(&report, fnv1a(&report_text), *self.jobs.borrow());
        summary.service = service;
        let layers = self.trace.map(|t| {
            let totals = t.recorder.totals_since(t.first_span);
            let trace_ms = if service.is_some() {
                totals.ms(Name::WorkloadNextApp)
            } else {
                t.trace_ms
            };
            let protocol = t
                .log
                .as_ref()
                .map_or(ProtocolCounts::default(), |l| ProtocolCounts::of(&l.lock()));
            let calls = *t.calls.borrow();
            let steps = *t.steps.borrow();
            Layers {
                totals,
                trace_ms,
                calls,
                steps,
                protocol,
            }
        });
        Outcome {
            summary,
            run_s,
            scaled_s,
            intervals_ns,
            layers,
        }
    }
}
