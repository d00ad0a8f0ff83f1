//! The repository benchmark: simulator throughput and the paper's fairness
//! and efficiency metrics on four workloads, with a per-layer traced run.
//!
//! ```text
//! themis-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! A run simulates the workload's instances round-robin for `--seconds`
//! (at least one full pass, and at least one instance twice). With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced simulations of each instance and reports
//! the per-layer metrics, writing the spans to `--spans-dir`. Every host
//! time is scaled to a nominal host speed by the reference kernel samples
//! taken just before and after it (see `reference`), an untraced
//! simulation's piece by piece (see `probe::RunClock`). The last line of
//! standard output is one JSON object; the exit code is 1 when a
//! correctness check failed and 2 on a usage error. See `README.md`.

mod histogram;
mod probe;
mod reference;
mod rss;
mod spans;
mod steps;
mod workloads;

use reference::HostSpeed;
use spans::{Name, Recorder};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{prepare, Layers, Outcome, Summary, Workload};

/// Fewest groups of set-ups timed for `setup_s`.
const SETUP_MIN_GROUPS: usize = 15;

/// Host time between the starts of two groups of set-ups, at least. The
/// host's speed drifts over seconds, so the groups are spread through the
/// run rather than timed all at once.
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// Host time of one group of full set-ups (every instance of a pass),
/// timed between two reference kernel samples, at least.
const SETUP_GROUP: Duration = Duration::from_millis(30);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

/// Every simulation of one instance in a run.
#[derive(Default)]
struct Instance {
    /// The first untraced simulation's results; every later simulation of
    /// the instance must reproduce its digest.
    summary: Option<Summary>,
    /// Host seconds of each untraced simulation, scaled.
    run_s: Vec<f64>,
    /// Host seconds of each untraced simulation, as measured.
    raw_run_s: Vec<f64>,
    /// Peak resident memory of each untraced simulation, in MB.
    peak_mb: Vec<f64>,
    /// Median and 99th percentile of each untraced simulation's scaled
    /// round intervals, in ns.
    round_p50_ns: Vec<f64>,
    round_p99_ns: Vec<f64>,
    /// Host seconds of each traced simulation, scaled.
    traced_run_s: Vec<f64>,
    /// Per-layer measurements of each traced simulation, with the factor
    /// that scales its host times.
    layers: Vec<(Layers, f64)>,
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The median over instances of `of`.
fn median_instance(instances: &[Instance], of: impl Fn(&Instance) -> f64) -> f64 {
    median(&mut instances.iter().map(of).collect::<Vec<_>>())
}

/// The geometric mean over instances of `of`. Instance cost is
/// heavy-tailed in the trace, about log-normal: on ten seeds, the geometric
/// mean moved less from seed to seed than the median, the interquartile
/// mean or the arithmetic mean of the same instances. A change that makes
/// every instance x% faster moves it by x%.
fn geomean_instance(instances: &[Instance], of: impl Fn(&Instance) -> f64) -> f64 {
    let logs: f64 = instances.iter().map(|i| of(i).ln()).sum();
    (logs / instances.len() as f64).exp()
}

/// Apps per host second: of each instance, its apps over the median of its
/// simulation times `times`; their geometric mean over instances.
fn apps_per_s(instances: &[Instance], times: impl Fn(&Instance) -> &Vec<f64>) -> f64 {
    geomean_instance(instances, |i| {
        let apps = i.summary.as_ref().expect("every instance ran").apps;
        apps as f64 / median(&mut times(i).clone())
    })
}

/// A round-interval quantile in µs: of each instance, the median over its
/// simulations of their quantile `per_simulation`; their geometric mean
/// over instances.
fn round_us(instances: &[Instance], per_simulation: impl Fn(&Instance) -> &Vec<f64>) -> f64 {
    geomean_instance(instances, |i| median(&mut per_simulation(i).clone())) / 1e3
}

/// One pass's value of a per-layer time: the sum over instances of each
/// instance's median, each traced simulation's time scaled.
fn pass_ms(instances: &[Instance], get: impl Fn(&Layers) -> f64) -> f64 {
    instances
        .iter()
        .map(|i| {
            let mut scaled: Vec<f64> = i.layers.iter().map(|(l, f)| get(l) * f).collect();
            median(&mut scaled)
        })
        .sum()
}

/// One pass's value of a per-layer count (deterministic, so the first
/// traced simulation of each instance stands for all of them).
fn pass_count(instances: &[Instance], get: impl Fn(&Layers) -> u64) -> u64 {
    instances.iter().map(|i| get(&i.layers[0].0)).sum()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn print_table(&self, title: &str) {
        println!("{title}");
        for (name, value, unit) in &self.0 {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(reference::SERVE_FLAG) {
        if let Err(e) = reference::serve() {
            eprintln!("perfbench: reference kernel process: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: themis-perfbench --workload <name> --seed <n> --seconds <s> \
                 --trace <0|1> [--spans-dir <dir>]"
            );
            std::process::exit(2);
        }
    };
    let speed = match HostSpeed::spawn() {
        Ok(speed) => Rc::new(RefCell::new(speed)),
        Err(e) => {
            eprintln!("perfbench: cannot start the reference kernel process: {e}");
            std::process::exit(1);
        }
    };
    let code = run(&args, &speed);
    drop(speed);
    std::process::exit(code);
}

/// Host seconds to set up every instance once, one instance at a time.
fn setup_once(workload: Workload, seeds: &[u64], speed: &Rc<RefCell<HostSpeed>>) -> f64 {
    seeds
        .iter()
        .map(|seed| {
            let started = Instant::now();
            let prepared = prepare(workload, *seed, None, speed);
            let s = started.elapsed().as_secs_f64();
            drop(prepared);
            s
        })
        .sum()
}

/// Full set-ups timed for `setup_s`, in groups spread through the run.
#[derive(Default)]
struct SetupTimes {
    /// Host seconds of each full set-up, scaled.
    scaled: Vec<f64>,
    /// Host seconds of each full set-up, as measured.
    raw: Vec<f64>,
    groups: usize,
    last: Option<Instant>,
}

impl SetupTimes {
    /// Times one group of at least two full set-ups lasting at least
    /// [`SETUP_GROUP`], and scales it by the kernel samples around it.
    fn time_group(&mut self, workload: Workload, seeds: &[u64], speed: &Rc<RefCell<HostSpeed>>) {
        let started = Instant::now();
        self.last = Some(started);
        let first = self.raw.len();
        while self.raw.len() < first + 2 || started.elapsed() < SETUP_GROUP {
            self.raw.push(setup_once(workload, seeds, speed));
        }
        let scale = speed.borrow_mut().bracket();
        let scaled: Vec<f64> = self.raw[first..].iter().map(|s| s * scale).collect();
        self.scaled.extend(scaled);
        self.groups += 1;
    }

    /// Whether [`SETUP_EVERY`] has passed since the last group began.
    fn due(&self) -> bool {
        self.last.is_none_or(|last| last.elapsed() >= SETUP_EVERY)
    }
}

fn run(args: &Args, speed: &Rc<RefCell<HostSpeed>>) -> i32 {
    let workload = args.workload;
    let count = if args.trace {
        workload.traced_instances()
    } else {
        workload.instances()
    };
    let seeds: Vec<u64> = (0..count)
        .map(|i| workload.instance_seed(args.seed, i))
        .collect();
    let mut failures: Vec<String> = Vec::new();

    // Untraced runs time full set-ups between simulations, apart from
    // them, for `setup_s`.
    let mut setup = SetupTimes::default();
    let recorder = Rc::new(Recorder::new());
    let mut instances: Vec<Instance> = (0..count).map(|_| Instance::default()).collect();
    let mut round_samples = 0u64;
    let mut peak_error = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut step = 0usize;
    speed.borrow_mut().sample();
    loop {
        // At least one full pass, and one instance simulated twice.
        if step > count && Instant::now() >= deadline {
            break;
        }
        if !args.trace && setup.due() {
            setup.time_group(workload, &seeds, speed);
        }
        let index = step % count;
        let instance = &mut instances[index];
        let seed = seeds[index];

        if let Err(e) = rss::reset_peak() {
            peak_error = Some(format!("cannot reset the peak-RSS mark: {e}"));
        }
        let outcome = prepare(workload, seed, None, speed).run();
        instance.peak_mb.push(rss::peak_mb());
        check(
            &mut failures,
            workload,
            seed,
            instance,
            &outcome,
            "untraced",
        );
        instance.run_s.push(outcome.scaled_s);
        instance.raw_run_s.push(outcome.run_s);
        instance
            .round_p50_ns
            .push(outcome.intervals_ns.quantile(0.50));
        instance
            .round_p99_ns
            .push(outcome.intervals_ns.quantile(0.99));
        round_samples += outcome.intervals_ns.len();
        if instance.summary.is_none() {
            instance.summary = Some(outcome.summary);
        }

        if args.trace {
            let traced = prepare(workload, seed, Some(&recorder), speed).run();
            // One segment: the factor that scaled its run time.
            let scale = traced.scaled_s / traced.run_s;
            check(&mut failures, workload, seed, instance, &traced, "traced");
            instance.traced_run_s.push(traced.scaled_s);
            let layers = traced.layers.expect("a traced run measures layers");
            instance.layers.push((layers, scale));
        }
        step += 1;
    }
    failures.extend(peak_error);
    while !args.trace && setup.groups < SETUP_MIN_GROUPS {
        setup.time_group(workload, &seeds, speed);
    }

    let summaries: Vec<&Summary> = instances
        .iter()
        .map(|i| i.summary.as_ref().expect("every instance ran"))
        .collect();
    let apps: u64 = summaries.iter().map(|s| s.apps).sum();
    let finished: u64 = summaries.iter().map(|s| s.finished).sum();
    // Every simulation of an instance simulates the same apps.
    let runs = |i: &Instance| (i.run_s.len() + i.traced_run_s.len()) as u64;
    let simulations: u64 = instances.iter().map(runs).sum();
    let attempted: u64 = instances
        .iter()
        .zip(&summaries)
        .map(|(i, s)| runs(i) * s.apps)
        .sum();
    let failed: u64 = instances
        .iter()
        .zip(&summaries)
        .map(|(i, s)| runs(i) * (s.apps - s.finished))
        .sum();

    println!(
        "perfbench workload={} seed={} trace={} instances={} instance_seeds={}..={} \
         simulations={} held_out_seed={}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        count,
        seeds[0],
        seeds[count - 1],
        simulations,
        HELD_OUT_SEED,
    );

    let untraced_aps = apps_per_s(&instances, |i| &i.run_s);
    let mut metrics = Metrics(Vec::new());
    if !args.trace {
        let control = summaries
            .iter()
            .filter_map(|s| s.control)
            .fold((0u64, 0u64), |(done, all), c| {
                (done + c.completed_rounds, all + c.rounds)
            });
        let jct_sum: f64 = summaries.iter().map(|s| s.jct_min_sum).sum();
        let mean =
            |get: fn(&Summary) -> f64| summaries.iter().map(|s| get(s)).sum::<f64>() / count as f64;
        metrics.push("apps_per_s", untraced_aps, "apps/s");
        metrics.push("setup_s", median(&mut setup.scaled), "s");
        metrics.push(
            "round_us_p50",
            round_us(&instances, |i| &i.round_p50_ns),
            "us",
        );
        metrics.push(
            "round_us_p99",
            round_us(&instances, |i| &i.round_p99_ns),
            "us",
        );
        let peak = median_instance(&instances, |i| median(&mut i.peak_mb.clone()));
        metrics.push("peak_rss_mb", peak, "MB");
        metrics.push("max_rho", mean(|s| s.max_rho), "ratio");
        metrics.push("jain", mean(|s| s.jain), "ratio");
        metrics.push("avg_jct_min", jct_sum / finished as f64, "min");
        metrics.push("gpu_hours", mean(|s| s.gpu_hours), "GPU-h");
        metrics.push("placement_score", mean(|s| s.placement), "ratio");
        metrics.push("finished_frac", finished as f64 / apps as f64, "ratio");
        let completed = if control.1 == 0 {
            1.0
        } else {
            control.0 as f64 / control.1 as f64
        };
        metrics.push("completed_round_rate", completed, "ratio");
        metrics.print_table(&format!(
            "end-to-end ({} round samples; {} full set-ups in {} groups)",
            round_samples,
            setup.raw.len(),
            setup.groups
        ));
        println!(
            "  as measured, unscaled: apps_per_s {:.6} apps/s, setup_s {:.9} s",
            apps_per_s(&instances, |i| &i.raw_run_s),
            median(&mut setup.raw)
        );
    } else {
        let traced_aps = apps_per_s(&instances, |i| &i.traced_run_s);
        per_layer(&mut metrics, &instances, untraced_aps, traced_aps);
        metrics.print_table("per-layer (one pass: every instance once)");
        println!("  untraced apps_per_s beside it: {untraced_aps:.6} apps/s");
        if let Some(dir) = &args.spans_dir {
            let path = dir.join(format!("spans-{}-seed{}.txt", workload.name(), args.seed));
            let header = format!(
                "perfbench spans workload={} seed={} instance_seeds={}..={}",
                workload.name(),
                args.seed,
                seeds[0],
                seeds[count - 1]
            );
            match std::fs::create_dir_all(dir).and_then(|()| recorder.dump(&path, &header)) {
                Ok(()) => println!("  {} spans written to {}", recorder.len(), path.display()),
                Err(e) => failures.push(format!("writing spans to {}: {e}", path.display())),
            }
        }
    }

    let speed = speed.borrow();
    println!(
        "host speed: reference kernel median {:.4} ms over {} samples; each host time \
         above is scaled to a host where it takes {} ms, by the samples just before \
         and after it (an untraced simulation's, segment by segment), to the power {}",
        speed.median_ms(),
        speed.samples(),
        reference::NOMINAL_MS,
        reference::ELASTICITY
    );
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            failures.push(format!("metric {name} is not a finite number"));
        }
    }
    for failure in &failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    if correct {
        0
    } else {
        1
    }
}

/// A seed no figure in this benchmark was tuned on, for re-checking a
/// claim made on other seeds.
const HELD_OUT_SEED: u64 = 7919;

/// The correctness checks every simulation must pass.
fn check(
    failures: &mut Vec<String>,
    workload: Workload,
    seed: u64,
    instance: &Instance,
    outcome: &Outcome,
    kind: &str,
) {
    let summary = &outcome.summary;
    if let Some(first) = &instance.summary {
        if first.digest != summary.digest {
            failures.push(format!(
                "instance seed {seed}: {kind} report differs from the first untraced one \
                 ({:016x} != {:016x})",
                summary.digest, first.digest
            ));
        }
    }
    if workload.must_finish() && summary.finished != summary.apps {
        failures.push(format!(
            "instance seed {seed}: {} of {} apps unfinished",
            summary.apps - summary.finished,
            summary.apps
        ));
    }
    if let Some(layers) = &outcome.layers {
        if layers.calls.conservation_violations > 0 {
            failures.push(format!(
                "instance seed {seed}: {} GPU-conservation violations in policy decisions",
                layers.calls.conservation_violations
            ));
        }
    }
}

fn per_layer(metrics: &mut Metrics, instances: &[Instance], untraced_aps: f64, traced_aps: f64) {
    let summaries: Vec<&Summary> = instances
        .iter()
        .map(|i| i.summary.as_ref().expect("every instance ran"))
        .collect();
    let sum = |get: fn(&Summary) -> u64| summaries.iter().map(|s| get(s)).sum::<u64>();
    let rounds = sum(|s| s.rounds);
    let engine_ms = pass_ms(instances, |l| l.totals.self_ms(Name::EngineRun));
    let run_ms = pass_ms(instances, |l| l.totals.ms(Name::EngineRun));
    let calls = pass_count(instances, |l| l.calls.calls);
    let idle = pass_count(instances, |l| l.calls.idle_calls);

    metrics.push(
        "workload.trace_ms",
        pass_ms(instances, |l| l.trace_ms),
        "ms",
    );
    metrics.push("workload.apps", sum(|s| s.apps) as f64, "count");
    metrics.push("workload.jobs", sum(|s| s.jobs) as f64, "count");
    metrics.push("engine.self_ms", engine_ms, "ms");
    metrics.push("engine.rounds", rounds as f64, "count");
    metrics.push(
        "engine.self_us_per_round",
        ratio(engine_ms * 1e3, rounds as f64),
        "us",
    );
    metrics.push("engine.share", ratio(engine_ms, run_ms), "ratio");
    metrics.push(
        "policy.ms",
        pass_ms(instances, |l| l.totals.ms(Name::PolicySchedule)),
        "ms",
    );
    metrics.push("policy.calls", calls as f64, "count");
    metrics.push("policy.idle_calls", idle as f64, "count");
    metrics.push(
        "policy.useful_ratio",
        ratio((calls - idle) as f64, calls as f64),
        "ratio",
    );

    let step = |name| pass_ms(instances, move |l: &Layers| l.totals.ms(name));
    let steps = |get: fn(&Layers) -> u64| pass_count(instances, get) as f64;
    metrics.push("core.agent.rho_ms", step(Name::AgentRho), "ms");
    metrics.push(
        "core.agent.rho_calls",
        steps(|l| l.steps.rho_calls),
        "count",
    );
    metrics.push("core.arbiter.select_ms", step(Name::ArbiterSelect), "ms");
    metrics.push(
        "core.arbiter.participants",
        steps(|l| l.steps.participants),
        "count",
    );
    metrics.push("core.agent.bid_ms", step(Name::AgentBid), "ms");
    metrics.push(
        "core.agent.bid_entries",
        steps(|l| l.steps.bid_entries),
        "count",
    );
    metrics.push("core.arbiter.auction_ms", step(Name::ArbiterAuction), "ms");
    metrics.push(
        "core.arbiter.auctions",
        steps(|l| l.steps.auctions),
        "count",
    );
    metrics.push(
        "core.auction.exact_solves",
        steps(|l| l.steps.exact_solves),
        "count",
    );
    metrics.push(
        "core.auction.greedy_solves",
        steps(|l| l.steps.greedy_solves),
        "count",
    );
    metrics.push(
        "core.auction.withheld_gpus",
        steps(|l| l.steps.withheld_gpus),
        "count",
    );
    metrics.push(
        "core.arbiter.leftover_gpus",
        steps(|l| l.steps.leftover_gpus),
        "count",
    );
    metrics.push("core.materialize_ms", step(Name::Materialize), "ms");
    let offered = steps(|l| l.steps.offered_gpus);
    let granted = steps(|l| l.steps.granted_gpus);
    metrics.push("cluster.offered_gpus", offered, "count");
    metrics.push("cluster.granted_gpus", granted, "count");
    metrics.push("cluster.grant_ratio", ratio(granted, offered), "ratio");

    let control = |get: fn(&themis_sim::scheduler::ControlPlaneStats) -> u64| {
        summaries
            .iter()
            .filter_map(|s| s.control.as_ref())
            .map(get)
            .sum::<u64>() as f64
    };
    let control_rounds = control(|c| c.rounds);
    metrics.push("control.rounds", control_rounds, "count");
    metrics.push(
        "control.completed_rounds",
        control(|c| c.completed_rounds),
        "count",
    );
    metrics.push(
        "control.missed_rho_reports",
        control(|c| c.missed_rho_reports),
        "count",
    );
    metrics.push("control.missed_bids", control(|c| c.missed_bids), "count");
    metrics.push("control.voided_wins", control(|c| c.voided_wins), "count");

    let sends = steps(|l| l.protocol.sends);
    metrics.push("protocol.sends", sends, "count");
    metrics.push(
        "protocol.deliveries",
        steps(|l| l.protocol.deliveries),
        "count",
    );
    metrics.push("protocol.dropped", steps(|l| l.protocol.dropped), "count");
    metrics.push("protocol.timers", steps(|l| l.protocol.timers), "count");
    metrics.push(
        "protocol.msgs_per_round",
        ratio(sends, control_rounds),
        "msgs/round",
    );

    let service = |get: fn(&workloads::ServiceCounts) -> u64| {
        summaries
            .iter()
            .filter_map(|s| s.service.as_ref())
            .map(get)
            .sum::<u64>() as f64
    };
    let run = service(|s| s.auctions_run);
    let skipped = service(|s| s.auctions_skipped);
    metrics.push("service.admitted", service(|s| s.admitted), "count");
    metrics.push("service.retired", service(|s| s.retired), "count");
    metrics.push("service.auctions_run", run, "count");
    metrics.push("service.auctions_skipped", skipped, "count");
    metrics.push("service.skip_ratio", ratio(skipped, run + skipped), "ratio");

    metrics.push("trace.overhead", 1.0 - traced_aps / untraced_aps, "ratio");
}
