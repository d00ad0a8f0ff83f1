//! The host-speed reference.
//!
//! The host this benchmark runs on shares its CPUs and memory system with
//! other tenants, and its speed drifts by tens of percent within seconds.
//! The simulator is memory-bound (BTreeMap-heavy), so the benchmark times a
//! fixed BTreeMap kernel of its own before and after every timed piece of
//! work and scales that work's host time to a host on which the kernel takes
//! [`NOMINAL_MS`]: multiplied by ([`NOMINAL_MS`] over the mean of the two
//! samples) to the power [`ELASTICITY`].
//!
//! The kernel runs in a child process of its own (this binary, started with
//! `--reference`), so the program's heap state in the benchmark process
//! cannot change the kernel's speed, and so cannot change the scale applied
//! to the program's own times. The benchmark must run pinned to one CPU
//! (`run.py` pins it), so that the kernel process runs on the CPU the
//! simulations run on: unpinned, it often ran on the other one, and scaling
//! by it made the figures spread more, not less.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The kernel time the scaled figures assume, in ms.
pub const NOMINAL_MS: f64 = 12.5;

/// How much faster than the kernel's the simulator's host time grows as the
/// host slows: the scale is the kernel's speed-up to this power. Over tens
/// of repeated simulations of one fixed instance, pinned, on a 2-core
/// x86-64 host, the log of the simulation time against the log of the
/// kernel time had slopes of 1.26, 1.70 and 1.22 on `batch-arrivals`,
/// `dist-lossy` and `service-poisson`; at 1.25 their scaled times spread
/// 2.1%, 4.6% and 3.7% (quartile distance over median), against 6.4%, 5.8%
/// and 3.8% at 1 and 32%, 11% and 6.4% unscaled.
pub const ELASTICITY: f64 = 1.25;

/// The flag that starts this binary as the kernel process.
pub const SERVE_FLAG: &str = "--reference";

/// Inserts, removes and range-queries 60,000 pseudo-random keys of a
/// 50,000-key space, and returns a checksum so none of it is elided.
fn kernel() -> u64 {
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut state = 7u64;
    let mut checksum = 0u64;
    for i in 0..60_000u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (state >> 33) % 50_000;
        if i % 3 == 0 {
            map.remove(&key);
        } else {
            *map.entry(key).or_insert(0) += i;
        }
        let next = map.range(key..).next().map_or(0, |(_, v)| *v);
        checksum = checksum.wrapping_add(next);
    }
    checksum
}

/// The kernel process's loop: for every line read from standard input,
/// times the kernel once and writes the time in ms as one line. Ends at
/// the end of its input.
pub fn serve() -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line?;
        let started = Instant::now();
        std::hint::black_box(kernel());
        writeln!(out, "{:?}", started.elapsed().as_secs_f64() * 1e3)?;
        out.flush()?;
    }
    Ok(())
}

/// The kernel process and the samples it has taken for one run.
pub struct HostSpeed {
    child: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Starts the kernel process, runs the kernel once to warm it up (that
    /// sample is not kept), and takes the first sample.
    pub fn spawn() -> std::io::Result<HostSpeed> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(SERVE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let requests = child.stdin.take();
        let replies = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut speed = HostSpeed {
            child,
            requests,
            replies,
            samples_ms: Vec::new(),
        };
        speed.request()?;
        let first = speed.request()?;
        speed.samples_ms.push(first);
        Ok(speed)
    }

    fn request(&mut self) -> std::io::Result<f64> {
        let requests = self.requests.as_mut().expect("open until drop");
        requests.write_all(b"\n")?;
        requests.flush()?;
        let mut reply = String::new();
        self.replies.read_line(&mut reply)?;
        reply.trim().parse().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("kernel process replied {reply:?}"),
            )
        })
    }

    /// Times the kernel once, and returns the time in ms.
    pub fn sample(&mut self) -> f64 {
        let ms = self.request().expect("the kernel process answers");
        self.samples_ms.push(ms);
        ms
    }

    /// Times the kernel once, and returns the factor that scales a host
    /// time measured since the previous sample to the nominal host:
    /// multiply a time by it, divide a rate by it.
    pub fn bracket(&mut self) -> f64 {
        let before = *self.samples_ms.last().expect("sampled at spawn");
        let after = self.sample();
        (2.0 * NOMINAL_MS / (before + after)).powf(ELASTICITY)
    }

    /// The median kernel time, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::median(&mut self.samples_ms.clone())
    }

    /// Number of kernel samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}

impl Drop for HostSpeed {
    /// Ends the kernel process's input and waits for it to exit.
    fn drop(&mut self) {
        drop(self.requests.take());
        let _ = self.child.wait();
    }
}
