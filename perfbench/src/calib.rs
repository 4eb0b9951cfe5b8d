//! Host-speed calibration. The benchmark shares a few CPUs of a busy
//! host whose speed drifts by tens of percent within a minute, so every
//! gated timing is taken next to a fixed reference kernel and reported
//! in *reference seconds*: the interval times [`REF_SECS`] over the
//! kernel's time around it. A program change moves the interval and
//! leaves the kernel alone; a host slowdown moves both.
//!
//! The kernel is a breadth-first search sweep over a fixed random graph
//! built here, the same kind of work (adjacency scans, a queue, a
//! distance array) as the simulator's rounds. It depends on no crate of
//! the repository and on no `--seed`, so its work never changes.

use std::hint::black_box;
use std::time::Instant;

/// Nodes and out-degree of the reference graph.
const NODES: usize = 1 << 15;
const DEGREE: usize = 4;
/// Breadth-first searches in one kernel run.
const SWEEPS: usize = 14;
/// The kernel's time on an idle 2-vCPU Xeon host (2.0 GHz); a
/// calibrated interval reads in seconds at that speed.
pub const REF_SECS: f64 = 0.010;
/// A reading older than this is taken again before the next interval.
const STALE_SECS: f64 = 0.05;

/// The reference kernel and its latest reading.
pub struct Calibrator {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
    /// The latest kernel time and when it ended.
    last: (f64, Instant),
    /// Every kernel time taken (s).
    pub readings: Vec<f64>,
}

impl Calibrator {
    /// Builds the reference graph and warms the kernel up.
    pub fn new() -> Calibrator {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % NODES as u64) as u32
        };
        let offsets = (0..=NODES).map(|v| (v * DEGREE) as u32).collect();
        let targets = (0..NODES * DEGREE).map(|_| next()).collect();
        let mut c = Calibrator {
            offsets,
            targets,
            dist: vec![0; NODES],
            queue: Vec::with_capacity(NODES),
            last: (0.0, Instant::now()),
            readings: Vec::new(),
        };
        for _ in 0..3 {
            c.read();
        }
        c.readings.clear();
        c
    }

    /// Runs the kernel once and returns its time (s).
    fn read(&mut self) -> f64 {
        let t0 = Instant::now();
        for sweep in 0..SWEEPS {
            black_box(self.bfs((sweep * NODES / SWEEPS) as u32));
        }
        let secs = t0.elapsed().as_secs_f64();
        self.last = (secs, Instant::now());
        self.readings.push(secs);
        secs
    }

    /// Nodes reached from `source`, summed with their distances.
    fn bfs(&mut self, source: u32) -> u64 {
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[source as usize] = 0;
        self.queue.push(source);
        let mut head = 0;
        let mut sum = 0u64;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let d = self.dist[v as usize];
            sum += u64::from(d) + 1;
            let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
            for &w in &self.targets[lo as usize..hi as usize] {
                if self.dist[w as usize] == u32::MAX {
                    self.dist[w as usize] = d + 1;
                    self.queue.push(w);
                }
            }
        }
        sum
    }

    /// Runs `f` between two kernel readings. Returns its result, its wall
    /// time and its time in reference seconds (both in s).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        if self.readings.is_empty() || self.last.1.elapsed().as_secs_f64() > STALE_SECS {
            self.read();
        }
        let before = self.last.0;
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        let after = self.read();
        (out, wall, wall * REF_SECS * 2.0 / (before + after))
    }
}
