//! The reference kernel: a fixed piece of work owned by the benchmark, run
//! on either side of every measured window so window times can be expressed
//! in units of it.
//!
//! The host this benchmark runs on shares its cores with other machines,
//! and its speed drifts by a quarter or more within minutes. A window and
//! the reference runs around it see the same host, so their ratio keeps the
//! program's speed and drops most of the host's. The kernel depends on no
//! crate of the program, so a change to the program moves the window and
//! not the reference. Changing the kernel rescales every reference-unit
//! metric: [`CHECKSUM`] pins it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Keys inserted and probed per run.
const KEYS: usize = 1 << 18;
/// Distinct keys of the hash table.
const DOMAIN: u64 = 200_000;

/// What [`Kernel::run`] returns; a test fails when the kernel changes.
pub const CHECKSUM: u64 = 0xda22_889b_7592_46f6;

/// The kernel and its buffers. The buffers are allocated and touched once,
/// when the kernel is made, and reused by every run: the kernel adds a
/// constant to the process's resident memory instead of a peak of its own,
/// and a run does not allocate.
pub struct Kernel {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
    out: Vec<u64>,
}

impl Kernel {
    /// Allocates the buffers and runs the kernel once to touch them.
    pub fn new() -> Self {
        let mut k = Self {
            table: HashMap::with_capacity_and_hasher(DOMAIN as usize, Default::default()),
            keys: Vec::with_capacity(KEYS),
            out: Vec::with_capacity(KEYS),
        };
        k.run();
        k
    }

    /// Builds a hash table, probes it, and sorts the probe results: the
    /// same mix of hashing, pointer chasing and sorting the engine's
    /// operators do, on a fixed input. Uses a fixed hasher, so every run
    /// does the same work. About 50 ms on the host it was tuned on.
    pub fn run(&mut self) -> u64 {
        self.table.clear();
        self.keys.clear();
        self.out.clear();
        let mut x: u64 = 0x0139_408d_cbbf_7a44;
        for _ in 0..KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.keys.push(x);
            self.table.insert(x % DOMAIN, x);
        }
        let mut acc = 0u64;
        for k in &self.keys {
            if let Some(v) = self.table.get(&(k.rotate_left(3) % DOMAIN)) {
                acc = acc.wrapping_add(*v);
            }
        }
        self.out.extend(self.keys.iter().map(|k| k ^ acc));
        self.out.sort_unstable();
        self.out
            .iter()
            .step_by(1 << 10)
            .fold(acc, |h, v| h.rotate_left(5) ^ v)
    }

    /// Wall time of one run, in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.run());
        t.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

/// Reference runs around a sequence of timed intervals: one before the
/// first, then one after each, shared with the next interval.
pub struct Bracket<'k> {
    kernel: &'k mut Kernel,
    before: f64,
}

impl<'k> Bracket<'k> {
    /// Runs the reference before the first interval.
    pub fn start(kernel: &'k mut Kernel) -> Self {
        let before = kernel.time_ms();
        Self { kernel, before }
    }

    /// Runs the reference after an interval and returns the mean of the
    /// runs on either side of it, in ms. The mean follows a host whose speed
    /// changes during the interval better than either run alone.
    pub fn close(&mut self) -> f64 {
        let after = self.kernel.time_ms();
        let around = (self.before + after) / 2.0;
        self.before = after;
        around
    }
}
