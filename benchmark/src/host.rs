//! The bench's own dealings with the host: which CPUs the process's
//! threads may run on, and two probes that touch no program code, read
//! before and after every round.
//!
//! The host is a shared VM whose neighbours slow it down in bursts of
//! a second or two that recur for minutes. An arithmetic loop barely
//! notices; a pointer chase through memory does (135-150 ns per load
//! when quiet, 160-300 ns in a burst). The readings decide nothing;
//! they are reported (`host.*`) so that a reader can tell a disturbed
//! run from a slow program.

use crate::stats::median;
use std::time::Instant;

/// A reading this much above the run's fastest marks a disturbance.
const TOLERANCE: f64 = 1.12;

/// One reading of both probes.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Nanoseconds for the fixed arithmetic loop.
    pub spin_ns: f64,
    /// Nanoseconds per dependent load of the memory chase.
    pub mem_ns: f64,
}

impl Default for Reading {
    fn default() -> Self {
        Reading {
            spin_ns: f64::INFINITY,
            mem_ns: f64::INFINITY,
        }
    }
}

impl Reading {
    fn min(self, other: Reading) -> Reading {
        Reading {
            spin_ns: self.spin_ns.min(other.spin_ns),
            mem_ns: self.mem_ns.min(other.mem_ns),
        }
    }
}

/// The fastest of three runs of `f`, in nanoseconds: one interrupt in
/// a single run says nothing about the host, a slowdown shows in all.
fn fastest_of_three(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn spin_ns() -> f64 {
    fastest_of_three(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..400_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    })
}

/// A pointer chase through a buffer larger than the CPU's own caches.
#[derive(Debug)]
struct Chase {
    next: Vec<u32>,
    at: u32,
}

impl Chase {
    const STEPS: u32 = 20_000;

    /// One random cycle through `bytes` of memory (Sattolo's shuffle).
    fn new(bytes: usize) -> Chase {
        let n = bytes / 4;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Chase { next, at: 0 }
    }

    fn ns_per_load(&mut self) -> f64 {
        fastest_of_three(|| {
            for _ in 0..Chase::STEPS {
                self.at = self.next[self.at as usize];
            }
            std::hint::black_box(self.at);
        }) / f64::from(Chase::STEPS)
    }
}

// From the C library the standard library links; `pid` 0 is the
// calling thread, any other value a thread id.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel takes it: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

/// The CPUs the process was started on, and the switch between running
/// on all of them and on the first alone.
///
/// A request and its response are handed from the client thread to the
/// server's and back. On this 2-vCPU VM that hand-off costs 3 us when
/// both threads share a CPU and 30-60 us when the wake-up has to cross
/// to a halted vCPU, and which of the two a run got was the scheduler's
/// and the hypervisor's choice (unconfined, `serve_static` read 10 us
/// and 280k requests/s in one minute, 60 us and 100k in the next). So
/// the client-driven query phases run with every thread of the process
/// confined to one CPU (a different one each time); every other phase —
/// study, ingest, restart, freshness, analysis, the layer measurements
/// — runs on all of them.
#[derive(Debug)]
pub struct Cpus {
    all: CpuSet,
}

impl Cpus {
    pub fn detect() -> Cpus {
        let mut all: CpuSet = [0; 16];
        // SAFETY: `all` is a live, writable buffer of exactly the size
        // passed; the call writes at most that many bytes into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), all.as_mut_ptr()) };
        assert_eq!(rc, 0, "sched_getaffinity on the calling thread");
        Cpus { all }
    }

    /// Number of CPUs the process may use (what `nproc` prints).
    pub fn count(&self) -> u32 {
        self.all.iter().map(|word| word.count_ones()).sum()
    }

    /// Confines every thread of the process to one allowed CPU: the
    /// `nth`, counting round and round.
    pub fn confine(&self, nth: usize) {
        let allowed: Vec<usize> = (0..self.all.len() * 64)
            .filter(|cpu| self.all[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        let cpu = allowed[nth % allowed.len()];
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        apply(&one);
    }

    /// Lets every thread of the process run on all allowed CPUs again.
    pub fn release(&self) {
        apply(&self.all);
    }
}

/// Sets the affinity of every thread the process has right now; a
/// thread spawned later inherits its spawner's.
fn apply(set: &CpuSet) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks.filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
        // SAFETY: `set` is a live buffer of exactly the size passed and
        // is only read. A thread that has exited since it was listed
        // makes the call fail with ESRCH, which changes nothing.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    }
}

#[derive(Debug)]
pub struct Host {
    chase: Chase,
    /// Every reading of this run.
    readings: Vec<Reading>,
}

impl Host {
    pub fn new() -> Host {
        Host {
            chase: Chase::new(64 << 20),
            readings: Vec::new(),
        }
    }

    pub fn read(&mut self) -> Reading {
        let reading = Reading {
            spin_ns: spin_ns(),
            mem_ns: self.chase.ns_per_load(),
        };
        self.readings.push(reading);
        reading
    }

    /// Whether `reading` is more than [`TOLERANCE`] above the fastest
    /// reading of this run.
    pub fn disturbed(&self, reading: &Reading) -> bool {
        let fastest = self
            .readings
            .iter()
            .fold(Reading::default(), |best, r| best.min(*r));
        reading.spin_ns > fastest.spin_ns * TOLERANCE || reading.mem_ns > fastest.mem_ns * TOLERANCE
    }

    /// Median reading of this run, for the report.
    pub fn typical(&self) -> Reading {
        let of = |f: fn(&Reading) -> f64| median(&self.readings.iter().map(f).collect::<Vec<_>>());
        Reading {
            spin_ns: of(|r| r.spin_ns),
            mem_ns: of(|r| r.mem_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confining_narrows_this_thread_to_one_cpu_and_releasing_restores_it() {
        let cpus = Cpus::detect();
        assert!(cpus.count() >= 1);
        cpus.confine(1);
        assert_eq!(Cpus::detect().count(), 1);
        cpus.release();
        assert_eq!(Cpus::detect().count(), cpus.count());
    }

    #[test]
    fn a_reading_well_above_the_fastest_is_a_disturbance() {
        let mut host = Host::new();
        let reading = host.read();
        assert!(reading.spin_ns > 0.0 && reading.mem_ns > 0.0);
        assert!(
            !host.disturbed(&reading),
            "a run's only reading is its fastest"
        );
        let slow = Reading {
            spin_ns: reading.spin_ns,
            mem_ns: reading.mem_ns * 1.5,
        };
        assert!(host.disturbed(&slow));
    }
}
