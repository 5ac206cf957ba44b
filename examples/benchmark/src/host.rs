//! The host-speed reference that every end-to-end timing is scaled by.
//!
//! The benchmark runs on shared machines whose speed moves by up to
//! 1.7x over tens of seconds to minutes, as co-tenants come and go. That
//! drift is slower than one operation but faster than a run, so runs
//! made minutes apart disagree by more than any useful bound. Each
//! measured operation is therefore followed (multi-threaded ones also
//! preceded) by a fixed reference kernel, and its host time is divided
//! by the kernel's slowdown against `NOMINAL_S`: the result is the
//! operation's time at the reference speed.
//!
//! The kernel is allocation-heavy pointer code (short-lived vectors and
//! B-tree maps), like the simulator's own data structures. Measured on
//! a 2-vCPU Xeon host over ten 20-second windows, a simulator run
//! divided by this kernel's time varied by 4% (interquartile range over
//! the median), against 30% undivided; fixed compute kernels (an ALU
//! loop, unpredictable branches, an L2-resident dependent chase)
//! tracked the drift less well (11-24%). The kernel is benchmark code,
//! so no change to the simulator moves it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::report::mean;

/// The kernel's time on an unloaded host, in seconds.
pub const NOMINAL_S: f64 = 0.010;

/// Kernel timings per reading; their mean is the reading.
const REPS: usize = 3;

fn kernel() -> u64 {
    let mut s = 0u64;
    for i in 0..black_box(20_000u64) {
        let v: Vec<u64> = (0..(i % 500 + 16)).collect();
        s = s.wrapping_add(v[v.len() / 2]);
        let m: BTreeMap<u64, u64> = (0..(i % 40)).map(|k| (k * 7919 % 101, k)).collect();
        s = s.wrapping_add(m.len() as u64);
    }
    s
}

fn timed_kernel() -> f64 {
    let t0 = Instant::now();
    black_box(kernel());
    t0.elapsed().as_secs_f64()
}

/// How much slower than nominal the host runs now: the mean of `REPS`
/// kernel timings, each run on `threads` threads at once (the
/// operation's own thread count, so every core it used is sampled; one
/// of them is the calling thread).
pub fn slowdown(threads: usize) -> f64 {
    let mut times = Vec::with_capacity(REPS * threads);
    for _ in 0..REPS {
        std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads).map(|_| scope.spawn(timed_kernel)).collect();
            times.push(timed_kernel());
            times.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("reference kernel thread")),
            );
        });
    }
    mean(&times) / NOMINAL_S
}
