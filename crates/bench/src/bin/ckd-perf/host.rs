//! Host-speed calibration.
//!
//! On a shared virtual machine the per-core speed can change by up to 1.8×
//! on a scale of seconds to minutes, as co-tenants contend for caches and
//! memory bandwidth (measured on a 2-vCPU Xeon VM), and a whole timed run
//! can fall inside a slow phase. A fixed kernel, timed before and after
//! every pass, measures the host's speed at that moment as
//! `REF_MS ÷ kernel ms`; timed rates are divided by it and times multiplied
//! by it.
//!
//! The kernel mixes the three kinds of work that tracked simulator pass
//! times best: a binary-heap hold model over 64k entries, random reads
//! over 16 MB and allocation churn, in time shares of about 2 : 2 : 1. The
//! mix was chosen from two recordings of every workload made hours apart,
//! with each candidate kernel timed before every pass: a pure ALU loop
//! tracked worst in both, and a DRAM pointer chase tracked well in the
//! first and badly in the second.
//!
//! The kernel is std-only, and each timed run follows an untimed one that
//! restores its working set, so a pass that leaves more of the caches dirty
//! does not slow the kernel and hide its own cost.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// About the kernel's time in the fastest phase seen on a 2-vCPU Xeon VM
/// (2.0 GHz); a timed metric reads as measured whenever the kernel takes
/// this long.
pub const REF_MS: f64 = 12.0;

const HEAP_OPS: usize = 34_000;
const READS: usize = 600_000;
const ALLOCS: usize = 60_000;

/// A fixed xorshift64 stream.
pub struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

pub struct Calib {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
    ring: Vec<Vec<u8>>,
    /// Every kernel time measured, in ms.
    pub samples: Vec<f64>,
}

impl Calib {
    pub fn new() -> Calib {
        let mut rng = XorShift(0x5EED);
        let mut c = Calib {
            heap: (0..1u64 << 16)
                .map(|i| Reverse((rng.next() % (1 << 20), i)))
                .collect(),
            table: (0..1u64 << 21).collect(),
            ring: vec![vec![0; 64]; 4096],
            samples: Vec::new(),
        };
        c.kernel_ms(); // fault in and warm the working set
        c
    }

    fn kernel_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut rng = XorShift(black_box(0x2545_F491_4F6C_DD1D));
        for _ in 0..HEAP_OPS {
            let Reverse((at, id)) = self.heap.pop().expect("steady depth");
            self.heap
                .push(Reverse((at + 1 + rng.next() % (1 << 20), id)));
        }
        let mask = self.table.len() - 1;
        let mut acc = 0u64;
        for _ in 0..READS {
            acc = acc.wrapping_add(self.table[rng.next() as usize & mask]);
        }
        for _ in 0..ALLOCS {
            let i = rng.next() as usize % self.ring.len();
            self.ring[i] = vec![1; 16 + rng.next() as usize % 240];
        }
        black_box((acc, &self.ring));
        t0.elapsed().as_nanos() as f64 / 1e6
    }

    /// Time the kernel once and remember the sample. An untimed run first
    /// brings its working set back into the caches, so the timed run does
    /// not depend on what the code measured before it left there.
    pub fn sample(&mut self) -> f64 {
        self.kernel_ms();
        let ms = self.kernel_ms();
        self.samples.push(ms);
        ms
    }
}

/// Host fingerprint: a fixed 20M-step xorshift loop, median of 3, in ms.
pub fn calib_alu_ms() -> f64 {
    let mut v: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut rng = XorShift(black_box(0x2545_F491_4F6C_DD1D));
            let mut acc = 0u64;
            for _ in 0..20_000_000 {
                acc = acc.wrapping_add(rng.next());
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    crate::median(&mut v)
}
