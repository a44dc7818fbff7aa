//! Host-speed reference: a fixed kernel, independent of the program, timed
//! between slices of each run so each pass can be scaled to a nominal host
//! speed.
//!
//! The host this benchmark runs on is shared, and its speed drifts by tens
//! of percent over minutes: the same binary on the same input takes 2.0 s
//! in one minute and 3.0 s a few minutes later. No statistic taken inside
//! one run removes a drift that slow. The kernel below does what the
//! engine's record path does most (allocate and fill small buffers, copy
//! them into one log, hash, update an ordered map, push and pop a binary heap,
//! sort) and adds dependent reads over an 8 MiB table, for the cache and
//! memory contention a shared host adds, so a slower host slows it about
//! as much as it slows the program. It never changes with the program, so
//! scaling by it leaves every change to the program in the figures.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Records the kernel builds per call.
const RECORDS: usize = 8_000;
/// Distinct keys of its ordered map.
const KEYS: u64 = 8_192;
/// Entries of the table the kernel reads at random: 8 MiB.
const TABLE: usize = 1 << 20;
/// Dependent table reads per call.
const READS: usize = 32_768;
/// Host seconds one kernel call takes at nominal speed: about its time in
/// the quiet minutes of a shared 2-vCPU x86-64 VM. Figures scaled by a
/// `Meter` read as if the whole pass had run at that speed.
const NOMINAL_S: f64 = 0.0048;
/// Host time between kernel calls while a pass runs (about 4% overhead).
const INTERVAL: Duration = Duration::from_millis(100);
/// Samples taken together at the start and at the end of a pass.
const BURST: usize = 3;

fn table() -> &'static [u64] {
    static TABLE_DATA: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE_DATA.get_or_init(|| {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    })
}

/// Build the kernel's table, so its memory is resident before any figure
/// is taken.
pub fn prepare() {
    black_box(table());
}

/// One call of the kernel on each of `threads` threads at once; the mean
/// of their host seconds.
fn kernel_s(threads: usize) -> f64 {
    let one = || {
        let t0 = Instant::now();
        black_box(kernel(black_box(0x9E37_79B9_7F4A_7C15)));
        t0.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return one();
    }
    std::thread::scope(|s| {
        let all: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        let times: Vec<f64> = all.into_iter().map(|h| h.join().unwrap()).collect();
        times.iter().sum::<f64>() / threads as f64
    })
}

/// Kernel timings taken through one pass, one every `INTERVAL` of host
/// time. Callers time the program between calls to `tick`, never across
/// one, so the kernel's own time is in no figure.
pub struct Meter {
    threads: usize,
    samples: Vec<f64>,
    last: Instant,
}

impl Meter {
    /// Start a pass with a burst of samples. `threads` is how many threads
    /// the program runs at once; the kernel runs on as many.
    pub fn start(threads: usize) -> Meter {
        let mut m = Meter {
            threads,
            samples: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..BURST {
            m.sample();
        }
        m
    }

    fn sample(&mut self) {
        self.samples.push(kernel_s(self.threads));
        self.last = Instant::now();
    }

    /// Take a sample if `INTERVAL` has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// How much slower than nominal the host ran over the pass: the mean
    /// kernel time, after a closing burst, over `NOMINAL_S`. A mean, not a
    /// median, so the samples a busy host delays count as they do for the
    /// program.
    /// Also returns the number of samples it rests on.
    pub fn slowdown(mut self) -> (f64, usize) {
        for _ in 0..BURST {
            self.sample();
        }
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        (mean / NOMINAL_S, self.samples.len())
    }
}

fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Allocate and fill small records.
    let records: Vec<Vec<u8>> = (0..RECORDS)
        .map(|_| {
            let r = next();
            let len = 16 + (r % 81) as usize;
            let mut v = Vec::with_capacity(len);
            let mut b = r;
            for _ in 0..len {
                v.push(b as u8);
                b = b.rotate_left(7) ^ 0xA5;
            }
            v
        })
        .collect();
    // Copy them into one log and hash each (FNV-1a).
    let mut log: Vec<u8> = Vec::new();
    let mut hashes: Vec<u64> = Vec::with_capacity(RECORDS);
    for r in &records {
        log.extend_from_slice(&(r.len() as u32).to_le_bytes());
        log.extend_from_slice(r);
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in r {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
        hashes.push(h);
    }
    // Keyed counters.
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    for &h in &hashes {
        *counts.entry(h % KEYS).or_default() += h >> 48;
    }
    // An event queue.
    let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
    let mut acc = 0u64;
    for (i, &h) in hashes.iter().enumerate() {
        heap.push((h, i as u32));
        if i % 3 == 2 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |e| e.0 >> 32));
        }
    }
    while let Some((h, _)) = heap.pop() {
        acc = acc.wrapping_add(h >> 40);
    }
    hashes.sort_unstable();
    // Dependent reads at random over the table.
    let t = table();
    let mut i = (acc as usize) % TABLE;
    for _ in 0..READS {
        i = (t[i] as usize ^ i) % TABLE;
    }
    acc ^ i as u64 ^ hashes[RECORDS / 2] ^ counts.len() as u64 ^ log.len() as u64
}
