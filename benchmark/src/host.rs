//! The host's speed, measured by a fixed reference kernel that belongs to
//! the benchmark, not to the program, so no change to the program moves
//! it.
//!
//! The host is shared: other tenants slow every timing, by up to 1.8×,
//! for minutes at a time, and no statistic over one run can remove a
//! slowdown that lasts the whole run. So each timed unit of work is
//! bracketed by measurements of the reference, and a timing's median is
//! scaled to the reference's nominal speed by the median reference over
//! its units. Reports print the times as measured too.
//!
//! The kernel runs in a child process of its own (this binary, started
//! with `--reference`), idle between measurements: run inside the
//! benchmark, its allocations slowed by a quarter as the serving heap
//! grew, which would have read as a faster host.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// The reference's time on a quiet host (seconds per pass).
pub const NOMINAL_S: f64 = 0.020;
/// Passes per measurement; the fastest is taken, since a burst of
/// contention only ever adds time to a pass.
const COMPUTE_PASSES: usize = 3;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Bytes of the fresh allocation each pass touches: over glibc's largest
/// mmap threshold (32 MiB), so every pass maps new pages.
const FRESH_BYTES: usize = 36 << 20;
/// Touch every this many bytes of it (every second 4 KiB page).
const FRESH_STRIDE: usize = 8 << 10;
/// Entries of the small-allocation map each pass builds.
const MAP_ENTRIES: u32 = 60_000;

/// The reference kernel. A pass takes three parts of about equal time,
/// because the program's timings slow with each under contention: a
/// pointer chase through 16 MiB, a sort and open-addressing probes
/// (memory latency, branches, cache); page faults on a fresh mapping; and
/// a hash map of small vectors built and dropped (the allocator). Fitted
/// against the 12k base fit over four minutes of a shared host whose speed
/// swung by 1.8×, the three together left a 6% spread of fit time over
/// reference, against 9% for the first part alone and 14% unscaled.
struct Compute {
    chase: Vec<u32>,
    unsorted: Vec<u64>,
    scratch: Vec<u64>,
    table: Vec<u64>,
}

impl Compute {
    fn new() -> Compute {
        let n = 1usize << 22;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut s = 1u64;
        for i in (1..n).rev() {
            s = mix(s.wrapping_add(i as u64));
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        // One cycle through every slot, in a random order.
        let mut chase = vec![0u32; n];
        for i in 0..n {
            chase[order[i] as usize] = order[(i + 1) % n];
        }
        Compute {
            chase,
            unsorted: (0..24_000u64).map(mix).collect(),
            scratch: Vec::new(),
            table: vec![0; 1 << 16],
        }
    }

    fn pass(&mut self) -> f64 {
        let t = Instant::now();
        let mut p = 0u32;
        for _ in 0..45_000 {
            p = self.chase[p as usize];
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.unsorted);
        self.scratch.sort_unstable();
        self.table.iter_mut().for_each(|x| *x = 0);
        let mask = self.table.len() - 1;
        let mut hits = 0u64;
        for &k in &self.unsorted {
            let mut h = mix(k) as usize & mask;
            while self.table[h] != 0 && self.table[h] != k | 1 {
                h = (h + 1) & mask;
            }
            hits += u64::from(self.table[h] != 0);
            self.table[h] = k | 1;
        }
        let mut fresh = vec![0u8; FRESH_BYTES];
        for i in (0..FRESH_BYTES).step_by(FRESH_STRIDE) {
            fresh[i] = 1;
        }
        std::hint::black_box(&fresh);
        drop(fresh);
        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        for i in 0..MAP_ENTRIES {
            map.entry(mix(u64::from(i)) >> 47).or_default().push(i);
        }
        std::hint::black_box((p, hits, self.scratch[7], map.len()));
        drop(map);
        t.elapsed().as_secs_f64()
    }

    /// Seconds per pass now: the fastest of a few passes.
    fn measure(&mut self) -> f64 {
        (0..COMPUTE_PASSES)
            .map(|_| self.pass())
            .fold(f64::INFINITY, f64::min)
    }
}

/// The child's main loop: answer each line on standard input with a
/// measurement, and exit when the input closes (as it does when the
/// benchmark exits, however it exits).
pub fn serve() -> ! {
    let mut kernel = Compute::new();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err()
            || writeln!(out, "{}", kernel.measure())
                .and_then(|()| out.flush())
                .is_err()
        {
            break;
        }
    }
    std::process::exit(0)
}

/// The running child, for [`stop`] to end from any thread.
static CHILD: Mutex<Option<Child>> = Mutex::new(None);

/// End the reference child, if one runs, and wait for it.
pub fn stop() {
    // The slot holds a child or not at every step, so a poisoned lock
    // still holds a valid one.
    let taken = CHILD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take();
    if let Some(mut child) = taken {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The benchmark's handle on the reference child.
pub struct Reference {
    to: ChildStdin,
    from: BufReader<ChildStdout>,
}

impl Reference {
    pub fn spawn() -> std::io::Result<Reference> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--reference")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let (Some(to), Some(from)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::ErrorKind::BrokenPipe.into());
        };
        *CHILD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(child);
        Ok(Reference {
            to,
            from: BufReader::new(from),
        })
    }

    /// The reference's seconds per pass now.
    pub fn measure(&mut self) -> std::io::Result<f64> {
        writeln!(self.to, "measure")?;
        self.to.flush()?;
        let mut line = String::new();
        self.from.read_line(&mut line)?;
        line.trim()
            .parse()
            .map_err(|_| std::io::ErrorKind::InvalidData.into())
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        stop();
    }
}
