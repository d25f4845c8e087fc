//! Small measurement helpers: seeded RNG, order statistics, process CPU
//! time, peak RSS and the machine description stored with every result.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every kernel order and every queue-probe value.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank) of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Instructions of the reference machine: `(opcode, dst, a, b)` over eight
/// registers and a 256-word memory.
const REFERENCE_PROGRAM: [(u8, u8, u8, u8); 13] = [
    (b'*', 1, 1, 2),  // r1 = r1 * r2
    (b'^', 1, 1, 0),  // r1 = r1 ^ r0
    (b'>', 3, 1, 7),  // r3 = r1 >> 7 (shift amount from the constant 7)
    (b'&', 3, 3, 3),  // r3 &= 255
    (b'l', 4, 3, 0),  // r4 = mem[r3]
    (b'+', 4, 4, 1),  // r4 += r1
    (b's', 4, 3, 0),  // mem[r3] = r4
    (b'1', 5, 4, 0),  // r5 = r4 & 1
    (b'z', 5, 10, 0), // if r5 == 0 goto 10 (data-dependent)
    (b'i', 6, 0, 0),  // r6 += 1
    (b'i', 0, 0, 0),  // r0 += 1
    (b'<', 0, 0, 0),  // if r0 < limit goto 0
    (b'h', 0, 0, 0),  // halt
];

/// Iterations of one reference sample (about a millisecond).
pub const REFERENCE_ITERS: i64 = 40_000;

/// Runs a fixed checksum loop on a tiny register-machine interpreter and
/// returns its result. The loop is the benchmark's own code, so no change
/// to the repository can make it faster or slower: its run time tracks
/// only the speed the host gives this process, with the same kind of
/// dispatch, branch and load mix as the repository's engines.
pub fn reference_work(iterations: i64) -> i64 {
    let mut r = [0i64, 0x9E37_79B9, 0x5851_F42D, 0, 0, 0, 0, 0];
    let mut mem = [0i64; 256];
    let mut pc = 0usize;
    loop {
        let (op, d, a, b) = REFERENCE_PROGRAM[pc];
        let (d, a, b) = (d as usize, a as usize, b as usize);
        pc += 1;
        match op {
            b'*' => r[d] = r[a].wrapping_mul(r[b]),
            b'^' => r[d] = r[a] ^ r[b],
            b'>' => r[d] = ((r[a] as u64) >> b) as i64,
            b'&' => r[d] = r[a] & 255,
            b'l' => r[d] = mem[r[a] as usize & 255],
            b'+' => r[d] = r[a].wrapping_add(r[b]),
            b's' => mem[r[a] as usize & 255] = r[d],
            b'1' => r[d] = r[a] & 1,
            b'z' if r[d] == 0 => pc = a,
            b'z' => {}
            b'i' => r[d] += 1,
            b'<' if r[d] < iterations => pc = 0,
            b'<' => {}
            _ => return r[1] ^ r[6] ^ mem.iter().fold(0, |x, &m| x ^ m),
        }
    }
}

/// Wall ms of one [`reference_work`] sample of [`REFERENCE_ITERS`].
pub fn reference_ms() -> f64 {
    let t0 = std::time::Instant::now();
    std::hint::black_box(reference_work(std::hint::black_box(REFERENCE_ITERS)));
    t0.elapsed().as_secs_f64() * 1e3
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set of up to 1024 CPUs, as `sched_{get,set}affinity` take it.
type CpuMask = [u64; 16];

/// Keeps the calling thread, and every thread it spawns meanwhile, on the
/// CPU it is running on; the previous affinity is restored on drop.
///
/// A single-stage native run hands off between the calling thread and one
/// stage thread. Left to the scheduler, the stage thread often wakes on
/// the other, idle CPU, and on a shared VM that wake-up is set by the host:
/// it added 0–17 ms to a 12 ms pass, varying from run to run. On one CPU the
/// hand-off is a plain context switch, so wall time follows the program.
pub struct PinnedToCpu {
    previous: Option<CpuMask>,
}

impl PinnedToCpu {
    /// Pins the calling thread to its current CPU. When the platform
    /// refuses, nothing is pinned and nothing is restored.
    pub fn current() -> Self {
        let mut previous: CpuMask = [0; 16];
        let size = std::mem::size_of::<CpuMask>();
        // SAFETY: the masks are valid, writable buffers of `size` bytes;
        // pid 0 is the calling thread.
        let pinned = unsafe {
            let cpu = sched_getcpu();
            if cpu < 0
                || cpu as usize >= 64 * previous.len()
                || sched_getaffinity(0, size, previous.as_mut_ptr()) != 0
            {
                false
            } else {
                let mut only: CpuMask = [0; 16];
                only[cpu as usize / 64] = 1 << (cpu % 64);
                sched_setaffinity(0, size, only.as_ptr()) == 0
            }
        };
        PinnedToCpu {
            previous: pinned.then_some(previous),
        }
    }
}

impl Drop for PinnedToCpu {
    fn drop(&mut self) {
        if let Some(mask) = &self.previous {
            // SAFETY: `mask` is the calling thread's own earlier affinity.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
        }
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, including
/// threads that have already exited.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // 64-bit Linux), and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What every result is stored with, so numbers from different machines
/// are never compared by accident.
#[derive(Clone, Debug)]
pub struct MachineInfo {
    /// `std::thread::available_parallelism()`.
    pub cores: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl MachineInfo {
    /// Describes this machine and checkout (`root` is the checkout root).
    pub fn detect(root: &std::path::Path) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        MachineInfo {
            cores,
            cpu_model,
            commit: git_commit(root).unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }
}

/// Reads `HEAD` from `.git` without running git.
fn git_commit(root: &std::path::Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_is_seeded() {
        let a = Rng::new(7).permutation(10);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(a, Rng::new(7).permutation(10));
        assert_ne!(a, Rng::new(8).permutation(10));
    }

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(1000), reference_work(1000));
        assert_ne!(reference_work(1000), reference_work(1001));
        assert!(reference_ms() > 0.0);
    }

    #[test]
    fn pinning_is_undone_on_drop() {
        let affinity = || {
            let mut mask: CpuMask = [0; 16];
            // SAFETY: `mask` is a valid, writable buffer of its own size.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
            assert_eq!(rc, 0);
            mask.iter().map(|w| w.count_ones()).sum::<u32>()
        };
        let before = affinity();
        {
            let pinned = PinnedToCpu::current();
            assert!(pinned.previous.is_some());
            assert_eq!(affinity(), 1);
        }
        assert_eq!(affinity(), before);
    }

    #[test]
    fn process_cpu_time_advances() {
        let t0 = process_cpu_time();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_time() > t0, "{x}");
    }
}
