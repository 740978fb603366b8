//! Measurement helpers that observe the program from outside: a counting
//! allocator, CPU readers (whole process, and per thread from procfs keyed
//! by thread name), `VmHWM`, registry delta snapshots, host facts and the
//! one-CPU pinning every run uses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pbio_obs::{HistogramSnapshot, Registry, Snapshot};

/// Counts allocations while [`count_allocations`] is on. Off, the cost is
/// one relaxed load per allocation, so untraced runs measure the program
/// and not the counter.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turn allocation counting on or off (traced runs only).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Clock ticks per second for procfs CPU fields (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// utime + stime in seconds from the text of a `/proc/.../stat` file.
/// Fields are counted after the `)` that closes the command name, which
/// may itself hold spaces or parentheses.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After ")": state(3) ... utime is field 14, stime 15 (1-based).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME: i32 = 2;

/// CPU seconds (user + system) used by the whole process so far, at
/// nanosecond resolution; procfs ticks (10 ms) if the clock is missing.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call, and
    // the layout matches the C `struct timespec` on 64-bit Linux.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME, &mut ts) } == 0 {
        return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
    }
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// A thread's CPU seconds from its scheduler statistics
/// (`se.sum_exec_runtime`, ms with ns digits) when the kernel exposes
/// them, else from its stat ticks.
fn task_cpu_s(task: &std::path::Path) -> Option<f64> {
    let exact = std::fs::read_to_string(task.join("sched"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("se.sum_exec_runtime"))
                .and_then(|l| l.rsplit(':').next())
                .and_then(|v| v.trim().parse::<f64>().ok())
                .map(|ms| ms / 1e3)
        });
    exact.or_else(|| {
        std::fs::read_to_string(task.join("stat"))
            .ok()
            .and_then(|s| stat_cpu_s(&s))
    })
}

/// CPU seconds per live thread of this process, keyed by thread id, with
/// each thread's name (`comm`, at most 15 bytes).
pub fn thread_cpu() -> Vec<(u32, String, f64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if let Some(cpu) = task_cpu_s(&path) {
            out.push((tid, name.trim().to_owned(), cpu));
        }
    }
    out
}

/// Samples per-thread CPU in the background, so threads that end inside a
/// window (a redialed peer link, say) are still counted. Each
/// thread's last sample is its total; [`cpu_delta`] subtracts the
/// totals captured at the window start.
pub struct ThreadCpu {
    totals: Arc<Mutex<BTreeMap<u32, (String, f64)>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Sampling period: short enough to catch a thread that lives for a few
/// hundred milliseconds several times.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

impl ThreadCpu {
    /// Start sampling.
    pub fn start() -> ThreadCpu {
        let totals = Arc::new(Mutex::new(BTreeMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (totals, stop) = (totals.clone(), stop.clone());
            std::thread::Builder::new()
                .name("pb-cpu-sampler".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        sample_into(&totals);
                        std::thread::sleep(SAMPLE_EVERY);
                    }
                })
                .expect("spawn cpu sampler")
        };
        sample_into(&totals);
        ThreadCpu {
            totals,
            stop,
            thread: Some(thread),
        }
    }

    /// Snapshot of every thread seen so far: tid → (name, CPU seconds).
    pub fn snapshot(&self) -> BTreeMap<u32, (String, f64)> {
        sample_into(&self.totals);
        self.totals.lock().expect("cpu sampler poisoned").clone()
    }

    /// Stop sampling and join the sampler thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("cpu sampler thread");
        }
    }
}

fn sample_into(totals: &Mutex<BTreeMap<u32, (String, f64)>>) {
    let now = thread_cpu();
    let mut t = totals.lock().expect("cpu sampler poisoned");
    for (tid, name, cpu) in now {
        t.insert(tid, (name, cpu));
    }
}

/// CPU seconds spent between two [`ThreadCpu::snapshot`]s by threads whose
/// name starts with `prefix`.
pub fn cpu_delta(
    before: &BTreeMap<u32, (String, f64)>,
    after: &BTreeMap<u32, (String, f64)>,
    prefix: &str,
) -> f64 {
    after
        .iter()
        .filter(|(_, (name, _))| name.starts_with(prefix))
        .map(|(tid, (_, cpu))| (cpu - before.get(tid).map_or(0.0, |b| b.1)).max(0.0))
        .sum::<f64>()
        + 0.0 // an empty sum is -0.0
}

/// CPU affinity mask words (1024 CPUs).
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the process may run on, read once (call it first from a
/// thread that was never pinned).
fn allowed_cpus() -> &'static CpuMask {
    static ALLOWED: std::sync::OnceLock<CpuMask> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        if ok != 0 {
            mask = [u64::MAX; MASK_WORDS];
        }
        mask
    })
}

/// Number of CPUs the process may run on.
pub fn nproc() -> usize {
    allowed_cpus()
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum::<usize>()
        .max(1)
}

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// first allowed CPU. Failure leaves it unpinned.
pub fn pin_to_one_cpu() {
    let allowed = allowed_cpus();
    let Some(cpu) = (0..MASK_WORDS * 64).find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0) else {
        return;
    };
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) } != 0 {
        eprintln!("pinning to cpu {cpu} failed; running unpinned");
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts every result carries, so numbers from different machines
/// are never compared blind.
pub fn host_facts() -> Vec<(&'static str, String)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let used = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", nproc().to_string()),
        ("cpus_used", used.to_string()),
        ("kernel", kernel),
    ]
}

/// A registry snapshot taken at a window boundary; subtract two to get
/// what happened inside the window.
pub struct RegSnap(Snapshot);

impl RegSnap {
    /// Snapshot `reg` now.
    pub fn take(reg: &Registry) -> RegSnap {
        RegSnap(reg.snapshot())
    }

    /// Sum of every counter whose name starts with `prefix` (labelled
    /// series such as `serv_shard_wakeups{shard="0"}` share one prefix).
    pub fn counter(&self, prefix: &str) -> u64 {
        self.0
            .counters
            .iter()
            .filter(|(n, _)| n == prefix || n.starts_with(&format!("{prefix}{{")))
            .map(|(_, v)| v)
            .sum()
    }

    /// Merge of every histogram whose name is `prefix` or a labelled
    /// series of it.
    pub fn histogram(&self, prefix: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for (n, h) in &self.0.histograms {
            if n == prefix || n.starts_with(&format!("{prefix}{{")) {
                out.merge(h);
            }
        }
        out
    }
}

/// Counter growth between two snapshots.
pub fn counter_delta(a: &RegSnap, b: &RegSnap, name: &str) -> u64 {
    b.counter(name).saturating_sub(a.counter(name))
}

/// Histogram growth between two snapshots.
pub fn hist_delta(a: &RegSnap, b: &RegSnap, name: &str) -> HistogramSnapshot {
    let (ha, hb) = (a.histogram(name), b.histogram(name));
    let mut out = HistogramSnapshot {
        count: hb.count.saturating_sub(ha.count),
        sum: hb.sum.saturating_sub(ha.sum),
        ..HistogramSnapshot::default()
    };
    for (o, (x, y)) in out
        .buckets
        .iter_mut()
        .zip(hb.buckets.iter().zip(ha.buckets.iter()))
    {
        *o = x.saturating_sub(*y);
    }
    out
}

/// Median of a log2-bucketed histogram, interpolated linearly inside the
/// bucket that holds it (0 when empty).
pub fn hist_p50(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = h.count as f64 / 2.0;
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n as f64 >= target {
            let lo = pbio_obs::bucket_lower(i) as f64;
            let hi = pbio_obs::bucket_upper(i) as f64;
            return lo + (hi - lo) * (target - seen) / n as f64;
        }
        seen += n as f64;
    }
    h.mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_command_names_with_spaces() {
        let line = "42 (pb (sub) x) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(stat_cpu_s(line), Some(3.0));
    }

    #[test]
    fn registry_deltas_cover_labelled_series() {
        let reg = Registry::new();
        reg.counter_labeled("hits", "shard", "0").add(1);
        let a = RegSnap::take(&reg);
        reg.counter_labeled("hits", "shard", "0").add(2);
        reg.counter_labeled("hits", "shard", "1").add(3);
        reg.counter("hits_other").add(7);
        reg.histogram("lat").record(100);
        let b = RegSnap::take(&reg);
        assert_eq!(counter_delta(&a, &b, "hits"), 5);
        assert_eq!(hist_delta(&a, &b, "lat").count, 1);
    }

    #[test]
    fn own_process_is_visible() {
        assert!(peak_rss_mib() > 0.0);
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
        assert!(thread_cpu().iter().any(|(_, name, _)| !name.is_empty()));
    }
}
