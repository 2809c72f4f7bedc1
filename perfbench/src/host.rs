//! Host probes: heap-allocation counting, peak RSS, the fixed reference
//! loop that identifies a run taken while the host was slow, and the
//! spin-loop parallel ceiling that parallel speedups are judged against.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Counts every heap allocation (and reallocation) the process performs.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A fixed, data-independent compute loop (xorshift feeding a dependent
/// floating-point chain). Its cost depends on the host, never on the code
/// under test, so its time tells a slow host apart from slow code.
fn spin(iters: u64) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16);
    }
    black_box(acc)
}

/// Iterations of one reference-loop pass (≈10 ms on a 3 GHz core).
const REF_ITERS: u64 = 4_000_000;

/// The reference loop's median time in ms over five passes.
pub fn ref_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            spin(black_box(REF_ITERS));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times)
}

/// Rounds of the short reference pass timed after every set-up and every
/// measured operation; each round takes eight independent logarithms
/// (≈1 ms in all on a 3 GHz core).
const PASS_ROUNDS: u32 = 36_000;

/// The short pass's time on the nominal host that normalised times refer to.
pub const PASS_NOMINAL_MS: f64 = 1.0;

/// Host-speed normalisation. The cores of a shared host run faster or
/// slower as other tenants come and go, switching mode for seconds to
/// minutes at a time, and every wall time moves with them. A short fixed
/// reference pass, timed between measured calls, samples that speed; each
/// wall time is scaled to a host on which the pass takes
/// [`PASS_NOMINAL_MS`], by the mean of the passes just before and after it.
/// The mode can change within a second, so only the nearest passes describe
/// a call; the median over calls, taken later, absorbs the odd pass hit by
/// a stall. The pass runs no program code, so a change to the program moves
/// the normalised time exactly as it moves the wall time.
///
/// The pass is throughput-bound floating-point work, like the workloads,
/// because the slow mode does not slow all code alike: on a 2-vCPU KVM
/// guest it slowed the four workloads 2.3–2.8×, this pass 2.4–2.6×, and a
/// latency-bound loop (the host guard's) only 1.7–1.9×.
#[derive(Default)]
pub struct Normalizer {
    /// Every pass timed, in ms.
    pub passes_ms: Vec<f64>,
}

impl Normalizer {
    /// Times one reference pass.
    pub fn pass(&mut self) {
        self.passes_ms.push(pass_ms());
    }

    /// Scales one phase's wall times to the nominal host. `walls[i]` is the
    /// call timed just before pass `first + i`; it is scaled by the mean of
    /// that pass and the one before it (the phase's first call has only the
    /// pass after it).
    pub fn normalise(&self, first: usize, walls: &[f64]) -> Vec<f64> {
        let passes = &self.passes_ms[first..first + walls.len()];
        walls
            .iter()
            .enumerate()
            .map(|(i, wall)| {
                let near = &passes[i.saturating_sub(1)..=i];
                wall * PASS_NOMINAL_MS * near.len() as f64 / near.iter().sum::<f64>()
            })
            .collect()
    }
}

fn pass_ms() -> f64 {
    let t = Instant::now();
    let mut acc = [0.0f64; 8];
    for i in 0..PASS_ROUNDS {
        for (k, a) in acc.iter_mut().enumerate() {
            *a += black_box(1.0 + f64::from(i) * 1e-3 + k as f64).ln();
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The measured parallel ceiling of two threads: how much faster two
/// threads finish two reference passes than one thread finishes one pass
/// twice (`2·T1 / T2`, median of five trials). An ideal two-core host
/// reads 2.0; a shared or throttled one reads less.
pub fn spin_ceiling() -> f64 {
    let ratios: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            spin(black_box(REF_ITERS));
            let one = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::thread::scope(|s| {
                let h = s.spawn(|| spin(black_box(REF_ITERS)));
                spin(black_box(REF_ITERS));
                h.join().expect("spin thread");
            });
            let two = t.elapsed().as_secs_f64();
            2.0 * one / two
        })
        .collect();
    crate::stats::median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host that halves its speed part-way, slowing calls and passes
    /// alike, normalises to one time throughout except for the call that
    /// straddles the change; a stalled pass moves only its two calls.
    #[test]
    fn normalises_each_call_by_the_passes_around_it() {
        let mut host = Normalizer::default();
        host.passes_ms = vec![9.0; 3]; // an earlier phase
        host.passes_ms.extend([1.0; 20].iter().chain(&[2.0; 20]));
        host.passes_ms[3 + 5] = 7.0;
        let walls: Vec<f64> = [3.0; 20].iter().chain(&[6.0; 20]).copied().collect();
        let got = host.normalise(3, &walls);
        let off: Vec<usize> = (0..40).filter(|&i| got[i] != 3.0).collect();
        assert_eq!(off, [5, 6, 20]);
        assert_eq!(got[20], 4.0);
    }
}
