//! Structure-of-arrays batch kernels: SIMD-ready lanes for the sweep hot
//! path.
//!
//! # Why batches
//!
//! The closed-form solve kernels ([`crate::kernel`]) are tens of flops
//! per point, but evaluated one point at a time they leave 2–8-wide
//! `f64` vector units idle and pay a data-dependent branch per candidate.
//! This module restates the hot queries over a [`PointBlock`] — a
//! structure-of-arrays block of operating points with contiguous lanes
//! for powers, gains and the seven [`LinkCaps`] capacities — and runs the
//! enumeration as **branch-free straight-line lane code** (masked
//! selects instead of data-dependent branches) that the autovectorizer
//! can chew on. With the `simd` feature the same lane bodies are
//! compiled a second time inside `#[target_feature(enable = "avx2")]`
//! wrappers and dispatched by runtime CPU detection, widening every lane
//! op to 4×`f64` without hand-written intrinsics.
//!
//! # Lane layout and the tail
//!
//! Blocks are processed in fixed chunks of [`LANE`] points; a block
//! whose length is not a multiple of `LANE` finishes with a scalar tail
//! that instantiates the *same* generic lane body at width 1. Every
//! candidate in the enumeration is evaluated for every lane and the
//! running best is updated by masked select, so the per-lane operation
//! sequence is identical at any width.
//!
//! # Determinism and the ULP contract
//!
//! There is no ULP gap to document: batched results are **bit-identical**
//! to the scalar kernel by construction. The scalar entry points in
//! [`crate::kernel`] call the width-1 instantiation of the exact same
//! generic lane functions, every lane op is an exact IEEE-754 operation
//! (`mul`/`add`/`min`/`max`/`div` — no FMA contraction, no horizontal
//! reductions), and lanes never interact. The AVX2 path performs the
//! same lanewise operations and is therefore also bit-identical; the
//! oracle proptests (`kernel_oracle.rs`) and the batch differential
//! suite (`bcc/tests/batch_differential.rs`) enforce this.
//!
//! # The driver
//!
//! Evaluators never stage blocks themselves: every blocked fan-out runs
//! through [`solve_jobs`], which owns the block loop and its contract.
//!
//! # Counters
//!
//! Every block solve records on the calling thread's
//! [`bcc_num::obs`] registry: points solved through block kernels,
//! how many of them ran in full-`LANE` chunks, and the kernel hits.
//! [`stats`] holds the per-counter views.

mod driver;

pub use driver::{block_range, solve_jobs};

use crate::bounds::LinkCaps;
use crate::constraint::PhaseVec;
use crate::gaussian::{GaussianNetwork, SumRateSolution};
use crate::optimizer::SchedulePoint;
use crate::protocol::Protocol;
use bcc_channel::{ChannelState, PowerSplit};
use bcc_info::awgn_capacity;
use bcc_info::gaussian::mac_sum_capacity;

/// Lane width of the batched kernels: points per vector chunk.
///
/// Four `f64` lanes fill one AVX2 register; narrower targets simply
/// unroll, and the scalar tail instantiates the same code at width 1.
pub const LANE: usize = 4;

/// Default points per [`PointBlock`] when a caller does not override it
/// (see `Scenario::block_size`): large enough to amortise per-block
/// bookkeeping to well under 0.01 allocations per point, small enough
/// to stay cache-resident (13 lanes × 1024 × 8 B ≈ 104 KiB).
pub const DEFAULT_BLOCK: usize = 1024;

/// Batched-kernel counters, as views of the [`bcc_num::obs`] registry.
pub mod stats {
    use bcc_num::obs::{self, Counter};

    /// This thread's block-kernel points: a view of [`obs`]'s [`Counter::BatchedPoints`].
    pub fn batched_points_local() -> u64 {
        obs::local()[Counter::BatchedPoints]
    }

    /// This thread's points in full lane chunks: a view of [`obs`]'s [`Counter::LanesFilled`].
    pub fn lanes_filled_local() -> u64 {
        obs::local()[Counter::LanesFilled]
    }
}

/// A structure-of-arrays block of operating points: contiguous lanes for
/// the three transmit powers, the three channel gains and — after
/// [`PointBlock::compute_caps`] — the seven [`LinkCaps`] capacities.
///
/// Blocks are plain buffers: build one with [`PointBlock::with_capacity`],
/// [`push`](PointBlock::push) points into it (or whole networks with
/// [`push_net`](PointBlock::push_net)), compute the capacity lanes once,
/// and hand it to the block kernels ([`max_sum_rate_block`],
/// [`max_min_rate_block`]) or to `SolveCtx::solve_block`.
/// [`clear`](PointBlock::clear) keeps the lane storage, so a per-worker
/// block allocates only while growing to its high-water mark.
///
/// The capacity lanes use exactly the expressions of
/// [`LinkCaps::compute`], so block-computed and scalar-computed
/// capacities are bit-identical.
#[derive(Debug, Clone, Default)]
pub struct PointBlock {
    pa: Vec<f64>,
    pb: Vec<f64>,
    pr: Vec<f64>,
    gab: Vec<f64>,
    gar: Vec<f64>,
    gbr: Vec<f64>,
    c_a_ab: Vec<f64>,
    c_b_ab: Vec<f64>,
    c_a_ar: Vec<f64>,
    c_b_br: Vec<f64>,
    c_r_ar: Vec<f64>,
    c_r_br: Vec<f64>,
    c_mac: Vec<f64>,
    caps_ready: bool,
}

impl PointBlock {
    /// Creates an empty block.
    pub fn new() -> Self {
        PointBlock::default()
    }

    /// Creates an empty block with lane storage for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        let mut b = PointBlock::default();
        b.reserve(n);
        b
    }

    /// Reserves lane storage for `n` additional points.
    pub fn reserve(&mut self, n: usize) {
        for v in [
            &mut self.pa,
            &mut self.pb,
            &mut self.pr,
            &mut self.gab,
            &mut self.gar,
            &mut self.gbr,
        ] {
            v.reserve(n);
        }
    }

    /// Number of points staged in the block.
    pub fn len(&self) -> usize {
        self.pa.len()
    }

    /// Whether the block holds no points.
    pub fn is_empty(&self) -> bool {
        self.pa.is_empty()
    }

    /// Removes all points, keeping the lane storage.
    pub fn clear(&mut self) {
        self.pa.clear();
        self.pb.clear();
        self.pr.clear();
        self.gab.clear();
        self.gar.clear();
        self.gbr.clear();
        self.caps_ready = false;
    }

    /// Stages one operating point.
    pub fn push(&mut self, powers: &PowerSplit, state: &ChannelState) {
        self.pa.push(powers.p_a());
        self.pb.push(powers.p_b());
        self.pr.push(powers.p_r());
        self.gab.push(state.gab());
        self.gar.push(state.gar());
        self.gbr.push(state.gbr());
        self.caps_ready = false;
    }

    /// Stages one network (its power split and channel state).
    pub fn push_net(&mut self, net: &GaussianNetwork) {
        self.push(&net.powers(), &net.state());
    }

    /// Evaluates the seven capacity lanes for every staged point —
    /// lanewise products with one scalar `log2` per capacity, using
    /// exactly the expressions of [`LinkCaps::compute`] (bit-identical
    /// to the scalar path).
    pub fn compute_caps(&mut self) {
        let n = self.len();
        self.c_a_ab.clear();
        self.c_b_ab.clear();
        self.c_a_ar.clear();
        self.c_b_br.clear();
        self.c_r_ar.clear();
        self.c_r_br.clear();
        self.c_mac.clear();
        for i in 0..n {
            let snr_ar = self.pa[i] * self.gar[i];
            let snr_br = self.pb[i] * self.gbr[i];
            self.c_a_ab.push(awgn_capacity(self.pa[i] * self.gab[i]));
            self.c_b_ab.push(awgn_capacity(self.pb[i] * self.gab[i]));
            self.c_a_ar.push(awgn_capacity(snr_ar));
            self.c_b_br.push(awgn_capacity(snr_br));
            self.c_r_ar.push(awgn_capacity(self.pr[i] * self.gar[i]));
            self.c_r_br.push(awgn_capacity(self.pr[i] * self.gbr[i]));
            self.c_mac.push(mac_sum_capacity(snr_ar, snr_br));
        }
        self.caps_ready = true;
    }

    /// Whether [`PointBlock::compute_caps`] has run since the last push.
    pub fn caps_ready(&self) -> bool {
        self.caps_ready
    }

    /// The capacity bundle of point `i` (requires
    /// [`PointBlock::compute_caps`]).
    ///
    /// # Panics
    ///
    /// Panics if the capacity lanes are stale or `i` is out of range.
    pub fn caps(&self, i: usize) -> LinkCaps {
        assert!(self.caps_ready, "PointBlock::compute_caps has not run");
        LinkCaps {
            c_a_ab: self.c_a_ab[i],
            c_b_ab: self.c_b_ab[i],
            c_a_ar: self.c_a_ar[i],
            c_b_br: self.c_b_br[i],
            c_r_ar: self.c_r_ar[i],
            c_r_br: self.c_r_br[i],
            c_mac: self.c_mac[i],
        }
    }
}

/// Branchless scalar select (compiles to `cmov`/vector blend; keeps the
/// lane bodies free of data-dependent branches).
#[inline(always)]
fn sel(m: bool, t: f64, f: f64) -> f64 {
    if m {
        t
    } else {
        f
    }
}

/// Copies `M` consecutive lane values starting at `i`.
#[inline(always)]
fn gather<const M: usize>(v: &[f64], i: usize) -> [f64; M] {
    let mut a = [0.0; M];
    a.copy_from_slice(&v[i..i + M]);
    a
}

/// The seven capacity lanes of one chunk.
struct CapsLanes<const M: usize> {
    c_a_ab: [f64; M],
    c_b_ab: [f64; M],
    c_a_ar: [f64; M],
    c_b_br: [f64; M],
    c_r_ar: [f64; M],
    c_r_br: [f64; M],
    c_mac: [f64; M],
}

impl<const M: usize> CapsLanes<M> {
    #[inline(always)]
    fn load(b: &PointBlock, i: usize) -> Self {
        CapsLanes {
            c_a_ab: gather(&b.c_a_ab, i),
            c_b_ab: gather(&b.c_b_ab, i),
            c_a_ar: gather(&b.c_a_ar, i),
            c_b_br: gather(&b.c_b_br, i),
            c_r_ar: gather(&b.c_r_ar, i),
            c_r_br: gather(&b.c_r_br, i),
            c_mac: gather(&b.c_mac, i),
        }
    }
}

impl CapsLanes<1> {
    #[inline(always)]
    fn from_caps(c: &LinkCaps) -> Self {
        CapsLanes {
            c_a_ab: [c.c_a_ab],
            c_b_ab: [c.c_b_ab],
            c_a_ar: [c.c_a_ar],
            c_b_br: [c.c_b_br],
            c_r_ar: [c.c_r_ar],
            c_r_br: [c.c_r_br],
            c_mac: [c.c_mac],
        }
    }
}

// ---------------------------------------------------------------------------
// Sum-rate lane kernels
// ---------------------------------------------------------------------------

/// DT sum rate: the objective is linear in the split, so all time goes
/// to the stronger direction. Returns `(rate, ra, rb, Δ₁)`.
#[inline(always)]
fn dt_sum_lanes<const M: usize>(c: &CapsLanes<M>) -> ([f64; M], [f64; M], [f64; M], [f64; M]) {
    let (mut rate, mut ra, mut rb, mut d0) = ([0.0; M], [0.0; M], [0.0; M], [0.0; M]);
    for l in 0..M {
        let (ca, cb) = (c.c_a_ab[l], c.c_b_ab[l]);
        let m = ca >= cb;
        rate[l] = sel(m, ca, cb);
        ra[l] = sel(m, ca, 0.0);
        rb[l] = sel(m, 0.0, cb);
        d0[l] = sel(m, 1.0, 0.0);
    }
    (rate, ra, rb, d0)
}

/// The exact MABC sum-rate profile `f(Δ) = min(mA(Δ) + mB(Δ), Δ·s)` with
/// `mX(Δ) = min(Δ·x₁, (1−Δ)·x₂)`.
#[inline(always)]
fn mabc_f(d: f64, a1: f64, a2: f64, b1: f64, b2: f64, s: f64) -> f64 {
    let g = (d * a1).min((1.0 - d) * a2) + (d * b1).min((1.0 - d) * b2);
    g.min(d * s)
}

/// MABC sum rate: maximises the concave piecewise-linear `f` above by
/// evaluating its exact value at the seven analytic candidates — the
/// endpoints, the two kinks of `mA + mB`, and the crossing of each
/// linear branch combination with the MAC line `Δ·s` (the combination
/// `Δ·a₁ + Δ·b₁` crosses at Δ = 0, already an endpoint). Degenerate
/// candidates (0/0 → NaN) never win a strict comparison, and candidates
/// clamped into `[0, 1]` re-evaluate an endpoint exactly, so extras are
/// harmless. Returns `(rate, ra, rb, Δ₁)`.
#[inline(always)]
fn mabc_sum_lanes<const M: usize>(c: &CapsLanes<M>) -> ([f64; M], [f64; M], [f64; M], [f64; M]) {
    let (a1, a2) = (&c.c_a_ar, &c.c_r_br);
    let (b1, b2) = (&c.c_b_br, &c.c_r_ar);
    let s = &c.c_mac;
    let mut bd = [0.0; M];
    let mut bf = [0.0; M];
    for l in 0..M {
        bf[l] = mabc_f(0.0, a1[l], a2[l], b1[l], b2[l], s[l]);
    }
    for cand in 1..7 {
        for l in 0..M {
            let d = match cand {
                1 => 1.0,
                2 => a2[l] / (a1[l] + a2[l]),
                3 => b2[l] / (b1[l] + b2[l]),
                4 => b2[l] / (s[l] - a1[l] + b2[l]),
                5 => a2[l] / (s[l] - b1[l] + a2[l]),
                _ => (a2[l] + b2[l]) / (s[l] + a2[l] + b2[l]),
            }
            .clamp(0.0, 1.0);
            let v = mabc_f(d, a1[l], a2[l], b1[l], b2[l], s[l]);
            let m = v > bf[l];
            bd[l] = sel(m, d, bd[l]);
            bf[l] = sel(m, v, bf[l]);
        }
    }
    let (mut ra, mut rb) = ([0.0; M], [0.0; M]);
    for l in 0..M {
        let d = bd[l];
        let ra0 = (d * a1[l]).min((1.0 - d) * a2[l]);
        let rb0 = (d * b1[l]).min((1.0 - d) * b2[l]);
        let cap = d * s[l];
        // When the MAC sum row binds, keep R_b at its individual cap and
        // give R_a the remainder (deterministic feasible split).
        let over = ra0 + rb0 > cap;
        let rbx = rb0.min(cap);
        ra[l] = sel(over, cap - rbx, ra0);
        rb[l] = sel(over, rbx, rb0);
    }
    (bf, ra, rb, bd)
}

/// TDBC sum rate by vertex enumeration over the 2-simplex (see
/// `crate::kernel`'s module docs): a division-free homogeneous
/// tournament over the ≤ 10 pairwise intersections of the three facets
/// and the two `min`-kink planes. Returns `(rate, ra, rb, Δ)`.
#[inline(always)]
fn tdbc_sum_lanes<const M: usize>(
    c: &CapsLanes<M>,
) -> ([f64; M], [f64; M], [f64; M], [[f64; M]; 3]) {
    let (alpha, beta, gamma) = (&c.c_a_ar, &c.c_a_ab, &c.c_r_br);
    let (delta, eps, zeta) = (&c.c_b_br, &c.c_b_ab, &c.c_r_ar);
    let mut planes = [[[0.0; M]; 3]; 5];
    for l in 0..M {
        planes[0][0][l] = 1.0; // Δ₁ = 0
        planes[1][1][l] = 1.0; // Δ₂ = 0
        planes[2][2][l] = 1.0; // Δ₃ = 0
        planes[3][0][l] = alpha[l] - beta[l]; // α·Δ₁ = β·Δ₁ + γ·Δ₃
        planes[3][2][l] = -gamma[l];
        planes[4][1][l] = delta[l] - eps[l]; // δ·Δ₂ = ε·Δ₂ + ζ·Δ₃
        planes[4][2][l] = -zeta[l];
    }
    let mut bf = [0.0; M];
    let mut bs = [1.0; M];
    let mut bd = [[0.0; M], [0.0; M], [1.0; M]];
    for i in 0..5 {
        for j in i + 1..5 {
            let (a, b) = (&planes[i], &planes[j]);
            for l in 0..M {
                // The two planes meet the simplex plane along their
                // cross product's ray.
                let mut d0 = a[1][l] * b[2][l] - a[2][l] * b[1][l];
                let mut d1 = a[2][l] * b[0][l] - a[0][l] * b[2][l];
                let mut d2 = a[0][l] * b[1][l] - a[1][l] * b[0][l];
                let mut sum = d0 + d1 + d2;
                let neg = sum < 0.0;
                d0 = sel(neg, -d0, d0);
                d1 = sel(neg, -d1, d1);
                d2 = sel(neg, -d2, d2);
                sum = sel(neg, -sum, sum);
                let norm = d0.abs() + d1.abs() + d2.abs();
                let tol = 1e-9 * sum;
                let ok = (sum > 1e-12 * norm) & (d0 >= -tol) & (d1 >= -tol) & (d2 >= -tol);
                let d0 = d0.max(0.0);
                let d1 = d1.max(0.0);
                let d2 = d2.max(0.0);
                let u = (alpha[l] * d0).min(beta[l] * d0 + gamma[l] * d2);
                let v = (delta[l] * d1).min(eps[l] * d1 + zeta[l] * d2);
                let f = u + v;
                let m = ok & (f * bs[l] > bf[l] * sum);
                bf[l] = sel(m, f, bf[l]);
                bs[l] = sel(m, sum, bs[l]);
                bd[0][l] = sel(m, d0, bd[0][l]);
                bd[1][l] = sel(m, d1, bd[1][l]);
                bd[2][l] = sel(m, d2, bd[2][l]);
            }
        }
    }
    let (mut rate, mut ra, mut rb, mut d) = ([0.0; M], [0.0; M], [0.0; M], [[0.0; M]; 3]);
    for l in 0..M {
        let inv = 1.0 / bs[l];
        let (d0, d1, d2) = (bd[0][l] * inv, bd[1][l] * inv, bd[2][l] * inv);
        let uu = ((alpha[l] * d0).min(beta[l] * d0 + gamma[l] * d2)).max(0.0);
        let vv = ((delta[l] * d1).min(eps[l] * d1 + zeta[l] * d2)).max(0.0);
        rate[l] = uu + vv;
        ra[l] = uu;
        rb[l] = vv;
        d[0][l] = d0;
        d[1][l] = d1;
        d[2][l] = d2;
    }
    (rate, ra, rb, d)
}

/// HBC coefficient lanes (the Theorem-5 inner structure).
struct HbcCoef<const M: usize> {
    a1: [f64; M],
    a2: [f64; M],
    a3: [f64; M],
    b1: [f64; M],
    b2: [f64; M],
    b3: [f64; M],
    s: [f64; M],
}

impl<const M: usize> HbcCoef<M> {
    #[inline(always)]
    fn load(c: &CapsLanes<M>) -> Self {
        HbcCoef {
            a1: c.c_a_ar,
            a2: c.c_a_ab,
            a3: c.c_r_br,
            b1: c.c_b_br,
            b2: c.c_b_ab,
            b3: c.c_r_ar,
            s: c.c_mac,
        }
    }
}

/// HBC tournament state: best exact value, best ray mass, best ray.
struct HbcBest<const M: usize> {
    f: [f64; M],
    sum: [f64; M],
    d: [[f64; M]; 4],
}

impl<const M: usize> HbcBest<M> {
    /// The tournament's start: value 0 at the last corner, so a
    /// candidate must score strictly positive to win.
    #[inline(always)]
    fn start() -> Self {
        HbcBest {
            f: [0.0; M],
            sum: [1.0; M],
            d: [[0.0; M], [0.0; M], [0.0; M], [1.0; M]],
        }
    }
}

/// One candidate ray per lane through the HBC homogeneous tournament:
/// sign-normalise, screen for simplex membership, evaluate the exact
/// objective `value(l, Δ)` (homogeneous of degree 1 in the ray) and keep
/// the cross-multiplied winner — all by masked select, no data-dependent
/// branches.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` is the lane index across d/best
fn hbc_consider<const M: usize>(
    d: &[[f64; M]; 4],
    best: &mut HbcBest<M>,
    value: impl Fn(usize, f64, f64, f64, f64) -> f64,
) {
    for l in 0..M {
        let (mut d0, mut d1, mut d2, mut d3) = (d[0][l], d[1][l], d[2][l], d[3][l]);
        let mut sum = d0 + d1 + d2 + d3;
        let neg = sum < 0.0;
        d0 = sel(neg, -d0, d0);
        d1 = sel(neg, -d1, d1);
        d2 = sel(neg, -d2, d2);
        d3 = sel(neg, -d3, d3);
        sum = sel(neg, -sum, sum);
        let norm = d0.abs() + d1.abs() + d2.abs() + d3.abs();
        let tol = 1e-9 * sum;
        let ok = (sum > 1e-12 * norm) & (d0 >= -tol) & (d1 >= -tol) & (d2 >= -tol) & (d3 >= -tol);
        let d0 = d0.max(0.0);
        let d1 = d1.max(0.0);
        let d2 = d2.max(0.0);
        let d3 = d3.max(0.0);
        let f = value(l, d0, d1, d2, d3);
        let m = ok & (f * best.sum[l] > best.f[l] * sum);
        best.f[l] = sel(m, f, best.f[l]);
        best.sum[l] = sel(m, sum, best.sum[l]);
        best.d[0][l] = sel(m, d0, best.d[0][l]);
        best.d[1][l] = sel(m, d1, best.d[1][l]);
        best.d[2][l] = sel(m, d2, best.d[2][l]);
        best.d[3][l] = sel(m, d3, best.d[3][l]);
    }
}

/// The HBC sum-rate pieces at ray `Δ`: the two per-direction caps `u`,
/// `v` and the relay sum row `w` (`F = min(u + v, w)`).
#[inline(always)]
fn hbc_uvw<const M: usize>(
    co: &HbcCoef<M>,
    l: usize,
    d0: f64,
    d1: f64,
    d2: f64,
    d3: f64,
) -> (f64, f64, f64) {
    let u = (co.a1[l] * (d0 + d2)).min(co.a2[l] * d0 + co.a3[l] * d3);
    let v = (co.b1[l] * (d1 + d2)).min(co.b2[l] * d1 + co.b3[l] * d3);
    let w = co.a1[l] * d0 + co.b1[l] * d1 + co.s[l] * d2;
    (u, v, w)
}

/// Lanewise generalised cross product of three 4-d rows (null-space
/// direction by cofactor expansion).
#[inline(always)]
fn null4_lanes<const M: usize>(
    p: &[[f64; M]; 4],
    q: &[[f64; M]; 4],
    r: &[[f64; M]; 4],
) -> [[f64; M]; 4] {
    let mut out = [[0.0; M]; 4];
    for l in 0..M {
        let det = |i: usize, j: usize, k: usize| {
            p[i][l] * (q[j][l] * r[k][l] - q[k][l] * r[j][l])
                - p[j][l] * (q[i][l] * r[k][l] - q[k][l] * r[i][l])
                + p[k][l] * (q[i][l] * r[j][l] - q[j][l] * r[i][l])
        };
        out[0][l] = det(1, 2, 3);
        out[1][l] = -det(0, 2, 3);
        out[2][l] = det(0, 1, 3);
        out[3][l] = -det(0, 1, 2);
    }
    out
}

/// HBC sum rate by vertex enumeration over the 3-simplex (see
/// `crate::kernel`'s module docs for the geometry): ≤ 65 candidate rays
/// — corners, edge ∩ kink plane, facet ∩ plane pair, interior triples —
/// through the division-free homogeneous tournament. Returns
/// `(rate, ra, rb, Δ)`.
#[inline(always)]
fn hbc_sum_lanes<const M: usize>(
    c: &CapsLanes<M>,
) -> ([f64; M], [f64; M], [f64; M], [[f64; M]; 4]) {
    let co = HbcCoef::load(c);
    // The five kink planes: the two `min` kinks K₁, K₂ and the three
    // admissible `u + v = w` tie planes (T₁₁ degenerates to Δ₃ = 0).
    let mut kinks = [[[0.0; M]; 4]; 5];
    #[allow(clippy::needless_range_loop)] // `l` is the lane index across kinks/co
    for l in 0..M {
        kinks[0][0][l] = co.a1[l] - co.a2[l]; // K₁
        kinks[0][2][l] = co.a1[l];
        kinks[0][3][l] = -co.a3[l];
        kinks[1][1][l] = co.b1[l] - co.b2[l]; // K₂
        kinks[1][2][l] = co.b1[l];
        kinks[1][3][l] = -co.b3[l];
        kinks[2][1][l] = co.b2[l] - co.b1[l]; // T₁₂
        kinks[2][2][l] = co.a1[l] - co.s[l];
        kinks[2][3][l] = co.b3[l];
        kinks[3][0][l] = co.a2[l] - co.a1[l]; // T₂₁
        kinks[3][2][l] = co.b1[l] - co.s[l];
        kinks[3][3][l] = co.a3[l];
        kinks[4][0][l] = co.a2[l] - co.a1[l]; // T₂₂
        kinks[4][1][l] = co.b2[l] - co.b1[l];
        kinks[4][2][l] = -co.s[l];
        kinks[4][3][l] = co.a3[l] + co.b3[l];
    }
    let value = |l: usize, d0: f64, d1: f64, d2: f64, d3: f64| {
        let (u, v, w) = hbc_uvw(&co, l, d0, d1, d2, d3);
        (u + v).min(w)
    };
    let mut best = HbcBest::start();
    // Corners of the simplex (three facets).
    for corner in 0..4 {
        let mut d = [[0.0; M]; 4];
        d[corner] = [1.0; M];
        hbc_consider(&d, &mut best, value);
    }
    // Simplex edges (two facets) crossed with one kink plane: on the
    // edge span{eᵢ, eⱼ}, the ray `n_j·eᵢ − n_i·eⱼ` solves `n·d = 0`.
    for i in 0..4 {
        for j in i + 1..4 {
            for kink in &kinks {
                let mut d = [[0.0; M]; 4];
                for l in 0..M {
                    d[i][l] = kink[j][l];
                    d[j][l] = -kink[i][l];
                }
                hbc_consider(&d, &mut best, value);
            }
        }
    }
    // One facet crossed with two kink planes (skipping tie-plane pairs:
    // no linearity region is bounded by two tie planes at once).
    for fct in 0..4 {
        let rest = match fct {
            0 => [1, 2, 3],
            1 => [0, 2, 3],
            2 => [0, 1, 3],
            _ => [0, 1, 2],
        };
        for p in 0..5 {
            for q in p + 1..5 {
                if p >= 2 && q >= 2 {
                    continue; // two tie planes
                }
                let mut d = [[0.0; M]; 4];
                for l in 0..M {
                    let a0 = kinks[p][rest[0]][l];
                    let a1 = kinks[p][rest[1]][l];
                    let a2 = kinks[p][rest[2]][l];
                    let b0 = kinks[q][rest[0]][l];
                    let b1 = kinks[q][rest[1]][l];
                    let b2 = kinks[q][rest[2]][l];
                    d[rest[0]][l] = a1 * b2 - a2 * b1;
                    d[rest[1]][l] = a2 * b0 - a0 * b2;
                    d[rest[2]][l] = a0 * b1 - a1 * b0;
                }
                hbc_consider(&d, &mut best, value);
            }
        }
    }
    // Interior vertices: K₁ ∩ K₂ ∩ one tie plane.
    for t in 2..5 {
        let d = null4_lanes(&kinks[0], &kinks[1], &kinks[t]);
        hbc_consider(&d, &mut best, value);
    }
    // Normalise the winning ray and recompute the exact operating point.
    let (mut rate, mut ra, mut rb, mut d) = ([0.0; M], [0.0; M], [0.0; M], [[0.0; M]; 4]);
    for l in 0..M {
        let inv = 1.0 / best.sum[l];
        let (d0, d1, d2, d3) = (
            best.d[0][l] * inv,
            best.d[1][l] * inv,
            best.d[2][l] * inv,
            best.d[3][l] * inv,
        );
        let (u, v, w) = hbc_uvw(&co, l, d0, d1, d2, d3);
        // When the sum row binds, keep R_b at its individual cap and
        // give R_a the remainder (the MABC kernel's convention).
        let direct = u + v <= w;
        let rbx = v.min(w);
        rate[l] = (u + v).min(w);
        ra[l] = sel(direct, u, w - rbx);
        rb[l] = sel(direct, v, rbx);
        d[0][l] = d0;
        d[1][l] = d1;
        d[2][l] = d2;
        d[3][l] = d3;
    }
    (rate, ra, rb, d)
}

// ---------------------------------------------------------------------------
// Max–min lane kernels
// ---------------------------------------------------------------------------

/// DT max–min: both direct-link lines bind at the optimum. Returns
/// `(t, Δ₁)`.
#[inline(always)]
fn dt_mm_lanes<const M: usize>(c: &CapsLanes<M>) -> ([f64; M], [f64; M]) {
    let (mut t, mut d0) = ([0.0; M], [0.0; M]);
    for l in 0..M {
        let (ca, cb) = (c.c_a_ab[l], c.c_b_ab[l]);
        let dead = ca <= 0.0 || cb <= 0.0;
        let dd = cb / (ca + cb);
        let tt = ca * cb / (ca + cb);
        d0[l] = sel(dead, 0.5, dd);
        t[l] = sel(dead, 0.0, tt);
    }
    (t, d0)
}

/// The ten pairs `(i, j)`, `i < j`, of five lines (the max–min kernels'
/// pairwise ties).
const PAIRS5: [(usize, usize); 10] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 3),
    (2, 4),
    (3, 4),
];

/// MABC max–min: `t ≤ mA(Δ)`, `t ≤ mB(Δ)`, `2t ≤ Δ·s` — the maximum of
/// a min of five lines sits at a pairwise crossing or an endpoint.
/// Candidates are screened (not clamped) exactly like the scalar
/// `Cands` list, so out-of-range and degenerate crossings are rejected
/// and the first-found maximum resolves ties identically. Returns
/// `(t, Δ₁)`.
#[inline(always)]
fn mabc_mm_lanes<const M: usize>(c: &CapsLanes<M>) -> ([f64; M], [f64; M]) {
    let mut bd = [0.0; M];
    let mut bv = [f64::NEG_INFINITY; M];
    for cand in 0..12 {
        for l in 0..M {
            // The five lines `p·Δ + q·(1 − Δ)`.
            let p = [c.c_a_ar[l], 0.0, c.c_b_br[l], 0.0, 0.5 * c.c_mac[l]];
            let q = [0.0, c.c_r_br[l], 0.0, c.c_r_ar[l], 0.0];
            let d = match cand {
                0 => 0.0,
                1 => 1.0,
                _ => {
                    let (i, j) = PAIRS5[cand - 2];
                    let denom = (p[i] - q[i]) - (p[j] - q[j]);
                    (q[j] - q[i]) / denom
                }
            };
            let ok = (0.0..=1.0).contains(&d); // NaN/±inf crossings rejected
            let mut v = f64::INFINITY;
            for k in 0..5 {
                v = v.min(p[k] * d + q[k] * (1.0 - d));
            }
            let m = ok & (v > bv[l]);
            bd[l] = sel(m, d, bd[l]);
            bv[l] = sel(m, v, bv[l]);
        }
    }
    let mut t = [0.0; M];
    for l in 0..M {
        t[l] = bv[l].max(0.0);
    }
    (t, bd)
}

/// TDBC max–min by vertex enumeration: nine cut planes (three facets,
/// six pairwise ties of the four rate lines), ≤ 36 pairwise candidates
/// through the homogeneous tournament. Returns `(t, Δ)`.
#[inline(always)]
fn tdbc_mm_lanes<const M: usize>(c: &CapsLanes<M>) -> ([f64; M], [[f64; M]; 3]) {
    let (alpha, beta, gamma) = (&c.c_a_ar, &c.c_a_ab, &c.c_r_br);
    let (delta, eps, zeta) = (&c.c_b_br, &c.c_b_ab, &c.c_r_ar);
    let mut planes = [[[0.0; M]; 3]; 9];
    for l in 0..M {
        planes[0][0][l] = 1.0;
        planes[1][1][l] = 1.0;
        planes[2][2][l] = 1.0;
        planes[3][0][l] = alpha[l] - beta[l];
        planes[3][2][l] = -gamma[l];
        planes[4][0][l] = alpha[l];
        planes[4][1][l] = -delta[l];
        planes[5][0][l] = alpha[l];
        planes[5][1][l] = -eps[l];
        planes[5][2][l] = -zeta[l];
        planes[6][0][l] = beta[l];
        planes[6][1][l] = -delta[l];
        planes[6][2][l] = gamma[l];
        planes[7][0][l] = beta[l];
        planes[7][1][l] = -eps[l];
        planes[7][2][l] = gamma[l] - zeta[l];
        planes[8][1][l] = delta[l] - eps[l];
        planes[8][2][l] = -zeta[l];
    }
    let mut bt = [0.0; M];
    let mut bs = [1.0; M];
    let mut bd = [[0.0; M], [0.0; M], [1.0; M]];
    for i in 0..9 {
        for j in i + 1..9 {
            let (a, b) = (&planes[i], &planes[j]);
            for l in 0..M {
                let mut d0 = a[1][l] * b[2][l] - a[2][l] * b[1][l];
                let mut d1 = a[2][l] * b[0][l] - a[0][l] * b[2][l];
                let mut d2 = a[0][l] * b[1][l] - a[1][l] * b[0][l];
                let mut sum = d0 + d1 + d2;
                let neg = sum < 0.0;
                d0 = sel(neg, -d0, d0);
                d1 = sel(neg, -d1, d1);
                d2 = sel(neg, -d2, d2);
                sum = sel(neg, -sum, sum);
                let norm = d0.abs() + d1.abs() + d2.abs();
                let tol = 1e-9 * sum;
                let ok = (sum > 1e-12 * norm) & (d0 >= -tol) & (d1 >= -tol) & (d2 >= -tol);
                let d0 = d0.max(0.0);
                let d1 = d1.max(0.0);
                let d2 = d2.max(0.0);
                let t = (alpha[l] * d0)
                    .min(beta[l] * d0 + gamma[l] * d2)
                    .min(delta[l] * d1)
                    .min(eps[l] * d1 + zeta[l] * d2);
                let m = ok & (t * bs[l] > bt[l] * sum);
                bt[l] = sel(m, t, bt[l]);
                bs[l] = sel(m, sum, bs[l]);
                bd[0][l] = sel(m, d0, bd[0][l]);
                bd[1][l] = sel(m, d1, bd[1][l]);
                bd[2][l] = sel(m, d2, bd[2][l]);
            }
        }
    }
    let (mut t, mut d) = ([0.0; M], [[0.0; M]; 3]);
    for l in 0..M {
        let inv = 1.0 / bs[l];
        let (d0, d1, d2) = (bd[0][l] * inv, bd[1][l] * inv, bd[2][l] * inv);
        t[l] = (alpha[l] * d0)
            .min(beta[l] * d0 + gamma[l] * d2)
            .min(delta[l] * d1)
            .min(eps[l] * d1 + zeta[l] * d2)
            .max(0.0);
        d[0][l] = d0;
        d[1][l] = d1;
        d[2][l] = d2;
    }
    (t, d)
}

/// HBC max–min by vertex enumeration over the 3-simplex: maximise
/// `min(L₁…L₅)` for the five Theorem-5 lines
///
/// * `L₁ = a₁(Δ₁+Δ₃)`, `L₂ = a₂Δ₁ + a₃Δ₄` (relay and `b` decode `W_a`),
/// * `L₃ = b₁(Δ₂+Δ₃)`, `L₄ = b₂Δ₂ + b₃Δ₄` (relay and `a` decode `W_b`),
/// * `L₅ = ½(a₁Δ₁ + b₁Δ₂ + sΔ₃)` (the relay sum row at `R_a = R_b`).
///
/// The optimum is a vertex where the active lines tie and the active
/// facets hold: an edge crossed with one pairwise tie, a facet crossed
/// with the two ties of a line triple, or an interior point where a line
/// quadruple ties. The corners and four of the six edges are skipped: on
/// each of those edges one line vanishes identically (`L₄` on {Δ₁,Δ₃},
/// `L₃` on {Δ₁,Δ₄}, `L₂` on {Δ₂,Δ₃}, `L₁` on {Δ₂,Δ₄}), so they score 0
/// and never beat the tournament's 0 start. That leaves 65 rays (20 edge,
/// 40 facet, 5 interior) through the division-free homogeneous
/// tournament. Returns `(t, Δ)`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` is the lane index across lines/co
fn hbc_mm_lanes<const M: usize>(c: &CapsLanes<M>) -> ([f64; M], [[f64; M]; 4]) {
    // Line triples (i, j, k) as their two star ties (L_i − L_j, L_i − L_k),
    // and line quadruples as their three star ties, by `PAIRS5` index.
    const TRIPLES: [(usize, usize); 10] = [
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
        (2, 3),
        (4, 5),
        (4, 6),
        (5, 6),
        (7, 8),
    ];
    const QUADS: [(usize, usize, usize); 5] =
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5, 6)];
    let co = HbcCoef::load(c);
    let value = |l: usize, d0: f64, d1: f64, d2: f64, d3: f64| {
        (co.a1[l] * (d0 + d2))
            .min(co.a2[l] * d0 + co.a3[l] * d3)
            .min(co.b1[l] * (d1 + d2))
            .min(co.b2[l] * d1 + co.b3[l] * d3)
            .min(0.5 * (co.a1[l] * d0 + co.b1[l] * d1 + co.s[l] * d2))
    };
    let mut lines = [[[0.0; M]; 4]; 5];
    for l in 0..M {
        lines[0][0][l] = co.a1[l];
        lines[0][2][l] = co.a1[l];
        lines[1][0][l] = co.a2[l];
        lines[1][3][l] = co.a3[l];
        lines[2][1][l] = co.b1[l];
        lines[2][2][l] = co.b1[l];
        lines[3][1][l] = co.b2[l];
        lines[3][3][l] = co.b3[l];
        lines[4][0][l] = 0.5 * co.a1[l];
        lines[4][1][l] = 0.5 * co.b1[l];
        lines[4][2][l] = 0.5 * co.s[l];
    }
    let mut ties = [[[0.0; M]; 4]; 10];
    for (tie, &(i, j)) in ties.iter_mut().zip(&PAIRS5) {
        for k in 0..4 {
            for l in 0..M {
                tie[k][l] = lines[i][k][l] - lines[j][k][l];
            }
        }
    }
    let mut best = HbcBest::start();
    // The edges {Δ₁,Δ₂} and {Δ₃,Δ₄} crossed with one tie: on
    // span{eᵢ, eⱼ}, the ray `n_j·eᵢ − n_i·eⱼ` solves `n·d = 0`.
    for (i, j) in [(0, 1), (2, 3)] {
        for tie in &ties {
            let mut d = [[0.0; M]; 4];
            for l in 0..M {
                d[i][l] = tie[j][l];
                d[j][l] = -tie[i][l];
            }
            hbc_consider(&d, &mut best, value);
        }
    }
    // One facet crossed with the two ties of a line triple.
    for fct in 0..4 {
        let rest = match fct {
            0 => [1, 2, 3],
            1 => [0, 2, 3],
            2 => [0, 1, 3],
            _ => [0, 1, 2],
        };
        for &(p, q) in &TRIPLES {
            let (a, b) = (&ties[p], &ties[q]);
            let mut d = [[0.0; M]; 4];
            for l in 0..M {
                let (a0, a1, a2) = (a[rest[0]][l], a[rest[1]][l], a[rest[2]][l]);
                let (b0, b1, b2) = (b[rest[0]][l], b[rest[1]][l], b[rest[2]][l]);
                d[rest[0]][l] = a1 * b2 - a2 * b1;
                d[rest[1]][l] = a2 * b0 - a0 * b2;
                d[rest[2]][l] = a0 * b1 - a1 * b0;
            }
            hbc_consider(&d, &mut best, value);
        }
    }
    // Interior vertices: a line quadruple ties.
    for &(p, q, r) in &QUADS {
        let d = null4_lanes(&ties[p], &ties[q], &ties[r]);
        hbc_consider(&d, &mut best, value);
    }
    // Normalise the winning ray by its clamped mass (so the durations sum
    // to 1 even when the screen let a −1e-9 component through) and
    // recompute the exact symmetric rate.
    let (mut t, mut d) = ([0.0; M], [[0.0; M]; 4]);
    for l in 0..M {
        let inv = 1.0 / (best.d[0][l] + best.d[1][l] + best.d[2][l] + best.d[3][l]);
        for k in 0..4 {
            d[k][l] = best.d[k][l] * inv;
        }
        t[l] = value(l, d[0][l], d[1][l], d[2][l], d[3][l]).max(0.0);
    }
    (t, d)
}

// ---------------------------------------------------------------------------
// Scalar entry points (width-1 instantiations — the kernel's closed forms)
// ---------------------------------------------------------------------------

/// Closed-form sum rate of one point from its capacity bundle: the
/// width-1 instantiation of the lane kernels (bit-identical to the
/// block path by construction).
pub(crate) fn sum_rate_one(caps: &LinkCaps, protocol: Protocol) -> SumRateSolution {
    let c = CapsLanes::<1>::from_caps(caps);
    match protocol {
        Protocol::DirectTransmission => {
            let (rate, ra, rb, d0) = dt_sum_lanes(&c);
            sum_sol2(protocol, rate[0], ra[0], rb[0], d0[0])
        }
        Protocol::Mabc => {
            let (rate, ra, rb, d0) = mabc_sum_lanes(&c);
            sum_sol2(protocol, rate[0], ra[0], rb[0], d0[0])
        }
        Protocol::Tdbc => {
            let (rate, ra, rb, d) = tdbc_sum_lanes(&c);
            SumRateSolution {
                protocol,
                sum_rate: rate[0],
                ra: ra[0],
                rb: rb[0],
                durations: PhaseVec::from([d[0][0], d[1][0], d[2][0]]),
            }
        }
        Protocol::Hbc => {
            let (rate, ra, rb, d) = hbc_sum_lanes(&c);
            SumRateSolution {
                protocol,
                sum_rate: rate[0],
                ra: ra[0],
                rb: rb[0],
                durations: PhaseVec::from([d[0][0], d[1][0], d[2][0], d[3][0]]),
            }
        }
    }
}

/// Closed-form max–min point of one point from its capacity bundle: the
/// width-1 instantiation of the lane kernels.
pub(crate) fn max_min_one(caps: &LinkCaps, protocol: Protocol) -> SchedulePoint {
    let c = CapsLanes::<1>::from_caps(caps);
    match protocol {
        Protocol::DirectTransmission => {
            let (t, d0) = dt_mm_lanes(&c);
            mm_pt2(t[0], d0[0])
        }
        Protocol::Mabc => {
            let (t, d0) = mabc_mm_lanes(&c);
            mm_pt2(t[0], d0[0])
        }
        Protocol::Tdbc => {
            let (t, d) = tdbc_mm_lanes(&c);
            mm_pt(t[0], PhaseVec::from([d[0][0], d[1][0], d[2][0]]))
        }
        Protocol::Hbc => {
            let (t, d) = hbc_mm_lanes(&c);
            mm_pt(t[0], PhaseVec::from([d[0][0], d[1][0], d[2][0], d[3][0]]))
        }
    }
}

#[inline(always)]
fn sum_sol2(protocol: Protocol, rate: f64, ra: f64, rb: f64, d0: f64) -> SumRateSolution {
    SumRateSolution {
        protocol,
        sum_rate: rate,
        ra,
        rb,
        durations: PhaseVec::from([d0, 1.0 - d0]),
    }
}

#[inline(always)]
fn mm_pt(t: f64, durations: PhaseVec) -> SchedulePoint {
    SchedulePoint {
        ra: t,
        rb: t,
        durations,
        objective: t,
    }
}

#[inline(always)]
fn mm_pt2(t: f64, d0: f64) -> SchedulePoint {
    mm_pt(t, PhaseVec::from([d0, 1.0 - d0]))
}

// ---------------------------------------------------------------------------
// Block drivers
// ---------------------------------------------------------------------------

/// Runs `$chunk` over the block: full [`LANE`]-wide chunks, then a
/// width-1 scalar tail through the same generic body.
macro_rules! chunked {
    ($chunk:ident, $block:expr, $out:expr, $n:expr) => {{
        let mut i = 0usize;
        while i + LANE <= $n {
            $chunk::<LANE>($block, i, $out);
            i += LANE;
        }
        while i < $n {
            $chunk::<1>($block, i, $out);
            i += 1;
        }
    }};
}

#[inline(always)]
fn dt_sum_chunk<const M: usize>(b: &PointBlock, i: usize, out: &mut Vec<SumRateSolution>) {
    let c = CapsLanes::<M>::load(b, i);
    let (rate, ra, rb, d0) = dt_sum_lanes(&c);
    for l in 0..M {
        out.push(sum_sol2(
            Protocol::DirectTransmission,
            rate[l],
            ra[l],
            rb[l],
            d0[l],
        ));
    }
}

#[inline(always)]
fn mabc_sum_chunk<const M: usize>(b: &PointBlock, i: usize, out: &mut Vec<SumRateSolution>) {
    let c = CapsLanes::<M>::load(b, i);
    let (rate, ra, rb, d0) = mabc_sum_lanes(&c);
    for l in 0..M {
        out.push(sum_sol2(Protocol::Mabc, rate[l], ra[l], rb[l], d0[l]));
    }
}

#[inline(always)]
fn tdbc_sum_chunk<const M: usize>(b: &PointBlock, i: usize, out: &mut Vec<SumRateSolution>) {
    let c = CapsLanes::<M>::load(b, i);
    let (rate, ra, rb, d) = tdbc_sum_lanes(&c);
    for l in 0..M {
        out.push(SumRateSolution {
            protocol: Protocol::Tdbc,
            sum_rate: rate[l],
            ra: ra[l],
            rb: rb[l],
            durations: PhaseVec::from([d[0][l], d[1][l], d[2][l]]),
        });
    }
}

#[inline(always)]
fn hbc_sum_chunk<const M: usize>(b: &PointBlock, i: usize, out: &mut Vec<SumRateSolution>) {
    let c = CapsLanes::<M>::load(b, i);
    let (rate, ra, rb, d) = hbc_sum_lanes(&c);
    for l in 0..M {
        out.push(SumRateSolution {
            protocol: Protocol::Hbc,
            sum_rate: rate[l],
            ra: ra[l],
            rb: rb[l],
            durations: PhaseVec::from([d[0][l], d[1][l], d[2][l], d[3][l]]),
        });
    }
}

#[inline(always)]
fn dt_mm_chunk<const M: usize>(b: &PointBlock, i: usize, out: &mut Vec<SchedulePoint>) {
    let c = CapsLanes::<M>::load(b, i);
    let (t, d0) = dt_mm_lanes(&c);
    for l in 0..M {
        out.push(mm_pt2(t[l], d0[l]));
    }
}

#[inline(always)]
fn mabc_mm_chunk<const M: usize>(b: &PointBlock, i: usize, out: &mut Vec<SchedulePoint>) {
    let c = CapsLanes::<M>::load(b, i);
    let (t, d0) = mabc_mm_lanes(&c);
    for l in 0..M {
        out.push(mm_pt2(t[l], d0[l]));
    }
}

#[inline(always)]
fn tdbc_mm_chunk<const M: usize>(b: &PointBlock, i: usize, out: &mut Vec<SchedulePoint>) {
    let c = CapsLanes::<M>::load(b, i);
    let (t, d) = tdbc_mm_lanes(&c);
    for l in 0..M {
        out.push(mm_pt(t[l], PhaseVec::from([d[0][l], d[1][l], d[2][l]])));
    }
}

#[inline(always)]
fn hbc_mm_chunk<const M: usize>(b: &PointBlock, i: usize, out: &mut Vec<SchedulePoint>) {
    let c = CapsLanes::<M>::load(b, i);
    let (t, d) = hbc_mm_lanes(&c);
    for l in 0..M {
        out.push(mm_pt(
            t[l],
            PhaseVec::from([d[0][l], d[1][l], d[2][l], d[3][l]]),
        ));
    }
}

/// The whole-block sum-rate body (shared by the plain and AVX2 builds;
/// `inline(always)` so the `target_feature` wrapper recompiles it with
/// wider lanes).
#[inline(always)]
fn sum_block_body(block: &PointBlock, protocol: Protocol, out: &mut Vec<SumRateSolution>) {
    let n = block.len();
    out.reserve(n);
    match protocol {
        Protocol::DirectTransmission => chunked!(dt_sum_chunk, block, out, n),
        Protocol::Mabc => chunked!(mabc_sum_chunk, block, out, n),
        Protocol::Tdbc => chunked!(tdbc_sum_chunk, block, out, n),
        Protocol::Hbc => chunked!(hbc_sum_chunk, block, out, n),
    }
}

/// The whole-block max–min body.
#[inline(always)]
fn mm_block_body(block: &PointBlock, protocol: Protocol, out: &mut Vec<SchedulePoint>) {
    let n = block.len();
    out.reserve(n);
    match protocol {
        Protocol::DirectTransmission => chunked!(dt_mm_chunk, block, out, n),
        Protocol::Mabc => chunked!(mabc_mm_chunk, block, out, n),
        Protocol::Tdbc => chunked!(tdbc_mm_chunk, block, out, n),
        Protocol::Hbc => chunked!(hbc_mm_chunk, block, out, n),
    }
}

/// AVX2 twins of the block bodies, gated behind the `simd` feature and
/// dispatched by runtime CPU detection. The bodies are the same generic
/// lane code — recompiling them with AVX2 enabled only widens the lane
/// ops (exact IEEE mul/add/min/max, no FMA contraction), so results
/// stay bit-identical to the portable build.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    #![allow(unsafe_code)]

    use super::*;

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_block_avx2(
        block: &PointBlock,
        protocol: Protocol,
        out: &mut Vec<SumRateSolution>,
    ) {
        sum_block_body(block, protocol, out);
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn mm_block_avx2(block: &PointBlock, protocol: Protocol, out: &mut Vec<SchedulePoint>) {
        mm_block_body(block, protocol, out);
    }

    /// Runs the AVX2 sum-rate body if the CPU supports it; `false` means
    /// the caller should take the portable path.
    pub(super) fn sum_block(
        block: &PointBlock,
        protocol: Protocol,
        out: &mut Vec<SumRateSolution>,
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: AVX2 support was just detected at runtime.
        unsafe { sum_block_avx2(block, protocol, out) };
        true
    }

    /// Runs the AVX2 max–min body if the CPU supports it; `false` means
    /// the caller should take the portable path.
    pub(super) fn mm_block(
        block: &PointBlock,
        protocol: Protocol,
        out: &mut Vec<SchedulePoint>,
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: AVX2 support was just detected at runtime.
        unsafe { mm_block_avx2(block, protocol, out) };
        true
    }
}

/// Records the per-block bookkeeping: `n` kernel-served solves, with
/// the full-chunk share on the batch counters.
fn finish_block(n: usize) {
    use bcc_num::obs::{add, Counter};
    add(Counter::BatchedPoints, n as u64);
    add(Counter::LanesFilled, (n - n % LANE) as u64);
    add(Counter::KernelHits, n as u64);
}

/// Batched closed-form `max_sum_rate`: appends one solution per staged
/// point (in block order) to `out`. Covers all four protocols;
/// bit-identical to the scalar kernel at any lane width.
///
/// # Panics
///
/// Panics if [`PointBlock::compute_caps`] has not run since the last
/// push.
pub fn max_sum_rate_block(block: &PointBlock, protocol: Protocol, out: &mut Vec<SumRateSolution>) {
    assert!(
        block.caps_ready,
        "PointBlock::compute_caps has not run since the last push"
    );
    let n = block.len();
    if n == 0 {
        return;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::sum_block(block, protocol, out) {
        finish_block(n);
        return;
    }
    sum_block_body(block, protocol, out);
    finish_block(n);
}

/// Batched closed-form `max_min_rate`: appends one schedule point per
/// staged point (in block order) to `out`. Covers all four protocols;
/// bit-identical to the scalar kernel at any lane width.
///
/// # Panics
///
/// Panics if [`PointBlock::compute_caps`] has not run since the last
/// push.
pub fn max_min_rate_block(block: &PointBlock, protocol: Protocol, out: &mut Vec<SchedulePoint>) {
    assert!(
        block.caps_ready,
        "PointBlock::compute_caps has not run since the last push"
    );
    let n = block.len();
    if n == 0 {
        return;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::mm_block(block, protocol, out) {
        finish_block(n);
        return;
    }
    mm_block_body(block, protocol, out);
    finish_block(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel;

    /// A 13-point grid (3 full lanes + scalar tail) spanning symmetric,
    /// lopsided and degenerate channels.
    fn grid() -> Vec<GaussianNetwork> {
        let mut nets = Vec::new();
        for (p, gab, gar, gbr) in [
            (10.0, 0.2, 1.0, 3.16),
            (0.5, 1.0, 1.0, 1.0),
            (2.0, 1.0, 0.01, 10.0),
            (31.6, 0.0, 2.0, 2.0),
            (1.0, 5.0, 0.5, 0.5),
            (10.0, 1.0, 0.0, 1.0),
            (3.0, 0.5, 10.0, 0.1),
            (0.0, 1.0, 1.0, 1.0),
            (100.0, 0.1, 4.0, 0.25),
            (7.0, 2.0, 2.0, 2.0),
            (0.1, 0.3, 0.7, 1.3),
            (50.0, 0.01, 8.0, 8.0),
            (5.0, 1.5, 0.2, 6.0),
        ] {
            nets.push(GaussianNetwork::new(p, ChannelState::new(gab, gar, gbr)));
        }
        nets
    }

    fn filled_block(nets: &[GaussianNetwork]) -> PointBlock {
        let mut b = PointBlock::with_capacity(nets.len());
        for net in nets {
            b.push_net(net);
        }
        b.compute_caps();
        b
    }

    #[test]
    fn caps_lanes_are_bit_identical_to_scalar() {
        let nets = grid();
        let b = filled_block(&nets);
        for (i, net) in nets.iter().enumerate() {
            let scalar = LinkCaps::compute(&net.powers(), &net.state());
            assert_eq!(b.caps(i), scalar, "point {i}");
        }
    }

    #[test]
    fn block_sum_rates_are_bit_identical_to_scalar_kernel() {
        let nets = grid();
        let b = filled_block(&nets);
        for proto in Protocol::ALL {
            let mut out = Vec::new();
            max_sum_rate_block(&b, proto, &mut out);
            assert_eq!(out.len(), nets.len());
            for (i, net) in nets.iter().enumerate() {
                let scalar = kernel::max_sum_rate(net, proto).expect("covered");
                let batch = &out[i];
                assert_eq!(
                    batch.sum_rate.to_bits(),
                    scalar.sum_rate.to_bits(),
                    "{proto} rate {i}"
                );
                assert_eq!(batch.ra.to_bits(), scalar.ra.to_bits(), "{proto} ra {i}");
                assert_eq!(batch.rb.to_bits(), scalar.rb.to_bits(), "{proto} rb {i}");
                assert_eq!(batch.durations.len(), scalar.durations.len());
                for (x, y) in batch.durations.iter().zip(scalar.durations.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{proto} durations {i}");
                }
            }
        }
    }

    #[test]
    fn block_max_min_is_bit_identical_to_scalar_kernel() {
        let nets = grid();
        let b = filled_block(&nets);
        for proto in Protocol::ALL {
            let mut out = Vec::new();
            max_min_rate_block(&b, proto, &mut out);
            assert_eq!(out.len(), nets.len());
            for (i, net) in nets.iter().enumerate() {
                let scalar = kernel::max_min_rate(net, proto).expect("covered");
                let batch = &out[i];
                assert_eq!(
                    batch.objective.to_bits(),
                    scalar.objective.to_bits(),
                    "{proto} t {i}"
                );
                assert_eq!(batch.durations.len(), scalar.durations.len());
                for (x, y) in batch.durations.iter().zip(scalar.durations.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{proto} durations {i}");
                }
            }
        }
    }

    #[test]
    fn counters_track_points_and_full_lanes() {
        let nets = grid(); // 13 points: 12 in full lanes, 1 tail
        let b = filled_block(&nets);
        let p0 = stats::batched_points_local();
        let f0 = stats::lanes_filled_local();
        let k0 = kernel::kernel_hits_local();
        let mut out = Vec::new();
        max_sum_rate_block(&b, Protocol::Hbc, &mut out);
        assert_eq!(stats::batched_points_local() - p0, 13);
        assert_eq!(stats::lanes_filled_local() - f0, 12);
        assert_eq!(kernel::kernel_hits_local() - k0, 13);
    }

    #[test]
    fn clear_keeps_storage_and_resets_caps() {
        let nets = grid();
        let mut b = filled_block(&nets);
        assert!(b.caps_ready());
        b.clear();
        assert!(b.is_empty());
        assert!(!b.caps_ready());
        b.push_net(&nets[0]);
        b.compute_caps();
        assert_eq!(
            b.caps(0),
            LinkCaps::compute(&nets[0].powers(), &nets[0].state())
        );
    }
}
