//! Two-phase dense primal simplex with Bland's rule, a flat cache-friendly
//! tableau, and a deterministic warm-start fast path.
//!
//! The implementation follows the classic tableau formulation:
//!
//! 1. Normalise every row to a non-negative right-hand side.
//! 2. Add a slack variable per `≤` row, a surplus variable per `≥` row, and
//!    an artificial variable per `≥`/`=` row.
//! 3. **Phase 1** minimises the sum of artificials; a positive optimum means
//!    the program is infeasible. Artificials stuck in the basis at level
//!    zero are pivoted out (or their rows dropped as redundant).
//! 4. **Phase 2** optimises the true objective with artificial columns
//!    barred from entering.
//!
//! Bland's smallest-index rule guarantees termination even on degenerate
//! problems (e.g. the Beale cycling example in the crate tests), at the cost
//! of a few extra pivots — irrelevant at this problem scale.
//!
//! # Memory layout
//!
//! The tableau is one contiguous stride-indexed `Vec<f64>` (row-major,
//! `ncols + 1` wide — the last column is the RHS) owned by a caller-supplied
//! [`Workspace`], so batched workloads — the `Scenario` evaluator in
//! `bcc-core` solves hundreds of thousands of near-identical tiny LPs per
//! sweep — pay for the buffers once and every pivot walks flat memory.
//! Redundant rows discovered in phase 1 are removed by a `copy_within`
//! shift, never by reallocating.
//!
//! # Canonical extraction
//!
//! Once the optimal basis is known, the solution is **re-derived from the
//! original problem data** by an LU factorisation of the basis matrix with
//! a fixed pivoting rule, instead of being read off the pivoted tableau.
//! This makes the reported `x` a pure function of `(problem, optimal
//! basis)` — independent of the pivot *path* that found the basis — which
//! is what lets the warm-start fast path below return bit-identical
//! results to a cold solve. (If the factorisation is near-singular the
//! tableau readout is used as a fallback; such solves never seed warm
//! starts.)
//!
//! # Warm starts
//!
//! [`Workspace::solve_warm`] (and `Problem::solve_warm_with`) remembers the
//! optimal basis of previous solves, keyed by problem shape (variable
//! count and the per-row relation pattern). When the next problem has the
//! same shape — the adjacent-grid-point and per-fade-draw case, where only
//! the numeric coefficients moved — the previous basis is *priced* against
//! the new data: one small LU factorisation instead of a full two-phase
//! simplex run. The basis is accepted only when it is optimal for the new
//! data **with strict margins** (every basic variable ≥ 1e-7, every
//! nonbasic reduced cost ≤ −1e-7): under those conditions the optimal
//! basis is provably unique, so the accepted answer cannot depend on
//! *which* history proposed the basis — a hard requirement for the
//! workspace-wide guarantee that batch results are bit-identical at every
//! worker count, where the scheduler hands workers nondeterministic slices
//! of the grid. Anything short of the strict test falls back to the cold
//! two-phase path, which re-seeds the stored basis. `solve_warm` is
//! therefore an optimisation, never a semantic change: it returns exactly
//! what [`Problem::solve_with`](crate::Problem::solve_with) would.

use crate::error::LpError;
use crate::problem::{Relation, Row};
use crate::stats;

/// Numerical tolerance for reduced costs, ratio tests and feasibility.
const TOL: f64 = 1e-9;
/// Hard pivot budget; Bland's rule terminates long before this on any sane
/// input, so hitting it signals numerical breakdown.
const MAX_PIVOTS: usize = 100_000;
/// Strict-nondegeneracy margin on basic-variable values gating warm-basis
/// acceptance (see the module docs): every basic variable must clear zero
/// by this much for the previous basis to be reused.
const WARM_PRIMAL_MARGIN: f64 = 1e-7;
/// Strict margin on reduced costs for warm-basis acceptance.
const WARM_DUAL_MARGIN: f64 = 1e-7;
/// LU pivot threshold below which the canonical factorisation is declared
/// singular (warm candidates are rejected; cold extraction falls back to
/// the tableau readout).
const SINGULAR_TOL: f64 = 1e-11;
/// Retained warm-start slots (distinct problem shapes) per workspace.
const WARM_SLOTS: usize = 8;
/// After this many consecutive warm rejections a slot cools down and is
/// only re-priced every [`WARM_RETRY_PERIOD`]th solve of its shape.
const WARM_REJECT_LIMIT: u32 = 4;
/// Retry cadence of a cooled-down slot.
const WARM_RETRY_PERIOD: u32 = 16;

/// An optimal LP solution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Solution {
    /// Optimal values of the decision variables (structural variables only,
    /// in the order they were declared).
    pub x: Vec<f64>,
    /// Objective value at `x`, in the problem's original sense.
    pub objective: f64,
    /// Total simplex pivots across both phases (diagnostic; 0 for a solve
    /// served by the warm-start fast path).
    pub pivots: usize,
}

/// The optimal basis of a solved shape, retained for warm starts.
#[derive(Debug, Clone)]
struct WarmSlot {
    /// Structural variable count of the shape.
    nstruct: usize,
    /// Effective (RHS-sign-normalised) relation per row.
    rels: Vec<Relation>,
    /// Optimal basis columns, sorted ascending.
    basis: Vec<usize>,
    /// Consecutive rejected attempts since the last acceptance — drives
    /// the cool-down that stops paying for pricing a basis that keeps
    /// being rejected (e.g. a structurally degenerate shape). Affects
    /// *timing only*: acceptance is semantics-preserving, so skipping an
    /// attempt can never change a result.
    reject_streak: u32,
    /// Attempt counter used to retry occasionally while cooling down.
    tries: u32,
}

/// Reusable solver scratch memory.
///
/// A default-constructed workspace is empty; buffers grow to fit the first
/// problem solved through it and are reused (not shrunk) afterwards. One
/// workspace serves any number of sequential solves of any sizes; it is
/// `Send`, so batch drivers can move it into worker threads. Beyond the
/// scratch buffers it caches the optimal bases of recent problem shapes
/// for [`Workspace::solve_warm`].
#[derive(Debug, Default)]
pub struct Workspace {
    /// Flat row-major tableau, `nrows × (ncols + 1)` (last column: RHS).
    a: Vec<f64>,
    /// Basic variable (column index) of each surviving row.
    basis: Vec<usize>,
    /// Original row index of each surviving tableau row (phase 1 may drop
    /// redundant rows).
    row_ids: Vec<usize>,
    /// Phase-2 reduced-cost row.
    obj: Vec<f64>,
    /// Phase-1 reduced-cost row.
    w: Vec<f64>,
    /// Per-row effective relation after RHS sign normalisation.
    rels: Vec<Relation>,
    /// Per-row RHS sign flip applied during normalisation.
    flips: Vec<bool>,
    /// Per-row slack/surplus column (`usize::MAX` if none).
    aux_col: Vec<usize>,
    /// Per-row slack/surplus coefficient (+1 slack, −1 surplus).
    aux_sign: Vec<f64>,
    /// Negated objective scratch for minimisation.
    neg_obj: Vec<f64>,
    /// Canonical-extraction scratch: basis matrix (row-major m×m) and its
    /// LU factors in place.
    lu: Vec<f64>,
    /// LU row permutation.
    perm: Vec<usize>,
    /// Permuted RHS / basic-solution scratch.
    xb: Vec<f64>,
    /// Simplex-multiplier scratch (`y` with `Bᵀy = c_B`).
    yrow: Vec<f64>,
    /// Objective-on-basis scratch.
    cb: Vec<f64>,
    /// Sorted basis columns scratch.
    cols: Vec<usize>,
    /// Basic-column marks, indexed by column.
    is_basic: Vec<bool>,
    /// Warm-start slots, keyed by problem shape.
    warm: Vec<WarmSlot>,
    /// Round-robin eviction cursor for the warm slots.
    warm_next: usize,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Solves `p` with the warm-start fast path enabled — identical
    /// results to [`Problem::solve_with`](crate::Problem::solve_with),
    /// faster when the problem has the same shape as a recent solve and
    /// the previous optimal basis is still (strictly) optimal.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`](crate::Problem::solve).
    pub fn solve_warm(&mut self, p: &crate::Problem) -> Result<Solution, LpError> {
        p.solve_warm_with(self)
    }
}

struct Tableau<'ws> {
    /// Flat `rows × stride` coefficient grid; the last column of each row
    /// is the RHS.
    a: &'ws mut Vec<f64>,
    /// Row width (`ncols + 1`).
    stride: usize,
    /// Basic variable (column index) of each row.
    basis: &'ws mut Vec<usize>,
    /// Original row index of each surviving tableau row.
    row_ids: &'ws mut Vec<usize>,
    /// Number of columns excluding the RHS.
    ncols: usize,
    /// Column index where artificial variables start (`== ncols` if none).
    art_start: usize,
    pivots: usize,
}

impl Tableau<'_> {
    fn rhs(&self, r: usize) -> f64 {
        self.a[r * self.stride + self.ncols]
    }

    fn at(&self, r: usize, j: usize) -> f64 {
        self.a[r * self.stride + j]
    }

    /// Gauss–Jordan pivot on (`row`, `col`), updating `extra` objective rows
    /// alongside the constraint rows.
    fn pivot(&mut self, row: usize, col: usize, extra: &mut [&mut Vec<f64>]) {
        let s = self.stride;
        {
            let prow = &mut self.a[row * s..(row + 1) * s];
            let piv = prow[col];
            debug_assert!(piv.abs() > TOL, "pivot on near-zero element");
            let inv = 1.0 / piv;
            for v in prow.iter_mut() {
                *v *= inv;
            }
            // Make the pivot element exactly 1 to limit drift.
            prow[col] = 1.0;
        }
        let (head, rest) = self.a.split_at_mut(row * s);
        let (prow, tail) = rest.split_at_mut(s);
        for arow in head.chunks_exact_mut(s).chain(tail.chunks_exact_mut(s)) {
            let factor = arow[col];
            if factor == 0.0 {
                continue;
            }
            for (v, p) in arow.iter_mut().zip(prow.iter()) {
                *v -= factor * p;
            }
            arow[col] = 0.0;
        }
        for orow in extra.iter_mut() {
            let factor = orow[col];
            if factor == 0.0 {
                continue;
            }
            for (v, p) in orow.iter_mut().zip(prow.iter()) {
                *v -= factor * p;
            }
            orow[col] = 0.0;
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Bland ratio test: smallest non-negative ratio, ties broken by the
    /// smallest basic-variable index. Returns `None` if the column is
    /// unbounded below.
    fn ratio_test(&self, col: usize) -> Option<usize> {
        let mut best: Option<(f64, usize, usize)> = None; // (ratio, basis var, row)
        for r in 0..self.basis.len() {
            let coef = self.at(r, col);
            if coef > TOL {
                let ratio = self.rhs(r) / coef;
                let key = (ratio, self.basis[r]);
                match best {
                    None => best = Some((key.0, key.1, r)),
                    Some((br, bv, _)) => {
                        if ratio < br - TOL || (ratio < br + TOL && self.basis[r] < bv) {
                            best = Some((key.0, key.1, r));
                        }
                    }
                }
            }
        }
        best.map(|(_, _, r)| r)
    }

    /// Runs simplex iterations on the objective row `obj` (reduced-cost
    /// convention: entry `< -TOL` means the column improves a maximization).
    /// Columns `>= col_limit` are barred from entering.
    fn optimize(&mut self, obj: &mut Vec<f64>, col_limit: usize) -> Result<(), LpError> {
        loop {
            if self.pivots > MAX_PIVOTS {
                return Err(LpError::IterationLimit);
            }
            // Bland entering rule: smallest index with negative reduced cost.
            let entering = (0..col_limit).find(|&j| obj[j] < -TOL);
            let Some(col) = entering else {
                return Ok(());
            };
            let Some(row) = self.ratio_test(col) else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col, &mut [&mut *obj]);
        }
    }

    /// Drops tableau row `r` (redundant after phase 1), shifting the rows
    /// below it down in place.
    fn remove_row(&mut self, r: usize) {
        let s = self.stride;
        let n = self.basis.len();
        self.a.copy_within((r + 1) * s..n * s, r * s);
        self.a.truncate((n - 1) * s);
        self.basis.remove(r);
        self.row_ids.remove(r);
    }
}

/// LU-factors the row-major `m × m` matrix `lu` in place with partial
/// pivoting (row swaps recorded in `perm`). Returns `false` when a pivot
/// falls below [`SINGULAR_TOL`].
fn lu_factor(lu: &mut [f64], m: usize, perm: &mut Vec<usize>) -> bool {
    perm.clear();
    perm.extend(0..m);
    for k in 0..m {
        let mut p = k;
        let mut best = lu[k * m + k].abs();
        for r in k + 1..m {
            let v = lu[r * m + k].abs();
            if v > best {
                best = v;
                p = r;
            }
        }
        if best < SINGULAR_TOL {
            return false;
        }
        if p != k {
            for j in 0..m {
                lu.swap(p * m + j, k * m + j);
            }
            perm.swap(p, k);
        }
        let piv = lu[k * m + k];
        for r in k + 1..m {
            let f = lu[r * m + k] / piv;
            lu[r * m + k] = f;
            for j in k + 1..m {
                lu[r * m + j] -= f * lu[k * m + j];
            }
        }
    }
    true
}

/// Solves `B x = b` given the LU factors of the row-permuted `B`.
fn lu_solve(lu: &[f64], m: usize, perm: &[usize], b: &[f64], x: &mut Vec<f64>) {
    x.clear();
    x.extend(perm.iter().map(|&i| b[i]));
    for r in 0..m {
        for k in 0..r {
            x[r] -= lu[r * m + k] * x[k];
        }
    }
    for r in (0..m).rev() {
        for k in r + 1..m {
            x[r] -= lu[r * m + k] * x[k];
        }
        x[r] /= lu[r * m + r];
    }
}

/// Solves `Bᵀ y = c` given the LU factors of the row-permuted `B`
/// (`P·B = L·U` ⇒ `Bᵀ = Uᵀ·Lᵀ·P`): forward through `Uᵀ`, back through
/// `Lᵀ`, then undo the permutation. `tmp` is caller-provided scratch.
fn lu_solve_transposed(
    lu: &[f64],
    m: usize,
    perm: &[usize],
    c: &[f64],
    tmp: &mut Vec<f64>,
    y: &mut Vec<f64>,
) {
    // z := solve Uᵀ z = c (Uᵀ is lower triangular with U's diagonal).
    tmp.clear();
    tmp.resize(m, 0.0);
    for r in 0..m {
        let mut v = c[r];
        for k in 0..r {
            v -= lu[k * m + r] * tmp[k];
        }
        tmp[r] = v / lu[r * m + r];
    }
    // w := solve Lᵀ w = z in place (Lᵀ is unit upper triangular).
    for r in (0..m).rev() {
        for k in r + 1..m {
            let delta = lu[k * m + r] * tmp[k];
            tmp[r] -= delta;
        }
    }
    // y[perm[i]] = w[i].
    y.clear();
    y.resize(m, 0.0);
    for (i, &p) in perm.iter().enumerate() {
        y[p] = tmp[i];
    }
}

/// Classifies rows and computes the auxiliary-column layout, filling the
/// workspace's `rels`, `flips`, `aux_col` and `aux_sign`. Returns
/// `(n_slack, n_art)`.
fn classify_rows(rows: &[Row], nstruct: usize, ws: &mut Workspace) -> (usize, usize) {
    let mut n_slack = 0;
    let mut n_art = 0;
    ws.rels.clear();
    ws.flips.clear();
    ws.aux_col.clear();
    ws.aux_sign.clear();
    let slack_start = nstruct;
    for r in rows {
        let flip = r.rhs < 0.0;
        let mut rel = r.rel;
        if flip {
            rel = match rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
        match rel {
            Relation::Le => {
                ws.aux_col.push(slack_start + n_slack);
                ws.aux_sign.push(1.0);
                n_slack += 1;
            }
            Relation::Ge => {
                ws.aux_col.push(slack_start + n_slack);
                ws.aux_sign.push(-1.0);
                n_slack += 1;
                n_art += 1;
            }
            Relation::Eq => {
                ws.aux_col.push(usize::MAX);
                ws.aux_sign.push(0.0);
                n_art += 1;
            }
        }
        ws.rels.push(rel);
        ws.flips.push(flip);
    }
    (n_slack, n_art)
}

/// Canonically extracts the structural solution for the final basis by
/// solving `B x_B = b` from the original data (see the module docs).
/// Returns `false` if the basis matrix is near-singular, in which case the
/// caller falls back to the tableau readout.
fn canonical_extract(rows: &[Row], nstruct: usize, ws: &mut Workspace, x: &mut Vec<f64>) -> bool {
    let m = ws.basis.len();
    let mut cols = std::mem::take(&mut ws.cols);
    cols.clear();
    cols.extend_from_slice(&ws.basis);
    cols.sort_unstable();
    let mut lu = std::mem::take(&mut ws.lu);
    let mut perm = std::mem::take(&mut ws.perm);
    let mut rhs = std::mem::take(&mut ws.cb);
    let mut xb = std::mem::take(&mut ws.xb);
    let ok = (|| {
        lu.clear();
        lu.resize(m * m, 0.0);
        rhs.clear();
        rhs.resize(m, 0.0);
        for ti in 0..m {
            let orig = ws.row_ids[ti];
            let sign = if ws.flips[orig] { -1.0 } else { 1.0 };
            for (k, &col) in cols.iter().enumerate() {
                lu[ti * m + k] = if col < nstruct {
                    sign * rows[orig].coeffs[col]
                } else if ws.aux_col[orig] == col {
                    ws.aux_sign[orig]
                } else {
                    0.0
                };
            }
            rhs[ti] = sign * rows[orig].rhs;
        }
        if !lu_factor(&mut lu, m, &mut perm) {
            return false;
        }
        lu_solve(&lu, m, &perm, &rhs, &mut xb);
        x.clear();
        x.resize(nstruct, 0.0);
        for (k, &col) in cols.iter().enumerate() {
            if col < nstruct {
                x[col] = xb[k].max(0.0);
            }
        }
        true
    })();
    ws.cols = cols;
    ws.lu = lu;
    ws.perm = perm;
    ws.cb = rhs;
    ws.xb = xb;
    ok
}

/// Attempts to serve the solve from warm slot `slot_idx`: prices the
/// remembered basis against the new data and accepts only a strictly
/// nondegenerate optimum (see the module docs for why strictness is what
/// makes this deterministic). On success fills `out` and returns `true`.
fn warm_attempt(
    c: &[f64],
    rows: &[Row],
    nstruct: usize,
    art_start: usize,
    slot_idx: usize,
    ws: &mut Workspace,
    out: &mut Solution,
) -> bool {
    let m = rows.len();
    if ws.warm[slot_idx].basis.len() != m {
        return false;
    }
    let mut cols = std::mem::take(&mut ws.cols);
    cols.clear();
    cols.extend_from_slice(&ws.warm[slot_idx].basis);
    let mut lu = std::mem::take(&mut ws.lu);
    let mut perm = std::mem::take(&mut ws.perm);
    let mut rhs = std::mem::take(&mut ws.cb);
    let mut xb = std::mem::take(&mut ws.xb);
    let mut y = std::mem::take(&mut ws.yrow);
    let mut tmp = std::mem::take(&mut ws.w);
    let mut is_basic = std::mem::take(&mut ws.is_basic);
    let accepted = (|| {
        // Build the basis matrix and the normalised RHS from the new data.
        lu.clear();
        lu.resize(m * m, 0.0);
        rhs.clear();
        rhs.resize(m, 0.0);
        for (i, row) in rows.iter().enumerate() {
            let sign = if ws.flips[i] { -1.0 } else { 1.0 };
            for (k, &col) in cols.iter().enumerate() {
                lu[i * m + k] = if col < nstruct {
                    sign * row.coeffs[col]
                } else if ws.aux_col[i] == col {
                    ws.aux_sign[i]
                } else {
                    0.0
                };
            }
            rhs[i] = sign * row.rhs;
        }
        if !lu_factor(&mut lu, m, &mut perm) {
            return false;
        }
        // Primal: x_B = B⁻¹b, every basic variable strictly positive.
        lu_solve(&lu, m, &perm, &rhs, &mut xb);
        if xb.iter().any(|&v| v < WARM_PRIMAL_MARGIN) {
            return false;
        }
        // Dual: y from Bᵀy = c_B, then strict reduced costs on every
        // nonbasic structural and slack/surplus column.
        rhs.clear();
        for &col in &cols {
            rhs.push(if col < nstruct { c[col] } else { 0.0 });
        }
        lu_solve_transposed(&lu, m, &perm, &rhs, &mut tmp, &mut y);
        is_basic.clear();
        is_basic.resize(art_start.max(1), false);
        for &col in &cols {
            is_basic[col] = true;
        }
        for j in 0..nstruct {
            if is_basic[j] {
                continue;
            }
            let mut d = c[j];
            for (i, row) in rows.iter().enumerate() {
                let sign = if ws.flips[i] { -1.0 } else { 1.0 };
                d -= y[i] * sign * row.coeffs[j];
            }
            if d > -WARM_DUAL_MARGIN {
                return false;
            }
        }
        for (i, &yi) in y.iter().enumerate().take(m) {
            let col = ws.aux_col[i];
            if col == usize::MAX || is_basic[col] {
                continue;
            }
            if -yi * ws.aux_sign[i] > -WARM_DUAL_MARGIN {
                return false;
            }
        }
        // Accept: the basis is the unique optimum — extract from x_B, the
        // same canonical computation the cold path finishes with.
        out.x.clear();
        out.x.resize(nstruct, 0.0);
        for (k, &col) in cols.iter().enumerate() {
            if col < nstruct {
                out.x[col] = xb[k].max(0.0);
            }
        }
        out.objective = c.iter().zip(&out.x).map(|(ci, xi)| ci * xi).sum();
        out.pivots = 0;
        true
    })();
    ws.cols = cols;
    ws.lu = lu;
    ws.perm = perm;
    ws.cb = rhs;
    ws.xb = xb;
    ws.yrow = y;
    ws.w = tmp;
    ws.is_basic = is_basic;
    accepted
}

/// Stores (or refreshes) the warm slot for the just-solved shape.
fn store_warm(rows_len: usize, nstruct: usize, art_start: usize, ws: &mut Workspace) {
    if ws.row_ids.len() != rows_len {
        return; // redundant rows were dropped; shape bookkeeping is off
    }
    if ws.basis.iter().any(|&b| b >= art_start) {
        return; // an artificial survived at level zero
    }
    ws.cols.clear();
    ws.cols.extend_from_slice(&ws.basis);
    ws.cols.sort_unstable();
    if let Some(slot) = ws
        .warm
        .iter_mut()
        .find(|s| s.nstruct == nstruct && s.rels == ws.rels)
    {
        if slot.basis != ws.cols {
            // A new optimal basis: the old rejection history is stale.
            slot.basis.clear();
            slot.basis.extend_from_slice(&ws.cols);
            slot.reject_streak = 0;
        }
        return;
    }
    let slot = WarmSlot {
        nstruct,
        rels: ws.rels.clone(),
        basis: ws.cols.clone(),
        reject_streak: 0,
        tries: 0,
    };
    if ws.warm.len() < WARM_SLOTS {
        ws.warm.push(slot);
    } else {
        let i = ws.warm_next % WARM_SLOTS;
        ws.warm[i] = slot;
        ws.warm_next = ws.warm_next.wrapping_add(1);
    }
}

/// Solves `maximize c·x  s.t. rows, x ≥ 0` into `out`, using `ws` for all
/// scratch memory. With `try_warm`, a remembered basis for this problem
/// shape is priced first (results are identical either way).
pub(crate) fn solve_max_into(
    c: &[f64],
    rows: &[Row],
    ws: &mut Workspace,
    try_warm: bool,
    out: &mut Solution,
) -> Result<(), LpError> {
    // Deterministic fault injection: an armed `LpIterationLimit` site
    // makes this solve report its iteration budget as exhausted before
    // any pivoting, exercising the callers' degradation paths. The hook
    // is a single thread-local read when no fault scope is active.
    if bcc_num::faults::should_inject(bcc_num::faults::FaultSite::LpIterationLimit) {
        stats::record_solve(0, false, false);
        return Err(LpError::IterationLimit);
    }

    let nstruct = c.len();
    let (n_slack, n_art) = classify_rows(rows, nstruct, ws);

    let slack_start = nstruct;
    let art_start = nstruct + n_slack;
    let ncols = nstruct + n_slack + n_art;
    let m = rows.len();

    // ---- Warm-start fast path.
    let mut warm_attempted = false;
    if try_warm {
        let slot_idx = ws
            .warm
            .iter()
            .position(|s| s.nstruct == nstruct && s.rels == ws.rels);
        if let Some(idx) = slot_idx {
            let slot = &mut ws.warm[idx];
            slot.tries = slot.tries.wrapping_add(1);
            let cooling = slot.reject_streak >= WARM_REJECT_LIMIT
                && !slot.tries.is_multiple_of(WARM_RETRY_PERIOD);
            if !cooling {
                // An armed `LpWarmReject` site behaves exactly like an
                // organic pricing reject: the attempt is skipped, the
                // slot's reject streak grows toward cooldown, and the
                // solve proceeds cold. Warm starts never change results,
                // so this perturbs only the performance envelope.
                if bcc_num::faults::should_inject(bcc_num::faults::FaultSite::LpWarmReject) {
                    ws.warm[idx].reject_streak = ws.warm[idx].reject_streak.saturating_add(1);
                } else {
                    warm_attempted = true;
                    if warm_attempt(c, rows, nstruct, art_start, idx, ws, out) {
                        ws.warm[idx].reject_streak = 0;
                        stats::record_solve(0, true, true);
                        return Ok(());
                    }
                    ws.warm[idx].reject_streak = ws.warm[idx].reject_streak.saturating_add(1);
                }
            }
        }
    }

    // ---- Cold two-phase simplex.
    let stride = ncols + 1;
    ws.a.clear();
    ws.a.resize(m * stride, 0.0);
    ws.basis.clear();
    ws.basis.resize(m, usize::MAX);
    ws.row_ids.clear();
    ws.row_ids.extend(0..m);
    let mut t = Tableau {
        a: &mut ws.a,
        stride,
        basis: &mut ws.basis,
        row_ids: &mut ws.row_ids,
        ncols,
        art_start,
        pivots: 0,
    };

    let mut next_art = art_start;
    for (i, row) in rows.iter().enumerate() {
        let flip = row.rhs < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        let trow = &mut t.a[i * stride..(i + 1) * stride];
        for (dst, &src) in trow[..nstruct].iter_mut().zip(&row.coeffs) {
            *dst = sign * src;
        }
        trow[ncols] = sign * row.rhs;
        match ws.rels[i] {
            Relation::Le => {
                trow[ws.aux_col[i]] = 1.0;
                t.basis[i] = ws.aux_col[i];
            }
            Relation::Ge => {
                trow[ws.aux_col[i]] = -1.0;
                trow[next_art] = 1.0;
                t.basis[i] = next_art;
                next_art += 1;
            }
            Relation::Eq => {
                trow[next_art] = 1.0;
                t.basis[i] = next_art;
                next_art += 1;
            }
        }
    }
    debug_assert!(slack_start <= art_start);

    // ---- Phase 1: minimise the artificial sum (skip if no artificials).
    if n_art > 0 {
        // Maximize -(sum of artificials): reduced-cost row starts as
        // +1 on artificial columns, then price out the artificial basis.
        let w = &mut ws.w;
        w.clear();
        w.resize(ncols + 1, 0.0);
        for wj in w[art_start..ncols].iter_mut() {
            *wj = 1.0;
        }
        for r in 0..t.basis.len() {
            if t.basis[r] >= art_start {
                let trow = &t.a[r * stride..(r + 1) * stride];
                for (wj, aj) in w.iter_mut().zip(trow.iter()) {
                    *wj -= aj;
                }
            }
        }
        // Artificials may not re-enter during phase 1 either.
        if let Err(e) = t.optimize(w, art_start) {
            stats::record_solve(t.pivots, warm_attempted, false);
            return Err(e);
        }
        let infeas = -w[ncols];
        if infeas > 1e-7 {
            stats::record_solve(t.pivots, warm_attempted, false);
            return Err(LpError::Infeasible);
        }
        // Drive remaining zero-level artificials out of the basis.
        let mut r = 0;
        while r < t.basis.len() {
            if t.basis[r] >= t.art_start {
                // Find any non-artificial column with a nonzero entry.
                let col = (0..t.art_start).find(|&j| t.at(r, j).abs() > 1e-7);
                match col {
                    Some(j) => {
                        t.pivot(r, j, &mut [&mut *w]);
                        r += 1;
                    }
                    None => {
                        // Redundant row: every structural/slack coefficient is
                        // ~0 and the RHS is ~0 (else phase 1 would be
                        // positive). Drop it in place.
                        t.remove_row(r);
                    }
                }
            } else {
                r += 1;
            }
        }
    }

    // ---- Phase 2: optimise the true objective.
    let obj = &mut ws.obj;
    obj.clear();
    obj.resize(ncols + 1, 0.0);
    for (j, &cj) in c.iter().enumerate() {
        obj[j] = -cj;
    }
    // Price out basic variables with nonzero objective coefficients.
    for r in 0..t.basis.len() {
        let b = t.basis[r];
        if obj[b] != 0.0 {
            let factor = obj[b];
            let trow = &t.a[r * stride..(r + 1) * stride];
            for (oj, aj) in obj.iter_mut().zip(trow.iter()) {
                *oj -= factor * aj;
            }
            obj[b] = 0.0;
        }
    }
    let phase2 = t.optimize(obj, t.art_start);
    let pivots = t.pivots;
    if let Err(e) = phase2 {
        stats::record_solve(pivots, warm_attempted, false);
        return Err(e);
    }

    // Canonical extraction from the final basis (tableau readout only as
    // a numerical fallback — see the module docs).
    let mut x = std::mem::take(&mut out.x);
    if canonical_extract(rows, nstruct, ws, &mut x) {
        store_warm(m, nstruct, art_start, ws);
    } else {
        x.clear();
        x.resize(nstruct, 0.0);
        for (r, &b) in ws.basis.iter().enumerate() {
            if b < nstruct {
                x[b] = ws.a[r * stride + ncols].max(0.0);
            }
        }
    }
    out.objective = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
    out.x = x;
    out.pivots = pivots;
    stats::record_solve(pivots, warm_attempted, false);
    Ok(())
}

/// Solves a program of either sense into `out` (the internal entry point
/// behind every `Problem::solve*` method): minimisation is mapped onto the
/// maximisation core via a sign flip on the objective, using workspace
/// scratch so the hot path stays allocation-free.
pub(crate) fn solve_sense_into(
    sense: crate::problem::Sense,
    c: &[f64],
    rows: &[Row],
    ws: &mut Workspace,
    try_warm: bool,
    out: &mut Solution,
) -> Result<(), LpError> {
    match sense {
        crate::problem::Sense::Maximize => solve_max_into(c, rows, ws, try_warm, out),
        crate::problem::Sense::Minimize => {
            let mut neg = std::mem::take(&mut ws.neg_obj);
            neg.clear();
            neg.extend(c.iter().map(|v| -v));
            let res = solve_max_into(&neg, rows, ws, try_warm, out);
            ws.neg_obj = neg;
            res?;
            out.objective = -out.objective;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::problem::{Problem, Relation};
    use crate::Workspace;

    #[test]
    fn injected_iteration_limit_fires_only_under_a_scope() {
        use bcc_num::faults::{FaultPlan, FaultScope, FaultSite};
        let mut p = Problem::maximize(&[1.0, 1.0]);
        p.subject_to(&[1.0, 0.0], Relation::Le, 1.0);
        p.subject_to(&[0.0, 1.0], Relation::Le, 1.0);
        // No scope: solves normally.
        assert!(p.solve().is_ok());
        let plan = FaultPlan::new(3).with(FaultSite::LpIterationLimit, 1.0, 1);
        {
            let _scope = FaultScope::enter(&plan, 0);
            assert_eq!(p.solve().unwrap_err(), crate::LpError::IterationLimit);
            // Trigger budget spent: the retry within the same scope is
            // allowed through and reaches the true optimum.
            let s = p.solve().expect("retry after injected limit");
            assert!((s.objective - 2.0).abs() < 1e-9);
        }
        // Scope dropped: back to normal.
        assert!(p.solve().is_ok());
    }

    #[test]
    fn forced_warm_reject_changes_no_results() {
        use bcc_num::faults::{FaultPlan, FaultScope, FaultSite};
        let mut ws = Workspace::new();
        let mut p = Problem::maximize(&[3.0, 5.0]);
        p.subject_to(&[1.0, 0.0], Relation::Le, 4.0);
        p.subject_to(&[0.0, 2.0], Relation::Le, 12.0);
        p.subject_to(&[3.0, 2.0], Relation::Le, 18.0);
        let baseline = p.solve_warm_with(&mut ws).expect("feasible");
        let plan = FaultPlan::new(5).with(FaultSite::LpWarmReject, 1.0, u32::MAX);
        let _scope = FaultScope::enter(&plan, 9);
        for _ in 0..4 {
            // Every warm attempt is force-rejected; the cold solve must
            // produce bitwise-identical solutions.
            let s = p.solve_warm_with(&mut ws).expect("feasible");
            assert_eq!(s.objective.to_bits(), baseline.objective.to_bits());
            assert_eq!(s.x[0].to_bits(), baseline.x[0].to_bits());
            assert_eq!(s.x[1].to_bits(), baseline.x[1].to_bits());
            assert!(s.pivots > 0, "forced reject means a cold solve");
        }
    }

    #[test]
    fn pivots_reported() {
        let mut p = Problem::maximize(&[1.0, 1.0]);
        p.subject_to(&[1.0, 0.0], Relation::Le, 1.0);
        p.subject_to(&[0.0, 1.0], Relation::Le, 1.0);
        let s = p.solve().expect("feasible");
        assert!(s.pivots >= 2);
        assert!((s.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solution_is_feasible_and_optimal_on_simplex_face() {
        // maximize x0 on the probability simplex of dim 4.
        let mut p = Problem::maximize(&[1.0, 0.0, 0.0, 0.0]);
        p.subject_to(&[1.0, 1.0, 1.0, 1.0], Relation::Eq, 1.0);
        let s = p.solve().expect("feasible");
        assert!((s.objective - 1.0).abs() < 1e-9);
        assert!((s.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_relations_mixed() {
        // maximize x + y s.t. x + y <= 10, x >= 2, y = 3 → x=7,y=3.
        let mut p = Problem::maximize(&[1.0, 1.0]);
        p.subject_to(&[1.0, 1.0], Relation::Le, 10.0);
        p.subject_to(&[1.0, 0.0], Relation::Ge, 2.0);
        p.subject_to(&[0.0, 1.0], Relation::Eq, 3.0);
        let s = p.solve().expect("feasible");
        assert!((s.objective - 10.0).abs() < 1e-9);
        assert!((s.x[0] - 7.0).abs() < 1e-9);
        assert!((s.x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ge_bound_binds_from_below() {
        // minimize x s.t. x >= 4.25.
        let mut p = Problem::minimize(&[1.0]);
        p.subject_to(&[1.0], Relation::Ge, 4.25);
        let s = p.solve().expect("feasible");
        assert!((s.objective - 4.25).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_equality() {
        // maximize x s.t. x - y = 0, y <= 2 → x = 2.
        let mut p = Problem::maximize(&[1.0, 0.0]);
        p.subject_to(&[1.0, -1.0], Relation::Eq, 0.0);
        p.subject_to(&[0.0, 1.0], Relation::Le, 2.0);
        let s = p.solve().expect("feasible");
        assert!((s.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn workspace_reuse_across_shapes_matches_fresh_solves() {
        // Solving problems of different sizes through one workspace must
        // give identical results to fresh per-solve workspaces.
        let mut ws = Workspace::new();
        let problems: Vec<Problem> = (1..6)
            .map(|k| {
                let n = k + 1;
                let mut p = Problem::maximize(&vec![1.0; n]);
                p.subject_to(&vec![1.0; n], Relation::Eq, k as f64);
                for j in 0..n {
                    let mut row = vec![0.0; n];
                    row[j] = 1.0;
                    p.subject_to(&row, Relation::Le, 1.0);
                }
                p
            })
            .collect();
        // Interleave growing and shrinking problem sizes.
        for &i in &[0usize, 4, 1, 3, 0, 2, 4, 0] {
            let reused = problems[i].solve_with(&mut ws).expect("feasible");
            let fresh = problems[i].solve().expect("feasible");
            assert_eq!(reused.x, fresh.x);
            assert_eq!(reused.objective, fresh.objective);
        }
    }

    #[test]
    fn workspace_reuse_after_infeasible_and_redundant_rows() {
        let mut ws = Workspace::new();
        let mut bad = Problem::maximize(&[1.0]);
        bad.subject_to(&[1.0], Relation::Le, 1.0);
        bad.subject_to(&[1.0], Relation::Ge, 2.0);
        assert!(bad.solve_with(&mut ws).is_err());

        // Redundant equalities shrink the tableau mid-solve; the workspace
        // must recover for the next problem.
        let mut red = Problem::maximize(&[1.0, 1.0]);
        red.subject_to(&[1.0, 1.0], Relation::Eq, 1.0);
        red.subject_to(&[1.0, 1.0], Relation::Eq, 1.0);
        let s = red.solve_with(&mut ws).expect("feasible");
        assert!((s.objective - 1.0).abs() < 1e-9);

        let mut ok = Problem::maximize(&[2.0]);
        ok.subject_to(&[1.0], Relation::Le, 3.0);
        let s = ok.solve_with(&mut ws).expect("feasible");
        assert!((s.objective - 6.0).abs() < 1e-9);
    }

    #[test]
    fn warm_solve_identical_to_cold_across_perturbations() {
        // A sweep-shaped sequence: same structure, drifting coefficients.
        // solve_warm must agree with a cold solve bit for bit at every
        // step, whether it hit the warm path or not.
        let mut warm_ws = Workspace::new();
        for k in 0..200 {
            let a = 1.0 + 0.01 * k as f64;
            let b = 2.0 - 0.005 * k as f64;
            let mut p = Problem::maximize(&[1.0, 1.0, 0.0, 0.0]);
            p.subject_to(&[1.0, 0.0, -a, 0.0], Relation::Le, 0.0);
            p.subject_to(&[0.0, 1.0, 0.0, -b], Relation::Le, 0.0);
            p.subject_to(&[0.0, 0.0, 1.0, 1.0], Relation::Eq, 1.0);
            let warm = p.solve_warm_with(&mut warm_ws).expect("feasible");
            let cold = p.solve().expect("feasible");
            assert_eq!(warm.x, cold.x, "step {k}");
            assert_eq!(warm.objective, cold.objective, "step {k}");
        }
    }

    #[test]
    fn warm_path_actually_fires_on_repeats() {
        let before = crate::stats::local_snapshot();
        let mut ws = Workspace::new();
        for k in 0..50 {
            let cap = 1.0 + 0.02 * k as f64;
            let mut p = Problem::maximize(&[2.0, 1.0]);
            p.subject_to(&[1.0, 0.0], Relation::Le, cap);
            p.subject_to(&[0.0, 1.0], Relation::Le, 2.0 * cap);
            p.subject_to(&[1.0, 1.0], Relation::Le, 2.5 * cap);
            let s = p.solve_warm_with(&mut ws).expect("feasible");
            // x = cap binds its own cap, y fills the joint cap: 2·cap + 1.5·cap.
            assert!((s.objective - 3.5 * cap).abs() < 1e-9);
        }
        let d = crate::stats::local_snapshot().delta_since(&before);
        assert!(d.warm_hits >= 40, "warm hits {} too low", d.warm_hits);
    }

    #[test]
    fn warm_shape_change_falls_back_cleanly() {
        let mut ws = Workspace::new();
        let mut p1 = Problem::maximize(&[1.0]);
        p1.subject_to(&[1.0], Relation::Le, 1.0);
        let s1 = p1.solve_warm_with(&mut ws).unwrap();
        assert!((s1.objective - 1.0).abs() < 1e-9);
        // Different shape (relation pattern): must not reuse the basis.
        let mut p2 = Problem::maximize(&[1.0]);
        p2.subject_to(&[1.0], Relation::Ge, 2.0);
        p2.subject_to(&[1.0], Relation::Le, 5.0);
        let s2 = p2.solve_warm_with(&mut ws).unwrap();
        assert!((s2.objective - 5.0).abs() < 1e-9);
        // And back again.
        let s1b = p1.solve_warm_with(&mut ws).unwrap();
        assert_eq!(s1.x, s1b.x);
    }

    #[test]
    fn warm_after_infeasible_recovers() {
        let mut ws = Workspace::new();
        let mut good = Problem::maximize(&[1.0]);
        good.subject_to(&[1.0], Relation::Le, 3.0);
        assert!(good.solve_warm_with(&mut ws).is_ok());
        let mut bad = Problem::maximize(&[1.0]);
        bad.subject_to(&[1.0], Relation::Le, 1.0);
        bad.subject_to(&[1.0], Relation::Ge, 2.0);
        assert!(bad.solve_warm_with(&mut ws).is_err());
        let again = good.solve_warm_with(&mut ws).unwrap();
        assert!((again.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn warm_history_does_not_leak_into_results() {
        // Two workspaces with *different* histories must produce identical
        // results on the same problem — the determinism contract that lets
        // batch drivers warm-start inside a racy scheduler.
        let mut ws_a = Workspace::new();
        let mut ws_b = Workspace::new();
        for k in (0..40).rev() {
            let cap = 0.5 + 0.1 * k as f64;
            let mut warmup = Problem::maximize(&[1.0, 2.0]);
            warmup.subject_to(&[1.0, 0.0], Relation::Le, cap);
            warmup.subject_to(&[0.0, 1.0], Relation::Le, 2.0 * cap);
            let _ = warmup.solve_warm_with(&mut ws_a);
        }
        let mut probe = Problem::maximize(&[1.0, 2.0]);
        probe.subject_to(&[1.0, 0.0], Relation::Le, 0.77);
        probe.subject_to(&[0.0, 1.0], Relation::Le, 1.23);
        let a = probe.solve_warm_with(&mut ws_a).unwrap();
        let b = probe.solve_warm_with(&mut ws_b).unwrap();
        assert_eq!(a.x, b.x);
        assert_eq!(a.objective, b.objective);
    }
}
