//! Theorem-by-theorem constraint builders for the Gaussian case.
//!
//! Every submodule evaluates one protocol's inner/outer bound at a given
//! transmit power `P` and channel state `(G_ab, G_ar, G_br)`, producing a
//! [`ConstraintSet`] whose rows are
//! linear in `(R_a, R_b, Δ_1..Δ_L)`:
//!
//! * [`dt`] — direct transmission (two-way TDMA baseline, no relay).
//! * [`mabc`] — **Theorem 2**: the exact capacity region of the two-phase
//!   multiple-access broadcast protocol.
//! * [`tdbc`] — **Theorem 3** (achievable) and **Theorem 4** (outer) for
//!   the three-phase time-division broadcast protocol.
//! * [`hbc`] — **Theorem 5** (achievable) and the Gaussian-restricted
//!   **Theorem 6** family (outer, parameterised by the phase-3 input
//!   correlation ρ) for the four-phase hybrid protocol.
//!
//! Two baselines beyond the paper's theorems round out the comparison:
//!
//! * [`naive`] — four-phase forwarding without network coding
//!   (Fig. 1(ii)), provably contained in the MABC region.
//! * [`af`] — two-phase amplify-and-forward (the paper's refs \[7\]–\[9\]),
//!   the non-decoding competitor to Theorem 2.
//!
//! All mutual informations are evaluated with jointly Gaussian codebooks,
//! which maximises each term individually under the per-phase power
//! constraint (the argument the paper uses to justify `|Q| = 1` in
//! Section IV).

pub mod af;
pub mod dt;
pub mod hbc;
pub mod mabc;
pub mod naive;
pub mod tdbc;

use crate::constraint::{ConstraintBuf, ConstraintSet};
use crate::protocol::{Bound, Protocol};
use bcc_channel::{ChannelState, PowerSplit};
use bcc_info::awgn_capacity;
use bcc_info::gaussian::mac_sum_capacity;

/// The seven distinct link capacities every **inner** bound of the four
/// protocols is assembled from, evaluated once per operating point.
///
/// A full-protocol grid point used to evaluate `log2(1 + SNR)` 22 times
/// across the four builders; these seven values cover all of them
/// (outer bounds add cut/correlated terms and stay on the direct
/// builders). [`SolveCtx`](crate::kernel::SolveCtx) memoises one
/// `LinkCaps` per `(powers, state)`, so the per-point cost across
/// protocols is paid once. Each field uses exactly the expression the
/// direct builders use, so cached and uncached builds are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCaps {
    /// `C(p_a·G_ab)` — a's direct link.
    pub c_a_ab: f64,
    /// `C(p_b·G_ab)` — b's direct link.
    pub c_b_ab: f64,
    /// `C(p_a·G_ar)` — a's relay uplink.
    pub c_a_ar: f64,
    /// `C(p_b·G_br)` — b's relay uplink.
    pub c_b_br: f64,
    /// `C(p_r·G_ar)` — relay broadcast towards a.
    pub c_r_ar: f64,
    /// `C(p_r·G_br)` — relay broadcast towards b.
    pub c_r_br: f64,
    /// `C(p_a·G_ar + p_b·G_br)` — the MAC sum capacity at the relay.
    pub c_mac: f64,
}

impl LinkCaps {
    /// Evaluates the seven capacities at one operating point.
    pub fn compute(powers: &PowerSplit, state: &ChannelState) -> Self {
        let snr_ar = powers.p_a() * state.gar();
        let snr_br = powers.p_b() * state.gbr();
        LinkCaps {
            c_a_ab: awgn_capacity(powers.p_a() * state.gab()),
            c_b_ab: awgn_capacity(powers.p_b() * state.gab()),
            c_a_ar: awgn_capacity(snr_ar),
            c_b_br: awgn_capacity(snr_br),
            c_r_ar: awgn_capacity(powers.p_r() * state.gar()),
            c_r_br: awgn_capacity(powers.p_r() * state.gbr()),
            c_mac: mac_sum_capacity(snr_ar, snr_br),
        }
    }
}

/// Dispatches to the right theorem for `(protocol, bound)` at the paper's
/// common per-node power `P` — shorthand for [`constraint_sets_split`]
/// with a symmetric split.
///
/// # Panics
///
/// Panics if `power < 0`.
pub fn constraint_sets(
    protocol: Protocol,
    bound: Bound,
    power: f64,
    state: &ChannelState,
) -> Vec<ConstraintSet> {
    assert!(power >= 0.0, "transmit power must be non-negative");
    constraint_sets_split(protocol, bound, &PowerSplit::symmetric(power), state)
}

/// Grid resolution of the HBC Theorem-6 ρ-family (the region is the union
/// over the correlation grid).
const HBC_OUTER_RHO_GRID: usize = 33;

/// Dispatches to the right theorem for `(protocol, bound)` with per-node
/// transmit powers — the entry point of the power-allocation studies.
///
/// For [`Protocol::Hbc`] with [`Bound::Outer`] this returns the
/// **ρ-family** of Gaussian-restricted Theorem-6 sets (the region is their
/// union); every other combination returns a single set. The paper itself
/// declines to evaluate the HBC outer bound numerically because the optimal
/// joint phase-3 input distribution is unknown — see DESIGN.md §2 for why
/// the Gaussian-restricted family is reported instead.
pub fn constraint_sets_split(
    protocol: Protocol,
    bound: Bound,
    powers: &PowerSplit,
    state: &ChannelState,
) -> Vec<ConstraintSet> {
    let mut buf = ConstraintBuf::new();
    constraint_sets_split_into(protocol, bound, powers, state, &mut buf);
    buf.into_sets()
}

/// [`constraint_sets_split`] rebuilding the family inside a reusable
/// [`ConstraintBuf`] arena and returning the built slice — the batch hot
/// loops' entry point: after the first call through a given arena, no heap
/// allocation is performed per rebuild.
pub fn constraint_sets_split_into<'a>(
    protocol: Protocol,
    bound: Bound,
    powers: &PowerSplit,
    state: &ChannelState,
    buf: &'a mut ConstraintBuf,
) -> &'a [ConstraintSet] {
    buf.begin();
    match (protocol, bound) {
        (Protocol::DirectTransmission, _) => {
            dt::capacity_constraints_split_into(powers, state, buf.next_set());
        }
        (Protocol::Mabc, _) => {
            mabc::capacity_constraints_split_into(powers, state, buf.next_set());
        }
        (Protocol::Tdbc, Bound::Inner) => {
            tdbc::inner_constraints_split_into(powers, state, buf.next_set());
        }
        (Protocol::Tdbc, Bound::Outer) => {
            tdbc::outer_constraints_split_into(powers, state, buf.next_set());
        }
        (Protocol::Hbc, Bound::Inner) => {
            hbc::inner_constraints_split_into(powers, state, buf.next_set());
        }
        (Protocol::Hbc, Bound::Outer) => {
            hbc::outer_constraint_family_split_into(powers, state, HBC_OUTER_RHO_GRID, buf);
        }
    }
    buf.sets()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ChannelState {
        ChannelState::new(0.19952623149688797, 1.0, 3.1622776601683795)
    }

    #[test]
    fn dispatch_phase_counts() {
        for proto in Protocol::ALL {
            for bound in [Bound::Inner, Bound::Outer] {
                for set in constraint_sets(proto, bound, 10.0, &state()) {
                    assert_eq!(set.num_phases(), proto.num_phases(), "{proto} {bound}");
                    assert!(!set.constraints().is_empty());
                }
            }
        }
    }

    #[test]
    fn hbc_outer_is_a_family() {
        let sets = constraint_sets(Protocol::Hbc, Bound::Outer, 10.0, &state());
        assert!(sets.len() > 1, "HBC outer should be a ρ-family");
        let singles = constraint_sets(Protocol::Tdbc, Bound::Outer, 10.0, &state());
        assert_eq!(singles.len(), 1);
    }
}
