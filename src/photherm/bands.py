"""Band structure and gap intervals for the delta-plane crystal.

For the infinite periodic crystal (spacing l_p, plane strength eta) the Bloch
condition gives cos(k l_p) = T(Omega) with

    T = cos(theta) - (q * eta / 2) * sin(theta),  theta = q * l_p,  q = Omega/c

so |T| <= 1 marks pass bands and |T| > 1 marks gaps. T = +-1 exactly at the
Bragg frequencies m*pi*c/l_p, and for eta > 0 |T| - 1 changes sign exactly
once inside each period ((m-1)*pi, m*pi) of theta, from the band below to
the gap just under the Bragg frequency (Kronig & Penney, Proc. R. Soc. A
130, 499, 1931). So the m-th gap is [lower edge, m*pi*c/l_p], and all lower
edges are refined together on |T| - 1 by `modes.refine_roots`, the loop the
census uses. Finite-cavity gap intervals are anchored to these analytic gaps and
widened to the maximal interval free of crystal-class mode frequencies, so
the reported intervals satisfy both the no-crystal-mode invariant and the
analytic band picture. Trailing gaps are clipped at the mode-table cutoff;
eta = 0 yields no gaps (|cos| never exceeds 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT as C
from .modes import ModeTable, refine_roots

# Reported gaps must beat this multiple of the empty-cavity mode spacing.
MIN_GAP_SPACING_FACTOR = 3.0


@dataclass
class BandStructure:
    """(k, Omega) pairs of crystal-class modes plus gap intervals, and the
    refinement passes that located the analytic gap edges."""

    k: np.ndarray
    omega: np.ndarray
    gaps: np.ndarray  # shape (n_gaps, 2), [omega_lo, omega_hi] per row
    passes: int

    @property
    def n_gaps(self) -> int:
        return self.gaps.shape[0]


def dispersion_trace(omega, eta: float, l_p: float):
    """Half-trace T of the single-period transfer matrix (vectorized)."""
    q = np.asarray(omega, dtype=float) / C
    theta = q * l_p
    return np.cos(theta) - 0.5 * q * eta * np.sin(theta)


def analytic_gaps(eta: float, l_p: float, omega_max: float) -> tuple[np.ndarray, int]:
    """Gap intervals of the infinite crystal in (0, omega_max], shape (n, 2),
    and the refinement passes taken.

    The m-th gap ends at the Bragg frequency m*pi*c/l_p, clipped at
    omega_max; its lower edge is the one sign change of |T| - 1 inside
    ((m-1)*pi, m*pi)*c/l_p, refined to ROOT_RTOL. |T| - 1 vanishes at both
    ends of the period, so the refinement starts with unknown end values. A
    period whose lower edge reaches omega_max, or whose interval holds no
    |T| > 1 at its midpoint (a gap narrower than the refinement resolves),
    holds no gap. Without planes (eta = 0) |T| = |cos theta| never exceeds
    1, so nothing is refined.
    """
    if eta == 0.0:
        return np.empty((0, 2)), 0
    period = math.pi * C / l_p
    bragg = period * np.arange(1, math.ceil(omega_max / period) + 1)
    excess = lambda om, _=None: np.abs(dispersion_trace(om, eta, l_p)) - 1.0
    lower, passes = refine_roots(bragg - period, bragg, excess)
    upper = np.minimum(bragg, omega_max)
    keep = (lower < omega_max) & (excess(0.5 * (lower + upper)) > 0.0)
    return np.column_stack([lower[keep], upper[keep]]), passes


def band_structure(table: ModeTable) -> BandStructure:
    """Collect (k, Omega) of crystal-class modes and locate gap intervals.

    Each analytic gap is widened to the maximal interval around its midpoint
    containing no crystal-class mode frequency, so the reported interval ends
    exactly at the nearest crystal-class modes (or at 0 / omega_max); gaps
    that widen to the same interval report it once. Gaps narrower than
    MIN_GAP_SPACING_FACTOR empty-cavity spacings are dropped.
    """
    cc = table.is_crystal
    omega_cc = table.omega[cc]
    if np.any(np.diff(omega_cc) <= 0.0):
        raise ValueError("crystal-class frequencies are not strictly increasing")
    p = table.params
    raw, passes = analytic_gaps(p.plane_strength, p.plane_spacing, p.omega_max)
    # voids between consecutive crystal-class modes, and the one each gap's
    # midpoint falls in
    edges = np.concatenate(([0.0], omega_cc, [p.omega_max]))
    void = np.unique(np.searchsorted(omega_cc, raw.mean(axis=1), side="right"))
    gaps = np.column_stack([edges[void], edges[void + 1]])
    spacing = math.pi * C / p.cavity_length
    wide = gaps[:, 1] - gaps[:, 0] > MIN_GAP_SPACING_FACTOR * spacing
    return BandStructure(table.k_assigned[cc], omega_cc, gaps[wide], passes)


def in_gap_mask(table: ModeTable, structure: BandStructure) -> np.ndarray:
    """Boolean mask over table modes lying strictly inside a gap interval."""
    mask = np.zeros(table.n_modes, dtype=bool)
    for lo, hi in structure.gaps:
        mask |= (table.omega > lo) & (table.omega < hi)
    return mask


def representatives(table: ModeTable, structure: BandStructure) -> dict:
    """Canonical probe modes: strongest-confined vs deepest in-gap.

    band_edge is the index of the global confinement maximum (a band-edge
    resonance); in_gap is the index of the confinement minimum among modes
    strictly inside gap intervals.
    """
    gap_mask = in_gap_mask(table, structure)
    if not gap_mask.any():
        raise ValueError("no modes inside gap intervals")
    band_edge = int(np.argmax(table.gamma_conf))
    gap_idx = np.nonzero(gap_mask)[0]
    in_gap = int(gap_idx[np.argmin(table.gamma_conf[gap_idx])])
    return {"band_edge": band_edge, "in_gap": in_gap}
