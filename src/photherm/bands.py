"""Band structure and gap intervals for the delta-plane crystal.

For the infinite periodic crystal (spacing l_p, plane strength eta) the Bloch
condition gives cos(k l_p) = T(Omega) with

    T = cos(theta) - (q * eta / 2) * sin(theta),  theta = q * l_p,  q = Omega/c

so |T| <= 1 marks pass bands and |T| > 1 marks gaps. Finite-cavity gap
intervals are anchored to these analytic gaps and widened to the maximal
interval free of crystal-class mode frequencies, so the reported intervals
satisfy both the no-crystal-mode invariant and the analytic band picture.
Trailing gaps are clipped at the mode-table cutoff; eta = 0 yields no gaps
(|cos| never exceeds 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .constants import SPEED_OF_LIGHT as C
from .modes import ModeTable

# Reported gaps must beat this multiple of the empty-cavity mode spacing.
MIN_GAP_SPACING_FACTOR = 3.0


@dataclass
class BandStructure:
    """(k, Omega) pairs of crystal-class modes plus gap intervals."""

    k: np.ndarray
    omega: np.ndarray
    gaps: np.ndarray  # shape (n_gaps, 2), [omega_lo, omega_hi] per row
    plane_strength: float
    omega_max: float

    @property
    def n_gaps(self) -> int:
        return self.gaps.shape[0]

    def total_gap_measure(self) -> float:
        if self.gaps.size == 0:
            return 0.0
        return float(np.sum(self.gaps[:, 1] - self.gaps[:, 0]))


def dispersion_trace(omega, eta: float, l_p: float):
    """Half-trace T of the single-period transfer matrix (vectorized)."""
    q = np.asarray(omega, dtype=float) / C
    theta = q * l_p
    return np.cos(theta) - 0.5 * q * eta * np.sin(theta)


def analytic_gaps(eta: float, l_p: float, omega_max: float) -> np.ndarray:
    """Gap intervals of the infinite crystal in (0, omega_max], shape (n, 2).

    Edges are the |T| = 1 crossings, located by sign change of |T| - 1 on a
    fine grid and refined by bracketing. A gap still open at omega_max is
    clipped there.
    """
    if eta == 0.0:
        return np.empty((0, 2))
    # ~1e-4 rad resolution in theta: far finer than any band or gap width
    n_grid = max(int(omega_max * l_p / C / 1e-4), 1000)
    grid = np.linspace(omega_max / n_grid, omega_max, n_grid)
    f = np.abs(dispersion_trace(grid, eta, l_p)) - 1.0
    in_gap = f > 0.0

    def edge(lo: float, hi: float) -> float:
        g = lambda om: abs(float(dispersion_trace(om, eta, l_p))) - 1.0
        return brentq(g, lo, hi, rtol=1e-13)

    gaps = []
    i = 0
    while i < n_grid:
        if not in_gap[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_grid and in_gap[j + 1]:
            j += 1
        lo = edge(grid[i - 1], grid[i]) if i > 0 else grid[0]
        hi = edge(grid[j], grid[j + 1]) if j + 1 < n_grid else omega_max
        gaps.append((lo, hi))
        i = j + 1
    return np.array(gaps).reshape(-1, 2)


def band_structure(table: ModeTable) -> BandStructure:
    """Collect (k, Omega) of crystal-class modes and locate gap intervals.

    Each analytic gap is widened to the maximal interval around its midpoint
    containing no crystal-class mode frequency, so the reported interval ends
    exactly at the nearest crystal-class modes (or at 0 / omega_max). Gaps
    narrower than MIN_GAP_SPACING_FACTOR empty-cavity spacings are dropped.
    """
    cc = table.is_crystal
    omega_cc = table.omega[cc]
    k_cc = table.k_assigned[cc]

    raw = analytic_gaps(table.plane_strength, table.plane_spacing, table.omega_max)
    spacing = math.pi * C / table.cavity_length
    gaps = []
    for lo_a, hi_a in raw:
        mid = 0.5 * (lo_a + hi_a)
        below = omega_cc[omega_cc <= mid]
        above = omega_cc[omega_cc > mid]
        lo = float(below.max()) if below.size else 0.0
        hi = float(above.min()) if above.size else table.omega_max
        if hi - lo > MIN_GAP_SPACING_FACTOR * spacing:
            gaps.append((lo, hi))
    # analytic gaps are disjoint but void widening can merge adjacent ones
    merged: list[list[float]] = []
    for lo, hi in gaps:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    gap_arr = np.array(merged).reshape(-1, 2)

    for lo, hi in gap_arr:
        inside = (omega_cc > lo) & (omega_cc < hi)
        if inside.any():
            raise AssertionError("crystal-class mode inside a reported gap")
    return BandStructure(
        k=k_cc,
        omega=omega_cc,
        gaps=gap_arr,
        plane_strength=table.plane_strength,
        omega_max=table.omega_max,
    )


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
