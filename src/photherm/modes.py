"""Eigenmodes of a closed 1D cavity containing a stack of delta planes.

The relative permittivity is 1 + eta * sum_i delta(z - z_i), planes at
z_i = i * plane_spacing, cavity walls at z = 0 and z = L with u(0) = u(L) = 0.
Between planes the field obeys u'' + q^2 u = 0 with q = Omega / c; crossing a
plane leaves u continuous and jumps the derivative:

    u'(z_i+) - u'(z_i-) = -q^2 * eta * u(z_i)

The working pair is (u, w) with w = u' / q, shot from z = 0 with
(u, w) = (0, 1): free propagation is a pure rotation by q*d and a plane
crossing is the shear w -> w - q*eta*u. Eigenfrequencies are found by
Sturm-count bisection: the Pruefer phase of (u, w) at z = L gives the exact
number of eigenfrequencies below any frequency (`count_below`), and every
root is bisected on that count alone, all roots in one vectorized pass
(`scan_eigenfrequencies`). The same phase, stopped just left of the last
plane at L_c, gives the number of positive field maxima inside the stack
in closed form (`count_peaks`). The normalization propagates the pair
itself, which stays O(1) up to the accumulated shear factors; these fit
comfortably in double precision for all supported plane strengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import SPEED_OF_LIGHT as C
from .params import PhysicalParams

# Scan resolution: fraction of the empty-cavity mode spacing pi*c/L.
SCAN_SPACING_FACTOR = 0.3
# Relative tolerance for eigenfrequency refinement.
ROOT_RTOL = 1e-12
# Format of a saved ModeTable; a file with another (or no) version is stale
# and solved again. Raise it whenever a saved field changes layout or value.
CENSUS_VERSION = 2


@dataclass
class ModeTable:
    """Solved eigenmode set below omega_max, sorted by frequency.

    gamma_conf is the confinement factor: the fraction of the plain field
    energy integral int u^2 dz that falls inside the plane stack [0, L_c].
    Delta-plane terms enter the mode normalization but not this ratio.
    census_version is the CENSUS_VERSION the table was solved under.
    """

    omega: np.ndarray
    gamma_conf: np.ndarray
    m_peak: np.ndarray
    k_assigned: np.ndarray
    is_crystal: np.ndarray

    # geometry the table depends on
    plane_strength: float
    cavity_length: float
    crystal_length: float
    plane_spacing: float
    n_planes: int
    omega_max: float
    census_version: int = CENSUS_VERSION

    @property
    def n_modes(self) -> int:
        return self.omega.size

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path,
            omega=self.omega,
            gamma_conf=self.gamma_conf,
            m_peak=self.m_peak,
            k_assigned=self.k_assigned,
            is_crystal=self.is_crystal,
            census_version=self.census_version,
            geometry=np.array(
                [
                    self.plane_strength,
                    self.cavity_length,
                    self.crystal_length,
                    self.plane_spacing,
                    float(self.n_planes),
                    self.omega_max,
                ]
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ModeTable":
        data = np.load(path)
        geo = data["geometry"]
        return cls(
            omega=data["omega"],
            gamma_conf=data["gamma_conf"],
            m_peak=data["m_peak"],
            k_assigned=data["k_assigned"],
            is_crystal=data["is_crystal"],
            plane_strength=float(geo[0]),
            cavity_length=float(geo[1]),
            crystal_length=float(geo[2]),
            plane_spacing=float(geo[3]),
            n_planes=int(geo[4]),
            omega_max=float(geo[5]),
            census_version=(
                int(data["census_version"]) if "census_version" in data else 0
            ),
        )

    def matches(self, params: PhysicalParams) -> bool:
        return (
            self.census_version == CENSUS_VERSION
            and self.plane_strength == params.plane_strength
            and self.cavity_length == params.cavity_length
            and self.crystal_length == params.crystal_length
            and self.plane_spacing == params.plane_spacing
            and self.omega_max == params.omega_max
        )


# ----------------------------------------------------------------------
# census: Sturm count and bisection
# ----------------------------------------------------------------------


def _pruefer_phase(q: np.ndarray, params: PhysicalParams, end: float):
    """Pruefer phase Theta = m*pi + rho of the pair shot from z = 0, at z = end.

    Returns (m, rho) with integer m and residual rho in [0, pi). Only the
    planes strictly before `end` shear the pair, so a plane sitting at `end`
    is left out and the phase is the one just left of it.

    Free propagation advances Theta rigidly by q*d; a plane shear (u fixed,
    w reduced by q*eta*u) moves Theta forward but never across a multiple
    of pi, where u = 0. Carrying m apart from rho keeps the shear branch
    exact even at the Bragg frequencies m*pi*c/l_p, where every plane sits
    at a phase multiple of pi and a plain accumulated phase loses the branch
    to rounding.
    """
    eta = params.plane_strength
    m = np.zeros(q.shape, dtype=np.int64)
    rho = np.zeros_like(q)
    prev = 0.0
    planes = params.plane_positions
    for z in planes[planes < end]:
        adv = rho + q * (z - prev)
        m += np.floor(adv / np.pi).astype(np.int64)
        rho = np.mod(adv, np.pi)
        if eta != 0.0:
            s, c = np.sin(rho), np.cos(rho)  # s >= 0 since rho in [0, pi)
            rho = np.mod(np.arctan2(s, c - q * eta * s), np.pi)
        prev = z
    adv = rho + q * (end - prev)
    m += np.floor(adv / np.pi).astype(np.int64)
    return m, np.mod(adv, np.pi)


def count_below(omega, params: PhysicalParams) -> np.ndarray:
    """Exact number of eigenfrequencies in (0, omega], vectorized.

    Oscillation-theorem count: with u = R sin(Theta), w = R cos(Theta) the
    number of zeros of u on (0, L] - which equals the number of
    eigenfrequencies below - is floor(Theta(L)/pi).
    """
    q = np.atleast_1d(np.asarray(omega, dtype=float)) / C
    return _pruefer_phase(q, params, params.cavity_length)[0]


def scan_eigenfrequencies(
    params: PhysicalParams, omega_max: float | None = None
) -> np.ndarray:
    """All eigenfrequencies in (0, omega_max], refined to ROOT_RTOL.

    The exact oscillation count on a scan grid (spacing SCAN_SPACING_FACTOR
    times the empty-cavity mode spacing pi*c/L) numbers the roots and gives
    the k-th root (1-based) the grid cell with count(lo) < k <= count(hi)
    as its bracket. All brackets are then bisected together on the count
    alone: each pass evaluates `count_below` once at the midpoints of the
    brackets still wider than ROOT_RTOL * hi and keeps the half that holds
    the k-th root. Completeness does not rest on the grid, and roots
    sharing a cell (near-degenerate pairs at band edges) separate as soon
    as a midpoint falls between them.
    """
    if omega_max is None:
        omega_max = params.omega_max
    step = SCAN_SPACING_FACTOR * math.pi * C / params.cavity_length
    edges = np.arange(0.0, omega_max + step, step)
    edges[-1] = omega_max
    if edges.size < 2:
        return np.empty(0)
    counts = count_below(edges, params)
    k = np.arange(1, counts[-1] + 1)
    cell = np.searchsorted(counts, k) - 1
    lo, hi = edges[cell], edges[cell + 1]
    while True:
        wide = np.flatnonzero(hi - lo > ROOT_RTOL * hi)
        if wide.size == 0:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo[wide] + hi[wide])
        above = count_below(mid, params) >= k[wide]
        hi[wide[above]] = mid[above]
        lo[wide[~above]] = mid[~above]


# ----------------------------------------------------------------------
# reconstruction: normalization, confinement, peak count
# ----------------------------------------------------------------------


def _region_states(omega: np.ndarray, params: PhysicalParams):
    """Propagate (u, w) and record the state entering each region.

    Returns (z_edges, U, W) where z_edges has length n_regions + 1
    (0, z_1, ..., z_n, L) and U, W have shape (n_modes, n_regions) holding
    the unnormalized field state at each region's left edge.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    q = omega / C
    eta = params.plane_strength
    z_edges = np.concatenate(([0.0], params.plane_positions, [params.cavity_length]))
    n_regions = z_edges.size - 1
    U = np.empty((omega.size, n_regions))
    W = np.empty((omega.size, n_regions))
    u = np.zeros_like(q)
    w = np.ones_like(q)
    for r in range(n_regions):
        U[:, r] = u
        W[:, r] = w
        phi = q * (z_edges[r + 1] - z_edges[r])
        cp, sp = np.cos(phi), np.sin(phi)
        u, w = u * cp + w * sp, -u * sp + w * cp
        if r + 1 < n_regions:  # interior edge: a plane
            w = w - q * eta * u
    return z_edges, U, W


def _region_integrals(omega: np.ndarray, z_edges: np.ndarray, U, W):
    """Closed-form integral of u^2 over each region.

    For u(s) = u0 cos(q s) + w0 sin(q s) on [0, d]:
    int u^2 ds = d (u0^2 + w0^2)/2 + sin(2qd) (u0^2 - w0^2)/(4q)
                 + u0 w0 (1 - cos(2qd))/(2q)
    """
    q = (np.atleast_1d(omega) / C)[:, None]
    d = np.diff(z_edges)[None, :]
    s2 = np.sin(2.0 * q * d)
    c2 = np.cos(2.0 * q * d)
    return (
        0.5 * d * (U**2 + W**2)
        + s2 / (4.0 * q) * (U**2 - W**2)
        + U * W * (1.0 - c2) / (2.0 * q)
    )


def normalize_modes(omega: np.ndarray, params: PhysicalParams):
    """Normalize each mode to int eps(z) u^2 dz / eps0 = 1.

    Returns (U, segment_integrals), both already scaled: U holds the field
    state u entering each region, so U[:, 1:] is u at the planes. The
    delta-plane terms eta * u(z_i)^2 enter the norm (they are part of eps)
    but are not part of the segment integrals.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    z_edges, U, W = _region_states(omega, params)
    seg = _region_integrals(omega, z_edges, U, W)
    # u at plane i is the entering state of region i+1 (continuity)
    u_planes = U[:, 1:]
    delta_part = params.plane_strength * np.sum(u_planes**2, axis=1)
    total = seg.sum(axis=1) + delta_part
    scale = 1.0 / np.sqrt(total)
    return U * scale[:, None], seg * (scale**2)[:, None]


def norm_residuals(omega: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """|int eps u^2 / eps0 - 1| for normalized modes (test hook)."""
    U, seg = normalize_modes(omega, params)
    delta_part = params.plane_strength * np.sum(U[:, 1:] ** 2, axis=1)
    return np.abs(seg.sum(axis=1) + delta_part - 1.0)


def count_peaks(omega: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Number of positive field maxima inside the plane stack (0, L_c).

    Each positive maximum is one crossing of the Pruefer phase through
    pi/2 + 2*pi*j: the phase never decreases, and on a positive hump u is
    concave, kinks included, since a plane only lowers w there. With
    Theta = m*pi + rho just left of the last plane at L_c, the crossings
    number (m + 1)//2, plus one when m is even and rho is past pi/2. One
    positive hump per full wavelength makes this the spatial order of the
    mode inside the stack.
    """
    q = np.atleast_1d(np.asarray(omega, dtype=float)) / C
    m, rho = _pruefer_phase(q, params, params.crystal_length)
    return (m + 1) // 2 + ((m % 2 == 0) & (rho > 0.5 * np.pi))


def solve_modes(params: PhysicalParams, omega_max: float | None = None) -> ModeTable:
    """Find, normalize, and classify every eigenmode up to omega_max."""
    if omega_max is None:
        omega_max = params.omega_max
    omega = scan_eigenfrequencies(params, omega_max)
    if omega.size == 0:
        raise ValueError("no eigenmodes found below omega_max")

    _, seg = normalize_modes(omega, params)
    n_inside = params.n_planes  # regions [0, z_1], ..., [z_{n-1}, L_c]
    gamma_conf = seg[:, :n_inside].sum(axis=1) / seg.sum(axis=1)
    m_peak = count_peaks(omega, params)
    k_assigned = 2.0 * math.pi * m_peak / params.crystal_length
    is_crystal = gamma_conf > params.crystal_length / params.cavity_length

    return ModeTable(
        omega=omega,
        gamma_conf=gamma_conf,
        m_peak=m_peak,
        k_assigned=k_assigned,
        is_crystal=is_crystal,
        plane_strength=params.plane_strength,
        cavity_length=params.cavity_length,
        crystal_length=params.crystal_length,
        plane_spacing=params.plane_spacing,
        n_planes=params.n_planes,
        omega_max=float(omega_max),
    )
