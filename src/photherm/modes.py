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
in closed form (`count_peaks`). The normalization and the confinement
factor come in closed form from the phases the same propagation passes at
the planes (`normalize_modes`): free flight keeps the amplitude R of
(u, w) = R (sin Theta, cos Theta), each plane multiplies R^2 by a factor
read off its arriving phase, and every region's integral of u^2 follows
from R^2 and the phases at its two ends. There is one loop over the planes,
in `_pruefer_phase`.
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
CENSUS_VERSION = 3


@dataclass
class ModeTable:
    """Solved eigenmode set below omega_max, sorted by frequency.

    gamma_conf is the confinement factor: the fraction of the plain field
    energy integral int u^2 dz that falls inside the plane stack [0, L_c].
    Delta-plane terms enter the mode normalization but not this ratio.
    k_assigned and is_crystal derive from the stored columns and geometry.
    census_version is the CENSUS_VERSION the table was solved under.
    """

    omega: np.ndarray
    gamma_conf: np.ndarray
    m_peak: np.ndarray

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

    @property
    def k_assigned(self) -> np.ndarray:
        """Bloch wavenumber 2*pi*m_peak/L_c: one positive hump per wavelength."""
        return 2.0 * math.pi * self.m_peak / self.crystal_length

    @property
    def is_crystal(self) -> np.ndarray:
        """Modes holding more of their energy in the stack than an even spread."""
        return self.gamma_conf > self.crystal_length / self.cavity_length

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path,
            omega=self.omega,
            gamma_conf=self.gamma_conf,
            m_peak=self.m_peak,
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

    Returns (m, rho, rho_planes) with integer m and residual rho in [0, pi)
    at `end`, and rho_planes of shape (q.size, n) holding the residual phase
    arriving at each of the n planes strictly before `end`, before its
    shear. A plane sitting at `end` is left out, so the phase is the one
    just left of it.

    Free propagation advances Theta rigidly by q*d; a plane shear (u fixed,
    w reduced by q*eta*u) moves Theta forward but never across a multiple
    of pi, where u = 0. Carrying m apart from rho keeps the shear branch
    exact even at the Bragg frequencies m*pi*c/l_p, where every plane sits
    at a phase multiple of pi and a plain accumulated phase loses the branch
    to rounding.
    """
    eta = params.plane_strength
    planes = params.plane_positions
    planes = planes[planes < end]
    m = np.zeros(q.shape, dtype=np.int64)
    rho = np.zeros_like(q)
    rho_planes = np.empty((q.size, planes.size))
    prev = 0.0
    for i, z in enumerate(planes):
        adv = rho + q * (z - prev)
        m += np.floor(adv / np.pi).astype(np.int64)
        rho = rho_planes[:, i] = np.mod(adv, np.pi)
        if eta != 0.0:
            s, c = np.sin(rho), np.cos(rho)  # s >= 0 since rho in [0, pi)
            rho = np.mod(np.arctan2(s, c - q * eta * s), np.pi)
        prev = z
    adv = rho + q * (end - prev)
    m += np.floor(adv / np.pi).astype(np.int64)
    return m, np.mod(adv, np.pi), rho_planes


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


def normalize_modes(omega: np.ndarray, params: PhysicalParams):
    """Normalize each mode to int eps(z) u^2 dz / eps0 = 1, in closed form.

    With (u, w) = R (sin Theta, cos Theta), free flight keeps R and advances
    Theta by q*d, so a region of length d that the field leaves with phase
    theta_a and reaches its right end with phase theta_b holds

        int u^2 dz = R^2 [d/2 - (sin 2 theta_b - sin 2 theta_a) / (4q)]

    A plane reached with residual phase rho, s = sin(rho), c = cos(rho),
    keeps u = R s and shears w to R g with g = c - q*eta*s: R^2 grows by
    h = s^2 + g^2, and the phase leaving it has sin 2 theta = 2 s g / h.
    Region 0 leaves z = 0 with theta = 0 and R = 1; the last region reaches
    L with the phase at L. All of it comes from the phases `_pruefer_phase`
    passes at the planes, with no second propagation.

    Returns (u2_planes, segment_integrals), both already scaled: u^2 at each
    plane and the plain integral of u^2 over each region, from [0, z_1] to
    [z_n, L]. The delta-plane terms eta * u(z_i)^2 enter the norm (they are
    part of eps) but are not part of the segment integrals.
    """
    q = np.atleast_1d(np.asarray(omega, dtype=float)) / C
    _, rho_end, rho = _pruefer_phase(q, params, params.cavity_length)
    s, c = np.sin(rho), np.cos(rho)
    g = c - (q * params.plane_strength)[:, None] * s
    h = s**2 + g**2
    ones, zeros = np.ones((q.size, 1)), np.zeros((q.size, 1))
    r2 = np.cumprod(np.hstack([ones, h]), axis=1)  # R^2 in each region
    sin_arrive = np.hstack([2.0 * s * c, np.sin(2.0 * rho_end)[:, None]])
    sin_leave = np.hstack([zeros, 2.0 * s * g / h])
    z_edges = np.concatenate(([0.0], params.plane_positions, [params.cavity_length]))
    seg = r2 * (0.5 * np.diff(z_edges) - (sin_arrive - sin_leave) / (4.0 * q[:, None]))
    u2_planes = r2[:, :-1] * s**2
    scale2 = 1.0 / (seg.sum(axis=1) + params.plane_strength * u2_planes.sum(axis=1))
    return u2_planes * scale2[:, None], seg * scale2[:, None]


def norm_residuals(omega: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """|int eps u^2 / eps0 - 1| for normalized modes (test hook)."""
    u2_planes, seg = normalize_modes(omega, params)
    delta_part = params.plane_strength * np.sum(u2_planes, axis=1)
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
    m, rho, _ = _pruefer_phase(q, params, params.crystal_length)
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
    return ModeTable(
        omega=omega,
        gamma_conf=gamma_conf,
        m_peak=count_peaks(omega, params),
        plane_strength=params.plane_strength,
        cavity_length=params.cavity_length,
        crystal_length=params.crystal_length,
        plane_spacing=params.plane_spacing,
        n_planes=params.n_planes,
        omega_max=float(omega_max),
    )
