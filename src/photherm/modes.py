"""Eigenmodes of a closed 1D cavity containing a stack of delta planes.

The relative permittivity is 1 + eta * sum_i delta(z - z_i), planes at
z_i = i * plane_spacing, cavity walls at z = 0 and z = L with u(0) = u(L) = 0.
Between planes the field obeys u'' + q^2 u = 0 with q = Omega / c; crossing a
plane leaves u continuous and jumps the derivative:

    u'(z_i+) - u'(z_i-) = -q^2 * eta * u(z_i)

The working pair is (u, w) with w = u' / q, shot from z = 0 with
(u, w) = (0, 1): free propagation is a pure rotation by q*d and a plane
crossing is the shear w -> w - q*eta*u. Eigenfrequencies come from the
Pruefer phase Theta of (u, w) at z = L: floor(Theta/pi) is the exact number
of eigenfrequencies below any frequency (`count_below`), and the k-th root
is where Theta = k*pi. Every root is refined inside its Sturm-count bracket
by safeguarded secant steps on Theta - k*pi, all roots together
(`scan_eigenfrequencies`, through the `refine_roots` loop that also finds
the band-gap edges in `bands`). The same phase, stopped just left of the
last plane at L_c, gives the number of positive field maxima inside the stack
in closed form (`count_peaks`). The normalization and the confinement
factor come in closed form from the phases the same propagation passes at
the planes (`normalize_modes`): free flight keeps the amplitude R of
(u, w) = R (sin Theta, cos Theta), each plane multiplies R^2 by a factor
read off its arriving phase, and every region's integral of u^2 follows
from R^2 and the phases at its two ends. There is one loop over the planes,
in `_pruefer_phase`.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import SPEED_OF_LIGHT as C
from .params import PhysicalParams

# Scan resolution: fraction of the empty-cavity mode spacing pi*c/L.
SCAN_SPACING_FACTOR = 0.3
# Relative tolerance for eigenfrequency refinement.
ROOT_RTOL = 1e-12
# Relative margin of the crystal-class threshold Gamma > L_c/L. Modes with a
# node on every plane have Gamma exactly L_c/L: at eta = 0 those with 2n*L_c/L
# an integer, at any eta the Bragg frequencies m*pi*c/l_p that are
# eigenfrequencies. At the latter, Gamma moves by about 5e-10 * m^2 *
# eta / 2.1e-5 for a root off by ROOT_RTOL / 4: up to 6.6e-7 at 48 times the
# default plane strength, while no other mode came within 4e-6 of the
# threshold at 1e-3 to 48 times that strength.
CLASS_RTOL = 1e-6
# Format of a saved ModeTable; a file with another (or no) version is stale
# and solved again. Raise it whenever a saved field changes layout or value.
CENSUS_VERSION = 7


@dataclass
class ModeTable:
    """Solved eigenmode set below omega_max, sorted by frequency.

    gamma_conf is the confinement factor: the fraction of the plain field
    energy integral int u^2 dz that falls inside the plane stack [0, L_c].
    Delta-plane terms enter the mode normalization but not this ratio.
    params are the parameters the table was solved or loaded for;
    k_assigned and is_crystal derive from the stored columns and their
    geometry. passes counts the root-refinement passes of a solve (None
    when loaded).
    """

    omega: np.ndarray
    gamma_conf: np.ndarray
    m_peak: np.ndarray
    params: PhysicalParams
    passes: int | None = None

    @property
    def n_modes(self) -> int:
        return self.omega.size

    @property
    def k_assigned(self) -> np.ndarray:
        """Bloch wavenumber 2*pi*m_peak/L_c: one positive hump per wavelength."""
        return 2.0 * math.pi * self.m_peak / self.params.crystal_length

    @property
    def is_crystal(self) -> np.ndarray:
        """Modes holding more of their energy in the stack than an even spread."""
        even = self.params.crystal_length / self.params.cavity_length
        return self.gamma_conf > even * (1.0 + CLASS_RTOL)

    def save(self, path: str | Path) -> None:
        """Write a hidden .part file beside path, then rename it onto path: a
        run killed mid-save leaves no truncated table under any .npz name."""
        path = Path(path)
        part = path.with_name(f".{path.name}.{os.getpid()}.part")
        with open(part, "wb") as f:  # a bare file name would get .npz appended
            np.savez_compressed(
                f,
                omega=self.omega,
                gamma_conf=self.gamma_conf,
                m_peak=self.m_peak,
                census_version=CENSUS_VERSION,
                geometry=np.array(self.params.census_geometry()),
            )
        os.replace(part, path)

    @classmethod
    def load(cls, path: str | Path, params: PhysicalParams) -> "ModeTable | None":
        """The table saved at `path` for params, or None when the file was
        saved under another CENSUS_VERSION or for another census geometry."""
        with np.load(path) as data:
            if (
                "census_version" not in data
                or int(data["census_version"]) != CENSUS_VERSION
                or not np.array_equal(data["geometry"], params.census_geometry())
            ):
                return None
            return cls(data["omega"], data["gamma_conf"], data["m_peak"], params)


# ----------------------------------------------------------------------
# census: Sturm count and root refinement
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
    to rounding. The whole turns m gains are the ones np.mod takes off, so
    Theta stays continuous where an advance lands within an ulp of a
    multiple of pi.
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
        rho = rho_planes[:, i] = np.mod(adv, np.pi)
        m += np.rint((adv - rho) / np.pi).astype(np.int64)
        if eta != 0.0:
            s, c = np.sin(rho), np.cos(rho)  # s >= 0 since rho in [0, pi)
            rho = np.mod(np.arctan2(s, c - q * eta * s), np.pi)
        prev = z
    adv = rho + q * (end - prev)
    rho = np.mod(adv, np.pi)
    m += np.rint((adv - rho) / np.pi).astype(np.int64)
    return m, rho, rho_planes


def count_below(omega, params: PhysicalParams) -> np.ndarray:
    """Exact number of eigenfrequencies in (0, omega], vectorized.

    Oscillation-theorem count: with u = R sin(Theta), w = R cos(Theta) the
    number of zeros of u on (0, L] - which equals the number of
    eigenfrequencies below - is floor(Theta(L)/pi).
    """
    q = np.atleast_1d(np.asarray(omega, dtype=float)) / C
    return _pruefer_phase(q, params, params.cavity_length)[0]


def scan_eigenfrequencies(params: PhysicalParams) -> tuple[np.ndarray, int]:
    """All eigenfrequencies in (0, params.omega_max] to ROOT_RTOL, and the passes taken.

    The Pruefer phase Theta(L) = m*pi + rho on a scan grid (spacing
    SCAN_SPACING_FACTOR times the empty-cavity mode spacing pi*c/L) numbers
    the roots and gives the k-th root (1-based) the grid cell with
    count(lo) < k <= count(hi) as its bracket. All brackets are then refined
    together (`refine_roots`) on the increasing Theta(L) - k*pi =
    (m - k)*pi + rho, which is >= 0 exactly when count_below >= k since the
    count is m. Completeness does not rest on the grid, and roots sharing a
    cell (near-degenerate pairs at band edges) refine on their own k.
    """
    step = SCAN_SPACING_FACTOR * math.pi * C / params.cavity_length
    edges = np.arange(0.0, params.omega_max + step, step)
    edges[-1] = params.omega_max
    phase = lambda om: _pruefer_phase(om / C, params, params.cavity_length)[:2]
    past = lambda turns, res, k: (turns - k) * np.pi + res  # Theta(L) - k*pi
    m, rho = phase(edges)
    k = np.arange(1, m[-1] + 1)
    cell = np.searchsorted(m, k) - 1
    ends = [past(m[c], rho[c], k) for c in (cell, cell + 1)]
    f = lambda om, i: past(*phase(om), k[i])
    return refine_roots(edges[cell], edges[cell + 1], f, *ends)


def refine_roots(lo, hi, f, f_lo=np.nan, f_hi=np.nan) -> tuple[np.ndarray, int]:
    """Midpoints of the one-root brackets [lo, hi] refined to ROOT_RTOL, and the passes.

    Each pass calls f(x, i) at one x in each bracket i wider than ROOT_RTOL * hi;
    the root lies at or below x exactly where f(x, i) >= 0. f_lo and f_hi are f
    at the ends, NaN where unknown. x is the secant through the two latest
    iterates, held ROOT_RTOL * hi / 2 inside both ends so that an iterate at the
    root closes its bracket next pass, or the midpoint where the secant is
    undefined, leaves the bracket, or steps no less than half the step two passes
    earlier (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    xs = np.array([lo, hi])  # the two latest iterates, f there, the last two steps
    fs = np.array(np.broadcast_arrays(f_lo, f_hi, lo)[:2], dtype=float)
    steps = np.full(xs.shape, np.inf)
    for passes in itertools.count():
        w = np.flatnonzero(hi - lo > ROOT_RTOL * hi)
        if w.size == 0:
            return 0.5 * (lo + hi), passes
        (x0, x1), (f0, f1), a, b = xs[:, w], fs[:, w], lo[w], hi[w]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = x1 - f1 * (x1 - x0) / (f1 - f0)
        new = np.clip(s, a + 0.5 * ROOT_RTOL * b, b - 0.5 * ROOT_RTOL * b)
        secant = (a <= s) & (s <= b) & (np.abs(new - x1) < 0.5 * steps[0, w])
        new = np.where(secant, new, 0.5 * (a + b))
        f_new = f(new, w)
        xs[:, w], fs[:, w] = (x1, new), (f1, f_new)
        steps[:, w] = steps[1, w], abs(new - x1)
        up = f_new >= 0.0
        hi[w[up]], lo[w[~up]] = new[up], new[~up]


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


def count_peaks(omega: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Number of positive field maxima inside the plane stack (0, L_c).

    Each positive maximum is one crossing of the Pruefer phase through
    pi/2 + 2*pi*j: the phase never decreases, and on a positive hump u is
    concave, kinks included, since a plane only lowers w there. With
    Theta = m*pi + rho just left of the last plane at L_c, the crossings
    number (m + 1)//2, plus one when m is even and rho is past pi/2. One
    positive hump per full wavelength makes this the spatial order of the
    mode inside the stack. A root refined to ROOT_RTOL leaves Theta = q*L_c
    of the empty cavity uncertain by up to Theta * ROOT_RTOL / 2, so a
    crossing within Theta * ROOT_RTOL of L_c counts as a maximum on L_c,
    outside the stack: at eta = 0 one sits exactly there whenever
    2*omega*L_c/(pi*c) is 1 plus a multiple of 4.
    """
    q = np.atleast_1d(np.asarray(omega, dtype=float)) / C
    m, rho, _ = _pruefer_phase(q, params, params.crystal_length)
    past = rho - 0.5 * np.pi > (m * np.pi + rho) * ROOT_RTOL
    return (m + 1) // 2 + ((m % 2 == 0) & past)


def solve_modes(params: PhysicalParams) -> ModeTable:
    """Find, normalize, and classify every eigenmode up to params.omega_max."""
    omega, passes = scan_eigenfrequencies(params)
    if omega.size == 0:
        raise ValueError("no eigenmodes found below omega_max")

    _, seg = normalize_modes(omega, params)
    n_inside = params.n_planes  # regions [0, z_1], ..., [z_{n-1}, L_c]
    gamma_conf = seg[:, :n_inside].sum(axis=1) / seg.sum(axis=1)
    return ModeTable(omega, gamma_conf, count_peaks(omega, params), params, passes)
