"""Eigenmodes of a closed 1D cavity containing a stack of delta planes.

The relative permittivity is 1 + eta * sum_i delta(z - z_i), planes at
z_i = i * plane_spacing, cavity walls at z = 0 and z = L with u(0) = u(L) = 0.
Between planes the field obeys u'' + q^2 u = 0 with q = Omega / c; crossing a
plane leaves u continuous and jumps the derivative:

    u'(z_i+) - u'(z_i-) = -q^2 * eta * u(z_i)

The working pair is (u, w) with w = u' / q, shot from z = 0 with
(u, w) = (0, 1) and carried as the complex field w + i*u: free flight over a
distance d multiplies it by e^(i*q*d), and a plane crossing is the shear
w -> w - q*eta*u. Plane i sits at i * plane_spacing, so every flight up to
the last plane is the same rotation, computed once per call, and the loop
over the planes (`_pruefer_phase`) holds one complex product and one shear
per plane, with no transcendental. The Pruefer phase Theta = arg(w + i*u)
is needed only at the end: each flight adds its whole half-turns, read off
its own sine, and one more where the parity of floor(Theta/pi) - the sign
of u, never changed by a shear - says it crossed another multiple of pi;
one angle at the end gives the residual. floor(Theta(L)/pi) is the exact
number of eigenfrequencies below any frequency (`count_below`), and the
k-th root is where Theta = k*pi. Every root is refined inside its
Sturm-count bracket by safeguarded secant steps on Theta - k*pi, all roots
together (`scan_eigenfrequencies`, through the `refine_roots` loop that also
finds the band-gap edges in `bands`). The same shot, stopped just left of
the last plane at L_c, gives the number of positive field maxima inside the
stack in closed form (`count_peaks`). The normalization and the confinement
factor are polynomial in the field the shot stores at the planes
(`normalize_modes`): free flight keeps R^2 = u^2 + w^2, and a region holds
R^2 d/2 - (u_b w_b - u_a w_a)/(2q) between its ends. A plane grows the
field by at most 1 + q*eta, so an exact power-of-two rescale at planes
spaced by that bound keeps a long stack of strong planes finite.
"""

from __future__ import annotations

import itertools
import math
import os
import zipfile
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
# eigenfrequencies. At the latter, Gamma moves by 5.1e-10 (reduced scale) to
# 5.6e-10 (full) * m^2 * eta / 2.1e-5 for a root off by ROOT_RTOL / 4: up to
# 6.7e-7 at 48 times the default plane strength, while no other mode came
# within 4.1e-6 of the threshold at 1e-3 to 48 times that strength.
CLASS_RTOL = 1e-6
# Format of a saved ModeTable; a file with another (or no) version is stale
# and solved again. Raise it whenever a saved field changes layout or value.
CENSUS_VERSION = 8


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
        """Write a hidden .part file beside path, then rename it onto path (a
        killed save leaves no truncated .npz; one that raises, no .part)."""
        path = Path(path)
        part = path.with_name(f".{path.name}.{os.getpid()}.part")
        try:
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
        finally:
            part.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path, params: PhysicalParams) -> "ModeTable | None":
        """The table saved at `path` for params, or None (a cache miss) when
        the file is absent, empty, truncated or not a zip, or was saved under
        another CENSUS_VERSION or for another census geometry."""
        try:
            # np.load leaves a file it opened itself open when zipfile raises
            with open(path, "rb") as f, np.load(f) as data:
                fresh = "census_version" in data and data["census_version"] == CENSUS_VERSION
                if fresh and np.array_equal(data["geometry"], params.census_geometry()):
                    return cls(data["omega"], data["gamma_conf"], data["m_peak"], params)
        except (FileNotFoundError, EOFError, ValueError, zipfile.BadZipFile):
            pass
        return None


# ----------------------------------------------------------------------
# census: Sturm count and root refinement
# ----------------------------------------------------------------------


def _flight(phase: np.ndarray):
    """Rotation e^(i*phase) of w + i*u over one free flight, and its whole half-turns.

    The half-turns are read off the applied sin(phase), so that they agree with
    the rotation actually applied where phase lies within rounding of a
    multiple of pi: sin(phase) = (-1)^n sin(phase - n*pi) for the nearest
    multiple n*pi, and it is never 0 for phase > 0.
    """
    rot = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=rot.real)
    s = np.sin(phase, out=rot.imag)
    n = np.rint(phase / np.pi).astype(np.int64)
    return rot, n - ((s < 0.0) != (n & 1))


def _pruefer_phase(q: np.ndarray, params: PhysicalParams, end: float, keep: bool = False):
    """Pruefer phase Theta = m*pi + rho of the pair shot from z = 0, at z = end.

    Returns (m, rho, (field, exponent)) with integer m and residual rho in
    [0, pi) at `end`. With `keep`, field holds w + i*u arriving at z = 0, at
    each of the n planes strictly before `end` (before its shear) and at `end`,
    shape (n + 2, q.size); otherwise only its last row, at `end`. The true
    field of row j is field[j] * 2**exponent[j], where exponent has one column
    when nothing was rescaled. A plane sitting at `end` is left out, so the
    phase is the one just left of it.

    Plane i sits at i*l_p, so every flight up to the last plane is one rotation
    by q*l_p, computed once, and the loop holds one complex product and one
    shear per plane. A shear (u fixed, w reduced by q*eta*u) moves Theta
    forward but never across a multiple of pi, where u = 0, so it keeps the
    parity of floor(Theta/pi). A flight adds its whole half-turns to m, and one
    more where that parity says Theta crossed another multiple of pi. At `end`
    rho comes from one angle; where that angle rounds onto the next multiple
    of pi, m takes that half-turn too, so that Theta stays continuous. A shear
    grows the amplitude by at most 1 + q*eta, so a rescale by an exact power of
    two every `every` planes, at the same planes for every q, keeps the
    amplitude within 2**+-500 and its square a normal double.
    """
    eta, l_p = params.plane_strength, params.plane_spacing
    n = int(np.count_nonzero(params.plane_positions < end))
    rot, turns = _flight(q * l_p)
    rot_end, turns_end = _flight(q * (end - n * l_p))
    growth = math.log2(1.0 + eta * np.abs(q).max(initial=0.0))
    every = int(max(1, min(n + 1, 500 // growth))) if growth > 0.0 else n + 1
    q_eta = q * eta
    rows = n + 2 if keep else 1  # row i is field[i % rows]
    field = np.empty((rows, q.size), dtype=complex)
    field[0] = 1.0  # (u, w) = (0, 1)
    exponent = np.zeros((rows, q.size if every <= n else 1), dtype=np.int64)
    odd = np.zeros((n + 2, q.size), dtype=bool)  # floor(Theta/pi) is odd
    for i in range(1, n + 2):
        prev, cur = field[(i - 1) % rows], field[i % rows]
        np.multiply(prev - q_eta * prev.imag, rot if i <= n else rot_end, out=cur)
        if i % every == 0 and i <= n:
            _, e = np.frexp(np.abs(cur))
            cur *= np.ldexp(1.0, -e)
            exponent[i % rows :] = exponent[(i - 1) % rows] + e
        odd[i] = (cur.imag < 0.0) | ((cur.imag == 0.0) & (cur.real < 0.0))
    flips = np.count_nonzero(odd[1 : n + 1] != (odd[:n] ^ ((turns & 1) == 1)), axis=0)
    a = np.mod(np.angle(field[-1]), 2.0 * np.pi)
    half = (a >= np.pi).astype(np.int64) + (a >= 2.0 * np.pi)
    # the parity at `end` says whether the last flight crossed one more
    # multiple of pi; an angle rounded onto the next multiple adds one more
    last = (odd[n] ^ odd[-1] ^ ((turns_end & 1) == 1)) + half - odd[-1]
    m = n * turns + flips + turns_end + last
    return m, a - half * np.pi, (field, exponent)


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

    Free flight over a region of length d keeps R^2 = u^2 + w^2, and with
    (u_a, w_a) leaving its left end and (u_b, w_b) reaching its right end

        int u^2 dz = R^2 d/2 - (u_b w_b - u_a w_a) / (2q)

    A plane keeps u and shears w by -q*eta*u, so (u_a, w_a) comes from the
    field arriving at the plane. All of it is polynomial in the field
    `_pruefer_phase` stores at z = 0, the planes and L, with no second
    propagation; each row's power-of-two exponent enters relative to the
    mode's largest, so that a long stack of strong planes stays finite.

    Returns (u2_planes, segment_integrals), both already scaled: u^2 at each
    plane and the plain integral of u^2 over each region, from [0, z_1] to
    [z_n, L]. The delta-plane terms eta * u(z_i)^2 enter the norm (they are
    part of eps) but are not part of the segment integrals.
    """
    q = np.atleast_1d(np.asarray(omega, dtype=float)) / C
    eta = params.plane_strength
    _, _, (field, exponent) = _pruefer_phase(q, params, params.cavity_length, keep=True)
    u, w = field.imag, field.real
    u_a, w_a = u[:-1], w[:-1] - q * eta * u[:-1]
    d = np.full((params.n_planes + 1, 1), params.plane_spacing)  # as `_pruefer_phase` shoots
    d[-1] = params.cavity_length - params.crystal_length
    left = 0.5 * d * (u_a**2 + w_a**2) + u_a * w_a / (2.0 * q)
    right = u[1:] * w[1:] / (2.0 * q)
    u2_planes = u[1:-1] ** 2
    # each row weighed against the mode's largest; all ones where nothing was rescaled
    weight = np.ldexp(1.0, 2 * (exponent - exponent.max(axis=0)))
    left *= weight[:-1]
    right *= weight[1:]
    u2_planes *= weight[1:-1]
    seg = left - right
    norm = seg.sum(axis=0) + eta * u2_planes.sum(axis=0)
    return (u2_planes / norm).T, (seg / norm).T


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
    bad = ~(np.isfinite(omega) & np.isfinite(gamma_conf))
    if np.any(bad):
        raise ValueError(f"census is not finite: {np.count_nonzero(bad)} of {omega.size} modes")
    return ModeTable(omega, gamma_conf, count_peaks(omega, params), params, passes)
