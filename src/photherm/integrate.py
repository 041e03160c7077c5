"""Time integration of the kinetic equations over log-spaced sample times.

scipy's variable-order BDF (Shampine & Reichelt, SIAM J. Sci. Comput. 18,
1997) with the analytic Jacobian, at TOL_SCALE times the requested
tolerances so that the global error lands near the requested rtol. BDF's
Newton matrix I - cJ is never formed: kinetics.ShiftedLU, the steady
solver's kernel, eliminates its photon block and factors only an r x r
capacitance matrix (Woodbury). The hook replaces BDF attributes that are not public scipy API
(`_validate_jac`, `J`, `I`, `lu`, `solve_lu`); a test names any that go.
scipy.integrate and scipy.sparse load when the first solver is built
(`_schur_bdf`), so importing this module does not load them.
Snapshots come from BDF's dense output, clamped onto the physical simplex
when they leave it by less than 10 * (atol + rtol * scale); larger
excursions abort.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .kinetics import CouplingTables, ShiftedLU, affine_coefficients

T_FLOOR = 1e-16  # earliest log-grid time, s
TOL_SCALE = 0.4
POINTS_PER_DECADE = 60  # snapshots per decade of the log-spaced time grid


@dataclass
class Trajectory:
    """Log-spaced snapshots of the packed state [n_e, N_k]."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim)
    n_freqs: int
    metadata: dict = field(default_factory=dict)

    def electron(self, index: int) -> np.ndarray:
        return self.states[:, index]

    def photon(self, index: int) -> np.ndarray:
        return self.states[:, self.n_freqs + index]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def log_times(t_end: float, points_per_decade: int = POINTS_PER_DECADE) -> np.ndarray:
    """Log-spaced sample times over [T_FLOOR, t_end], t=0 prepended."""
    if t_end <= T_FLOOR:
        raise ValueError("t_end must exceed the log-grid start")
    if points_per_decade < 1:
        raise ValueError(f"points_per_decade must be at least 1, got {points_per_decade}")
    decades = math.log10(t_end / T_FLOOR)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    grid = np.logspace(math.log10(T_FLOOR), math.log10(t_end), n)
    grid[-1] = t_end
    return np.concatenate([[0.0], grid])


def _clamp_simplex(y, n_freqs, rtol, atol):
    """Clamp tiny excursions onto [0,1] x [0,inf) in place; abort on large ones."""
    n, N = y[:n_freqs], y[n_freqs:]
    slack_n = 10.0 * (atol + rtol)
    slack_p = 10.0 * (atol + rtol * max(1.0, float(N.max())))
    if n.min() < -slack_n or n.max() > 1.0 + slack_n or N.min() < -slack_p:
        raise RuntimeError("state left the physical simplex beyond clamp tolerance")
    np.clip(n, 0.0, 1.0, out=n)
    np.maximum(N, 0.0, out=N)
    return y


class _Jacobian:
    """J at y, as y and J's diagonal a; with I = 1, BDF's `I - c * J` is (1, c, y, a)."""

    __array_ufunc__ = None  # numpy scalars defer `c * J` to __rmul__

    def __init__(self, y: np.ndarray, a: np.ndarray, c: float = 1.0):
        self.y, self.a, self.c = y, a, c

    def __rmul__(self, c):
        return _Jacobian(self.y, self.a, c)

    def __rsub__(self, sigma):
        return sigma, self.c, self.y, self.a


@functools.cache
def _schur_bdf() -> type:
    """scipy's BDF with its Newton matrix I - cJ factored by kinetics.ShiftedLU."""
    from scipy.integrate import BDF
    from scipy.sparse import csc_matrix

    class SchurBDF(BDF):
        def __init__(self, fun, t0, y0, t_bound, tables: CouplingTables, **options):
            self.tables = tables
            super().__init__(fun, t0, y0, t_bound, **options)
            self.J = self.jac(self.t, self.y)
            self.I = 1.0
            self.lu = self._lu
            self.solve_lu = lambda lu, r: lu.solve(r)

        def _validate_jac(self, jac, sparsity):
            # a sparse placeholder keeps BDF.__init__ from building a dense identity
            return self._jacobian, csc_matrix((self.n, self.n))

        def _jacobian(self, t, y):
            self.njev += 1
            return _Jacobian(y.copy(), affine_coefficients(y, self.tables)[0])

        def _lu(self, shifted):
            sigma, c, y, a = shifted
            self.nlu += 1
            return ShiftedLU(y, self.tables, sigma, c, a)

    return SchurBDF


def integrate(
    y0: np.ndarray,
    t_end: float,
    tables: CouplingTables,
    rtol: float = 1e-6,
    atol: float = 1e-14,
    times: np.ndarray | None = None,
    points_per_decade: int = POINTS_PER_DECADE,
    max_steps: int = 50_000_000,
) -> Trajectory:
    """Advance the packed state to t_end, sampling at log-spaced times.

    `times` (t=0 is prepended when missing) must increase strictly and end
    at t_end. A step attempt is one trial time of BDF; more than
    `max_steps` attempts, a failed BDF step or a snapshot beyond the
    simplex clamp slack raise RuntimeError.
    """
    # written as the bounds that must hold, so that NaN fails them too
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    if not 0.0 <= atol < math.inf:
        raise ValueError(f"atol must be nonnegative and finite, got {atol}")
    if times is None:
        times = log_times(t_end, points_per_decade)
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0:
        times = np.concatenate([[0.0], times])
    if not (np.all(np.diff(times) > 0.0) and times[-1] == t_end):
        raise ValueError(
            "sample times must be non-negative, strictly increasing and end at t_end"
        )

    y = np.array(y0, dtype=float, copy=True)
    if y.size != tables.n_freqs + tables.n_modes:
        raise ValueError("state length does not match the coupling tables")
    n_freqs = tables.n_freqs
    _clamp_simplex(y, n_freqs, rtol, atol)

    # every BDF step attempt evaluates the rhs at its own trial time
    attempts, last_t = 0, None

    def fun(t, state):
        nonlocal attempts, last_t
        if t != last_t:
            attempts, last_t = attempts + 1, t
        a, b = affine_coefficients(state, tables)
        return a * state + b

    solver = _schur_bdf()(
        fun, 0.0, y, t_end, tables, rtol=TOL_SCALE * rtol, atol=TOL_SCALE * atol
    )
    attempts, last_t = 0, None  # start-up evaluations are no step attempts
    snaps = np.empty((times.size, y.size))
    snaps[0] = y
    next_i = 1
    n_accept = 0
    min_step, max_step = math.inf, 0.0
    while next_i < times.size:
        if attempts > max_steps:
            raise RuntimeError("step budget exhausted: system too stiff for method")
        message = solver.step()
        if solver.status == "failed":
            raise RuntimeError(f"BDF failed at t = {solver.t:.6e} s: {message}")
        n_accept += 1
        h = solver.t - solver.t_old
        min_step, max_step = min(min_step, h), max(max_step, h)
        stop = int(np.searchsorted(times, solver.t, side="right"))
        if stop > next_i:
            snaps[next_i:stop] = solver.dense_output()(times[next_i:stop]).T
            for snap in snaps[next_i:stop]:
                _clamp_simplex(snap, n_freqs, rtol, atol)
            next_i = stop

    return Trajectory(
        times=times,
        states=snaps,
        n_freqs=n_freqs,
        metadata={
            "method": "bdf",
            "rtol": rtol,
            "atol": atol,
            "accepted_steps": n_accept,
            "rejected_steps": attempts - n_accept,
            "min_step": min_step,
            "max_step": max_step,
            "nfev": solver.nfev,
            "njev": solver.njev,
            "nlu": solver.nlu,
        },
    )


def detect_saturation(
    traj: Trajectory, column: int, threshold: float = 0.1
) -> float:
    """Earliest time the observable stays within `threshold` of its final value.

    The comparison band is threshold * max(|final|, peak deviation from
    final), so pure decays toward zero are measured against their initial
    amplitude. Requires the final decade of the trajectory to be settled
    (deviation < 1% of the band scale), otherwise the run was too short.
    """
    v = traj.states[:, column]
    t = traj.times
    final = v[-1]
    dev = np.abs(v - final)
    scale = max(abs(final), float(dev.max()))
    if scale == 0.0:
        return float(t[0])
    last_decade = t >= t[-1] / 10.0
    if float(dev[last_decade].max()) > 0.01 * scale:
        raise RuntimeError("observable still drifting in the final decade")
    band = threshold * scale
    outside = np.nonzero(dev > band)[0]
    i = 0 if outside.size == 0 else int(outside[-1]) + 1
    return float(t[i])
