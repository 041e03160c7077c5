"""Adaptive exponential integrator for the kinetic equations over log-spaced time.

exponential-diagonal: each variable's exact affine part (the rhs is affine
in each variable with the opposite block frozen) is integrated exactly via
x -> x e^z + b h (e^z - 1)/z, z = a h, one fused expression on the packed
(a, b) of kinetics.affine_coefficients; the midpoint variant evaluates
(a, b) at an exponential-Euler half step, giving second order with a
first-order embedded error estimate. Fixed points of the full system are
also fixed points of the discrete map for any step size, and the scheme is
unaffected by the diagonal stiffness.

A PI step controller, log-spaced snapshot alignment, and the
physical-simplex clamp policy (tolerate and clamp excursions below
10 * (atol + rtol * scale), abort on anything larger) drive the stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinetics import CouplingTables, affine_coefficients, total_excitation

T_FLOOR = 1e-16  # earliest log-grid time, s
POINTS_PER_DECADE = 60
METHOD = "exponential-diagonal"


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


def log_times(
    t_end: float,
    points_per_decade: int = POINTS_PER_DECADE,
    t_start: float = T_FLOOR,
) -> np.ndarray:
    """Log-spaced sample times over [t_start, t_end], t=0 prepended."""
    if t_end <= t_start:
        raise ValueError("t_end must exceed the log-grid start")
    if points_per_decade < 1:
        raise ValueError(f"points_per_decade must be at least 1, got {points_per_decade}")
    decades = math.log10(t_end / t_start)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    grid = np.logspace(math.log10(t_start), math.log10(t_end), n)
    grid[-1] = t_end
    return np.concatenate([[0.0], grid])


def _affine_step(y, h, a, b):
    """Exact step of dy/dt = a y + b; phi1(z) = (e^z - 1)/z is 1 at |z| <= 1e-12."""
    z = a * h
    phi1 = np.divide(np.expm1(z), z, out=np.ones_like(z), where=np.abs(z) > 1e-12)
    return y * np.exp(z) + b * h * phi1


class _StepController:
    """PI controller on the weighted max-norm error."""

    def __init__(self, order: int, rtol: float, atol: float, safety: float = 0.9):
        self.rtol = rtol
        self.atol = atol
        self.safety = safety
        self.beta1 = 0.7 / (order + 1.0)
        self.beta2 = 0.4 / (order + 1.0)
        self.prev_ratio = 1.0

    def error_norm(self, err, y_old, y_new) -> float:
        # weighted max norm: every component individually within tolerance
        scale = self.atol + self.rtol * np.maximum(np.abs(y_old), np.abs(y_new))
        return float(np.max(np.abs(err) / scale))

    def factor(self, err_norm: float, rejected: bool) -> float:
        if not math.isfinite(err_norm):
            return 0.2
        ratio = 1.0 / max(err_norm, 1e-10)
        if rejected:
            # drop PI memory: a failed step must strictly shrink
            return min(max(self.safety * ratio**self.beta1, 0.1), 0.9)
        f = self.safety * ratio**self.beta1 * self.prev_ratio**self.beta2
        return min(max(f, 0.2), 5.0)

    def accept(self, err_norm: float) -> None:
        self.prev_ratio = 1.0 / max(err_norm, 1e-10)


def _clamp_simplex(y, n_freqs, rtol, atol):
    """Clamp tiny excursions onto [0,1] x [0,inf) in place; abort on large ones."""
    n = y[:n_freqs]
    N = y[n_freqs:]
    n_lo, n_hi, N_lo = float(n.min()), float(n.max()), float(N.min())
    slack_n = 10.0 * (atol + rtol)
    slack_p = 10.0 * (atol + rtol * max(1.0, float(N.max())))
    if n_lo < -slack_n or n_hi > 1.0 + slack_n or N_lo < -slack_p:
        raise RuntimeError("state left the physical simplex beyond clamp tolerance")
    if n_lo < 0.0:
        np.maximum(n, 0.0, out=n)
    if n_hi > 1.0:
        np.minimum(n, 1.0, out=n)
    if N_lo < 0.0:
        np.maximum(N, 0.0, out=N)
    return y


def _step_exponential(y, h, tables):
    """Exponential midpoint step with embedded exponential-Euler estimate."""
    a1, b1 = affine_coefficients(y, tables)
    y_half = _affine_step(y, 0.5 * h, a1, b1)
    a2, b2 = affine_coefficients(y_half, tables)
    y_new = _affine_step(y, h, a2, b2)
    y_low = _affine_step(y, h, a1, b1)
    return y_new, y_new - y_low


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
    at t_end. When every dissipation channel is off, total excitation is an
    exact linear invariant of the equations; each accepted step is then
    re-projected onto that invariant, removing the secular drift of the
    block-frozen exponential step without changing its order.
    """
    if t_end <= 0.0 or rtol <= 0.0 or atol < 0.0:
        raise ValueError("t_end and tolerances must be positive")
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
    dim = y.size
    if dim != tables.n_freqs + tables.n_modes:
        raise ValueError("state length does not match the coupling tables")
    n_freqs = tables.n_freqs
    y = _clamp_simplex(y, n_freqs, rtol, atol)
    conserve = (
        tables.gamma_r == 0.0 and tables.gamma_c == 0.0 and not np.any(tables.pump)
    )
    if conserve:
        n_site = tables.atoms_per_site
        proj_denom = n_site * n_site * n_freqs + tables.n_modes
        target_excitation = total_excitation(y, tables)
    snaps = np.empty((times.size, dim))
    snaps[0] = y
    next_i = 1

    # The embedded estimate is per-step; accumulated coefficient-lag error
    # runs a few times larger, so the controller targets a fraction of the
    # requested tolerance to deliver global error near rtol.
    ctl = _StepController(1, 0.4 * rtol, 0.4 * atol, safety=0.8)
    t = 0.0
    # open conservatively: within the first snapshot interval and the
    # fastest diagonal rate
    rate = float(np.max(np.abs(affine_coefficients(y, tables)[0])))
    h = min(times[next_i], 0.1 / rate if rate > 0 else times[next_i])
    h = max(h, 1e-300)
    n_accept = n_reject = 0
    min_step, max_step = math.inf, 0.0

    while t < t_end:
        if n_accept + n_reject > max_steps:
            raise RuntimeError("step budget exhausted: system too stiff for method")
        clamped = t + h >= times[next_i] * (1.0 - 1e-14)
        h_try = min(h, times[next_i] - t) if clamped else h

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            y_new, err = _step_exponential(y, h_try, tables)
        if not np.all(np.isfinite(y_new)):
            n_reject += 1
            h = h_try * 0.2
            continue

        err_norm = ctl.error_norm(err, y, y_new)
        if err_norm <= 1.0 or h_try <= t * 1e-15:
            ctl.accept(err_norm)
            t = times[next_i] if clamped and h_try == times[next_i] - t else t + h_try
            y = _clamp_simplex(y_new, n_freqs, rtol, atol)
            if conserve:
                c = (target_excitation - total_excitation(y, tables)) / proj_denom
                y[:n_freqs] += c * n_site
                y[n_freqs:] += c
            n_accept += 1
            min_step, max_step = min(min_step, h_try), max(max_step, h_try)
            while next_i < times.size and t >= times[next_i] * (1.0 - 1e-14):
                snaps[next_i] = y
                next_i += 1
            if next_i >= times.size:
                break
            rejected = False
        else:
            n_reject += 1
            rejected = True
        h = h_try * ctl.factor(err_norm, rejected)
        if h <= 0.0 or not math.isfinite(h):
            raise RuntimeError("step size underflow")

    return Trajectory(
        times=times,
        states=snaps,
        n_freqs=n_freqs,
        metadata={
            "method": METHOD,
            "rtol": rtol,
            "atol": atol,
            "accepted_steps": n_accept,
            "rejected_steps": n_reject,
            "min_step": min_step,
            "max_step": max_step,
            "conservative_projection": bool(conserve),
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
