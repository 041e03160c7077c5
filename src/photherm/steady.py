"""Newton solver for fixed points of the kinetic equations.

Finds states where the coupled electron/photon rate equations vanish.  The
photon block is linear in the photon numbers at frozen occupations, so the
photons are eliminated exactly (the Schur complement of the Jacobian's
diagonal photon block, kinetics.ShiftedLU, the kernel the time stepper's
BDF iterations also use) and Newton runs on the electron-only system, a
diagonal plus rank r, solved in r x r (Woodbury).  This stays well
conditioned near electron saturation, where the full system becomes too
non-normal for a usable descent direction.  A backtracking line search
accepts a step only when the residual of the full system strictly
decreases, so convergence is always certified on the full system.

Convergence is measured by a dimensionless residual: the Euclidean norm of
the right-hand side divided by the state norm times the fastest rate in the
system, so the same tolerance means the same thing in every damping regime.
Like every kernel, the solver couples through the range basis Q B of W;
exact_residual measures a state once against the exact W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinetics import (
    CouplingTables,
    ShiftedLU,
    affine_coefficients,
    exact_rhs,
    quasi_steady_photon,
    rhs,
)

MAX_NEWTON_STEPS = 50
MAX_HALVINGS = 10
ELECTRON_GUESS_CAP = 0.499


@dataclass
class SteadyResult:
    """Outcome of a fixed-point solve.

    ``state`` is the flat state vector (electron occupations followed by
    photon numbers), ``residual_norm`` the dimensionless scaled residual at
    that state, ``iterations`` a dict with the number of ``newton`` steps
    accepted, ``converged`` whether the scaled residual dropped below
    tolerance, and ``history`` the scaled residual at the start plus after
    every accepted Newton step (strictly decreasing by construction of the
    line search).
    """

    state: np.ndarray
    residual_norm: float
    iterations: dict = field(default_factory=dict)
    converged: bool = False
    history: list = field(default_factory=list)


def _rate_scale(tables: CouplingTables) -> float:
    """Fastest rate in the system, used to make residuals dimensionless."""
    p = tables.params
    return max(p.relaxation_rate, p.photon_loss_rate, p.g_photon * tables.w_max)


def _scaled_norm(r: np.ndarray, y: np.ndarray, rate: float) -> float:
    denom = max(float(np.linalg.norm(y)), 1e-300) * max(rate, 1e-300)
    return float(np.linalg.norm(r)) / denom


def scaled_residual(y: np.ndarray, tables: CouplingTables) -> float:
    """Dimensionless residual norm ||rhs|| / (||state|| * fastest rate)."""
    return _scaled_norm(rhs(y, tables), y, _rate_scale(tables))


def exact_residual(y: np.ndarray, tables: CouplingTables) -> float:
    """scaled_residual with the exact W in place of its range basis Q B
    (kinetics.exact_rhs): the solver works through Q B, and this certifies
    what it found once."""
    return _scaled_norm(exact_rhs(y, tables), y, _rate_scale(tables))


def seed_guess(tables: CouplingTables) -> np.ndarray:
    """Analytic starting guess when no trajectory is available.

    Electrons balance pumping against relaxation, interpolating from the
    thermal occupation toward full excitation with pump weight
    pump/(pump + relaxation), capped just below saturation; photons start
    at their conditional fixed point given those occupations.
    """
    pump = tables.pump
    denom = pump + tables.params.relaxation_rate
    weight = np.divide(pump, denom, out=np.zeros_like(pump), where=denom > 0.0)
    n_e = np.minimum(tables.fermi + weight * (1.0 - tables.fermi), ELECTRON_GUESS_CAP)
    photons = quasi_steady_photon(n_e, tables)
    return tables.pack(n_e, photons)


def solve_steady(
    guess: np.ndarray,
    tables: CouplingTables,
    tol: float = 1e-10,
    max_newton: int = MAX_NEWTON_STEPS,
) -> SteadyResult:
    """Newton solve of rhs(state) = 0 starting from ``guess``.

    The guess is projected onto the simplex; each step then solves the
    Newton system at the current occupations, photons at their conditional
    fixed point, through its photon-eliminated Schur complement and the
    Woodbury identity (kinetics.ShiftedLU at sigma = 0), and moves the
    occupations, photons following at their conditional fixed point.  A
    trial step is accepted only when the full scaled residual strictly
    decreases, halving the step at most ten times.  A singular Jacobian,
    inverted gain at the current occupations, a stalled line search or an
    exhausted step budget returns the best state found, flagged unconverged.
    """
    guess = np.asarray(guess, dtype=float)
    n_total = tables.n_freqs + tables.n_modes
    if guess.shape != (n_total,):
        raise ValueError(f"guess has shape {guess.shape}, expected ({n_total},)")
    if not np.all(np.isfinite(guess)):
        raise ValueError("guess contains non-finite entries")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    state = guess.copy()
    n_e, photons = tables.split(state)
    np.clip(n_e, 0.0, 1.0, out=n_e)
    np.maximum(photons, 0.0, out=photons)
    rate = _rate_scale(tables)
    res = scaled_residual(state, tables)
    history = [res]
    # y: the Newton state, photons at their conditional fixed point, with
    # its rhs = a * y + b; an accepted trial already is one, so the
    # coupling products are evaluated once per state
    y = None
    for _ in range(max_newton):
        if res < tol:
            break
        if y is None:
            try:
                y = tables.pack(n_e, quasi_steady_photon(n_e, tables))
            except ValueError:
                break
            a, b = affine_coefficients(y, tables)
        delta = ShiftedLU(y, tables, 0.0, -1.0, a).solve(-(a * y + b))[: tables.n_freqs]
        if not np.all(np.isfinite(delta)):
            break
        for halving in range(MAX_HALVINGS):
            trial_n = np.clip(n_e + 0.5**halving * delta, 0.0, 1.0)
            try:
                trial = tables.pack(trial_n, quasi_steady_photon(trial_n, tables))
            except ValueError:
                continue
            trial_a, trial_b = affine_coefficients(trial, tables)
            trial_res = _scaled_norm(trial_a * trial + trial_b, trial, rate)
            if trial_res < res:
                break
        else:
            break
        n_e, res, a, b = trial_n, trial_res, trial_a, trial_b
        state = y = trial
        history.append(res)

    return SteadyResult(
        state=state,
        residual_norm=res,
        iterations={"newton": len(history) - 1},
        converged=res < tol,
        history=history,
    )
