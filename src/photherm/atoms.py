"""Two-level-atom frequency grid and occupation laws.

Atoms are grouped into N_omega frequency bins spread uniformly over the open
interval (0, omega_max), N_j identical atoms per bin. Thermal occupation is
Fermi-Dirac (two-level), pumping is an exponentially gated rate below the
material transition omega_0.
"""

from __future__ import annotations

import numpy as np

from .constants import BOLTZMANN, HBAR
from .params import PhysicalParams

# exp argument beyond which double precision saturates anyway
EXP_ARG_MAX = 700.0


def build_grid(params: PhysicalParams) -> np.ndarray:
    """Uniform atom frequencies omega_n = n*d, d = omega_max/(N+1), n=1..N.

    Both interval endpoints are excluded: omega=0 would make any Planck
    reference diverge and omega_max is the photon search cutoff.
    """
    n_freqs = params.n_atom_freqs
    if n_freqs < 1:
        raise ValueError("need at least one atom frequency")
    delta = params.omega_max / (n_freqs + 1)
    return delta * np.arange(1, n_freqs + 1, dtype=float)


def fermi_dirac(omega, temperature: float):
    """Equilibrium upper-level population 1/(1 + exp(hbar*omega/kT)).

    Monotone decreasing, 1/2 at omega=0; for arguments beyond EXP_ARG_MAX the
    closed form underflows smoothly through the exp(-x) asymptote.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    x = HBAR * np.atleast_1d(np.asarray(omega, dtype=float)) / (
        BOLTZMANN * temperature
    )
    out = np.empty_like(x)
    small = x < EXP_ARG_MAX
    out[small] = 1.0 / (1.0 + np.exp(x[small]))
    out[~small] = np.exp(-np.clip(x[~small], None, 2.0 * EXP_ARG_MAX))
    if np.ndim(omega) == 0:
        return float(out[0])
    return out


def pump_rate(omega, temperature: float, params: PhysicalParams):
    """Excitation rate Lambda_0 * exp(hbar*(omega_0 - omega)/kT).

    Grows exponentially below the gate frequency omega_0; the exponent is
    clipped at EXP_ARG_MAX so far-below-gate values saturate instead of
    overflowing.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    x = HBAR * (params.pump_center - np.atleast_1d(np.asarray(omega, dtype=float))) / (
        BOLTZMANN * temperature
    )
    out = params.pump_amplitude * np.exp(np.clip(x, -EXP_ARG_MAX, EXP_ARG_MAX))
    if np.ndim(omega) == 0:
        return float(out[0])
    return out


def bose_einstein(omega, temperature: float):
    """Planck occupation 1/(expm1(hbar*omega/kT)); equals n/(1-2n) at n = fermi_dirac."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    x = HBAR * np.atleast_1d(np.asarray(omega, dtype=float)) / (
        BOLTZMANN * temperature
    )
    out = 1.0 / np.expm1(np.clip(x, 1e-300, EXP_ARG_MAX))
    if np.ndim(omega) == 0:
        return float(out[0])
    return out
