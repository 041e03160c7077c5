"""Emission spectra from photon-number states.

Each cavity mode radiates the fraction of its energy living outside the
crystal, giving one raw spectral point per mode: frequency times photon
number times (1 - confined fraction).  A detector with finite frequency
resolution sees the sum of peak-one Lorentzians of half-width ``gamma_d``
centered on the modes.  The one-dimensional blackbody curve
omega / (exp(hbar omega / kT) - 1) is the thermal reference, and ratios
against it quantify super- or sub-thermal emission.

Values carry rad/s units (frequency times dimensionless occupation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, HBAR
from .modes import ModeTable

KINDS = ("raw", "detector", "blackbody", "ratio")
DEFAULT_N_SAMPLES = 2000
_CHUNK = 8  # sample rows per kernel block: one block stays in cache


@dataclass(frozen=True)
class Spectrum:
    """Sampled spectrum: increasing frequencies, values, and a kind tag."""

    omega: np.ndarray
    value: np.ndarray
    kind: str

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        value = np.asarray(self.value, dtype=float)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "value", value)
        if self.kind not in KINDS:
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if omega.ndim != 1 or omega.shape != value.shape:
            raise ValueError("omega and value must be 1-d arrays of equal length")
        # non-decreasing, not increasing: the census is simple, but two roots
        # closer than its refinement tolerance may settle on one frequency
        if omega.size > 1 and np.any(np.diff(omega) < 0.0):
            raise ValueError("omega samples must be increasing")
        if self.kind != "ratio" and value.size and np.min(value) < 0.0:
            raise ValueError(f"{self.kind} spectrum values must be nonnegative")


def default_samples(omega_max: float, n_samples: int = DEFAULT_N_SAMPLES) -> np.ndarray:
    """Uniform sample grid over (0, omega_max], excluding zero."""
    if omega_max <= 0.0:
        raise ValueError("omega_max must be positive")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    return np.linspace(omega_max / n_samples, omega_max, n_samples)


def outside_weights(photons: np.ndarray, table: ModeTable) -> np.ndarray:
    """Per-mode emitted energy: frequency * photons * free-space fraction."""
    photons = np.asarray(photons, dtype=float)
    if photons.shape != table.omega.shape:
        raise ValueError(
            f"photon vector has shape {photons.shape}, expected {table.omega.shape}"
        )
    return table.omega * photons * (1.0 - table.gamma_conf)


def emission_raw(photons: np.ndarray, table: ModeTable) -> Spectrum:
    """One spectral point per mode at the mode's own frequency."""
    return Spectrum(table.omega.copy(), outside_weights(photons, table), "raw")


def emission_detector(
    photons: np.ndarray,
    table: ModeTable,
    omega_samples: np.ndarray | None = None,
    gamma_d: float = 5e11,
) -> Spectrum:
    """Detector-convolved spectrum: peak-one Lorentzians summed over modes."""
    if gamma_d <= 0.0:
        raise ValueError("gamma_d must be positive")
    weights = outside_weights(photons, table)
    if omega_samples is None:
        omega_samples = default_samples(float(table.omega[-1]))
    omega_samples = np.asarray(omega_samples, dtype=float)
    values = np.empty_like(omega_samples)
    buffer = np.empty((_CHUNK, table.n_modes))
    for start in range(0, omega_samples.size, _CHUNK):
        block = omega_samples[start : start + _CHUNK, None]
        # kernel = 1 / (1 + ((block - omega) / gamma_d)^2), in place
        kernel = buffer[: block.shape[0]]
        np.subtract(block, table.omega, out=kernel)
        kernel /= gamma_d
        np.square(kernel, out=kernel)
        kernel += 1.0
        np.divide(1.0, kernel, out=kernel)
        np.matmul(kernel, weights, out=values[start : start + _CHUNK])
    return Spectrum(omega_samples, values, "detector")


def blackbody_1d(omega_samples: np.ndarray, temperature: float) -> Spectrum:
    """One-dimensional Planck curve omega / (exp(hbar omega / kT) - 1)."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    omega_samples = np.asarray(omega_samples, dtype=float)
    if omega_samples.size and np.min(omega_samples) <= 0.0:
        raise ValueError("blackbody samples must be positive")
    x = HBAR * omega_samples / (BOLTZMANN * temperature)
    # expm1 keeps omega/x * x/(exp(x)-1) accurate down to the kT/hbar limit
    return Spectrum(omega_samples, omega_samples / np.expm1(x), "blackbody")


def spectral_ratio(spectrum: Spectrum, reference: Spectrum) -> Spectrum:
    """Pointwise quotient of two spectra sharing a sample grid."""
    if spectrum.omega.shape != reference.omega.shape or not np.array_equal(
        spectrum.omega, reference.omega
    ):
        raise ValueError("spectra must share identical frequency samples")
    if reference.value.size and np.min(np.abs(reference.value)) == 0.0:
        raise ValueError("reference spectrum has zero samples")
    return Spectrum(spectrum.omega.copy(), spectrum.value / reference.value, "ratio")
