"""Emission spectra from photon-number states.

Each cavity mode radiates the fraction of its energy living outside the
crystal: its weight is frequency times photon number times (1 - confined
fraction), `outside_weights`.  A detector with finite frequency
resolution sees the sum of peak-one Lorentzians of half-width ``gamma_d``
centered on the modes.  The one-dimensional blackbody curve
omega / (exp(hbar omega / kT) - 1) is the thermal reference, and ratios
against it quantify super- or sub-thermal emission.

Values carry rad/s units (frequency times dimensionless occupation).

The detector spectrum needs every mode's Lorentzian at every sample, but
`emission_detector` sums them one by one only near the modes. The modes,
sorted by frequency, form clusters of _CLUSTER consecutive modes. A sample
within one cluster width h of a cluster's interval [a, b] gets the exact sum
over that cluster's modes. Every farther sample sees the cluster through
_PROXIES proxy modes at the Chebyshev nodes of [a, b], each carrying the
cluster's weights anterpolated onto it: the one-level black-box fast
multipole method (Fong & Darve, J. Comput. Phys. 228, 2009). In the
cluster's coordinate x = (2 omega - a - b) / h a far sample puts the
Lorentzian's poles s +- i gamma_d beyond x = +-3, outside the Bernstein
ellipse of rho = 3 + sqrt(8), so the degree _PROXIES - 1 Chebyshev
interpolant in omega errs by about rho^-_PROXIES (5e-16) of each
Lorentzian, whatever gamma_d. The weights are nonnegative, so the bound
holds per sample, not only against the spectrum's maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, HBAR
from .modes import ModeTable
from .params import PhysicalParams

KINDS = ("detector", "blackbody", "ratio")
DEFAULT_N_SAMPLES = 2000
_CLUSTER = 256  # consecutive modes per cluster
_PROXIES = 20  # Chebyshev proxy modes per cluster: error ~ (3 + sqrt 8)^-20
_ROWS = 64  # sample rows per proxy block: 64 * 20 / 256 = 5 entries per mode


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


def _lorentzian(samples: np.ndarray, omega: np.ndarray, gamma_d: float, out: np.ndarray):
    """Peak-one Lorentzians 1 / (1 + ((s - omega) / gamma_d)^2), rows s, in out."""
    # the difference first, then its scale: s / gamma_d - omega / gamma_d
    # would cancel two large prescaled frequencies when gamma_d is narrow
    np.subtract(samples[:, None], omega, out=out)
    out *= 1.0 / gamma_d
    np.square(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _clusters(omega: np.ndarray, weights: np.ndarray):
    """Sorted modes cut into clusters, with each cluster's proxy modes.

    Returns omega and weights sorted and padded to shape (n_clusters,
    _CLUSTER) (padding repeats the top mode with zero weight), and the proxy
    frequencies and weights, each of shape (n_clusters, _PROXIES). Proxy i
    sits at the Chebyshev node t_i of the cluster's interval and carries
    W_i = sum_k w_k S(t_i, x_k), S(t, x) = 1/P + (2/P) sum_{j>=1} T_j(t) T_j(x),
    the Lagrange basis of the nodes, from the moments sum_k w_k T_j(x_k).
    """
    order = np.argsort(omega, kind="stable")
    n_clusters = -(-omega.size // _CLUSTER)
    pad = (0, n_clusters * _CLUSTER - omega.size)
    omega = np.pad(omega[order], pad, mode="edge").reshape(n_clusters, _CLUSTER)
    weights = np.pad(weights[order], pad).reshape(n_clusters, _CLUSTER)
    mid = 0.5 * (omega[:, -1] + omega[:, 0])[:, None]
    half = 0.5 * (omega[:, -1] - omega[:, 0])[:, None]
    # a cluster of one frequency keeps x = 0: every node then carries it exactly
    x = np.divide(omega - mid, half, out=np.zeros_like(omega), where=half > 0.0)
    moments = np.empty((n_clusters, _PROXIES))
    t_prev, t_j = np.ones_like(x), x
    moments[:, 0] = weights.sum(axis=1)
    for j in range(1, _PROXIES):
        moments[:, j] = np.einsum("ck,ck->c", weights, t_j)
        t_prev, t_j = t_j, 2.0 * x * t_j - t_prev
    angle = np.pi * (np.arange(_PROXIES) + 0.5) / _PROXIES
    cheb = np.cos(np.outer(np.arange(_PROXIES), angle))  # T_j(t_i) = cos(j angle_i)
    proxy_weights = (2.0 / _PROXIES) * (moments @ cheb) - moments[:, :1] / _PROXIES
    return omega, weights, mid + half * np.cos(angle), proxy_weights


def emission_detector(
    photons: np.ndarray,
    table: ModeTable,
    omega_samples: np.ndarray | None = None,
    gamma_d: float = PhysicalParams.detector_width,
) -> Spectrum:
    """Detector-convolved spectrum: peak-one Lorentzians summed over modes.

    Each sample sums the Lorentzians of the modes in every cluster whose
    interval [a, b] it lies within one width of (a - h <= s <= b + h)
    directly, and those of every other cluster through the cluster's
    Chebyshev proxy modes (see the module docstring). The proxy sums of the
    near (sample, cluster) pairs are zeroed before the product rather than
    subtracted after it, which would cancel where a sample sits in a gap.
    Per sample the result agrees with the dense sum to about
    (3 + sqrt 8)^-_PROXIES relative, for any gamma_d. The kernel blocks
    share one buffer of _ROWS rows by all proxies or one cluster, whichever
    is wider (250 KB for the 6,374 modes at full scale).
    """
    if gamma_d <= 0.0:
        raise ValueError("gamma_d must be positive")
    weights = outside_weights(photons, table)
    if omega_samples is None:
        omega_samples = default_samples(float(table.omega.max()))
    samples = np.asarray(omega_samples, dtype=float)
    omega, weights, nodes, proxy_weights = _clusters(table.omega, weights)
    n_clusters = omega.shape[0]
    width = omega[:, -1] - omega[:, 0]
    near = (samples[:, None] >= omega[:, 0] - width) & (
        samples[:, None] <= omega[:, -1] + width
    )
    values = np.empty_like(samples)
    buffer = np.empty(_ROWS * max(nodes.size, _CLUSTER))
    nodes, proxy_weights = nodes.ravel(), proxy_weights.ravel()
    for start in range(0, samples.size, _ROWS):
        rows = slice(start, start + _ROWS)
        block = samples[rows]
        kernel = buffer[: block.size * nodes.size].reshape(block.size, nodes.size)
        _lorentzian(block, nodes, gamma_d, kernel)
        kernel.reshape(block.size, n_clusters, _PROXIES)[near[rows]] = 0.0
        np.matmul(kernel, proxy_weights, out=values[rows])
    step = buffer.size // _CLUSTER  # near blocks fill the same buffer
    for c in range(n_clusters):
        near_rows = np.flatnonzero(near[:, c])
        for start in range(0, near_rows.size, step):
            rows = near_rows[start : start + step]
            kernel = buffer[: rows.size * _CLUSTER].reshape(rows.size, _CLUSTER)
            values[rows] += _lorentzian(samples[rows], omega[c], gamma_d, kernel) @ weights[c]
    return Spectrum(samples, values, "detector")


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
